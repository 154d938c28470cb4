"""Discrete fibrations of convolution elements and free-module endomorphisms.

The base category is always a finite, explicitly listed sub-slice: a set
of slice objects together with a set of slice cells closed under
composition and containing all identities.  Unique-lift statements are
local per base arrow, so verifying them over such sub-slices is sound
evidence at any size.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedTables, NotInternalFunctor, NotLex
from .finset import FinMap, FinSet, all_maps, compose, group_by_value
from .internal import (
    CategoryTables,
    FiniteCategory,
    InternalCategory,
    InternalFunctor,
    LexFunctorData,
    apply_lex_functor,
    budget,
)
from .feistel import (
    KleisliEndo,
    _conv,
    _wrap_endo,
    conv_fibre,
    extend,
    module_plan,
    retrieve,
)
from .report import Report, ReportBuilder
from .span import SliceObject, TwoCell


@dataclass(frozen=True)
class SubSlice:
    """A finite subcategory of the slice over the category's base object."""

    ic: InternalCategory
    objects: tuple[SliceObject, ...]
    arrows: tuple[TwoCell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if len(set(self.objects)) != len(self.objects):
            raise MalformedTables("sub-slice objects must be distinct")
        for obj in self.objects:
            if obj.o != self.ic.o:
                raise MalformedTables("sub-slice object over the wrong base")
        if len(set(self.arrows)) != len(self.arrows):
            raise MalformedTables("sub-slice arrows must be distinct")
        for cell in self.arrows:
            if cell.src not in self.span_index or cell.dst not in self.span_index:
                raise MalformedTables("sub-slice arrow endpoints must be listed objects")
        self.base_category  # checks the identities and closure under composition

    @cached_property
    def _plans(self) -> tuple:
        """The module plan of each object, looked up once per sub-slice."""
        return tuple(module_plan(obj, self.ic) for obj in self.objects)

    @cached_property
    def span_index(self) -> dict:
        return {obj.span: i for i, obj in enumerate(self.objects)}

    def arrow_endpoints(self, k: int) -> tuple[int, int]:
        cell = self.arrows[k]
        return self.span_index[cell.src], self.span_index[cell.dst]

    @cached_property
    def base_category(self) -> FiniteCategory:
        # a listed cell is known by its ends and its map's table, so lookups build no cells
        cells = [(*self.arrow_endpoints(k), cell.map.table) for k, cell in enumerate(self.arrows)]
        cell_index = {cell: k for k, cell in enumerate(cells)}
        ident = tuple(cell_index.get((i, i, tuple(range(obj.a.size)))) for i, obj in enumerate(self.objects))
        if None in ident:
            missing = self.objects[ident.index(None)]
            raise MalformedTables(f"identity missing for object with |A|={missing.a.size}")
        s, t = tuple(i for i, _, _ in cells), tuple(j for _, j, _ in cells)
        out, pos = group_by_value(s, len(self.objects))
        rows = []
        for i, j, phi in cells:
            rows.append(tuple(cell_index.get((i, t[k], tuple(cells[k][2][v] for v in phi))) for k in out[j]))
            if None in rows[-1]:
                raise MalformedTables("sub-slice not closed under composition")
        tables = CategoryTables(s, t, ident, out, pos, tuple(rows))
        return FiniteCategory(tuple(range(len(self.objects))), tuple(range(len(self.arrows))), tables)


def full_subslice(ic: InternalCategory, objects) -> SubSlice:
    """The full sub-slice on the given objects: every slice cell between them."""
    objects = tuple(objects)
    arrows = []
    for src in objects:
        for dst in objects:
            budget(dst.a.size**src.a.size, f"{dst.a.size}^{src.a.size} slice cells")
            for phi in all_maps(src.a, dst.a):
                if compose(dst.f, phi) == src.f:
                    arrows.append(TwoCell(src.span, dst.span, phi))
    return SubSlice(ic, objects, tuple(arrows))


def default_subslice(ic: InternalCategory) -> SubSlice:
    """A small canonical sub-slice: the empty object, the points, one pair."""
    empty = SliceObject(FinSet(0), FinMap(FinSet(0), ic.o, ()))
    points = [
        SliceObject(FinSet(1), FinMap(FinSet(1), ic.o, (v,))) for v in range(ic.o.size)
    ]
    two = FinSet(2)
    pair_table = (0, 1 % ic.o.size) if ic.o.size else None
    objects = [empty, *points]
    if pair_table is not None:
        objects.append(SliceObject(two, FinMap(two, ic.o, pair_table)))
    return full_subslice(ic, objects)


@dataclass
class FunctorData:
    """Tabular functor between finite categories: ``obj[x]`` and ``arr[f]`` are target ids.

    None is no image.  An image outside the target is held as its key, which is no id: it
    fails every law that reads it, and two such images compare by their keys.
    """

    source: FiniteCategory
    target: FiniteCategory
    obj: tuple
    arr: tuple


def check_functor(fd: FunctorData) -> Report:
    """Check the functor laws on ids, one check per object, arrow or composable pair; witnesses are keys."""
    rb = ReportBuilder()
    src, tgt = fd.source.tables, fd.target.tables
    obj = tuple(fd.obj) + (None,) * (len(src.ident) - len(fd.obj))
    arr = tuple(fd.arr) + (None,) * (len(src.s) - len(fd.arr))
    lands_obj = [type(y) is int and 0 <= y < len(tgt.ident) for y in obj]
    lands_arr = [type(a) is int and 0 <= a < len(tgt.s) for a in arr]
    for x, key in enumerate(fd.source.objects):
        if rb.require(obj[x] is not None, "object-map-total", key):
            rb.require(lands_obj[x], "object-map-lands", key)
    for f, key in enumerate(fd.source.arrows):
        total = rb.require(arr[f] is not None, "arrow-map-total", key)
        if total and rb.require(lands_arr[f], "arrow-map-lands", key):
            ends = (tgt.s[arr[f]], tgt.t[arr[f]])
            rb.require(ends == (obj[src.s[f]], obj[src.t[f]]), "endpoints-preserved", key)
    # an image outside the target has no identity or composite there, which fails the law
    for x, key in enumerate(fd.source.objects):
        if obj[x] is not None and arr[src.ident[x]] is not None:
            rb.require(lands_obj[x] and arr[src.ident[x]] == tgt.ident[obj[x]], "identities-preserved", key)
    # a row at a time: "f then g" is read off the row of f's image, when g's image leaves its target
    keys, t_s, t_pos = fd.source.arrows, tgt.s, tgt.pos
    for f, row in enumerate(src.rows):
        if arr[f] is None:
            continue
        image_row, image_t = (tgt.rows[arr[f]], tgt.t[arr[f]]) if lands_arr[f] else ((), None)
        for g, h in zip(src.out[src.t[f]], row):
            if arr[g] is not None and arr[h] is not None:
                rb.require(
                    lands_arr[g] and t_s[arr[g]] == image_t and image_row[t_pos[arr[g]]] == arr[h],
                    "composition-preserved",
                    (keys[f], keys[g]),
                )
    return rb.report()


@dataclass
class FibrationInstance:
    """A functor presented by tables, meant to be a discrete fibration."""

    total: FiniteCategory
    base: FiniteCategory
    proj: FunctorData

    def __post_init__(self) -> None:
        result = check_functor(self.proj)
        if not result.passed:
            raise MalformedTables(f"projection is not a functor: {result.summary()}")


def check_discrete_fibration(fi: FibrationInstance) -> Report:
    """Unique lifting: one arrow over each base arrow into each fibre object."""
    rb = ReportBuilder()
    lifts = Counter(zip(fi.proj.arr, fi.total.tables.t))
    for y, over in enumerate(fi.proj.obj):
        for k in (k for k, z in enumerate(fi.base.tables.t) if z == over):
            where = f"base arrow {fi.base.arrows[k]!r}, fibre object {fi.total.objects[y]!r}"
            rb.require(lifts[(k, y)] == 1, "unique-lift", f"{where}, lifts {lifts[(k, y)]}")
    return rb.report()


def _fibration(ss: SubSlice, keys: list, lifts) -> FibrationInstance:
    """The total category over the sub-slice, with its projection.

    Objects are (i, key) for each key of fibre i, numbered fibre by fibre.  ``lifts(k, i, j)``
    yields the places (u, v) in fibres i and j of each arrow (k, keys[i][u], keys[j][v]) over
    base arrow k.  A composite lies over the composite base arrow and keeps the outer ends,
    so the total rows are read off the base rows.
    """
    base = ss.base_category.tables
    start = list(itertools.accumulate(map(len, keys), initial=0))
    objects = tuple((i, key) for i, fibre in enumerate(keys) for key in fibre)
    arrows, over, s, t = [], [], [], []
    for k, (i, j) in enumerate(zip(base.s, base.t)):
        for u, v in lifts(k, i, j):
            arrows.append((k, keys[i][u], keys[j][v]))
            over.append(k)
            s.append(start[i] + u)
            t.append(start[j] + v)
    # a missing identity or composite is None, which FiniteCategory refuses
    lift = {ends: a for a, ends in enumerate(zip(over, s, t))}
    ident = tuple(lift.get((base.ident[i], x, x)) for x, (i, _) in enumerate(objects))
    out, pos = group_by_value(s, len(objects))
    over_pos = [base.pos[k] for k in over]
    rows = tuple(
        tuple(lift.get((base_row[over_pos[g]], x, t[g])) for g in out[y])
        for base_row, x, y in zip(map(base.rows.__getitem__, over), s, t)
    )
    total = FiniteCategory(objects, tuple(arrows), CategoryTables(tuple(s), tuple(t), ident, out, pos, rows))
    proj = FunctorData(total, ss.base_category, tuple(i for i, _ in objects), tuple(over))
    return FibrationInstance(total, ss.base_category, proj)


def build_conv_fibration(ss: SubSlice) -> FibrationInstance:
    """Category of convolution elements over the sub-slice, with its projection.

    Objects are pairs (slice object, element); an arrow over a base cell
    phi runs from the pullback of an element along phi to that element.
    """
    keys = [[e.table for e in conv_fibre(obj, ss.ic)] for obj in ss.objects]
    places = [{key: u for u, key in enumerate(fibre)} for fibre in keys]

    def lifts(k: int, i: int, j: int):
        phi = ss.arrows[k].map.table
        for v, beta in enumerate(keys[j]):
            u = places[i].get(tuple(beta[x] for x in phi))
            if u is not None:
                yield u, v

    return _fibration(ss, keys, lifts)


def build_endo_fibration(ss: SubSlice) -> FibrationInstance:
    """Category of simply presented endomorphisms over the sub-slice.

    An arrow over a base cell sigma is a pair of endomorphisms whose
    square (sigma tensored with the arrow span) commutes; the equal
    components of such a morphism make a single cell suffice.
    """
    keys = [[extend(alpha).table for alpha in conv_fibre(obj, ss.ic)] for obj in ss.objects]
    plans = ss._plans

    def lifts(k: int, i: int, j: int):
        budget(len(keys[i]) * len(keys[j]), f"{len(keys[i])}x{len(keys[j])} endomorphism pairs")
        sig = ss.arrows[k].map.table
        for u, u_table in enumerate(keys[i]):
            for v, v_table in enumerate(keys[j]):
                if plans[i].square_holds(plans[j], u_table, v_table, sig, sig):
                    yield u, v

    return _fibration(ss, keys, lifts)


def _as_endo(ss: SubSlice, i: int, table: tuple) -> KleisliEndo:
    """The endomorphism over object i whose key is the given table."""
    return _wrap_endo(ss._plans[i], table)


def _extended(ss: SubSlice, key: tuple) -> tuple:
    """The key (i, t) of an element over object i to the key of its extension."""
    i, table = key
    return i, extend(_conv(ss._plans[i], table)).table


def _at(table: tuple, y) -> object:
    """table[y] for an id y; None for an image outside the target."""
    return table[y] if type(y) is int else None


def _image_arrow(fi: FibrationInstance, f: int, ends: list) -> tuple:
    """The key of the arrow over the base arrow of f from ends[s[f]] to ends[t[f]], given as object keys."""
    return (fi.proj.arr[f], ends[fi.total.tables.s[f]][1], ends[fi.total.tables.t[f]][1])


def _functor_over_base(
    rb: ReportBuilder,
    source: FibrationInstance,
    target: FibrationInstance,
    move,
    prefix: str,
    over_base: tuple[str, str],
) -> FunctorData:
    """Tabulate the functor (i, t) -> (i, move(i, t)) between total categories and check it.

    Arrows go to the arrow over the same base arrow between the images of
    their ends.  Checks, in order: every image exists (``<prefix>welldefined``),
    check_functor's laws (prefixed), and that the functor lies over the base,
    on objects and on arrows (the two ``over_base`` laws).
    """
    tgt = target.total
    images, obj = [], []
    for key in source.total.objects:
        images.append((key[0], move(*key)))
        obj.append(tgt.object_id.get(images[-1], images[-1]))
        rb.require(type(obj[-1]) is int, f"{prefix}welldefined", key)
    arr = []
    for f, key in enumerate(source.total.arrows):
        image = _image_arrow(source, f, images)
        arr.append(tgt.arrow_id.get(image, image))
        rb.require(type(arr[-1]) is int, f"{prefix}welldefined", key)
    fd = FunctorData(source.total, tgt, tuple(obj), tuple(arr))
    rb.merge(check_functor(fd), prefix)
    objects_law, arrows_law = over_base
    for x, key in enumerate(source.total.objects):
        rb.require(_at(target.proj.obj, obj[x]) == source.proj.obj[x], objects_law, key)
    for f, key in enumerate(source.total.arrows):
        rb.require(_at(target.proj.arr, arr[f]) == source.proj.arr[f], arrows_law, key)
    return fd


@dataclass
class CartesianIso:
    forward: FunctorData
    backward: FunctorData
    report: Report
    conv: FibrationInstance
    endo: FibrationInstance


def cartesian_iso(ss: SubSlice) -> CartesianIso:
    """The extension/retrieval pair as mutually inverse functors over the base.

    Checks functoriality of both directions, mutual inversion, commutation
    with both projections, and fibrewise naturality of the family.
    """
    conv = build_conv_fibration(ss)
    endo = build_endo_fibration(ss)
    rb = ReportBuilder()

    def extended(i: int, table: tuple) -> tuple:
        return _extended(ss, (i, table))[1]

    def retrieved(i: int, table: tuple) -> tuple:
        return retrieve(_as_endo(ss, i, table)).table

    triangle = ("projection-triangle", "projection-triangle")
    forward = _functor_over_base(rb, conv, endo, extended, "forward-", triangle)
    backward = _functor_over_base(rb, endo, conv, retrieved, "backward-", triangle)
    for there, back in ((forward, backward), (backward, forward)):
        for x, key in enumerate(there.source.objects):
            rb.require(_at(back.obj, there.obj[x]) == x, "mutual-inverse-objects", key)
        for f, key in enumerate(there.source.arrows):
            rb.require(_at(back.arr, there.arr[f]) == f, "mutual-inverse-arrows", key)
    # conv_base_change and endo_base_change, computed on the sub-slice's plans
    fibres = [conv_fibre(obj, ss.ic) for obj in ss.objects]
    for k, cell in enumerate(ss.arrows):
        i, j = ss.arrow_endpoints(k)
        plan, arrow, sigma = ss._plans[i], ss._plans[j].arrow, cell.map.table
        for beta in fibres[j]:
            pulled = tuple(beta.table[v] for v in sigma)
            pulled_then_extended = extend(_conv(plan, pulled)).table
            hat = extend(beta).table
            extended_then_pulled = plan.extend(tuple(arrow[hat[v]] for v in sigma))
            rb.require(
                pulled_then_extended == extended_then_pulled,
                "fibrewise-naturality",
                (k, beta.table),
            )
    return CartesianIso(forward, backward, rb.report(), conv, endo)


def transported_subslice(
    k: LexFunctorData, functor: InternalFunctor, ss: SubSlice
) -> SubSlice:
    """Image of a sub-slice under a lex functor followed by an internal functor."""
    try:
        objects = tuple(
            SliceObject(k.obj(obj.a), compose(functor.fo, k.arr(obj.f)))
            for obj in ss.objects
        )
        arrows = []
        for cell in ss.arrows:
            src = objects[ss.span_index[cell.src]]
            dst = objects[ss.span_index[cell.dst]]
            arrows.append(TwoCell(src.span, dst.span, k.arr(cell.map)))
        return SubSlice(functor.dst, objects, tuple(arrows))
    except MalformedTables as exc:
        raise NotLex(f"functor fragment does not transport the sub-slice: {exc}") from exc


@dataclass
class TransportResult:
    """Everything the transport of a sub-slice produces, plus its report."""

    report: Report
    transported: SubSlice
    conv_map: FunctorData
    endo_map: FunctorData


def transport_conv(
    k: LexFunctorData,
    functor: InternalFunctor,
    ss: SubSlice,
) -> TransportResult:
    """Transport both fibrations along (lex functor, internal functor).

    Builds the image sub-slice, maps every convolution element by
    "arrow map after K", every simply presented endomorphism through its
    arrow component, and checks: both transports are functors, both
    projection squares commute, and the extension family intertwines the
    two transports.
    """
    transported = apply_lex_functor(k, ss.ic)
    if functor.src != transported:
        raise NotInternalFunctor("internal functor must start at the transported category")
    ss2 = transported_subslice(k, functor, ss)
    conv1 = build_conv_fibration(ss)
    conv2 = build_conv_fibration(ss2)
    endo1 = build_endo_fibration(ss)
    endo2 = build_endo_fibration(ss2)
    rb = ReportBuilder()

    def move_conv(i: int, table: tuple) -> tuple:
        alpha = FinMap(ss.objects[i].a, ss.ic.m, table)
        return compose(functor.fm, k.arr(alpha)).table

    def move_endo(i: int, table: tuple) -> tuple:
        moved_bar = compose(functor.fm, k.arr(_as_endo(ss, i, table).bar))
        return _extended(ss2, (i, moved_bar.table))[1]

    conv_map = _functor_over_base(
        rb, conv1, conv2, move_conv, "conv-transport-", ("p-square-objects", "p-square-arrows")
    )
    endo_map = _functor_over_base(
        rb, endo1, endo2, move_endo, "endo-transport-", ("q-square-objects", "q-square-arrows")
    )
    # both sides as images in endo2: an id, or the key of an image outside it
    extended = [_extended(ss, key) for key in conv1.total.objects]
    moved = [_extended(ss2, conv2.total.objects[y] if type(y) is int else y) for y in conv_map.obj]
    for x, key in enumerate(conv1.total.objects):
        lhs = _at(endo_map.obj, endo1.total.object_id.get(extended[x]))
        rb.require(lhs == endo2.total.object_id.get(moved[x], moved[x]), "intertwine-objects", key)
    for f, key in enumerate(conv1.total.arrows):
        lhs = _at(endo_map.arr, endo1.total.arrow_id.get(_image_arrow(conv1, f, extended)))
        rhs = _image_arrow(conv1, f, moved)
        rb.require(lhs == endo2.total.arrow_id.get(rhs, rhs), "intertwine-arrows", key)
    return TransportResult(rb.report(), ss2, conv_map, endo_map)


def compose_intcat_morphisms(
    k1: LexFunctorData,
    functor1: InternalFunctor,
    k2: LexFunctorData,
    functor2: InternalFunctor,
    ic: InternalCategory,
) -> tuple[LexFunctorData, InternalFunctor]:
    """Compose two (lex functor, internal functor) morphisms of internal categories.

    The composite lex data is k2 after k1, tabulated wherever k2 covers the
    k1 image (both fragments are partial, so is the composite); the
    composite internal functor is functor2 after the k2-image of functor1,
    starting at the composite transport of ic.
    """
    objects = {x: k2.objects[y] for x, y in k1.objects.items() if y in k2.objects}
    arrows = {f: k2.arrows[g] for f, g in k1.arrows.items() if g in k2.arrows}
    composite = LexFunctorData(
        objects, arrows, k1.pullback_witnesses, k1.terminal_witness
    )
    src = apply_lex_functor(composite, ic)
    fo = compose(functor2.fo, k2.arr(functor1.fo))
    fm = compose(functor2.fm, k2.arr(functor1.fm))
    return composite, InternalFunctor(src, functor2.dst, fo, fm)
