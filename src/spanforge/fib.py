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

from .errors import DomainMismatch, MalformedTables, NotInternalFunctor, NotLex
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
    _fibre,
    _wrap_endo,
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
        """The object ids at the ends of arrow k; DomainMismatch unless k is an arrow."""
        if type(k) is not int or not 0 <= k < len(self.arrows):
            raise DomainMismatch(f"{k!r} is not an arrow of the sub-slice")
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
    n_obj, n_arr = len(src.ident), len(src.s)
    obj = (tuple(fd.obj) + (None,) * n_obj)[:n_obj]  # padded with no image, and cut to the source
    arr = (tuple(fd.arr) + (None,) * n_arr)[:n_arr]
    lands_obj = [type(y) is int and 0 <= y < len(tgt.ident) for y in obj]
    lands_arr = [type(a) is int and 0 <= a < len(tgt.s) for a in arr]
    for x, key in enumerate(fd.source.objects):
        if not lands_obj[x]:
            rb.fail("object-map-total" if obj[x] is None else "object-map-lands", key)
    for f, key in enumerate(fd.source.arrows):
        if not lands_arr[f]:
            rb.fail("arrow-map-total" if arr[f] is None else "arrow-map-lands", key)
        elif (tgt.s[arr[f]], tgt.t[arr[f]]) != (obj[src.s[f]], obj[src.t[f]]):
            rb.fail("endpoints-preserved", key)
    # an image outside the target has no identity or composite there, which fails the law
    units = [x for x in range(n_obj) if obj[x] is not None and arr[src.ident[x]] is not None]
    for x in units:
        if not (lands_obj[x] and arr[src.ident[x]] == tgt.ident[obj[x]]):
            rb.fail("identities-preserved", fd.source.objects[x])
    # a row at a time: "f then g" is read off the row of f's image, when g's image leaves its target
    keys, t_s, t_pos, pairs = fd.source.arrows, tgt.s, tgt.pos, 0
    for f, row in enumerate(src.rows):
        if arr[f] is None:
            continue
        image_row, image_t = (tgt.rows[arr[f]], tgt.t[arr[f]]) if lands_arr[f] else ((), None)
        for g, h in zip(src.out[src.t[f]], row):
            if arr[g] is not None and arr[h] is not None:
                pairs += 1
                if not (lands_arr[g] and t_s[arr[g]] == image_t and image_row[t_pos[arr[g]]] == arr[h]):
                    rb.fail("composition-preserved", (keys[f], keys[g]))
    for law, n in (
        ("object-map-total", n_obj), ("object-map-lands", n_obj - obj.count(None)), ("arrow-map-total", n_arr),
        ("arrow-map-lands", n_arr - arr.count(None)), ("endpoints-preserved", sum(lands_arr)),
        ("identities-preserved", len(units)), ("composition-preserved", pairs),
    ):
        rb.count(law, n)
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
    into, _ = group_by_value(fi.base.tables.t, len(fi.base.objects))  # the base arrows into each object
    for y, over in enumerate(fi.proj.obj):
        for k in into[over]:
            if lifts[(k, y)] != 1:
                where = f"base arrow {fi.base.arrows[k]!r}, fibre object {fi.total.objects[y]!r}"
                rb.fail("unique-lift", f"{where}, lifts {lifts[(k, y)]}")
    rb.count("unique-lift", sum(len(into[over]) for over in fi.proj.obj))
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
    keys = [[e.table for e in _fibre(plan)] for plan in ss._plans]
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
    plans = ss._plans
    keys = [[extend(alpha).table for alpha in _fibre(plan)] for plan in plans]

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


def _agree(rb: ReportBuilder, law: str, keys, got, expected) -> None:
    """Check that got equals expected at each key, in order: one check per key, a failure where they differ."""
    for key, value, want in zip(keys, got, expected):
        if value != want:
            rb.fail(law, key)
    rb.count(law, len(keys))


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
    images = [(key[0], move(*key)) for key in source.total.objects]
    obj = tuple(tgt.object_id.get(image, image) for image in images)
    arrow_images = [_image_arrow(source, f, images) for f in range(len(source.total.arrows))]
    arr = tuple(tgt.arrow_id.get(image, image) for image in arrow_images)
    _agree(rb, f"{prefix}welldefined", source.total.objects, map(type, obj), itertools.repeat(int))
    _agree(rb, f"{prefix}welldefined", source.total.arrows, map(type, arr), itertools.repeat(int))
    fd = FunctorData(source.total, tgt, obj, arr)
    rb.merge(check_functor(fd), prefix)
    objects_law, arrows_law = over_base
    _agree(rb, objects_law, source.total.objects, [_at(target.proj.obj, y) for y in obj], source.proj.obj)
    _agree(rb, arrows_law, source.total.arrows, [_at(target.proj.arr, a) for a in arr], source.proj.arr)
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
        back_obj = [_at(back.obj, y) for y in there.obj]
        _agree(rb, "mutual-inverse-objects", there.source.objects, back_obj, range(len(there.obj)))
        back_arr = [_at(back.arr, a) for a in there.arr]
        _agree(rb, "mutual-inverse-arrows", there.source.arrows, back_arr, range(len(there.arr)))
    # conv_base_change and endo_base_change, computed on the sub-slice's plans
    fibres = [_fibre(plan) for plan in ss._plans]
    keys, pulled_then_extended, extended_then_pulled = [], [], []
    for k, cell in enumerate(ss.arrows):
        i, j = ss.arrow_endpoints(k)
        plan, arrow, sigma = ss._plans[i], ss._plans[j].arrow, cell.map.table
        for beta in fibres[j]:
            keys.append((k, beta.table))
            pulled_then_extended.append(extend(_conv(plan, tuple(beta.table[v] for v in sigma))).table)
            hat = extend(beta).table
            extended_then_pulled.append(plan.extend(tuple(arrow[hat[v]] for v in sigma)))
    _agree(rb, "fibrewise-naturality", keys, pulled_then_extended, extended_then_pulled)
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
    lhs = [_at(endo_map.obj, endo1.total.object_id.get(x)) for x in extended]
    rhs = [endo2.total.object_id.get(y, y) for y in moved]
    _agree(rb, "intertwine-objects", conv1.total.objects, lhs, rhs)
    arrows = range(len(conv1.total.arrows))
    lhs = [_at(endo_map.arr, endo1.total.arrow_id.get(_image_arrow(conv1, f, extended))) for f in arrows]
    rhs = [endo2.total.arrow_id.get(a, a) for a in (_image_arrow(conv1, f, moved) for f in arrows)]
    _agree(rb, "intertwine-arrows", conv1.total.arrows, lhs, rhs)
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
