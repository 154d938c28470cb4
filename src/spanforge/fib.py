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
from .finset import FinMap, FinSet, compose, group_by_value
from .internal import (
    CategoryTables,
    FiniteCategory,
    InternalCategory,
    InternalFunctor,
    LexFunctorData,
    apply_lex_functor,
    budget,
    capped_product,
    count_name,
)
from .feistel import (
    KleisliEndo,
    _conv,
    _fibre,
    _wrap_endo,
    extend,
    module_plan,
    retrieve,
    slice_cells,
)
from .report import Report, ReportBuilder
from .span import SliceObject, TwoCell, cell_choices


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
    cells = [(src, dst, phi) for src in objects for dst in objects for phi in slice_cells(src, dst)]
    return SubSlice(ic, objects, tuple(TwoCell(x.span, y.span, FinMap(x.a, y.a, phi)) for x, y, phi in cells))


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
        if self.proj.source is not self.total or self.proj.target is not self.base:
            raise MalformedTables("projection must run from the total category to the base")
        result = check_functor(self.proj)
        if not result.passed:
            raise MalformedTables(f"projection is not a functor: {result.first()}")


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


def _fibres(ss: SubSlice, noun: str) -> list:
    """The cell choices of each fibre over ss, once every count is under the cap: each fibre's elements,
    the faces over every base arrow, and the total category's composable pairs if lifts are unique, that
    is the far fibre over each composable base pair."""
    choices = [cell_choices(plan.base.span, plan.ic.mor_span) for plan in ss._plans]
    sizes = [capped_product(map(len, c)) for c in choices]
    for n in sizes:
        budget(n, f"{count_name(n)} fibre elements")
    base = ss.base_category.tables
    faces = sum(sizes[i] + sizes[j] for i, j in zip(base.s, base.t))
    budget(faces, f"{count_name(faces)} {noun} faces")
    pairs = sum(sizes[base.t[g]] for j in base.t for g in base.out[j])
    budget(pairs, f"{count_name(pairs)} {noun} composites")
    return choices


def _fibration(ss: SubSlice, keys: list, pushed) -> FibrationInstance:
    """The total category over the sub-slice, with its projection.

    Objects are (i, key) for each key of fibre i, numbered fibre by fibre.  Over base arrow k: i -> j
    with map phi, ``pushed(k, i, j)`` gives the face of each u in fibre i; an arrow (k, keys[i][u],
    keys[j][v]) runs to each v whose v . phi is u's face, listed in v order.  A composite lies over the composite
    base arrow and keeps the outer ends, so the total rows are read off the base rows.
    """
    base = ss.base_category.tables
    start = list(itertools.accumulate(map(len, keys), initial=0))
    objects = tuple((i, key) for i, fibre in enumerate(keys) for key in fibre)
    found = []  # over each base arrow, the u lifting each v
    for k, (i, j) in enumerate(zip(base.s, base.t)):
        faces: dict[tuple, list[int]] = {}
        for u, face in enumerate(pushed(k, i, j)):
            faces.setdefault(face, []).append(u)
        phi = ss.arrows[k].map.table
        found.append([faces.get(tuple(map(v.__getitem__, phi)), ()) for v in keys[j]])
    n = sum(len(us) for lifts in found for us in lifts)
    budget(n, f"{count_name(n)} lifts")  # past the faces only if a defective instance lifts an element twice
    arrows, over, s, t = [], [], [], []
    for k, (i, j, lifts) in enumerate(zip(base.s, base.t, found)):
        for v, us in enumerate(lifts):
            for u in us:
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
    keys = [list(itertools.product(*choices)) for choices in _fibres(ss, "convolution")]
    return _fibration(ss, keys, lambda k, i, j: keys[i])


def build_endo_fibration(ss: SubSlice) -> FibrationInstance:
    """Category of simply presented endomorphisms over the sub-slice.

    An arrow over a base cell sigma is a pair of endomorphisms whose
    square (sigma tensored with the arrow span) commutes; the equal
    components of such a morphism make a single cell suffice.
    """
    plans = ss._plans
    fibres = zip(plans, _fibres(ss, "endomorphism"))
    keys = [[extend(_conv(plan, table)).table for table in itertools.product(*choices)] for plan, choices in fibres]

    def pushed(k: int, i: int, j: int) -> list:
        sigma = ss.arrows[k].map.table
        return [plans[i].push(plans[j], u, sigma) for u in keys[i]]

    return _fibration(ss, keys, pushed)


def _as_endo(ss: SubSlice, i: int, table: tuple) -> KleisliEndo:
    """The endomorphism over object i whose key is the given table."""
    return _wrap_endo(ss._plans[i], table)


def _extended(ss: SubSlice, key: tuple) -> tuple:
    """The key (i, t) of an element over object i to the key of its extension."""
    i, table = key
    return i, extend(_conv(ss._plans[i], table)).table


def _agree(rb: ReportBuilder, law: str, keys, got, expected) -> None:
    """Check that got equals expected at each key, in order: one check per key, a failure where they differ."""
    for key, value, want in zip(keys, got, expected):
        if value != want:
            rb.fail(law, key)
    rb.count(law, len(keys))


def _fibre_map(rb: ReportBuilder, source: FibrationInstance, target: FibrationInstance, move, law: str) -> FunctorData:
    """The map (i, t) -> (i, move(i, t)) of each fibre of source into the same fibre of target.

    An arrow goes to the arrow over the same base arrow between the images of its ends.  Checks, in
    order: each object's image is an object of target (``<law>-lands``), and each arrow's image is an
    arrow of target (``<law>-natural``).  Both total categories hold one arrow per lift, whose identities
    and composites are the lifts of the base's, so once every image is found the map is a functor over
    the base.  An image that is not found is held as its key.
    """
    src, tgt = source.total, target.total
    object_ids = {key: y for y, key in enumerate(tgt.objects)}
    lifts = {ends: a for a, ends in enumerate(zip(target.proj.arr, tgt.tables.s, tgt.tables.t))}
    images = [(i, move(i, t)) for i, t in src.objects]
    obj = tuple(object_ids.get(image, image) for image in images)
    arr = []
    for k, x, y in zip(source.proj.arr, src.tables.s, src.tables.t):
        a = lifts.get((k, obj[x], obj[y]))
        arr.append((k, images[x][1], images[y][1]) if a is None else a)
    _agree(rb, f"{law}-lands", src.objects, map(type, obj), itertools.repeat(int))
    _agree(rb, f"{law}-natural", src.arrows, map(type, arr), itertools.repeat(int))
    return FunctorData(src, tgt, obj, tuple(arr))


@dataclass
class CartesianIso:
    forward: FunctorData
    backward: FunctorData
    report: Report
    conv: FibrationInstance
    endo: FibrationInstance


def cartesian_iso(ss: SubSlice) -> CartesianIso:
    """The extension/retrieval pair as mutually inverse functors over the base.

    Checks that both directions land in the other fibration and are natural
    (``_fibre_map``), that they are mutually inverse on objects, and the
    fibrewise naturality of the family.
    """
    endo = build_endo_fibration(ss)  # first: it refuses an oversized sub-slice before any fibre is listed
    conv = build_conv_fibration(ss)
    rb = ReportBuilder()

    def extended(i: int, table: tuple) -> tuple:
        return _extended(ss, (i, table))[1]

    def retrieved(i: int, table: tuple) -> tuple:
        return retrieve(_as_endo(ss, i, table)).table

    forward = _fibre_map(rb, conv, endo, extended, "forward")
    backward = _fibre_map(rb, endo, conv, retrieved, "backward")
    # inverse on objects is inverse on arrows: an arrow's image is the one lift between its ends' images
    for there, back in ((forward, backward), (backward, forward)):
        back_obj = [back.obj[y] if type(y) is int else None for y in there.obj]
        _agree(rb, "mutual-inverse", there.source.objects, back_obj, range(len(there.obj)))
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
    except (MalformedTables, DomainMismatch) as exc:
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
    arrow component, and checks: both transports land in the transported
    fibrations and are natural (``_fibre_map``), and the extension family
    intertwines the two transports on objects.
    """
    transported = apply_lex_functor(k, ss.ic)
    if functor.src != transported:
        raise NotInternalFunctor("internal functor must start at the transported category")
    ss2 = transported_subslice(k, functor, ss)
    endo1 = build_endo_fibration(ss)  # first, as in cartesian_iso
    endo2 = build_endo_fibration(ss2)
    conv1 = build_conv_fibration(ss)
    conv2 = build_conv_fibration(ss2)
    rb = ReportBuilder()

    def move_conv(i: int, table: tuple) -> tuple:
        alpha = FinMap(ss.objects[i].a, ss.ic.m, table)
        return compose(functor.fm, k.arr(alpha)).table

    def move_endo(i: int, table: tuple) -> tuple:
        moved_bar = compose(functor.fm, k.arr(_as_endo(ss, i, table).bar))
        return _extended(ss2, (i, moved_bar.table))[1]

    conv_map = _fibre_map(rb, conv1, conv2, move_conv, "conv-transport")
    endo_map = _fibre_map(rb, endo1, endo2, move_endo, "endo-transport")
    # both ways round from conv1 to endo2, as keys; where extension is natural (cartesian_iso checks it)
    # both ways are maps over the base, so they agree on arrows once they agree on objects
    lhs = [(i, move_endo(*_extended(ss, (i, table)))) for i, table in conv1.total.objects]
    rhs = [_extended(ss2, (i, move_conv(i, table))) for i, table in conv1.total.objects]
    _agree(rb, "intertwine", conv1.total.objects, lhs, rhs)
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
    composite = LexFunctorData(objects, arrows, k1.squares, k1.terminal)
    src = apply_lex_functor(composite, ic)
    fo = compose(functor2.fo, k2.arr(functor1.fo))
    fm = compose(functor2.fm, k2.arr(functor1.fm))
    return composite, InternalFunctor(src, functor2.dst, fo, fm)
