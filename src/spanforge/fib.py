"""Discrete fibrations of convolution elements and free-module endomorphisms.

The base category is always a finite, explicitly listed sub-slice: a set
of slice objects together with a set of slice cells closed under
composition and containing all identities.  Unique-lift statements are
local per base arrow, so verifying them over such sub-slices is sound
evidence at any size.  A discrete fibration is held as its presheaf: a
fibre of keys per base object and the lifts over each base arrow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class TotalKeys(NamedTuple):
    """A fibration's total category as keys only, with no tables and no law pass."""

    objects: tuple
    arrows: tuple


@dataclass
class FibrationInstance:
    """A discrete fibration over a base category, held as its presheaf.

    ``fibres[i]`` lists the element keys over base object i.  Over base arrow k: i -> j, ``lifts[k][v]``
    lists the positions u in fibres[i] of the lifts of element v of fibres[j]: one for a discrete
    fibration, and then v -> u is the reindexing F_j -> F_i along k.  Construction checks the shape only.
    """

    base: FiniteCategory
    fibres: tuple
    lifts: tuple

    def __post_init__(self) -> None:
        base, fibres = self.base.tables, self.fibres
        if len(fibres) != len(base.ident):
            raise MalformedTables(f"one fibre per base object: got {len(fibres)} for {len(base.ident)}")
        if len(self.lifts) != len(base.s):
            raise MalformedTables(f"one row of lifts per base arrow: got {len(self.lifts)} for {len(base.s)}")
        for k, (i, j, row) in enumerate(zip(base.s, base.t, self.lifts)):
            over = f"over base arrow {self.base.arrows[k]!r}"
            if len(row) != len(fibres[j]):
                got = f"got {len(row)} for {len(fibres[j])}"
                raise MalformedTables(f"one lift list per element of the target fibre {over}: {got}")
            for u in itertools.chain.from_iterable(row):
                if type(u) is not int or not 0 <= u < len(fibres[i]):
                    raise MalformedTables(f"lift {u!r} {over} is no position in its source fibre")

    @cached_property
    def total(self) -> TotalKeys:
        """The keys of the total category: objects (i, key) fibre by fibre, and one arrow (k, key_u, key_v) per
        lift, over each base arrow in v order; built on first read, for readers that count them."""
        return TotalKeys(tuple(_object_keys(self)), tuple(_lift_keys(self)))


def _object_keys(fi: FibrationInstance):
    """The key (i, key) of each element, fibre by fibre."""
    return ((i, key) for i, fibre in enumerate(fi.fibres) for key in fibre)


def _lift_keys(fi: FibrationInstance):
    """The key (k, key_u, key_v) of each lift u of v over each base arrow k, in the order of fi.lifts."""
    base, fibres = fi.base.tables, fi.fibres
    for k, (i, j, row) in enumerate(zip(base.s, base.t, fi.lifts)):
        for v, us in enumerate(row):
            yield from ((fi.base.arrows[k], fibres[i][u], fibres[j][v]) for u in us)


def check_discrete_fibration(fi: FibrationInstance) -> Report:
    """Unique lifting, then the reindexing's functor laws; these are the total category's laws.

    ``unique-lift``: each element of each fibre has one lift over each base arrow into its object.
    ``reindex-identity``: over its object's identity, each element lifts to itself alone.
    ``reindex-composite``: over each composable base pair (k, g) and at each element w of the far fibre,
    the lifts of w over "k then g" are the lifts over k of its lifts over g, counted with repeats.
    """
    rb = ReportBuilder()
    base, fibres, lifts, names = fi.base.tables, fi.fibres, fi.lifts, fi.base.arrows
    into, _ = group_by_value(base.t, len(fibres))  # the base arrows into each object
    for j, fibre in enumerate(fibres):
        for v, key in enumerate(fibre):
            for k in into[j]:
                if len(lifts[k][v]) != 1:
                    where = f"base arrow {names[k]!r}, fibre object {(j, key)!r}"
                    rb.fail("unique-lift", f"{where}, lifts {len(lifts[k][v])}")
    rb.count("unique-lift", sum(len(into[j]) * len(fibre) for j, fibre in enumerate(fibres)))
    for i, fibre in enumerate(fibres):
        row = lifts[base.ident[i]]
        for u, key in enumerate(fibre):
            if row[u] != (u,):
                rb.fail("reindex-identity", (i, key))
    rb.count("reindex-identity", sum(map(len, fibres)))
    # a row whose every lift is unique is a map, and a composite of maps is compared whole
    maps = [tuple(us[0] for us in row) if all(len(us) == 1 for us in row) else None for row in lifts]
    pairs = 0
    for k, (j, row) in enumerate(zip(base.t, base.rows)):
        for g, h in zip(base.out[j], row):
            far = fibres[base.t[g]]
            pairs += len(far)
            if None not in (maps[k], maps[g], maps[h]) and maps[h] == tuple(map(maps[k].__getitem__, maps[g])):
                continue
            over_k, over_g, over_h = lifts[k], lifts[g], lifts[h]
            for w, key in enumerate(far):
                if sorted(over_h[w]) != sorted(u for v in over_g[w] for u in over_k[v]):
                    rb.fail("reindex-composite", (names[k], names[g], (base.t[g], key)))
    rb.count("reindex-composite", pairs)
    return rb.report()


def _fibres(ss: SubSlice, noun: str) -> list:
    """The cell choices of each fibre over ss, once every count is under the cap: each fibre's elements,
    the faces over every base arrow, and the reindexing's composites, that is the far fibre over each
    composable base pair."""
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
    """The presheaf over the sub-slice with the given fibres of keys.

    Over base arrow k: i -> j with map phi, ``pushed(k, i, j)`` gives the face of each u in fibre i, and
    the lifts of each v in fibre j are the u, in order, whose face is v . phi.
    """
    base = ss.base_category.tables
    found = []
    for k, (i, j) in enumerate(zip(base.s, base.t)):
        faces: dict[tuple, list[int]] = {}
        for u, face in enumerate(pushed(k, i, j)):
            faces.setdefault(face, []).append(u)
        lifts = {face: tuple(us) for face, us in faces.items()}
        phi = ss.arrows[k].map.table
        found.append(tuple(lifts.get(tuple(map(v.__getitem__, phi)), ()) for v in keys[j]))
    n = sum(len(us) for row in found for us in row)
    budget(n, f"{count_name(n)} lifts")  # past the faces only if a defective instance lifts an element twice
    return FibrationInstance(ss.base_category, tuple(map(tuple, keys)), tuple(found))


def build_conv_fibration(ss: SubSlice) -> FibrationInstance:
    """The presheaf of convolution elements over the sub-slice.

    The fibre over a slice object is its convolution elements; over a base
    cell phi, an element lifts to its pullback along phi.
    """
    keys = [list(itertools.product(*choices)) for choices in _fibres(ss, "convolution")]
    return _fibration(ss, keys, lambda k, i, j: keys[i])


def build_endo_fibration(ss: SubSlice) -> FibrationInstance:
    """The presheaf of simply presented endomorphisms over the sub-slice.

    Over a base cell sigma, v lifts to each u whose square (sigma tensored
    with the arrow span) commutes; the equal components of such a morphism
    make a single cell suffice.
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
    n = 0
    for n, (key, value, want) in enumerate(zip(keys, got, expected), 1):
        if value != want:
            rb.fail(law, key)
    rb.count(law, n)


def _fibre_map(rb: ReportBuilder, source: FibrationInstance, target: FibrationInstance, move, law: str) -> tuple:
    """The map key -> move(i, key) of each fibre i of source into fibre i of target, as ``images[i][u]``: the
    position of u's image in its target fibre, or the image itself where it is not there.

    Checks, in order: each element's image is in its fibre of target (``<law>-lands``), and at each lift u
    of v over base arrow k, the image of u is target's one lift over k of the image of v (``<law>-natural``).
    A map indexed by the base objects lies over the base, and natural at every lift it is a functor
    between the total categories.
    """
    images = []
    for i, fibre in enumerate(source.fibres):
        position = {key: y for y, key in enumerate(target.fibres[i])}
        images.append(tuple(position.get(image, image) for image in (move(i, key) for key in fibre)))
    lands = (type(y) for row in images for y in row)
    _agree(rb, f"{law}-lands", _object_keys(source), lands, itertools.repeat(int))
    base, natural = source.base.tables, []
    for k, (i, j, row) in enumerate(zip(base.s, base.t, source.lifts)):
        over = target.lifts[k]
        for v, us in enumerate(row):
            lift = over[images[j][v]] if type(images[j][v]) is int else None
            natural.extend(lift == (images[i][u],) for u in us)
    _agree(rb, f"{law}-natural", _lift_keys(source), natural, itertools.repeat(True))
    return tuple(images)


@dataclass
class CartesianIso:
    forward: tuple
    backward: tuple
    report: Report
    conv: FibrationInstance
    endo: FibrationInstance


def cartesian_iso(ss: SubSlice) -> CartesianIso:
    """The extension/retrieval pair as mutually inverse maps of presheaves over the base.

    Checks that both directions land in the other fibration and are natural
    (``_fibre_map``), that they are mutually inverse at each element, and the
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
    # inverse at each element is inverse on the total categories: an arrow's image is the one lift there
    for source, there, back in ((conv, forward, backward), (endo, backward, forward)):
        got = (back[i][y] if type(y) is int else None for i, row in enumerate(there) for y in row)
        _agree(rb, "mutual-inverse", _object_keys(source), got, (u for row in there for u in range(len(row))))
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
    conv_map: tuple
    endo_map: tuple


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
    intertwines the two transports at each element.
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
    # both ways are maps of presheaves, so they agree on the total categories once they agree at each element
    objects = list(_object_keys(conv1))
    lhs = [(i, move_endo(*_extended(ss, (i, table)))) for i, table in objects]
    rhs = [_extended(ss2, (i, move_conv(i, table))) for i, table in objects]
    _agree(rb, "intertwine", objects, lhs, rhs)
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
