"""Discrete fibrations of convolution elements and free-module endomorphisms.

The base category is always a finite, explicitly listed sub-slice: a set
of slice objects together with a set of slice cells closed under
composition and containing all identities.  Unique-lift statements are
local per base arrow, so verifying them over such sub-slices is sound
evidence at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedTables, NotInternalFunctor, NotLex
from .finset import FinMap, FinSet, all_maps, compose, identity
from .internal import (
    FiniteCategory,
    InternalCategory,
    InternalFunctor,
    LexFunctorData,
    apply_lex_functor,
)
from .feistel import (
    ConvElement,
    KleisliEndo,
    conv_base_change,
    conv_element,
    conv_fibre,
    endo_base_change,
    extend,
    free_module,
    kleisli_endo,
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
    def span_index(self) -> dict:
        return {obj.span: i for i, obj in enumerate(self.objects)}

    def arrow_endpoints(self, k: int) -> tuple[int, int]:
        cell = self.arrows[k]
        return self.span_index[cell.src], self.span_index[cell.dst]

    @cached_property
    def base_category(self) -> FiniteCategory:
        objects = tuple(range(len(self.objects)))
        arrows = tuple(range(len(self.arrows)))
        src = {k: self.arrow_endpoints(k)[0] for k in arrows}
        dst = {k: self.arrow_endpoints(k)[1] for k in arrows}
        cell_index = {cell: k for k, cell in enumerate(self.arrows)}
        ident = {}
        for i, obj in enumerate(self.objects):
            ident[i] = cell_index.get(TwoCell(obj.span, obj.span, identity(obj.a)))
            if ident[i] is None:
                raise MalformedTables(f"identity missing for object with |A|={obj.a.size}")
        comp = {}
        for k1, t1 in enumerate(self.arrows):
            for k2, t2 in enumerate(self.arrows):
                if t1.dst != t2.src:
                    continue
                comp[(k1, k2)] = cell_index.get(TwoCell(t1.src, t2.dst, compose(t2.map, t1.map)))
                if comp[(k1, k2)] is None:
                    raise MalformedTables("sub-slice not closed under composition")
        return FiniteCategory(objects, arrows, src, dst, ident, comp)


def full_subslice(ic: InternalCategory, objects) -> SubSlice:
    """The full sub-slice on the given objects: every slice cell between them."""
    objects = tuple(objects)
    arrows = []
    for src in objects:
        for dst in objects:
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
    """Tabular functor between finite categories: object and arrow tables."""

    source: FiniteCategory
    target: FiniteCategory
    object_map: dict
    arrow_map: dict


def check_functor(fd: FunctorData) -> Report:
    rb = ReportBuilder()
    target_objects, target_arrows = set(fd.target.objects), set(fd.target.arrows)
    for x in fd.source.objects:
        if not rb.require(x in fd.object_map, "object-map-total", x):
            continue
        rb.require(fd.object_map[x] in target_objects, "object-map-lands", x)
    for a in fd.source.arrows:
        if not rb.require(a in fd.arrow_map, "arrow-map-total", a):
            continue
        fa = fd.arrow_map[a]
        if not rb.require(fa in target_arrows, "arrow-map-lands", a):
            continue
        rb.require(
            fd.target.src[fa] == fd.object_map[fd.source.src[a]]
            and fd.target.dst[fa] == fd.object_map[fd.source.dst[a]],
            "endpoints-preserved",
            a,
        )
    for x in fd.source.objects:
        if x in fd.object_map and fd.source.ident[x] in fd.arrow_map:
            rb.require(
                fd.arrow_map[fd.source.ident[x]] == fd.target.ident[fd.object_map[x]],
                "identities-preserved",
                x,
            )
    for (f, g), h in fd.source.comp.items():
        if f in fd.arrow_map and g in fd.arrow_map and h in fd.arrow_map:
            rb.require(
                fd.target.comp[(fd.arrow_map[f], fd.arrow_map[g])] == fd.arrow_map[h],
                "composition-preserved",
                (f, g),
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
    lifts: dict[tuple, int] = {}
    for a in fi.total.arrows:
        key = (fi.proj.arrow_map[a], fi.total.dst[a])
        lifts[key] = lifts.get(key, 0) + 1
    for t in fi.total.objects:
        over = fi.proj.object_map[t]
        for k in fi.base.arrows:
            if fi.base.dst[k] != over:
                continue
            count = lifts.get((k, t), 0)
            rb.require(
                count == 1,
                "unique-lift",
                f"base arrow {k!r}, fibre object {t!r}, lifts {count}",
            )
    return rb.report()


def _conv_key(elem: ConvElement) -> tuple:
    return elem.map.table


def _endo_key(endo: KleisliEndo) -> tuple:
    return endo.cell.map.table


def _fibration(ss: SubSlice, keys: list, lifts) -> FibrationInstance:
    """The total category over the sub-slice, with its projection.

    Objects are (i, key) for each key of fibre i.  ``lifts(k, i, j)`` yields
    the (source key, target key) pairs over base arrow k from object i to
    object j; each gives the arrow (k, source key, target key).  A composite
    composes the base arrows and keeps the outer keys.
    """
    base = ss.base_category
    objects = tuple((i, t) for i, fibre in enumerate(keys) for t in fibre)
    arrows = tuple((k, s, t) for k in base.arrows for s, t in lifts(k, base.src[k], base.dst[k]))
    src = {a: (base.src[a[0]], a[1]) for a in arrows}
    dst = {a: (base.dst[a[0]], a[2]) for a in arrows}
    ident = {(i, t): (base.ident[i], t, t) for i, t in objects}
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(src[a], []).append(a)
    comp = {}
    for a1 in arrows:
        for a2 in by_src.get(dst[a1], ()):
            comp[(a1, a2)] = (base.comp[(a1[0], a2[0])], a1[1], a2[2])
    total = FiniteCategory(objects, arrows, src, dst, ident, comp)
    proj = FunctorData(total, base, {t: t[0] for t in objects}, {a: a[0] for a in arrows})
    return FibrationInstance(total, base, proj)


def build_conv_fibration(ss: SubSlice, cap: int | None = None) -> FibrationInstance:
    """Category of convolution elements over the sub-slice, with its projection.

    Objects are pairs (slice object, element); an arrow over a base cell
    phi runs from the pullback of an element along phi to that element.
    """
    keys = [[_conv_key(e) for e in conv_fibre(obj, ss.ic, cap)] for obj in ss.objects]
    key_sets = [set(fibre) for fibre in keys]

    def lifts(k: int, i: int, j: int):
        phi = ss.arrows[k].map.table
        for beta in keys[j]:
            pulled = tuple(beta[v] for v in phi)
            if pulled in key_sets[i]:
                yield pulled, beta

    return _fibration(ss, keys, lifts)


def build_endo_fibration(ss: SubSlice, cap: int | None = None) -> FibrationInstance:
    """Category of simply presented endomorphisms over the sub-slice.

    An arrow over a base cell sigma is a pair of endomorphisms whose
    square (sigma tensored with the arrow span) commutes; the equal
    components of such a morphism make a single cell suffice.
    """
    keys = [
        [_endo_key(extend(alpha)) for alpha in conv_fibre(obj, ss.ic, cap)] for obj in ss.objects
    ]
    pbs = [free_module(obj, ss.ic).pb for obj in ss.objects]

    def lifts(k: int, i: int, j: int):
        sig = ss.arrows[k].map.table
        src_elems, dst_index = pbs[i].elems, pbs[j].index
        for u_table in keys[i]:
            for v_table in keys[j]:
                # the endomorphism square for (sigma, sigma), elementwise
                for a, slot in enumerate(u_table):
                    x, m = src_elems[slot]
                    moved = dst_index.get((sig[x], m))
                    if moved is None or moved != v_table[sig[a]]:
                        break
                else:
                    yield u_table, v_table

    return _fibration(ss, keys, lifts)


def _as_endo(ss: SubSlice, i: int, table: tuple) -> KleisliEndo:
    """The endomorphism over object i whose key is the given table."""
    fa = ss.objects[i]
    return kleisli_endo(fa, ss.ic, FinMap(fa.a, free_module(fa, ss.ic).span.apex, table))


class _Extensions(dict):
    """(i, element key) -> (i, key of the element's extension), built on first lookup."""

    def __init__(self, ss: SubSlice) -> None:
        super().__init__()
        self.ss = ss

    def __missing__(self, key: tuple) -> tuple:
        i, table = key
        fa = self.ss.objects[i]
        elem = conv_element(fa, self.ss.ic, FinMap(fa.a, self.ss.ic.m, table))
        self[key] = image = (i, _endo_key(extend(elem)))
        return image


def _image_arrow(obj_map, total: FiniteCategory, arrow: tuple) -> tuple:
    """The arrow over the same base arrow between the images of the arrow's ends."""
    return (arrow[0], obj_map[total.src[arrow]][1], obj_map[total.dst[arrow]][1])


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
    target_objects = set(target.total.objects)
    obj_map = {}
    for key in source.total.objects:
        image = (key[0], move(*key))
        rb.require(image in target_objects, f"{prefix}welldefined", key)
        obj_map[key] = image
    target_arrows = set(target.total.arrows)
    arr_map = {}
    for key in source.total.arrows:
        image = _image_arrow(obj_map, source.total, key)
        rb.require(image in target_arrows, f"{prefix}welldefined", key)
        arr_map[key] = image
    fd = FunctorData(source.total, target.total, obj_map, arr_map)
    rb.merge(check_functor(fd), prefix)
    objects_law, arrows_law = over_base
    for key in source.total.objects:
        rb.require(
            target.proj.object_map[obj_map[key]] == source.proj.object_map[key], objects_law, key
        )
    for key in source.total.arrows:
        rb.require(
            target.proj.arrow_map[arr_map[key]] == source.proj.arrow_map[key], arrows_law, key
        )
    return fd


@dataclass
class CartesianIso:
    forward: FunctorData
    backward: FunctorData
    report: Report
    conv: FibrationInstance
    endo: FibrationInstance


def cartesian_iso(ss: SubSlice, cap: int | None = None) -> CartesianIso:
    """The extension/retrieval pair as mutually inverse functors over the base.

    Checks functoriality of both directions, mutual inversion, commutation
    with both projections, and fibrewise naturality of the family.
    """
    conv = build_conv_fibration(ss, cap)
    endo = build_endo_fibration(ss, cap)
    rb = ReportBuilder()
    extensions = _Extensions(ss)

    def extended(i: int, table: tuple) -> tuple:
        return extensions[(i, table)][1]

    def retrieved(i: int, table: tuple) -> tuple:
        return _conv_key(retrieve(_as_endo(ss, i, table)))

    triangle = ("projection-triangle", "projection-triangle")
    forward = _functor_over_base(rb, conv, endo, extended, "forward-", triangle)
    backward = _functor_over_base(rb, endo, conv, retrieved, "backward-", triangle)
    for there, back in ((forward, backward), (backward, forward)):
        for key in there.source.objects:
            rb.require(back.object_map[there.object_map[key]] == key, "mutual-inverse-objects", key)
        for key in there.source.arrows:
            rb.require(back.arrow_map[there.arrow_map[key]] == key, "mutual-inverse-arrows", key)
    for k, cell in enumerate(ss.arrows):
        i, j = ss.arrow_endpoints(k)
        for beta in conv_fibre(ss.objects[j], ss.ic, cap):
            pulled_then_extended = extend(
                conv_base_change(ss.objects[i], cell.map, beta)
            )
            extended_then_pulled = endo_base_change(ss.objects[i], cell.map, extend(beta))
            rb.require(
                _endo_key(pulled_then_extended) == _endo_key(extended_then_pulled),
                "fibrewise-naturality",
                (k, _conv_key(beta)),
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
    cap: int | None = None,
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
    conv1 = build_conv_fibration(ss, cap)
    conv2 = build_conv_fibration(ss2, cap)
    endo1 = build_endo_fibration(ss, cap)
    endo2 = build_endo_fibration(ss2, cap)
    rb = ReportBuilder()
    ext1, ext2 = _Extensions(ss), _Extensions(ss2)

    def move_conv(i: int, table: tuple) -> tuple:
        alpha = FinMap(ss.objects[i].a, ss.ic.m, table)
        return compose(functor.fm, k.arr(alpha)).table

    def move_endo(i: int, table: tuple) -> tuple:
        moved_bar = compose(functor.fm, k.arr(_as_endo(ss, i, table).bar))
        return ext2[(i, moved_bar.table)][1]

    conv_map = _functor_over_base(
        rb, conv1, conv2, move_conv, "conv-transport-", ("p-square-objects", "p-square-arrows")
    )
    endo_map = _functor_over_base(
        rb, endo1, endo2, move_endo, "endo-transport-", ("q-square-objects", "q-square-arrows")
    )
    for key in conv1.total.objects:
        lhs = endo_map.object_map[ext1[key]]
        rb.require(lhs == ext2[conv_map.object_map[key]], "intertwine-objects", key)
    for key in conv1.total.arrows:
        lhs = endo_map.arrow_map[_image_arrow(ext1, conv1.total, key)]
        rhs = _image_arrow(ext2, conv2.total, conv_map.arrow_map[key])
        rb.require(lhs == rhs, "intertwine-arrows", key)
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
