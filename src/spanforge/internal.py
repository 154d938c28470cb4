"""Internal categories and groupoids in finite sets, and their checkers.

An internal category is the data (O, M, d, c, eta, mu).  The composition
map mu lives on the canonical pullback of c and d: its domain enumerates
the composable pairs (a, b) with c(a) = d(b) in lexicographic order, and
mu(a, b) is read as "a then b".  The one-object case recovers a monoid
whose multiplication table is written in the same diagrammatic order.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import (
    MalformedTables,
    NotInternalFunctor,
    NotLex,
    SizeLimitExceeded,
    UnderlyingCategoryInvalid,
)
from .finset import (
    FinMap,
    FinSet,
    all_maps,
    compose,
    identity,
    invert,
    is_bijection,
    mediating,
    pair_position,
    pullback,
)
from .report import Report, ReportBuilder
from .span import Span, TwoCell, tensor

DEFAULT_SIZE_CAP = 10**6


def enumeration_cap() -> int:
    """Current cap on enumerated maps; SPANFORGE_SIZE_CAP overrides it."""
    raw = os.environ.get("SPANFORGE_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(raw)
    except ValueError:
        raise MalformedTables(f"SPANFORGE_SIZE_CAP must be an int, got {raw!r}") from None


@dataclass(frozen=True)
class InternalCategory:
    """Objects object, morphisms object, source/target, units, composition."""

    o: FinSet
    m: FinSet
    d: FinMap
    c: FinMap
    eta: FinMap
    mu: FinMap

    def __post_init__(self) -> None:
        if self.d.dom != self.m or self.d.cod != self.o:
            raise MalformedTables("source map must go M -> O")
        if self.c.dom != self.m or self.c.cod != self.o:
            raise MalformedTables("target map must go M -> O")
        if self.eta.dom != self.o or self.eta.cod != self.m:
            raise MalformedTables("unit map must go O -> M")
        pb = pullback(self.c, self.d)
        if self.mu.dom != pb.apex or self.mu.cod != self.m:
            raise MalformedTables(
                f"composition table must map the {pb.apex.size} composable pairs into M"
            )

    @property
    def composable(self):
        """Canonical pullback of c and d: pairs (a, b) with c(a) = d(b)."""
        return pullback(self.c, self.d)

    @property
    def mor_span(self) -> Span:
        return Span(self.o, self.m, self.d, self.c)

    @property
    def unit_span(self) -> Span:
        return Span(self.o, self.o, identity(self.o), identity(self.o))

    def then(self, a: int, b: int) -> int:
        """Compose the arrows a then b; they must be composable."""
        return self.mu.table[pair_position(self.composable, a, b)]


@lru_cache(maxsize=None)
def mu_cell(ic: InternalCategory) -> TwoCell:
    """The composition map as a cell from the self-tensor of the arrow span."""
    return TwoCell(tensor(ic.mor_span, ic.mor_span).span, ic.mor_span, ic.mu)


@lru_cache(maxsize=None)
def eta_cell(ic: InternalCategory) -> TwoCell:
    return TwoCell(ic.unit_span, ic.mor_span, ic.eta)


@dataclass(frozen=True)
class InternalGroupoid:
    """An internal category with an arrow-inversion map."""

    cat: InternalCategory
    iota: FinMap

    def __post_init__(self) -> None:
        if self.iota.dom != self.cat.m or self.iota.cod != self.cat.m:
            raise MalformedTables("inversion map must go M -> M")


def check_internal_category(ic: InternalCategory) -> Report:
    """Verify the category axioms; failures name the law and a witness."""
    rb = ReportBuilder()
    d, c, eta, mu = ic.d.table, ic.c.table, ic.eta.table, ic.mu.table
    pairs = ic.composable.elems
    for o in range(ic.o.size):
        rb.require(d[eta[o]] == o, "identity-source", f"object {ic.o.label(o)}")
        rb.require(c[eta[o]] == o, "identity-target", f"object {ic.o.label(o)}")
    for idx, (a, b) in enumerate(pairs):
        rb.require(
            d[mu[idx]] == d[a],
            "composition-source",
            f"pair ({ic.m.label(a)}, {ic.m.label(b)})",
        )
        rb.require(
            c[mu[idx]] == c[b],
            "composition-target",
            f"pair ({ic.m.label(a)}, {ic.m.label(b)})",
        )
    index = ic.composable.index
    for m in range(ic.m.size):
        left = index.get((eta[d[m]], m))
        if not rb.require(left is not None, "left-unit", f"arrow {ic.m.label(m)} not composable"):
            continue
        rb.require(mu[left] == m, "left-unit", f"arrow {ic.m.label(m)}")
    for m in range(ic.m.size):
        right = index.get((m, eta[c[m]]))
        if not rb.require(right is not None, "right-unit", f"arrow {ic.m.label(m)} not composable"):
            continue
        rb.require(mu[right] == m, "right-unit", f"arrow {ic.m.label(m)}")
    for i, (a, b) in enumerate(pairs):
        ab = mu[i]
        for x in range(ic.m.size):
            j = index.get((b, x))
            if j is None:
                continue
            lhs_idx = index.get((ab, x))
            bx_idx = index.get((a, mu[j]))
            witness = f"triple ({ic.m.label(a)}, {ic.m.label(b)}, {ic.m.label(x)})"
            if not rb.require(lhs_idx is not None and bx_idx is not None, "associativity", witness):
                continue
            rb.require(mu[lhs_idx] == mu[bx_idx], "associativity", witness)
    return rb.report()


def check_internal_groupoid(g: InternalGroupoid) -> Report:
    """Verify the inversion laws; requires the underlying category to pass."""
    underlying = check_internal_category(g.cat)
    if not underlying.passed:
        raise UnderlyingCategoryInvalid(underlying)
    ic = g.cat
    rb = ReportBuilder()
    d, c, eta, iota = ic.d.table, ic.c.table, ic.eta.table, g.iota.table
    for m in range(ic.m.size):
        lab = f"arrow {ic.m.label(m)}"
        rb.require(c[iota[m]] == d[m], "inverse-flips-target", lab)
        rb.require(d[iota[m]] == c[m], "inverse-flips-source", lab)
    index = ic.composable.index
    for m in range(ic.m.size):
        lab = f"arrow {ic.m.label(m)}"
        right = index.get((m, iota[m]))
        if rb.require(right is not None, "right-inverse-law", f"{lab} not composable with inverse"):
            rb.require(ic.mu.table[right] == eta[d[m]], "right-inverse-law", lab)
        left = index.get((iota[m], m))
        if rb.require(left is not None, "left-inverse-law", f"{lab} not composable with inverse"):
            rb.require(ic.mu.table[left] == eta[c[m]], "left-inverse-law", lab)
    for m in range(ic.m.size):
        rb.require(iota[iota[m]] == m, "inverse-involutive", f"arrow {ic.m.label(m)}")
    return rb.report()


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """An explicit category: object keys, arrow keys, and full tables.

    ``comp[(f, g)]`` is the composite "f then g" and is defined for
    exactly the pairs with ``dst[f] == src[g]``.  The identity and
    associativity laws are verified on construction.
    """

    objects: tuple
    arrows: tuple
    src: Mapping
    dst: Mapping
    ident: Mapping
    comp: Mapping

    def __post_init__(self) -> None:
        objects, arrows = self.objects, self.arrows
        if len(set(objects)) != len(objects):
            raise MalformedTables("duplicate object keys")
        if len(set(arrows)) != len(arrows):
            raise MalformedTables("duplicate arrow keys")
        obj_set, arrow_set = set(objects), set(arrows)
        by_src: dict = {x: [] for x in objects}
        for a in arrows:
            if self.src[a] not in obj_set or self.dst[a] not in obj_set:
                raise MalformedTables(f"arrow {a!r} has unknown endpoints")
            by_src[self.src[a]].append(a)
        for x in objects:
            i = self.ident.get(x)
            if i not in arrow_set or self.src[i] != x or self.dst[i] != x:
                raise MalformedTables(f"object {x!r} lacks an identity arrow")
        composable = sum(len(by_src[self.dst[f]]) for f in arrows)
        if len(self.comp) != composable:
            raise MalformedTables("composition table keys must be exactly the composable pairs")
        for (f, g), h in self.comp.items():
            if self.dst[f] != self.src[g]:
                raise MalformedTables(f"({f!r}, {g!r}) is not a composable pair")
            if h not in arrow_set or self.src[h] != self.src[f] or self.dst[h] != self.dst[g]:
                raise MalformedTables(f"composite of ({f!r}, {g!r}) has wrong endpoints")
        for f in arrows:
            if self.comp[(self.ident[self.src[f]], f)] != f:
                raise MalformedTables(f"left identity law fails at {f!r}")
            if self.comp[(f, self.ident[self.dst[f]])] != f:
                raise MalformedTables(f"right identity law fails at {f!r}")
        comp = self.comp
        for (f, g), fg in comp.items():
            for h in by_src[self.dst[g]]:
                if comp[(fg, h)] != comp[(f, comp[(g, h)])]:
                    raise MalformedTables(f"associativity fails at ({f!r}, {g!r}, {h!r})")

    def hom(self, x, y) -> tuple:
        return tuple(a for a in self.arrows if self.src[a] == x and self.dst[a] == y)


def two_sided_inverse(fc: FiniteCategory, arrow) -> object | None:
    """Search the finite category for a two-sided inverse of the arrow."""
    for b in fc.arrows:
        if fc.src[b] != fc.dst[arrow] or fc.dst[b] != fc.src[arrow]:
            continue
        if (
            fc.comp[(arrow, b)] == fc.ident[fc.src[arrow]]
            and fc.comp[(b, arrow)] == fc.ident[fc.dst[arrow]]
        ):
            return b
    return None


def external_category(ic: InternalCategory, c_obj: FinSet, cap: int | None = None) -> FiniteCategory:
    """The category of maps from c_obj: objects are maps into O, arrows maps into M.

    An arrow alpha: C -> M runs from d.alpha to c.alpha; the identity at f
    is eta.f and composition is pointwise composition of arrows.
    """
    limit = enumeration_cap() if cap is None else cap
    n_obj = ic.o.size**c_obj.size
    n_arr = ic.m.size**c_obj.size
    if n_obj > limit or n_arr > limit:
        raise SizeLimitExceeded(
            f"external category needs {n_obj} objects and {n_arr} arrows, cap is {limit}"
        )
    objects = tuple(f.table for f in all_maps(c_obj, ic.o))
    arrows = tuple(a.table for a in all_maps(c_obj, ic.m))
    src = {a: tuple(ic.d.table[v] for v in a) for a in arrows}
    dst = {a: tuple(ic.c.table[v] for v in a) for a in arrows}
    ident = {f: tuple(ic.eta.table[v] for v in f) for f in objects}
    index = ic.composable.index
    comp = {}
    for a in arrows:
        for b in arrows:
            if dst[a] != src[b]:
                continue
            comp[(a, b)] = tuple(ic.mu.table[index[(x, y)]] for x, y in zip(a, b))
    return FiniteCategory(objects, arrows, src, dst, ident, comp)


@dataclass(frozen=True)
class InternalFunctor:
    """A pair of maps commuting with source, target, units and composition."""

    src: InternalCategory
    dst: InternalCategory
    fo: FinMap
    fm: FinMap

    def __post_init__(self) -> None:
        if self.fo.dom != self.src.o or self.fo.cod != self.dst.o:
            raise MalformedTables("object map must go between the objects objects")
        if self.fm.dom != self.src.m or self.fm.cod != self.dst.m:
            raise MalformedTables("arrow map must go between the morphisms objects")
        if compose(self.dst.d, self.fm) != compose(self.fo, self.src.d):
            raise NotInternalFunctor("source square does not commute")
        if compose(self.dst.c, self.fm) != compose(self.fo, self.src.c):
            raise NotInternalFunctor("target square does not commute")
        if compose(self.fm, self.src.eta) != compose(self.dst.eta, self.fo):
            raise NotInternalFunctor("unit square does not commute")
        for i, (a, b) in enumerate(self.src.composable.elems):
            lhs = self.fm.table[self.src.mu.table[i]]
            rhs = self.dst.then(self.fm.table[a], self.fm.table[b])
            if lhs != rhs:
                raise NotInternalFunctor(f"composition square fails at pair ({a}, {b})")


def identity_internal_functor(ic: InternalCategory) -> InternalFunctor:
    return InternalFunctor(ic, ic, identity(ic.o), identity(ic.m))


@dataclass(frozen=True)
class PullbackWitness:
    """Declares that (apex, proj_left, proj_right) is a pullback of (left, right)."""

    left: FinMap
    right: FinMap
    apex: FinSet
    proj_left: FinMap
    proj_right: FinMap


@dataclass
class LexFunctorData:
    """A finite-limit-preserving functor given on a finite fragment of maps.

    The object and arrow tables are partial; preservation of the named
    limits is certified by the witnesses, checked on both sides of the
    functor in verify().
    """

    objects: dict[FinSet, FinSet]
    arrows: dict[FinMap, FinMap]
    pullback_witnesses: tuple[PullbackWitness, ...] = ()
    terminal_witness: FinSet | None = None

    def obj(self, x: FinSet) -> FinSet:
        if x not in self.objects:
            raise NotLex(f"functor fragment has no value on a set of size {x.size}")
        return self.objects[x]

    def arr(self, f: FinMap) -> FinMap:
        if f not in self.arrows:
            raise NotLex(f"functor fragment has no value on a map {f.table}")
        return self.arrows[f]

    def verify(self) -> None:
        """Check functoriality on the fragment and all preservation witnesses."""
        for f, kf in self.arrows.items():
            if kf.dom != self.obj(f.dom) or kf.cod != self.obj(f.cod):
                raise NotLex("arrow image endpoints disagree with object images")
        for x in self.objects:
            ix = identity(x)
            if ix in self.arrows and self.arrows[ix] != identity(self.obj(x)):
                raise NotLex("identity map not sent to an identity")
        maps = list(self.arrows)
        for f in maps:
            for g in maps:
                if f.cod != g.dom:
                    continue
                gf = compose(g, f)
                if gf in self.arrows and self.arrows[gf] != compose(self.arr(g), self.arr(f)):
                    raise NotLex("composite map not sent to the composite of images")
        if self.terminal_witness is not None:
            if self.terminal_witness.size != 1:
                raise NotLex("terminal witness must be a one-point set")
            if self.obj(self.terminal_witness).size != 1:
                raise NotLex("terminal object not preserved")
        for w in self.pullback_witnesses:
            canon = pullback(w.left, w.right)
            med = mediating(canon, w.proj_left, w.proj_right)
            if not is_bijection(med):
                raise NotLex("witness cone is not a pullback in the source")
            canon_img = pullback(self.arr(w.left), self.arr(w.right))
            cmp_map = mediating(canon_img, self.arr(w.proj_left), self.arr(w.proj_right))
            if not is_bijection(cmp_map):
                raise NotLex("pullback not preserved: comparison map is not a bijection")

    def comparison_iso(self, left: FinMap, right: FinMap) -> FinMap:
        """Canonical iso from the image pullback apex onto K(source apex)."""
        for w in self.pullback_witnesses:
            if w.left == left and w.right == right:
                canon_img = pullback(self.arr(left), self.arr(right))
                cmp_map = mediating(canon_img, self.arr(w.proj_left), self.arr(w.proj_right))
                return invert(cmp_map)
        raise NotLex("no pullback witness for the requested square")


def apply_lex_functor(k: LexFunctorData, ic: InternalCategory) -> InternalCategory:
    """Transport an internal category along a lex functor fragment."""
    k.verify()
    iso = k.comparison_iso(ic.c, ic.d)
    mu = compose(k.arr(ic.mu), iso)
    out = InternalCategory(
        k.obj(ic.o), k.obj(ic.m), k.arr(ic.d), k.arr(ic.c), k.arr(ic.eta), mu
    )
    result = check_internal_category(out)
    if not result.passed:
        raise NotLex(f"transported data is not an internal category: {result.summary()}")
    return out


def _map_lex_index(table: tuple[int, ...], base: int) -> int:
    """Position of a value table in the lexicographic enumeration of maps."""
    idx = 0
    for v in table:
        idx = idx * base + v
    return idx


def _close_fragment(
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]],
) -> tuple[list[FinSet], list[FinMap], tuple[PullbackWitness, ...]]:
    """Add each square's canonical pullback and every map's ends to the fragment.

    Returns the closed sets, the closed maps and one pullback witness per square.
    """
    sets = list(dict.fromkeys(sets))
    maps = list(dict.fromkeys(maps))
    witnesses = []
    for left, right in squares:
        pb = pullback(left, right)
        witnesses.append(PullbackWitness(left, right, pb.apex, pb.proj_left, pb.proj_right))
        if pb.apex not in sets:
            sets.append(pb.apex)
        for extra_map in (pb.proj_left, pb.proj_right):
            if extra_map not in maps:
                maps.append(extra_map)
    for f in maps:
        for side in (f.dom, f.cod):
            if side not in sets:
                sets.append(side)
    return sets, maps, tuple(witnesses)


def hom_functor_data(
    s: FinSet,
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]] = (),
) -> LexFunctorData:
    """The functor "maps out of s", tabulated on the given fragment.

    K(A) enumerates the maps s -> A in lexicographic order; K(f) is
    postcomposition with f.  Pullback witnesses are generated for the
    requested (left, right) squares using the canonical pullback data.
    """
    sets, maps, witnesses = _close_fragment(sets, maps, squares)
    objects = {a: FinSet(a.size**s.size) for a in sets}
    arrows = {}
    for f in maps:
        table = []
        for u_table in itertools.product(range(f.dom.size), repeat=s.size):
            image = tuple(f.table[v] for v in u_table)
            table.append(_map_lex_index(image, f.cod.size) if f.cod.size else 0)
        arrows[f] = FinMap(objects[f.dom], objects[f.cod], tuple(table))
    for a in sets:
        ia = identity(a)
        if ia not in arrows:
            arrows[ia] = identity(objects[a])
    terminal = next((a for a in sets if a.size == 1), None)
    return LexFunctorData(objects, arrows, witnesses, terminal)


def identity_functor_data(
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]] = (),
) -> LexFunctorData:
    """The identity functor tabulated on the given fragment."""
    sets, maps, witnesses = _close_fragment(sets, maps, squares)
    objects = {a: a for a in sets}
    arrows = {f: f for f in maps}
    for a in sets:
        arrows.setdefault(identity(a), identity(a))
    terminal = next((a for a in sets if a.size == 1), None)
    return LexFunctorData(objects, arrows, witnesses, terminal)
