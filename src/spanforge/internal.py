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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .errors import (
    DomainMismatch,
    MalformedTables,
    NotInternalFunctor,
    NotLex,
    SizeLimitExceeded,
    UnderlyingCategoryInvalid,
)
from .finset import (
    CACHE_SIZE,
    FinMap,
    FinSet,
    all_maps,
    compose,
    identity,
    invert,
    is_bijection,
    mediating,
    pullback,
)
from .report import Report, ReportBuilder
from .span import Span, TwoCell, tensor

DEFAULT_SIZE_CAP = 10**6


def enumeration_cap() -> int:
    """Current cap on enumerated items; SPANFORGE_SIZE_CAP overrides it."""
    raw = os.environ.get("SPANFORGE_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise MalformedTables(f"SPANFORGE_SIZE_CAP must be a non-negative int, got {raw!r}")
    return cap


def budget(count: int, what: str) -> None:
    """Refuse a loop over count items of what once it would pass enumeration_cap()."""
    cap = enumeration_cap()
    if count > cap:
        raise SizeLimitExceeded(f"enumeration of {what} exceeds cap {cap}")


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
        pb = self.composable
        if self.mu.dom != pb.apex or self.mu.cod != self.m:
            raise MalformedTables(
                f"composition table must map the {pb.apex.size} composable pairs into M"
            )

    @cached_property
    def composable(self):
        """Canonical pullback of c and d: pairs (a, b) with c(a) = d(b)."""
        return pullback(self.c, self.d)

    @cached_property
    def mor_span(self) -> Span:
        return Span(self.o, self.m, self.d, self.c)

    @cached_property
    def unit_span(self) -> Span:
        return Span(self.o, self.o, identity(self.o), identity(self.o))

    @cached_property
    def comp_rows(self) -> tuple[tuple[int | None, ...], ...]:
        """comp_rows[a][b] is "a then b", or None where the pair is not composable."""
        index, mu, arrows = self.composable.index, self.mu.table, range(self.m.size)
        return tuple(tuple(mu[index[(a, b)]] if (a, b) in index else None for b in arrows) for a in arrows)

    def then(self, a: int, b: int) -> int:
        """Compose the arrows a then b; DomainMismatch unless they are a composable pair."""
        n = self.m.size
        ab = self.comp_rows[a][b] if type(a) is type(b) is int and 0 <= a < n and 0 <= b < n else None
        if ab is None:
            raise DomainMismatch(f"arrows ({a!r}, {b!r}) are not a composable pair of M")
        return ab

    def inverse(self, m: int) -> int | None:
        """The two-sided inverse of arrow m, or None when M holds none."""
        rows, eta = self.comp_rows, self.eta.table
        src_unit, dst_unit = eta[self.d.table[m]], eta[self.c.table[m]]
        for n, m_n in enumerate(rows[m]):
            if m_n == src_unit and rows[n][m] == dst_unit:
                return n
        return None


@lru_cache(maxsize=CACHE_SIZE)
def mu_cell(ic: InternalCategory) -> TwoCell:
    """The composition map as a cell from the self-tensor of the arrow span."""
    return TwoCell(tensor(ic.mor_span, ic.mor_span).span, ic.mor_span, ic.mu)


@lru_cache(maxsize=CACHE_SIZE)
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
    rows = ic.comp_rows
    for m in range(ic.m.size):
        left = rows[eta[d[m]]][m]
        if not rb.require(left is not None, "left-unit", f"arrow {ic.m.label(m)} not composable"):
            continue
        rb.require(left == m, "left-unit", f"arrow {ic.m.label(m)}")
    for m in range(ic.m.size):
        right = rows[m][eta[c[m]]]
        if not rb.require(right is not None, "right-unit", f"arrow {ic.m.label(m)} not composable"):
            continue
        rb.require(right == m, "right-unit", f"arrow {ic.m.label(m)}")
    for (a, b), ab in zip(pairs, mu):
        for x, bx in enumerate(rows[b]):
            if bx is None:
                continue
            lhs, rhs = rows[ab][x], rows[a][bx]
            witness = f"triple ({ic.m.label(a)}, {ic.m.label(b)}, {ic.m.label(x)})"
            if not rb.require(lhs is not None and rhs is not None, "associativity", witness):
                continue
            rb.require(lhs == rhs, "associativity", witness)
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
    rows = ic.comp_rows
    for m in range(ic.m.size):
        lab = f"arrow {ic.m.label(m)}"
        right = rows[m][iota[m]]
        if rb.require(right is not None, "right-inverse-law", f"{lab} not composable with inverse"):
            rb.require(right == eta[d[m]], "right-inverse-law", lab)
        left = rows[iota[m]][m]
        if rb.require(left is not None, "left-inverse-law", f"{lab} not composable with inverse"):
            rb.require(left == eta[c[m]], "left-inverse-law", lab)
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

    _hom: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the checks run on positions: s[f], t[f] number the ends of arrow f,
        # out[x] lists the arrows leaving x, pos[g] is g's place in out[src[g]],
        # and rows[f][pos[g]] is the position of "f then g"
        objects, arrows, src, dst = self.objects, self.arrows, self.src, self.dst
        oid = {x: i for i, x in enumerate(objects)}
        if len(oid) != len(objects):
            raise MalformedTables("duplicate object keys")
        aid = {a: f for f, a in enumerate(arrows)}
        if len(aid) != len(arrows):
            raise MalformedTables("duplicate arrow keys")
        s, t, pos = [], [], []
        out: list[list[int]] = [[] for _ in objects]
        hom: dict = {}
        for f, a in enumerate(arrows):
            x, y = oid.get(src[a]), oid.get(dst[a])
            if x is None or y is None:
                raise MalformedTables(f"arrow {a!r} has unknown endpoints")
            s.append(x)
            t.append(y)
            pos.append(len(out[x]))
            out[x].append(f)
            hom.setdefault((src[a], dst[a]), []).append(a)
        object.__setattr__(self, "_hom", hom)
        ident = []
        for x, key in enumerate(objects):
            e = aid.get(self.ident.get(key))
            if e is None or s[e] != x or t[e] != x:
                raise MalformedTables(f"object {key!r} lacks an identity arrow")
            ident.append(e)
        if len(self.comp) != sum(len(out[y]) for y in t):
            raise MalformedTables("composition table keys must be exactly the composable pairs")
        rows = [[0] * len(out[y]) for y in t]
        for (f, g), h in self.comp.items():
            fi, gi = aid.get(f), aid.get(g)
            if fi is None or gi is None or t[fi] != s[gi]:
                raise MalformedTables(f"({f!r}, {g!r}) is not a composable pair")
            hi = aid.get(h)
            if hi is None or s[hi] != s[fi] or t[hi] != t[gi]:
                raise MalformedTables(f"composite of ({f!r}, {g!r}) has wrong endpoints")
            rows[fi][pos[gi]] = hi
        for f, a in enumerate(arrows):
            if rows[ident[s[f]]][pos[f]] != f:
                raise MalformedTables(f"left identity law fails at {a!r}")
            if rows[f][pos[ident[t[f]]]] != f:
                raise MalformedTables(f"right identity law fails at {a!r}")
        # (f then g) then h against f then (g then h), one row of h per pair, in the order of comp
        places = [[pos[gh] for gh in row] for row in rows]
        for fk, gk in self.comp:
            row, g = rows[aid[fk]], aid[gk]
            fg = row[pos[g]]
            if rows[fg] != list(map(row.__getitem__, places[g])):
                h = next(h for h, lhs, f_gh in zip(out[t[g]], rows[fg], places[g]) if lhs != row[f_gh])
                raise MalformedTables(f"associativity fails at ({fk!r}, {gk!r}, {arrows[h]!r})")

    def hom(self, x, y) -> tuple:
        return tuple(self._hom.get((x, y), ()))


def two_sided_inverse(fc: FiniteCategory, arrow) -> object | None:
    """Search the finite category for a two-sided inverse of the arrow."""
    for b in fc.hom(fc.dst[arrow], fc.src[arrow]):
        if (
            fc.comp[(arrow, b)] == fc.ident[fc.src[arrow]]
            and fc.comp[(b, arrow)] == fc.ident[fc.dst[arrow]]
        ):
            return b
    return None


def external_category(ic: InternalCategory, c_obj: FinSet) -> FiniteCategory:
    """The category of maps from c_obj: objects are maps into O, arrows maps into M.

    An arrow alpha: C -> M runs from d.alpha to c.alpha; the identity at f
    is eta.f and composition is pointwise composition of arrows.
    """
    n_arr = ic.m.size**c_obj.size
    budget(ic.o.size**c_obj.size, f"{ic.o.size}^{c_obj.size} external-category objects")
    budget(n_arr, f"{ic.m.size}^{c_obj.size} external-category arrows")
    objects = tuple(f.table for f in all_maps(c_obj, ic.o))
    arrows = tuple(a.table for a in all_maps(c_obj, ic.m))
    src = {a: tuple(ic.d.table[v] for v in a) for a in arrows}
    dst = {a: tuple(ic.c.table[v] for v in a) for a in arrows}
    ident = {f: tuple(ic.eta.table[v] for v in f) for f in objects}
    budget(n_arr * n_arr, f"{n_arr}^2 external-category composites")
    rows = ic.comp_rows
    comp = {}
    for a in arrows:
        for b in arrows:
            if dst[a] != src[b]:
                continue
            comp[(a, b)] = tuple(rows[x][y] for x, y in zip(a, b))
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
    for a in sets:
        budget(a.size**s.size, f"{a.size}^{s.size} hom-functor images")
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
