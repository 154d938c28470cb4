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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DomainMismatch,
    MalformedTables,
    NotInternalFunctor,
    NotLex,
    SizeLimitExceeded,
    SquareDoesNotCommute,
)
from .finset import (
    CACHE_SIZE,
    FinMap,
    FinSet,
    all_maps,
    compose,
    group_by_value,
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
        shown = repr(raw) if len(raw) <= 40 else f"{len(raw)} characters starting {raw[:20]!r}"
        raise MalformedTables(f"SPANFORGE_SIZE_CAP must be a non-negative int, got {shown}")
    return cap


def budget(count: int, what: str) -> None:
    """Refuse a loop over count items of what once it would pass enumeration_cap()."""
    cap = enumeration_cap()
    if count > cap:
        raise SizeLimitExceeded(f"enumeration of {what} exceeds cap {cap}")


def count_name(n: int) -> str:
    """n in decimal up to 10^18, and past that without its digits, so no refusal spells out a huge count."""
    return str(n) if n <= 10**18 else "more than 10^18"


def capped_product(factors: Iterable[int]) -> int:
    """The product of factors, multiplied out only until it passes both the cap and 10^18: budget
    refuses the part multiplied out, and count_name names it, as they would the whole product."""
    bound, count, factors = max(enumeration_cap(), 10**18), 1, iter(factors)
    for n in factors:
        count *= n
        if count > bound:
            return count if all(factors) else 0  # a later zero still empties the product
    return count


@dataclass(frozen=True)
class CategoryTables:
    """A finite category on ids: the one composition format of the package.

    Arrow f runs from s[f] to t[f]; ident[x] is the identity at x.  out[x]
    lists the arrows leaving x in id order and pos[g] is g's place in
    out[s[g]], so rows[f][pos[g]] is "f then g": one entry per composable pair.
    """

    s: tuple[int, ...]
    t: tuple[int, ...]
    ident: tuple[int, ...]
    out: tuple[tuple[int, ...], ...]
    pos: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def then(self, f: int, g: int) -> int | None:
        """f then g, or None when g does not leave the target of f."""
        return self.rows[f][self.pos[g]] if self.t[f] == self.s[g] else None

    def inverse(self, f: int) -> int | None:
        """The first arrow, in id order, that is a two-sided inverse of f, or None."""
        src_unit, dst_unit = self.ident[self.s[f]], self.ident[self.t[f]]
        for g, f_g in zip(self.out[self.t[f]], self.rows[f]):
            if f_g == src_unit and self.then(g, f) == dst_unit:
                return g
        return None


def law_failures(cat: CategoryTables) -> Iterator[tuple[str, tuple, bool]]:
    """Walk the category laws on ids, yielding (law, ids, defined) for each failing instance.

    Order: identity endpoints per object, composite endpoints per pair, the
    left then the right unit per arrow, associativity per triple (f, g, h).
    The composable pairs go row by row, which is their lexicographic order.
    defined is False where a composite that the law reads is missing.
    """
    s, t, ident, out, pos, rows = cat.s, cat.t, cat.ident, cat.out, cat.pos, cat.rows
    for x, e in enumerate(ident):
        if s[e] != x:
            yield "identity-source", (x,), True
        if t[e] != x:
            yield "identity-target", (x,), True
    for f, row in enumerate(rows):
        for g, fg in zip(out[t[f]], row):
            if s[fg] != s[f]:
                yield "composition-source", (f, g), True
            if t[fg] != t[g]:
                yield "composition-target", (f, g), True
    for m, x in enumerate(s):
        e = ident[x]
        if t[e] != x:
            yield "left-unit", (m,), False
        elif rows[e][pos[m]] != m:
            yield "left-unit", (m,), True
    for m, y in enumerate(t):
        e = ident[y]
        if s[e] != y:
            yield "right-unit", (m,), False
        elif rows[m][pos[e]] != m:
            yield "right-unit", (m,), True
    # (f then g) then h against f then (g then h): read[g] picks every "g then h" out of a row of f
    # in one call; a row of one entry, or with a composite that leaves another object, goes entry
    # by entry, so no composite indexes a row it is not in
    read = [
        itemgetter(*[pos[gh] for gh in row]) if len(row) > 1 and all(s[gh] == x for gh in row) else None
        for x, row in zip(s, rows)
    ]
    for f, row in enumerate(rows):
        for g, fg in zip(out[t[f]], row):
            lhs = rows[fg] if t[fg] == t[g] else None
            if lhs is not None and read[g] is not None and lhs == read[g](row):
                continue
            for i, (h, gh) in enumerate(zip(out[t[g]], rows[g])):
                if lhs is None or s[gh] != s[g]:
                    yield "associativity", (f, g, h), False
                elif lhs[i] != row[pos[gh]]:
                    yield "associativity", (f, g, h), True


@dataclass(frozen=True)
class InternalCategory:
    """Objects object, morphisms object, source/target, units, composition.

    ``tables`` is the category on ids: s = d, t = c, ident = eta, and
    ``rows[a]`` is the run of mu that holds the composites of a, one entry
    for each arrow leaving c(a), in id order.  ``then`` and ``inverse``, the
    law pass, ``external_category`` and the product kernels all read it.
    ``steps`` holds the same rows as places, for the Kleisli kernel.
    """

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
        leaving = Counter(self.d.table)  # the composable pairs (a, b) with c(a) = d(b), counted, not listed
        pairs = sum(leaving[x] for x in self.c.table)
        if self.mu.dom.size != pairs or self.mu.cod != self.m:
            raise MalformedTables(f"composition table must map the {pairs} composable pairs into M")

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
    def tables(self) -> CategoryTables:
        """The category on ids, read off the layout of the composable pairs: a's run of mu is its row."""
        pb = self.composable
        rows = tuple(self.mu.table[i:j] for i, j in zip(pb.start, pb.start[1:]))
        return CategoryTables(self.d.table, self.c.table, self.eta.table, pb.out, pb.pos, rows)

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], ...]:
        """The rows as places: steps[a][pos[b]] is pos["a then b"], read by every plan's Kleisli kernel."""
        cat = self.tables
        return tuple(tuple(map(cat.pos.__getitem__, row)) for row in cat.rows)

    def then(self, a: int, b: int) -> int:
        """Compose the arrows a then b; DomainMismatch unless they are a composable pair."""
        ab = self.tables.then(a, b) if _ids((a, b), self.m.size) else None
        if ab is None:
            raise DomainMismatch(f"arrows ({a!r}, {b!r}) are not a composable pair of M")
        return ab

    def inverse(self, m: int) -> int | None:
        """The two-sided inverse of arrow m, or None when M holds none; DomainMismatch unless m is an arrow."""
        if type(m) is not int or not 0 <= m < self.m.size:
            raise DomainMismatch(f"{m!r} is not an arrow of M")
        return self.tables.inverse(m)


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
    rb, cat, missing = ReportBuilder(), ic.tables, Counter()
    for law, ids, defined in law_failures(cat):
        if law.startswith("identity"):
            rb.fail(law, f"object {ids[0]}")
            continue
        names = ", ".join(map(str, ids))
        witness = (f"arrow {names}", f"pair ({names})", f"triple ({names})")[len(ids) - 1]
        rb.fail(law, f"{witness} not composable" if law.endswith("unit") and not defined else witness)
        missing[law] += not defined
    # a unit or associativity instance is two checks, that its composites exist and that they
    # agree, or only the first where one is missing
    width = [len(cat.out[y]) for y in cat.t]  # the pairs (f, g) for each f
    n_obj, n_arr, pairs = len(cat.ident), len(cat.s), sum(width)
    triples = sum(width[g] for y in cat.t for g in cat.out[y])
    for law, n in (
        ("identity-source", n_obj), ("identity-target", n_obj), ("composition-source", pairs),
        ("composition-target", pairs), ("left-unit", 2 * n_arr), ("right-unit", 2 * n_arr),
        ("associativity", 2 * triples),
    ):
        rb.count(law, n - missing[law])
    return rb.report()


def check_internal_groupoid(g: InternalGroupoid) -> Report:
    """Verify the inversion laws; where the underlying category fails, its report is returned instead."""
    underlying = check_internal_category(g.cat)
    if not underlying.passed:
        return underlying
    ic, rb, arrows = g.cat, ReportBuilder(), range(g.cat.m.size)
    d, c, eta, iota, then = ic.d.table, ic.c.table, ic.eta.table, g.iota.table, ic.tables.then
    for m in arrows:
        if c[iota[m]] != d[m]:
            rb.fail("inverse-flips-target", f"arrow {m}")
        if d[iota[m]] != c[m]:
            rb.fail("inverse-flips-source", f"arrow {m}")
    right, left = [then(m, iota[m]) for m in arrows], [then(iota[m], m) for m in arrows]
    for m in arrows:
        laws = (("right-inverse-law", right[m], eta[d[m]]), ("left-inverse-law", left[m], eta[c[m]]))
        for law, composite, unit in laws:
            if composite != unit:
                missing = " not composable with inverse" if composite is None else ""
                rb.fail(law, f"arrow {m}{missing}")
    for m in arrows:
        if iota[iota[m]] != m:
            rb.fail("inverse-involutive", f"arrow {m}")
    for law in ("inverse-flips-target", "inverse-flips-source", "inverse-involutive"):
        rb.count(law, len(arrows))
    # an inverse law is two checks, that the composite exists and is the identity, or one where it is missing
    rb.count("right-inverse-law", 2 * len(arrows) - right.count(None))
    rb.count("left-inverse-law", 2 * len(arrows) - left.count(None))
    return rb.report()


def _ids(values: Sequence, bound: int) -> bool:
    """Every value is an int id below bound."""
    return set(map(type, values)) <= {int} and (not values or 0 <= min(values) and max(values) < bound)


def external_category(ic: InternalCategory, c_obj: FinSet) -> CategoryTables:
    """The category of maps from c_obj, on ids: objects are maps into O, arrows maps into M.

    An arrow alpha: C -> M runs from d.alpha to c.alpha; the identity at f
    is eta.f and composition is pointwise composition of arrows.  Maps are
    listed in lexicographic order, so a map's id is its lexicographic index.
    A pointwise law fails only where it fails in ic, so, like every other
    construction on ic, it assumes check_internal_category passed and runs
    no law pass of its own.
    """
    n_obj, n_arr = ic.o.size**c_obj.size, ic.m.size**c_obj.size
    budget(n_obj, f"{ic.o.size}^{c_obj.size} external-category objects")
    budget(n_arr, f"{ic.m.size}^{c_obj.size} external-category arrows")
    budget(ic.mu.dom.size**c_obj.size, f"{ic.mu.dom.size}^{c_obj.size} external-category composites")
    objects = tuple(f.table for f in all_maps(c_obj, ic.o))
    arrows = tuple(a.table for a in all_maps(c_obj, ic.m))
    cat, n_o, n_m = ic.tables, ic.o.size, ic.m.size
    s = tuple(_map_lex_index(map(cat.s.__getitem__, a), n_o) for a in arrows)
    t = tuple(_map_lex_index(map(cat.t.__getitem__, a), n_o) for a in arrows)
    ident = tuple(_map_lex_index(map(cat.ident.__getitem__, x), n_m) for x in objects)
    out, pos = group_by_value(s, n_obj)
    # pointwise composites: the ends of a then b agree at every point
    rows = tuple(
        tuple(_map_lex_index(map(cat.then, a, arrows[g]), n_m) for g in out[y]) for a, y in zip(arrows, t)
    )
    return CategoryTables(s, t, ident, out, pos, rows)


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
        # F(a then b) against F(a) then F(b), row by row: the composable pairs in lexicographic order
        src, fm, then = self.src.tables, self.fm.table, self.dst.tables.then
        for a, row in enumerate(src.rows):
            for b, ab in zip(src.out[src.t[a]], row):
                if fm[ab] != then(fm[a], fm[b]):
                    raise NotInternalFunctor(f"composition square fails at pair ({a}, {b})")


def identity_internal_functor(ic: InternalCategory) -> InternalFunctor:
    return InternalFunctor(ic, ic, identity(ic.o), identity(ic.m))


@dataclass
class LexFunctorData:
    """A finite-limit-preserving functor given on a finite fragment of maps.

    The object and arrow tables are partial.  squares lists the (left, right)
    cospans whose canonical pullbacks the functor must preserve, and terminal
    is a one-point set it must send to a one-point set, or None; verify()
    checks both.
    """

    objects: dict[FinSet, FinSet]
    arrows: dict[FinMap, FinMap]
    squares: tuple[tuple[FinMap, FinMap], ...] = ()
    terminal: FinSet | None = None

    def obj(self, x: FinSet) -> FinSet:
        if x not in self.objects:
            raise NotLex(f"functor fragment has no value on a set of size {x.size}")
        return self.objects[x]

    def arr(self, f: FinMap) -> FinMap:
        if f not in self.arrows:
            raise NotLex(f"functor fragment has no value on a map {f.table}")
        return self.arrows[f]

    def verify(self) -> None:
        """Check functoriality on the fragment, then the terminal object, then each square."""
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
        if self.terminal is not None:
            if self.terminal.size != 1:
                raise NotLex("terminal witness must be a one-point set")
            if self.obj(self.terminal).size != 1:
                raise NotLex("terminal object not preserved")
        for left, right in self.squares:
            self.comparison_iso(left, right)

    def comparison_iso(self, left: FinMap, right: FinMap) -> FinMap:
        """Canonical iso from the image pullback apex onto K(source apex)."""
        if (left, right) not in self.squares:
            raise NotLex("no pullback witness for the requested square")
        pb, image = pullback(left, right), pullback(self.arr(left), self.arr(right))
        try:
            cmp_map = mediating(image, self.arr(pb.proj_left), self.arr(pb.proj_right))
        except SquareDoesNotCommute as exc:
            raise NotLex(f"pullback not preserved: {exc}") from exc
        if not is_bijection(cmp_map):
            raise NotLex("pullback not preserved: comparison map is not a bijection")
        return invert(cmp_map)


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
        raise NotLex(f"transported data is not an internal category: {result.first()}")
    return out


def _map_lex_index(table: Iterable[int], base: int) -> int:
    """Position of a value table in the lexicographic enumeration of maps."""
    idx = 0
    for v in table:
        idx = idx * base + v
    return idx


def _fragment_data(
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]],
    on_set: Callable[[FinSet], FinSet],
    on_map: Callable[[FinMap, FinSet, FinSet], FinMap],
) -> LexFunctorData:
    """K tabulated on the fragment, closed under the squares' pullbacks and every map's ends.

    on_set(A) is K(A) and on_map(f, K(dom f), K(cod f)) is K(f); every set
    also gets its identity, and the first one-point set is the terminal object.
    """
    squares = tuple(squares)
    cones = [pullback(left, right) for left, right in squares]
    maps = dict.fromkeys([*maps, *(p for pb in cones for p in (pb.proj_left, pb.proj_right))])
    sets = dict.fromkeys([*sets, *(pb.apex for pb in cones), *(x for f in maps for x in (f.dom, f.cod))])
    objects = {a: on_set(a) for a in sets}
    arrows = {f: on_map(f, objects[f.dom], objects[f.cod]) for f in maps}
    for a in sets:
        arrows.setdefault(identity(a), identity(objects[a]))
    terminal = next((a for a in sets if a.size == 1), None)
    return LexFunctorData(objects, arrows, squares, terminal)


def hom_functor_data(
    s: FinSet,
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]] = (),
) -> LexFunctorData:
    """The functor "maps out of s", tabulated on the given fragment.

    K(A) enumerates the maps s -> A in lexicographic order; K(f) is
    postcomposition with f.  The functor must preserve the canonical
    pullbacks of the requested (left, right) squares.
    """

    def on_set(a: FinSet) -> FinSet:
        budget(a.size**s.size, f"{a.size}^{s.size} hom-functor images")
        return FinSet(a.size**s.size)

    def on_map(f: FinMap, k_dom: FinSet, k_cod: FinSet) -> FinMap:
        maps_out = itertools.product(range(f.dom.size), repeat=s.size)
        table = (_map_lex_index(map(f.table.__getitem__, u), f.cod.size) for u in maps_out)
        return FinMap(k_dom, k_cod, tuple(table))

    return _fragment_data(sets, maps, squares, on_set, on_map)


def identity_functor_data(
    sets: Iterable[FinSet],
    maps: Iterable[FinMap],
    squares: Iterable[tuple[FinMap, FinMap]] = (),
) -> LexFunctorData:
    """The identity functor tabulated on the given fragment."""
    return _fragment_data(sets, maps, squares, lambda a: a, lambda f, _dom, _cod: f)
