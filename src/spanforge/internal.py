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
from typing import Iterable, Iterator, Sequence

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
        raise MalformedTables(f"SPANFORGE_SIZE_CAP must be a non-negative int, got {raw!r}")
    return cap


def budget(count: int, what: str) -> None:
    """Refuse a loop over count items of what once it would pass enumeration_cap()."""
    cap = enumeration_cap()
    if count > cap:
        raise SizeLimitExceeded(f"enumeration of {what} exceeds cap {cap}")


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
    def tables(self) -> CategoryTables:
        """The category on ids, read off the layout of the composable pairs: a's run of mu is its row."""
        pb = self.composable
        rows = tuple(self.mu.table[i:j] for i, j in zip(pb.start, pb.start[1:]))
        return CategoryTables(self.d.table, self.c.table, self.eta.table, pb.out, pb.pos, rows)

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
            rb.fail(law, f"object {ic.o.label(ids[0])}")
            continue
        names = ", ".join(map(ic.m.label, ids))
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
    """Verify the inversion laws; requires the underlying category to pass."""
    underlying = check_internal_category(g.cat)
    if not underlying.passed:
        raise UnderlyingCategoryInvalid(underlying)
    ic, rb, arrows = g.cat, ReportBuilder(), range(g.cat.m.size)
    d, c, eta, iota, then = ic.d.table, ic.c.table, ic.eta.table, g.iota.table, ic.tables.then
    for m in arrows:
        if c[iota[m]] != d[m]:
            rb.fail("inverse-flips-target", f"arrow {ic.m.label(m)}")
        if d[iota[m]] != c[m]:
            rb.fail("inverse-flips-source", f"arrow {ic.m.label(m)}")
    right, left = [then(m, iota[m]) for m in arrows], [then(iota[m], m) for m in arrows]
    for m in arrows:
        laws = (("right-inverse-law", right[m], eta[d[m]]), ("left-inverse-law", left[m], eta[c[m]]))
        for law, composite, unit in laws:
            if composite != unit:
                missing = " not composable with inverse" if composite is None else ""
                rb.fail(law, f"arrow {ic.m.label(m)}{missing}")
    for m in arrows:
        if iota[iota[m]] != m:
            rb.fail("inverse-involutive", f"arrow {ic.m.label(m)}")
    for law in ("inverse-flips-target", "inverse-flips-source", "inverse-involutive"):
        rb.count(law, len(arrows))
    # an inverse law is two checks, that the composite exists and is the identity, or one where it is missing
    rb.count("right-inverse-law", 2 * len(arrows) - right.count(None))
    rb.count("left-inverse-law", 2 * len(arrows) - left.count(None))
    return rb.report()


def _ids(values: Sequence, bound: int) -> bool:
    """Every value is an int id below bound."""
    return set(map(type, values)) <= {int} and (not values or 0 <= min(values) and max(values) < bound)


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """An explicit category on ids; its keys are labels.

    ``tables`` is the category: object x is labelled ``objects[x]`` and arrow
    f ``arrows[f]``.  Construction refuses malformed tables, then checks the
    laws by the pass that checks internal categories and raises the first
    failure, naming keys.  ``object_id`` and ``arrow_id`` map keys back to
    ids, built on first read.
    """

    objects: tuple
    arrows: tuple
    tables: CategoryTables

    def __post_init__(self) -> None:
        objects, arrows, cat = self.objects, self.arrows, self.tables
        n, m = len(objects), len(arrows)
        if len(cat.ident) != n or not len(cat.s) == len(cat.t) == len(cat.rows) == m:
            raise MalformedTables("tables must hold one identity per object and one row per arrow")
        if not (_ids(cat.s, n) and _ids(cat.t, n) and _ids(cat.ident, m)):
            raise MalformedTables("endpoints must be object ids and identities arrow ids")
        if (cat.out, cat.pos) != group_by_value(cat.s, n):
            raise MalformedTables("out and pos must list the arrows leaving each object in id order")
        for f, row in enumerate(cat.rows):
            if len(row) != len(cat.out[cat.t[f]]) or not _ids(row, m):
                raise MalformedTables(f"row of {arrows[f]!r} must hold an arrow id per arrow leaving its end")
        failure = next(law_failures(cat), None)
        if failure is None:
            return
        law, ids, _ = failure
        if law.startswith("identity"):
            raise MalformedTables(f"object {objects[ids[0]]!r} lacks an identity arrow")
        names = ", ".join(repr(arrows[f]) for f in ids)
        if law.startswith("composition"):
            raise MalformedTables(f"composite of ({names}) has wrong endpoints")
        if law != "associativity":
            raise MalformedTables(f"{law.removesuffix('-unit')} identity law fails at {names}")
        raise MalformedTables(f"associativity fails at ({names})")

    object_id = cached_property(lambda self: {x: i for i, x in enumerate(self.objects)})
    arrow_id = cached_property(lambda self: {a: f for f, a in enumerate(self.arrows)})

    @cached_property
    def comp(self) -> dict:
        """(f, g) -> "f then g", one entry per composable pair, row by row.

        Kept only because perfbench/layertrace.py counts a category's pairs as
        len(comp); it goes when that count reads the rows.
        """
        a, cat = self.arrows, self.tables
        return {(a[f], a[g]): a[h] for f, row in enumerate(cat.rows) for g, h in zip(cat.out[cat.t[f]], row)}


def external_category(ic: InternalCategory, c_obj: FinSet) -> FiniteCategory:
    """The category of maps from c_obj: objects are maps into O, arrows maps into M.

    An arrow alpha: C -> M runs from d.alpha to c.alpha; the identity at f
    is eta.f and composition is pointwise composition of arrows.  Maps are
    listed in lexicographic order, so a map's id is its lexicographic index.
    """
    n_obj, n_arr = ic.o.size**c_obj.size, ic.m.size**c_obj.size
    budget(n_obj, f"{ic.o.size}^{c_obj.size} external-category objects")
    budget(n_arr, f"{ic.m.size}^{c_obj.size} external-category arrows")
    objects = tuple(f.table for f in all_maps(c_obj, ic.o))
    arrows = tuple(a.table for a in all_maps(c_obj, ic.m))
    cat, n_o, n_m = ic.tables, ic.o.size, ic.m.size
    s = tuple(_map_lex_index(map(cat.s.__getitem__, a), n_o) for a in arrows)
    t = tuple(_map_lex_index(map(cat.t.__getitem__, a), n_o) for a in arrows)
    ident = tuple(_map_lex_index(map(cat.ident.__getitem__, x), n_m) for x in objects)
    budget(n_arr * n_arr, f"{n_arr}^2 external-category composites")
    out, pos = group_by_value(s, n_obj)
    # pointwise composites: the ends of a then b agree at every point
    rows = tuple(
        tuple(_map_lex_index(map(cat.then, a, arrows[g]), n_m) for g in out[y]) for a, y in zip(arrows, t)
    )
    return FiniteCategory(objects, arrows, CategoryTables(s, t, ident, out, pos, rows))


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


def _map_lex_index(table: Iterable[int], base: int) -> int:
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
