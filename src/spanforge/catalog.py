"""Built-in small monoids, groups and internal categories used by the suites.

Multiplication tables are row-major and diagrammatic: ``table[i][j]`` is
"i then j", matching the composition convention of the engine.  Every
table is re-verified at construction, so the catalog is self-certifying: a
monoid is checked as a one-object FiniteCategory, whose construction
verifies the unit and associativity laws, and its inverses are that
category's two-sided inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainMismatch, MalformedTables, NotAGroup
from .finset import FinMap, FinSet, identity, pullback
from .internal import CategoryTables, FiniteCategory, InternalCategory, InternalGroupoid


@dataclass(frozen=True)
class MonoidTable:
    """A monoid given by its Cayley table, with the unit made explicit."""

    name: str
    size: int
    table: tuple[int, ...]  # row-major: table[i * size + j] = "i then j"
    unit: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        n = self.size
        if type(n) is not int:
            raise MalformedTables(f"size of {self.name} must be an int, got {n!r}")
        if len(self.table) != n * n:
            raise MalformedTables(f"Cayley table for {self.name} must have {n * n} entries")
        if any(type(v) is not int or not 0 <= v < n for v in self.table):
            raise MalformedTables(f"Cayley table for {self.name} has out-of-range entries")
        if type(self.unit) is not int or not 0 <= self.unit < n:
            raise MalformedTables(f"unit of {self.name} out of range")
        try:
            self.category  # checks the unit and associativity
        except MalformedTables as exc:
            raise MalformedTables(f"{self.name}: {exc}") from None

    @cached_property
    def category(self) -> FiniteCategory:
        """The monoid as a category on one object, 0, whose arrows are its elements."""
        n, elements = self.size, tuple(range(self.size))
        rows = tuple(self.table[i * n : (i + 1) * n] for i in elements)  # the table is row-major
        ends = (0,) * n
        tables = CategoryTables(ends, ends, (self.unit,), (elements,), elements, rows)
        return FiniteCategory((0,), elements, tables)

    def mult(self, i: int, j: int) -> int:
        """i then j; DomainMismatch unless both are elements."""
        for x in (i, j):
            if type(x) is not int or not 0 <= x < self.size:
                raise DomainMismatch(f"{x!r} is not an element of {self.name}")
        return self.table[i * self.size + j]

    def inverse_table(self) -> tuple[int, ...]:
        """Two-sided inverses for every element; NotAGroup if any is missing."""
        inv = tuple(self.category.tables.inverse(a) for a in range(self.size))
        if None in inv:
            raise NotAGroup(f"{self.name}: element {inv.index(None)} has no two-sided inverse")
        return inv

    def is_group(self) -> bool:
        return all(self.category.tables.inverse(a) is not None for a in range(self.size))


def monoid_from_flat(name: str, size: int, flat) -> MonoidTable:
    """The monoid of a row-major Cayley table; its unit is found, not given."""
    flat = tuple(flat)
    if type(size) is not int:
        raise MalformedTables(f"{name}: size must be an int, got {size!r}")
    if len(flat) != size * size:
        raise MalformedTables(f"{name}: flat Cayley table must have {size * size} entries")
    for e in range(size):
        if all(flat[e * size + i] == i and flat[i * size + e] == i for i in range(size)):
            return MonoidTable(name, size, flat, e)
    raise MalformedTables(f"{name}: no two-sided unit")


def monoid_from_rows(name: str, rows) -> MonoidTable:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise MalformedTables(f"{name}: Cayley table must have {n} rows of {n} entries")
    return monoid_from_flat(name, n, [v for row in rows for v in row])


def cyclic_group(n: int) -> MonoidTable:
    return monoid_from_rows(f"z{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def klein_four() -> MonoidTable:
    return monoid_from_rows("klein4", [[i ^ j for j in range(4)] for i in range(4)])


def xor_group(bits: int) -> MonoidTable:
    n = 1 << bits
    return monoid_from_rows(f"xor{bits}", [[i ^ j for j in range(n)] for i in range(n)])


def meet_semilattice() -> MonoidTable:
    # {0, 1} under minimum; the unit is the top element 1.
    return monoid_from_rows("and2", [[0, 0], [0, 1]])


def left_zero_adjoined() -> MonoidTable:
    # Two-element left-zero semigroup {1, 2} with adjoined unit 0:
    # away from the unit, "x then y" keeps x.  Non-commutative.
    return monoid_from_rows("leftzero3", [[0, 1, 2], [1, 1, 1], [2, 2, 2]])


def trivial_monoid() -> MonoidTable:
    return monoid_from_rows("trivial", [[0]])


MONOIDS: dict[str, MonoidTable] = {
    m.name: m
    for m in (
        trivial_monoid(),
        cyclic_group(2),
        meet_semilattice(),
        cyclic_group(3),
        left_zero_adjoined(),
        cyclic_group(4),
        klein_four(),
    )
}

GROUPS: dict[str, MonoidTable] = {name: m for name, m in MONOIDS.items() if m.is_group()}


def one_object_category(monoid: MonoidTable) -> InternalCategory:
    """A monoid presented as an internal category on one object.

    Over one object every pair of arrows is composable, so the composition
    table is the Cayley table flattened in lexicographic pair order.
    """
    o = FinSet(1)
    m = FinSet(monoid.size)
    to_o = FinMap(m, o, (0,) * monoid.size)
    eta = FinMap(o, m, (monoid.unit,))
    mu = FinMap(pullback(to_o, to_o).apex, m, monoid.table)
    return InternalCategory(o, m, to_o, to_o, eta, mu)


def one_object_groupoid(group: MonoidTable) -> InternalGroupoid:
    cat = one_object_category(group)
    iota = FinMap(cat.m, cat.m, group.inverse_table())
    return InternalGroupoid(cat, iota)


def discrete_category(n: int, labels: tuple[str, ...] | None = None) -> InternalGroupoid:
    """Only identity arrows: M = O, all structure maps identities."""
    o = FinSet(n, labels)
    ident = identity(o)
    mu = FinMap(pullback(ident, ident).apex, o, tuple(range(n)))  # only (x, x) pairs
    cat = InternalCategory(o, o, ident, ident, ident, mu)
    return InternalGroupoid(cat, ident)


def pair_groupoid(n: int) -> InternalGroupoid:
    """Arrows are ordered pairs (a, b): one arrow from a to b for all a, b.

    Arrow (a, b) is the element a * n + b; composition is
    (a, b) then (b, c) = (a, c), units are the diagonal pairs and the
    inverse of (a, b) is (b, a).
    """
    o = FinSet(n)
    m = FinSet(n * n)
    d = FinMap(m, o, tuple(x // n for x in range(n * n)))
    c = FinMap(m, o, tuple(x % n for x in range(n * n)))
    eta = FinMap(o, m, tuple(a * n + a for a in range(n)))
    pb = pullback(c, d)
    pairs = zip(pb.proj_left.table, pb.proj_right.table)
    mu = FinMap(pb.apex, m, tuple((x // n) * n + (y % n) for x, y in pairs))
    iota = FinMap(m, m, tuple((x % n) * n + (x // n) for x in range(n * n)))
    return InternalGroupoid(InternalCategory(o, m, d, c, eta, mu), iota)


def action_groupoid_z2() -> InternalGroupoid:
    """The group of order two acting on a two-point set by the swap.

    Objects are the two points; arrows are pairs (point, group element)
    encoded as point * 2 + g, running from the point to its image.
    """
    o = FinSet(2)
    m = FinSet(4)
    d = FinMap(m, o, tuple(x // 2 for x in range(4)))
    c = FinMap(m, o, tuple((x // 2) ^ (x % 2) for x in range(4)))
    eta = FinMap(o, m, (0, 2))
    pb = pullback(c, d)
    pairs = zip(pb.proj_left.table, pb.proj_right.table)
    # (point, g) then (point', h) is (point, g xor h)
    mu = FinMap(pb.apex, m, tuple((x // 2) * 2 + ((x ^ y) % 2) for x, y in pairs))
    iota = FinMap(m, m, tuple(((x // 2) ^ (x % 2)) * 2 + (x % 2) for x in range(4)))
    return InternalGroupoid(InternalCategory(o, m, d, c, eta, mu), iota)


def loops_and_bridges() -> InternalCategory:
    """Two objects with real loops: neither a groupoid nor only identities.

    Arrows: 0 = id at 0, 1 = an idempotent e at 0, 2 = id at 1, 3 = an
    involution s at 1, and 4, 5 = two arrows p, q from 0 to 1.  "e then h"
    is p for both h in {p, q}; s fixes p and q.  It is kept out of CATALOG,
    whose six instances the sweeps and count pins range over, and
    ``fixtures/loops_and_bridges.json`` holds it as a document.
    """
    o, m = FinSet(2), FinSet(6)
    d = FinMap(m, o, (0, 0, 1, 1, 0, 0))
    c = FinMap(m, o, (0, 0, 1, 1, 1, 1))
    table = {(1, 1): 1, (1, 4): 4, (1, 5): 4, (3, 3): 2, (4, 3): 4, (5, 3): 5}

    def then(a: int, b: int) -> int:
        if a in (0, 2):
            return b
        if b in (0, 2):
            return a
        return table[(a, b)]

    pb = pullback(c, d)
    mu = FinMap(pb.apex, m, tuple(map(then, pb.proj_left.table, pb.proj_right.table)))
    return InternalCategory(o, m, d, c, FinMap(o, m, (0, 2)), mu)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    category: InternalCategory
    iota: FinMap | None = None

    @property
    def groupoid(self) -> InternalGroupoid | None:
        if self.iota is None:
            return None
        return InternalGroupoid(self.category, self.iota)


def _entries() -> dict[str, CatalogEntry]:
    discrete = discrete_category(2)
    z2 = one_object_groupoid(MONOIDS["z2"])
    klein = one_object_groupoid(MONOIDS["klein4"])
    and2 = one_object_category(MONOIDS["and2"])
    pair2 = pair_groupoid(2)
    action = action_groupoid_z2()
    return {
        "discrete2": CatalogEntry("discrete2", discrete.cat, discrete.iota),
        "z2": CatalogEntry("z2", z2.cat, z2.iota),
        "klein4": CatalogEntry("klein4", klein.cat, klein.iota),
        "and2": CatalogEntry("and2", and2),
        "pair2": CatalogEntry("pair2", pair2.cat, pair2.iota),
        "action2": CatalogEntry("action2", action.cat, action.iota),
    }


CATALOG: dict[str, CatalogEntry] = _entries()
