"""Built-in small monoids, groups and internal categories used by the suites.

Multiplication tables are row-major and diagrammatic: ``table[i][j]`` is
"i then j", matching the composition convention of the engine.  Every
table is re-verified at construction, so the catalog is self-certifying: a
monoid is held as the tables of a category on one object, whose unit and
associativity laws the law pass of internal categories checks, and its
inverses are that category's two-sided inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainMismatch, MalformedTables, NotAGroup
from .finset import FinMap, FinSet, identity, pullback
from .internal import CategoryTables, InternalCategory, InternalGroupoid, law_failures


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
        # on one object only the unit laws and associativity can fail
        failure = next(law_failures(self.tables), None)
        if failure is not None:
            law, ids, _ = failure
            names = ", ".join(map(str, ids))
            if law == "associativity":
                raise MalformedTables(f"{self.name}: associativity fails at ({names})")
            raise MalformedTables(f"{self.name}: {law.removesuffix('-unit')} identity law fails at {names}")

    @cached_property
    def tables(self) -> CategoryTables:
        """The monoid as a category on one object, 0, whose arrows are its elements."""
        n, elements = self.size, tuple(range(self.size))
        rows = tuple(self.table[i * n : (i + 1) * n] for i in elements)  # the table is row-major
        ends = (0,) * n
        return CategoryTables(ends, ends, (self.unit,), (elements,), elements, rows)

    def mult(self, i: int, j: int) -> int:
        """i then j; DomainMismatch unless both are elements."""
        for x in (i, j):
            if type(x) is not int or not 0 <= x < self.size:
                raise DomainMismatch(f"{x!r} is not an element of {self.name}")
        return self.table[i * self.size + j]

    def inverse_table(self) -> tuple[int, ...]:
        """Two-sided inverses for every element; NotAGroup if any is missing."""
        inv = tuple(self.tables.inverse(a) for a in range(self.size))
        if None in inv:
            raise NotAGroup(f"{self.name}: element {inv.index(None)} has no two-sided inverse")
        return inv

    def is_group(self) -> bool:
        return all(self.tables.inverse(a) is not None for a in range(self.size))


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


def _from_rule(o: FinSet, m: FinSet, d, c, eta, then) -> InternalCategory:
    """The internal category with these source, target and unit tables, composing by then.

    mu sends each composable pair (a, b), in the pullback's lexicographic
    order, to then(a, b), the arrow "a then b".
    """
    d, c = FinMap(m, o, d), FinMap(m, o, c)
    pb = pullback(c, d)
    mu = FinMap(pb.apex, m, tuple(map(then, pb.proj_left.table, pb.proj_right.table)))
    return InternalCategory(o, m, d, c, FinMap(o, m, eta), mu)


def one_object_category(monoid: MonoidTable) -> InternalCategory:
    """A monoid presented as an internal category on one object, composing by its table."""
    ends = (0,) * monoid.size
    return _from_rule(FinSet(1), FinSet(monoid.size), ends, ends, (monoid.unit,), monoid.mult)


def one_object_groupoid(group: MonoidTable) -> InternalGroupoid:
    cat = one_object_category(group)
    iota = FinMap(cat.m, cat.m, group.inverse_table())
    return InternalGroupoid(cat, iota)


def discrete_category(n: int) -> InternalGroupoid:
    """Only identity arrows: M = O, all structure maps identities."""
    o = FinSet(n)
    ident = identity(o)
    cat = _from_rule(o, o, ident.table, ident.table, ident.table, lambda x, _y: x)  # only (x, x) pairs
    return InternalGroupoid(cat, ident)


def pair_groupoid(n: int) -> InternalGroupoid:
    """Arrows are ordered pairs (a, b): one arrow from a to b for all a, b.

    Arrow (a, b) is the element a * n + b; composition is
    (a, b) then (b, c) = (a, c), units are the diagonal pairs and the
    inverse of (a, b) is (b, a).
    """
    o, m, arrows = FinSet(n), FinSet(n * n), range(n * n)
    d, c = [x // n for x in arrows], [x % n for x in arrows]
    cat = _from_rule(o, m, d, c, [a * n + a for a in range(n)], lambda x, y: (x // n) * n + y % n)
    return InternalGroupoid(cat, FinMap(m, m, tuple(b * n + a for a, b in zip(d, c))))


def action_groupoid_z2() -> InternalGroupoid:
    """The group of order two acting on a two-point set by the swap.

    Objects are the two points; arrows are pairs (point, group element)
    encoded as point * 2 + g, running from the point to its image.
    """
    o, m, arrows = FinSet(2), FinSet(4), range(4)
    d, c = [x // 2 for x in arrows], [(x // 2) ^ (x % 2) for x in arrows]
    # (point, g) then (point', h) is (point, g xor h)
    cat = _from_rule(o, m, d, c, [0, 2], lambda x, y: (x // 2) * 2 + ((x ^ y) % 2))
    # the inverse of (point, g) is (its image, g)
    return InternalGroupoid(cat, FinMap(m, m, tuple(y * 2 + x % 2 for x, y in zip(arrows, c))))


def loops_and_bridges() -> InternalCategory:
    """Two objects with real loops: neither a groupoid nor only identities.

    Arrows: 0 = id at 0, 1 = an idempotent e at 0, 2 = id at 1, 3 = an
    involution s at 1, and 4, 5 = two arrows p, q from 0 to 1.  "e then h"
    is p for both h in {p, q}; s fixes p and q.  It is kept out of CATALOG,
    whose six instances the sweeps and count pins range over, and
    ``fixtures/loops_and_bridges.json`` holds it as a document.
    """
    table = {(1, 1): 1, (1, 4): 4, (1, 5): 4, (3, 3): 2, (4, 3): 4, (5, 3): 5}

    def then(a: int, b: int) -> int:
        if a in (0, 2):
            return b
        if b in (0, 2):
            return a
        return table[(a, b)]

    return _from_rule(FinSet(2), FinSet(6), (0, 0, 1, 1, 0, 0), (0, 0, 1, 1, 1, 1), (0, 2), then)


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
