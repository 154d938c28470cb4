"""Finite sets, finite functions, and their canonical limits.

Elements of a set of size n are the indices 0..n-1; labels are cosmetic.
Every value is an immutable table, so equality anywhere downstream is
exact table equality.  A pullback is its two projections, which list the
matching pairs in lexicographic order, plus the layout of ``group_by_value``
(the one grouping of a table's points by value); pullbacks along one right
leg share that leg's grouping.  ``pair_position`` is the one pair -> position
lookup; every other module reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    CodomainMismatch,
    DomainMismatch,
    MalformedTables,
    SquareDoesNotCommute,
)

# Bound of every lru_cache and per-plan element memo in the package, so that
# none grows without limit in a long-lived process.
CACHE_SIZE = 512


@dataclass(frozen=True)
class FinSet:
    """A finite set with elements 0..size-1 and optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if type(self.size) is not int or self.size < 0:
            raise MalformedTables(f"set size must be a non-negative int, got {self.size!r}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise MalformedTables("label list length must equal size")
            if len(set(self.labels)) != self.size:
                raise MalformedTables("labels must be pairwise distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))


TERMINAL = FinSet(1)


@dataclass(frozen=True)
class FinMap:
    """A function between finite sets, stored as its full value table."""

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.dom.size:
            raise MalformedTables(
                f"table length {len(self.table)} != domain size {self.dom.size}"
            )
        for i, v in enumerate(self.table):
            if type(v) is not int or not 0 <= v < self.cod.size:
                raise MalformedTables(f"entry {v!r} at index {i} not below {self.cod.size}")

    def __call__(self, i: int) -> int:
        """The value at i; DomainMismatch unless i is an element of the domain."""
        if type(i) is not int or not 0 <= i < self.dom.size:
            raise DomainMismatch(f"{i!r} is not an element of a domain of size {self.dom.size}")
        return self.table[i]


def identity(s: FinSet) -> FinMap:
    return FinMap(s, s, tuple(range(s.size)))


def constant(dom: FinSet, cod: FinSet, value: int) -> FinMap:
    if dom.size and not 0 <= value < cod.size:
        raise MalformedTables(f"constant value {value} not below {cod.size}")
    return FinMap(dom, cod, (value,) * dom.size)


def terminal_map(s: FinSet) -> FinMap:
    return FinMap(s, TERMINAL, (0,) * s.size)


def all_maps(dom: FinSet, cod: FinSet) -> Iterator[FinMap]:
    """All functions dom -> cod in lexicographic order of their tables."""
    for table in itertools.product(range(cod.size), repeat=dom.size):
        yield FinMap(dom, cod, table)


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f."""
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose: middle objects differ ({f.cod} vs {g.dom})")
    return FinMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def is_bijection(f: FinMap) -> bool:
    return f.dom.size == f.cod.size and len(set(f.table)) == f.dom.size


def invert(f: FinMap) -> FinMap:
    if not is_bijection(f):
        raise MalformedTables("only bijections can be inverted")
    table = [0] * f.cod.size
    for i, v in enumerate(f.table):
        table[v] = i
    return FinMap(f.cod, f.dom, tuple(table))


def group_by_value(table: Sequence[int], size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(out, pos): out[v] lists the points i with table[i] = v < size in order, and i = out[v][pos[i]]."""
    out: list[list[int]] = [[] for _ in range(size)]
    pos = []
    for i, v in enumerate(table):
        pos.append(len(out[v]))
        out[v].append(i)
    return tuple(map(tuple, out)), tuple(pos)


@lru_cache(maxsize=CACHE_SIZE)
def grouping(g: FinMap) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """g's points grouped by value, held once for every pullback along g."""
    return group_by_value(g.table, g.cod.size)


@dataclass(frozen=True)
class PullbackResult:
    """The canonical pullback: its projections list the matching pairs in lexicographic order.

    The derived layout stays out of equality: out and pos group the right foot
    by g, and a's run opens at start[a], so the pair (a, b) sits at start[a] + pos[b].
    """

    apex: FinSet
    proj_left: FinMap
    proj_right: FinMap
    out: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    pos: tuple[int, ...] = field(compare=False, repr=False)
    start: tuple[int, ...] = field(compare=False, repr=False)


@lru_cache(maxsize=CACHE_SIZE)
def pullback(f: FinMap, g: FinMap) -> PullbackResult:
    """Canonical pullback of f and g: pairs (a, b) with f(a) = g(b)."""
    if f.cod != g.cod:
        raise CodomainMismatch(f"pullback legs must share a codomain ({f.cod} vs {g.cod})")
    out, pos = grouping(g)  # g's fibres, so the work is linear in the pairs found
    runs = [out[v] for v in f.table]  # a's run: the b with f(a) = g(b)
    start = tuple(itertools.accumulate(map(len, runs), initial=0))
    apex = FinSet(start[-1])
    left = itertools.chain.from_iterable(map(itertools.repeat, range(len(runs)), map(len, runs)))
    proj_left = FinMap(apex, f.dom, tuple(left))
    proj_right = FinMap(apex, g.dom, tuple(itertools.chain.from_iterable(runs)))
    return PullbackResult(apex, proj_left, proj_right, out, pos, start)


def mediating(pb: PullbackResult, u: FinMap, v: FinMap) -> FinMap:
    """The unique map h into pb.apex with proj_left.h = u and proj_right.h = v."""
    if u.dom != v.dom:
        raise DomainMismatch("cone legs must share a domain")
    if u.cod != pb.proj_left.cod or v.cod != pb.proj_right.cod:
        raise CodomainMismatch("cone legs must target the pullback feet")
    table = tuple(pair_position(pb, a, b) for a, b in zip(u.table, v.table))
    if None in table:
        x = table.index(None)
        raise SquareDoesNotCommute(f"cone does not commute at element {x}: pair {(u.table[x], v.table[x])}")
    return FinMap(u.dom, pb.apex, table)


def pair_position(pb: PullbackResult, a: int, b: int) -> int | None:
    """Position of the pair (a, b) in the apex, or None when it is not a pair of pb."""
    if type(a) is not int or type(b) is not int or not (0 <= a < len(pb.start) - 1 and 0 <= b < len(pb.pos)):
        return None
    i = pb.start[a] + pb.pos[b]  # in a's run, that place holds (a, b) exactly when f(a) = g(b)
    return i if i < pb.start[a + 1] and pb.proj_right.table[i] == b else None


def product(a: FinSet, b: FinSet) -> PullbackResult:
    """Cartesian product as the pullback over the one-point set."""
    return pullback(terminal_map(a), terminal_map(b))
