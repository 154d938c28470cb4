"""Finite sets, finite functions, and their canonical limits.

Elements of a set of size n are the indices 0..n-1; labels are cosmetic.
Every value is an immutable table, so equality anywhere downstream is
exact table equality, and every pullback is materialized once as the
lexicographically ordered list of matching pairs.  ``PullbackResult.index``
is the one pair -> position lookup; every other module reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import (
    CodomainMismatch,
    DomainMismatch,
    MalformedTables,
    SquareDoesNotCommute,
)


@dataclass(frozen=True)
class FinSet:
    """A finite set with elements 0..size-1 and optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if not isinstance(self.size, int) or self.size < 0:
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
            if not isinstance(v, int) or not 0 <= v < self.cod.size:
                raise MalformedTables(f"entry {v!r} at index {i} not below {self.cod.size}")

    def __call__(self, i: int) -> int:
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


@dataclass(frozen=True)
class PullbackResult:
    """The canonical pullback: all matching pairs in lexicographic order."""

    apex: FinSet
    elems: tuple[tuple[int, int], ...]
    proj_left: FinMap
    proj_right: FinMap

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """Position of each pair in the apex, built on first use; shared, so read only."""
        return {pair: i for i, pair in enumerate(self.elems)}


@lru_cache(maxsize=None)
def pullback(f: FinMap, g: FinMap) -> PullbackResult:
    """Canonical pullback of f and g: pairs (a, b) with f(a) = g(b)."""
    if f.cod != g.cod:
        raise CodomainMismatch(f"pullback legs must share a codomain ({f.cod} vs {g.cod})")
    elems = tuple(
        (a, b) for a in range(f.dom.size) for b in range(g.dom.size) if f.table[a] == g.table[b]
    )
    apex = FinSet(len(elems))
    proj_left = FinMap(apex, f.dom, tuple(a for a, _ in elems))
    proj_right = FinMap(apex, g.dom, tuple(b for _, b in elems))
    return PullbackResult(apex, elems, proj_left, proj_right)


def mediating(pb: PullbackResult, u: FinMap, v: FinMap) -> FinMap:
    """The unique map h into pb.apex with proj_left.h = u and proj_right.h = v."""
    if u.dom != v.dom:
        raise DomainMismatch("cone legs must share a domain")
    if u.cod != pb.proj_left.cod or v.cod != pb.proj_right.cod:
        raise CodomainMismatch("cone legs must target the pullback feet")
    index = pb.index
    table = []
    for x in range(u.dom.size):
        pair = (u.table[x], v.table[x])
        if pair not in index:
            raise SquareDoesNotCommute(f"cone does not commute at element {x}: pair {pair}")
        table.append(index[pair])
    return FinMap(u.dom, pb.apex, tuple(table))


def pair_position(pb: PullbackResult, a: int, b: int) -> int:
    """Index of the pair (a, b) in the apex; KeyError if the legs disagree."""
    return pb.index[(a, b)]


def product(a: FinSet, b: FinSet) -> PullbackResult:
    """Cartesian product as the pullback over the one-point set."""
    return pullback(terminal_map(a), terminal_map(b))
