"""Shared helpers for the test suites."""

from __future__ import annotations

from spanforge import FinMap, FinSet, SliceObject, Span, TwoCell, all_maps, pullback
from spanforge.internal import InternalCategory, InternalGroupoid


def finset(n: int) -> FinSet:
    return FinSet(n)


def fmap(dom_size: int, cod_size: int, table) -> FinMap:
    return FinMap(FinSet(dom_size), FinSet(cod_size), tuple(table))


def slice_object(a_size: int, o: FinSet, table) -> SliceObject:
    a = FinSet(a_size)
    return SliceObject(a, FinMap(a, o, tuple(table)))


def point_slice(o: FinSet, value: int) -> SliceObject:
    return slice_object(1, o, (value,))


def all_slice_objects(a_size: int, o: FinSet):
    a = FinSet(a_size)
    for f in all_maps(a, o):
        yield SliceObject(a, f)


def all_cells(src: Span, dst: Span):
    """All valid 2-cells between two spans."""
    for m in all_maps(src.apex, dst.apex):
        if tuple(dst.left.table[v] for v in m.table) != src.left.table:
            continue
        if tuple(dst.right.table[v] for v in m.table) != src.right.table:
            continue
        yield TwoCell(src, dst, m)


def all_spans(o: FinSet, max_apex: int):
    """All spans over o with apex size up to max_apex."""
    for n in range(max_apex + 1):
        apex = FinSet(n)
        for left in all_maps(apex, o):
            for right in all_maps(apex, o):
                yield Span(o, apex, left, right)


def single_entry_mutants(ic: InternalCategory):
    """Every internal-category candidate differing from ic in one table entry.

    Yields (description, thunk) pairs; calling the thunk builds the mutant
    (which may itself raise if the new tables are structurally malformed).
    """
    def build(d, c, eta, mu):
        apex = FinSet(len(mu))
        return InternalCategory(
            ic.o,
            ic.m,
            FinMap(ic.m, ic.o, tuple(d)),
            FinMap(ic.m, ic.o, tuple(c)),
            FinMap(ic.o, ic.m, tuple(eta)),
            FinMap(apex, ic.m, tuple(mu)),
        )

    base = (list(ic.d.table), list(ic.c.table), list(ic.eta.table), list(ic.mu.table))
    names = ("d", "c", "eta", "mu")
    ranges = (ic.o.size, ic.o.size, ic.m.size, ic.m.size)
    for which, (table, name, rng) in enumerate(zip(base, names, ranges)):
        for pos in range(len(table)):
            for new in range(rng):
                if new == table[pos]:
                    continue
                mutated = [list(t) for t in base]
                mutated[which][pos] = new
                yield (
                    f"{name}[{pos}] -> {new}",
                    lambda m=mutated: build(*m),
                )


def iota_mutants(g: InternalGroupoid):
    """Every groupoid candidate differing from g in one entry of its inversion map."""
    m, table = g.cat.m, g.iota.table
    for pos, old in enumerate(table):
        for new in range(m.size):
            if new != old:
                mutated = table[:pos] + (new,) + table[pos + 1:]
                yield InternalGroupoid(g.cat, FinMap(m, m, mutated))


def compositions_table(monoid, xs):
    """Pointwise product oracle for tuples over a MonoidTable."""
    return tuple(monoid.mult(a, b) for a, b in zip(*xs))


def loops_and_bridges() -> InternalCategory:
    """Two objects with real loops: neither a groupoid nor only identities.

    Arrows: 0 = id at 0, 1 = an idempotent e at 0, 2 = id at 1, 3 = an
    involution s at 1, and 4, 5 = two arrows p, q from 0 to 1.  "e then h"
    is p for both h in {p, q}; s fixes p and q.
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
    mu = FinMap(pb.apex, m, tuple(then(a, b) for a, b in pb.elems))
    return InternalCategory(o, m, d, c, FinMap(o, m, (0, 2)), mu)
