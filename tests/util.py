"""Shared helpers for the test suites."""

from __future__ import annotations

from spanforge import FinMap, FinSet, PullbackResult, SliceObject, Span, TwoCell, all_maps
from spanforge.catalog import loops_and_bridges  # re-exported: the suites import it from here
from spanforge.internal import InternalCategory, InternalGroupoid, mu_cell
from spanforge.report import ReportBuilder
from spanforge.span import compose_cells, diagonal, identity_cell, pair_cells, reassociate, tensor_cells


def require(rb: ReportBuilder, condition: bool, law: str, witness: object = None) -> bool:
    """One check of law: count it, record a failure unless condition holds, and return condition.

    The per-instance oracles record each check this way; the library counts each law once.
    """
    rb.count(law, 1)
    if not condition:
        rb.fail(law, witness)
    return condition


def pairs(pb: PullbackResult) -> tuple[tuple[int, int], ...]:
    """The pairs of a pullback in apex order, read off its two projections."""
    return tuple(zip(pb.proj_left.table, pb.proj_right.table))


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


# Reference products built only from the cell calculus.  The library computes
# the same tables with flat kernels; these are the specification they must match.


def conv_mult_by_cells(alpha, beta):
    """Diagonal, then the tensor of the two cells, then the composition cell."""
    tensored = tensor_cells(alpha.cell, beta.cell)
    cell = compose_cells(mu_cell(alpha.target), compose_cells(tensored, diagonal(alpha.base)))
    return cell.map.table


def extend_by_cells(alpha):
    """The pairing <id, alpha> into the free module."""
    return pair_cells(identity_cell(alpha.base.span), alpha.cell).map.table


def kleisli_compose_by_cells(beta, alpha):
    """Apply alpha, tensor beta with the arrow span, rebracket, then compose arrows."""
    ic, base_span = alpha.target, alpha.base.span
    mspan = ic.mor_span
    step1 = tensor_cells(beta.cell, identity_cell(mspan))
    rebracket = reassociate(base_span, mspan, mspan)
    step3 = tensor_cells(identity_cell(base_span), mu_cell(ic))
    cell = compose_cells(step3, compose_cells(rebracket, compose_cells(step1, alpha.cell)))
    return cell.map.table
