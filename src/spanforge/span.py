"""Spans over a fixed base object, 2-cells, and composition by pullback.

Conventions, fixed once and relied on everywhere:

* ``tensor(x, m)`` glues the right leg of ``x`` to the left leg of ``m``.
  Its apex is the canonical pullback ``{(a, b) : x.right(a) = m.left(b)}``
  in lexicographic order; the left leg is ``x.left`` after the first
  projection and the right leg is ``m.right`` after the second.
* A tensor of cells acts componentwise, first factor first:
  ``tensor_cells(t, s)`` sends ``(a, b)`` to ``(t(a), s(b))``.
* Multi-fold tensors are always bracketed explicitly; ``reassociate``
  supplies the canonical bijection when a law needs rebracketing.
* ``tensor(x, m).pb`` is the pullback a tensor was glued along: its two
  projections list the pairs, and cells into a tensor find their pair
  positions in its layout through ``pair_position``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import BaseMismatch, ConditionFails, DomainMismatch, MalformedTables
from .finset import CACHE_SIZE, FinMap, FinSet, PullbackResult, compose, identity, pair_position, pullback


@dataclass(frozen=True)
class Span:
    """A pair of maps out of a common apex into the base object o."""

    o: FinSet
    apex: FinSet
    left: FinMap
    right: FinMap

    def __post_init__(self) -> None:
        if self.left.dom != self.apex or self.right.dom != self.apex:
            raise MalformedTables("span legs must share the apex as domain")
        if self.left.cod != self.o or self.right.cod != self.o:
            raise MalformedTables("span legs must land in the base object")


@dataclass(frozen=True)
class SliceObject:
    """An object of the slice over o, i.e. a single map f: a -> o."""

    a: FinSet
    f: FinMap

    def __post_init__(self) -> None:
        if self.f.dom != self.a:
            raise MalformedTables("slice map must start at the carrier")

    @property
    def o(self) -> FinSet:
        return self.f.cod

    @cached_property
    def span(self) -> Span:
        """The symmetric span (f, f) this slice object stands for; built once."""
        return Span(self.f.cod, self.a, self.f, self.f)


@dataclass(frozen=True)
class TwoCell:
    """A span morphism: an apex map commuting with both legs.

    Both triangle equations are re-verified on construction, so a TwoCell
    in hand is always valid.
    """

    src: Span
    dst: Span
    map: FinMap

    def __post_init__(self) -> None:
        if self.map.dom != self.src.apex or self.map.cod != self.dst.apex:
            raise MalformedTables("cell map must go from source apex to target apex")
        if self.src.o != self.dst.o:
            raise BaseMismatch("cells only exist between spans over the same base")
        table = self.map.table
        if tuple(map(self.dst.left.table.__getitem__, table)) != self.src.left.table:
            raise MalformedTables("left triangle does not commute")
        if tuple(map(self.dst.right.table.__getitem__, table)) != self.src.right.table:
            raise MalformedTables("right triangle does not commute")

    def __call__(self, i: int) -> int:
        return self.map(i)


@lru_cache(maxsize=CACHE_SIZE)
def identity_cell(s: Span) -> TwoCell:
    return TwoCell(s, s, identity(s.apex))


def compose_cells(t2: TwoCell, t1: TwoCell) -> TwoCell:
    """t2 after t1."""
    if t1.dst != t2.src:
        raise DomainMismatch("cells do not meet: target of first != source of second")
    return TwoCell(t1.src, t2.dst, compose(t2.map, t1.map))


@dataclass(frozen=True)
class TensorResult:
    """A tensor span together with the pullback it was glued along."""

    span: Span
    pb: PullbackResult

    @property
    def proj_left(self) -> FinMap:
        return self.pb.proj_left

    @property
    def proj_right(self) -> FinMap:
        return self.pb.proj_right


@lru_cache(maxsize=CACHE_SIZE)
def tensor(x: Span, m: Span) -> TensorResult:
    """Glue x and m along x.right = m.left; see the module conventions."""
    if x.o != m.o:
        raise BaseMismatch("tensor factors must share the base object")
    pb = pullback(x.right, m.left)
    span = Span(x.o, pb.apex, compose(x.left, pb.proj_left), compose(m.right, pb.proj_right))
    return TensorResult(span, pb)


def tensor_cells(t: TwoCell, s: TwoCell) -> TwoCell:
    """The unique cell over (a, b) -> (t(a), s(b)) between the tensors."""
    if t.src.o != s.src.o:
        raise BaseMismatch("cell tensor factors must share the base object")
    src = tensor(t.src, s.src)
    dst = tensor(t.dst, s.dst)
    table = tuple(
        pair_position(dst.pb, t.map.table[a], s.map.table[b])
        for a, b in zip(src.proj_left.table, src.proj_right.table)
    )
    return TwoCell(src.span, dst.span, FinMap(src.span.apex, dst.span.apex, table))


def diagonal(fa: SliceObject) -> TwoCell:
    """The diagonal a -> (a, a) into the self-tensor of a symmetric span."""
    sp = fa.span
    tr = tensor(sp, sp)
    table = tuple(pair_position(tr.pb, a, a) for a in range(fa.a.size))
    return TwoCell(sp, tr.span, FinMap(fa.a, tr.span.apex, table))


def pair_cells(xi: TwoCell, alpha: TwoCell) -> TwoCell:
    """The pairing <xi, alpha> into the tensor of the two targets.

    Requires the gluing condition: the left leg of alpha's target after
    alpha equals the right leg of xi's target after xi.  It is the unique
    cell projecting to xi on the left factor and alpha on the right, and
    coincides with (xi tensor alpha) after the diagonal.
    """
    if xi.src != alpha.src:
        raise DomainMismatch("paired cells must share a source span")
    if compose(alpha.dst.left, alpha.map) != compose(xi.dst.right, xi.map):
        raise ConditionFails("gluing condition fails: legs disagree on the middle object")
    tr = tensor(xi.dst, alpha.dst)
    table = tuple(
        pair_position(tr.pb, xi.map.table[a], alpha.map.table[a]) for a in range(xi.src.apex.size)
    )
    return TwoCell(xi.src, tr.span, FinMap(xi.src.apex, tr.span.apex, table))


@lru_cache(maxsize=CACHE_SIZE)
def reassociate(x: Span, y: Span, z: Span) -> TwoCell:
    """The canonical cell (x . y) . z  =>  x . (y . z), ((a,b),c) -> (a,(b,c))."""
    if not (x.o == y.o == z.o):
        raise BaseMismatch("reassociation factors must share the base object")
    xy = tensor(x, y)
    left_nested = tensor(xy.span, z)
    yz = tensor(y, z)
    right_nested = tensor(x, yz.span)
    table = []
    for p, c in zip(left_nested.proj_left.table, left_nested.proj_right.table):
        a, b = xy.proj_left.table[p], xy.proj_right.table[p]
        q = pair_position(yz.pb, b, c)
        table.append(pair_position(right_nested.pb, a, q))
    return TwoCell(
        left_nested.span,
        right_nested.span,
        FinMap(left_nested.span.apex, right_nested.span.apex, tuple(table)),
    )
