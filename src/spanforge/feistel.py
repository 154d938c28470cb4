"""Convolution elements, free-module endomorphisms, and reversible extension.

The two sides of the story:

* A convolution element over a slice object f_A is a cell f_A => M into
  the arrow span of an internal category; pointwise it is a family of
  endo-arrows sitting over f.  These form a monoid under the convolution
  product (diagonal, then the tensor of the two cells, then composition).
* A Kleisli endomorphism is a cell f_A => f_A . M, i.e. an endomorphism
  of the free right module on f_A presented by where generators go.

``extend`` turns a convolution element alpha into the simply presented
endomorphism a -> (a, alpha(a)); ``retrieve`` projects an endomorphism
back to its arrow component.  extend is a monoid isomorphism onto the
simply presented endomorphisms, with retrieve as inverse, and lands in
automorphisms whenever the category is a groupoid.  The classical Toffoli
construction and Feistel ciphers are the one-object instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .catalog import MonoidTable
from .errors import (
    BaseMismatch,
    KeyScheduleMismatch,
    MalformedTables,
    SizeLimitExceeded,
)
from .finset import FinMap, all_maps, compose, identity
from .internal import InternalCategory, InternalGroupoid, enumeration_cap, eta_cell, mu_cell
from .report import Report, ReportBuilder
from .span import (
    SliceObject,
    TensorResult,
    TwoCell,
    compose_cells,
    diagonal,
    identity_cell,
    pair_cells,
    reassociate,
    tensor,
    tensor_cells,
)


def free_module(base: SliceObject, ic: InternalCategory) -> TensorResult:
    """The tensor f_A . M carrying the free right module on the slice object."""
    if base.o != ic.o:
        raise BaseMismatch("slice object and internal category live over different bases")
    return tensor(base.span, ic.mor_span)


def arrow_projection_cell(base: SliceObject, ic: InternalCategory) -> TwoCell:
    """The right pullback projection f_A . M => M; always a valid cell."""
    fm = free_module(base, ic)
    return TwoCell(fm.span, ic.mor_span, fm.proj_right)


@dataclass(frozen=True)
class ConvElement:
    """An element of the convolution monoid over base, valued in target."""

    base: SliceObject
    target: InternalCategory
    cell: TwoCell

    def __post_init__(self) -> None:
        if self.base.o != self.target.o:
            raise BaseMismatch("slice object and internal category live over different bases")
        if self.cell.src != self.base.span or self.cell.dst != self.target.mor_span:
            raise BaseMismatch("cell endpoints must be the slice span and the arrow span")

    @property
    def map(self) -> FinMap:
        return self.cell.map


def conv_element(base: SliceObject, ic: InternalCategory, arrow_map: FinMap) -> ConvElement:
    return ConvElement(base, ic, TwoCell(base.span, ic.mor_span, arrow_map))


@dataclass(frozen=True)
class KleisliEndo:
    """An endomorphism of the free module on base, as a cell f_A => f_A . M."""

    base: SliceObject
    target: InternalCategory
    cell: TwoCell

    def __post_init__(self) -> None:
        if self.base.o != self.target.o:
            raise BaseMismatch("slice object and internal category live over different bases")
        fm = free_module(self.base, self.target)
        if self.cell.src != self.base.span or self.cell.dst != fm.span:
            raise BaseMismatch("cell endpoints must be the slice span and its free module")

    @property
    def bar(self) -> FinMap:
        """The arrow component: right projection after the cell."""
        return compose(free_module(self.base, self.target).proj_right, self.cell.map)

    @property
    def prime(self) -> FinMap:
        """The carrier component: left projection after the cell."""
        return compose(free_module(self.base, self.target).proj_left, self.cell.map)


def kleisli_endo(base: SliceObject, ic: InternalCategory, apex_map: FinMap) -> KleisliEndo:
    return KleisliEndo(base, ic, TwoCell(base.span, free_module(base, ic).span, apex_map))


def conv_unit(fa: SliceObject, ic: InternalCategory) -> ConvElement:
    """The unit of the convolution monoid: the identity family eta after f."""
    if fa.o != ic.o:
        raise BaseMismatch("slice object and internal category live over different bases")
    to_unit = TwoCell(fa.span, ic.unit_span, fa.f)
    return ConvElement(fa, ic, compose_cells(eta_cell(ic), to_unit))


def conv_mult(alpha: ConvElement, beta: ConvElement) -> ConvElement:
    """Convolution product: diagonal, tensor of the cells, then composition."""
    if alpha.base != beta.base or alpha.target != beta.target:
        raise BaseMismatch("convolution factors must share base and target")
    delta = diagonal(alpha.base)
    tensored = tensor_cells(alpha.cell, beta.cell)
    cell = compose_cells(mu_cell(alpha.target), compose_cells(tensored, delta))
    return ConvElement(alpha.base, alpha.target, cell)


def extend(alpha: ConvElement) -> KleisliEndo:
    """The simply presented endomorphism <id, alpha>: a -> (a, alpha(a))."""
    cell = pair_cells(identity_cell(alpha.base.span), alpha.cell)
    return KleisliEndo(alpha.base, alpha.target, cell)


def retrieve(endo: KleisliEndo) -> ConvElement:
    """Project an endomorphism to its arrow component; inverts extend."""
    cell = compose_cells(arrow_projection_cell(endo.base, endo.target), endo.cell)
    return ConvElement(endo.base, endo.target, cell)


def kleisli_unit(fa: SliceObject, ic: InternalCategory) -> KleisliEndo:
    return extend(conv_unit(fa, ic))


@lru_cache(maxsize=None)
def _composition_action_cell(base_span, ic: InternalCategory) -> TwoCell:
    """The cell f_A . (M . M) => f_A . M finishing a Kleisli composite."""
    return tensor_cells(identity_cell(base_span), mu_cell(ic))


def kleisli_compose(beta: KleisliEndo, alpha: KleisliEndo) -> KleisliEndo:
    """Kleisli composite "alpha, then beta on the carrier, then compose arrows".

    Built exactly as the module calculus dictates: apply alpha, tensor beta
    with the arrow span, rebracket, and finish with the composition cell.
    """
    if alpha.base != beta.base or alpha.target != beta.target:
        raise BaseMismatch("Kleisli factors must share base and target")
    ic = alpha.target
    mspan = ic.mor_span
    step1 = tensor_cells(beta.cell, identity_cell(mspan))
    rebracket = reassociate(alpha.base.span, mspan, mspan)
    step3 = _composition_action_cell(alpha.base.span, ic)
    cell = compose_cells(step3, compose_cells(rebracket, compose_cells(step1, alpha.cell)))
    return KleisliEndo(alpha.base, ic, cell)


def is_simply_presented(endo: KleisliEndo) -> bool:
    """True when the carrier component is the identity, i.e. endo = <id, bar>."""
    return endo.prime == identity(endo.base.a)


def coreflect(endo: KleisliEndo) -> tuple[KleisliEndo, FinMap]:
    """Nearest simply presented endomorphism and the counit onto the original.

    The returned map is the second component of the counit morphism
    (identity, carrier-component); the first component is always the
    identity cell.
    """
    obj = extend(retrieve(endo))
    return obj, endo.prime


def end_square_holds(
    src: KleisliEndo, dst: KleisliEndo, sigma: FinMap, tau: FinMap
) -> bool:
    """Cheap elementwise test of the endomorphism-morphism square."""
    src_elems = free_module(src.base, src.target).pb.elems
    dst_index = free_module(dst.base, dst.target).pb.index
    src_table, dst_table = src.cell.map.table, dst.cell.map.table
    sig, ta = sigma.table, tau.table
    for a in range(len(src_table)):
        x, m = src_elems[src_table[a]]
        moved = dst_index.get((ta[x], m))
        if moved is None or moved != dst_table[sig[a]]:
            return False
    return True


def conv_base_change(src: SliceObject, sigma: FinMap, elem: ConvElement) -> ConvElement:
    """Pull a convolution element back along a slice morphism sigma."""
    return conv_element(src, elem.target, compose(elem.map, sigma))


def endo_base_change(src: SliceObject, sigma: FinMap, endo: KleisliEndo) -> KleisliEndo:
    """Pull a simply presented endomorphism back along a slice morphism.

    Acts by <id, bar-component after sigma>, matching the convolution
    pullback through retrieve/extend.
    """
    return extend(conv_element(src, endo.target, compose(endo.bar, sigma)))


def conv_fibre(fa: SliceObject, ic: InternalCategory, cap: int | None = None) -> list[ConvElement]:
    """All convolution elements over fa, in lexicographic table order."""
    limit = enumeration_cap() if cap is None else cap
    return list(_conv_fibre_cached(fa, ic, limit))


@lru_cache(maxsize=None)
def _conv_fibre_cached(fa: SliceObject, ic: InternalCategory, limit: int) -> tuple[ConvElement, ...]:
    choices = []
    for a in range(fa.a.size):
        o = fa.f.table[a]
        choices.append(
            [m for m in range(ic.m.size) if ic.d.table[m] == o and ic.c.table[m] == o]
        )
    count = 1
    for ch in choices:
        count *= len(ch)
        if count > limit:
            raise SizeLimitExceeded(f"fibre enumeration exceeds cap {limit}")
    return tuple(
        conv_element(fa, ic, FinMap(fa.a, ic.m, table))
        for table in itertools.product(*choices)
    )


def _endo_choice_lists(fa: SliceObject, ic: InternalCategory, limit: int) -> list[list[int]]:
    """Per-generator valid targets in the module carrier for a cell out of fa."""
    pb = free_module(fa, ic).pb
    choices = []
    for a in range(fa.a.size):
        o = fa.f.table[a]
        choices.append(
            [
                i
                for i, (x, m) in enumerate(pb.elems)
                if fa.f.table[x] == o and ic.c.table[m] == o
            ]
        )
    count = 1
    for ch in choices:
        count *= len(ch)
        if count > limit:
            raise SizeLimitExceeded(f"endomorphism enumeration exceeds cap {limit}")
    return choices


def kleisli_fibre(fa: SliceObject, ic: InternalCategory, cap: int | None = None) -> list[KleisliEndo]:
    """All free-module endomorphisms over fa, in lexicographic table order."""
    limit = enumeration_cap() if cap is None else cap
    fm = free_module(fa, ic)
    choices = _endo_choice_lists(fa, ic, limit)
    out = []
    for table in itertools.product(*choices):
        out.append(kleisli_endo(fa, ic, FinMap(fa.a, fm.span.apex, table)))
    return out


def module_endomorphism(endo: KleisliEndo) -> FinMap:
    """The actual endomorphism of the free-module carrier f_A . M.

    Sends a generator pair (a, m) to (carrier(a), arrow(a) then m); the
    assignment turns Kleisli composition into plain composition of maps.
    """
    pb = free_module(endo.base, endo.target).pb
    ic = endo.target
    bar, prime = endo.bar.table, endo.prime.table
    table = []
    for a, m in pb.elems:
        table.append(pb.index[(prime[a], ic.then(bar[a], m))])
    return FinMap(pb.apex, pb.apex, tuple(table))


def _fast_kleisli_tables(fa: SliceObject, ic: InternalCategory):
    """Precomputed lookups for elementwise Kleisli composition on raw tables."""
    pb = free_module(fa, ic).pb
    return pb.elems, pb.index, ic.composable.index, ic.mu.table


def _fast_compose(elems, index, comp_index, mu_table, beta: tuple, alpha: tuple) -> tuple:
    """Raw-table Kleisli composite "alpha then beta"; mirrors kleisli_compose."""
    out = []
    for slot in alpha:
        x1, m1 = elems[slot]
        x2, m2 = elems[beta[x1]]
        out.append(index[(x2, mu_table[comp_index[(m2, m1)]])])
    return tuple(out)


def kleisli_inverse(
    endo: KleisliEndo,
    iota: FinMap | None = None,
    bruteforce_apex_limit: int = 64,
) -> KleisliEndo | None:
    """Two-sided Kleisli inverse, or None if no candidate works.

    Searches every endomorphism over the same base when the module carrier
    is small; beyond the limit, falls back to the inversion formula
    extend(iota after bar) for simply presented input and verifies it.
    """
    fa, ic = endo.base, endo.target
    fm = free_module(fa, ic)
    elems, index, comp_index, mu_table = _fast_kleisli_tables(fa, ic)
    unit = kleisli_unit(fa, ic).cell.map.table
    mine = endo.cell.map.table
    if fm.span.apex.size <= bruteforce_apex_limit:
        choices = _endo_choice_lists(fa, ic, enumeration_cap())
        matches = []
        for cand in itertools.product(*choices):
            if _fast_compose(elems, index, comp_index, mu_table, cand, mine) != unit:
                continue
            if _fast_compose(elems, index, comp_index, mu_table, mine, cand) != unit:
                continue
            matches.append(cand)
        if not matches:
            return None
        if len(matches) > 1:
            raise AssertionError("two-sided inverses in a monoid must be unique")
        return kleisli_endo(fa, ic, FinMap(fa.a, fm.span.apex, matches[0]))
    if iota is None or not is_simply_presented(endo):
        raise SizeLimitExceeded(
            "carrier too large for brute force and no inversion map available"
        )
    claimed = extend(conv_element(fa, ic, compose(iota, endo.bar)))
    cand = claimed.cell.map.table
    if (
        _fast_compose(elems, index, comp_index, mu_table, cand, mine) == unit
        and _fast_compose(elems, index, comp_index, mu_table, mine, cand) == unit
    ):
        return claimed
    return None


def toffoli_extend(m_bits: int, n_bits: int, table: Sequence[int]) -> tuple[int, ...]:
    """Extend f: 2^m -> 2^n to the bijection (x, y) -> (x, f(x) xor y).

    States are integers whose high m bits are x and low n bits are y,
    most significant bit first.
    """
    if m_bits < 0 or n_bits < 0:
        raise MalformedTables("bit widths must be non-negative")
    if len(table) != 1 << m_bits:
        raise MalformedTables(f"truth table must have {1 << m_bits} rows")
    mask = (1 << n_bits) - 1
    for v in table:
        if not isinstance(v, int) or not 0 <= v <= mask:
            raise MalformedTables(f"truth table entry {v!r} does not fit in {n_bits} bits")
    perm = []
    for state in range(1 << (m_bits + n_bits)):
        x, y = state >> n_bits, state & mask
        perm.append((x << n_bits) | (table[x] ^ y))
    if len(set(perm)) != len(perm):
        raise MalformedTables("extension failed to be a bijection")
    return tuple(perm)


def feistel_network(
    group: MonoidTable, rounds: int, round_fns: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A Feistel permutation on pairs over the group, and its inverse.

    One round maps (l, r) to (f(l) then r, l): the reversible extension of
    the round function followed by the coordinate swap.  Decryption walks
    the rounds backwards using pointwise group inverses.  States are
    encoded l * size + r.
    """
    inv = group.inverse_table()  # NotAGroup when inverses are missing
    if len(round_fns) != rounds:
        raise KeyScheduleMismatch(
            f"{rounds} rounds requested but {len(round_fns)} round functions supplied"
        )
    n = group.size
    for fn in round_fns:
        if len(fn) != n or any(not 0 <= v < n for v in fn):
            raise MalformedTables("round function must map the group to itself")
    states = n * n
    perm = list(range(states))
    for fn in round_fns:
        for s in range(states):
            l, r = divmod(perm[s], n)
            perm[s] = group.mult(fn[l], r) * n + l
    inv_perm = list(range(states))
    for fn in reversed(round_fns):
        for s in range(states):
            a, b = divmod(inv_perm[s], n)
            inv_perm[s] = b * n + group.mult(inv[fn[b]], a)
    return tuple(perm), tuple(inv_perm)


def verify_adjunction(
    conv_objects: Iterable[ConvElement],
    end_objects: Iterable[KleisliEndo],
    groupoid: InternalGroupoid | None = None,
    cap: int | None = None,
) -> Report:
    """Exhaustively exhibit the hom-set bijection of the extension adjunction.

    For every pair (alpha, beta): morphisms extend(alpha) -> beta in the
    endomorphism category correspond one-to-one, by dropping the second
    component, to slice cells phi with retrieve(beta) pulled back along
    phi equal to alpha.  With a groupoid, every extend(alpha) must also
    have a two-sided Kleisli inverse.
    """
    conv_objects = list(conv_objects)
    end_objects = list(end_objects)
    limit = enumeration_cap() if cap is None else cap
    rb = ReportBuilder()
    targets = {c.target for c in conv_objects} | {e.target for e in end_objects}
    if len(targets) > 1:
        raise BaseMismatch("all adjunction instances must share one internal category")
    for alpha in conv_objects:
        hat = extend(alpha)
        a_obj = alpha.base
        for beta in end_objects:
            b_obj = beta.base
            n_candidates = b_obj.a.size ** a_obj.a.size
            if n_candidates * n_candidates > limit:
                raise SizeLimitExceeded("candidate morphism enumeration exceeds cap")
            slice_cells = [
                phi.table
                for phi in all_maps(a_obj.a, b_obj.a)
                if compose(b_obj.f, phi) == a_obj.f
            ]
            end_homset = []
            for phi in slice_cells:
                for psi in slice_cells:
                    if end_square_holds(
                        hat,
                        beta,
                        FinMap(a_obj.a, b_obj.a, phi),
                        FinMap(a_obj.a, b_obj.a, psi),
                    ):
                        end_homset.append((phi, psi))
            retrieved = retrieve(beta)
            conv_homset = [
                phi
                for phi in slice_cells
                if compose(retrieved.map, FinMap(a_obj.a, b_obj.a, phi)) == alpha.map
            ]
            firsts = [phi for phi, _ in end_homset]
            ok = len(firsts) == len(set(firsts)) and sorted(firsts) == sorted(conv_homset)
            rb.require(
                ok,
                "hom-bijection",
                f"bases |A|={a_obj.a.size}, |B|={b_obj.a.size}: "
                f"{len(end_homset)} endomorphism morphisms vs {len(conv_homset)} slice cells",
            )
    if groupoid is not None:
        for alpha in conv_objects:
            inverse = kleisli_inverse(extend(alpha), iota=groupoid.iota)
            rb.require(
                inverse is not None,
                "automorphism",
                f"extend of {alpha.map.table} has no two-sided inverse",
            )
    return rb.report()
