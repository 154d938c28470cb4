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
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from .catalog import MonoidTable
from .errors import BaseMismatch, KeyScheduleMismatch, MalformedTables
from .finset import CACHE_SIZE, FinMap, FinSet, all_maps, compose
from .internal import InternalCategory, InternalGroupoid, budget, enumeration_cap
from .report import Report, ReportBuilder
from .span import SliceObject, TensorResult, TwoCell, tensor


@dataclass(frozen=True)
class ModulePlan:
    """The convolution monoid of a slice object base valued in ic, as flat tables.

    ``fm`` is the free module f_A . M.  Generator s is the pair (carrier[s],
    arrow[s]); the generator (x, m) sits at start[x] + pos[m], fm.pb's layout.
    ``rows`` and ``pos`` are ic.tables': rows[a][pos[b]] is "a then b", one
    entry per composable pair.  The kernels below index these tuples by
    position, with no tuple key or dict lookup; a checked element composes
    only composable pairs and places only generators.  The cell calculus
    (diagonal, tensor_cells, pair_cells, reassociate, mu_cell) is their
    specification; the tests compare exactly.

    Every element carries its plan, so products never look one up.  A plan
    compares and hashes by (base, ic) alone: a plan rebuilt after the cache
    dropped an earlier one equals it.

    ``convs`` and ``endos`` memoise the checked element of each raw table,
    so an equal product is the same object; each holds at most CACHE_SIZE
    entries and is left out of pickles.
    """

    base: SliceObject
    ic: InternalCategory
    fm: TensorResult = field(compare=False, repr=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    pos: tuple[int, ...] = field(compare=False, repr=False)
    start: tuple[int, ...] = field(compare=False, repr=False)
    carrier: tuple[int, ...] = field(compare=False, repr=False)
    arrow: tuple[int, ...] = field(compare=False, repr=False)
    convs: dict[tuple, ConvElement] = field(default_factory=dict, compare=False, repr=False)
    endos: dict[tuple, KleisliEndo] = field(default_factory=dict, compare=False, repr=False)

    def __reduce__(self):
        tables = (self.fm, self.rows, self.pos, self.start, self.carrier, self.arrow)
        return ModulePlan, (self.base, self.ic, *tables)

    def conv(self, s: tuple, t: tuple) -> tuple:
        """Convolution product: s(a) then t(a) at every generator a."""
        rows, pos, out = self.rows, self.pos, []
        for m, n in zip(s, t):
            out.append(rows[m][pos[n]])
        return tuple(out)

    def extend(self, alpha: tuple) -> tuple:
        """The simply presented endomorphism a -> (a, alpha(a))."""
        return tuple(map(add, self.start, map(self.pos.__getitem__, alpha)))  # start[a] + pos[alpha[a]] at each a

    def compose(self, beta: tuple, alpha: tuple) -> tuple:
        """Kleisli composite: alpha, then beta on the carrier, then compose arrows."""
        start, carrier, arrow, rows, pos = self.start, self.carrier, self.arrow, self.rows, self.pos
        out = []
        for s1 in alpha:
            s2 = beta[carrier[s1]]
            out.append(start[carrier[s2]] + pos[rows[arrow[s2]][pos[arrow[s1]]]])
        return tuple(out)

    def square_holds(self, dst: ModulePlan, u: tuple, v: tuple, sigma: tuple, tau: tuple) -> bool:
        """The square of an endomorphism morphism (sigma, tau): u here -> v over dst.

        Holds when v(sigma(a)) = (tau(x), m) for every generator a with u(a) = (x, m).
        """
        carrier, arrow, dst_carrier, dst_arrow = self.carrier, self.arrow, dst.carrier, dst.arrow
        for a, s in enumerate(u):
            t = v[sigma[a]]
            if dst_carrier[t] != tau[carrier[s]] or dst_arrow[t] != arrow[s]:
                return False
        return True


@lru_cache(maxsize=CACHE_SIZE)
def module_plan(base: SliceObject, ic: InternalCategory) -> ModulePlan:
    """The plan of the free module on base, built once per (base, ic)."""
    if base.o != ic.o:
        raise BaseMismatch("slice object and internal category live over different bases")
    fm = tensor(base.span, ic.mor_span)
    cat = ic.tables
    return ModulePlan(base, ic, fm, cat.rows, cat.pos, fm.pb.start, fm.proj_left.table, fm.proj_right.table)


def free_module(base: SliceObject, ic: InternalCategory) -> TensorResult:
    """The tensor f_A . M carrying the free right module on the slice object."""
    return module_plan(base, ic).fm


@dataclass(frozen=True)
class ConvElement:
    """An element of the convolution monoid of plan.base, valued in plan.ic.

    ``table`` is the arrow table of the cell.  ``_extension`` is set by
    extend once it has built and checked the extension; pickles leave it out.
    """

    plan: ModulePlan
    cell: TwoCell
    table: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _extension: KleisliEndo | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.cell.src != self.plan.base.span or self.cell.dst != self.plan.ic.mor_span:
            raise BaseMismatch("cell endpoints must be the slice span and the arrow span")
        object.__setattr__(self, "table", self.cell.map.table)

    def __reduce__(self):
        return ConvElement, (self.plan, self.cell)

    @property
    def base(self) -> SliceObject:
        return self.plan.base

    @property
    def target(self) -> InternalCategory:
        return self.plan.ic

    @property
    def map(self) -> FinMap:
        return self.cell.map


def conv_element(base: SliceObject, ic: InternalCategory, arrow_map: FinMap) -> ConvElement:
    plan = module_plan(base, ic)
    _check_ends(arrow_map, base.a, ic.m)
    return _conv(plan, arrow_map.table)


def _check_ends(cell_map: FinMap, src: FinSet, dst: FinSet) -> None:
    """TwoCell's endpoint check, run before a memo lookup that reads only the table."""
    if cell_map.dom != src or cell_map.cod != dst:
        raise MalformedTables("cell map must go from source apex to target apex")


def _conv(plan: ModulePlan, table: tuple) -> ConvElement:
    """The element with this arrow table, built and checked once per plan."""
    elem = plan.convs.get(table)
    if elem is None:
        cell = TwoCell(plan.base.span, plan.ic.mor_span, FinMap(plan.base.a, plan.ic.m, table))
        elem = ConvElement(plan, cell)
        if len(plan.convs) < CACHE_SIZE:
            plan.convs[table] = elem
    return elem


@dataclass(frozen=True)
class KleisliEndo:
    """An endomorphism of the free module on plan.base, as a cell f_A => f_A . M (apex table ``table``)."""

    plan: ModulePlan
    cell: TwoCell
    table: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.cell.src != self.plan.base.span or self.cell.dst != self.plan.fm.span:
            raise BaseMismatch("cell endpoints must be the slice span and its free module")
        object.__setattr__(self, "table", self.cell.map.table)

    @property
    def base(self) -> SliceObject:
        return self.plan.base

    @property
    def target(self) -> InternalCategory:
        return self.plan.ic

    @property
    def bar(self) -> FinMap:
        """The arrow component: right projection after the cell."""
        return compose(self.plan.fm.proj_right, self.cell.map)

    @property
    def prime(self) -> FinMap:
        """The carrier component: left projection after the cell."""
        return compose(self.plan.fm.proj_left, self.cell.map)


def kleisli_endo(base: SliceObject, ic: InternalCategory, apex_map: FinMap) -> KleisliEndo:
    plan = module_plan(base, ic)
    _check_ends(apex_map, base.a, plan.fm.span.apex)
    return _wrap_endo(plan, apex_map.table)


def _wrap_endo(plan: ModulePlan, table: tuple) -> KleisliEndo:
    """The endomorphism with this apex table, built and checked once per plan."""
    endo = plan.endos.get(table)
    if endo is None:
        span = plan.fm.span
        endo = KleisliEndo(plan, TwoCell(plan.base.span, span, FinMap(plan.base.a, span.apex, table)))
        if len(plan.endos) < CACHE_SIZE:
            plan.endos[table] = endo
    return endo


def conv_unit(fa: SliceObject, ic: InternalCategory) -> ConvElement:
    """The unit of the convolution monoid: the identity family eta after f."""
    return _unit(module_plan(fa, ic))


def _unit(plan: ModulePlan) -> ConvElement:
    return _conv(plan, compose(plan.ic.eta, plan.base.f).table)


def conv_mult(alpha: ConvElement, beta: ConvElement) -> ConvElement:
    """Convolution product: diagonal, tensor of the cells, then composition."""
    plan = alpha.plan
    if beta.plan is not plan and beta.plan != plan:
        raise BaseMismatch("convolution factors must share base and target")
    return _conv(plan, plan.conv(alpha.table, beta.table))


def extend(alpha: ConvElement) -> KleisliEndo:
    """The simply presented endomorphism <id, alpha>: a -> (a, alpha(a)).

    Built and checked on the first call for each element, which keeps it.
    """
    endo = alpha._extension
    if endo is None:
        plan = alpha.plan
        endo = _wrap_endo(plan, plan.extend(alpha.table))
        object.__setattr__(alpha, "_extension", endo)
    return endo


def retrieve(endo: KleisliEndo) -> ConvElement:
    """Project an endomorphism to its arrow component; inverts extend."""
    plan = endo.plan
    return _conv(plan, tuple(map(plan.arrow.__getitem__, endo.table)))


def kleisli_unit(fa: SliceObject, ic: InternalCategory) -> KleisliEndo:
    return extend(conv_unit(fa, ic))


def kleisli_compose(beta: KleisliEndo, alpha: KleisliEndo) -> KleisliEndo:
    """Kleisli composite "alpha, then beta on the carrier, then compose arrows".

    The module calculus specifies it: apply alpha, tensor beta with the
    arrow span, rebracket, and finish with the composition cell.
    """
    plan = alpha.plan
    if beta.plan is not plan and beta.plan != plan:
        raise BaseMismatch("Kleisli factors must share base and target")
    return _wrap_endo(plan, plan.compose(beta.table, alpha.table))


def is_simply_presented(endo: KleisliEndo) -> bool:
    """True when the carrier component is the identity, i.e. endo = <id, bar>."""
    return tuple(map(endo.plan.carrier.__getitem__, endo.table)) == tuple(range(endo.base.a.size))


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
    """Elementwise test of the endomorphism-morphism square."""
    return src.plan.square_holds(dst.plan, src.table, dst.table, sigma.table, tau.table)


def conv_base_change(src: SliceObject, sigma: FinMap, elem: ConvElement) -> ConvElement:
    """Pull a convolution element back along a slice morphism sigma."""
    return conv_element(src, elem.target, compose(elem.map, sigma))


def endo_base_change(src: SliceObject, sigma: FinMap, endo: KleisliEndo) -> KleisliEndo:
    """Pull a simply presented endomorphism back along a slice morphism.

    Acts by <id, bar-component after sigma>, matching the convolution
    pullback through retrieve/extend.
    """
    return extend(conv_element(src, endo.target, compose(endo.bar, sigma)))


def conv_fibre(fa: SliceObject, ic: InternalCategory) -> list[ConvElement]:
    """All convolution elements over fa, in lexicographic table order."""
    return _fibre(module_plan(fa, ic))


def _fibre(plan: ModulePlan) -> list[ConvElement]:
    """The convolution elements of plan: at each point, each endo-arrow at the object it lies over."""
    d, c = plan.ic.d.table, plan.ic.c.table
    choices = [[m for m in range(plan.ic.m.size) if d[m] == o == c[m]] for o in plan.base.f.table]
    count = math.prod(len(ch) for ch in choices)
    budget(count, f"{count} fibre elements")
    return [_conv(plan, table) for table in itertools.product(*choices)]


def kleisli_fibre(fa: SliceObject, ic: InternalCategory) -> list[KleisliEndo]:
    """All free-module endomorphisms over fa, in lexicographic table order."""
    plan = module_plan(fa, ic)
    f, c = fa.f.table, ic.c.table
    choices = [[s for s, (x, m) in enumerate(zip(plan.carrier, plan.arrow)) if f[x] == o == c[m]] for o in f]
    count = math.prod(len(ch) for ch in choices)
    budget(count, f"{count} free-module endomorphisms")
    return [_wrap_endo(plan, table) for table in itertools.product(*choices)]


def module_endomorphism(endo: KleisliEndo) -> FinMap:
    """The actual endomorphism of the free-module carrier f_A . M.

    Sends a generator pair (a, m) to (carrier(a), arrow(a) then m): the
    Kleisli composite of endo after the pairs themselves, read as generators.
    The assignment turns Kleisli composition into plain composition of maps.
    """
    plan = endo.plan
    apex = plan.fm.span.apex
    return FinMap(apex, apex, plan.compose(endo.table, range(apex.size)))


def kleisli_inverse(endo: KleisliEndo) -> KleisliEndo | None:
    """Two-sided Kleisli inverse, or None when endo has none.

    An inverse exists exactly when the carrier component is a bijection and
    every arrow component m has a two-sided inverse in M.  It is then built
    generator by generator: where endo sends a to (x, m), the inverse sends
    x to (a, m^-1); over a group this is Feistel decryption.  The category
    axioms are not checked on construction, so the candidate must compose
    to the Kleisli unit on both sides before it is returned.
    """
    plan = endo.plan
    start, pos, carrier, arrow = plan.start, plan.pos, plan.carrier, plan.arrow
    inverse = plan.ic.tables.inverse  # arrow ids of a checked element, so no range check
    mine = endo.table
    cand = [None] * len(mine)
    for a, s in enumerate(mine):
        x, inv = carrier[s], inverse(arrow[s])
        if inv is None or cand[x] is not None:
            return None
        cand[x] = start[a] + pos[inv]  # inv leaves c(arrow[s]) = f(a), so (a, inv) is a generator
    table = tuple(cand)
    unit = extend(_unit(plan)).table
    if plan.compose(table, mine) != unit or plan.compose(mine, table) != unit:
        return None
    return _wrap_endo(plan, table)


def toffoli_extend(m_bits: int, n_bits: int, table: Sequence[int]) -> tuple[int, ...]:
    """Extend f: 2^m -> 2^n to the bijection (x, y) -> (x, f(x) xor y).

    States are integers whose high m bits are x and low n bits are y,
    most significant bit first.
    """
    if type(m_bits) is not int or type(n_bits) is not int or min(m_bits, n_bits) < 0:
        raise MalformedTables("bit widths must be non-negative ints")
    # 2^width passes the cap exactly when width reaches the cap's bit length;
    # clamping first keeps a huge width from building a huge integer.
    width = m_bits + n_bits
    budget(1 << min(width, enumeration_cap().bit_length()), f"2^{width} Toffoli states")
    if len(table) != 1 << m_bits:
        raise MalformedTables(f"truth table must have {1 << m_bits} rows")
    mask = (1 << n_bits) - 1
    for v in table:
        if type(v) is not int or not 0 <= v <= mask:
            raise MalformedTables(f"truth table entry {v!r} does not fit in {n_bits} bits")
    perm = []
    for state in range(1 << width):
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
    if type(rounds) is not int:
        raise MalformedTables(f"round count must be an int, got {rounds!r}")
    if len(round_fns) != rounds:
        raise KeyScheduleMismatch(
            f"{rounds} rounds requested but {len(round_fns)} round functions supplied"
        )
    n = group.size
    for fn in round_fns:
        if len(fn) != n or any(type(v) is not int or not 0 <= v < n for v in fn):
            raise MalformedTables("round function must map the group to itself")
    states, table = n * n, group.table
    perm = list(range(states))
    for fn in round_fns:
        for s in range(states):
            l, r = divmod(perm[s], n)
            perm[s] = table[fn[l] * n + r] * n + l
    inv_perm = list(range(states))
    for fn in reversed(round_fns):
        for s in range(states):
            a, b = divmod(inv_perm[s], n)
            inv_perm[s] = b * n + table[inv[fn[b]] * n + a]
    return tuple(perm), tuple(inv_perm)


def verify_adjunction(
    conv_objects: Iterable[ConvElement],
    end_objects: Iterable[KleisliEndo],
    groupoid: InternalGroupoid | None = None,
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
            budget(n_candidates * n_candidates, f"{n_candidates}^2 candidate morphisms")
            slice_cells = [
                phi.table
                for phi in all_maps(a_obj.a, b_obj.a)
                if compose(b_obj.f, phi) == a_obj.f
            ]
            src_plan, dst_plan = hat.plan, beta.plan
            u, v = hat.table, beta.table
            end_homset = [
                (phi, psi)
                for phi in slice_cells
                for psi in slice_cells
                if src_plan.square_holds(dst_plan, u, v, phi, psi)
            ]
            bar = retrieve(beta).table
            conv_homset = [phi for phi in slice_cells if tuple(bar[v] for v in phi) == alpha.table]
            firsts = [phi for phi, _ in end_homset]
            if len(firsts) != len(set(firsts)) or sorted(firsts) != sorted(conv_homset):
                sizes = f"{len(end_homset)} endomorphism morphisms vs {len(conv_homset)} slice cells"
                rb.fail("hom-bijection", f"bases |A|={a_obj.a.size}, |B|={b_obj.a.size}: {sizes}")
    rb.count("hom-bijection", len(conv_objects) * len(end_objects))
    if groupoid is not None:
        for alpha in conv_objects:
            if kleisli_inverse(extend(alpha)) is None:
                rb.fail("automorphism", f"extend of {alpha.table} has no two-sided inverse")
        rb.count("automorphism", len(conv_objects))
    return rb.report()
