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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Sequence

from .catalog import MonoidTable
from .errors import BaseMismatch, KeyScheduleMismatch, MalformedTables
from .finset import CACHE_SIZE, FinMap, FinSet, compose, pair_position
from .internal import InternalCategory, InternalGroupoid, budget, capped_product, count_name, enumeration_cap
from .report import Report, ReportBuilder
from .span import SliceObject, Span, TensorResult, TwoCell, cell_choices, tensor


@dataclass(frozen=True)
class ModulePlan:
    """The convolution monoid of a slice object base valued in ic, as flat tables.

    ``fm`` is the free module f_A . M.  Generator s is the pair (carrier[s],
    arrow[s]); the generator (x, m) sits at start[x] + pos[m], fm.pb's layout,
    and ``lead[s]`` is start[carrier[s]], so s - lead[s] is pos[arrow[s]].
    ``rows`` and ``pos`` are ic.tables': rows[a][pos[b]] is "a then b", one
    entry per composable pair; ``steps`` is ic.steps, the same rows as
    places: steps[a][pos[b]] is pos["a then b"].  The kernels index these
    tuples by position, with no tuple key or dict lookup; a checked element
    composes only composable pairs and places only generators.  The cell
    calculus (diagonal, tensor_cells, pair_cells, reassociate, mu_cell) is
    their specification; the tests compare exactly.

    Every element carries its plan, so products never look one up.  A plan
    compares and hashes by (base, ic) alone: a plan rebuilt after the cache
    dropped an earlier one equals it.

    ``convs`` and ``endos`` memoise the checked element of each raw table,
    so an equal product is the same object; each holds at most CACHE_SIZE
    entries and is left out of pickles.  A product reads its memo itself
    and builds through ``_conv`` or ``_wrap_endo`` only on a miss.
    """

    base: SliceObject
    ic: InternalCategory
    fm: TensorResult = field(compare=False, repr=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    pos: tuple[int, ...] = field(compare=False, repr=False)
    start: tuple[int, ...] = field(compare=False, repr=False)
    carrier: tuple[int, ...] = field(compare=False, repr=False)
    arrow: tuple[int, ...] = field(compare=False, repr=False)
    lead: tuple[int, ...] = field(compare=False, repr=False)
    steps: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    convs: dict[tuple, ConvElement] = field(default_factory=dict, compare=False, repr=False)
    endos: dict[tuple, KleisliEndo] = field(default_factory=dict, compare=False, repr=False)

    def __reduce__(self):
        tables = (self.fm, self.rows, self.pos, self.start, self.carrier, self.arrow, self.lead, self.steps)
        return ModulePlan, (self.base, self.ic, *tables)

    def extend(self, alpha: tuple) -> tuple:
        """The simply presented endomorphism a -> (a, alpha(a))."""
        return tuple(map(add, self.start, map(self.pos.__getitem__, alpha)))  # start[a] + pos[alpha[a]] at each a

    def compose(self, beta: tuple, alpha: tuple) -> tuple:
        """Kleisli composite: alpha, then beta on the carrier, then compose arrows."""
        carrier, arrow, lead, steps = self.carrier, self.arrow, self.lead, self.steps
        out = []
        for s1 in alpha:
            s2 = beta[carrier[s1]]
            out.append(lead[s2] + steps[arrow[s2]][s1 - lead[s1]])  # (carrier[s2], arrow[s2] then arrow[s1])
        return tuple(out)

    def push(self, dst: ModulePlan, u: tuple, tau: tuple) -> tuple:
        """u with its carrier moved along tau: (tau(x), m) where u(a) = (x, m), as a generator of dst or None.

        The square of an endomorphism morphism (sigma, tau): u here -> v over dst holds exactly when this is v . sigma.
        """
        pb, carrier, arrow = dst.fm.pb, self.carrier, self.arrow
        return tuple(pair_position(pb, tau[carrier[s]], arrow[s]) for s in u)


@lru_cache(maxsize=CACHE_SIZE)
def module_plan(base: SliceObject, ic: InternalCategory) -> ModulePlan:
    """The plan of the free module on base, built once per (base, ic)."""
    if base.o != ic.o:
        raise BaseMismatch("slice object and internal category live over different bases")
    fm = tensor(base.span, ic.mor_span)
    cat, start, carrier = ic.tables, fm.pb.start, fm.proj_left.table
    lead = tuple(map(start.__getitem__, carrier))
    return ModulePlan(base, ic, fm, cat.rows, cat.pos, start, carrier, fm.proj_right.table, lead, ic.steps)


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


def _wrap(plan: ModulePlan, memo: dict, kind: type, span: Span, table: tuple):
    """The kind of element whose cell plan.base.span => span has this table, built and checked once per memo."""
    elem = memo.get(table)
    if elem is None:
        elem = kind(plan, TwoCell(plan.base.span, span, FinMap(plan.base.a, span.apex, table)))
        if len(memo) < CACHE_SIZE:
            memo[table] = elem
    return elem


def _conv(plan: ModulePlan, table: tuple) -> ConvElement:
    return _wrap(plan, plan.convs, ConvElement, plan.ic.mor_span, table)


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
    return _wrap(plan, plan.endos, KleisliEndo, plan.fm.span, table)


def conv_unit(fa: SliceObject, ic: InternalCategory) -> ConvElement:
    """The unit of the convolution monoid: the identity family eta after f."""
    return _conv(module_plan(fa, ic), compose(ic.eta, fa.f).table)


def conv_mult(alpha: ConvElement, beta: ConvElement) -> ConvElement:
    """Convolution product: diagonal, tensor of the cells, then composition."""
    plan = alpha.plan
    if beta.plan is not plan and beta.plan != plan:
        raise BaseMismatch("convolution factors must share base and target")
    rows, pos, out = plan.rows, plan.pos, []
    for m, n in zip(alpha.table, beta.table):
        out.append(rows[m][pos[n]])  # alpha(a) then beta(a) at each generator a
    table = tuple(out)
    elem = plan.convs.get(table)
    return _conv(plan, table) if elem is None else elem


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
    table = plan.compose(beta.table, alpha.table)
    endo = plan.endos.get(table)
    return _wrap_endo(plan, table) if endo is None else endo


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


def end_square_holds(src: KleisliEndo, dst: KleisliEndo, sigma: FinMap, tau: FinMap) -> bool:
    """The square of the endomorphism morphism (sigma, tau): src -> dst commutes."""
    return src.plan.push(dst.plan, src.table, tau.table) == tuple(map(dst.table.__getitem__, sigma.table))


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


def _cells(src: Span, dst: Span, noun: str) -> Iterator[tuple[int, ...]]:
    """The tables of the cells src => dst in lexicographic order, counted under noun against the cap first."""
    choices = cell_choices(src, dst)
    count = capped_product(map(len, choices))
    budget(count, f"{count_name(count)} {noun}")
    return itertools.product(*choices)


def _fibre(plan: ModulePlan) -> list[ConvElement]:
    """The convolution elements of plan: at each point, each endo-arrow at the object it lies over."""
    return [_conv(plan, table) for table in _cells(plan.base.span, plan.ic.mor_span, "fibre elements")]


def kleisli_fibre(fa: SliceObject, ic: InternalCategory) -> list[KleisliEndo]:
    """All free-module endomorphisms over fa, in lexicographic table order."""
    plan = module_plan(fa, ic)
    return [_wrap_endo(plan, table) for table in _cells(fa.span, plan.fm.span, "free-module endomorphisms")]


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
    x to (a, m^-1); over a group this is Feistel decryption.  It composes
    to the Kleisli unit on both sides whatever laws the category fails: each
    composite reads "m then m^-1" or "m^-1 then m" at a generator, which
    ``CategoryTables.inverse`` required to be the identity there.
    """
    plan = endo.plan
    start, pos, carrier, arrow = plan.start, plan.pos, plan.carrier, plan.arrow
    inverse = plan.ic.tables.inverse  # arrow ids of a checked element, so no range check
    cand = [None] * len(endo.table)
    for a, s in enumerate(endo.table):
        x, inv = carrier[s], inverse(arrow[s])
        if inv is None or cand[x] is not None:
            return None
        cand[x] = start[a] + pos[inv]  # inv leaves c(arrow[s]) = f(a), so (a, inv) is a generator
    return _wrap_endo(plan, tuple(cand))


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


def slice_cells(src: SliceObject, dst: SliceObject) -> list[tuple[int, ...]]:
    """The tables of the slice cells src -> dst, the maps phi with dst.f . phi = src.f, in lexicographic order."""
    return list(_cells(src.span, dst.span, "slice cells"))


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
    have a two-sided Kleisli inverse, and the groupoid's category must be
    the instances' internal category.
    """
    conv_objects = list(conv_objects)
    end_objects = list(end_objects)
    rb = ReportBuilder()
    targets = {c.target for c in conv_objects} | {e.target for e in end_objects}
    if len(targets) > 1:
        raise BaseMismatch("all adjunction instances must share one internal category")
    if groupoid is not None and targets - {groupoid.cat}:
        raise BaseMismatch("the groupoid must be over the instances' internal category")
    # each pair (alpha, beta) pushes and looks up every slice cell between their bases: all counted first
    conv_bases, end_bases = Counter(c.base for c in conv_objects), Counter(e.base for e in end_objects)
    choices = {(a, b): cell_choices(a.span, b.span) for a in conv_bases for b in end_bases}
    count = sum(capped_product(map(len, c)) * conv_bases[a] * end_bases[b] for (a, b), c in choices.items())
    budget(count, f"{count_name(count)} candidate cells")
    cells = {bases: list(itertools.product(*c)) for bases, c in choices.items()}
    for alpha in conv_objects:
        hat = extend(alpha)
        for beta in end_objects:
            phis, v, bar = cells[alpha.base, beta.base], beta.table, retrieve(beta).table
            # the morphisms (phi, psi): hat -> beta, found by one join on the faces of psi
            faces = Counter(hat.plan.push(beta.plan, hat.table, psi) for psi in phis)
            lifts = [faces[tuple(map(v.__getitem__, phi))] for phi in phis]
            in_conv = [tuple(map(bar.__getitem__, phi)) == alpha.table for phi in phis]
            if lifts != in_conv:  # one psi for each cell of the conv hom-set, none for any other cell
                sizes = f"{sum(lifts)} endomorphism morphisms vs {sum(in_conv)} slice cells"
                rb.fail("hom-bijection", f"bases |A|={alpha.base.a.size}, |B|={beta.base.a.size}: {sizes}")
    rb.count("hom-bijection", len(conv_objects) * len(end_objects))
    if groupoid is not None:
        for alpha in conv_objects:
            if kleisli_inverse(extend(alpha)) is None:
                rb.fail("automorphism", f"extend of {alpha.table} has no two-sided inverse")
        rb.count("automorphism", len(conv_objects))
    return rb.report()
