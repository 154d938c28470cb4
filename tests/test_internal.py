import dataclasses
import gc
import itertools
import random
import re
import tracemalloc

import pytest

from spanforge import (
    DomainMismatch,
    FinMap,
    FinSet,
    InternalCategory,
    InternalFunctor,
    InternalGroupoid,
    MalformedTables,
    NotAGroup,
    NotInternalFunctor,
    NotLex,
    SizeLimitExceeded,
    SliceObject,
    UnderlyingCategoryInvalid,
    apply_lex_functor,
    check_internal_category,
    check_internal_groupoid,
    compose,
    conv_unit,
    extend,
    external_category,
    hom_functor_data,
    identity,
    identity_functor_data,
    identity_internal_functor,
    kleisli_compose,
    kleisli_endo,
    kleisli_inverse,
    pullback,
)
from spanforge.catalog import (
    CATALOG,
    GROUPS,
    MONOIDS,
    MonoidTable,
    action_groupoid_z2,
    discrete_category,
    monoid_from_rows,
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
)
from spanforge.feistel import module_plan
from spanforge.fib import default_subslice
from spanforge.finset import CACHE_SIZE, pair_position
from spanforge.internal import FiniteCategory
from spanforge.span import identity_cell

from keyed import (
    KeyedViews, category_from_keys, category_report_by_index, groupoid_report_by_index, pair_index, then_by_index,
)
from util import (
    extend_by_cells, iota_mutants, kleisli_compose_by_cells, loops_and_bridges, pairs, single_entry_mutants,
)


class TestMonoidCatalog:
    def test_expected_members_and_orders(self):
        assert set(MONOIDS) == {
            "trivial",
            "z2",
            "and2",
            "z3",
            "leftzero3",
            "z4",
            "klein4",
        }
        assert all(m.size <= 4 for m in MONOIDS.values())

    def test_groups_are_exactly_the_invertible_ones(self):
        assert set(GROUPS) == {"trivial", "z2", "z3", "z4", "klein4"}

    def test_left_zero_is_noncommutative(self):
        m = MONOIDS["leftzero3"]
        assert any(m.mult(a, b) != m.mult(b, a) for a in range(3) for b in range(3))

    def test_table_without_unit_rejected(self):
        with pytest.raises(MalformedTables):
            monoid_from_rows("broken", [[1, 1], [1, 1]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(MalformedTables, match="^x: Cayley table must have 2 rows of 2 entries$"):
            monoid_from_rows("x", [[1, 0], [0]])
        # four entries in all, but not two rows of two
        with pytest.raises(MalformedTables, match="^y: Cayley table must have 2 rows of 2 entries$"):
            monoid_from_rows("y", [[0, 1, 1], [0]])

    def test_nonassociative_table_rejected(self):
        # 0 is a unit but (1.1).2 != 1.(1.2)
        with pytest.raises(MalformedTables, match=r"^broken: associativity fails at \(1, 1, 2\)$"):
            MonoidTable("broken", 3, (0, 1, 2, 1, 2, 1, 2, 1, 1), 0)

    @pytest.mark.parametrize(
        "table, unit, message",
        [
            ((0, 1, 1, 0), 1, "t: left identity law fails at 0"),
            ((0, 1, 0, 1), 0, "t: right identity law fails at 1"),  # "x then y" is y
        ],
    )
    def test_bad_unit_names_the_first_failing_arrow(self, table, unit, message):
        with pytest.raises(MalformedTables) as info:
            MonoidTable("t", 2, table, unit)
        assert str(info.value) == message

    def test_category_is_built_once(self):
        m = MonoidTable("z3", 3, tuple((i + j) % 3 for i in range(3) for j in range(3)), 0)
        assert m.category is m.category
        assert m.inverse_table() == (0, 2, 1)


def monoid_by_loops(size, table, unit):
    """The verdict of plain unit, associativity and inverse loops: the oracle for MonoidTable.

    ("unit", None) when unit is not two-sided, ("associativity", (a, b, c))
    at the first triple in lexicographic order that fails, else ("ok", the
    first two-sided inverse of each element, or None when one is missing).
    """
    def mult(i, j):
        return table[i * size + j]

    for i in range(size):
        if mult(unit, i) != i or mult(i, unit) != i:
            return "unit", None
    for a in range(size):
        for b in range(size):
            ab = mult(a, b)
            for c in range(size):
                if mult(ab, c) != mult(a, mult(b, c)):
                    return "associativity", (a, b, c)
    inv = []
    for a in range(size):
        found = next((b for b in range(size) if mult(a, b) == unit and mult(b, a) == unit), None)
        if found is None:
            return "ok", None
        inv.append(found)
    return "ok", tuple(inv)


def monoid_verdict(size, table, unit):
    """The same verdict read off MonoidTable, inverse_table and is_group."""
    try:
        monoid = MonoidTable("t", size, tuple(table), unit)
    except MalformedTables as exc:
        message = str(exc)
        if "associativity" in message:
            return "associativity", tuple(int(v) for v in re.findall(r"\d+", message.split(" at ")[1]))
        assert "unit" in message or "identity law" in message, message
        return "unit", None
    try:
        inverses = monoid.inverse_table()
    except NotAGroup:
        inverses = None
    assert monoid.is_group() == (inverses is not None)
    return "ok", inverses


def unit_first_tables(n):
    """Every n-element table in which 0 is a two-sided unit."""
    free = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        table = [j if i == 0 else i if j == 0 else 0 for i in range(n) for j in range(n)]
        for (i, j), v in zip(free, values):
            table[i * n + j] = v
        yield table


class TestMonoidTableAgainstLoops:
    """MonoidTable gives the verdict, first failing triple and inverses of the plain loops."""

    def test_catalog(self):
        for m in MONOIDS.values():
            assert monoid_by_loops(m.size, m.table, m.unit) == monoid_verdict(m.size, m.table, m.unit)

    def test_all_three_element_tables_with_unit_zero(self):
        tables = list(unit_first_tables(3))
        assert len(tables) == 81
        verdicts = [monoid_verdict(3, t, 0) for t in tables]
        assert verdicts == [monoid_by_loops(3, t, 0) for t in tables]
        assert {v[0] for v in verdicts} == {"ok", "associativity"}

    def test_seeded_random_tables(self):
        rng = random.Random(20211206)
        kinds = set()
        for _ in range(400):
            n = rng.randrange(1, 5)
            unit = rng.randrange(n)
            table = [rng.randrange(n) for _ in range(n * n)]
            if rng.random() < 0.7:  # most tables get a true unit, so the associativity check is reached
                for i in range(n):
                    table[unit * n + i] = table[i * n + unit] = i
            expected = monoid_by_loops(n, table, unit)
            assert monoid_verdict(n, table, unit) == expected
            kinds.add(expected[0])
        assert kinds == {"ok", "unit", "associativity"}


class TestChecker:
    def test_accepts_full_instance_family(self):
        instances = [one_object_category(m) for m in MONOIDS.values()]
        instances += [discrete_category(n).cat for n in range(1, 4)]
        instances += [pair_groupoid(n).cat for n in range(1, 4)]
        instances += [action_groupoid_z2().cat]
        for ic in instances:
            assert check_internal_category(ic).passed

    def test_pair_groupoid_composition_convention(self):
        ic = pair_groupoid(2).cat
        n = 2
        for a, b, c in itertools.product(range(n), repeat=3):
            first = a * n + b
            second = b * n + c
            assert ic.then(first, second) == a * n + c

    def test_one_object_z2_passes(self):
        assert check_internal_category(one_object_category(MONOIDS["z2"])).passed

    def test_corrupted_mu_fails_with_witness(self):
        ic = pair_groupoid(2).cat
        mu = list(ic.mu.table)
        mu[3] = (mu[3] + 1) % ic.m.size
        broken = InternalCategory(ic.o, ic.m, ic.d, ic.c, ic.eta, FinMap(ic.mu.dom, ic.m, tuple(mu)))
        report = check_internal_category(broken)
        assert not report.passed
        assert report.first().witness is not None

    def test_every_single_entry_mutation_rejected(self):
        ic = pair_groupoid(2).cat
        total = rejected = 0
        for description, build in single_entry_mutants(ic):
            total += 1
            try:
                mutant = build()
            except MalformedTables:
                rejected += 1
                continue
            if not check_internal_category(mutant).passed:
                rejected += 1
        assert total == 4 + 4 + 6 + 24  # d, c entries over O; eta, mu entries over M
        assert rejected == total


def inverse_by_index(ic, m):
    """The two-sided inverse of m by a scan of M through an index of the composable pairs."""
    index, mu, eta = pair_index(ic.composable), ic.mu.table, ic.eta.table
    src_unit, dst_unit = eta[ic.d.table[m]], eta[ic.c.table[m]]
    for n in range(ic.m.size):
        m_n, n_m = index.get((m, n)), index.get((n, m))
        if m_n is not None and n_m is not None and mu[m_n] == src_unit and mu[n_m] == dst_unit:
            return n
    return None


class TestCompositionRows:
    def test_then_and_inverse_match_the_pullback_index(self):
        instances = [entry.category for entry in CATALOG.values()] + [loops_and_bridges()]
        refused = 0
        for ic in instances:
            for a in range(ic.m.size):
                for b in range(ic.m.size):
                    want = then_by_index(ic, a, b)
                    assert ic.tables.then(a, b) == want
                    if want is None:
                        refused += 1
                        with pytest.raises(DomainMismatch):
                            ic.then(a, b)
                    else:
                        assert ic.then(a, b) == want
                assert ic.inverse(a) == inverse_by_index(ic, a)
        assert refused > 0

    def test_rows_are_runs_of_mu(self):
        for ic in [entry.category for entry in CATALOG.values()] + [loops_and_bridges()]:
            cat = ic.tables
            assert tuple(ab for row in cat.rows for ab in row) == ic.mu.table
            for a, row in enumerate(cat.rows):
                leaving = tuple(b for b in range(ic.m.size) if (a, b) in pairs(ic.composable))
                assert cat.out[ic.c.table[a]] == leaving
                assert len(row) == len(cat.out[ic.c.table[a]])
            for b in range(ic.m.size):
                assert cat.out[ic.d.table[b]][cat.pos[b]] == b

    @pytest.mark.parametrize(
        "a, b", [(0, 3), (3, 0), (0, -1), (-1, 0), (0, 4), (4, 0), (True, 0), (0, False)]
    )
    def test_then_refuses_a_bad_pair_by_name(self, a, b):
        ic = pair_groupoid(2).cat
        with pytest.raises(DomainMismatch, match=rf"^arrows \({a!r}, {b!r}\) are not a composable pair of M$"):
            ic.then(a, b)

    @pytest.mark.parametrize(
        "lookup, args, message",
        [
            ("inverse", (-1,), "-1 is not an arrow of M"),  # no wrap round to the last arrow
            ("inverse", (True,), "True is not an arrow of M"),  # a boolean is no id
            ("inverse", (4,), "4 is not an arrow of M"),
            ("inverse", (1.0,), "1.0 is not an arrow of M"),
            ("mult", (-1, 1), "-1 is not an element of z3"),
            ("mult", (3, 0), "3 is not an element of z3"),
            ("mult", (0, 3), "3 is not an element of z3"),  # would read the next row
            ("mult", (1, False), "False is not an element of z3"),
        ],
    )
    def test_lookups_refuse_a_bad_argument_by_name(self, lookup, args, message):
        owner = pair_groupoid(2).cat if lookup == "inverse" else MONOIDS["z3"]
        with pytest.raises(DomainMismatch) as info:
            getattr(owner, lookup)(*args)
        assert str(info.value) == message


def id_lookups():
    """Each public lookup that takes an id, as (one-argument call, number of ids)."""
    ic = pair_groupoid(2).cat
    ss = default_subslice(ic)
    return {
        "then": (lambda a: ic.then(a, a), ic.m.size),  # the last arrow is an identity
        "inverse": (ic.inverse, ic.m.size),
        "mult": (lambda a: MONOIDS["z3"].mult(a, 0), MONOIDS["z3"].size),
        "FinMap": (ic.d, ic.m.size),
        "TwoCell": (identity_cell(ic.mor_span), ic.m.size),
        "arrow_endpoints": (ss.arrow_endpoints, len(ss.arrows)),
    }


@pytest.mark.parametrize("name", ["then", "inverse", "mult", "FinMap", "TwoCell", "arrow_endpoints"])
@pytest.mark.parametrize("arg", [-1, True, 1.0, "size"])
def test_no_lookup_wraps_round(name, arg):
    """A negative id, a boolean, a float or one past the end is refused, not read off a table."""
    lookup, size = id_lookups()[name]
    lookup(size - 1)  # the last id is read
    with pytest.raises(DomainMismatch):
        lookup(size if arg == "size" else arg)


def law_pass_instances():
    """Every catalog category, loops_and_bridges, a labelled discrete category and the empty one."""
    return [entry.category for entry in CATALOG.values()] + [
        loops_and_bridges(),
        discrete_category(3, ("x", "y", "z")).cat,
        discrete_category(0).cat,  # no law has a check, so none is listed in checked
    ]


def external_refuses(ic):
    try:
        external_category(ic, FinSet(1))
    except MalformedTables:
        return True
    return False


class TestLawPassAgainstLoops:
    """check_internal_category and check_internal_groupoid report what the plain loops report.

    They also count as many checks, law by law, as the loops' one require per check.
    """

    def assert_same_checks(self, check, oracle, structure):
        expected, got = oracle(structure), check(structure)
        assert got.failures == expected.failures
        assert got.checked == expected.checked
        return expected

    def assert_category_matches(self, ic):
        expected = self.assert_same_checks(check_internal_category, category_report_by_index, ic)
        assert external_refuses(ic) == (not expected.passed)
        return expected

    def test_instances(self):
        for ic in law_pass_instances():
            assert self.assert_category_matches(ic).passed

    def test_single_entry_mutants(self):
        laws, built = set(), 0
        for ic in law_pass_instances():
            for _, build in single_entry_mutants(ic):
                try:
                    mutant = build()
                except MalformedTables:
                    continue
                built += 1
                laws.update(f.law for f in self.assert_category_matches(mutant).failures)
        assert built == 259  # the rest change the number of composable pairs, so mu no longer fits
        assert laws == {
            "identity-source", "identity-target", "composition-source", "composition-target",
            "left-unit", "right-unit", "associativity",
        }

    def test_unit_witness_when_the_identity_does_not_compose(self):
        # an identity with the wrong target: its unit composites are not defined
        ic = pair_groupoid(2).cat
        mutant = InternalCategory(ic.o, ic.m, ic.d, ic.c, FinMap(ic.o, ic.m, (1, 3)), ic.mu)
        witnesses = {str(f) for f in self.assert_category_matches(mutant).failures}
        assert "left-unit: arrow 0 not composable" in witnesses

    def test_more_objects_than_arrows(self):
        # two objects share the one arrow as their identity
        o, m = FinSet(2, ("x", "y")), FinSet(1, ("e",))
        d = c = FinMap(m, o, (0,))
        ic = InternalCategory(o, m, d, c, FinMap(o, m, (0, 0)), FinMap(pullback(c, d).apex, m, (0,)))
        failures = self.assert_category_matches(ic).failures
        assert [str(f) for f in failures] == ["identity-source: object y", "identity-target: object y"]

    def test_groupoids_and_their_iota_mutants(self):
        laws, checked = set(), 0
        for entry in CATALOG.values():
            if entry.iota is None:
                continue
            for g in [entry.groupoid, *iota_mutants(entry.groupoid)]:
                checked += 1
                expected = self.assert_same_checks(check_internal_groupoid, groupoid_report_by_index, g)
                laws.update(f.law for f in expected.failures)
        assert checked == 5 + 2 + 2 + 12 + 12 + 12
        assert laws == {
            "inverse-flips-target", "inverse-flips-source", "right-inverse-law", "left-inverse-law",
            "inverse-involutive",
        }

    def test_groupoid_over_a_failing_category(self):
        g = pair_groupoid(2)
        for _, build in single_entry_mutants(g.cat):
            try:
                mutant = InternalGroupoid(build(), g.iota)
            except MalformedTables:
                continue
            with pytest.raises(UnderlyingCategoryInvalid) as expected:
                groupoid_report_by_index(mutant)
            with pytest.raises(UnderlyingCategoryInvalid) as got:
                check_internal_groupoid(mutant)
            assert got.value.report == expected.value.report


class TestSparseCategory:
    """Composition costs one entry per composable pair, not one per pair of arrows."""

    def test_check_of_a_large_discrete_category_stays_small(self):
        ic = discrete_category(1500).cat
        tracemalloc.start()
        try:
            assert check_internal_category(ic).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # 1500^2 dense entries alone would take 18 MB
        rng = random.Random(1500)
        sample = [(a, a) for a in rng.sample(range(1500), 50)]
        sample += [(rng.randrange(1500), rng.randrange(1500)) for _ in range(200)]
        for a, b in sample:
            want = then_by_index(ic, a, b)
            if want is None:
                with pytest.raises(DomainMismatch):
                    ic.then(a, b)
            else:
                assert ic.then(a, b) == want
        for a, _ in sample[:20]:
            assert ic.inverse(a) == inverse_by_index(ic, a) == a

    def test_a_sweep_past_the_plan_cache_retains_little(self):
        # 600 plans of 100 points over 1000 objects: each free module is a pullback along d
        ic = discrete_category(1000).cat
        ic.tables  # built first, with d's grouping, so only what the plans add is measured
        a = FinSet(100)
        maps = (FinMap(a, ic.o, tuple((7 * k + 3 * x) % 1000 for x in range(100))) for k in range(600))
        bases = [SliceObject(a, f) for f in maps]
        gc.collect()
        tracemalloc.start()
        try:
            for base in bases:
                module_plan(base, ic)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(set(bases)) == len(bases) > CACHE_SIZE == module_plan.cache_info().currsize
        assert module_plan(bases[-1], ic).fm.pb.out is ic.tables.out
        # 3.0 MB measured with CPython 3.11; a grouping of d in each cached plan made it 49.8 MB
        assert retained < 6_000_000

    def test_plan_of_a_sparse_slice_stays_small(self):
        # 300 points over 30 of the 3000 objects, ten to an object: each point has ten choices of generator
        ic = discrete_category(3000).cat
        ic.tables  # built first, so only what the plan adds is measured
        a = FinSet(300)
        base = SliceObject(a, FinMap(a, ic.o, tuple(100 * (x // 10) for x in range(300))))
        tracemalloc.start()
        try:
            plan = module_plan(base, ic)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000  # a dense |A| x M table of generators alone holds 900 000 entries
        assert plan.fm.pb.out is ic.tables.out  # the free module is a pullback along d, and shares d's grouping
        unit = extend(conv_unit(base, ic))
        assert unit.table == extend_by_cells(conv_unit(base, ic))
        rng = random.Random(300)
        endos = []
        for _ in range(3):
            carriers = [x for group in range(0, 300, 10) for x in rng.sample(range(group, group + 10), 10)]
            table = tuple(pair_position(plan.fm.pb, x, base.f.table[x]) for x in carriers)
            endos.append(kleisli_endo(base, ic, FinMap(a, plan.fm.span.apex, table)))
        for s in endos + [unit]:
            for t in endos + [unit]:
                assert kleisli_compose(s, t).table == kleisli_compose_by_cells(s, t)
            inverse = kleisli_inverse(s)
            assert kleisli_compose(inverse, s) == kleisli_compose(s, inverse) == unit


class TestGroupoidChecker:
    def test_pair_groupoid_swap_inverse(self):
        assert check_internal_groupoid(pair_groupoid(2)).passed

    def test_z3_inversion(self):
        g = one_object_groupoid(MONOIDS["z3"])
        assert g.iota.table == (0, 2, 1)
        assert check_internal_groupoid(g).passed

    def test_non_group_monoid_has_no_inversion(self):
        ic = one_object_category(MONOIDS["and2"])
        for table in itertools.product(range(2), repeat=2):
            candidate = InternalGroupoid(ic, FinMap(ic.m, ic.m, table))
            assert not check_internal_groupoid(candidate).passed

    def test_inverse_is_involutive_for_accepted_groupoids(self):
        for entry in CATALOG.values():
            if entry.iota is None:
                continue
            assert check_internal_groupoid(entry.groupoid).passed
            assert compose(entry.iota, entry.iota) == identity(entry.category.m)

    def test_underlying_category_must_pass(self):
        ic = pair_groupoid(2).cat
        mu = list(ic.mu.table)
        mu[0] = (mu[0] + 1) % ic.m.size
        broken = InternalCategory(ic.o, ic.m, ic.d, ic.c, ic.eta, FinMap(ic.mu.dom, ic.m, tuple(mu)))
        with pytest.raises(UnderlyingCategoryInvalid):
            check_internal_groupoid(InternalGroupoid(broken, pair_groupoid(2).iota))


class TestExternalCategory:
    def test_z2_at_a_point(self):
        ic = one_object_category(MONOIDS["z2"])
        fc = external_category(ic, FinSet(1))
        assert len(fc.objects) == 1
        (obj,) = fc.objects
        assert len(KeyedViews(fc).hom(obj, obj)) == 2
        z2 = MONOIDS["z2"]
        for a in range(2):
            for b in range(2):
                assert fc.comp[((a,), (b,))] == (z2.mult(a, b),)

    def test_pair_groupoid_at_a_point_is_indiscrete(self):
        ic = pair_groupoid(2).cat
        fc = external_category(ic, FinSet(1))
        assert len(fc.objects) == 2
        views = KeyedViews(fc)
        for x in fc.objects:
            for y in fc.objects:
                assert len(views.hom(x, y)) == 1

    def test_identity_arrows_come_from_eta(self):
        ic = pair_groupoid(2).cat
        fc = external_category(ic, FinSet(1))
        views = KeyedViews(fc)
        for obj in fc.objects:
            assert views.ident[obj] == tuple(ic.eta.table[v] for v in obj)

    def test_groupoid_input_gives_all_arrows_invertible(self):
        for groupoid in (pair_groupoid(2), one_object_groupoid(MONOIDS["z3"]), action_groupoid_z2()):
            fc = external_category(groupoid.cat, FinSet(1))
            for f in range(len(fc.arrows)):
                assert fc.tables.inverse(f) is not None

    def test_non_groupoid_has_non_invertible_arrow(self):
        fc = external_category(one_object_category(MONOIDS["and2"]), FinSet(1))
        assert any(fc.tables.inverse(f) is None for f in range(len(fc.arrows)))

    def test_size_cap(self, monkeypatch):
        ic = one_object_category(MONOIDS["klein4"])
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "10")
        with pytest.raises(SizeLimitExceeded):
            external_category(ic, FinSet(3))

    def test_size_cap_env_override(self, monkeypatch):
        ic = one_object_category(MONOIDS["z2"])
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "1")
        with pytest.raises(SizeLimitExceeded):
            external_category(ic, FinSet(1))

    def test_size_cap_bounds_composites(self, monkeypatch):
        # 1 object and 8 arrows fit under the cap; the 64 arrow pairs do not
        ic = one_object_category(MONOIDS["and2"])
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
        with pytest.raises(SizeLimitExceeded, match="8\\^2 external-category composites exceeds cap 16"):
            external_category(ic, FinSet(3))


class TestInternalFunctor:
    def test_doubling_embeds_z2_in_z4(self):
        z2 = one_object_category(MONOIDS["z2"])
        z4 = one_object_category(MONOIDS["z4"])
        functor = InternalFunctor(z2, z4, identity(z2.o), FinMap(z2.m, z4.m, (0, 2)))
        assert functor.fm.table == (0, 2)

    def test_non_functor_rejected(self):
        z2 = one_object_category(MONOIDS["z2"])
        z4 = one_object_category(MONOIDS["z4"])
        with pytest.raises(NotInternalFunctor, match=re.escape("composition square fails at pair (1, 1)")):
            InternalFunctor(z2, z4, identity(z2.o), FinMap(z2.m, z4.m, (0, 1)))

    def test_first_failing_pair_is_the_first_in_lexicographic_order(self):
        # the idempotent e sent to the identity at 0: e then p = p still holds, e then q = p does not
        ic = identity_internal_functor(loops_and_bridges()).src
        with pytest.raises(NotInternalFunctor, match=re.escape("composition square fails at pair (1, 5)")):
            InternalFunctor(ic, ic, identity(ic.o), FinMap(ic.m, ic.m, (0, 0, 2, 3, 4, 5)))

    def test_identity_functor(self):
        for entry in CATALOG.values():
            identity_internal_functor(entry.category)


def lex_fragment_for(ic):
    sets = [ic.o, ic.m]
    maps = [ic.d, ic.c, ic.eta, ic.mu]
    return sets, maps


class TestLexTransport:
    def test_identity_transport_returns_equal_category(self):
        for name in ("z2", "pair2", "and2"):
            ic = CATALOG[name].category
            sets, maps = lex_fragment_for(ic)
            k = identity_functor_data(sets, maps, squares=[(ic.c, ic.d)])
            assert apply_lex_functor(k, ic) == ic

    def test_hom_functor_on_z2_gives_klein_four(self):
        ic = one_object_category(MONOIDS["z2"])
        sets, maps = lex_fragment_for(ic)
        k = hom_functor_data(FinSet(2), sets, maps, squares=[(ic.c, ic.d)])
        out = apply_lex_functor(k, ic)
        assert out.m.size == 4
        assert check_internal_category(out).passed
        # composition is pointwise: matches the Klein table under the
        # lexicographic encoding u = 2 * u(0) + u(1)
        for a in range(4):
            for b in range(4):
                assert out.then(a, b) == a ^ b

    def test_transported_pair_groupoid_passes_checker(self):
        ic = pair_groupoid(2).cat
        sets, maps = lex_fragment_for(ic)
        k = hom_functor_data(FinSet(2), sets, maps, squares=[(ic.c, ic.d)])
        out = apply_lex_functor(k, ic)
        assert out.o.size == 4 and out.m.size == 16
        assert check_internal_category(out).passed

    def test_missing_fragment_raises(self):
        ic = one_object_category(MONOIDS["z2"])
        k = identity_functor_data([ic.o], [])
        with pytest.raises(NotLex):
            apply_lex_functor(k, ic)

    def test_broken_witness_rejected(self):
        ic = one_object_category(MONOIDS["z2"])
        sets, maps = lex_fragment_for(ic)
        k = identity_functor_data(sets, maps, squares=[(ic.c, ic.d)])
        pb = pullback(ic.c, ic.d)
        # corrupt the functor so the pullback square is no longer preserved:
        # send the composable-pair object to a smaller set
        squashed = FinSet(1)
        k.objects[pb.apex] = squashed
        k.arrows[pb.proj_left] = FinMap(squashed, ic.m, (0,))
        k.arrows[pb.proj_right] = FinMap(squashed, ic.m, (0,))
        k.arrows[ic.mu] = FinMap(squashed, ic.m, (0,))
        k.arrows[identity(pb.apex)] = identity(squashed)
        with pytest.raises(NotLex):
            apply_lex_functor(k, ic)


def arrow_category(**changes):
    """x --f--> y with both identities, as FiniteCategory fields; changes replace fields."""
    fields = dict(
        objects=("x", "y"),
        arrows=("1x", "1y", "f"),
        src={"1x": "x", "1y": "y", "f": "x"},
        dst={"1x": "x", "1y": "y", "f": "y"},
        ident={"x": "1x", "y": "1y"},
        comp={("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "f", ("1y", "1y"): "1y"},
    )
    fields.update(changes)
    return fields


def magma_category(products, reverse=False):
    """One object x and the arrows 1, a, b: 1 is a unit except where products says otherwise."""
    arrows = ("1", "a", "b")
    pairs = [(f, g) for f in arrows for g in arrows]
    comp = {
        (f, g): products.get((f, g), g if f == "1" else f)
        for f, g in (reversed(pairs) if reverse else pairs)
    }
    loop = {a: "x" for a in arrows}
    return dict(objects=("x",), arrows=arrows, src=loop, dst=loop, ident={"x": "1"}, comp=comp)


# a unital magma in which every triple of non-units fails associativity
NON_ASSOCIATIVE = {("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "a"}
Z3_PRODUCTS = {("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "1", ("b", "b"): "a"}


class TestFiniteCategoryMessages:
    """Each malformed table is refused with its own message and first witness."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            (arrow_category(objects=("x", "y", "x")), "duplicate object keys"),
            (arrow_category(arrows=("1x", "1y", "f", "1y")), "duplicate arrow keys"),
            (
                arrow_category(src={"1x": "x", "1y": "y", "f": "z"}),
                "arrow 'f' has unknown endpoints",
            ),
            (arrow_category(ident={"x": "1x", "y": "f"}), "object 'y' lacks an identity arrow"),
            (
                arrow_category(comp={("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "f"}),
                "composition table keys must be exactly the composable pairs",
            ),
            (
                arrow_category(
                    comp={("1x", "1x"): "1x", ("1x", "f"): "f", ("f", "1y"): "f", ("f", "f"): "1y"}
                ),
                "('f', 'f') is not a composable pair",
            ),
            (
                arrow_category(
                    comp={("1x", "1x"): "1x", ("1x", "f"): "1x", ("f", "1y"): "f", ("1y", "1y"): "1y"}
                ),
                "composite of ('1x', 'f') has wrong endpoints",
            ),
            (magma_category({**Z3_PRODUCTS, ("1", "b"): "a"}), "left identity law fails at 'b'"),
            (magma_category({**Z3_PRODUCTS, ("b", "1"): "a"}), "right identity law fails at 'b'"),
            (magma_category(NON_ASSOCIATIVE), "associativity fails at ('a', 'a', 'a')"),
            (magma_category(NON_ASSOCIATIVE, reverse=True), "associativity fails at ('a', 'a', 'a')"),
        ],
    )
    def test_message(self, fields, message):
        with pytest.raises(MalformedTables) as info:
            category_from_keys(**fields)
        assert str(info.value) == message

    def test_left_identity_law_is_checked_at_every_arrow_first(self):
        # the right law fails at 'a' and the left law at 'b': the left law is walked
        # at every arrow before the right law, as check_internal_category walks them
        fields = magma_category({**Z3_PRODUCTS, ("a", "1"): "b", ("1", "b"): "a"})
        with pytest.raises(MalformedTables) as info:
            category_from_keys(**fields)
        assert str(info.value) == "left identity law fails at 'b'"

    def test_well_formed_tables_pass(self):
        category_from_keys(**arrow_category())
        category_from_keys(**magma_category(Z3_PRODUCTS, reverse=True))


class TestFiniteCategoryOnIds:
    """FiniteCategory takes tables on ids, refuses malformed ones, and keeps keys as labels."""

    @pytest.mark.parametrize(
        "changes",
        [
            dict(rows=((0, 1), (1,))),  # a short row
            dict(rows=((0, 1), (1, 2))),  # an arrow id out of range
            dict(rows=((0, 1), (1, -1))),
            dict(rows=((0, 1), (1, True))),  # a boolean is no id
            dict(rows=((0, 1),)),  # a row missing
            dict(s=(0, 1)),
            dict(t=(0, -1)),
            dict(ident=(2,)),
            dict(ident=()),
            dict(out=((1, 0),)),
            dict(pos=(0, 0)),
        ],
    )
    def test_malformed_tables_are_refused(self, changes):
        z2 = MONOIDS["z2"].category
        with pytest.raises(MalformedTables):
            FiniteCategory(z2.objects, z2.arrows, dataclasses.replace(z2.tables, **changes))

    def test_law_failures_are_named_by_key(self):
        tables = dataclasses.replace(MONOIDS["z2"].category.tables, ident=(1,))
        with pytest.raises(MalformedTables, match=r"^left identity law fails at '1'$"):
            FiniteCategory(("x",), ("1", "a"), tables)

    def test_keyed_views_round_trip_through_from_keys(self):
        categories = [monoid.category for monoid in MONOIDS.values()]
        categories += [external_category(pair_groupoid(2).cat, FinSet(2)), loops_and_bridges_category()]
        for fc in categories:
            views = KeyedViews(fc)
            again = category_from_keys(fc.objects, fc.arrows, views.src, views.dst, views.ident, fc.comp)
            assert (again.objects, again.arrows, again.tables) == (fc.objects, fc.arrows, fc.tables)
            assert len(fc.comp) == sum(map(len, fc.tables.rows))
            for x in fc.objects:
                for y in fc.objects:
                    expected = tuple(a for a in fc.arrows if (views.src[a], views.dst[a]) == (x, y))
                    assert views.hom(x, y) == expected
            assert views.hom("no such object", fc.objects[0]) == ()


def loops_and_bridges_category() -> FiniteCategory:
    """loops_and_bridges as a FiniteCategory on its own tables, labelled by letters."""
    cat = loops_and_bridges().tables
    return FiniteCategory(("X", "Y"), ("1X", "e", "1Y", "s", "p", "q"), cat)


def associativity_by_replay(fields):
    """Replay every keyed triple, the pairs row by row in the order arrows are listed.

    The oracle for the first witness, whatever the order of comp.
    """
    comp, dst, by_src = fields["comp"], fields["dst"], {x: [] for x in fields["objects"]}
    for a in fields["arrows"]:
        by_src[fields["src"][a]].append(a)
    for f in fields["arrows"]:
        for g in by_src[dst[f]]:
            for h in by_src[dst[g]]:
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    return f"associativity fails at ({f!r}, {g!r}, {h!r})"
    return None


def loops_and_bridges_mutants():
    """loops_and_bridges as FiniteCategory fields, with one composite of non-identities moved.

    The new composite keeps its endpoints, so the identity laws still hold.
    """
    ic = loops_and_bridges()
    d, c, eta = ic.d.table, ic.c.table, ic.eta.table
    arrows = tuple(range(ic.m.size))
    comp = {(a, b): then_by_index(ic, a, b) for a, b in pairs(ic.composable)}
    base = dict(
        objects=tuple(range(ic.o.size)), arrows=arrows, src=dict(enumerate(d)),
        dst=dict(enumerate(c)), ident=dict(enumerate(eta)), comp=comp,
    )
    for (a, b), ab in comp.items():
        if a in eta or b in eta:
            continue
        for h in arrows:
            if h != ab and d[h] == d[ab] and c[h] == c[ab]:
                yield dict(base, comp={**comp, (a, b): h})


class TestFiniteCategoryAssociativityWitness:
    """The one associativity pass names the triple the keyed replay finds first."""

    @staticmethod
    def assert_matches_replay(fields):
        expected = associativity_by_replay(fields)
        try:
            category_from_keys(**fields)
        except MalformedTables as exc:
            assert str(exc) == expected
            return expected
        assert expected is None
        return expected

    def test_shuffled_magmas(self):
        rng = random.Random(2112)
        arrows = ("1", "a", "b", "c")
        seen = set()
        for _ in range(300):
            group = MONOIDS[rng.choice(("z4", "klein4"))]  # unit 0, relabelled as "1"
            labelled = enumerate(arrows)
            products = {(f, g): arrows[group.mult(i, j)] for (i, f), (j, g) in itertools.product(labelled, repeat=2)}
            for _ in range(rng.randrange(3)):
                products[(rng.choice(arrows[1:]), rng.choice(arrows[1:]))] = rng.choice(arrows)
            pairs = [(f, g) for f in arrows for g in arrows]
            rng.shuffle(pairs)
            comp = {(f, g): products.get((f, g), g if f == "1" else f) for f, g in pairs}
            loop = {a: "x" for a in arrows}
            fields = dict(objects=("x",), arrows=arrows, src=loop, dst=loop, ident={"x": "1"}, comp=comp)
            seen.add(self.assert_matches_replay(fields) is None)
        assert seen == {True, False}

    def test_shuffled_two_object_mutants(self):
        rng = random.Random(873)
        mutants = list(loops_and_bridges_mutants())
        assert mutants
        failing = 0
        for fields in mutants:
            for _ in range(5):
                items = list(fields["comp"].items())
                rng.shuffle(items)
                failing += self.assert_matches_replay(dict(fields, comp=dict(items))) is not None
        assert failing > 0
