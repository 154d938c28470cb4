import gc
import itertools
import pickle
import random
import re
import tracemalloc

import pytest

from spanforge import (
    BaseMismatch,
    FinMap,
    FinSet,
    InternalGroupoid,
    KeyScheduleMismatch,
    MalformedTables,
    NotAGroup,
    SliceObject,
    TwoCell,
    all_maps,
    compose,
    conv_element,
    conv_fibre,
    conv_mult,
    conv_unit,
    coreflect,
    extend,
    feistel_network,
    feistel_walk,
    identity,
    is_bijection,
    is_simply_presented,
    kleisli_compose,
    kleisli_endo,
    kleisli_fibre,
    kleisli_inverse,
    kleisli_unit,
    module_endomorphism,
    retrieve,
    tensor,
    toffoli_extend,
    verify_adjunction,
)
from spanforge.catalog import (
    CATALOG,
    MONOIDS,
    MonoidTable,
    monoid_from_flat,
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
    xor_group,
)
from spanforge import feistel
from spanforge.feistel import ModulePlan, end_square_holds, free_module, module_plan, slice_cells
from spanforge.finset import CACHE_SIZE
from spanforge.internal import check_internal_category, eta_cell
from spanforge.span import compose_cells, identity_cell

from keyed import feistel_by_loops, square_holds
from suites import (
    conv_external_agreement,
    coreflection_suite,
    equal_components_suite,
    feistel_schedules,
    homomorphism_suite,
    inversion_suite,
    point_base,
    slice_objects,
    symmetric_group_3,
)
from util import (
    all_cells, conv_mult_by_cells, extend_by_cells, kleisli_compose_by_cells, loops_and_bridges, pairs,
    single_entry_mutants,
)

Z2 = one_object_category(MONOIDS["z2"])
AND2 = one_object_category(MONOIDS["and2"])


def conv_from_table(fa, ic, table):
    return conv_element(fa, ic, FinMap(fa.a, ic.m, tuple(table)))


def assert_kernels_match(fa, ic, with_all_endos):
    """conv_mult, extend and kleisli_compose equal their cell references over fa.

    Products run over every fibre pair, Kleisli composites over the extended
    pairs and, when asked, over every pair of endomorphisms.  Returns the
    number of fibre pairs.
    """
    fibre = conv_fibre(fa, ic)
    extended = [extend(e) for e in fibre]
    for e, hat in zip(fibre, extended):
        assert hat.cell.map.table == extend_by_cells(e)
    for s, s_hat in zip(fibre, extended):
        for t, t_hat in zip(fibre, extended):
            assert conv_mult(s, t).map.table == conv_mult_by_cells(s, t)
            assert kleisli_compose(s_hat, t_hat).cell.map.table == kleisli_compose_by_cells(s_hat, t_hat)
    if with_all_endos:
        endos = kleisli_fibre(fa, ic)
        for x in endos:
            for y in endos:
                assert kleisli_compose(x, y).cell.map.table == kleisli_compose_by_cells(x, y)
    return len(fibre) ** 2


def test_every_lister_of_cells_is_a_filter_of_all_maps():
    """conv_fibre, kleisli_fibre and slice_cells list, in order, the maps into the target apex that keep both legs."""
    for ic in [*(entry.category for entry in CATALOG.values()), loops_and_bridges()]:
        objects = [fa for size in range(3) for fa in slice_objects(ic, size)]
        for fa in objects:
            fm = module_plan(fa, ic).fm.span
            assert [e.table for e in conv_fibre(fa, ic)] == [c.map.table for c in all_cells(fa.span, ic.mor_span)]
            assert [e.table for e in kleisli_fibre(fa, ic)] == [c.map.table for c in all_cells(fa.span, fm)]
            for gb in objects:
                assert slice_cells(fa, gb) == [c.map.table for c in all_cells(fa.span, gb.span)]


def test_the_square_is_the_pairwise_oracle():
    """end_square_holds, one comparison of pushed tables, agrees with the square tested generator by generator.

    Over every pair of endomorphisms, simply presented or not, and every pair of maps between their
    bases: the slice cells, and the maps that push a generator onto a pair that is no generator.
    """
    off_the_module = 0
    for ic in [*(entry.category for entry in CATALOG.values()), loops_and_bridges()]:
        objects = [fa for size in range(3) for fa in slice_objects(ic, size)]
        for fa in objects:
            for gb in objects:
                maps = list(all_maps(fa.a, gb.a))
                for u in kleisli_fibre(fa, ic):
                    for v in kleisli_fibre(gb, ic):
                        for sigma in maps:
                            for tau in maps:
                                expected = square_holds(u.plan, v.plan, u.table, v.table, sigma.table, tau.table)
                                assert end_square_holds(u, v, sigma, tau) == expected
                            off_the_module += None in u.plan.push(v.plan, u.table, sigma.table)
    assert off_the_module > 0


class TestConvUnit:
    def test_z2_unit_is_constant_zero(self):
        fa = point_base(Z2, 2)
        assert conv_unit(fa, Z2).map.table == (0, 0)

    def test_pair_groupoid_unit_is_identity_family(self):
        ic = pair_groupoid(2).cat
        a = FinSet(2)
        fa = SliceObject(a, FinMap(a, ic.o, (0, 1)))
        unit = conv_unit(fa, ic)
        # oracle: evaluate eta after f pointwise
        assert unit.map.table == tuple(ic.eta.table[fa.f.table[x]] for x in range(2))

    def test_unit_matches_cell_calculus(self):
        # the library reads the unit as a table; the cell eta after f is its specification
        for entry in CATALOG.values():
            ic = entry.category
            for a_size in range(3):
                for fa in slice_objects(ic, a_size):
                    cell = compose_cells(eta_cell(ic), TwoCell(fa.span, ic.unit_span, fa.f))
                    assert conv_unit(fa, ic).cell == cell

    def test_unit_law_exhaustive(self):
        for name in ("z2", "z3", "and2", "leftzero3"):
            ic = one_object_category(MONOIDS[name])
            fa = point_base(ic, 2)
            unit = conv_unit(fa, ic)
            for alpha in conv_fibre(fa, ic):
                assert conv_mult(unit, alpha).map == alpha.map
                assert conv_mult(alpha, unit).map == alpha.map

    def test_base_mismatch(self):
        fa = point_base(Z2, 1)
        pair = pair_groupoid(2).cat
        with pytest.raises(BaseMismatch):
            conv_unit(SliceObject(fa.a, FinMap(fa.a, pair.o, (0,))), Z2)


class TestConvMult:
    def test_z2_pointwise_addition(self):
        fa = point_base(Z2, 2)
        s = conv_from_table(fa, Z2, (0, 1))
        t = conv_from_table(fa, Z2, (1, 1))
        assert conv_mult(s, t).map.table == (1, 0)

    def test_matches_pointwise_oracle(self):
        for name, monoid in MONOIDS.items():
            ic = one_object_category(monoid)
            fa = point_base(ic, 2)
            fibre = conv_fibre(fa, ic)
            for s in fibre:
                for t in fibre:
                    expected = tuple(
                        monoid.mult(a, b) for a, b in zip(s.map.table, t.map.table)
                    )
                    assert conv_mult(s, t).map.table == expected

    def test_associative(self):
        ic = one_object_category(MONOIDS["leftzero3"])
        fa = point_base(ic, 1)
        fibre = conv_fibre(fa, ic)
        for x in fibre:
            for y in fibre:
                for z in fibre:
                    assert (
                        conv_mult(conv_mult(x, y), z).map
                        == conv_mult(x, conv_mult(y, z)).map
                    )

    def test_agrees_with_map_category_composition(self):
        assert conv_external_agreement(CATALOG.values(), max_a=2) > 0


class TestKleisli:
    def test_unit_laws(self):
        fa = point_base(Z2, 2)
        unit = kleisli_unit(fa, Z2)
        for endo in kleisli_fibre(fa, Z2):
            assert kleisli_compose(endo, unit).cell.map == endo.cell.map
            assert kleisli_compose(unit, endo).cell.map == endo.cell.map

    def test_associativity_exhaustive_small(self):
        fa = point_base(Z2, 2)
        endos = kleisli_fibre(fa, Z2)
        for x in endos:
            for y in endos:
                for z in endos:
                    assert (
                        kleisli_compose(kleisli_compose(x, y), z).cell.map
                        == kleisli_compose(x, kleisli_compose(y, z)).cell.map
                    )

    def test_associativity_sampled_larger(self):
        ic = one_object_category(MONOIDS["z3"])
        fa = point_base(ic, 3)
        endos = kleisli_fibre(fa, ic)
        rng = random.Random(7)
        for _ in range(150):
            x, y, z = (rng.choice(endos) for _ in range(3))
            assert (
                kleisli_compose(kleisli_compose(x, y), z).cell.map
                == kleisli_compose(x, kleisli_compose(y, z)).cell.map
            )

    def test_composing_two_controlled_nots_is_identity(self):
        fa = point_base(Z2, 2)
        cnot = extend(conv_from_table(fa, Z2, (0, 1)))
        twice = kleisli_compose(cnot, cnot)
        assert twice.cell.map == kleisli_unit(fa, Z2).cell.map
        # permutation oracle on the module carrier
        perm = module_endomorphism(cnot)
        assert compose(perm, perm) == identity(perm.dom)

    def test_kernels_match_cell_calculus(self):
        # the criterion-1 sweep: every fibre pair, 7 monoids, |X| <= 3
        swept = 0
        for monoid in MONOIDS.values():
            ic = one_object_category(monoid)
            for x_size in range(4):
                swept += assert_kernels_match(point_base(ic, x_size), ic, with_all_endos=False)
        assert swept == 10_552
        # pair groupoids: the composable pairs are not the full product of arrows
        for n in (2, 3):
            ic = pair_groupoid(n).cat
            for a_size in range(3):
                for fa in slice_objects(ic, a_size):
                    assert_kernels_match(fa, ic, with_all_endos=True)

    def test_kernels_match_cell_calculus_with_real_loops(self):
        # two objects, an idempotent, an involution and two parallel arrows:
        # some pairs of arrows do not compose and the fibres have several elements
        ic = loops_and_bridges()
        assert check_internal_category(ic).passed
        assert sum(map(len, ic.tables.rows)) < ic.m.size**2
        swept = 0
        for a_size in range(3):
            for fa in slice_objects(ic, a_size):
                swept += assert_kernels_match(fa, ic, with_all_endos=True)
        assert swept == 1 + 2 * 2**2 + 4 * 4**2  # |A| = 0, 1, 2

    def test_module_endomorphism_turns_kleisli_into_composition(self):
        swept = 0
        for ic in [entry.category for entry in CATALOG.values()] + [loops_and_bridges()]:
            for a_size in range(3):
                for fa in slice_objects(ic, a_size):
                    endos = kleisli_fibre(fa, ic)
                    maps = [module_endomorphism(x) for x in endos]
                    for x, x_map in zip(endos, maps):
                        for y, y_map in zip(endos, maps):
                            assert module_endomorphism(kleisli_compose(x, y)) == compose(x_map, y_map)
                    swept += len(endos) ** 2
        assert swept == 5299  # klein4 with |A| = 2 alone gives 64^2 pairs


class TestModulePlan:
    """Every element carries the plan of its monoid; products read it and look nothing up."""

    def test_products_on_ready_elements_look_up_no_plan(self, monkeypatch):
        ic = one_object_category(MONOIDS["leftzero3"])
        fa = point_base(ic, 2)
        fibre = conv_fibre(fa, ic)
        extended = [extend(e) for e in fibre]
        lookups = []

        def counted(base, target):
            lookups.append((base, target))
            return module_plan(base, target)

        monkeypatch.setattr(feistel, "module_plan", counted)
        for s, s_hat in zip(fibre, extended):
            for t, t_hat in zip(fibre, extended):
                conv_mult(s, t)
                kleisli_compose(s_hat, t_hat)
            extend(s)
            retrieve(s_hat)
        assert lookups == []

    def test_plans_rebuilt_after_eviction_are_equal(self):
        ic = one_object_category(MONOIDS["z3"])
        alpha = conv_from_table(point_base(ic, 2), ic, (1, 2))
        module_plan.cache_clear()
        beta = conv_from_table(point_base(ic, 2), ic, (2, 2))
        assert alpha.plan is not beta.plan
        assert alpha.plan == beta.plan and hash(alpha.plan) == hash(beta.plan)
        assert conv_mult(alpha, beta).map.table == conv_mult_by_cells(alpha, beta)
        a_hat, b_hat = extend(alpha), extend(beta)
        assert kleisli_compose(b_hat, a_hat).cell.map.table == kleisli_compose_by_cells(b_hat, a_hat)

    def test_pickled_element_multiplies_with_the_original(self):
        ic = one_object_category(MONOIDS["z3"])
        alpha = conv_from_table(point_base(ic, 2), ic, (1, 2))
        copy = pickle.loads(pickle.dumps(alpha))
        assert copy == alpha and copy.plan is not alpha.plan
        assert conv_mult(copy, alpha).map.table == conv_mult_by_cells(alpha, alpha)

    def test_pickle_leaves_the_memos_out(self):
        ic = one_object_category(MONOIDS["klein4"])
        fa = point_base(ic, 3)
        module_plan.cache_clear()
        alpha = conv_unit(fa, ic)
        size = len(pickle.dumps(alpha))
        fibre = conv_fibre(fa, ic)
        assert fibre[0].plan is alpha.plan
        for s in fibre:
            for t in fibre:
                extend(conv_mult(s, t))
        assert len(alpha.plan.convs) == 64 and len(alpha.plan.endos) == 64
        assert len(pickle.dumps(alpha)) == size
        copy = pickle.loads(pickle.dumps(alpha))
        assert copy.plan.convs == {} and copy.plan.endos == {}

    def test_pickled_plan_keeps_its_rows_and_columns(self):
        ic = loops_and_bridges()
        a = FinSet(2)
        fa = SliceObject(a, FinMap(a, ic.o, (0, 1)))
        fibre = conv_fibre(fa, ic)
        plan = fibre[0].plan
        extend(conv_mult(fibre[0], fibre[-1]))  # fills both memos, which the copy leaves out
        copies = pickle.loads(pickle.dumps(fibre))
        copy = copies[0].plan
        assert copy is not plan and all(e.plan is copy for e in copies)
        assert copy.convs == {} and copy.endos == {}
        for name in ("rows", "pos", "start", "carrier", "arrow", "lead", "steps"):
            assert getattr(copy, name) == getattr(plan, name)
        assert copy.arrow == plan.fm.proj_right.table
        assert copy.lead == tuple(plan.start[x] for x in plan.carrier) and copy.steps == ic.steps
        for s, s_copy in zip(fibre, copies):
            assert extend(s_copy).cell == extend(s).cell
            for t, t_copy in zip(fibre, copies):
                assert conv_mult(s_copy, t_copy).cell == conv_mult(s, t).cell
                product = kleisli_compose(extend(s_copy), extend(t_copy))
                assert product.cell == kleisli_compose(extend(s), extend(t)).cell

    def test_criterion_1_sweep_builds_each_element_once(self, monkeypatch):
        ics = [one_object_category(monoid) for monoid in MONOIDS.values()]
        module_plan.cache_clear()
        built = []
        check = TwoCell.__post_init__

        def counted(cell):
            built.append(cell)
            check(cell)

        monkeypatch.setattr(TwoCell, "__post_init__", counted)
        first = {}

        def same(obj):
            """Each (plan, kind, table) comes back as one object."""
            key = (id(obj.plan), type(obj), obj.cell.map.table)
            assert first.setdefault(key, obj) is obj
            return obj

        for ic in ics:
            for x_size in range(4):
                fa = point_base(ic, x_size)
                same(extend(same(conv_unit(fa, ic))))
                same(kleisli_unit(fa, ic))
                fibre = [same(e) for e in conv_fibre(fa, ic)]
                extended = [same(extend(e)) for e in fibre]
                for s, s_hat in zip(fibre, extended):
                    for t, t_hat in zip(fibre, extended):
                        same(extend(same(conv_mult(s, t))))
                        same(kleisli_compose(t_hat, s_hat))
        assert len(built) == len(first)

    @pytest.mark.parametrize(
        "kernel, bad, message",
        [
            # conv_mult runs its kernel inline: these replace the rows it reads at the unit's arrows e,
            # so the unit times itself reads (4, e[1]) and then e reversed
            ("conv", lambda rows, e: {e[0]: (4,) * len(rows[e[0]])}, "^entry 4 at index 0 not below 4$"),
            (
                "conv",
                lambda rows, e: {e[0]: (e[1],) * len(rows[e[0]]), e[1]: (e[0],) * len(rows[e[1]])},
                "^left triangle does not commute$",
            ),
            ("compose", lambda beta, alpha: (4,) + alpha[1:], "^entry 4 at index 0 not below 4$"),
            ("compose", lambda beta, alpha: alpha[::-1], "^left triangle does not commute$"),
        ],
    )
    def test_malformed_kernel_tables_are_refused_every_time(self, monkeypatch, kernel, bad, message):
        ic = pair_groupoid(2).cat
        a = FinSet(2)
        unit = conv_unit(SliceObject(a, FinMap(a, ic.o, (0, 1))), ic)
        plan = unit.plan
        factor = unit if kernel == "conv" else extend(unit)
        product = conv_mult if kernel == "conv" else kleisli_compose
        memos = dict(plan.convs), dict(plan.endos)
        if kernel == "conv":
            patch = bad(plan.rows, unit.table)
            monkeypatch.setitem(vars(plan), "rows", tuple(patch.get(m, row) for m, row in enumerate(plan.rows)))
        else:
            monkeypatch.setattr(ModulePlan, kernel, lambda self, x, y: bad(x, y))
        for _ in range(2):
            with pytest.raises(MalformedTables, match=message):
                product(factor, factor)
        assert (plan.convs, plan.endos) == memos

    def test_mixed_factors_raise_base_mismatch(self):
        # one target over two bases, and one base under two targets
        pairs = (
            (conv_unit(point_base(Z2, 1), Z2), conv_unit(point_base(Z2, 2), Z2)),
            (conv_unit(point_base(AND2, 1), AND2), conv_unit(point_base(Z2, 1), Z2)),
        )
        for alpha, beta in pairs:
            with pytest.raises(BaseMismatch, match="^convolution factors must share base and target$"):
                conv_mult(alpha, beta)
            with pytest.raises(BaseMismatch, match="^Kleisli factors must share base and target$"):
                kleisli_compose(extend(alpha), extend(beta))

    def test_element_over_another_base_is_refused_once(self):
        pair = pair_groupoid(2).cat
        a = FinSet(1)
        fa = SliceObject(a, FinMap(a, pair.o, (1,)))
        message = "^slice object and internal category live over different bases$"
        with pytest.raises(BaseMismatch, match=message):
            conv_element(fa, Z2, FinMap(a, Z2.m, (0,)))
        with pytest.raises(BaseMismatch, match=message):
            kleisli_endo(fa, Z2, FinMap(a, FinSet(2), (0,)))


class TestExtensionLink:
    """extend is computed once per element and kept on it; nothing else sets it."""

    def test_extension_is_computed_once_and_matches_the_cells(self, monkeypatch):
        module_plan.cache_clear()
        kernel, calls = ModulePlan.extend, []

        def counted(plan, table):
            calls.append(table)
            return kernel(plan, table)

        monkeypatch.setattr(ModulePlan, "extend", counted)
        elements = 0
        for entry in CATALOG.values():
            ic = entry.category
            for a_size in range(3):
                for fa in slice_objects(ic, a_size):
                    for alpha in conv_fibre(fa, ic):
                        assert alpha._extension is None
                        hat = extend(alpha)
                        assert extend(alpha) is hat and alpha._extension is hat
                        assert hat.table == hat.cell.map.table == extend_by_cells(alpha)
                        assert alpha.table == alpha.cell.map.table
                        elements += 1
        assert len(calls) == elements

    def test_neither_extend_nor_retrieve_links_what_it_returns(self):
        ic = one_object_category(MONOIDS["z3"])
        module_plan.cache_clear()
        for endo in kleisli_fibre(point_base(ic, 2), ic):
            assert retrieve(endo)._extension is None
        hat = extend(conv_unit(point_base(ic, 2), ic))
        assert set(vars(hat)) == {"plan", "cell", "table"}

    def test_link_leaves_equality_hashing_and_pickles_alone(self):
        ic = one_object_category(MONOIDS["z3"])
        module_plan.cache_clear()
        alpha = conv_from_table(point_base(ic, 2), ic, (1, 2))
        key, size = hash(alpha), len(pickle.dumps(alpha))
        hat = extend(alpha)
        copy = pickle.loads(pickle.dumps(alpha))
        assert hash(alpha) == key and len(pickle.dumps(alpha)) == size
        assert copy == alpha and copy._extension is None and copy.table == alpha.table
        assert extend(copy).cell == hat.cell and copy._extension is not None

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda table: (4,) + table[1:], "^entry 4 at index 0 not below 4$"),
            (lambda table: table[::-1], "^left triangle does not commute$"),
        ],
    )
    def test_malformed_extend_kernel_is_refused_every_time(self, monkeypatch, bad, message):
        ic = pair_groupoid(2).cat
        a = FinSet(2)
        module_plan.cache_clear()
        alpha = conv_unit(SliceObject(a, FinMap(a, ic.o, (0, 1))), ic)
        plan = alpha.plan
        memos = dict(plan.convs), dict(plan.endos)
        monkeypatch.setattr(ModulePlan, "extend", lambda self, table: bad(table))
        for _ in range(2):
            with pytest.raises(MalformedTables, match=message):
                extend(alpha)
        assert alpha._extension is None and (plan.convs, plan.endos) == memos
        monkeypatch.undo()
        assert extend(alpha).table == extend_by_cells(alpha)

    def test_links_on_a_full_plan_stay_within_a_fixed_memory_bound(self):
        # worst case: the endomorphism memo is full before any element is
        # extended, so every link holds an endomorphism no memo holds
        ic = one_object_category(MONOIDS["z3"])
        fa = point_base(ic, 6)
        ic.tables, ic.mor_span  # built before tracing: the category outlives the plan
        module_plan.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            plan = module_plan(fa, ic)
            fibre = conv_fibre(fa, ic)
            apex = plan.fm.span.apex.size
            for table in itertools.islice(itertools.product(range(apex), repeat=6), CACHE_SIZE):
                kleisli_endo(fa, ic, FinMap(fa.a, plan.fm.span.apex, table))
            gc.collect()
            unlinked = tracemalloc.get_traced_memory()[0]
            hats = [extend(alpha) for alpha in plan.convs.values()]
            gc.collect()
            linked = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(fibre) == 729 and len(plan.convs) == len(plan.endos) == CACHE_SIZE
        held = {id(h) for h in hats} - {id(e) for e in plan.endos.values()}
        assert len(held) == CACHE_SIZE  # one endomorphism per memoised element, no more
        assert all(extend(alpha) is hat for alpha, hat in zip(plan.convs.values(), hats))
        # measured 0.51 MB unlinked and 0.69 MB linked (CPython 3.11.7)
        assert linked - unlinked < 0.3 * 2**20
        assert linked < 0.85 * 2**20


class TestExtendRetrieve:
    def test_cnot_table(self):
        fa = point_base(Z2, 2)
        image = extend(conv_from_table(fa, Z2, (0, 1)))
        perm = module_endomorphism(image)
        pb = tensor(fa.span, Z2.mor_span).pb
        # oracle: (x, y) -> (x, x xor y) evaluated through the formula
        for i, (x, y) in enumerate(pairs(pb)):
            assert pairs(pb)[perm(i)] == (x, (0, 1)[x] ^ y)

    def test_extend_preserves_unit(self):
        for monoid in MONOIDS.values():
            ic = one_object_category(monoid)
            fa = point_base(ic, 2)
            assert extend(conv_unit(fa, ic)).cell.map == kleisli_unit(fa, ic).cell.map

    def test_homomorphism_small(self):
        assert homomorphism_suite([MONOIDS["z2"], MONOIDS["leftzero3"]], max_x=2) > 0

    def test_homomorphism_over_two_object_bases(self):
        # same law with a nontrivial objects object: every slice map counts
        for name in ("discrete2", "pair2", "action2"):
            ic = CATALOG[name].category
            for a_size in range(4):
                a = FinSet(a_size)
                for f in all_maps(a, ic.o):
                    fa = SliceObject(a, f)
                    unit = conv_unit(fa, ic)
                    assert extend(unit).cell.map == kleisli_unit(fa, ic).cell.map
                    fibre = conv_fibre(fa, ic)
                    for s in fibre:
                        for t in fibre:
                            lhs = extend(conv_mult(s, t))
                            rhs = kleisli_compose(extend(s), extend(t))
                            assert lhs.cell.map == rhs.cell.map

    def test_retrieve_inverts_extend(self):
        assert inversion_suite([MONOIDS["z2"], MONOIDS["and2"]], max_x=2)[0] > 0

    def test_retrieve_of_unit(self):
        fa = point_base(Z2, 2)
        assert retrieve(kleisli_unit(fa, Z2)).map == conv_unit(fa, Z2).map

    def test_non_fixed_witness_at_two_by_two(self):
        fa = point_base(Z2, 2)
        apex = free_module(fa, Z2).span.apex
        pb = tensor(fa.span, Z2.mor_span).pb
        swap_idx = {pair: i for i, pair in enumerate(pairs(pb))}
        # carrier-swapping endomorphism: a -> (1 - a, 0)
        table = (swap_idx[(1, 0)], swap_idx[(0, 0)])
        endo = kleisli_endo(fa, Z2, FinMap(fa.a, apex, table))
        assert not is_simply_presented(endo)
        assert extend(retrieve(endo)).cell.map != endo.cell.map

    def test_simply_presented_three_way_agreement(self):
        fa = point_base(Z2, 2)
        image_maps = {extend(e).cell.map for e in conv_fibre(fa, Z2)}
        for endo in kleisli_fibre(fa, Z2):
            by_component = endo.prime == identity(fa.a)
            by_roundtrip = extend(retrieve(endo)).cell.map == endo.cell.map
            by_image = endo.cell.map in image_maps
            assert by_component == by_roundtrip == by_image
            assert is_simply_presented(endo) == by_component


class TestCoreflect:
    def test_simply_presented_is_fixed_with_identity_counit(self):
        fa = point_base(Z2, 2)
        for elem in conv_fibre(fa, Z2):
            sp = extend(elem)
            nearest, counit_second = coreflect(sp)
            assert nearest.cell.map == sp.cell.map
            assert counit_second == identity(fa.a)

    def test_universal_property_small(self):
        assert coreflection_suite([MONOIDS["z2"], MONOIDS["and2"]], max_a=2, max_b=2) > 0

    def test_equal_components_small(self):
        assert equal_components_suite([MONOIDS["z2"], MONOIDS["and2"]], max_a=2, max_b=2) > 0


class TestKleisliInverse:
    def test_group_inverse_matches_inversion_formula(self):
        groupoid = one_object_groupoid(MONOIDS["z3"])
        ic = groupoid.cat
        fa = point_base(ic, 2)
        for alpha in conv_fibre(fa, ic):
            found = kleisli_inverse(extend(alpha))
            formula = extend(conv_element(fa, ic, compose(groupoid.iota, alpha.map)))
            assert found is not None
            assert found.cell.map == formula.cell.map

    def test_meet_semilattice_has_non_invertible_extension(self):
        fa = point_base(AND2, 1)
        absorbing = extend(conv_from_table(fa, AND2, (0,)))
        assert kleisli_inverse(absorbing) is None

    def test_group_inverse_matches_formula_on_66_generator_pairs(self):
        groupoid = one_object_groupoid(MONOIDS["z3"])
        ic = groupoid.cat
        fa = point_base(ic, 22)
        alpha = conv_from_table(fa, ic, [a % 3 for a in range(22)])
        found = kleisli_inverse(extend(alpha))
        formula = extend(conv_element(fa, ic, compose(groupoid.iota, alpha.map)))
        assert found is not None
        assert found.cell.map == formula.cell.map

    def test_unit_inverts_itself_on_66_generator_pairs(self):
        fa = point_base(Z2, 33)
        unit = kleisli_unit(fa, Z2)
        found = kleisli_inverse(unit)
        assert found is not None
        assert found.cell.map == unit.cell.map

    def test_matches_exhaustive_search_on_every_endomorphism(self):
        """The construction finds exactly the inverse a search of the whole fibre finds."""
        categories = [one_object_category(m) for m in MONOIDS.values()]
        categories += [CATALOG[name].category for name in ("discrete2", "pair2", "action2")]
        categories.append(pair_groupoid(3).cat)
        compared = invertible = 0
        for ic in categories:
            for x_size in range(3):
                for fa in slice_objects(ic, x_size):
                    unit = kleisli_unit(fa, ic).cell.map
                    fibre = kleisli_fibre(fa, ic)
                    for endo in fibre:
                        searched = [
                            cand.cell.map
                            for cand in fibre
                            if kleisli_compose(cand, endo).cell.map == unit
                            and kleisli_compose(endo, cand).cell.map == unit
                        ]
                        found = kleisli_inverse(endo)
                        assert len(searched) <= 1
                        assert ([found.cell.map] if found else []) == searched
                        compared += 1
                        invertible += found is not None
        assert (compared, invertible) == (323, 162)

    def test_inverse_composes_to_the_unit_over_mutants(self):
        """Over categories that fail their laws too, each inverse found composes to the unit both ways."""
        endos = inverses = 0
        for ic in (pair_groupoid(2).cat, loops_and_bridges()):
            for _, build in single_entry_mutants(ic):
                try:
                    mutant = build()
                    fibres = [kleisli_fibre(fa, mutant) for x in range(3) for fa in slice_objects(mutant, x)]
                except MalformedTables:
                    continue
                eta = mutant.eta.table
                for fibre in fibres:
                    for endo in fibre:
                        plan, found = endo.plan, kleisli_inverse(endo)
                        endos += 1
                        if found is None:
                            continue
                        inverses += 1
                        unit = tuple(plan.start[a] + plan.pos[eta[o]] for a, o in enumerate(plan.base.f.table))
                        assert plan.compose(found.table, endo.table) == unit
                        assert plan.compose(endo.table, found.table) == unit
        assert (endos, inverses) == (4576, 1695)


class TestToffoli:
    def test_and_gate_gives_classical_table(self):
        perm = toffoli_extend(2, 1, (0, 0, 0, 1))
        assert perm == (0, 1, 2, 3, 4, 5, 7, 6)

    def test_constant_zero_gives_identity(self):
        assert toffoli_extend(2, 2, (0, 0, 0, 0)) == tuple(range(16))

    def test_retrieval_for_random_tables(self):
        rng = random.Random(1234)
        for _ in range(50):
            table = [rng.randrange(8) for _ in range(8)]
            perm = toffoli_extend(3, 3, table)
            for x in range(8):
                assert perm[x << 3] & 0b111 == table[x]

    def test_involution_over_xor(self):
        rng = random.Random(99)
        table = [rng.randrange(4) for _ in range(8)]
        perm = toffoli_extend(3, 2, table)
        assert tuple(perm[perm[s]] for s in range(len(perm))) == tuple(range(len(perm)))

    def test_specializes_extend_on_xor_group(self):
        bits_m, bits_n = 2, 1
        group = xor_group(bits_n)
        ic = one_object_category(group)
        fa = point_base(ic, 1 << bits_m)
        rng = random.Random(5)
        for _ in range(10):
            table = [rng.randrange(1 << bits_n) for _ in range(1 << bits_m)]
            direct = toffoli_extend(bits_m, bits_n, table)
            perm = module_endomorphism(extend(conv_from_table(fa, ic, table)))
            pb = tensor(fa.span, ic.mor_span).pb
            encoded = {}
            for i, (x, y) in enumerate(pairs(pb)):
                encoded[i] = (x << bits_n) | y
            assert all(encoded[perm(i)] == direct[encoded[i]] for i in range(len(pairs(pb))))

    def test_malformed_tables_rejected(self):
        with pytest.raises(MalformedTables):
            toffoli_extend(2, 1, (0, 0, 0))
        with pytest.raises(MalformedTables):
            toffoli_extend(1, 1, (0, 2))


class TestFeistelNetwork:
    def test_zero_rounds_is_identity(self):
        group = xor_group(2)
        perm, inverse = feistel_network(group, 0, [])
        assert perm == tuple(range(16))
        assert inverse == tuple(range(16))

    def test_roundtrip_all_states(self):
        group = xor_group(2)
        rng = random.Random(42)
        fns = [[rng.randrange(4) for _ in range(4)] for _ in range(3)]
        perm, inverse = feistel_network(group, 3, fns)
        assert is_bijection(FinMap(FinSet(16), FinSet(16), perm))
        for s in range(16):
            assert inverse[perm[s]] == s
            assert perm[inverse[s]] == s

    def test_nonabelian_group_roundtrip(self):
        s3 = symmetric_group_3()
        assert s3.is_group() and not all(
            s3.mult(a, b) == s3.mult(b, a) for a in range(6) for b in range(6)
        )
        rng = random.Random(3)
        fns = [[rng.randrange(6) for _ in range(6)] for _ in range(4)]
        perm, inverse = feistel_network(s3, 4, fns)
        for s in range(36):
            assert inverse[perm[s]] == s
        # one round is (l, r) -> (f(l) then r, l), in that order in a nonabelian group
        one_round, _ = feistel_network(s3, 1, fns[:1])
        assert one_round == tuple(s3.mult(fns[0][l], r) * 6 + l for l in range(6) for r in range(6))

    def test_round_extensions_are_bijections(self):
        group = xor_group(2)
        ic = one_object_category(group)
        fa = point_base(ic, group.size)
        rng = random.Random(8)
        for _ in range(5):
            table = [rng.randrange(4) for _ in range(4)]
            perm = module_endomorphism(extend(conv_from_table(fa, ic, table)))
            assert is_bijection(perm)

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            feistel_network(MONOIDS["and2"], 1, [[0, 0]])

    def test_key_schedule_mismatch(self):
        with pytest.raises(KeyScheduleMismatch):
            feistel_network(xor_group(1), 2, [[0, 1]])

    def test_malformed_round_function(self):
        with pytest.raises(MalformedTables):
            feistel_network(xor_group(1), 1, [[0, 2]])

    def test_network_and_walk_equal_the_round_loops(self):
        """On every state, both ways, as the two tables were built round by round over all states."""
        for group, fns in feistel_schedules():
            expected = feistel_by_loops(group, fns)
            assert feistel_network(group, len(fns), fns) == expected, (group.name, fns)
            walk, states = feistel_walk(group, len(fns), fns), range(group.size**2)
            assert tuple(tuple(walk(s, decrypt) for s in states) for decrypt in (False, True)) == expected

    def test_checks_run_before_any_walk_in_their_order(self):
        """NotAGroup, the round count's type, the schedule's length, then the round functions."""
        checks = [
            ((MONOIDS["and2"], True, [[0, 5]]), NotAGroup, "and2: element 0 has no two-sided inverse"),
            ((xor_group(1), True, [[0, 5], [0]]), MalformedTables, "round count must be an int, got True"),
            ((xor_group(1), 1, [[0, 5], [0]]), KeyScheduleMismatch, "1 rounds requested but 2 round functions"),
            ((xor_group(1), 2, [[0, 5], [0]]), MalformedTables, "round function must map the group to itself"),
        ]
        for call, raised, message in checks:
            with pytest.raises(raised, match=re.escape(message)):
                feistel_walk(*call)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonoidTable("x", True, (0,), 0),
        lambda: monoid_from_flat("x", True, (0,)),
        lambda: monoid_from_flat("x", 1.0, (0,)),
        lambda: toffoli_extend(True, 0, [0, 0]),
        lambda: toffoli_extend(1, 1, [True, False]),
        lambda: feistel_network(MONOIDS["z2"], True, [[0, 1]]),
        lambda: feistel_network(MONOIDS["z2"], 1, [[True, False]]),
        lambda: feistel_network(MONOIDS["z2"], 1, [[0.0, 1]]),
    ],
    ids=["monoid size", "flat size", "flat float size", "toffoli width", "toffoli entry",
         "feistel rounds", "feistel round entry", "feistel float entry"],
)
def test_a_boolean_or_float_is_not_an_int(build):
    """Sizes, widths, round counts and table entries follow FinSet's rule: type(v) is int."""
    with pytest.raises(MalformedTables):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonoidTable("m", 2, (0, 1, 1), 0), "Cayley table for m must have 4 entries"),
        (lambda: MonoidTable("m", 2, (0, 1, 1, 2), 0), "Cayley table for m has out-of-range entries"),
        (lambda: MonoidTable("m", 2, (0, 1, 1, 0), 2), "unit of m out of range"),
        (lambda: monoid_from_flat("m", 2, (0, 1, 1)), "m: flat Cayley table must have 4 entries"),
    ],
    ids=["table length", "table entry", "unit", "flat table length"],
)
def test_catalog_refusals(build, message):
    with pytest.raises(MalformedTables, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: feistel.ConvElement(module_plan(point_base(Z2, 1), Z2), identity_cell(point_base(Z2, 1).span)),
            BaseMismatch,
            "cell endpoints must be the slice span and the arrow span",
        ),
        (
            lambda: conv_element(point_base(Z2, 1), Z2, FinMap(FinSet(2), Z2.m, (0, 0))),
            MalformedTables,
            "cell map must go from source apex to target apex",
        ),
        (
            lambda: kleisli_endo(point_base(Z2, 1), Z2, FinMap(FinSet(1), FinSet(1), (0,))),
            MalformedTables,
            "cell map must go from source apex to target apex",
        ),
        (
            lambda: feistel.KleisliEndo(module_plan(point_base(Z2, 1), Z2), identity_cell(point_base(Z2, 1).span)),
            BaseMismatch,
            "cell endpoints must be the slice span and its free module",
        ),
    ],
    ids=["conv cell ends", "conv map ends", "endo map ends", "endo cell ends"],
)
def test_feistel_refusals(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


class TestAdjunction:
    def test_singleton_instances(self):
        fa = point_base(Z2, 1)
        gb = point_base(Z2, 2)
        conv_objs = [conv_from_table(fa, Z2, (1,))]
        end_objs = [kleisli_fibre(gb, Z2)[5]]
        assert verify_adjunction(conv_objs, end_objs).passed

    def test_full_small_instance_set(self):
        for name in ("z2", "and2"):
            ic = one_object_category(MONOIDS[name])
            conv_objs = [e for x in (0, 1, 2) for e in conv_fibre(point_base(ic, x), ic)]
            end_objs = [u for x in (0, 1, 2) for u in kleisli_fibre(point_base(ic, x), ic)]
            assert verify_adjunction(conv_objs, end_objs).passed

    def test_groupoid_extensions_are_automorphisms(self):
        groupoid = one_object_groupoid(MONOIDS["z3"])
        ic = groupoid.cat
        conv_objs = [e for x in (0, 1, 2) for e in conv_fibre(point_base(ic, x), ic)]
        end_objs = [kleisli_unit(point_base(ic, 1), ic)]
        assert verify_adjunction(conv_objs, end_objs, groupoid=groupoid).passed

    def test_mixed_targets_rejected(self):
        fa = point_base(Z2, 1)
        other = point_base(AND2, 1)
        with pytest.raises(BaseMismatch):
            verify_adjunction([conv_unit(fa, Z2)], [kleisli_unit(other, AND2)])

    @pytest.mark.parametrize(
        "name, groupoid",
        [("and2", one_object_groupoid(MONOIDS["z3"])), ("z3", pair_groupoid(2))],
    )
    def test_groupoid_over_another_category_rejected(self, name, groupoid):
        ic = one_object_category(MONOIDS[name])
        conv_objs = conv_fibre(point_base(ic, 1), ic)
        with pytest.raises(BaseMismatch, match="the groupoid must be over the instances' internal category"):
            verify_adjunction(conv_objs, [kleisli_unit(point_base(ic, 1), ic)], groupoid=groupoid)

    def test_non_invertible_extension_is_no_automorphism(self):
        conv_objs = conv_fibre(point_base(AND2, 1), AND2)
        report = verify_adjunction(conv_objs, [], groupoid=InternalGroupoid(AND2, identity(AND2.m)))
        assert str(report.first()) == "automorphism: extend of (0,) has no two-sided inverse"
