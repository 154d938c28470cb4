import random

import pytest

from spanforge import (
    BaseMismatch,
    FinMap,
    FinSet,
    KeyScheduleMismatch,
    MalformedTables,
    NotAGroup,
    SizeLimitExceeded,
    SliceObject,
    all_maps,
    compose,
    conv_element,
    conv_fibre,
    conv_mult,
    conv_unit,
    coreflect,
    extend,
    feistel_network,
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
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
    xor_group,
)
from spanforge.feistel import _fast_compose, _fast_kleisli_tables, free_module

from suites import (
    conv_external_agreement,
    coreflection_suite,
    equal_components_suite,
    homomorphism_suite,
    inversion_suite,
    point_base,
)

Z2 = one_object_category(MONOIDS["z2"])
AND2 = one_object_category(MONOIDS["and2"])


def conv_from_table(fa, ic, table):
    return conv_element(fa, ic, FinMap(fa.a, ic.m, tuple(table)))


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

    def test_fast_compose_matches_machinery(self):
        for name in ("z2", "and2", "leftzero3"):
            ic = one_object_category(MONOIDS[name])
            fa = point_base(ic, 2)
            tables = _fast_kleisli_tables(fa, ic)
            endos = kleisli_fibre(fa, ic)
            for x in endos:
                for y in endos:
                    expected = kleisli_compose(x, y).cell.map.table
                    got = _fast_compose(*tables, x.cell.map.table, y.cell.map.table)
                    assert got == expected

    def test_module_endomorphism_turns_kleisli_into_composition(self):
        fa = point_base(Z2, 2)
        endos = kleisli_fibre(fa, Z2)
        for x in endos:
            for y in endos:
                assert module_endomorphism(kleisli_compose(x, y)) == compose(
                    module_endomorphism(x), module_endomorphism(y)
                )


class TestExtendRetrieve:
    def test_cnot_table(self):
        fa = point_base(Z2, 2)
        image = extend(conv_from_table(fa, Z2, (0, 1)))
        perm = module_endomorphism(image)
        pb = tensor(fa.span, Z2.mor_span).pb
        # oracle: (x, y) -> (x, x xor y) evaluated through the formula
        for i, (x, y) in enumerate(pb.elems):
            assert pb.elems[perm(i)] == (x, (0, 1)[x] ^ y)

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
        swap_idx = {pair: i for i, pair in enumerate(pb.elems)}
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

    def test_formula_fallback_path(self):
        groupoid = one_object_groupoid(MONOIDS["z3"])
        ic = groupoid.cat
        fa = point_base(ic, 2)
        alpha = conv_from_table(fa, ic, (1, 2))
        direct = kleisli_inverse(extend(alpha))
        via_formula = kleisli_inverse(extend(alpha), iota=groupoid.iota, bruteforce_apex_limit=1)
        assert direct is not None and via_formula is not None
        assert direct.cell.map == via_formula.cell.map

    def test_fallback_requires_inversion_data(self):
        fa = point_base(Z2, 2)
        with pytest.raises(SizeLimitExceeded):
            kleisli_inverse(kleisli_unit(fa, Z2), bruteforce_apex_limit=1)


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
            for i, (x, y) in enumerate(pb.elems):
                encoded[i] = (x << bits_n) | y
            assert all(encoded[perm(i)] == direct[encoded[i]] for i in range(len(pb.elems)))

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
        # symmetric group on three letters, diagrammatic Cayley table
        import itertools as it

        perms = list(it.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        rows = []
        for p in perms:
            rows.append([index[tuple(q[v] for v in p)] for q in perms])
        from spanforge.catalog import monoid_from_rows

        s3 = monoid_from_rows("s3", rows)
        assert s3.is_group() and not all(
            s3.mult(a, b) == s3.mult(b, a) for a in range(6) for b in range(6)
        )
        rng = random.Random(3)
        fns = [[rng.randrange(6) for _ in range(6)] for _ in range(4)]
        perm, inverse = feistel_network(s3, 4, fns)
        for s in range(36):
            assert inverse[perm[s]] == s

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
