"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (table equality); the only tolerances are the wall
clock budgets, asserted per criterion.  Run with ``pytest -v -s`` to see
the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from spanforge import (
    FinMap,
    FinSet,
    MalformedTables,
    build_conv_fibration,
    build_endo_fibration,
    cartesian_iso,
    check_discrete_fibration,
    check_internal_category,
    conv_element,
    conv_fibre,
    default_subslice,
    extend,
    feistel_network,
    identity_internal_functor,
    is_simply_presented,
    kleisli_endo,
    kleisli_inverse,
    retrieve,
    tensor,
    toffoli_extend,
    transport_conv,
)
from spanforge.catalog import (
    CATALOG,
    GROUPS,
    MONOIDS,
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
    xor_group,
)
from spanforge.cli import main as cli_main
from spanforge.feistel import conv_base_change, endo_base_change, free_module
from spanforge.internal import apply_lex_functor

from keyed import KeyedViews
from suites import (
    conv_external_agreement,
    coreflection_suite,
    equal_components_suite,
    groupoid_inverse_suite,
    homomorphism_suite,
    inversion_suite,
    point_base,
)
from util import pairs, single_entry_mutants

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

Z2 = one_object_category(MONOIDS["z2"])


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({label}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_1_homomorphism_suite():
    with criterion(1, "extension is a monoid homomorphism", 10.0):
        pairs = homomorphism_suite(MONOIDS.values(), max_x=3)
        # sum over the 7 monoids and |X| <= 3 of |M^X| squared
        assert pairs == 10_552


def test_criterion_2_inversion_suite():
    with criterion(2, "retrieval inverts extension exactly on the image", 5.0):
        retrieved, roundtrips = inversion_suite(MONOIDS.values(), max_x=3)
        # sums over the same instances of |M^X| and of |X times M| ** |X|
        assert retrieved == 284 and roundtrips == 5_635
        # explicit non-fixed witness at |A| = |M| = 2
        fa = point_base(Z2, 2)
        pb = tensor(fa.span, Z2.mor_span).pb
        index = {pair: i for i, pair in enumerate(pairs(pb))}
        apex = free_module(fa, Z2).span.apex
        witness = kleisli_endo(fa, Z2, FinMap(fa.a, apex, (index[(1, 0)], index[(0, 0)])))
        assert not is_simply_presented(witness)
        assert extend(retrieve(witness)).cell.map != witness.cell.map


def test_criterion_3_groupoid_suite():
    with criterion(3, "extensions over groupoids invert by the inversion map", 10.0):
        groupoids = [one_object_groupoid(g) for g in GROUPS.values()]
        groupoids += [pair_groupoid(n) for n in range(1, 4)]
        checked = groupoid_inverse_suite(groupoids, max_x=3)
        # every convolution element over every slice of the 8 groupoids
        assert checked == 288
        # the meet semilattice yields a non-invertible extension
        and2 = one_object_category(MONOIDS["and2"])
        fa = point_base(and2, 1)
        absorbing = extend(conv_element(fa, and2, FinMap(fa.a, and2.m, (0,))))
        assert kleisli_inverse(absorbing) is None


def test_criterion_4_toffoli_reproduction():
    with criterion(4, "classical controlled-controlled-not and retrieval", 1.0):
        assert toffoli_extend(2, 1, (0, 0, 0, 1)) == (0, 1, 2, 3, 4, 5, 7, 6)
        rng = random.Random(20260808)
        for _ in range(50):
            table = [rng.randrange(8) for _ in range(8)]
            perm = toffoli_extend(3, 3, table)
            assert all(perm[x << 3] & 0b111 == table[x] for x in range(8))


def test_criterion_5_checker_soundness():
    with criterion(5, "axiom checker accepts the catalog, rejects all mutants", 10.0):
        for entry in CATALOG.values():
            assert check_internal_category(entry.category).passed, entry.name
        assert len(CATALOG) == 6
        ic = pair_groupoid(2).cat
        total = rejected = 0
        for _description, build in single_entry_mutants(ic):
            total += 1
            try:
                mutant = build()
            except MalformedTables:
                rejected += 1
                continue
            if not check_internal_category(mutant).passed:
                rejected += 1
        assert total == 38
        assert rejected == total


def test_criterion_6_convolution_equals_endomorphism_monoid():
    with criterion(6, "convolution products equal map-category composition", 5.0):
        checked = conv_external_agreement(CATALOG.values(), max_a=2)
        # sum over the 6 catalog instances, |A| <= 2 and all slices of |fibre|^2
        assert checked == 336


def test_criterion_7_fibration_suite():
    with criterion(7, "both fibrations verified over catalog sub-slices", 30.0):
        for entry in CATALOG.values():
            ic = entry.category
            ss = default_subslice(ic)
            assert len(ss.objects) <= 5
            conv = build_conv_fibration(ss)
            endo = build_endo_fibration(ss)
            assert check_discrete_fibration(conv).passed, entry.name
            assert check_discrete_fibration(endo).passed, entry.name
            iso = cartesian_iso(ss)
            assert iso.report.passed, (entry.name, iso.report.summary())
            base = ss.base_category
            views = KeyedViews(base)
            for (k1, k2), k12 in base.comp.items():
                i, j, l = views.src[k1], views.dst[k1], views.dst[k2]
                for gamma in conv_fibre(ss.objects[l], ic):
                    direct = conv_base_change(ss.objects[i], ss.arrows[k12].map, gamma)
                    stepwise = conv_base_change(
                        ss.objects[i],
                        ss.arrows[k1].map,
                        conv_base_change(ss.objects[j], ss.arrows[k2].map, gamma),
                    )
                    assert direct.map == stepwise.map
                    moved = endo_base_change(ss.objects[i], ss.arrows[k12].map, extend(gamma))
                    moved_stepwise = endo_base_change(
                        ss.objects[i],
                        ss.arrows[k1].map,
                        endo_base_change(ss.objects[j], ss.arrows[k2].map, extend(gamma)),
                    )
                    assert moved.cell.map == moved_stepwise.cell.map


def test_criterion_8_coreflection_suite():
    with criterion(8, "coreflection universal property by full enumeration", 30.0):
        small = [m for m in MONOIDS.values() if m.size <= 3]
        assert {m.name for m in small} == {"trivial", "z2", "and2", "z3", "leftzero3"}
        factored = coreflection_suite(small, max_a=2, max_b=2)
        equal = equal_components_suite(small, max_a=2, max_b=2)
        # sweep sizes pinned from the first verified run; the universal
        # property itself is asserted per instance inside the suites
        assert factored == 794 and equal == 227


def test_criterion_9_functoriality_suite():
    with criterion(9, "transport squares and extension intertwining", 10.0):
        ss = default_subslice(Z2)
        ic = ss.ic
        sets = [ic.o, ic.m, *(obj.a for obj in ss.objects)]
        maps = [ic.d, ic.c, ic.eta, ic.mu]
        maps += [obj.f for obj in ss.objects]
        maps += [cell.map for cell in ss.arrows]
        for obj in ss.objects:
            for elem in conv_fibre(obj, ic):
                maps.append(elem.map)
        from spanforge import hom_functor_data

        k = hom_functor_data(FinSet(2), sets, maps, squares=[(ic.c, ic.d)])
        transported = apply_lex_functor(k, ic)
        assert transported.m.size == 4
        functor = identity_internal_functor(transported)
        result = transport_conv(k, functor, ss)
        assert result.report.passed, result.report.summary()
        laws = ("conv-transport-lands", "conv-transport-natural", "endo-transport-lands", "endo-transport-natural")
        assert set(result.report.checked) == {*laws, "intertwine"}
        assert min(result.report.checked.values()) > 0


def test_criterion_10_feistel_roundtrip(capsys):
    with criterion(10, "cipher roundtrip on every state and golden bytes", 1.0):
        group = xor_group(4)
        with open(FIXTURES / "feistel_keys.json") as fh:
            fns = json.load(fh)["round_functions"]
        perm, inverse = feistel_network(group, 4, fns)
        assert len(perm) == 256
        for state in range(256):
            assert inverse[perm[state]] == state
            assert perm[inverse[state]] == state
        code = cli_main(
            [
                "feistel", "encrypt",
                "--group", str(FIXTURES / "z2_4_group.json"),
                "--rounds", "4",
                "--keys", str(FIXTURES / "feistel_keys.json"),
                "--input", "0xab",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == (FIXTURES / "feistel_golden.txt").read_text()
        # the golden file itself came from the straight-line formula; recheck
        l, r = 0xA, 0xB
        for key in fns:
            l, r = key[l] ^ r, l
        assert out == f"0x{(l << 4) | r:02x}\n"
