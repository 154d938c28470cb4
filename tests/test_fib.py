import gc
import tracemalloc
from collections import Counter
from functools import partial

import pytest

import spanforge.feistel as feistel
import spanforge.fib as fib

from spanforge import (
    CATALOG,
    FibrationInstance,
    FinMap,
    FinSet,
    FunctorData,
    MalformedTables,
    NotInternalFunctor,
    SliceObject,
    SubSlice,
    TwoCell,
    build_conv_fibration,
    build_endo_fibration,
    cartesian_iso,
    check_discrete_fibration,
    check_functor,
    check_internal_category,
    check_internal_groupoid,
    compose,
    compose_intcat_morphisms,
    conv_element,
    conv_fibre,
    conv_unit,
    default_subslice,
    extend,
    full_subslice,
    hom_functor_data,
    identity,
    identity_functor_data,
    identity_internal_functor,
    kleisli_compose,
    kleisli_fibre,
    kleisli_unit,
    retrieve,
    transport_conv,
    verify_adjunction,
)
from spanforge.catalog import (
    MONOIDS,
    discrete_category,
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
)
from spanforge.feistel import conv_base_change, endo_base_change
from spanforge.internal import apply_lex_functor
from spanforge.report import ReportBuilder

from keyed import (
    KeyedViews,
    base_category_by_keys,
    cartesian_iso_by_instance,
    category_from_keys,
    check_discrete_fibration_by_instance,
    check_functor_by_instance,
    check_functor_by_keys,
    conv_fibration_by_keys,
    endo_fibration_by_keys,
    groupoid_report_by_index,
    keyed_maps,
    transport_conv_by_instance,
    verify_adjunction_by_instance,
)
from suites import point_base
from util import all_slice_objects, iota_mutants, loops_and_bridges

Z2 = one_object_category(MONOIDS["z2"])


def single_object_subslice(ic, fa):
    """Non-full sub-slice: one object, only its identity arrow."""
    return SubSlice(ic, (fa,), (TwoCell(fa.span, fa.span, identity(fa.a)),))


class TestSubSlice:
    def test_identity_required(self):
        fa = point_base(Z2, 1)
        with pytest.raises(MalformedTables, match=r"^identity missing for object with \|A\|=1$"):
            SubSlice(Z2, (fa,), ())

    def test_closure_required(self):
        fa = point_base(Z2, 2)
        ident = TwoCell(fa.span, fa.span, identity(fa.a))
        swap = TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, (1, 0)))
        # swap composed with itself is the identity: fine; but swap-after-swap
        # plus a third map breaks closure when the composite is missing
        step = TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, (0, 0)))
        with pytest.raises(MalformedTables, match="^sub-slice not closed under composition$"):
            SubSlice(Z2, (fa,), (ident, swap, step))

    def test_duplicate_objects_rejected(self):
        fa = point_base(Z2, 1)
        with pytest.raises(MalformedTables):
            SubSlice(Z2, (fa, fa), (TwoCell(fa.span, fa.span, identity(fa.a)),))

    def test_base_category_builds_no_cells(self, monkeypatch):
        # identities and composites are looked up by (source, target, table), not built as cells
        ic = CATALOG["klein4"].category
        full = full_subslice(ic, [point_base(ic, a) for a in range(4)])
        assert len(full.arrows) == 60
        built = []
        check = TwoCell.__post_init__

        def counted(cell):
            built.append(cell)
            check(cell)

        monkeypatch.setattr(TwoCell, "__post_init__", counted)
        ss = SubSlice(ic, full.objects, full.arrows)
        assert len(ss.base_category.arrows) == 60
        assert built == []

    def test_base_category_of_default_subslice(self):
        for name in ("z2", "pair2", "action2"):
            ss = default_subslice(CATALOG[name].category)
            assert len(ss.objects) <= 5
            assert len(ss.arrows) <= 12
            fc = ss.base_category
            assert len(fc.objects) == len(ss.objects)


class TestConvFibration:
    def test_single_object_fibre_of_size_four(self):
        fa = point_base(Z2, 2)
        ss = single_object_subslice(Z2, fa)
        fi = build_conv_fibration(ss)
        assert len(fi.total.objects) == 4
        # only identity lifts: one arrow per fibre element
        assert len(fi.total.arrows) == 4
        assert check_discrete_fibration(fi).passed

    def test_unique_lifts_for_catalog_defaults(self):
        for entry in CATALOG.values():
            ss = default_subslice(entry.category)
            assert check_discrete_fibration(build_conv_fibration(ss)).passed

    def test_disconnected_points_give_singleton_fibres(self):
        ic = discrete_category(2).cat
        pt0 = SliceObject(FinSet(1), FinMap(FinSet(1), ic.o, (0,)))
        pt1 = SliceObject(FinSet(1), FinMap(FinSet(1), ic.o, (1,)))
        ss = full_subslice(ic, (pt0, pt1))
        fi = build_conv_fibration(ss)
        assert len(fi.total.objects) == 2
        assert check_discrete_fibration(fi).passed
        # no cross arrows in the base between the two points
        views = KeyedViews(fi.base)
        assert all(views.src[k] == views.dst[k] for k in fi.base.arrows)

    def test_fibre_monoids_are_groups_over_groupoids(self):
        from spanforge import conv_mult, conv_unit

        for name, entry in CATALOG.items():
            if entry.iota is None:
                continue
            ic = entry.category
            ss = default_subslice(ic)
            for obj in ss.objects:
                fibre = conv_fibre(obj, ic)
                unit = conv_unit(obj, ic)
                for elem in fibre:
                    assert any(
                        conv_mult(elem, other).map == unit.map
                        and conv_mult(other, elem).map == unit.map
                        for other in fibre
                    ), (name, elem.map.table)

    def test_base_change_is_contravariant(self):
        for name in ("z2", "pair2", "and2"):
            ic = CATALOG[name].category
            ss = default_subslice(ic)
            base = ss.base_category
            views = KeyedViews(base)
            for (k1, k2), k12 in base.comp.items():
                i = views.src[k1]
                j = views.dst[k1]
                l = views.dst[k2]
                phi, psi = ss.arrows[k1], ss.arrows[k2]
                composite = ss.arrows[k12]
                for gamma in conv_fibre(ss.objects[l], ic):
                    direct = conv_base_change(ss.objects[i], composite.map, gamma)
                    stepwise = conv_base_change(
                        ss.objects[i], phi.map, conv_base_change(ss.objects[j], psi.map, gamma)
                    )
                    assert direct.map == stepwise.map


class TestEndoFibration:
    def test_fibres_biject_with_conv_fibres(self):
        for name in ("z2", "pair2", "and2"):
            ic = CATALOG[name].category
            ss = default_subslice(ic)
            conv = build_conv_fibration(ss)
            endo = build_endo_fibration(ss)
            for i, obj in enumerate(ss.objects):
                conv_keys = {t for (j, t) in conv.total.objects if j == i}
                endo_keys = {t for (j, t) in endo.total.objects if j == i}
                assert len(conv_keys) == len(endo_keys)
                assert {
                    extend(conv_element(obj, ic, FinMap(obj.a, ic.m, t))).cell.map.table
                    for t in conv_keys
                } == endo_keys

    def test_unique_lifts(self):
        for entry in CATALOG.values():
            ss = default_subslice(entry.category)
            assert check_discrete_fibration(build_endo_fibration(ss)).passed

    def test_identity_base_arrow_lifts_to_identity(self):
        ss = default_subslice(Z2)
        fi = build_endo_fibration(ss)
        for x, lift in enumerate(fi.total.tables.ident):
            assert fi.proj.arr[lift] == fi.base.tables.ident[fi.proj.obj[x]]

    def test_base_change_is_a_monoid_homomorphism(self):
        for name in ("z2", "and2"):
            ic = CATALOG[name].category
            ss = default_subslice(ic)
            for k, cell in enumerate(ss.arrows):
                i, j = ss.arrow_endpoints(k)
                src_obj, dst_obj = ss.objects[i], ss.objects[j]
                fibre = [extend(e) for e in conv_fibre(dst_obj, ic)]
                unit_j = kleisli_unit(dst_obj, ic)
                unit_i = kleisli_unit(src_obj, ic)
                moved_unit = endo_base_change(src_obj, cell.map, unit_j)
                assert moved_unit.cell.map == unit_i.cell.map
                for u in fibre:
                    for v in fibre:
                        product = kleisli_compose(u, v)
                        moved = endo_base_change(src_obj, cell.map, product)
                        stepwise = kleisli_compose(
                            endo_base_change(src_obj, cell.map, u),
                            endo_base_change(src_obj, cell.map, v),
                        )
                        assert moved.cell.map == stepwise.cell.map

    def test_endo_base_change_contravariant(self):
        ic = CATALOG["pair2"].category
        ss = default_subslice(ic)
        base = ss.base_category
        views = KeyedViews(base)
        for (k1, k2), k12 in base.comp.items():
            i, j, l = views.src[k1], views.dst[k1], views.dst[k2]
            for elem in conv_fibre(ss.objects[l], ic):
                u = extend(elem)
                direct = endo_base_change(ss.objects[i], ss.arrows[k12].map, u)
                stepwise = endo_base_change(
                    ss.objects[i],
                    ss.arrows[k1].map,
                    endo_base_change(ss.objects[j], ss.arrows[k2].map, u),
                )
                assert direct.cell.map == stepwise.cell.map


class TestDiscreteFibrationChecker:
    def test_identity_functor_on_one_object_category_passes(self):
        fc = category_from_keys(
            ("x",), ("id",), {"id": "x"}, {"id": "x"}, {"x": "id"}, {("id", "id"): "id"}
        )
        fi = FibrationInstance(fc, fc, FunctorData(fc, fc, (0,), (0,)))
        assert check_discrete_fibration(fi).passed

    def test_images_outside_the_target_fail_their_laws(self):
        fc = category_from_keys(
            ("x",), ("id",), {"id": "x"}, {"id": "x"}, {"x": "id"}, {("id", "id"): "id"}
        )
        report = check_functor(FunctorData(fc, fc, ("y",), ("ghost",)))
        assert failed_laws(report) == (
            ["arrow-map-lands", "composition-preserved", "identities-preserved", "object-map-lands"],
            4,
        )

    def test_parallel_pair_defect_reports_lift_count_two(self):
        base = category_from_keys(
            ("x", "y"),
            ("ix", "iy", "u"),
            {"ix": "x", "iy": "y", "u": "x"},
            {"ix": "x", "iy": "y", "u": "y"},
            {"x": "ix", "y": "iy"},
            {
                ("ix", "ix"): "ix",
                ("iy", "iy"): "iy",
                ("ix", "u"): "u",
                ("u", "iy"): "u",
            },
        )
        total = category_from_keys(
            ("a", "b"),
            ("ia", "ib", "g1", "g2"),
            {"ia": "a", "ib": "b", "g1": "a", "g2": "a"},
            {"ia": "a", "ib": "b", "g1": "b", "g2": "b"},
            {"a": "ia", "b": "ib"},
            {
                ("ia", "ia"): "ia",
                ("ib", "ib"): "ib",
                ("ia", "g1"): "g1",
                ("g1", "ib"): "g1",
                ("ia", "g2"): "g2",
                ("g2", "ib"): "g2",
            },
        )
        # a -> x, b -> y; ia -> ix, ib -> iy, g1 and g2 -> u
        proj = FunctorData(total, base, (0, 1), (0, 1, 2, 2))
        fi = FibrationInstance(total, base, proj)
        report = check_discrete_fibration(fi)
        assert not report.passed
        assert "lifts 2" in str(report.first())


class TestCartesianIso:
    def test_catalog_defaults_pass(self):
        for entry in CATALOG.values():
            iso = cartesian_iso(default_subslice(entry.category))
            assert iso.report.passed, (entry.name, iso.report.summary())

    def test_singleton_subslice_reduces_to_fibrewise_iso(self):
        fa = point_base(Z2, 2)
        iso = cartesian_iso(single_object_subslice(Z2, fa))
        assert iso.report.passed
        assert len(iso.forward.obj) == 4

    def test_naturality_reads_the_plan_columns(self, monkeypatch):
        # the fibrewise-naturality loop reads each plan's arrow column; a checked
        # bar map per (base arrow, fibre element) would add 125 maps here
        feistel.module_plan.cache_clear()
        ss = default_subslice(CATALOG["klein4"].category)
        built = []
        check = FinMap.__post_init__

        def counted(fmap):
            built.append(fmap.table)
            check(fmap)

        monkeypatch.setattr(FinMap, "__post_init__", counted)
        assert cartesian_iso(ss).report.passed
        assert len(built) <= 54

    def test_forward_and_backward_are_functors(self):
        iso = cartesian_iso(default_subslice(CATALOG["action2"].category))
        assert check_functor(iso.forward).passed
        assert check_functor(iso.backward).passed


def hom_fragment_for(ss, s_size=2, extra_sets=(), extra_maps=()):
    """Hom-functor data covering everything a transport of ss touches."""
    ic = ss.ic
    sets = [ic.o, ic.m, *(obj.a for obj in ss.objects), *extra_sets]
    maps = [ic.d, ic.c, ic.eta, ic.mu]
    maps += [obj.f for obj in ss.objects]
    maps += [cell.map for cell in ss.arrows]
    for obj in ss.objects:
        for elem in conv_fibre(obj, ic):
            maps.append(elem.map)
    maps += list(extra_maps)
    return hom_functor_data(FinSet(s_size), sets, maps, squares=[(ic.c, ic.d)])


def identity_fragment_for(ss):
    ic = ss.ic
    sets = [ic.o, ic.m, *(obj.a for obj in ss.objects)]
    maps = [ic.d, ic.c, ic.eta, ic.mu]
    maps += [obj.f for obj in ss.objects]
    maps += [cell.map for cell in ss.arrows]
    for obj in ss.objects:
        for elem in conv_fibre(obj, ic):
            maps.append(elem.map)
    return identity_functor_data(sets, maps, squares=[(ic.c, ic.d)])


class TestTransport:
    def test_identity_transport(self):
        ss = default_subslice(Z2)
        k = identity_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, Z2))
        result = transport_conv(k, functor, ss)
        assert result.report.passed
        assert result.transported.objects == ss.objects
        conv_map = result.conv_map
        assert [conv_map.target.objects[y] for y in conv_map.obj] == list(conv_map.source.objects)

    def test_hom_functor_transport_passes(self):
        ss = default_subslice(Z2)
        k = hom_fragment_for(ss)
        transported = apply_lex_functor(k, Z2)
        assert transported.m.size == 4
        functor = identity_internal_functor(transported)
        result = transport_conv(k, functor, ss)
        assert result.report.passed

    def test_transport_square_on_pair_groupoid(self):
        ic = pair_groupoid(2).cat
        pt = SliceObject(FinSet(1), FinMap(FinSet(1), ic.o, (0,)))
        ss = full_subslice(ic, (pt,))
        k = hom_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, ic))
        result = transport_conv(k, functor, ss)
        assert result.report.passed

    def test_functor_source_must_match(self):
        ss = default_subslice(Z2)
        k = hom_fragment_for(ss)
        with pytest.raises(NotInternalFunctor):
            transport_conv(k, identity_internal_functor(Z2), ss)

    def test_composite_of_transports_is_transport_of_composite(self):
        # small sub-slice keeps the doubly transported carrier tiny
        empty = SliceObject(FinSet(0), FinMap(FinSet(0), Z2.o, ()))
        pt = point_base(Z2, 1)
        ss = full_subslice(Z2, (empty, pt))
        k1 = hom_fragment_for(ss, s_size=2)
        f1 = identity_internal_functor(apply_lex_functor(k1, Z2))
        first = transport_conv(k1, f1, ss)
        assert first.report.passed
        ss2 = first.transported
        k2 = hom_fragment_for(
            ss2,
            s_size=2,
            extra_sets=k1.objects.values(),
            extra_maps=k1.arrows.values(),
        )
        f2 = identity_internal_functor(apply_lex_functor(k2, ss2.ic))
        second = transport_conv(k2, f2, ss2)
        assert second.report.passed
        k12, f12 = compose_intcat_morphisms(k1, f1, k2, f2, Z2)
        combined = transport_conv(k12, f12, ss)
        assert combined.report.passed
        one, two, both = first.conv_map, second.conv_map, combined.conv_map
        assert (two.source.objects, two.source.arrows) == (one.target.objects, one.target.arrows)
        for x, mid in enumerate(one.obj):
            assert two.target.objects[two.obj[mid]] == both.target.objects[both.obj[x]]
        for f, mid in enumerate(one.arr):
            assert two.target.arrows[two.arr[mid]] == both.target.arrows[both.arr[f]]


def transport_instances():
    """(k, functor, ss) for the passing transports above: identity, hom functor, pair groupoid."""
    ss = default_subslice(Z2)
    pt = SliceObject(FinSet(1), FinMap(FinSet(1), pair_groupoid(2).cat.o, (0,)))
    pair_ss = full_subslice(pair_groupoid(2).cat, (pt,))
    fragments = [
        (identity_fragment_for(ss), ss),
        (hom_fragment_for(ss), ss),
        (hom_fragment_for(pair_ss), pair_ss),
    ]
    return [(k, identity_internal_functor(apply_lex_functor(k, sub.ic)), sub) for k, sub in fragments]


def count_laws(monkeypatch):
    """Count every check that a ReportBuilder records, by law name, from now on.

    A merged report's counts are not counted again, so check_functor's laws count unprefixed.
    """
    counts = Counter()
    count = ReportBuilder.count

    def counting(self, law, n):
        counts[law] += n
        return count(self, law, n)

    monkeypatch.setattr(ReportBuilder, "count", counting)
    return counts


Z3 = one_object_groupoid(MONOIDS["z3"])
REAL_EXTEND, REAL_AS_ENDO, REAL_RETRIEVE = fib.extend, fib._as_endo, fib.retrieve


def inverting_extend(alpha, iota=Z3.iota):
    """extend after pointwise inversion: a bijection on each fibre, but not extend."""
    return REAL_EXTEND(conv_element(alpha.base, alpha.target, compose(iota, alpha.map)))


def inverting_endo(ss, i, table, iota=Z3.iota):
    """Decodes an endomorphism key to the extension of its inverted arrow component."""
    endo = REAL_AS_ENDO(ss, i, table)
    return REAL_EXTEND(conv_element(endo.base, endo.target, compose(iota, endo.bar)))


def reversing_retrieve(endo):
    """retrieve with each table reversed: objects land in the fibres, many arrows do not."""
    elem = REAL_RETRIEVE(endo)
    reversed_map = FinMap(elem.map.dom, elem.map.cod, elem.map.table[::-1])
    return conv_element(elem.base, elem.target, reversed_map)


def reversing_extend(alpha):
    """extend of the reversed table: objects land in the fibres, many arrows do not."""
    reversed_map = FinMap(alpha.map.dom, alpha.map.cod, alpha.map.table[::-1])
    return REAL_EXTEND(conv_element(alpha.base, alpha.target, reversed_map))


def unit_retrieve(endo):
    """retrieve to the unit: every endomorphism lands on one element of its fibre."""
    return conv_unit(endo.base, endo.target)


LOOPS = loops_and_bridges()
# swaps the identity at object 1 with the involution s there, and fixes every other arrow
LOOPS_SWAP = FinMap(LOOPS.m, LOOPS.m, (0, 1, 3, 2, 4, 5))


def swapped_over_pairs(elem):
    """elem after LOOPS_SWAP where its base has two points: not natural along the cells from one point."""
    if elem.base.a.size < 2:
        return elem
    return conv_element(elem.base, elem.target, compose(LOOPS_SWAP, elem.map))


def twisting_retrieve(endo):
    """loops_and_bridges' reversing_retrieve: objects land in the fibres, some arrows do not."""
    return swapped_over_pairs(REAL_RETRIEVE(endo))


def twisting_extend(alpha):
    """loops_and_bridges' reversing_extend: objects land in the fibres, some arrows do not."""
    return REAL_EXTEND(swapped_over_pairs(alpha))


# the five fault injections (module, name, corrupted) on Z3, and their like on loops_and_bridges
FAULTS = {
    "z3": [
        (fib, "retrieve", unit_retrieve),
        (fib, "extend", inverting_extend),
        (fib, "extend", reversing_extend),
        (fib, "retrieve", reversing_retrieve),
        (fib, "_as_endo", inverting_endo),
    ],
    "loops_and_bridges": [
        (fib, "retrieve", unit_retrieve),
        (fib, "extend", partial(inverting_extend, iota=LOOPS_SWAP)),
        (fib, "extend", twisting_extend),
        (fib, "retrieve", twisting_retrieve),
        (fib, "_as_endo", partial(inverting_endo, iota=LOOPS_SWAP)),
    ],
}


def failed_laws(report):
    return sorted({f.law for f in report.failures}), len(report.failures)


class TestCheckerGuards:
    """Pins what the functor-over-base checks run, and shows that they can fail."""

    def test_cartesian_iso_law_counts(self, monkeypatch):
        subslices = [default_subslice(entry.category) for entry in CATALOG.values()]
        counts = count_laws(monkeypatch)
        for ss in subslices:
            assert cartesian_iso(ss).report.passed
        assert dict(counts) == {
            "arrow-map-lands": 888,
            "arrow-map-total": 888,
            "backward-welldefined": 269,
            "composition-preserved": 3916,
            "endpoints-preserved": 888,
            "fibrewise-naturality": 222,
            "forward-welldefined": 269,
            "identities-preserved": 188,
            "mutual-inverse-arrows": 444,
            "mutual-inverse-objects": 94,
            "object-map-lands": 188,
            "object-map-total": 188,
            "projection-triangle": 538,
        }

    def test_transport_law_counts(self, monkeypatch):
        instances = transport_instances()
        counts = count_laws(monkeypatch)
        for k, functor, ss in instances:
            assert transport_conv(k, functor, ss).report.passed
        assert dict(counts) == {
            "arrow-map-lands": 3966,
            "arrow-map-total": 3966,
            "associativity": 656,
            "composition-preserved": 19646,
            "composition-source": 84,
            "composition-target": 84,
            "conv-transport-welldefined": 86,
            "endo-transport-welldefined": 86,
            "endpoints-preserved": 3966,
            "identities-preserved": 598,
            "identity-source": 6,
            "identity-target": 6,
            "intertwine-arrows": 71,
            "intertwine-objects": 15,
            "left-unit": 44,
            "object-map-lands": 598,
            "object-map-total": 598,
            "p-square-arrows": 71,
            "p-square-objects": 15,
            "q-square-arrows": 71,
            "q-square-objects": 15,
            "right-unit": 44,
        }

    @pytest.mark.parametrize(
        "name, corrupted",
        [
            ("retrieve", lambda endo: conv_unit(endo.base, endo.target)),
            ("extend", inverting_extend),
        ],
    )
    def test_cartesian_iso_reports_a_corrupted_direction(self, monkeypatch, name, corrupted):
        monkeypatch.setattr(fib, name, corrupted)
        report = cartesian_iso(default_subslice(Z3.cat)).report
        assert failed_laws(report) == (["mutual-inverse-arrows", "mutual-inverse-objects"], 144)

    def test_cartesian_iso_reports_images_outside_the_target(self, monkeypatch):
        monkeypatch.setattr(fib, "retrieve", reversing_retrieve)
        report = cartesian_iso(default_subslice(Z3.cat)).report
        assert report.first().law == "backward-welldefined"
        assert failed_laws(report) == (
            [
                "backward-arrow-map-lands",
                "backward-composition-preserved",
                "backward-welldefined",
                "mutual-inverse-arrows",
                "mutual-inverse-objects",
                "projection-triangle",
            ],
            336,
        )

    def test_fibrewise_naturality_failures_match_the_base_change_oracle(self, monkeypatch):
        ss = default_subslice(Z3.cat)
        expected = []
        for k, cell in enumerate(ss.arrows):
            i, j = ss.arrow_endpoints(k)
            for beta in conv_fibre(ss.objects[j], ss.ic):
                lhs = reversing_extend(conv_base_change(ss.objects[i], cell.map, beta))
                rhs = endo_base_change(ss.objects[i], cell.map, reversing_extend(beta))
                if lhs.cell.map != rhs.cell.map:
                    expected.append((k, beta.map.table))
        monkeypatch.setattr(fib, "extend", reversing_extend)
        report = cartesian_iso(ss).report
        found = [f.witness for f in report.failures if f.law == "fibrewise-naturality"]
        assert found == expected and len(expected) > 0

    @pytest.mark.parametrize(
        "name, corrupted",
        [("extend", inverting_extend), ("_as_endo", inverting_endo)],
    )
    def test_transport_reports_a_corrupted_move(self, monkeypatch, name, corrupted):
        ss = default_subslice(Z3.cat)
        k = identity_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, Z3.cat))
        assert transport_conv(k, functor, ss).report.passed
        monkeypatch.setattr(fib, name, corrupted)
        report = transport_conv(k, functor, ss).report
        assert failed_laws(report) == (["intertwine-arrows", "intertwine-objects"], 72)

    def test_transport_reports_images_outside_the_target(self, monkeypatch):
        ss = default_subslice(Z3.cat)
        k = identity_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, Z3.cat))
        monkeypatch.setattr(fib, "extend", reversing_extend)
        report = transport_conv(k, functor, ss).report
        assert failed_laws(report) == (
            [
                "endo-transport-arrow-map-lands",
                "endo-transport-composition-preserved",
                "endo-transport-welldefined",
                "intertwine-arrows",
                "intertwine-objects",
                "q-square-arrows",
            ],
            288,
        )


FUNCTOR_LAWS = (
    "object-map-total", "object-map-lands", "arrow-map-total", "arrow-map-lands",
    "endpoints-preserved", "identities-preserved", "composition-preserved",
)


def functor_laws(*prefixes):
    return {prefix + law for prefix in prefixes for law in FUNCTOR_LAWS}


class TestNoLawPassesVacuously:
    """Each checker's reports name every one of its laws with at least one check run."""

    @staticmethod
    def assert_every_law_checked(report, laws):
        assert report.passed
        assert set(report.checked) == laws
        assert all(report.checked[law] > 0 for law in laws)

    def test_cartesian_iso_and_unique_lifts(self):
        laws = functor_laws("forward-", "backward-") | {
            "forward-welldefined", "backward-welldefined", "projection-triangle",
            "mutual-inverse-objects", "mutual-inverse-arrows", "fibrewise-naturality",
        }
        assert len(laws) == 20
        for ic in [entry.category for entry in CATALOG.values()] + [loops_and_bridges()]:
            iso = cartesian_iso(default_subslice(ic))
            self.assert_every_law_checked(iso.report, laws)
            for fibration in (iso.conv, iso.endo):
                self.assert_every_law_checked(check_discrete_fibration(fibration), {"unique-lift"})

    def test_transport(self):
        laws = functor_laws("conv-transport-", "endo-transport-") | {
            "conv-transport-welldefined", "endo-transport-welldefined", "p-square-objects",
            "p-square-arrows", "q-square-objects", "q-square-arrows", "intertwine-objects",
            "intertwine-arrows",
        }
        assert len(laws) == 22
        for k, functor, ss in transport_instances():
            self.assert_every_law_checked(transport_conv(k, functor, ss).report, laws)

    def test_internal_category(self):
        laws = {
            "identity-source", "identity-target", "composition-source", "composition-target",
            "left-unit", "right-unit", "associativity",
        }
        for entry in CATALOG.values():
            self.assert_every_law_checked(check_internal_category(entry.category), laws)


class TestSubSlicePlans:
    """A sub-slice looks up each object's plan once; decoding element keys reads those plans."""

    def test_decoding_keys_looks_up_no_plan(self, monkeypatch):
        ss = default_subslice(pair_groupoid(2).cat)
        conv, endo = build_conv_fibration(ss), build_endo_fibration(ss)
        real = feistel.module_plan
        lookups = []

        def counted(base, target):
            lookups.append((base, target))
            return real(base, target)

        monkeypatch.setattr(feistel, "module_plan", counted)
        monkeypatch.setattr(fib, "module_plan", counted)
        endo_objects, conv_objects = set(endo.total.objects), set(conv.total.objects)
        for key in conv.total.objects:
            assert fib._extended(ss, key) in endo_objects
        for i, table in endo.total.objects:
            assert (i, retrieve(fib._as_endo(ss, i, table)).map.table) in conv_objects
        assert lookups == []
        assert len(conv_objects) == len(endo_objects) > 0

    @pytest.mark.parametrize("name", ["z2", "pair2", "klein4"])
    def test_cartesian_iso_looks_up_each_plan_once(self, monkeypatch, name):
        ss = default_subslice(CATALOG[name].category)
        for obj in ss.objects:
            conv_fibre(obj, ss.ic)  # the plans are cached, as in any second use of a fibre
        real = feistel.module_plan
        lookups = []

        def counted(base, target):
            lookups.append((base, target))
            return real(base, target)

        monkeypatch.setattr(feistel, "module_plan", counted)
        monkeypatch.setattr(fib, "module_plan", counted)
        assert cartesian_iso(ss).report.passed
        assert len(lookups) <= len(ss.objects)


def oracle_subslices():
    """Every CATALOG default sub-slice, and loops_and_bridges' full sub-slice with |A| <= 2."""
    ic = loops_and_bridges()
    full = full_subslice(ic, [obj for a in range(3) for obj in all_slice_objects(a, ic.o)])
    return [default_subslice(entry.category) for entry in CATALOG.values()] + [full]


def assert_same_report(fd):
    """check_functor on ids reports the keyed oracle's laws, witnesses and order."""
    report = check_functor(fd)
    assert report.failures == check_functor_by_keys(fd.source, fd.target, *keyed_maps(fd)).failures
    return report


class TestIdsAgainstKeyedOracles:
    """The fibration layer on ids agrees table for table, and report for report, with the keyed build."""

    def test_total_categories_match_the_keyed_build(self):
        for ss in oracle_subslices():
            base = base_category_by_keys(ss)
            assert (ss.base_category.arrows, ss.base_category.tables) == (base.arrows, base.tables)
            for build, oracle in (
                (build_conv_fibration, conv_fibration_by_keys),
                (build_endo_fibration, endo_fibration_by_keys),
            ):
                fi = build(ss)
                total, object_map, arrow_map = oracle(ss)
                assert (fi.total.objects, fi.total.arrows) == (total.objects, total.arrows)
                assert fi.total.tables == total.tables
                assert fi.proj.obj == tuple(object_map[x] for x in total.objects)
                assert fi.proj.arr == tuple(arrow_map[a] for a in total.arrows)

    def test_check_functor_on_real_functors(self):
        for ss in oracle_subslices():
            iso = cartesian_iso(ss)
            assert iso.report.passed
            for fd in (iso.forward, iso.backward, iso.conv.proj, iso.endo.proj):
                assert assert_same_report(fd).passed
        for k, functor, ss in transport_instances():
            result = transport_conv(k, functor, ss)
            for fd in (result.conv_map, result.endo_map):
                assert assert_same_report(fd).passed

    @pytest.mark.parametrize(
        "name, corrupted, fails",
        [
            ("extend", inverting_extend, False),
            ("_as_endo", inverting_endo, False),
            ("retrieve", reversing_retrieve, True),
            ("extend", reversing_extend, True),
        ],
    )
    def test_check_functor_on_corrupted_moves(self, monkeypatch, name, corrupted, fails):
        ss = default_subslice(Z3.cat)
        k = identity_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, Z3.cat))
        monkeypatch.setattr(fib, name, corrupted)
        iso = cartesian_iso(ss)
        result = transport_conv(k, functor, ss)
        functors = (iso.forward, iso.backward, result.conv_map, result.endo_map)
        reports = [assert_same_report(fd) for fd in functors]
        assert any(not report.passed for report in reports) == fails

    def test_check_functor_on_corrupted_tables(self):
        fd = cartesian_iso(default_subslice(Z3.cat)).forward
        obj, arr = list(fd.obj), list(fd.arr)
        mutants = [
            (obj[1:] + obj[:1], arr),  # objects to the wrong images
            (obj, [arr[0]] * len(arr)),  # every arrow to one arrow
            (obj, arr[:-1]),  # no image for the last arrow
            (obj[:-1], arr),  # no image for the last object
            ([("ghost",)] + obj[1:], arr),  # an object image outside the target
            (obj, arr[:2] + [("ghost", 0, 0)] * (len(arr) - 2)),  # arrow images outside the target
            (obj, [len(fd.target.arrows)] + arr[1:]),  # an id past the end
        ]
        for mutant_obj, mutant_arr in mutants:
            mutant = FunctorData(fd.source, fd.target, tuple(mutant_obj), tuple(mutant_arr))
            assert not assert_same_report(mutant).passed


class TestFibrationOnIds:
    """The fibration pass builds no keyed tables, and what a fibration retains stays small."""

    @staticmethod
    def klein4_full_subslice():
        ic = CATALOG["klein4"].category
        return full_subslice(ic, [point_base(ic, a) for a in range(4)])

    def test_no_keyed_composition_is_built(self):
        ss = self.klein4_full_subslice()
        iso = cartesian_iso(ss)
        lifts = [check_discrete_fibration(fi) for fi in (iso.conv, iso.endo)]
        assert iso.report.passed and all(report.passed for report in lifts)
        assert (len(iso.conv.total.objects), len(iso.conv.total.arrows)) == (85, 2817)
        for category in (ss.base_category, iso.conv.total, iso.endo.total):
            assert "comp" not in vars(category)

    def test_conv_fibration_retains_little(self):
        ss = self.klein4_full_subslice()
        build_conv_fibration(ss)  # warm caches: fibres, plans, the base category
        gc.collect()
        tracemalloc.start()
        try:
            fi = build_conv_fibration(ss)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(fi.total.arrows) == 2817
        # 1.3 MB measured with CPython 3.11; the keyed comp dict alone held about 12.8 MB
        assert retained < 2_000_000


def iso_reports(ss):
    """(library, oracle) reports of cartesian_iso and of both unique-lift checks on ss."""
    iso = cartesian_iso(ss)
    yield iso.report, cartesian_iso_by_instance(ss)
    for fibration in (iso.conv, iso.endo):
        yield check_discrete_fibration(fibration), check_discrete_fibration_by_instance(fibration)


def transport_reports(k, functor, ss):
    yield transport_conv(k, functor, ss).report, transport_conv_by_instance(k, functor, ss)


def z3_transport():
    ss = default_subslice(Z3.cat)
    k = identity_fragment_for(ss)
    return k, identity_internal_functor(apply_lex_functor(k, Z3.cat)), ss


def functor_reports():
    """(library, oracle) reports of check_functor on z3's forward functor with one image changed at a time."""
    fd = cartesian_iso(default_subslice(Z3.cat)).forward
    n_obj, n_arr, unit = len(fd.target.objects), len(fd.target.arrows), fd.source.tables.ident[0]
    changes = [
        ("obj", 0, None), ("obj", 1, n_obj), ("obj", 2, -1), ("obj", 0, True), ("obj", 3, ("ghost",)),
        ("arr", 5, None), ("arr", unit, None), ("arr", 1, n_arr), ("arr", 2, -1), ("arr", 3, ("ghost", 0, 0)),
        ("arr", 4, 0),
    ]
    for which, at, value in changes:
        obj, arr = list(fd.obj), list(fd.arr)
        (obj if which == "obj" else arr)[at] = value
        mutant = FunctorData(fd.source, fd.target, tuple(obj), tuple(arr))
        yield check_functor(mutant), check_functor_by_instance(mutant)


def groupoid_reports(entry):
    for g in [entry.groupoid, *iota_mutants(entry.groupoid)]:
        yield check_internal_groupoid(g), groupoid_report_by_index(g)


def adjunction_reports():
    """verify_adjunction over Z3, on every element and endomorphism over up to two points."""
    ic = Z3.cat
    conv_objs = [e for x in (0, 1, 2) for e in conv_fibre(point_base(ic, x), ic)]
    end_objs = [u for x in (0, 1, 2) for u in kleisli_fibre(point_base(ic, x), ic)]
    yield verify_adjunction(conv_objs, end_objs, Z3), verify_adjunction_by_instance(conv_objs, end_objs, Z3)


def oracle_cases():
    """(id, fault or None, reports) for every case that the checkers and their oracles must agree on."""
    ss_cases = [(name, entry.category) for name, entry in CATALOG.items()] + [("loops_and_bridges", LOOPS)]
    for name, ic in ss_cases:
        yield f"iso-{name}", None, lambda ic=ic: iso_reports(default_subslice(ic))
    yield "functor-mutants", None, functor_reports
    for n, instance in enumerate(transport_instances()):
        yield f"transport-{n}", None, lambda instance=instance: transport_reports(*instance)
    for n, fault in enumerate(FAULTS["z3"]):
        yield f"fault-{n}-{fault[1]}-iso-z3", fault, lambda: iso_reports(default_subslice(Z3.cat))
        yield f"fault-{n}-{fault[1]}-transport-z3", fault, lambda: transport_reports(*z3_transport())
    for n, fault in enumerate(FAULTS["loops_and_bridges"]):
        yield f"fault-{n}-{fault[1]}-iso-loops_and_bridges", fault, lambda: iso_reports(default_subslice(LOOPS))
    for name, entry in CATALOG.items():
        if entry.iota is not None:
            yield f"groupoid-{name}", None, lambda entry=entry: groupoid_reports(entry)
    yield "adjunction-z3", None, adjunction_reports
    yield "adjunction-z3-unit-retrieve", (feistel, "retrieve", unit_retrieve), adjunction_reports


ORACLE_CASES = list(oracle_cases())


@pytest.mark.parametrize("fault, reports", [case[1:] for case in ORACLE_CASES], ids=[case[0] for case in ORACLE_CASES])
def test_checkers_match_their_per_instance_oracles(monkeypatch, fault, reports):
    """Each checker records the failures (laws, witnesses, order) and the counts of one require per check."""
    if fault is not None:
        monkeypatch.setattr(*fault)
    for got, expected in reports():
        assert got.failures == expected.failures
        assert got.checked == expected.checked
