from collections import Counter

import pytest

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
    kleisli_unit,
    transport_conv,
)
from spanforge.catalog import (
    MONOIDS,
    discrete_category,
    one_object_category,
    one_object_groupoid,
    pair_groupoid,
)
from spanforge.feistel import conv_base_change, endo_base_change
from spanforge.internal import FiniteCategory, apply_lex_functor
from spanforge.report import ReportBuilder

from suites import point_base

Z2 = one_object_category(MONOIDS["z2"])


def single_object_subslice(ic, fa):
    """Non-full sub-slice: one object, only its identity arrow."""
    return SubSlice(ic, (fa,), (TwoCell(fa.span, fa.span, identity(fa.a)),))


class TestSubSlice:
    def test_identity_required(self):
        fa = point_base(Z2, 1)
        with pytest.raises(MalformedTables):
            SubSlice(Z2, (fa,), ())

    def test_closure_required(self):
        fa = point_base(Z2, 2)
        ident = TwoCell(fa.span, fa.span, identity(fa.a))
        swap = TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, (1, 0)))
        # swap composed with itself is the identity: fine; but swap-after-swap
        # plus a third map breaks closure when the composite is missing
        step = TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, (0, 0)))
        with pytest.raises(MalformedTables):
            SubSlice(Z2, (fa,), (ident, swap, step))

    def test_duplicate_objects_rejected(self):
        fa = point_base(Z2, 1)
        with pytest.raises(MalformedTables):
            SubSlice(Z2, (fa, fa), (TwoCell(fa.span, fa.span, identity(fa.a)),))

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
        assert all(fi.base.src[k] == fi.base.dst[k] for k in fi.base.arrows)

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
            for (k1, k2), k12 in base.comp.items():
                i = base.src[k1]
                j = base.dst[k1]
                l = base.dst[k2]
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
        for t in fi.total.objects:
            lift = fi.total.ident[t]
            assert fi.proj.arrow_map[lift] == fi.base.ident[fi.proj.object_map[t]]

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
        for (k1, k2), k12 in base.comp.items():
            i, j, l = base.src[k1], base.dst[k1], base.dst[k2]
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
        fc = FiniteCategory(("x",), ("id",), {"id": "x"}, {"id": "x"}, {"x": "id"}, {("id", "id"): "id"})
        fi = FibrationInstance(fc, fc, FunctorData(fc, fc, {"x": "x"}, {"id": "id"}))
        assert check_discrete_fibration(fi).passed

    def test_parallel_pair_defect_reports_lift_count_two(self):
        base = FiniteCategory(
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
        total = FiniteCategory(
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
        proj = FunctorData(
            total,
            base,
            {"a": "x", "b": "y"},
            {"ia": "ix", "ib": "iy", "g1": "u", "g2": "u"},
        )
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
        assert len(iso.forward.object_map) == 4

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
        for key, value in result.conv_map.object_map.items():
            assert key == value

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
        for key, mid in first.conv_map.object_map.items():
            assert second.conv_map.object_map[mid] == combined.conv_map.object_map[key]
        for key, mid in first.conv_map.arrow_map.items():
            assert second.conv_map.arrow_map[mid] == combined.conv_map.arrow_map[key]


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
    """Count every ReportBuilder.require call by law name from now on."""
    counts = Counter()
    require = ReportBuilder.require

    def counting(self, condition, law, witness=None):
        counts[law] += 1
        return require(self, condition, law, witness)

    monkeypatch.setattr(ReportBuilder, "require", counting)
    return counts


Z3 = one_object_groupoid(MONOIDS["z3"])
REAL_EXTEND, REAL_KLEISLI_ENDO = fib.extend, fib.kleisli_endo


def inverting_extend(alpha):
    """extend after pointwise inversion: a bijection on each fibre, but not extend."""
    return REAL_EXTEND(conv_element(alpha.base, alpha.target, compose(Z3.iota, alpha.map)))


def inverting_kleisli_endo(fa, ic, apex_map):
    """Decodes an endomorphism key to the extension of its inverted arrow component."""
    bar = REAL_KLEISLI_ENDO(fa, ic, apex_map).bar
    return REAL_EXTEND(conv_element(fa, ic, compose(Z3.iota, bar)))


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

    @pytest.mark.parametrize(
        "name, corrupted",
        [("extend", inverting_extend), ("kleisli_endo", inverting_kleisli_endo)],
    )
    def test_transport_reports_a_corrupted_move(self, monkeypatch, name, corrupted):
        ss = default_subslice(Z3.cat)
        k = identity_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, Z3.cat))
        assert transport_conv(k, functor, ss).report.passed
        monkeypatch.setattr(fib, name, corrupted)
        report = transport_conv(k, functor, ss).report
        assert failed_laws(report) == (["intertwine-arrows", "intertwine-objects"], 72)
