"""Exhaustive property sweeps shared by the unit tests and the acceptance gate."""

from __future__ import annotations

import itertools
import random

from spanforge import (
    FinMap,
    FinSet,
    SliceObject,
    all_maps,
    compose,
    conv_element,
    conv_fibre,
    conv_mult,
    conv_unit,
    coreflect,
    extend,
    full_subslice,
    hom_functor_data,
    identity,
    is_simply_presented,
    kleisli_compose,
    kleisli_fibre,
    kleisli_inverse,
    kleisli_unit,
    retrieve,
)
from spanforge.catalog import CATALOG, GROUPS, loops_and_bridges, monoid_from_rows, one_object_category, xor_group
from spanforge.feistel import end_square_holds
from spanforge.internal import InternalCategory

from keyed import KeyedViews, external_by_keys


def point_base(ic: InternalCategory, x_size: int) -> SliceObject:
    x = FinSet(x_size)
    return SliceObject(x, FinMap(x, ic.o, (0,) * x_size))


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


def slice_objects(ic: InternalCategory, x_size: int):
    x = FinSet(x_size)
    for f in all_maps(x, ic.o):
        yield SliceObject(x, f)


def every_slice_object_subslices(max_a: int):
    """(name, the full sub-slice on every slice object with |A| <= max_a) for each CATALOG instance and
    loops_and_bridges(): the instances of acceptance criterion 11."""
    cases = [(name, entry.category) for name, entry in CATALOG.items()] + [("loops_and_bridges", loops_and_bridges())]
    for name, ic in cases:
        yield name, full_subslice(ic, [obj for a in range(max_a + 1) for obj in slice_objects(ic, a)])


def symmetric_group_3():
    """The symmetric group on three letters, with its diagrammatic Cayley table: the nonabelian case."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return monoid_from_rows("s3", [[index[tuple(q[v] for v in p)] for q in perms] for p in perms])


def feistel_schedules():
    """(group, round functions) for every catalog group, xor_group(1..4) and S3: six seeded schedules
    each, of 0 to 5 rounds."""
    groups = [*GROUPS.values(), *(xor_group(bits) for bits in range(1, 5)), symmetric_group_3()]
    for group in groups:
        rng = random.Random(group.name)
        for rounds in range(6):
            yield group, [[rng.randrange(group.size) for _ in range(group.size)] for _ in range(rounds)]


def composable_base_pairs(ss):
    """(k1, k2, "k1 then k2") for each composable pair of the sub-slice's base arrows, row by row."""
    base = ss.base
    return [(k1, k2, k12) for k1, row in enumerate(base.rows) for k2, k12 in zip(base.out[base.t[k1]], row)]


def homomorphism_suite(monoids, max_x: int = 3) -> int:
    """extend is unit- and product-preserving on every fibre pair; returns pairs checked."""
    checked = 0
    for monoid in monoids:
        ic = one_object_category(monoid)
        for x_size in range(max_x + 1):
            fa = point_base(ic, x_size)
            unit_image = extend(conv_unit(fa, ic))
            assert unit_image.cell.map == kleisli_unit(fa, ic).cell.map
            fibre = conv_fibre(fa, ic)
            extended = {e.map.table: extend(e) for e in fibre}
            for s in fibre:
                for t in fibre:
                    lhs = extend(conv_mult(s, t))
                    rhs = kleisli_compose(extended[s.map.table], extended[t.map.table])
                    assert lhs.cell.map == rhs.cell.map
                    checked += 1
    return checked


def inversion_suite(monoids, max_x: int = 3) -> tuple[int, int]:
    """retrieve inverts extend; extend-retrieve fixes exactly the simply presented."""
    retrieved = fixed_checked = 0
    for monoid in monoids:
        ic = one_object_category(monoid)
        for x_size in range(max_x + 1):
            fa = point_base(ic, x_size)
            for s in conv_fibre(fa, ic):
                assert retrieve(extend(s)).map == s.map
                retrieved += 1
            for endo in kleisli_fibre(fa, ic):
                roundtrip = extend(retrieve(endo))
                fixes = roundtrip.cell.map == endo.cell.map
                assert fixes == is_simply_presented(endo)
                fixed_checked += 1
    return retrieved, fixed_checked


def groupoid_inverse_suite(groupoids, max_x: int = 3) -> int:
    """Kleisli inverses of extensions match the inversion formula extend(iota after alpha)."""
    checked = 0
    for groupoid in groupoids:
        ic = groupoid.cat
        for x_size in range(max_x + 1):
            for fa in slice_objects(ic, x_size):
                for alpha in conv_fibre(fa, ic):
                    image = extend(alpha)
                    found = kleisli_inverse(image)
                    assert found is not None
                    formula = extend(
                        conv_element(fa, ic, compose(groupoid.iota, alpha.map))
                    )
                    assert found.cell.map == formula.cell.map
                    checked += 1
    return checked


def conv_external_agreement(entries, max_a: int = 2) -> int:
    """Convolution products equal endomorphism composition in the map category."""
    checked = 0
    for entry in entries:
        ic = entry.category
        for a_size in range(max_a + 1):
            carrier = FinSet(a_size)
            fc = external_by_keys(ic, carrier)
            views = KeyedViews(fc)
            for f_key in fc.objects:
                fa = SliceObject(carrier, FinMap(carrier, ic.o, f_key))
                fibre = conv_fibre(fa, ic)
                assert sorted(e.map.table for e in fibre) == sorted(views.hom(f_key, f_key))
                unit = conv_unit(fa, ic)
                assert unit.map.table == views.ident[f_key]
                for s in fibre:
                    for t in fibre:
                        assert conv_mult(s, t).map.table == fc.comp[(s.map.table, t.map.table)]
                        checked += 1
    return checked


def coreflection_suite(monoids, max_a: int = 2, max_b: int = 2) -> int:
    """The nearest-simply-presented object satisfies the universal property.

    Every endomorphism morphism out of a simply presented object factors
    uniquely through the counit, and morphisms between simply presented
    objects have equal components.
    """
    checked = 0
    for monoid in monoids:
        ic = one_object_category(monoid)
        for a_size in range(max_a + 1):
            fa = point_base(ic, a_size)
            for target in kleisli_fibre(fa, ic):
                nearest, counit_second = coreflect(target)
                assert is_simply_presented(nearest)
                assert counit_second == target.prime
                # the counit really is a morphism nearest -> target
                assert end_square_holds(nearest, target, identity(fa.a), counit_second)
                for b_size in range(max_b + 1):
                    gb = point_base(ic, b_size)
                    candidates = list(all_maps(gb.a, fa.a))
                    for source_elem in conv_fibre(gb, ic):
                        sp = extend(source_elem)
                        for phi in candidates:
                            for psi in candidates:
                                if not end_square_holds(sp, target, phi, psi):
                                    continue
                                factorizations = [
                                    sigma
                                    for sigma in candidates
                                    if end_square_holds(sp, nearest, sigma, sigma)
                                    and sigma == phi
                                    and compose(counit_second, sigma) == psi
                                ]
                                assert len(factorizations) == 1
                                checked += 1
    return checked


def equal_components_suite(monoids, max_a: int = 2, max_b: int = 2) -> int:
    """Morphisms between simply presented objects have equal components."""
    checked = 0
    for monoid in monoids:
        ic = one_object_category(monoid)
        for a_size in range(max_a + 1):
            fa = point_base(ic, a_size)
            sp_a = [extend(e) for e in conv_fibre(fa, ic)]
            for b_size in range(max_b + 1):
                gb = point_base(ic, b_size)
                sp_b = [extend(e) for e in conv_fibre(gb, ic)]
                maps = list(all_maps(gb.a, fa.a))
                for u in sp_b:
                    for v in sp_a:
                        for phi in maps:
                            for psi in maps:
                                if end_square_holds(u, v, phi, psi):
                                    assert phi == psi
                                    checked += 1
    return checked
