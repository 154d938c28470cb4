import itertools

import pytest

from spanforge import (
    BaseMismatch,
    ConditionFails,
    DomainMismatch,
    FinMap,
    FinSet,
    MalformedTables,
    SliceObject,
    Span,
    TwoCell,
    compose,
    compose_cells,
    diagonal,
    identity,
    identity_cell,
    invert,
    is_bijection,
    pair_cells,
    reassociate,
    tensor,
    tensor_cells,
)
from spanforge.catalog import pair_groupoid
from spanforge.span import cell_choices

from util import all_cells, all_spans, pairs, point_slice, slice_object

ONE = FinSet(1)
TWO = FinSet(2)


def unit_span(o: FinSet) -> Span:
    return Span(o, o, identity(o), identity(o))


def symmetric(fa: SliceObject) -> Span:
    return fa.span


class TestTensor:
    def test_unit_tensor_recovers_arrow_object(self):
        ic = pair_groupoid(2).cat
        result = tensor(unit_span(ic.o), ic.mor_span)
        # the right projection is a bijection onto M
        assert is_bijection(result.proj_right)
        assert result.span.apex.size == ic.m.size

    def test_tensor_over_point_is_product(self):
        x = Span(ONE, FinSet(2), *(2 * (FinMap(FinSet(2), ONE, (0, 0)),)))
        y = Span(ONE, FinSet(3), *(2 * (FinMap(FinSet(3), ONE, (0, 0, 0)),)))
        assert tensor(x, y).span.apex.size == 6

    def test_pair_groupoid_self_tensor_counts_triples(self):
        ic = pair_groupoid(2).cat
        result = tensor(ic.mor_span, ic.mor_span)
        # oracle: composable pairs of pair-groupoid arrows are triples (a, b, c)
        assert result.span.apex.size == 2 * 2 * 2

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            tensor(unit_span(ONE), unit_span(TWO))


class TestTensorCells:
    def test_identities_tensor_to_identity(self):
        ic = pair_groupoid(2).cat
        t = tensor_cells(identity_cell(ic.mor_span), identity_cell(ic.mor_span))
        expected = identity_cell(tensor(ic.mor_span, ic.mor_span).span)
        assert t.map == expected.map

    def test_projection_equations_hold_pointwise(self):
        o = TWO
        spans = list(all_spans(o, 1))
        cells = [c for s1 in spans for s2 in spans for c in all_cells(s1, s2)]
        for t in cells:
            for s in cells:
                ts = tensor_cells(t, s)
                src_pb = tensor(t.src, s.src).pb
                dst_pb = tensor(t.dst, s.dst).pb
                for i, (a, b) in enumerate(pairs(src_pb)):
                    assert pairs(dst_pb)[ts.map.table[i]] == (t(a), s(b))

    def test_interchange_exhaustive_small(self):
        o = TWO
        spans = [s for s in all_spans(o, 1)]
        # all composable cell pairs among spans with apex <= 1
        cells = [(s1, s2, c) for s1 in spans for s2 in spans for c in all_cells(s1, s2)]
        for (x, x1, t) in cells:
            for (x1b, x2, t2) in cells:
                if x1b != x1:
                    continue
                for (y, y1, s) in cells:
                    for (y1b, y2, s2) in cells:
                        if y1b != y1:
                            continue
                        lhs = tensor_cells(compose_cells(t2, t), compose_cells(s2, s))
                        rhs = compose_cells(tensor_cells(t2, s2), tensor_cells(t, s))
                        assert lhs.map == rhs.map

    def test_interchange_sampled_up_to_apex_three(self):
        import random

        o = TWO
        spans = list(all_spans(o, 3))
        cells = [(s1, s2, c) for s1 in spans for s2 in spans for c in all_cells(s1, s2)]
        by_src = {}
        for entry in cells:
            by_src.setdefault(entry[0], []).append(entry)
        composable = [
            (first, second)
            for first in cells
            for second in by_src.get(first[1], ())
        ]
        rng = random.Random(31)
        for _ in range(400):
            (x, x1, t), (_, x2, t2) = rng.choice(composable)
            (y, y1, s), (_, y2, s2) = rng.choice(composable)
            lhs = tensor_cells(compose_cells(t2, t), compose_cells(s2, s))
            rhs = compose_cells(tensor_cells(t2, s2), tensor_cells(t, s))
            assert lhs.map == rhs.map


class TestDiagonal:
    def test_diagonal_table(self):
        fa = slice_object(2, TWO, (0, 1))
        delta = diagonal(fa)
        pb = tensor(fa.span, fa.span).pb
        for a in range(2):
            assert pairs(pb)[delta(a)] == (a, a)

    def test_projections_after_diagonal_are_identity(self):
        for table in itertools.product(range(2), repeat=2):
            fa = slice_object(2, TWO, table)
            delta = diagonal(fa)
            result = tensor(fa.span, fa.span)
            assert compose(result.proj_left, delta.map) == identity(fa.a)
            assert compose(result.proj_right, delta.map) == identity(fa.a)

    def test_tensor_of_slices_is_product_spot_size_three(self):
        o = TWO
        fa = slice_object(3, o, (0, 1, 0))
        gb = slice_object(3, o, (0, 0, 1))
        result = tensor(fa.span, gb.span)
        for x_size in range(3):
            for hx_t in itertools.product(range(2), repeat=x_size):
                hx = slice_object(x_size, o, hx_t)
                for u in all_cells(hx.span, fa.span):
                    for v in all_cells(hx.span, gb.span):
                        w = pair_cells(u, v)
                        assert compose(result.proj_left, w.map) == u.map
                        assert compose(result.proj_right, w.map) == v.map
                        others = [
                            k
                            for k in all_cells(hx.span, result.span)
                            if compose(result.proj_left, k.map) == u.map
                            and compose(result.proj_right, k.map) == v.map
                        ]
                        assert [k.map for k in others] == [w.map]

    def test_tensor_of_slices_is_product(self):
        # every cone out of a slice object factors uniquely through the tensor
        o = TWO
        for a_size, b_size, x_size in itertools.product(range(3), range(3), range(3)):
            for fa_t in itertools.product(range(2), repeat=a_size):
                fa = slice_object(a_size, o, fa_t)
                for gb_t in itertools.product(range(2), repeat=b_size):
                    gb = slice_object(b_size, o, gb_t)
                    result = tensor(fa.span, gb.span)
                    for hx_t in itertools.product(range(2), repeat=x_size):
                        hx = slice_object(x_size, o, hx_t)
                        for u in all_cells(hx.span, fa.span):
                            for v in all_cells(hx.span, gb.span):
                                w = pair_cells(u, v)
                                assert compose(result.proj_left, w.map) == u.map
                                assert compose(result.proj_right, w.map) == v.map
                                others = [
                                    k
                                    for k in all_cells(hx.span, result.span)
                                    if compose(result.proj_left, k.map) == u.map
                                    and compose(result.proj_right, k.map) == v.map
                                ]
                                assert [k.map for k in others] == [w.map]


class TestPairCells:
    def test_pairing_with_identity(self):
        ic = pair_groupoid(2).cat
        fa = point_slice(ic.o, 0)
        for alpha in all_cells(fa.span, ic.mor_span):
            paired = pair_cells(identity_cell(fa.span), alpha)
            pb = tensor(fa.span, ic.mor_span).pb
            for a in range(fa.a.size):
                assert pairs(pb)[paired(a)] == (a, alpha(a))

    def test_equals_tensor_after_diagonal(self):
        o = TWO
        for a_size in range(3):
            for fa_t in itertools.product(range(2), repeat=a_size):
                fa = slice_object(a_size, o, fa_t)
                for xbar in all_spans(o, 2):
                    for mbar in all_spans(o, 2):
                        for xi in all_cells(fa.span, xbar):
                            for alpha in all_cells(fa.span, mbar):
                                direct = pair_cells(xi, alpha)
                                via_tensor = compose_cells(
                                    tensor_cells(xi, alpha), diagonal(fa)
                                )
                                assert direct.map == via_tensor.map

    def test_convolution_square_diagram(self):
        # both composite paths from the slice to f . M . M agree
        ic = pair_groupoid(2).cat
        fa = slice_object(2, ic.o, (0, 1))
        mspan = ic.mor_span
        delta = diagonal(fa)
        for alpha in all_cells(fa.span, mspan):
            for beta in all_cells(fa.span, mspan):
                top = compose_cells(
                    tensor_cells(tensor_cells(identity_cell(fa.span), alpha), identity_cell(mspan)),
                    compose_cells(tensor_cells(delta, beta), delta),
                )
                bottom = compose_cells(
                    tensor_cells(identity_cell(fa.span), tensor_cells(alpha, beta)),
                    compose_cells(tensor_cells(identity_cell(fa.span), delta), delta),
                )
                rebracket = reassociate(fa.span, mspan, mspan)
                assert compose_cells(rebracket, top).map == bottom.map

    def test_condition_failure_needs_asymmetric_source(self):
        o = TWO
        src = Span(o, ONE, FinMap(ONE, o, (0,)), FinMap(ONE, o, (1,)))
        left_target = Span(o, ONE, FinMap(ONE, o, (0,)), FinMap(ONE, o, (1,)))
        right_target = Span(o, ONE, FinMap(ONE, o, (0,)), FinMap(ONE, o, (1,)))
        xi = TwoCell(src, left_target, identity(ONE))
        alpha = TwoCell(src, right_target, identity(ONE))
        with pytest.raises(ConditionFails):
            pair_cells(xi, alpha)


class TestReassociate:
    def test_always_a_bijection(self):
        o = TWO
        spans = list(all_spans(o, 2))[:6]
        for x in spans:
            for y in spans:
                for z in spans:
                    cell = reassociate(x, y, z)
                    assert is_bijection(cell.map)

    def test_inverse_composes_to_identity(self):
        ic = pair_groupoid(2).cat
        m = ic.mor_span
        cell = reassociate(m, m, m)
        inverse = invert(cell.map)
        assert compose(inverse, cell.map) == identity(cell.src.apex)
        assert compose(cell.map, inverse) == identity(cell.dst.apex)

    def test_pentagon_compatibility(self):
        # ((w.x).y).z -> w.(x.(y.z)) along both rebracketing routes
        ic = pair_groupoid(2).cat
        fa = slice_object(2, ic.o, (0, 1))
        w, z = fa.span, fa.span
        x = y = ic.mor_span
        wx = tensor(w, x).span
        xy = tensor(x, y).span
        yz = tensor(y, z).span
        short_route = compose_cells(
            reassociate(w, x, yz), reassociate(wx, y, z)
        )
        long_route = compose_cells(
            tensor_cells(identity_cell(w), reassociate(x, y, z)),
            compose_cells(
                reassociate(w, xy, z),
                tensor_cells(reassociate(w, x, y), identity_cell(z)),
            ),
        )
        assert short_route.src == long_route.src
        assert short_route.dst == long_route.dst
        assert short_route.map == long_route.map


class TestCalculationRuleFour:
    def test_right_projection_is_a_cell(self):
        ic = pair_groupoid(2).cat
        for fa_t in itertools.product(range(2), repeat=2):
            fa = slice_object(2, ic.o, fa_t)
            result = tensor(fa.span, ic.mor_span)
            # constructing the cell validates both triangles
            TwoCell(result.span, ic.mor_span, result.proj_right)

    def test_left_projection_after_cell_is_a_cell(self):
        ic = pair_groupoid(2).cat
        fa = slice_object(2, ic.o, (0, 1))
        result = tensor(fa.span, ic.mor_span)
        for alpha in all_cells(fa.span, result.span):
            TwoCell(fa.span, fa.span, compose(result.proj_left, alpha.map))

    def test_both_squares_for_slice_cells(self):
        ic = pair_groupoid(2).cat
        o = ic.o
        for a_size, b_size in itertools.product(range(4), range(4)):
            for fa_t in itertools.product(range(2), repeat=a_size):
                fa = slice_object(a_size, o, fa_t)
                fa_result = tensor(fa.span, ic.mor_span)
                for gb_t in itertools.product(range(2), repeat=b_size):
                    gb = slice_object(b_size, o, gb_t)
                    gb_result = tensor(gb.span, ic.mor_span)
                    for phi in all_cells(fa.span, gb.span):
                        moved = tensor_cells(phi, identity_cell(ic.mor_span))
                        assert (
                            compose(gb_result.proj_right, moved.map) == fa_result.proj_right
                        )
                        assert compose(gb_result.proj_left, moved.map) == compose(
                            phi.map, fa_result.proj_left
                        )


class TestTwoCellValidation:
    def test_invalid_triangle_rejected(self):
        o = TWO
        src = Span(o, ONE, FinMap(ONE, o, (0,)), FinMap(ONE, o, (0,)))
        dst = Span(o, ONE, FinMap(ONE, o, (1,)), FinMap(ONE, o, (1,)))
        with pytest.raises(MalformedTables):
            TwoCell(src, dst, identity(ONE))

    def test_cell_choices_multiply_out_to_every_cell(self):
        spans = list(all_spans(TWO, 2))
        for src, dst in itertools.product(spans, spans):
            cells = [cell.map.table for cell in all_cells(src, dst)]
            assert list(itertools.product(*cell_choices(src, dst))) == cells


OVER_TWO = Span(TWO, ONE, FinMap(ONE, TWO, (0,)), FinMap(ONE, TWO, (0,)))
OVER_TWO_TWISTED = Span(TWO, ONE, FinMap(ONE, TWO, (0,)), FinMap(ONE, TWO, (1,)))
TWO_POINTS = Span(ONE, TWO, FinMap(TWO, ONE, (0, 0)), FinMap(TWO, ONE, (0, 0)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Span(ONE, TWO, identity(ONE), FinMap(TWO, ONE, (0, 0))), MalformedTables,
         "span legs must share the apex as domain"),
        (lambda: Span(ONE, ONE, FinMap(ONE, TWO, (0,)), identity(ONE)), MalformedTables,
         "span legs must land in the base object"),
        (lambda: TwoCell(unit_span(ONE), unit_span(ONE), FinMap(TWO, ONE, (0, 0))), MalformedTables,
         "cell map must go from source apex to target apex"),
        (lambda: TwoCell(unit_span(ONE), OVER_TWO, identity(ONE)), BaseMismatch,
         "cells only exist between spans over the same base"),
        (lambda: cell_choices(unit_span(ONE), OVER_TWO), BaseMismatch,
         "cells only exist between spans over the same base"),
        (lambda: TwoCell(OVER_TWO, OVER_TWO_TWISTED, identity(ONE)), MalformedTables,
         "right triangle does not commute"),
        (lambda: compose_cells(identity_cell(unit_span(ONE)), identity_cell(TWO_POINTS)), DomainMismatch,
         "cells do not meet: target of first != source of second"),
        (lambda: tensor_cells(identity_cell(unit_span(ONE)), identity_cell(unit_span(TWO))), BaseMismatch,
         "cell tensor factors must share the base object"),
        (lambda: pair_cells(identity_cell(unit_span(ONE)), identity_cell(TWO_POINTS)), DomainMismatch,
         "paired cells must share a source span"),
        (lambda: reassociate(unit_span(ONE), unit_span(ONE), unit_span(TWO)), BaseMismatch,
         "reassociation factors must share the base object"),
    ],
    ids=["apex", "base", "cell ends", "cell base", "choices base", "right triangle", "compose", "tensor", "pair", "reassociate"],
)
def test_span_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
