import gc
import importlib
import itertools
import pkgutil
import tracemalloc

import pytest
import spanforge
from hypothesis import given, settings, strategies as st

from spanforge import (
    CodomainMismatch,
    DomainMismatch,
    FinMap,
    FinSet,
    MalformedTables,
    SquareDoesNotCommute,
    all_maps,
    compose,
    identity,
    invert,
    is_bijection,
    mediating,
    product,
    pullback,
)
from spanforge import (
    ConvElement,
    KleisliEndo,
    SliceObject,
    TwoCell,
    conv_fibre,
    conv_mult,
    kleisli_compose,
    kleisli_fibre,
)
from spanforge.catalog import CATALOG, MONOIDS, loops_and_bridges, one_object_category
from spanforge.feistel import free_module, module_plan
from spanforge.fib import default_subslice
from spanforge.finset import CACHE_SIZE, constant, group_by_value, pair_position, terminal_map

from util import pairs


def sizes(upper):
    return range(upper + 1)


class TestFinSetAndMap:
    def test_table_entries_bounded(self):
        with pytest.raises(MalformedTables):
            FinMap(FinSet(1), FinSet(1), (1,))
        with pytest.raises(MalformedTables):
            FinMap(FinSet(2), FinSet(2), (0,))

    def test_booleans_rejected(self):
        # True == 1 as a value and as a dict key, so a bool would pass for an int
        with pytest.raises(MalformedTables, match="^set size must be a non-negative int, got True$"):
            FinSet(True)
        with pytest.raises(MalformedTables, match="^entry True at index 0 not below 2$"):
            FinMap(FinSet(2), FinSet(2), (True, False))

    def test_iterates_over_its_elements(self):
        assert list(FinSet(3)) == [0, 1, 2]
        assert list(FinSet(2)) == [0, 1]

    def test_empty_sets_allowed(self):
        empty = FinSet(0)
        f = FinMap(empty, FinSet(3), ())
        assert compose(f, identity(empty)).table == ()


class TestCompose:
    def test_identity_then_swap_is_swap(self):
        two = FinSet(2)
        swap = FinMap(two, two, (1, 0))
        assert compose(identity(two), swap) == swap
        assert compose(swap, identity(two)) == swap

    def test_constant_then_negation(self):
        three, two = FinSet(3), FinSet(2)
        const0 = constant(three, two, 0)
        negation = FinMap(two, two, (1, 0))
        assert compose(negation, const0) == constant(three, two, 1)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose(identity(FinSet(2)), identity(FinSet(3)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pointwise_oracle(self, data):
        a = data.draw(st.integers(0, 5))
        b = data.draw(st.integers(1, 5))
        c = data.draw(st.integers(1, 5))
        f_table = data.draw(st.lists(st.integers(0, b - 1), min_size=a, max_size=a))
        g_table = data.draw(st.lists(st.integers(0, c - 1), min_size=b, max_size=b))
        f = FinMap(FinSet(a), FinSet(b), tuple(f_table))
        g = FinMap(FinSet(b), FinSet(c), tuple(g_table))
        composite = compose(g, f)
        for x in range(a):
            assert composite(x) == g_table[f_table[x]]

    def test_associative_and_unital_exhaustively(self):
        # every composable triple between sets of size <= 3
        for a, b, c, d in itertools.product(sizes(3), repeat=4):
            A, B, C, D = FinSet(a), FinSet(b), FinSet(c), FinSet(d)
            for f in all_maps(A, B):
                assert compose(f, identity(A)) == f
                assert compose(identity(B), f) == f
                for g in all_maps(B, C):
                    gf = compose(g, f)
                    for h in all_maps(C, D):
                        assert compose(h, gf) == compose(compose(h, g), f)


def off_pairs_by_scan(pb):
    """pair_position equals a scan of the pairs on every pair of the feet, and is None past them.

    Returns how many pairs of the feet are not pairs of pb.
    """
    index = {pair: i for i, pair in enumerate(pairs(pb))}
    n_left, n_right = pb.proj_left.cod.size, pb.proj_right.cod.size
    for a in range(n_left):
        for b in range(n_right):
            assert pair_position(pb, a, b) == index.get((a, b))
    for a, b in ((-1, 0), (0, -1), (n_left, 0), (0, n_right), (True, 0), (0, True), (False, False), (0.0, 0)):
        assert pair_position(pb, a, b) is None
    return n_left * n_right - len(index)


class TestPullback:
    def test_pullback_of_identities_is_diagonal(self):
        two = FinSet(2)
        pb = pullback(identity(two), identity(two))
        assert pb.apex.size == 2
        assert pairs(pb) == ((0, 0), (1, 1))

    def test_pullback_over_terminal_is_product(self):
        pb = pullback(terminal_map(FinSet(2)), terminal_map(FinSet(3)))
        assert pb.apex.size == 6

    def test_parity_pullback(self):
        four, two = FinSet(4), FinSet(2)
        parity = FinMap(four, two, (0, 1, 0, 1))
        pb = pullback(parity, identity(two))
        # oracle: enumerate matching pairs directly
        expected = tuple((a, b) for a in range(4) for b in range(2) if parity(a) == b)
        assert pairs(pb) == expected
        assert pb.apex.size == 4

    def test_codomain_mismatch(self):
        with pytest.raises(CodomainMismatch):
            pullback(identity(FinSet(2)), identity(FinSet(3)))

    def test_elements_strictly_lexicographic(self):
        for a, b, c in itertools.product(sizes(3), sizes(3), sizes(2)):
            for f in all_maps(FinSet(a), FinSet(c)):
                for g in all_maps(FinSet(b), FinSet(c)):
                    elems = pairs(pullback(f, g))
                    assert all(elems[i] < elems[i + 1] for i in range(len(elems) - 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_elems_match_the_pairwise_scan(self, data):
        # includes empty domains, an empty codomain, and legs whose images do not meet
        cod = FinSet(data.draw(st.integers(0, 6)))
        values = st.integers(0, cod.size - 1) if cod.size else st.nothing()
        left = data.draw(st.lists(values, max_size=8 if cod.size else 0))
        right = data.draw(st.lists(values, max_size=8 if cod.size else 0))
        f = FinMap(FinSet(len(left)), cod, tuple(left))
        g = FinMap(FinSet(len(right)), cod, tuple(right))
        expected = tuple((a, b) for a in range(len(left)) for b in range(len(right)) if left[a] == right[b])
        pb = pullback(f, g)
        assert pairs(pb) == expected
        assert (pb.proj_left.table, pb.proj_right.table) == (
            tuple(a for a, _ in expected), tuple(b for _, b in expected))
        off_pairs_by_scan(pb)

    def test_legs_with_disjoint_images_have_an_empty_pullback(self):
        cod = FinSet(4)
        assert pairs(pullback(FinMap(FinSet(3), cod, (0, 1, 0)), FinMap(FinSet(2), cod, (2, 3)))) == ()

    def test_a_large_pullback_holds_only_its_projections_and_layout(self):
        # the composable pairs of the pair groupoid on 40 objects, legs built here so no cache holds them
        o, m = FinSet(40), FinSet(1600)
        c = FinMap(m, o, tuple(x % 40 for x in range(1600)))
        d = FinMap(m, o, tuple(x // 40 for x in range(1600)))
        gc.collect()
        tracemalloc.start()
        try:
            pb = pullback(c, d)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pb.apex.size == 64_000
        # 1.2 MB measured with CPython 3.11, d's grouping included; the list of pairs it replaced made it 5.3 MB
        assert retained < 2_000_000

    def test_pullbacks_along_one_right_leg_share_its_grouping(self):
        cod = FinSet(3)
        g = FinMap(FinSet(4), cod, (2, 0, 2, 1))
        first = pullback(identity(cod), g)
        second = pullback(FinMap(FinSet(2), cod, (1, 1)), FinMap(FinSet(4), cod, (2, 0, 2, 1)))
        assert (first.out, first.pos) == group_by_value(g.table, 3)
        assert second.out is first.out and second.pos is first.pos

    def test_square_commutes(self):
        four, two = FinSet(4), FinSet(2)
        parity = FinMap(four, two, (0, 1, 0, 1))
        pb = pullback(parity, identity(two))
        assert compose(parity, pb.proj_left) == compose(identity(two), pb.proj_right)


class TestMediating:
    def test_diagonal_from_identity_cone(self):
        two = FinSet(2)
        pb = pullback(identity(two), identity(two))
        h = mediating(pb, identity(two), identity(two))
        assert h.table == (0, 1)

    def test_unique_factorization_exhaustively(self):
        # every commuting cone over small legs factors exactly once
        for a, b, c, x in itertools.product(sizes(2), sizes(2), sizes(2), sizes(2)):
            A, B, C, X = FinSet(a), FinSet(b), FinSet(c), FinSet(x)
            for f in all_maps(A, C):
                for g in all_maps(B, C):
                    pb = pullback(f, g)
                    for u in all_maps(X, A):
                        for v in all_maps(X, B):
                            if compose(f, u) != compose(g, v):
                                continue
                            h = mediating(pb, u, v)
                            assert compose(pb.proj_left, h) == u
                            assert compose(pb.proj_right, h) == v
                            others = [
                                k
                                for k in all_maps(X, pb.apex)
                                if compose(pb.proj_left, k) == u
                                and compose(pb.proj_right, k) == v
                            ]
                            assert others == [h]

    def test_unique_factorization_spot_size_four(self):
        four, two, X = FinSet(4), FinSet(2), FinSet(3)
        f = FinMap(four, two, (0, 1, 0, 1))
        g = FinMap(four, two, (0, 0, 1, 1))
        pb = pullback(f, g)
        u = FinMap(X, four, (0, 1, 2))
        v = FinMap(X, four, (1, 2, 0))
        assert compose(f, u) == compose(g, v)
        h = mediating(pb, u, v)
        assert compose(pb.proj_left, h) == u
        assert compose(pb.proj_right, h) == v
        candidates = [
            k
            for k in all_maps(X, pb.apex)
            if compose(pb.proj_left, k) == u and compose(pb.proj_right, k) == v
        ]
        assert candidates == [h]

    def test_noncommuting_cone_rejected(self):
        two = FinSet(2)
        pb = pullback(identity(two), identity(two))
        swap = FinMap(two, two, (1, 0))
        with pytest.raises(SquareDoesNotCommute, match=r"^cone does not commute at element 0: pair \(0, 1\)$"):
            mediating(pb, identity(two), swap)


class TestPairPosition:
    def test_layout_matches_a_scan_of_elems(self):
        off = 0
        for ic in [entry.category for entry in CATALOG.values()] + [loops_and_bridges()]:
            pb = ic.composable
            assert (pb.out, pb.pos) == group_by_value(ic.d.table, ic.o.size)
            off += off_pairs_by_scan(pb)
            for obj in default_subslice(ic).objects:
                fm = free_module(obj, ic)
                off += off_pairs_by_scan(fm.pb)
                plan = module_plan(obj, ic)
                assert (plan.start, plan.pos) == (fm.pb.start, fm.pb.pos)
                assert plan.pos is plan.ic.tables.pos
        assert off > 0


class TestProduct:
    def test_sizes(self):
        assert product(FinSet(2), FinSet(3)).apex.size == 6
        assert product(FinSet(0), FinSet(5)).apex.size == 0
        assert product(FinSet(5), FinSet(0)).apex.size == 0

    def test_projections_recover_coordinates(self):
        pb = product(FinSet(2), FinSet(3))
        seen = set()
        for i, (a, b) in enumerate(pairs(pb)):
            assert pb.proj_left(i) == a
            assert pb.proj_right(i) == b
            seen.add((a, b))
        assert seen == {(a, b) for a in range(2) for b in range(3)}


class TestBijections:
    def test_invert_roundtrip(self):
        three = FinSet(3)
        f = FinMap(three, three, (2, 0, 1))
        assert is_bijection(f)
        assert compose(invert(f), f) == identity(three)
        assert compose(f, invert(f)) == identity(three)

    def test_invert_rejects_noninjective(self):
        with pytest.raises(MalformedTables):
            invert(FinMap(FinSet(2), FinSet(2), (0, 0)))


class TestCaches:
    def test_every_cache_is_bounded(self):
        caches = {}
        for info in pkgutil.iter_modules(spanforge.__path__):
            module = importlib.import_module(f"spanforge.{info.name}")
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    caches[name] = obj.cache_info().maxsize
        assert set(caches) == {
            "grouping",
            "pullback",
            "tensor",
            "identity_cell",
            "reassociate",
            "mu_cell",
            "eta_cell",
            "module_plan",
        }
        assert set(caches.values()) == {CACHE_SIZE}

    def test_element_memos_are_bounded(self):
        # z3 over |A| = 6 has 729 elements and over |A| = 3 has 729 endomorphisms
        z3 = one_object_category(MONOIDS["z3"])

        def point_base(size):
            a = FinSet(size)
            return SliceObject(a, FinMap(a, z3.o, (0,) * size))

        fa = point_base(6)
        fibre = conv_fibre(fa, z3)
        assert len(fibre) > CACHE_SIZE
        plan = fibre[0].plan
        for s in fibre:
            table = tuple((x + y) % 3 for x, y in zip(s.map.table, fibre[5].map.table))
            fresh = ConvElement(plan, TwoCell(fa.span, z3.mor_span, FinMap(fa.a, z3.m, table)))
            assert conv_mult(s, fibre[5]) == fresh
        assert len(plan.convs) == CACHE_SIZE

        fa = point_base(3)
        endos = kleisli_fibre(fa, z3)
        assert len(endos) > CACHE_SIZE
        plan = endos[0].plan
        apex = plan.fm.span.apex
        beta = endos[100].cell.map.table
        for alpha in endos:
            table = []
            for slot in alpha.cell.map.table:
                x1, m1 = divmod(slot, 3)
                x2, m2 = divmod(beta[x1], 3)
                table.append(3 * x2 + (m1 + m2) % 3)
            fresh = KleisliEndo(plan, TwoCell(fa.span, plan.fm.span, FinMap(fa.a, apex, tuple(table))))
            assert kleisli_compose(endos[100], alpha) == fresh
        assert len(plan.endos) == CACHE_SIZE


ID1, ID2 = identity(FinSet(1)), identity(FinSet(2))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: constant(FinSet(2), FinSet(1), 1), MalformedTables, "constant value 1 not below 1"),
        (lambda: mediating(pullback(ID1, ID1), ID1, ID2), DomainMismatch, "cone legs must share a domain"),
        (lambda: mediating(pullback(ID1, ID1), ID2, ID2), CodomainMismatch, "cone legs must target the pullback feet"),
    ],
    ids=["constant value", "cone domains", "cone feet"],
)
def test_finset_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
