"""Every exponential enumeration goes through internal.budget: each call site refuses past the cap."""

import itertools
import json
import re
import time
import tracemalloc
from pathlib import Path

import pytest

from spanforge import (
    FinMap,
    FinSet,
    InternalCategory,
    MalformedTables,
    SliceObject,
    SizeLimitExceeded,
    SubSlice,
    TwoCell,
    build_endo_fibration,
    check_internal_category,
    conv_fibre,
    conv_unit,
    default_subslice,
    external_category,
    full_subslice,
    hom_functor_data,
    identity,
    identity_functor_data,
    identity_internal_functor,
    kleisli_fibre,
    kleisli_inverse,
    kleisli_unit,
    toffoli_extend,
    transport_conv,
    verify_adjunction,
)
from spanforge.catalog import CATALOG, MONOIDS, one_object_category, pair_groupoid
from spanforge import fib
from spanforge.cli import build_parser, main
from spanforge.feistel import module_plan, slice_cells
from spanforge.internal import apply_lex_functor, capped_product

from suites import hom_fragment_for, point_base

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Z2 = one_object_category(MONOIDS["z2"])
AND2 = one_object_category(MONOIDS["and2"])


KLEIN4 = {  # klein4 on one object
    "kind": "internal-category", "o_size": 1, "m_size": 4, "d": [0] * 4, "c": [0] * 4, "eta": [0],
    "mu": [a ^ b for a in range(4) for b in range(4)],
}


def z2_point(size):
    return point_base(Z2, size)


def point_subslice(size, *maps):
    """A sub-slice document: one object of size points over object 0, its identity cell and a cell per map."""
    return {
        "kind": "sub-slice", "objects": [{"size": size, "map": [0] * size}],
        "arrows": [{"src": 0, "dst": 0, "map": list(phi)} for phi in (range(size), *maps)],
    }


def conv_table(*argv):
    args = build_parser().parse_args(["conv-table", str(FIXTURES / "z2_internal.json"), *argv])
    return args.func(args)


def lone_object_subslice(fa):
    return SubSlice(Z2, (fa,), (TwoCell(fa.span, fa.span, identity(fa.a)),))


def fixing_subslice(fa):
    """One object and a cell for each map of its points that fixes the last: closed under composition."""
    n = fa.a.size
    maps = (phi + (n - 1,) for phi in itertools.product(range(n), repeat=n - 1))
    return SubSlice(Z2, (fa,), tuple(TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, phi)) for phi in maps))


# (call, what the refusal names); each call passes the cap of 16 at exactly one site
SITES = {
    "conv_fibre": (lambda: conv_fibre(z2_point(5), Z2), "32 fibre elements"),
    "kleisli_fibre": (lambda: kleisli_fibre(z2_point(3), Z2), "216 free-module endomorphisms"),
    "verify_adjunction": (
        lambda: verify_adjunction([conv_unit(z2_point(5), Z2)], [kleisli_unit(z2_point(2), Z2)]),
        "32 candidate cells",
    ),
    "external_category objects": (
        lambda: external_category(pair_groupoid(2).cat, FinSet(5)),
        "2^5 external-category objects",
    ),
    "external_category arrows": (
        lambda: external_category(AND2, FinSet(5)),
        "2^5 external-category arrows",
    ),
    "external_category composites": (
        lambda: external_category(AND2, FinSet(3)),
        "4^3 external-category composites",
    ),
    "toffoli": (lambda: toffoli_extend(1, 4, (0, 0)), "2^5 Toffoli states"),
    "conv-table": (lambda: conv_table("--slice", "3", "0,0,0"), "8^2 conv-table products"),
    "full_subslice": (lambda: full_subslice(Z2, [z2_point(3), z2_point(4)]), "27 slice cells"),
    "hom_functor_data": (
        lambda: hom_functor_data(FinSet(3), [FinSet(4)], []),
        "4^3 hom-functor images",
    ),
    "build_endo_fibration": (
        lambda: build_endo_fibration(lone_object_subslice(z2_point(4))),
        "32 fibration faces",
    ),
    "SubSlice": (lambda: fixing_subslice(z2_point(3)), "81 sub-slice composites"),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_site_refuses_past_the_cap(site, monkeypatch):
    call, what = SITES[site]
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
    message = f"enumeration of {what} exceeds cap 16"
    with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
        call()


def test_cached_fibre_is_refused_after_the_cap_is_lowered(monkeypatch):
    fa = z2_point(3)
    assert len(conv_fibre(fa, Z2)) == 8  # built, its elements memoised, under the default cap
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "4")
    with pytest.raises(SizeLimitExceeded, match="^enumeration of 8 fibre elements exceeds cap 4$"):
        conv_fibre(fa, Z2)
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "8")
    assert len(conv_fibre(fa, Z2)) == 8


@pytest.mark.parametrize("raw", ["-5", "abc", ""])
def test_malformed_cap_is_refused(raw, monkeypatch):
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", raw)
    message = f"SPANFORGE_SIZE_CAP must be a non-negative int, got {raw!r}"
    with pytest.raises(MalformedTables, match=f"^{re.escape(message)}$"):
        conv_fibre(z2_point(1), Z2)


def test_a_long_cap_is_named_by_its_length(monkeypatch, capsys):
    # int() refuses a value past 4300 digits; the refusal quotes its first 20 characters, not all 5000
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "9" * 5000)
    message = f"SPANFORGE_SIZE_CAP must be a non-negative int, got 5000 characters starting {'9' * 20!r}"
    with pytest.raises(MalformedTables, match=f"^{re.escape(message)}$"):
        conv_fibre(z2_point(1), Z2)
    assert main(["conv-table", str(FIXTURES / "z2_internal.json"), "--slice", "2", "0,0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_polynomial_checks_run_under_any_cap(monkeypatch):
    """The loops over tables already built stay unbudgeted, as the README lists them."""
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "0")
    assert check_internal_category(Z2).passed
    identity_functor_data([Z2.o, Z2.m], [Z2.d, Z2.c, Z2.eta]).verify()
    unit = kleisli_unit(z2_point(3), Z2)
    assert kleisli_inverse(unit).cell.map == unit.cell.map


class TestRefusedBeforeTheWork:
    """An oversized fibration pass is refused from the fibre sizes, before any fibre is listed."""

    def test_fib_check_with_a_large_fibre(self, tmp_path, capsys, monkeypatch):
        # klein4 on one object, and one object of |A| = 9 points with its identity and its constant-0 cell:
        # a fibre of 4^9 = 262144 elements, under the cap, whose faces over the two cells are not
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        (tmp_path / "klein4.json").write_text(json.dumps(KLEIN4))
        (tmp_path / "sub.json").write_text(json.dumps(point_subslice(9, [0] * 9)))
        argv = ["fib-check", "--internal", str(tmp_path / "klein4.json"), "--subslice", str(tmp_path / "sub.json")]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: enumeration of 1048576 fibration faces exceeds cap 1000000\n"
        assert elapsed < 1.0  # the listing and the convolution fibration took seconds

    def test_transport_to_a_large_fibre(self, monkeypatch):
        # hom(2, -) sends the pair object of default_subslice(klein4) to 4 points over 16 arrows,
        # a fibre of 16^4 = 65536, and the point to a fibre of 16; each total category would hold
        # 2 293 937 composable pairs
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        ss = default_subslice(CATALOG["klein4"].category)
        k = hom_fragment_for(ss)
        functor = identity_internal_functor(apply_lex_functor(k, ss.ic))
        message = "enumeration of 2293937 fibration composites exceeds cap 1000000"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
                transport_conv(k, functor, ss)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0  # the transported convolution fibration took tens of seconds
        assert peak < 5 * 10**6  # and hundreds of MB


class TestCountsPastEighteenDigits:
    """A count is named in decimal up to 10^18; past that, no refusal multiplies it out or spells it."""

    def test_the_name_changes_past_10_to_the_18(self, monkeypatch):
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        with pytest.raises(SizeLimitExceeded, match=f"^enumeration of {2**59} fibre elements exceeds cap 1000000$"):
            conv_fibre(z2_point(59), Z2)
        message = "enumeration of more than 10^18 fibre elements exceeds cap 1000000"
        with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
            conv_fibre(z2_point(60), Z2)

    def test_a_zero_after_the_bound_still_empties_the_product(self):
        assert capped_product([10**10, 10**10, 0]) == 0
        assert capped_product([2, 3, 4]) == 24

    @pytest.mark.parametrize("command", ["fib-check", "conv-table"])
    def test_a_command_over_a_count_of_thousands_of_digits(self, tmp_path, capsys, monkeypatch, command):
        # klein4 and one object of |A| = 7200 points: a fibre of 4^7200, a count of 4 335 digits
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        internal, sub = tmp_path / "klein4.json", tmp_path / "sub.json"
        internal.write_text(json.dumps(KLEIN4))
        sub.write_text(json.dumps(point_subslice(7200)))
        argv = {
            "fib-check": ["fib-check", "--internal", str(internal), "--subslice", str(sub)],
            "conv-table": ["conv-table", str(internal), "--slice", "7200", ",".join(["0"] * 7200)],
        }[command]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: enumeration of more than 10^18 fibre elements exceeds cap 1000000\n"
        assert elapsed < 1.0

    def test_verify_adjunction_over_a_power_of_thousands_of_digits(self, monkeypatch):
        # |B|^|A| = 2000^2000 candidate cells, a count of 6 602 digits
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        alpha, beta = conv_unit(z2_point(2000), Z2), kleisli_unit(z2_point(2000), Z2)
        message = "enumeration of more than 10^18 candidate cells exceeds cap 1000000"
        with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
            verify_adjunction([alpha], [beta])

    def test_kleisli_fibre_shares_one_choice_list_per_object(self, monkeypatch):
        # klein4 and a point object of |A| = 400: 1 600 generators, each a choice at every point
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        ic = CATALOG["klein4"].category
        fa = point_base(ic, 400)
        module_plan(fa, ic)  # built first, so only the refusal is measured
        message = "enumeration of more than 10^18 free-module endomorphisms exceeds cap 1000000"
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
                kleisli_fibre(fa, ic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6  # a list of choices per point took 19.8 MB


class TestCountsWhatIsListed:
    """A budget counts the cells its loop lists, not every map between the apexes."""

    PAIR2 = pair_groupoid(2).cat

    def over(self, *objects):
        a = FinSet(len(objects))
        return SliceObject(a, FinMap(a, self.PAIR2.o, objects))

    def test_slice_cells_into_the_pair_object(self, monkeypatch):
        # 2^20 maps into the (0, 1) object, but one slice cell: every point goes to the point over 0
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        assert slice_cells(self.over(*[0] * 20), self.over(0, 1)) == [(0,) * 20]

    def test_adjunction_with_one_candidate_cell(self, monkeypatch):
        # 11^3 = 1331 maps from |A| = 3 into |B| = 11, but one slice cell: B has one point over object 0
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        fa, gb = self.over(0, 0, 0), self.over(0, *[1] * 10)
        report = verify_adjunction([conv_unit(fa, self.PAIR2)], [kleisli_unit(gb, self.PAIR2)])
        assert report.passed and report.checked == {"hom-bijection": 1}

    def test_wrong_mu_length_is_refused_on_the_count_of_pairs(self):
        # 2000 arrows on one object make 4 000 000 composable pairs, counted and never listed
        o, m = FinSet(1), FinSet(2000)
        legs = FinMap(m, o, (0,) * m.size)
        eta, mu = FinMap(o, m, (0,)), FinMap(FinSet(0), m, ())
        message = "composition table must map the 4000000 composable pairs into M"
        tracemalloc.start()
        try:
            with pytest.raises(MalformedTables, match=f"^{message}$"):
                InternalCategory(o, m, legs, legs, eta, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # listing the pairs took 62 MB


class TestTheJoinIsBudgeted:
    """A fibration or adjunction budget counts the faces its join pushes and looks up, not the pairs it skips."""

    def test_external_category_counts_its_composable_pairs(self, monkeypatch):
        # pair2 with |C| = 5: 1024^2 pairs of arrows, but 8^5 = 32768 composable ones, each composed once
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        ext = external_category(pair_groupoid(2).cat, FinSet(5))
        assert (len(ext.ident), len(ext.s)) == (32, 1024)
        assert sum(map(len, ext.rows)) == 8**5

    def test_adjunction_over_a_thousand_cells(self, monkeypatch):
        # 2^10 slice cells from |A| = 10 into |B| = 2: 1024 faces and 1024 lookups, not 1024^2 squares
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        report = verify_adjunction([conv_unit(z2_point(10), Z2)], [kleisli_unit(z2_point(2), Z2)])
        assert report.passed and report.checked == {"hom-bijection": 1}

    def test_adjunction_is_counted_for_the_whole_call(self, monkeypatch):
        # 4 conv elements x 16 endomorphisms, each pair over 2^2 slice cells: 256 cells in all
        conv, ends = conv_fibre(z2_point(2), Z2), kleisli_fibre(z2_point(2), Z2)
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "100")
        with pytest.raises(SizeLimitExceeded, match="^enumeration of 256 candidate cells exceeds cap 100$"):
            verify_adjunction(conv, ends)

    def test_a_large_adjunction_is_refused_at_once(self, monkeypatch):
        # 16 conv elements x 4096 endomorphisms over |A| = |B| = 4, each pair over 4^4 slice cells: the
        # candidates of each pair, 256^2, are under the cap, and the pairwise search ran for minutes
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        conv, ends = conv_fibre(z2_point(4), Z2), kleisli_fibre(z2_point(4), Z2)
        message = f"enumeration of {16 * 4096 * 256} candidate cells exceeds cap 1000000"
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match=f"^{message}$"):
            verify_adjunction(conv, ends)
        assert time.perf_counter() - start < 1.0

    def test_a_defective_join_is_refused_on_its_lifts(self, monkeypatch):
        # |A| = 2 points with their identity and constant-0 cells: the 4 z2 elements lift 8 times in all;
        # given every element the face (0, 0), they lift 4 + 2 x 4 = 12 times, counted before any is listed
        fa = z2_point(2)
        cells = tuple(TwoCell(fa.span, fa.span, FinMap(fa.a, fa.a, phi)) for phi in ((0, 1), (0, 0)))
        ss = SubSlice(Z2, (fa,), cells)
        keys = [[e.table for e in conv_fibre(fa, Z2)]]
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "8")
        assert len(fib._fibration(ss, keys, lambda k, i, j: keys[i]).total.arrows) == 8
        with pytest.raises(SizeLimitExceeded, match="^enumeration of 12 lifts exceeds cap 8$"):
            fib._fibration(ss, keys, lambda k, i, j: [(0, 0)] * 4)

    def test_fib_check_under_the_cap_in_every_count(self, tmp_path, capsys, monkeypatch):
        # klein4 and one object of |A| = 5 points: 1024 elements per fibre, 2048 faces, 1024 composable pairs
        monkeypatch.delenv("SPANFORGE_SIZE_CAP", raising=False)
        (tmp_path / "klein4.json").write_text(json.dumps(KLEIN4))
        (tmp_path / "sub.json").write_text(json.dumps(point_subslice(5)))
        argv = ["fib-check", "--internal", str(tmp_path / "klein4.json"), "--subslice", str(tmp_path / "sub.json")]
        assert main(argv) == 0
        passes = "conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n"
        assert capsys.readouterr() == (passes, "")
