import importlib.util
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from spanforge import cli, fib
from spanforge.catalog import loops_and_bridges
from spanforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# the benchmark's plain-Python judges: what each command must answer, computed without spanforge
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_pair_groupoid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(FIXTURES / "pair_groupoid.json"))
        assert code == 0
        assert out == "ok\n"

    def test_corrupted_mu_names_the_law(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(FIXTURES / "pair_groupoid_bad_mu.json"))
        assert code == 1
        assert out.startswith("fail")
        assert any(
            law in out
            for law in ("associativity", "left-unit", "right-unit", "composition-source", "composition-target")
        )

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_kind_is_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, "weird.json", {"kind": "mystery"})
        code, _, _ = run_cli(capsys, "check", path)
        assert code == 2

    def test_kind_mismatch_is_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "check", str(FIXTURES / "pair_groupoid.json"), "--kind", "monoid"
        )
        assert code == 2

    def test_finset_map(self, capsys, tmp_path):
        good = write_doc(tmp_path, "map.json", {"kind": "finset-map", "dom": 2, "cod": 2, "table": [1, 0]})
        assert run_cli(capsys, "check", good)[0] == 0
        bad = write_doc(tmp_path, "bad.json", {"kind": "finset-map", "dom": 2, "cod": 2, "table": [2, 0]})
        code, out, _ = run_cli(capsys, "check", bad)
        assert code == 1 and out.startswith("fail")

    def test_monoid_and_group_kinds(self, capsys, tmp_path):
        z2 = write_doc(tmp_path, "z2.json", {"kind": "group", "size": 2, "table": [0, 1, 1, 0]})
        assert run_cli(capsys, "check", z2)[0] == 0
        and2 = write_doc(tmp_path, "and2.json", {"kind": "group", "size": 2, "table": [0, 0, 0, 1]})
        code, out, _ = run_cli(capsys, "check", and2)
        assert code == 1 and "inverse" in out
        as_monoid = write_doc(tmp_path, "and2m.json", {"kind": "monoid", "size": 2, "table": [0, 0, 0, 1]})
        assert run_cli(capsys, "check", as_monoid)[0] == 0

    def test_boolean_size_is_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bool.json", {"kind": "monoid", "size": True, "table": [0]})
        code, _, err = run_cli(capsys, "check", path)
        assert code == 2
        assert "'size'" in err

    def test_boolean_table_entry_is_exit_two(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bool.json", {"kind": "finset-map", "dom": 1, "cod": 2, "table": [True]})
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2
        assert out == "" and "'table'" in err

    def test_wrong_mu_length_is_refused_before_the_pairs_are_listed(self, capsys, tmp_path):
        # 1500 arrows on one object make 2 250 000 composable pairs: an empty mu is refused
        # on their count, with no pullback listing them
        size = 1500
        doc = {"kind": "internal-category", "o_size": 1, "m_size": size, "d": [0] * size, "c": [0] * size}
        path = write_doc(tmp_path, "big.json", dict(doc, eta=[0], mu=[]))
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "check", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "fail table length 0 != domain size 2250000\n")
        assert peak < 5 * 2**20

    def test_subslice_kind(self, capsys, tmp_path):
        with open(FIXTURES / "subslice_pair2.json") as fh:
            doc = json.load(fh)
        with open(FIXTURES / "pair_groupoid.json") as fh:
            inner = json.load(fh)
        doc["internal_category"] = {k: v for k, v in inner.items() if k != "iota"}
        doc["internal_category"]["kind"] = "internal-category"
        path = write_doc(tmp_path, "ss.json", doc)
        assert run_cli(capsys, "check", path)[0] == 0

    def test_round_config_kind(self, capsys):
        assert run_cli(capsys, "check", str(FIXTURES / "feistel_keys.json"))[0] == 0


class TestConvTable:
    def test_z2_slice_two_is_klein_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "conv-table", str(FIXTURES / "z2_internal.json"), "--slice", "2", "0,0"
        )
        assert code == 0
        assert "fibre size: 4" in out
        assert "group: yes" in out
        rows = [line.strip() for line in out.splitlines() if line.startswith("  ") and ":" not in line]
        assert rows == ["0 1 2 3", "1 0 3 2", "2 3 0 1", "3 2 1 0"]

    def test_meet_semilattice_is_not_a_group(self, capsys):
        code, out, _ = run_cli(
            capsys, "conv-table", str(FIXTURES / "and2_internal.json"), "--slice", "2", "0,0"
        )
        assert code == 0
        assert "group: no" in out

    def test_empty_carrier_gives_trivial_monoid(self, capsys):
        code, out, _ = run_cli(
            capsys, "conv-table", str(FIXTURES / "z2_internal.json"), "--slice", "0", ""
        )
        assert code == 0
        assert "fibre size: 1" in out
        assert "group: yes" in out

    def test_loops_and_bridges_fixture_is_the_catalog_instance(self, capsys):
        path = FIXTURES / "loops_and_bridges.json"
        doc, ic = json.loads(path.read_text()), loops_and_bridges()
        assert (doc["kind"], doc["o_size"], doc["m_size"]) == ("internal-category", ic.o.size, ic.m.size)
        assert [tuple(doc[k]) for k in ("d", "c", "eta", "mu")] == [ic.d.table, ic.c.table, ic.eta.table, ic.mu.table]
        assert run_cli(capsys, "check", str(path)) == (0, "ok\n", "")
        for a_size, f_text in (("1", "1"), ("2", "0,1"), ("3", "1,0,1")):
            got = run_cli(capsys, "conv-table", str(path), "--slice", a_size, f_text)[:2]
            assert got == oracle.conv_table(path.read_text(), a_size, f_text)

    def test_deterministic_output(self, capsys):
        args = ("conv-table", str(FIXTURES / "z2_internal.json"), "--slice", "2", "0,0")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestToffoli:
    def test_and_gate_table(self, capsys):
        code, out, _ = run_cli(capsys, "toffoli", "--m", "2", "--n", "1", "--f", "0,0,0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines == [
            "000 -> 000",
            "001 -> 001",
            "010 -> 010",
            "011 -> 011",
            "100 -> 100",
            "101 -> 101",
            "110 -> 111",
            "111 -> 110",
        ]

    def test_constant_zero_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "toffoli", "--m", "1", "--n", "2", "--f", "0,0")
        assert code == 0
        for line in out.splitlines():
            source, _, image = line.partition(" -> ")
            assert source == image

    def test_printed_permutation_is_an_involution(self, capsys):
        code, out, _ = run_cli(capsys, "toffoli", "--m", "2", "--n", "2", "--f", "1,3,0,2")
        assert code == 0
        perm = {}
        for line in out.splitlines():
            source, _, image = line.partition(" -> ")
            perm[source] = image
        assert all(perm[perm[s]] == s for s in perm)

    def test_bad_table_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "toffoli", "--m", "2", "--n", "1", "--f", "0,0,0")
        assert code == 1
        assert "error" in err


class TestSizeCap:
    """Each loop the cap bounds refuses past SPANFORGE_SIZE_CAP, exit 1, before any output."""

    def test_toffoli_states(self, capsys, monkeypatch):
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
        code, out, err = run_cli(capsys, "toffoli", "--m", "1", "--n", "4", "--f", "0,0")
        assert (code, out) == (1, "")
        assert "2^5 Toffoli states exceeds cap 16" in err

    def test_toffoli_states_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
        code, out, _ = run_cli(capsys, "toffoli", "--m", "1", "--n", "3", "--f", "0,0")
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_conv_table_products(self, capsys, monkeypatch):
        # fibre of 8 elements is within the cap; its 64 products are not
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
        code, out, err = run_cli(
            capsys, "conv-table", str(FIXTURES / "z2_internal.json"), "--slice", "3", "0,0,0"
        )
        assert (code, out) == (1, "")
        assert "8^2 conv-table products exceeds cap 16" in err

    def test_negative_cap_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("SPANFORGE_SIZE_CAP", "-5")
        code, out, err = run_cli(capsys, "toffoli", "--m", "1", "--n", "1", "--f", "0,1")
        assert (code, out) == (1, "")
        assert err == "error: SPANFORGE_SIZE_CAP must be a non-negative int, got '-5'\n"


class TestFeistel:
    GROUP = str(FIXTURES / "z2_4_group.json")
    KEYS = str(FIXTURES / "feistel_keys.json")

    def test_golden_output_is_byte_stable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "feistel", "encrypt", "--group", self.GROUP,
            "--rounds", "4", "--keys", self.KEYS, "--input", "0xab",
        )
        assert code == 0
        golden = (FIXTURES / "feistel_golden.txt").read_text()
        assert out == golden

    def test_golden_matches_straight_line_oracle(self, capsys):
        with open(self.KEYS) as fh:
            keys = json.load(fh)["round_functions"]
        l, r = 0xA, 0xB
        for key in keys:
            l, r = key[l] ^ r, l
        _, out, _ = run_cli(
            capsys,
            "feistel", "encrypt", "--group", self.GROUP,
            "--rounds", "4", "--keys", self.KEYS, "--input", "0xab",
        )
        assert out == f"0x{(l << 4) | r:02x}\n"

    def test_zero_rounds_echoes_input(self, capsys, tmp_path):
        keys = write_doc(tmp_path, "keys0.json", {"kind": "round-config", "rounds": 0, "round_functions": []})
        code, out, _ = run_cli(
            capsys,
            "feistel", "encrypt", "--group", self.GROUP,
            "--rounds", "0", "--keys", keys, "--input", "0x5c",
        )
        assert code == 0
        assert out == "0x5c\n"

    def test_roundtrip_random_inputs(self, capsys):
        rng = random.Random(2024)
        for _ in range(40):
            state = rng.randrange(256)
            _, out, _ = run_cli(
                capsys,
                "feistel", "encrypt", "--group", self.GROUP,
                "--rounds", "4", "--keys", self.KEYS, "--input", hex(state),
            )
            _, back, _ = run_cli(
                capsys,
                "feistel", "decrypt", "--group", self.GROUP,
                "--rounds", "4", "--keys", self.KEYS, "--input", out.strip(),
            )
            assert int(back.strip(), 16) == state

    def test_round_count_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "feistel", "encrypt", "--group", self.GROUP,
            "--rounds", "3", "--keys", self.KEYS, "--input", "0xab",
        )
        assert code == 1
        assert "rounds" in err

    def test_non_group_rejected(self, capsys, tmp_path):
        and2 = write_doc(tmp_path, "and2.json", {"kind": "monoid", "size": 2, "table": [0, 0, 0, 1]})
        keys = write_doc(tmp_path, "k.json", {"kind": "round-config", "rounds": 1, "round_functions": [[0, 1]]})
        code, _, err = run_cli(
            capsys,
            "feistel", "encrypt", "--group", and2,
            "--rounds", "1", "--keys", keys, "--input", "0x0",
        )
        assert code == 1
        assert "inverse" in err

    def test_out_of_range_input(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "feistel", "encrypt", "--group", self.GROUP,
            "--rounds", "4", "--keys", self.KEYS, "--input", "0x3ab",
        )
        assert code == 2


class TestFibCheck:
    def test_bundled_pair_groupoid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", str(FIXTURES / "subslice_pair2.json"),
        )
        assert code == 0
        assert out.count("pass") == 3

    def test_defective_subslice_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", str(FIXTURES / "subslice_pair2_defect.json"),
        )
        assert code == 1
        assert "fail" in out

    def test_singleton_subslice(self, capsys, tmp_path):
        doc = {
            "kind": "sub-slice",
            "objects": [{"size": 1, "map": [0]}],
            "arrows": [{"src": 0, "dst": 0, "map": [0]}],
        }
        path = write_doc(tmp_path, "single.json", doc)
        code, out, _ = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", path,
        )
        assert code == 0
        assert out.count("pass") == 3

    @pytest.mark.parametrize(
        "subslice, code, expected",
        [
            (
                "subslice_pair2.json",
                0,
                "conv-fibration unique-lift: pass\n"
                "endo-fibration unique-lift: pass\n"
                "cartesian-iso: pass\n",
            ),
            ("subslice_pair2_defect.json", 1, "sub-slice: fail (identity missing for object with |A|=2)\n"),
        ],
    )
    def test_bundled_output_is_pinned(self, capsys, subslice, code, expected):
        assert run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", str(FIXTURES / subslice),
        ) == (code, expected, "")

    def test_builds_each_fibration_once(self, capsys, monkeypatch):
        built = []
        real = fib._fibration

        def counted(ss, keys, lifts):
            built.append(ss)
            return real(ss, keys, lifts)

        monkeypatch.setattr(fib, "_fibration", counted)
        code, _, _ = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", str(FIXTURES / "subslice_pair2.json"),
        )
        assert code == 0
        assert len(built) == 2

    @pytest.mark.parametrize("src", [5, -1])
    def test_arrow_endpoint_out_of_range_is_exit_two(self, capsys, tmp_path, src):
        doc = {
            "kind": "sub-slice",
            "objects": [{"size": 1, "map": [0]}],
            "arrows": [{"src": src, "dst": 0, "map": [0]}],
        }
        path = write_doc(tmp_path, "endpoint.json", doc)
        code, out, err = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid.json"),
            "--subslice", path,
        )
        assert code == 2
        assert out == ""
        assert "'src'" in err


# one object, unit 0, and a.a = b, a.b = b, b.a = a, b.b = a: (a.a).a = a but a.(a.a) = b
NON_ASSOCIATIVE = {
    "kind": "internal-category", "o_size": 1, "m_size": 3, "d": [0, 0, 0], "c": [0, 0, 0],
    "eta": [0], "mu": [0, 1, 2, 1, 2, 2, 2, 1, 1],
}
# z2 with an inversion map that sends 1 to the unit
Z2_BAD_IOTA = {
    "kind": "internal-groupoid", "o_size": 1, "m_size": 2, "d": [0, 0], "c": [0, 0],
    "eta": [0], "mu": [0, 1, 1, 0], "iota": [0, 0],
}
POINT_SUBSLICE = {
    "kind": "sub-slice",
    "objects": [{"size": 1, "map": [0]}],
    "arrows": [{"src": 0, "dst": 0, "map": [0]}],
}


class TestCategoryCheckedOnEveryPath:
    """Every command that reads an internal category checks its axioms, in the oracle's order."""

    def check(self, capsys, tmp_path, doc):
        """spanforge check on doc, and the exit code the benchmark oracle expects."""
        got = run_cli(capsys, "check", write_doc(tmp_path, "in.json", doc))
        return got, oracle.check(json.dumps(doc))[0]

    def conv_table(self, capsys, tmp_path, doc, a_size, f_table):
        got = run_cli(capsys, "conv-table", write_doc(tmp_path, "in.json", doc), "--slice", a_size, f_table)
        return got, oracle.conv_table(json.dumps(doc), a_size, f_table)[0]

    def fib_check(self, capsys, tmp_path, doc, sub):
        internal, subslice = write_doc(tmp_path, "in.json", doc), write_doc(tmp_path, "sub.json", sub)
        got = run_cli(capsys, "fib-check", "--internal", internal, "--subslice", subslice)
        return got, oracle.fib_check(json.dumps(doc), json.dumps(sub))[0]

    def test_check_names_the_first_failed_law(self, capsys, tmp_path):
        (code, out, _), expected = self.check(capsys, tmp_path, NON_ASSOCIATIVE)
        assert (code, out, expected) == (1, "fail associativity: triple (1, 1, 1)\n", 1)

    def test_fib_check_on_the_bad_mu_fixture(self, capsys):
        got = run_cli(
            capsys,
            "fib-check",
            "--internal", str(FIXTURES / "pair_groupoid_bad_mu.json"),
            "--subslice", str(FIXTURES / "subslice_pair2.json"),
        )
        assert got == (1, "", "error: composition-target: pair (0, 0)\n")
        texts = ((FIXTURES / name).read_text() for name in ("pair_groupoid_bad_mu.json", "subslice_pair2.json"))
        assert oracle.fib_check(*texts)[0] == 1

    def test_fib_check_checks_the_category(self, capsys, tmp_path):
        (code, out, _), expected = self.fib_check(capsys, tmp_path, NON_ASSOCIATIVE, POINT_SUBSLICE)
        assert (code, out, expected) == (1, "", 1)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (NON_ASSOCIATIVE, "associativity: triple (1, 1, 1)"),
            (Z2_BAD_IOTA, "right-inverse-law: arrow 1"),
        ],
    )
    def test_conv_table_prints_no_table(self, capsys, tmp_path, doc, message):
        got, expected = self.conv_table(capsys, tmp_path, doc, "2", "0,0")
        assert (got, expected) == ((1, "", f"error: {message}\n"), 1)

    def test_conv_table_checks_the_category_before_the_slice(self, capsys, tmp_path):
        (code, out, _), expected = self.conv_table(capsys, tmp_path, NON_ASSOCIATIVE, "2", "x")
        assert (code, out, expected) == (1, "", 1)

    def test_check_on_a_subslice_checks_its_inline_category(self, capsys, tmp_path):
        doc = dict(POINT_SUBSLICE, internal_category=NON_ASSOCIATIVE)
        (code, out, _), expected = self.check(capsys, tmp_path, doc)
        assert (code, out, expected) == (1, "fail associativity: triple (1, 1, 1)\n", 1)

    @pytest.mark.parametrize("command", ["check", "fib-check"])
    def test_arrows_are_read_before_the_axioms(self, capsys, tmp_path, command):
        sub = dict(POINT_SUBSLICE, arrows=[{"src": 3, "dst": 0, "map": [0]}])
        if command == "check":
            got, expected = self.check(capsys, tmp_path, dict(sub, internal_category=NON_ASSOCIATIVE))
        else:
            got, expected = self.fib_check(capsys, tmp_path, NON_ASSOCIATIVE, sub)
        code, out, err = got
        assert (code, out, expected) == (2, "", 2)
        assert "'src'" in err


class TestEveryFieldReadFirst:
    """An internal-category document is read and type-checked whole before any table is built."""

    @pytest.mark.parametrize(
        "fields, bad",
        [
            # d is out of range, but eta is not even an array
            ({"d": [5], "c": [0], "eta": "x", "mu": [0]}, "eta"),
            # o_size is negative, but m_size is a boolean
            ({"o_size": -1, "m_size": True}, "m_size"),
        ],
    )
    @pytest.mark.parametrize("kind", ["internal-category", "internal-groupoid"])
    def test_type_error_after_a_shape_error_is_exit_two(self, capsys, tmp_path, fields, bad, kind):
        doc = {"kind": kind, "o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0], **fields}
        if kind == "internal-groupoid":
            doc["iota"] = [0]
        code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert f"field {bad!r}" in err
        assert oracle.check(json.dumps(doc))[0] == 2

    def test_groupoid_reads_iota_before_building_the_category(self, capsys, tmp_path):
        doc = {"kind": "internal-groupoid", "o_size": 1, "m_size": 1, "d": [5], "c": [0], "eta": [0],
               "mu": [0], "iota": "x"}
        code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert "field 'iota'" in err
        assert oracle.check(json.dumps(doc))[0] == 2


PAIR_CATEGORY = {
    "kind": "internal-category", "o_size": 2, "m_size": 4, "d": [0, 0, 1, 1], "c": [0, 1, 0, 1],
    "eta": [0, 3], "mu": [0, 1, 0, 1, 2, 3, 2, 3],
}


class TestSubsliceReadOrder:
    """A sub-slice is read whole, in the oracle's order, before its category or cells are built."""

    @pytest.mark.parametrize(
        "doc, bad",
        [
            # the inline category's d is out of range, but the arrow names a missing object
            (
                dict(
                    POINT_SUBSLICE,
                    internal_category={**NON_ASSOCIATIVE, "m_size": 1, "d": [5], "c": [0], "mu": [0]},
                    arrows=[{"src": 3, "dst": 0, "map": [0]}],
                ),
                "'src'",
            ),
            # the first cell does not commute, but the second arrow's map is not an array
            (
                {
                    "kind": "sub-slice",
                    "internal_category": PAIR_CATEGORY,
                    "objects": [{"size": 1, "map": [0]}, {"size": 1, "map": [1]}],
                    "arrows": [{"src": 0, "dst": 1, "map": [0]}, {"src": 0, "dst": 0, "map": "x"}],
                },
                "'map'",
            ),
        ],
    )
    def test_check_reads_every_arrow_before_building(self, capsys, tmp_path, doc, bad):
        code, out, err = run_cli(capsys, "check", write_doc(tmp_path, "in.json", doc))
        assert (code, out) == (2, "")
        assert bad in err
        assert oracle.check(json.dumps(doc))[0] == 2

    def test_fib_check_reads_every_arrow_before_building(self, capsys, tmp_path):
        sub = json.loads((FIXTURES / "subslice_pair2.json").read_text())
        sub["arrows"][0]["map"] = [5]
        sub["arrows"][2]["map"] = None
        internal = FIXTURES / "pair_groupoid.json"
        subslice = write_doc(tmp_path, "sub.json", sub)
        code, out, err = run_cli(capsys, "fib-check", "--internal", str(internal), "--subslice", subslice)
        assert (code, out) == (2, "")
        assert "'map'" in err
        assert oracle.fib_check(internal.read_text(), json.dumps(sub))[0] == 2

    def test_object_shapes_are_checked_before_the_arrows_are_read(self, capsys, tmp_path):
        # as in the oracle: an object map out of range exits 1 even though an arrow names no object
        doc = dict(POINT_SUBSLICE, internal_category=PAIR_CATEGORY, objects=[{"size": 1, "map": [2]}],
                   arrows=[{"src": 3, "dst": 0, "map": [0]}])
        code, out, _ = run_cli(capsys, "check", write_doc(tmp_path, "in.json", doc))
        assert (code, out) == (1, "fail object map [2] must send 1 points to the 2 objects\n")
        assert oracle.check(json.dumps(doc))[0] == 1


class TestEntryPoint:
    def test_module_invocation(self):
        env_root = str(ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "spanforge", "check", str(FIXTURES / "pair_groupoid.json")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert result.stdout == "ok\n"

    def test_missing_file_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "no/such/file.json")
        assert code == 2
        assert "error" in err

    def test_unexpected_exception_is_one_line_exit_two(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("table kernel\nbroke")

        monkeypatch.setattr(cli, "cmd_toffoli", broken)
        code, out, err = run_cli(capsys, "toffoli", "--m", "1", "--n", "1", "--f", "0,1")
        assert code == 2
        assert out == ""
        assert err == "error: RuntimeError: table kernel broke\n"


class TestParserReuse:
    """main builds its parser once per process and dispatches to cli.cmd_* as bound at call time."""

    TOFFOLI = ("toffoli", "--m", "1", "--n", "1", "--f", "0,1")

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        assert run_cli(capsys, *self.TOFFOLI)[0] == 0
        assert run_cli(capsys, "check", str(FIXTURES / "pair_groupoid.json")) == (0, "ok\n", "")
        assert len(builds) == 1

    def test_usage_error_leaves_the_parser_usable(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        code, out, err = run_cli(capsys, "toffoli", "--m", "1")
        assert (code, out) == (2, "")
        assert "the following arguments are required: --n, --f" in err
        assert run_cli(capsys, *self.TOFFOLI) == (0, "00 -> 00\n01 -> 01\n10 -> 11\n11 -> 10\n", "")

    def test_command_patched_after_the_parser_is_built_is_called(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        assert run_cli(capsys, *self.TOFFOLI)[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_feistel", lambda args: calls.append(args.mode) or 0)
        code = cli.main(["feistel", "decrypt", "--group", "g", "--rounds", "1", "--keys", "k", "--input", "0"])
        assert (code, calls) == (0, ["decrypt"])
