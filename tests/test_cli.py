import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from spanforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


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
