"""Tests of the benchmark itself: smoke runs, planted wrong answers, repeatable traces.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402


def bench(workload: str, *extra: str, root: Path = ROOT, seed: int = 1) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    code, lines = bench(workload, "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = "\n".join(lines)
    for name in ("setup_s", "verify_s", "item_p50_ms", "item_p99_ms", "peak_rss_mb", "error_rate"):
        assert name in printed
    saved = json.loads((ROOT / ".perfbench" / f"result-{workload}-seed1-trace0.json").read_text())
    assert saved["probes"] >= 1
    assert saved["verify_s"] == pytest.approx(saved["verify_wall_s"] * probe.REF_S / saved["probe_s"])


def test_probe_time_is_left_out_of_the_pass(monkeypatch, tmp_path):
    import workloads

    wl = workloads.Inversion(2, True, ROOT, tmp_path)
    wl.run_pass(0)
    monkeypatch.setattr(probe, "EVERY_S", 0.0)  # probe after every item
    spent = probe.spent
    p = wl.run_pass(1)
    assert probe.spent - spent > p.wall_s
    assert p.wall_s >= sum(p.item_s)


def test_planted_wrong_product_is_caught(monkeypatch, tmp_path):
    import spanforge
    import workloads

    wl = workloads.Homomorphism(3, True, ROOT, tmp_path)
    assert wl.run_pass(0).failed == 0
    real = spanforge.conv_mult
    # swapping the factors is only wrong for a non-commutative monoid (leftzero3)
    monkeypatch.setattr(spanforge, "conv_mult", lambda alpha, beta: real(beta, alpha))
    p = wl.run_pass(1)
    assert p.failed > 0 and p.wrong and all("product" in w for w in p.wrong)


def test_planted_wrong_verdict_is_caught(monkeypatch, tmp_path):
    import spanforge.cli
    import workloads

    wl = workloads.Verdicts(5, True, ROOT, tmp_path)
    passes = [wl.run_pass(k) for k in range(4)]
    assert not any(p.wrong for p in passes)
    monkeypatch.setattr(spanforge.cli, "check_internal_category", lambda ic: spanforge.Report())
    passes = [wl.run_pass(k) for k in range(4, 12)]
    assert any("category-mutant" in w for p in passes for w in p.wrong)


def test_wrong_answer_fails_the_run(tmp_path):
    for name in ("src", "fixtures", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    feistel = tmp_path / "src" / "spanforge" / "feistel.py"
    text = feistel.read_text()
    assert "(table[x] ^ y)" in text
    feistel.write_text(text.replace("(table[x] ^ y)", "(table[x] ^ y ^ 1)"))
    code, lines = bench("verdicts", root=tmp_path)
    assert code == 1
    assert any(line.startswith("  WRONG: toffoli") for line in lines)
    assert json.loads(lines[-1])["correct"] is False


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("homomorphism", root=tmp_path)
    assert code != 0 and lines == []


@pytest.mark.parametrize("workload", ["homomorphism", "verdicts"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, lines = bench(workload, "--trace", "1")
        assert code == 0, lines
        runs.append(json.loads(lines[-1])["metrics"])
    assert {k: v["unit"] for k, v in runs[0].items()} == run.PER_LAYER
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "ratio")} for m in runs]
    counts[0].pop("trace.overhead_frac")
    counts[1].pop("trace.overhead_frac")
    assert counts[0] == counts[1]
    assert counts[0]["finset.finmap_built"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_oracle_judges_the_bundled_fixtures():
    fixtures = ROOT / "fixtures"

    def text(name):
        return (fixtures / name).read_text()

    assert oracle.check(text("pair_groupoid.json")) == (0, "ok\n")
    assert oracle.check(text("pair_groupoid_bad_mu.json"))[0] == 1
    assert oracle.check(text("pair_groupoid.json"), "monoid")[0] == 2
    assert oracle.fib_check(text("pair_groupoid.json"), text("subslice_pair2.json")) == (0, oracle.FIB_PASS)
    assert oracle.fib_check(text("pair_groupoid.json"), text("subslice_pair2_defect.json"))[0] == 1
    golden = (fixtures / "feistel_golden.txt").read_text()
    args = (text("z2_4_group.json"), "4", text("feistel_keys.json"))
    assert oracle.feistel("encrypt", args[0], args[1], args[2], "0xab") == (0, golden)
    assert oracle.feistel("decrypt", args[0], args[1], args[2], golden.strip()) == (0, "0xab\n")
    assert oracle.toffoli("2", "1", "0,0,0,1")[1].splitlines()[-2:] == ["110 -> 111", "111 -> 110"]
