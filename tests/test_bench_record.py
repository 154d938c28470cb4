"""tools/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

SPEC = {
    "end_to_end": [
        {"name": "verify_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "finset.finmap_built", "unit": "count", "better": "lower"},
        {"name": "feistel.extend_us", "unit": "us", "better": "lower"},
    ],
}
# seed -> (parent verify_s, change verify_s); the change wins seeds 1, 2 and 4
VERIFY = {1: (0.10, 0.06), 2: (0.12, 0.07), 3: (0.08, 0.09), 4: (0.11, 0.05)}


def write_result(checkout: Path, workload: str, seed: int, trace: int, **fields) -> None:
    directory = checkout / ".perfbench"
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "seconds": 50, "trace": trace,
           "python": "3.11.7", "nproc": 2, **fields}
    (directory / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in VERIFY.items():
        write_result(parent, "homomorphism", seed, 0, verify_s=before, peak_rss_mb=20.0,
                     attempted=100, failed=0)
        write_result(change, "homomorphism", seed, 0, verify_s=after, peak_rss_mb=20.0,
                     attempted=100, failed=1 if seed == 3 else 0)
    write_result(parent, "homomorphism", 1, 1, layers={"finset.finmap_built": 40, "feistel.extend_us": 3.0})
    write_result(change, "homomorphism", 1, 1, layers={"finset.finmap_built": 12, "feistel.extend_us": 2.0})
    # a run of one side only has no pair and is left out
    write_result(parent, "verdicts", 9, 0, verify_s=1.0, peak_rss_mb=30.0, attempted=10, failed=5)
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(SPEC))
    return parent, change, spec_path, tmp_path / "BENCH_9.json"


def run(checkouts) -> dict:
    parent, change, spec_path, out = checkouts
    argv = ["--parent", str(parent), "--change", str(change), "--pr", "9",
            "--out", str(out), "--benchmark", str(spec_path)]
    assert bench_record.main(argv) == 0
    return json.loads(out.read_text())


def test_record_summarises_pairs(checkouts):
    doc = run(checkouts)
    assert doc["pr"] == 9 and doc["host"] == {"python": "3.11.7", "nproc": 2}
    assert list(doc["workloads"]) == ["homomorphism"]
    hom = doc["workloads"]["homomorphism"]
    verify = hom["end_to_end"]["verify_s"]
    assert (verify["wins"], verify["pairs"]) == (3, 4)
    assert verify["parent"]["median"] == pytest.approx(0.105)
    assert verify["change"]["median"] == pytest.approx(0.065)
    assert verify["change"]["q1"] <= verify["change"]["median"] <= verify["change"]["q3"]
    assert [r["seed"] for r in verify["runs"]] == [1, 2, 3, 4]
    rss = hom["end_to_end"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["parent"] == rss["change"]
    assert hom["failed"]["parent"]["share"] == 0 and hom["failed"]["change"]["share"] == 1 / 400
    assert hom["layers"]["values"]["finset.finmap_built"] == {"parent": 40, "change": 12}


def test_check_accepts_a_fresh_record_and_refuses_an_edited_one(checkouts, capsys):
    doc = run(checkouts)
    out = checkouts[3]
    assert bench_record.main(["--check", str(out)]) == 0
    doc["workloads"]["homomorphism"]["end_to_end"]["verify_s"]["wins"] = 4
    out.write_text(json.dumps(doc))
    assert bench_record.main(["--check", str(out)]) == 1
    assert "verify_s wins: file has 4, runs give 3" in capsys.readouterr().err


def test_no_common_result_is_an_error(checkouts):
    parent, _change, spec_path, out = checkouts
    empty = parent.parent / "empty"
    empty.mkdir()
    argv = ["--parent", str(parent), "--change", str(empty), "--pr", "9",
            "--out", str(out), "--benchmark", str(spec_path)]
    assert bench_record.main(argv) == 2
    assert not out.exists()
