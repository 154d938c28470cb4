"""Collect a parent-vs-change benchmark comparison into one BENCH_<pr>.json.

    python3 tools/bench_record.py --parent P --change C --pr N [--out BENCH_N.json]
    python3 tools/bench_record.py --check [BENCH_N.json ...]

The first form reads the ``.perfbench/result-*.json`` files that
``perfbench/run.py`` left in two checkouts, the parent P and the change C.
Runs pair up by file name (workload, seed, trace).  For every workload it
records, from the untraced pairs, each end-to-end metric that
BENCHMARK.json declares: the per-pair values, the median and quartiles of
each side, and how many pairs the change won.  From the traced pairs it
records BENCHMARK.json's per-layer figures on both sides.

``--check`` recomputes every median, quartile, win count and failure share
of each file from the per-pair values it holds, prints each disagreement
and exits 1 if there is any.  With no file named it checks every
BENCH_*.json at the root of the repository.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_metrics(benchmark: Path) -> tuple[dict, list[str]]:
    """BENCHMARK.json's end-to-end metrics as {name: {unit, better}}, and its per-layer names."""
    spec = json.loads(benchmark.read_text())
    end_to_end = {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in spec["end_to_end"]}
    return end_to_end, [m["name"] for m in spec["per_layer"]]


def load_results(checkout: Path) -> dict[str, dict]:
    """Every result file under checkout/.perfbench, keyed by file name."""
    files = sorted((checkout / ".perfbench").glob("result-*.json"))
    return {f.name: json.loads(f.read_text()) for f in files}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; a single value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def won(parent: float, change: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def compare_metric(runs: list[dict], better: str) -> dict:
    """Summaries and win count for one metric, given [{seed, parent, change}, ...]."""
    return {
        "parent": summary([r["parent"] for r in runs]),
        "change": summary([r["change"] for r in runs]),
        "wins": sum(won(r["parent"], r["change"], better) for r in runs),
        "pairs": len(runs),
    }


def failure_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def record(parent: dict, change: dict, end_to_end: dict, per_layer: list[str]) -> dict:
    """The comparison of two sets of result files, keyed by file name."""
    workloads: dict[str, dict] = {}
    for name in sorted(parent.keys() & change.keys()):
        p, c = parent[name], change[name]
        w = workloads.setdefault(p["workload"], {"untraced": [], "traced": []})
        w["traced" if p["trace"] else "untraced"].append((p, c))
    out = {}
    for workload, pairs in workloads.items():
        entry: dict = {}
        if pairs["untraced"]:
            entry["seconds"] = sorted({p["seconds"] for p, _ in pairs["untraced"]})
            entry["end_to_end"] = {}
            for metric, meta in end_to_end.items():
                runs = [{"seed": p["seed"], "parent": p[metric], "change": c[metric]}
                        for p, c in pairs["untraced"]]
                entry["end_to_end"][metric] = {**meta, "runs": runs, **compare_metric(runs, meta["better"])}
            entry["failed"] = {
                side: {"runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"]}
                                for r in results],
                       "share": failure_share(results)}
                for side, results in (("parent", [p for p, _ in pairs["untraced"]]),
                                      ("change", [c for _, c in pairs["untraced"]]))
            }
        if pairs["traced"]:
            p, c = pairs["traced"][0]
            entry["layers"] = {
                "seed": p["seed"],
                "values": {name: {"parent": p["layers"].get(name), "change": c["layers"].get(name)}
                           for name in per_layer},
            }
        out[workload] = entry
    return out


def check(doc: dict) -> list[str]:
    """Disagreements between a BENCH file's summaries and its own per-pair values."""
    problems = []
    for workload, entry in doc["workloads"].items():
        for metric, m in entry.get("end_to_end", {}).items():
            if not m["runs"]:
                problems.append(f"{workload} {metric}: no pairs")
                continue
            want = compare_metric(m["runs"], m["better"])
            for key, value in want.items():
                if m.get(key) != value:
                    problems.append(f"{workload} {metric} {key}: file has {m.get(key)}, runs give {value}")
        for side, f in entry.get("failed", {}).items():
            if f["share"] != failure_share(f["runs"]):
                problems.append(f"{workload} failed share ({side}) does not match its runs")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit, after its runs")
    parser.add_argument("--change", type=Path, help="checkout of the change, after its runs")
    parser.add_argument("--pr", type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json at the root)")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--check", nargs="*", type=Path, metavar="BENCH", help="check files instead")
    args = parser.parse_args(argv)

    if args.check is not None:
        paths = args.check or sorted(ROOT.glob("BENCH_*.json"))
        failed = False
        for path in paths:
            problems = check(json.loads(path.read_text()))
            for line in problems:
                print(f"{path.name}: {line}", file=sys.stderr)
            failed = failed or bool(problems)
            print(f"{path.name}: {'inconsistent' if problems else 'ok'}")
        return 1 if failed else 0

    if args.parent is None or args.change is None or args.pr is None:
        parser.error("--parent, --change and --pr are required unless --check is given")
    end_to_end, per_layer = declared_metrics(args.benchmark)
    parent, change = load_results(args.parent), load_results(args.change)
    if not parent.keys() & change.keys():
        print("bench_record: no result file appears in both checkouts", file=sys.stderr)
        return 2
    first = next(iter(parent.values()))
    doc = {
        "pr": args.pr,
        "host": {"python": first.get("python"), "nproc": first.get("nproc")},
        "workloads": record(parent, change, end_to_end, per_layer),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
