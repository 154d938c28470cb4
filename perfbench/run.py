"""Benchmark of spanforge: time to a verdict, set-up time and memory, per workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (one caller, closed loop, no threads; each in fresh interpreters):

  homomorphism  extend(s * t) against the Kleisli composite, all 10 552 fibre
                pairs over the 7 catalog monoids and point bases |X| <= 3
  fibration     cartesian_iso and both unique-lift checks on the klein4 full
                sub-slice with point bases |A| = 0..3
  inversion     the retrieve/extend round trips (284 and 5 635) and the
                Kleisli inverses over 8 groupoids (288)
  verdicts      a seeded stream of small generated inputs through cli.main,
                about half of which must exit non-zero

A pass is one whole verdict; a run repeats passes for --seconds after an
untimed warm-up pass where caches matter, and reports medians.  verify_s is
scaled to a reference host speed by a fixed task run between items (probe.py).
Every answer is compared with a plain-Python oracle, and a wrong one makes the
run exit 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass and
then traced passes, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("homomorphism", "fibration", "inversion", "verdicts")
SETUP_PROBES = 4  # extra set-up-only processes; the measured process adds one more
DEADLINE_S = 170

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "finset.self_s": "s",
    "finset.finmap_built": "count",
    "finset.compose_calls": "count",
    "finset.pullback_hit_ratio": "ratio",
    "span.self_s": "s",
    "span.twocell_built": "count",
    "span.tensor_cells_calls": "count",
    "span.pair_cells_calls": "count",
    "span.tensor_hit_ratio": "ratio",
    "feistel.self_s": "s",
    "feistel.extend_us": "us",
    "feistel.endos_enumerated": "count",
    "internal.self_s": "s",
    "internal.category_pairs_verified": "count",
    "internal.check_calls": "count",
    "fib.total_objects": "count",
    "fib.total_arrows": "count",
    "cli.exit0": "count",
    "cli.exit1": "count",
    "cli.exit2": "count",
    "cli.escaped": "count",
    "report.failures": "count",
    "cache.entries_total": "count",
    "trace.overhead_frac": "ratio",
}
# Reported in the text and the result file only: on a workload that never
# reaches the layer they read exactly zero on every run.
PER_LAYER_TEXT = {
    "fib.self_s": "s",
    "feistel.conv_mult_us": "us",
    "feistel.kleisli_compose_us": "us",
    "feistel.kleisli_inverse_s": "s",
    "internal.category_build_s": "s",
    "fib.build_conv_s": "s",
    "fib.build_endo_s": "s",
    "fib.check_functor_s": "s",
    "cli.parse_s": "s",
    "cli.command_s": "s",
}


def spawn(args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    result = out_dir / f"result-{os.getpid()}.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SPANFORGE_SIZE_CAP", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result), "--spawned-at", repr(time.time()),
    ]
    cmd += ["--tiny"] if args.size == "tiny" else []
    cmd += ["--setup-only"] if setup_only else []
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited with {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def fmt(value, unit: str) -> str:
    if value is None:
        return "n/a (too few items for ten beyond the percentile)"
    return f"{value:.6g} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every sweep, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "spanforge" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no spanforge source tree (src/spanforge, fixtures) under {ROOT}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        setups = [spawn(args, out_dir, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
    r = spawn(args, out_dir, deadline, False)
    setups.append(r["setup_s"])
    r["setup_s"] = statistics.median(setups)
    correct = r["wrong_total"] == 0

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "python": r["python"],
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "passes": r["passes"], "items": r["attempted"], "setups": len(setups),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if args.trace:
        print(f"  per-layer, {r['passes']} traced passes after one untraced; "
              f"counts from the first traced pass, times are medians; "
              f"{r['caches']} lru caches; {r['spans_kept']} spans kept")
        for name, unit in {**PER_LAYER, **PER_LAYER_TEXT}.items():
            print(f"  {name:34s} {fmt(r['layers'][name], unit)}")
        metrics = {name: {"value": r["layers"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        print(f"  setup_s       {fmt(r['setup_s'], 's')}   median of {len(setups)} set-ups")
        print(f"  verify_s      {fmt(r['verify_s'], 's')}   median of {r['passes']} passes, "
              f"scaled to the reference probe speed; wall {fmt(r['verify_wall_s'], 's')}")
        print(f"  probe_s       {fmt(r['probe_s'], 's')}   median of {r['probes']} speed probes "
              f"(reference {probe.REF_S} s)")
        print(f"  item_p50_ms   {fmt(r['item_p50_ms'], 'ms')}   of {r['attempted']} items")
        print(f"  item_p99_ms   {fmt(r['item_p99_ms'], 'ms')}")
        print(f"  peak_rss_mb   {fmt(r['peak_rss_mb'], 'MB')}")
        print(f"  error_rate    {r['failed'] / r['attempted']:.6g}   "
              f"({r['failed']} of {r['attempted']} items differ from the oracle or raised)")
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
    for line in r["wrong"]:
        print(f"  WRONG: {line}")
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**stamp, **r}, indent=1)
    )
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
