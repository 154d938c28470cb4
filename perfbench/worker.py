"""One benchmark process: set up a workload, then measure it, untraced or traced.

Started by ``run.py`` in a fresh interpreter for every sample, so each
workload sees a cold process; it writes its figures as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import probe as speed


def percentile_ms(samples: list[float], q: int) -> float | None:
    """The q-th percentile in ms, when at least ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


RSS_PASSES = 2  # peak RSS is read after a fixed amount of work, so a faster run does not show more


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, spans_path: Path | None = None) -> dict:
    """Passes for about ``seconds``; traced after one untraced pass when ``spans_path`` is given."""
    wrong: list[str] = []
    rss = None
    if wl.warmup:
        wrong += wl.run_pass(0).wrong
    k = 1
    reference = tracer = None
    if spans_path is not None:
        from layertrace import Tracer

        reference = wl.run_pass(k)
        wrong += reference.wrong
        k += 1
        tracer = Tracer()
        tracer.install()
    passes, layers = [], []
    speed.samples.clear()
    start = perf_counter()
    try:
        while True:
            speed.tick()  # the only probe on a workload whose pass is one call
            if tracer:
                tracer.reset()
                before = tracer.cache_stats()
            p = wl.run_pass(k, tracer)
            if tracer:
                layers.append(layer_metrics(tracer, before, p))
            passes.append(p)
            if len(passes) == RSS_PASSES:
                rss = max_rss_mb()
            wrong += p.wrong
            k += 1
            # stop once the next pass, as long as this one, would mostly fall past the window
            if perf_counter() - start + p.wall_s / 2 >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    items = [t for p in passes for t in p.item_s]
    verify_wall_s = statistics.median(p.wall_s for p in passes)
    probe_s = statistics.median(speed.samples)
    out = {
        "passes": len(passes),
        "verify_samples": [p.wall_s for p in passes],
        "verify_wall_s": verify_wall_s,
        "probes": len(speed.samples),
        "probe_s": probe_s,
        "verify_s": verify_wall_s * speed.REF_S / probe_s,
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p99_ms": percentile_ms(items, 99),
        "peak_rss_mb": rss or max_rss_mb(),
        "attempted": len(items),
        "failed": sum(p.failed for p in passes),
        "wrong": wrong[:20],
        "wrong_total": len(wrong),
    }
    if tracer:
        out["layers"] = summarise_layers(layers, reference.wall_s)
        out["caches"] = len(tracer.caches)
        out["spans_kept"] = len(tracer.spans)
        tracer.write_spans(spans_path)
    return out


def _ratio(before, after, name: str) -> float:
    hits = after[name][0] - before[name][0]
    misses = after[name][1] - before[name][1]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer, before: dict, p) -> tuple[dict, dict]:
    """Counts and times of one traced pass."""
    after = tracer.cache_stats()
    calls, counts, group_s, group_calls = tracer.calls, tracer.counts, tracer.group_s, tracer.group_calls

    def per_call_us(group: str) -> float:
        return group_s[group] / group_calls[group] * 1e6 if group_calls[group] else 0.0

    exact = {
        "finset.finmap_built": calls["finset.FinMap"],
        "finset.compose_calls": calls["finset.compose"],
        "finset.pullback_hit_ratio": _ratio(before, after, "finset.pullback"),
        "span.twocell_built": calls["span.TwoCell"],
        "span.tensor_cells_calls": calls["span.tensor_cells"],
        "span.pair_cells_calls": calls["span.pair_cells"],
        "span.tensor_hit_ratio": _ratio(before, after, "span.tensor"),
        "feistel.endos_enumerated": counts["feistel.endos_enumerated"],
        "internal.category_pairs_verified": counts["internal.category_pairs_verified"],
        "internal.check_calls": calls["internal.check_internal_category"]
        + calls["internal.check_internal_groupoid"],
        "fib.total_objects": counts["fib.total_objects"],
        "fib.total_arrows": counts["fib.total_arrows"],
        "cli.exit0": p.exits[0],
        "cli.exit1": p.exits[1],
        "cli.exit2": p.exits[2],
        "cli.escaped": p.exits["escaped"],
        "report.failures": calls["report.fail"],
        "cache.entries_total": sum(size for _hits, _misses, size in after.values()),
    }
    times = {f"{layer}.self_s": tracer.self_s[layer] for layer in ("finset", "span", "feistel", "internal", "fib")}
    times.update({
        "feistel.conv_mult_us": per_call_us("feistel.conv_mult"),
        "feistel.kleisli_compose_us": per_call_us("feistel.kleisli_compose"),
        "feistel.extend_us": per_call_us("feistel.extend"),
        "feistel.kleisli_inverse_s": group_s["feistel.kleisli_inverse"],
        "internal.category_build_s": group_s["internal.category_build"],
        "fib.build_conv_s": group_s["fib.build_conv"],
        "fib.build_endo_s": group_s["fib.build_endo"],
        "fib.check_functor_s": group_s["fib.check_functor"],
        "cli.parse_s": group_s["cli.parse"],
        "cli.command_s": group_s["cli.command"],
        "verify_s": p.wall_s,
    })
    return exact, times


def summarise_layers(layers: list[tuple[dict, dict]], untraced_verify_s: float) -> dict:
    """Counts and ratios from the first traced pass (they repeat exactly); times as medians."""
    out = dict(layers[0][0])
    for name in layers[0][1]:
        out[name] = statistics.median(times[name] for _exact, times in layers)
    out["trace.overhead_frac"] = out.pop("verify_s") / untraced_verify_s - 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import spanforge

    if Path(spanforge.__file__).resolve().parent != (src / "spanforge").resolve():
        print(f"perfbench: imported spanforge from {spanforge.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, root, workdir)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s, "python": platform.python_version()}
    spans = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        if not args.setup_only:
            result.update(measure(wl, args.seconds, spans))
    finally:
        wl.finish()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
