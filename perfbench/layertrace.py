"""Layer tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` rebinds, in every loaded ``spanforge`` module, each public
function of the seven layer modules (plus the report module), each private
function another module imports, and the ``__post_init__`` of every
validating dataclass, to a wrapper that opens a span.  Nothing under ``src/``
is edited, and ``uninstall`` restores the original bindings.

A span is (id, name, start, end, parent id, run id); the run id names the
benchmark item it belongs to.  Self time per layer is each span's duration
minus the time its child spans cover.  It is accumulated as spans close,
because a homomorphism pass closes millions of them; only the first
``KEEP_SPANS`` spans are kept in memory and written out, for inspection.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "spanforge"
LAYERS = ("finset", "span", "internal", "catalog", "feistel", "fib", "cli", "report")
KEEP_SPANS = 50_000

# Inclusive-time groups: time counts once, from the outermost call into any
# member, so nested members (a loader calling another loader) are not doubled.
GROUPS = {
    "feistel.conv_mult": ("feistel.conv_mult",),
    "feistel.kleisli_compose": ("feistel.kleisli_compose",),
    "feistel.extend": ("feistel.extend",),
    "feistel.kleisli_inverse": ("feistel.kleisli_inverse",),
    "internal.category_build": ("internal.FiniteCategory",),
    "fib.build_conv": ("fib.build_conv_fibration",),
    "fib.build_endo": ("fib.build_endo_fibration",),
    "fib.check_functor": ("fib.check_functor",),
    "cli.parse": (
        "cli.build_parser",
        "cli.load_document",
        "cli.finmap_from_document",
        "cli.monoid_from_document",
        "cli.internal_category_from_document",
        "cli.internal_groupoid_from_document",
        "cli.subslice_from_document",
        "cli.round_config_from_document",
    ),
    "cli.command": (
        "cli.cmd_check",
        "cli.cmd_conv_table",
        "cli.cmd_toffoli",
        "cli.cmd_feistel",
        "cli.cmd_fib_check",
    ),
}


def _is_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


class Tracer:
    def __init__(self) -> None:
        self.modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        self.caches = self._find_caches()
        self.group_of = defaultdict(list)
        for group, names in GROUPS.items():
            for name in names:
                self.group_of[name].append(group)
        self.patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.run_id = None
        self._next_id = 0
        self.reset()

    # --- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh measurement window (spans already kept stay kept)."""
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.group_s: defaultdict[str, float] = defaultdict(float)
        self.group_calls: Counter = Counter()
        self._active: Counter = Counter()

    def _enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._next_id, name, layer, parent, 0.0, perf_counter()]
        self.stack.append(frame)
        self.calls[name] += 1
        for group in self.group_of.get(name, ()):
            if self._active[group] == 0:
                self.group_calls[group] += 1
            self._active[group] += 1
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter()
        span_id, name, layer, parent, child, start = frame
        self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][4] += duration
        for group in self.group_of.get(name, ()):
            self._active[group] -= 1
            if self._active[group] == 0:
                self.group_s[group] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def cache_stats(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, currsize) for every lru cache in the package."""
        out = {}
        for name, cache in self.caches.items():
            info = cache.cache_info()
            out[name] = (info.hits, info.misses, info.currsize)
        return out

    def _find_caches(self) -> dict[str, object]:
        caches = {}
        for modname, module in self._namespaces():
            for attr, obj in vars(module).items():
                if _is_cache(obj) and getattr(obj, "__module__", None) == modname:
                    caches[f"{modname.rsplit('.', 1)[-1]}.{attr}"] = obj
        return caches

    def _namespaces(self):
        return sorted(
            (name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        )

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, hook=None):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        def endos(args, result):
            self.counts["feistel.endos_enumerated"] += len(result)

        def category(args, result):
            self.counts["internal.category_pairs_verified"] += len(args[0].comp)

        def fibration(args, result):
            self.counts["fib.total_objects"] += len(args[0].total.objects)
            self.counts["fib.total_arrows"] += len(args[0].total.arrows)

        return {
            "feistel.kleisli_fibre": endos,
            "internal.FiniteCategory": category,
            "fib.FibrationInstance": fibration,
        }

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [mod for _name, mod in self._namespaces()]
        hooks = self._hooks()
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if not defined_here:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    post = vars(obj).get("__post_init__")
                    if post is not None:
                        self._patch(obj, "__post_init__", self._wrap(name, layer, post, hooks.get(name)))
                    continue
                if not (inspect.isfunction(obj) or _is_cache(obj)):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # time spent iterating belongs to the consumer
                wrapped = self._wrap(name, layer, obj, hooks.get(name))
                public = not attr.startswith("_")
                for ns in namespaces:
                    if ns is module and not public:
                        continue  # private helpers are spans only where another module calls them
                    for ns_attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, ns_attr, wrapped)
        reports = self.modules["report"].ReportBuilder
        self._patch(reports, "fail", self._wrap("report.fail", "report", reports.fail))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
