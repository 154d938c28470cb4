"""The four workloads: set-up, one verification pass, and the check of its answers.

A pass is one complete verdict: the whole homomorphism sweep, the whole
inversion sweep, one fibration check, or one block of CLI calls.  Items are
timed one by one inside the pass; the oracle compares answers only after the
pass clock has stopped.  spanforge functions are looked up on their modules
at call time, so the traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from time import perf_counter

import spanforge as sf
from spanforge import catalog, cli

import inputs
import oracle
import probe


@dataclass
class Pass:
    wall_s: float
    item_s: array  # seconds per item, unboxed so that long runs do not inflate peak RSS
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    exits: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.item_s)

    def expect(self, ok: bool, what: str, known_defect: bool = False) -> None:
        """Count an item whose answer differs from the oracle."""
        if not ok:
            self.failed += 1
            if not known_defect:
                self.wrong.append(what)


def point_base(ic, size: int):
    x = sf.FinSet(size)
    return sf.SliceObject(x, sf.FinMap(x, ic.o, (0,) * size))


def require_tables(ic, doc: dict) -> None:
    """The catalog instance must be the textbook structure the oracle assumes."""
    got = {"d": ic.d.table, "c": ic.c.table, "eta": ic.eta.table, "mu": ic.mu.table}
    for key, value in got.items():
        if list(value) != doc[key]:
            raise RuntimeError(f"catalog table {key} differs from its definition: {value}")


class Workload:
    name = ""
    warmup = True  # an untimed first pass fills the caches
    pins: dict[str, int] = {}

    def __init__(self, seed: int, tiny: bool, root: Path, workdir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = tiny

    def check_pins(self, p: Pass, counts: dict[str, int]) -> None:
        if self.tiny:
            return
        for key, want in self.pins.items():
            if counts[key] != want:
                p.wrong.append(f"{key}: {counts[key]} checked, pinned {want}")

    def finish(self) -> None:
        pass


class Homomorphism(Workload):
    """extend(s * t) == extend(t) after extend(s), for every fibre pair."""

    name = "homomorphism"
    pins = {"pairs": 10_552}

    def __init__(self, seed, tiny, root, workdir) -> None:
        super().__init__(seed, tiny, root, workdir)
        self.blocks = []
        for name, monoid in catalog.MONOIDS.items():
            n, table = inputs.MONOIDS[name]
            ic = catalog.one_object_category(monoid)
            require_tables(ic, inputs.one_object(name))
            unit = inputs.one_object(name)["eta"][0]
            for x in range(2 if tiny else 4):
                fibre = list(product(range(n), repeat=x))
                index = oracle.extension_index((0,) * x, (0,) * n)
                pairs = [(i, j) for i in range(len(fibre)) for j in range(len(fibre))]
                self.rng.shuffle(pairs)
                expected = [
                    oracle.extension(index, [table[a * n + b] for a, b in zip(fibre[i], fibre[j])])
                    for i, j in pairs
                ]
                unit_ext = oracle.extension(index, (unit,) * x)
                self.blocks.append((ic, point_base(ic, x), fibre, pairs, expected, unit_ext))
        self.rng.shuffle(self.blocks)

    def run_pass(self, k: int, tracer=None) -> Pass:
        times, answers = array("d"), []
        probed = probe.spent
        start = perf_counter()
        for b, (ic, fa, _fibre, pairs, _expected, _unit) in enumerate(self.blocks):
            if tracer:
                tracer.run_id = f"{k}:block{b}"
            fibre = sf.conv_fibre(fa, ic)
            units = (sf.extend(sf.conv_unit(fa, ic)), sf.kleisli_unit(fa, ic))
            extended = [sf.extend(e) for e in fibre]
            out = []
            for n, (i, j) in enumerate(pairs):
                if tracer:
                    tracer.run_id = f"{k}:{b}.{n}"
                t0 = perf_counter()
                lhs = sf.extend(sf.conv_mult(fibre[i], fibre[j]))
                rhs = sf.kleisli_compose(extended[i], extended[j])
                times.append(perf_counter() - t0)
                out.append((lhs, rhs))
                probe.tick()
            answers.append((fibre, units, out))
        p = Pass(perf_counter() - start - (probe.spent - probed), times)
        for (ic, fa, fibre, pairs, expected, unit_ext), (got_fibre, units, out) in zip(self.blocks, answers):
            where = f"{ic.m.size} arrows, |X|={fa.a.size}"
            if [e.map.table for e in got_fibre] != fibre:
                p.wrong.append(f"fibre order, {where}")
            if any(u.cell.map.table != unit_ext for u in units):
                p.wrong.append(f"unit, {where}")
            for (i, j), want, (lhs, rhs) in zip(pairs, expected, out):
                ok = lhs.cell.map.table == want == rhs.cell.map.table
                p.expect(ok, f"product of {fibre[i]} and {fibre[j]}, {where}")
        self.check_pins(p, {"pairs": p.attempted})
        return p


@dataclass
class Block:
    kind: str
    ic: object
    fa: object
    fibre: list  # oracle tables, lexicographic
    order: list  # item order within the block, from the seed
    n: int = 0
    endos: list | None = None
    endo_order: list | None = None
    iota: object = None
    inverses: list | None = None


class Inversion(Workload):
    """retrieve inverts extend; extend-retrieve fixes exactly the simply
    presented endomorphisms; over groupoids the Kleisli inverse of an
    extension is the extension of the pointwise inverse."""

    name = "inversion"
    pins = {"retrieved": 284, "roundtrips": 5_635, "inverses": 288}

    def __init__(self, seed, tiny, root, workdir) -> None:
        super().__init__(seed, tiny, root, workdir)
        sizes = range(2 if tiny else 4)
        self.blocks = []
        for name, monoid in catalog.MONOIDS.items():
            n = monoid.size
            ic = catalog.one_object_category(monoid)
            require_tables(ic, inputs.one_object(name))
            for x in sizes:
                fibre = list(product(range(n), repeat=x))
                endos = list(product(range(x * n), repeat=x))
                self.blocks.append(Block("roundtrip", ic, point_base(ic, x), fibre, self._order(fibre),
                                         n=n, endos=endos, endo_order=self._order(endos)))
        groupoids = [(catalog.one_object_groupoid(g), inputs.one_object(name)) for name, g in catalog.GROUPS.items()]
        groupoids += [(catalog.pair_groupoid(n), inputs.pair_groupoid(n)) for n in (1, 2, 3)]
        for groupoid, doc in groupoids:
            ic = groupoid.cat
            require_tables(ic, doc)
            d, c, iota = doc["d"], doc["c"], doc["iota"]
            for x in sizes:
                for f in product(range(doc["o_size"]), repeat=x):
                    a = sf.FinSet(x)
                    fa = sf.SliceObject(a, sf.FinMap(a, ic.o, f))
                    fibre = list(product(*([m for m in range(len(d)) if d[m] == c[m] == o] for o in f)))
                    index = oracle.extension_index(f, d)
                    inverses = [oracle.extension(index, [iota[m] for m in alpha]) for alpha in fibre]
                    self.blocks.append(Block("inverse", ic, fa, fibre, self._order(fibre),
                                             iota=groupoid.iota, inverses=inverses))
        self.rng.shuffle(self.blocks)

    def _order(self, items: list) -> list[int]:
        order = list(range(len(items)))
        self.rng.shuffle(order)
        return order

    def run_pass(self, k: int, tracer=None) -> Pass:
        times, answers = array("d"), []
        probed = probe.spent
        start = perf_counter()
        for b, block in enumerate(self.blocks):
            if tracer:
                tracer.run_id = f"{k}:block{b}"
            ic, fa = block.ic, block.fa
            fibre = sf.conv_fibre(fa, ic)
            endos, out = None, []
            if block.kind == "roundtrip":
                for n, i in enumerate(block.order):
                    if tracer:
                        tracer.run_id = f"{k}:{b}.r{n}"
                    t0 = perf_counter()
                    back = sf.retrieve(sf.extend(fibre[i]))
                    times.append(perf_counter() - t0)
                    out.append(back)
                    probe.tick()
                endos = sf.kleisli_fibre(fa, ic)
                for n, i in enumerate(block.endo_order):
                    if tracer:
                        tracer.run_id = f"{k}:{b}.e{n}"
                    t0 = perf_counter()
                    round_trip = sf.extend(sf.retrieve(endos[i]))
                    simple = sf.is_simply_presented(endos[i])
                    times.append(perf_counter() - t0)
                    out.append((round_trip, simple))
                    probe.tick()
            else:
                for n, i in enumerate(block.order):
                    if tracer:
                        tracer.run_id = f"{k}:{b}.i{n}"
                    t0 = perf_counter()
                    found = sf.kleisli_inverse(sf.extend(fibre[i]))
                    formula = sf.extend(sf.conv_element(fa, ic, sf.compose(block.iota, fibre[i].map)))
                    times.append(perf_counter() - t0)
                    out.append((found, formula))
                    probe.tick()
            answers.append((fibre, endos, out))
        p = Pass(perf_counter() - start - (probe.spent - probed), times)
        counts = Counter()
        for block, (fibre, endos, out) in zip(self.blocks, answers):
            where = f"{block.ic.m.size} arrows, |X|={block.fa.a.size}"
            if [e.map.table for e in fibre] != block.fibre:
                p.wrong.append(f"fibre order, {where}")
            if block.kind == "roundtrip":
                n = block.n
                for i, back in zip(block.order, out):
                    p.expect(back.map.table == block.fibre[i], f"retrieve(extend({block.fibre[i]})), {where}")
                counts["retrieved"] += len(block.order)
                if [e.cell.map.table for e in endos] != block.endos:
                    p.wrong.append(f"endomorphism order, {where}")
                for i, (round_trip, simple) in zip(block.endo_order, out[len(block.order):]):
                    endo = block.endos[i]
                    fixed = all(slot // n == a for a, slot in enumerate(endo))
                    want = tuple(a * n + slot % n for a, slot in enumerate(endo))
                    ok = round_trip.cell.map.table == want and simple == fixed
                    p.expect(ok, f"round trip of endomorphism {endo}, {where}")
                counts["roundtrips"] += len(block.endo_order)
            else:
                for i, (found, formula) in zip(block.order, out):
                    want = block.inverses[i]
                    ok = found is not None and found.cell.map.table == want == formula.cell.map.table
                    p.expect(ok, f"inverse of extend({block.fibre[i]}), {where}")
                counts["inverses"] += len(block.order)
        self.check_pins(p, counts)
        return p


class Fibration(Workload):
    """cartesian_iso and both unique-lift checks on the klein4 full sub-slice."""

    name = "fibration"
    warmup = False  # the pass rebuilds every category; caches barely matter
    pins = {"objects": 85, "base_arrows": 60, "conv_arrows": 2_817}

    def __init__(self, seed, tiny, root, workdir) -> None:
        super().__init__(seed, tiny, root, workdir)
        ic = catalog.CATALOG["klein4"].category
        require_tables(ic, inputs.one_object("klein4"))
        sizes = list(range(2 if tiny else 4))
        self.rng.shuffle(sizes)
        self.ss = sf.full_subslice(ic, [point_base(ic, a) for a in sizes])
        n = ic.m.size
        self.expected = {
            "objects": sum(n**j for j in sizes),
            "base_arrows": sum(j**i for i in sizes for j in sizes),
            "conv_arrows": sum(j**i * n**j for i in sizes for j in sizes),
        }

    def run_pass(self, k: int, tracer=None) -> Pass:
        if tracer:
            tracer.run_id = f"{k}:0"
        start = perf_counter()
        iso = sf.cartesian_iso(self.ss)
        lifts = (sf.check_discrete_fibration(iso.conv), sf.check_discrete_fibration(iso.endo))
        wall = perf_counter() - start
        p = Pass(wall, array("d", [wall]))
        got = {
            "objects": len(iso.conv.total.objects),
            "base_arrows": len(self.ss.arrows),
            "conv_arrows": len(iso.conv.total.arrows),
        }
        same_size = (len(iso.endo.total.objects), len(iso.endo.total.arrows)) == (
            got["objects"], got["conv_arrows"])
        passed = iso.report.passed and all(r.passed for r in lifts)
        p.expect(passed and same_size and got == self.expected,
                 f"fibration verdict {iso.report.summary()}, sizes {got}, expected {self.expected}")
        self.check_pins(p, got)
        return p


class Verdicts(Workload):
    """Blocks of generated CLI calls, about half of which must exit non-zero."""

    name = "verdicts"

    def __init__(self, seed, tiny, root, workdir) -> None:
        super().__init__(seed, tiny, root, workdir)
        self.workdir = workdir
        self.stream = inputs.VerdictStream(seed, root / "fixtures", workdir, tiny)
        self.first = self.stream.block(0)

    def run_pass(self, k: int, tracer=None) -> Pass:
        items = self.first if k == 0 else self.stream.block(k)
        times, answers = array("d"), []
        probed = probe.spent
        start = perf_counter()
        for n, item in enumerate(items):
            if tracer:
                tracer.run_id = f"{k}:{n}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = cli.main(list(item.argv))
                except Exception as exc:  # an escaped exception is an answer to count
                    code = f"escaped {type(exc).__name__}"
                times.append(perf_counter() - t0)
            answers.append((code, out.getvalue()))
            probe.tick()
        p = Pass(perf_counter() - start - (probe.spent - probed), times)
        shutil.rmtree(self.workdir / f"block{k}", ignore_errors=True)
        for item, (code, stdout) in zip(items, answers):
            p.exits[code if isinstance(code, int) else "escaped"] += 1
            ok = code == item.code and (item.stdout is None or stdout == item.stdout)
            p.expect(ok, f"{item.kind} {' '.join(item.argv)}: exit {code}, oracle {item.code}",
                     item.known_defect)
        return p

    def finish(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Homomorphism, Fibration, Inversion, Verdicts)}
