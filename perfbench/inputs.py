"""Seeded generator of the ``verdicts`` workload: small JSON inputs and CLI calls.

Each block is a fixed mix of command kinds, so every block costs about the
same; the seed and the block number choose the instances, their labelling
and their defects.  Every generated document is a fresh relabelling or
mutant of a small catalog structure, written out here from its textbook
definition rather than taken from spanforge.  Expected answers come from
``oracle``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import oracle


@dataclass(frozen=True)
class Item:
    """One CLI invocation and the answer the oracle expects from it."""

    kind: str
    argv: tuple[str, ...]
    code: int
    stdout: str | None
    # Inputs the parser is documented to reject (exit 2) but that the seed
    # engine mishandles; their mismatches are counted, not treated as a
    # broken benchmark.
    known_defect: bool = False


# --- small structures as plain tables ---------------------------------------


def _monoid(rows) -> tuple[int, list[int]]:
    return len(rows), [v for row in rows for v in row]


MONOIDS = {
    "trivial": _monoid([[0]]),
    "z2": _monoid([[(i + j) % 2 for j in range(2)] for i in range(2)]),
    "and2": _monoid([[0, 0], [0, 1]]),
    "z3": _monoid([[(i + j) % 3 for j in range(3)] for i in range(3)]),
    "leftzero3": _monoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]]),
    "z4": _monoid([[(i + j) % 4 for j in range(4)] for i in range(4)]),
    "klein4": _monoid([[i ^ j for j in range(4)] for i in range(4)]),
}
GROUPS = ("trivial", "z2", "z3", "z4", "klein4")


def _unit(n: int, table: list[int]) -> int:
    return next(e for e in range(n) if all(table[e * n + i] == i == table[i * n + e] for i in range(n)))


def one_object(name: str) -> dict:
    n, table = MONOIDS[name]
    doc = {"kind": "internal-category", "o_size": 1, "m_size": n, "d": [0] * n,
           "c": [0] * n, "eta": [_unit(n, table)], "mu": list(table)}
    if name in GROUPS:
        e = doc["eta"][0]
        doc["kind"] = "internal-groupoid"
        doc["iota"] = [next(b for b in range(n) if table[a * n + b] == e) for a in range(n)]
    return doc


def _from_composition(o_size, m_size, d, c, eta, then, iota=None) -> dict:
    mu = [then(a, b) for a, b in oracle.composable_pairs(d, c)]
    doc = {"kind": "internal-category", "o_size": o_size, "m_size": m_size,
           "d": d, "c": c, "eta": eta, "mu": mu}
    if iota is not None:
        doc["kind"] = "internal-groupoid"
        doc["iota"] = iota
    return doc


def pair_groupoid(n: int) -> dict:
    arrows = range(n * n)
    return _from_composition(
        n, n * n, [x // n for x in arrows], [x % n for x in arrows],
        [a * n + a for a in range(n)], lambda x, y: (x // n) * n + y % n,
        [(x % n) * n + x // n for x in arrows],
    )


def discrete(n: int) -> dict:
    ident = list(range(n))
    return _from_composition(n, n, ident, ident, ident, lambda x, _y: x, ident)


def action_z2() -> dict:
    # the swap action of Z/2 on two points: arrow (p, g) is p * 2 + g
    return _from_composition(
        2, 4, [x // 2 for x in range(4)], [(x // 2) ^ (x % 2) for x in range(4)], [0, 2],
        lambda x, y: (x // 2) * 2 + ((x % 2) ^ (y % 2)),
        [((x // 2) ^ (x % 2)) * 2 + x % 2 for x in range(4)],
    )


def catalog() -> list[dict]:
    docs = [one_object(name) for name in MONOIDS]
    docs += [pair_groupoid(1), pair_groupoid(2), pair_groupoid(3), discrete(2), discrete(3), action_z2()]
    return docs


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same structure with objects and arrows renamed by random permutations."""
    po = list(range(doc["o_size"]))
    pm = list(range(doc["m_size"]))
    rng.shuffle(po)
    rng.shuffle(pm)
    back = {new: old for old, new in enumerate(pm)}
    d = [po[doc["d"][back[x]]] for x in range(doc["m_size"])]
    c = [po[doc["c"][back[x]]] for x in range(doc["m_size"])]
    eta = [0] * doc["o_size"]
    for o, m in enumerate(doc["eta"]):
        eta[po[o]] = pm[m]
    old_index = {p: i for i, p in enumerate(oracle.composable_pairs(doc["d"], doc["c"]))}
    then = lambda a, b: pm[doc["mu"][old_index[(back[a], back[b])]]]  # noqa: E731
    iota = None
    if "iota" in doc:
        iota = [pm[doc["iota"][back[x]]] for x in range(doc["m_size"])]
    return _from_composition(doc["o_size"], doc["m_size"], d, c, eta, then, iota)


def mutate(doc: dict, rng: random.Random) -> dict:
    """Change one entry of one table to another in-range value."""
    fields = [f for f in ("d", "c", "eta", "mu", "iota") if f in doc]
    while True:
        field = rng.choice(fields)
        bound = doc["o_size"] if field in ("d", "c") else doc["m_size"]
        if doc[field] and bound > 1:
            break
    out = json.loads(json.dumps(doc))
    pos = rng.randrange(len(out[field]))
    out[field][pos] = rng.choice([v for v in range(bound) if v != out[field][pos]])
    return out


def full_subslice(ic: dict, rng: random.Random, count: int) -> tuple[list, list]:
    """Distinct small slice objects and every commuting cell between them."""
    o = ic["o_size"]
    pool = [(size, f) for size in range(3) for f in product(range(o), repeat=size)]
    objects = rng.sample(pool, min(count, len(pool)))
    arrows = []
    for i, (a, f) in enumerate(objects):
        for j, (b, g) in enumerate(objects):
            for phi in product(range(b), repeat=a):
                if all(g[phi[x]] == f[x] for x in range(a)):
                    arrows.append((i, j, phi))
    rng.shuffle(arrows)
    return objects, arrows


def subslice_doc(objects, arrows, ic: dict | None = None) -> dict:
    doc = {"kind": "sub-slice",
           "objects": [{"size": a, "map": list(f)} for a, f in objects],
           "arrows": [{"src": i, "dst": j, "map": list(phi)} for i, j, phi in arrows]}
    if ic is not None:
        doc["internal_category"] = {k: v for k, v in ic.items() if k not in ("kind", "iota")}
    return doc


def break_subslice(objects, arrows, rng: random.Random) -> tuple[list, list]:
    """One defect: a lost identity or cell, a bent cell map, or a repeated object."""
    objects, arrows = list(objects), list(arrows)
    how = rng.randrange(4)
    if how == 0:
        idents = [k for k, (i, j, phi) in enumerate(arrows) if i == j and phi == tuple(range(len(phi)))]
        del arrows[rng.choice(idents)]
    elif how == 1:
        del arrows[rng.randrange(len(arrows))]
    elif how == 2 and any(phi for _i, _j, phi in arrows):
        k = rng.choice([k for k, (_i, _j, phi) in enumerate(arrows) if phi])
        i, j, phi = arrows[k]
        bent = list(phi)
        bent[rng.randrange(len(bent))] = objects[j][0]  # one past the end of the target
        arrows[k] = (i, j, tuple(bent))
    else:
        objects.append(objects[0])
    return objects, arrows


# --- the stream --------------------------------------------------------------


FULL_MIX = {
    "category": 10, "category-mutant": 10, "groupoid": 5, "groupoid-mutant": 5,
    "monoid": 8, "finset-map": 4, "malformed": 10, "subslice": 8, "fixture": 6,
    "fib-check": 4, "conv-table": 4, "toffoli": 9, "feistel": 9, "parser-hole": 3,
}
TINY_MIX = {kind: 1 for kind in FULL_MIX}


class VerdictStream:
    """Blocks of CLI invocations; block k depends only on (seed, k)."""

    def __init__(self, seed: int, fixtures: Path, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.fixtures = fixtures
        self.workdir = workdir
        self.mix = TINY_MIX if tiny else FULL_MIX
        self.catalog = catalog()
        self.small = [doc for doc in self.catalog if doc["m_size"] <= 4]
        self.fixture_text = {p.name: p.read_text() for p in sorted(fixtures.glob("*.json"))}

    def block(self, k: int) -> list[Item]:
        rng = random.Random(f"verdicts:{self.seed}:{k}")
        self.dir = self.workdir / f"block{k}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = 0
        items = []
        for kind, count in self.mix.items():
            make = getattr(self, "_" + kind.replace("-", "_"))
            items += [make(rng) for _ in range(count)]
        rng.shuffle(items)
        return items

    def _write(self, text: str) -> str:
        self.files += 1
        path = self.dir / f"in{self.files}.json"
        path.write_text(text)
        return str(path)

    def _check(self, kind: str, doc, kind_flag=None, defect=False) -> Item:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        argv = ("check", self._write(text)) + (("--kind", kind_flag) if kind_flag else ())
        return Item(kind, argv, *oracle.check(text, kind_flag), known_defect=defect)

    def _ic(self, rng, pool=None) -> dict:
        return relabel(rng.choice(pool or self.catalog), rng)

    def _category(self, rng) -> Item:
        return self._check("category", self._ic(rng))

    def _category_mutant(self, rng) -> Item:
        doc = self._ic(rng, [d for d in self.catalog if d["m_size"] > 1])
        doc.pop("iota", None)
        doc["kind"] = "internal-category"
        return self._check("category-mutant", mutate(doc, rng))

    def _groupoids(self) -> list[dict]:
        return [d for d in self.catalog if "iota" in d and d["m_size"] > 1]

    def _groupoid(self, rng) -> Item:
        return self._check("groupoid", self._ic(rng, self._groupoids()))

    def _groupoid_mutant(self, rng) -> Item:
        return self._check("groupoid-mutant", mutate(self._ic(rng, self._groupoids()), rng))

    def _monoid(self, rng) -> Item:
        name = rng.choice(sorted(MONOIDS))
        n, table = MONOIDS[name]
        perm = list(range(n))
        rng.shuffle(perm)
        back = {new: old for old, new in enumerate(perm)}
        table = [perm[table[back[i] * n + back[j]]] for i in range(n) for j in range(n)]
        if n > 1 and rng.random() < 0.4:
            table[rng.randrange(n * n)] = rng.randrange(n)
        kind = rng.choice(("monoid", "group"))
        return self._check("monoid", {"kind": kind, "name": name, "size": n, "table": table})

    def _finset_map(self, rng) -> Item:
        dom, cod = rng.randrange(4), rng.randrange(1, 4)
        table = [rng.randrange(cod) for _ in range(dom)]
        if rng.random() < 0.5:
            table.append(0)  # one entry too many
        elif table and rng.random() < 0.5:
            table[0] = cod  # out of range
        return self._check("finset-map", {"kind": "finset-map", "dom": dom, "cod": cod, "table": table})

    def _malformed(self, rng) -> Item:
        doc = self._ic(rng)
        how = rng.randrange(10)
        if how == 0:
            return self._check("malformed", json.dumps(doc)[:-1])
        if how == 1:
            return self._check("malformed", json.dumps([doc]))
        if how == 2:
            doc["kind"] = rng.choice(("category", "groupoid", "span", ""))
        elif how == 3:
            del doc["kind"]
        elif how == 4:
            doc[rng.choice(("d", "c", "eta", "mu"))] = "0,1"
        elif how == 5:
            del doc[rng.choice(("o_size", "m_size", "d", "c", "eta", "mu"))]
        elif how == 6:
            doc["mu"] = [v + 0.5 for v in doc["mu"]]
        elif how == 7:
            doc["o_size"] = str(doc["o_size"])
        elif how == 8:
            return self._check("malformed", doc, kind_flag=rng.choice(("monoid", "sub-slice")))
        else:
            return Item("malformed", ("check", str(self.dir / "missing.json")), 2, None)
        return self._check("malformed", doc)

    def _subslice(self, rng) -> Item:
        ic = self._ic(rng, [d for d in self.small if d["o_size"] <= 2])
        objects, arrows = full_subslice(ic, rng, rng.randrange(1, 4))
        if rng.random() < 0.5:
            objects, arrows = break_subslice(objects, arrows, rng)
        return self._check("subslice", subslice_doc(objects, arrows, ic))

    def _fixture(self, rng) -> Item:
        name = rng.choice(("pair_groupoid.json", "pair_groupoid_bad_mu.json", "z2_internal.json",
                           "and2_internal.json", "feistel_keys.json", "fib", "fib-defect"))
        if name.startswith("fib"):
            sub = "subslice_pair2_defect.json" if name == "fib-defect" else "subslice_pair2.json"
            argv = ("fib-check", "--internal", str(self.fixtures / "pair_groupoid.json"),
                    "--subslice", str(self.fixtures / sub))
            return Item("fixture", argv, *oracle.fib_check(self.fixture_text["pair_groupoid.json"],
                                                           self.fixture_text[sub]))
        return Item("fixture", ("check", str(self.fixtures / name)), *oracle.check(self.fixture_text[name]))

    def _fib_check(self, rng) -> Item:
        ic = self._ic(rng, [d for d in self.small if d["o_size"] <= 2 and d["m_size"] <= 3])
        objects, arrows = full_subslice(ic, rng, rng.randrange(1, 4))
        if rng.random() < 0.5:
            objects, arrows = break_subslice(objects, arrows, rng)
        ic_text, sub_text = json.dumps(ic), json.dumps(subslice_doc(objects, arrows))
        argv = ("fib-check", "--internal", self._write(ic_text), "--subslice", self._write(sub_text))
        return Item("fib-check", argv, *oracle.fib_check(ic_text, sub_text))

    def _conv_table(self, rng) -> Item:
        ic = self._ic(rng, self.small)
        a = rng.randrange(3 if ic["m_size"] <= 2 * ic["o_size"] else 2)
        f = ",".join(str(rng.randrange(ic["o_size"])) for _ in range(a))
        text = json.dumps(ic)
        argv = ("conv-table", self._write(text), "--slice", str(a), f)
        return Item("conv-table", argv, *oracle.conv_table(text, str(a), f))

    def _toffoli(self, rng) -> Item:
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        table = [str(rng.randrange(1 << n)) for _ in range(1 << m)]
        how = rng.randrange(4)
        if how == 1:
            table[rng.randrange(len(table))] = str(1 << n)  # does not fit in n bits
        elif how == 2:
            table.append("0")  # one row too many
        elif how == 3:
            table[0] = "x"
        f = ",".join(table)
        return Item("toffoli", ("toffoli", "--m", str(m), "--n", str(n), "--f", f),
                    *oracle.toffoli(str(m), str(n), f))

    def _feistel(self, rng) -> Item:
        if rng.random() < 0.2:
            group_text = self.fixture_text["z2_4_group.json"]
            keys_text = self.fixture_text["feistel_keys.json"]
            group_path = str(self.fixtures / "z2_4_group.json")
            keys_path = str(self.fixtures / "feistel_keys.json")
            size, rounds = 16, 4
        else:
            name = rng.choice(("z2", "z3", "z4", "klein4", "and2"))
            size, table = MONOIDS[name]
            rounds = rng.randrange(5)
            fns = [[rng.randrange(size) for _ in range(size)] for _ in range(rounds)]
            group_text = json.dumps({"kind": "group", "name": name, "size": size, "table": table})
            keys_text = json.dumps({"kind": "round-config", "rounds": rounds, "round_functions": fns})
            group_path, keys_path = self._write(group_text), self._write(keys_text)
        state = rng.randrange(size * size + (size if rng.random() < 0.15 else 0))
        declared = rounds + (1 if rng.random() < 0.1 else 0)
        mode = rng.choice(("encrypt", "decrypt"))
        argv = ("feistel", mode, "--group", group_path, "--rounds", str(declared),
                "--keys", keys_path, "--input", hex(state))
        return Item("feistel", argv,
                    *oracle.feistel(mode, group_text, str(declared), keys_text, hex(state)))

    def _parser_hole(self, rng) -> Item:
        """The documented exit-2 cases the seed parser gets wrong."""
        how = rng.randrange(3)
        if how == 2:
            doc = {"kind": rng.choice(("monoid", "group")), "size": True, "table": [0]}
            return self._check("parser-hole", doc, defect=True)
        ic = self._ic(rng, [d for d in self.small if d["o_size"] <= 2])
        objects, arrows = full_subslice(ic, rng, rng.randrange(1, 4))
        doc = subslice_doc(objects, arrows, ic)
        arrow = rng.choice(doc["arrows"])
        arrow[rng.choice(("src", "dst"))] = -1 if how == 1 else len(objects) + rng.randrange(1, 99)
        return self._check("parser-hole", doc, defect=True)
