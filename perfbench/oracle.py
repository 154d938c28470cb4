"""Expected answers for every benchmark item, computed in plain Python.

Nothing here imports spanforge.  Each judge takes the raw text a user would
hand the ``spanforge`` command and returns ``(exit_code, stdout)``, where
``stdout`` is the exact expected output for exit 0 and ``None`` otherwise.
The exit-code contract is the documented one: 0 all checks pass, 1 a
property or table shape fails, 2 the input cannot be read or parsed
(wrong JSON types, unknown kinds, references to objects that do not exist).

The category, groupoid and monoid judges are brute force over the axioms;
the sub-slice judge checks identities and closure directly; the Toffoli and
Feistel judges use the straight-line formulas.
"""

from __future__ import annotations

import json
from itertools import product

KINDS = (
    "finset-map",
    "monoid",
    "group",
    "internal-category",
    "internal-groupoid",
    "sub-slice",
    "round-config",
)

FIB_PASS = (
    "conv-fibration unique-lift: pass\n"
    "endo-fibration unique-lift: pass\n"
    "cartesian-iso: pass\n"
)


class Unparseable(Exception):
    """The input is not a well-typed document: exit 2."""


class Violated(Exception):
    """The input parses but a table shape or a law fails: exit 1."""


def _int(doc: dict, field: str) -> int:
    value = doc.get(field)
    if type(value) is not int:
        raise Unparseable(field)
    return value


def _ints(doc: dict, field: str) -> list[int]:
    value = doc.get(field)
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise Unparseable(field)
    return value


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise Violated(what)


def _table(values, length: int, bound: int, what: str) -> None:
    _require(len(values) == length and all(0 <= v < bound for v in values), what)


def composable_pairs(d, c) -> list[tuple[int, int]]:
    """Pairs (a, b) with c(a) = d(b), in lexicographic order."""
    return [(a, b) for a in range(len(c)) for b in range(len(d)) if c[a] == d[b]]


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError:
        raise Unparseable("json") from None
    if not isinstance(doc, dict) or doc.get("kind") not in KINDS:
        raise Unparseable("kind")
    return doc


# --- structures -------------------------------------------------------------


class Category:
    """Parsed internal-category tables; shape and axioms checked separately."""

    def __init__(self, doc: dict, groupoid: bool = False) -> None:
        self.o_size = _int(doc, "o_size")
        self.m_size = _int(doc, "m_size")
        self.d = _ints(doc, "d")
        self.c = _ints(doc, "c")
        self.eta = _ints(doc, "eta")
        self.mu = _ints(doc, "mu")
        self.iota = _ints(doc, "iota") if groupoid else None

    def require_shape(self) -> None:
        _require(self.o_size >= 0 and self.m_size >= 0, "sizes")
        _table(self.d, self.m_size, self.o_size, "d")
        _table(self.c, self.m_size, self.o_size, "c")
        _table(self.eta, self.o_size, self.m_size, "eta")
        self.pairs = composable_pairs(self.d, self.c)
        _table(self.mu, len(self.pairs), self.m_size, "mu")
        if self.iota is not None:
            _table(self.iota, self.m_size, self.m_size, "iota")
        self.index = {pair: i for i, pair in enumerate(self.pairs)}

    def then(self, a: int, b: int) -> int | None:
        i = self.index.get((a, b))
        return None if i is None else self.mu[i]

    def require_axioms(self) -> None:
        d, c, eta = self.d, self.c, self.eta
        for o in range(self.o_size):
            _require(d[eta[o]] == o and c[eta[o]] == o, "identity endpoints")
        for (a, b), ab in zip(self.pairs, self.mu):
            _require(d[ab] == d[a] and c[ab] == c[b], "composite endpoints")
        for m in range(self.m_size):
            _require(self.then(eta[d[m]], m) == m, "left unit")
            _require(self.then(m, eta[c[m]]) == m, "right unit")
        for (a, b), ab in zip(self.pairs, self.mu):
            for x in range(self.m_size):
                bx = self.then(b, x)
                if bx is None:
                    continue
                lhs, rhs = self.then(ab, x), self.then(a, bx)
                _require(lhs is not None and lhs == rhs, "associativity")
        if self.iota is None:
            return
        iota = self.iota
        for m in range(self.m_size):
            _require(c[iota[m]] == d[m] and d[iota[m]] == c[m], "inverse endpoints")
            _require(self.then(m, iota[m]) == eta[d[m]], "right inverse")
            _require(self.then(iota[m], m) == eta[c[m]], "left inverse")
            _require(iota[iota[m]] == m, "involutive")

    def endo_arrows(self, o: int) -> list[int]:
        return [m for m in range(self.m_size) if self.d[m] == o and self.c[m] == o]


def _category_from_text(text: str) -> Category:
    doc = _load(text)
    if doc["kind"] not in ("internal-category", "internal-groupoid"):
        raise Unparseable("kind")
    ic = Category(doc, groupoid=doc["kind"] == "internal-groupoid")
    ic.require_shape()
    return ic


class Monoid:
    def __init__(self, doc: dict) -> None:
        self.size = _int(doc, "size")
        self.table = _ints(doc, "table")

    def require_monoid(self) -> None:
        n, t = self.size, self.table
        _require(len(t) == n * n and all(0 <= v < n for v in t), "cayley shape")
        units = [e for e in range(n) if all(t[e * n + i] == i and t[i * n + e] == i for i in range(n))]
        _require(bool(units), "unit")
        self.unit = units[0]
        for a, b, c in product(range(n), repeat=3):
            _require(t[t[a * n + b] * n + c] == t[a * n + t[b * n + c]], "associativity")

    def inverses(self) -> list[int]:
        n, t, e = self.size, self.table, self.unit
        inv = []
        for a in range(n):
            found = [b for b in range(n) if t[a * n + b] == e and t[b * n + a] == e]
            _require(bool(found), "inverse")
            inv.append(found[0])
        return inv


def _objects(raw, o_size: int) -> list[tuple[int, tuple[int, ...]]]:
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise Unparseable("objects")
    parsed = [(_int(e, "size"), tuple(_ints(e, "map"))) for e in raw]
    for size, f in parsed:
        _require(size >= 0, "object size")
        _table(f, size, o_size, "object map")
    return parsed


def _arrows(raw, objects) -> list[tuple[int, int, tuple[int, ...]]]:
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise Unparseable("arrows")
    parsed = []
    for e in raw:
        src, dst = _int(e, "src"), _int(e, "dst")
        if not (0 <= src < len(objects) and 0 <= dst < len(objects)):
            raise Unparseable("arrow endpoint")
        parsed.append((src, dst, tuple(_ints(e, "map"))))
    return parsed


def require_subslice(objects, arrows) -> None:
    """Slice cells commute, objects and arrows are distinct, identities and composites present."""
    for src, dst, phi in arrows:
        (a_size, f), (b_size, g) = objects[src], objects[dst]
        _table(phi, a_size, b_size, "cell map")
        _require(all(g[phi[x]] == f[x] for x in range(a_size)), "cell commutes")
    _require(len(set(objects)) == len(objects), "distinct objects")
    cells = set(arrows)
    _require(len(cells) == len(arrows), "distinct arrows")
    for i, (size, _f) in enumerate(objects):
        _require((i, i, tuple(range(size))) in cells, "identity")
    for s1, d1, p1 in arrows:
        for s2, d2, p2 in arrows:
            if d1 == s2:
                _require((s1, d2, tuple(p2[v] for v in p1)) in cells, "closure")


# --- commands ---------------------------------------------------------------


def _exit(judge) -> tuple[int, str | None]:
    try:
        return 0, judge()
    except Unparseable:
        return 2, None
    except Violated:
        return 1, None


def check(text: str, kind_flag: str | None = None) -> tuple[int, str | None]:
    """``spanforge check FILE [--kind KIND]``."""

    def judge() -> str:
        doc = _load(text)
        kind = doc["kind"]
        if kind_flag is not None and kind_flag != kind:
            raise Unparseable("kind flag")
        if kind == "finset-map":
            dom, cod, table = _int(doc, "dom"), _int(doc, "cod"), _ints(doc, "table")
            _require(dom >= 0 and cod >= 0, "sizes")
            _table(table, dom, cod, "table")
        elif kind in ("monoid", "group"):
            monoid = Monoid(doc)
            monoid.require_monoid()
            if kind == "group":
                monoid.inverses()
        elif kind in ("internal-category", "internal-groupoid"):
            ic = Category(doc, groupoid=kind == "internal-groupoid")
            ic.require_shape()
            ic.require_axioms()
        elif kind == "sub-slice":
            inner = doc.get("internal_category")
            if not isinstance(inner, dict):
                raise Unparseable("internal_category")
            ic = Category(inner)
            objects = _objects(doc.get("objects"), ic.o_size)
            arrows = _arrows(doc.get("arrows"), objects)
            ic.require_shape()
            ic.require_axioms()
            require_subslice(objects, arrows)
        else:
            rounds = _int(doc, "rounds")
            fns = _round_functions(doc)
            _require(len(fns) == rounds, "round count")
            for fn in fns:
                _require(len(fn) == len(fns[0]) and all(0 <= v < len(fn) for v in fn), "round fn")
        return "ok\n"

    return _exit(judge)


def _round_functions(doc: dict) -> list[list[int]]:
    fns = doc.get("round_functions")
    if not isinstance(fns, list) or not all(
        isinstance(fn, list) and all(type(v) is int for v in fn) for fn in fns
    ):
        raise Unparseable("round_functions")
    return fns


def fib_check(ic_text: str, subslice_text: str) -> tuple[int, str | None]:
    """``spanforge fib-check``: a valid sub-slice over a category passes all three checks."""

    def judge() -> str:
        ic = _category_from_text(ic_text)
        doc = _load(subslice_text)
        if doc["kind"] != "sub-slice":
            raise Unparseable("kind")
        objects = _objects(doc.get("objects"), ic.o_size)
        arrows = _arrows(doc.get("arrows"), objects)
        ic.require_axioms()
        require_subslice(objects, arrows)
        return FIB_PASS

    return _exit(judge)


def conv_table(ic_text: str, a_size_text: str, f_text: str) -> tuple[int, str | None]:
    """``spanforge conv-table``: the fibre of endo-arrow families and its pointwise product."""

    def judge() -> str:
        ic = _category_from_text(ic_text)
        ic.require_axioms()
        try:
            a_size = int(a_size_text)
            f = [int(v) for v in f_text.split(",")] if f_text else []
        except ValueError:
            raise Unparseable("slice") from None
        _require(a_size >= 0, "carrier size")
        _table(f, a_size, ic.o_size, "slice map")
        fibre = list(product(*(ic.endo_arrows(o) for o in f)))
        index = {x: i for i, x in enumerate(fibre)}
        unit = index[tuple(ic.eta[o] for o in f)]
        lines = [f"fibre size: {len(fibre)}"]
        lines += [f"  {i}: {list(x)}" for i, x in enumerate(fibre)]
        lines += [f"unit: {unit}", "multiplication table:"]
        mult = [[index[tuple(ic.then(a, b) for a, b in zip(x, y))] for y in fibre] for x in fibre]
        lines += ["  " + " ".join(str(v) for v in row) for row in mult]
        n = len(fibre)
        group = all(any(mult[i][j] == unit and mult[j][i] == unit for j in range(n)) for i in range(n))
        lines.append(f"group: {'yes' if group else 'no'}")
        return "\n".join(lines) + "\n"

    return _exit(judge)


def toffoli(m_text: str, n_text: str, f_text: str) -> tuple[int, str | None]:
    """``spanforge toffoli``: (x, y) -> (x, f(x) xor y), printed bit string by bit string."""

    def judge() -> str:
        try:
            m, n = int(m_text), int(n_text)
            table = [int(v) for v in f_text.split(",")] if f_text else []
        except ValueError:
            raise Unparseable("arguments") from None
        _require(m >= 0 and n >= 0, "widths")
        _table(table, 1 << m, 1 << n, "truth table")
        width = m + n
        return "".join(
            f"{x << n | y:0{width}b} -> {x << n | (table[x] ^ y):0{width}b}\n"
            for x in range(1 << m)
            for y in range(1 << n)
        )

    return _exit(judge)


def feistel(mode: str, group_text: str, rounds_text: str, keys_text: str, input_text: str):
    """``spanforge feistel``: rounds (l, r) -> (f(l) r, l), undone backwards with inverses."""

    def judge() -> str:
        try:
            rounds = int(rounds_text)
        except ValueError:
            raise Unparseable("rounds") from None
        group_doc = _load(group_text)
        if group_doc["kind"] not in ("group", "monoid"):
            raise Unparseable("group kind")
        group = Monoid(group_doc)
        keys_doc = _load(keys_text)
        if keys_doc["kind"] != "round-config":
            raise Unparseable("keys kind")
        declared = _int(keys_doc, "rounds")
        fns = _round_functions(keys_doc)
        group.require_monoid()
        _require(declared == rounds, "declared rounds")
        inv = group.inverses()
        _require(len(fns) == rounds, "round functions")
        size, t = group.size, group.table
        for fn in fns:
            _table(fn, size, size, "round function")
        try:
            state = int(input_text, 16)
        except ValueError:
            raise Unparseable("input") from None
        if not 0 <= state < size * size:
            raise Unparseable("input range")
        l, r = divmod(state, size)
        if mode == "encrypt":
            for fn in fns:
                l, r = t[fn[l] * size + r], l
        else:
            for fn in reversed(fns):
                l, r = r, t[inv[fn[r]] * size + l]
        width = len(format(size * size - 1, "x"))
        return f"0x{l * size + r:0{width}x}\n"

    return _exit(judge)


# --- library laws, for the sweep workloads ----------------------------------


def extension_index(f, d) -> dict[tuple[int, int], int]:
    """Apex positions of the pullback of (f, d): pairs (a, m) with f(a) = d(m), lexicographic."""
    pairs = [(a, m) for a in range(len(f)) for m in range(len(d)) if f[a] == d[m]]
    return {pair: i for i, pair in enumerate(pairs)}


def extension(index: dict, x_table) -> tuple[int, ...]:
    """The table of a -> (a, x(a)), the extension of the family x."""
    return tuple(index[(a, m)] for a, m in enumerate(x_table))
