"""Command-line interface: check, conv-table, toffoli, feistel, fib-check.

Input files are JSON documents with a top-level "kind" tag.  All function
tables are integer arrays; Cayley tables are row-major.  Exit codes are
stable across commands: 0 all checks pass, 1 a property fails, 2 the
input could not be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .catalog import MonoidTable, monoid_from_flat
from .errors import (
    AxiomFails,
    KeyScheduleMismatch,
    MalformedTables,
    NotAGroup,
    ParseError,
    SpanforgeError,
    UnderlyingCategoryInvalid,
)
from .feistel import (
    conv_fibre,
    conv_mult,
    conv_unit,
    feistel_network,
    toffoli_extend,
)
from .fib import SubSlice, cartesian_iso, check_discrete_fibration
from .finset import FinMap, FinSet
from .internal import (
    InternalCategory,
    InternalGroupoid,
    budget,
    check_internal_category,
    check_internal_groupoid,
)
from .span import SliceObject, TwoCell

KINDS = (
    "finset-map",
    "monoid",
    "group",
    "internal-category",
    "internal-groupoid",
    "sub-slice",
    "round-config",
)
Internal = InternalCategory | InternalGroupoid  # what an internal-category or -groupoid document holds


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown kind {kind!r}")
    return doc


def _is_int(value) -> bool:
    """A JSON integer; true and false are booleans, not 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(doc: dict, field: str, path: str) -> list[int]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ParseError(f"{path}: field {field!r} must be an integer array")
    return value


def _int_field(doc: dict, field: str, path: str) -> int:
    value = doc.get(field)
    if not _is_int(value):
        raise ParseError(f"{path}: field {field!r} must be an integer")
    return value


def _object_field(doc: dict, field: str, path: str, objects: list) -> int:
    """The position of the listed object that an integer field names."""
    i = _int_field(doc, field, path)
    if not 0 <= i < len(objects):
        raise ParseError(f"{path}: field {field!r} must name one of the {len(objects)} objects, got {i}")
    return i


def _entries(doc: dict, field: str, path: str) -> list[dict]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(entry, dict) for entry in value):
        raise ParseError(f"{path}: field {field!r} must be an array of objects")
    return value


def finmap_from_document(doc: dict, path: str) -> FinMap:
    dom = FinSet(_int_field(doc, "dom", path), _labels(doc, "dom_labels", path))
    cod = FinSet(_int_field(doc, "cod", path), _labels(doc, "cod_labels", path))
    return FinMap(dom, cod, tuple(_int_list(doc, "table", path)))


def _labels(doc: dict, field: str, path: str):
    value = doc.get(field)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{path}: field {field!r} must be a string array")
    return tuple(value)


def monoid_from_document(doc: dict, path: str) -> MonoidTable:
    size = _int_field(doc, "size", path)
    table = _int_list(doc, "table", path)
    return monoid_from_flat(doc.get("name", "monoid"), size, tuple(table))


def _internal_fields(doc: dict, path: str, groupoid: bool) -> tuple:
    """Every field of an internal-category or -groupoid document, type-checked (else exit 2)."""
    o_size, m_size = _int_field(doc, "o_size", path), _int_field(doc, "m_size", path)
    names = ("d", "c", "eta", "mu", "iota") if groupoid else ("d", "c", "eta", "mu")
    tables = [tuple(_int_list(doc, name, path)) for name in names]
    return o_size, m_size, _labels(doc, "o_labels", path), _labels(doc, "m_labels", path), *tables


def _build_internal(o_size, m_size, o_labels, m_labels, d, c, eta, mu, iota=None) -> Internal:
    o, m = FinSet(o_size, o_labels), FinSet(m_size, m_labels)
    d, c, eta = FinMap(m, o, d), FinMap(m, o, c), FinMap(o, m, eta)
    # mu is indexed by the composable pairs (a, b) with c(a) = d(b) in lexicographic order; counting
    # them refuses a mu of the wrong length before the pairs are listed
    leaving = Counter(d.table)
    pairs = FinSet(sum(leaving[x] for x in c.table))
    cat = InternalCategory(o, m, d, c, eta, FinMap(pairs, m, mu))
    return cat if iota is None else InternalGroupoid(cat, FinMap(m, m, iota))


def internal_category_from_document(doc: dict, path: str) -> InternalCategory:
    return _build_internal(*_internal_fields(doc, path, groupoid=False))


def internal_groupoid_from_document(doc: dict, path: str) -> InternalGroupoid:
    return _build_internal(*_internal_fields(doc, path, groupoid=True))


def internal_from_document(doc: dict, path: str, command: str) -> Internal:
    """The category or groupoid of an internal-category or internal-groupoid document."""
    if doc["kind"] == "internal-groupoid":
        return internal_groupoid_from_document(doc, path)
    if doc["kind"] == "internal-category":
        return internal_category_from_document(doc, path)
    raise ParseError(f"{path}: {command} needs an internal category file")


def checked_category(internal: Internal) -> InternalCategory:
    """The category of a structure read from input, once its axioms hold; else AxiomFails names the first."""
    groupoid = isinstance(internal, InternalGroupoid)
    report = check_internal_groupoid(internal) if groupoid else check_internal_category(internal)
    if not report.passed:
        raise AxiomFails(str(report.first()))
    return internal.cat if groupoid else internal


def subslice_from_document(doc: dict, path: str, internal: Internal | None = None) -> SubSlice:
    """Read in perfbench/oracle.py's order: every object's types, then shapes; every arrow's types and
    ends (exit 2 on a bad type or a missing object); the category's shape and axioms; the cells."""
    if internal is None:
        inner = doc.get("internal_category")
        if not isinstance(inner, dict):
            raise ParseError(f"{path}: sub-slice needs an inline internal_category")
        fields = _internal_fields(inner, path, groupoid=False)
    o_size = fields[0] if internal is None else getattr(internal, "cat", internal).o.size
    entries = _entries(doc, "objects", path)
    objects = [(_int_field(e, "size", path), tuple(_int_list(e, "map", path))) for e in entries]
    for size, f in objects:
        if size < 0 or len(f) != size or not all(0 <= v < o_size for v in f):
            raise MalformedTables(f"object map {list(f)} must send {size} points to the {o_size} objects")
    arrows = []
    for e in _entries(doc, "arrows", path):
        src, dst = _object_field(e, "src", path, objects), _object_field(e, "dst", path, objects)
        arrows.append((src, dst, tuple(_int_list(e, "map", path))))
    ic = checked_category(_build_internal(*fields) if internal is None else internal)
    spans = [SliceObject(FinSet(size), FinMap(FinSet(size), ic.o, f)) for size, f in objects]
    cells = [TwoCell(spans[i].span, spans[j].span, FinMap(spans[i].a, spans[j].a, m)) for i, j, m in arrows]
    return SubSlice(ic, tuple(spans), tuple(cells))


def round_config_from_document(doc: dict, path: str) -> tuple[int, list[list[int]]]:
    rounds = _int_field(doc, "rounds", path)
    fns = doc.get("round_functions")
    if not isinstance(fns, list) or not all(
        isinstance(fn, list) and all(_is_int(v) for v in fn) for fn in fns
    ):
        raise ParseError(f"{path}: field 'round_functions' must be an array of integer arrays")
    return rounds, fns


def cmd_check(args) -> int:
    doc = load_document(args.path)
    kind = doc["kind"]
    if args.kind is not None and args.kind != kind:
        raise ParseError(f"{args.path}: expected kind {args.kind!r} but file says {kind!r}")
    try:
        if kind == "finset-map":
            finmap_from_document(doc, args.path)
        elif kind in ("monoid", "group"):
            monoid = monoid_from_document(doc, args.path)
            if kind == "group":
                monoid.inverse_table()
        elif kind in ("internal-category", "internal-groupoid"):
            checked_category(internal_from_document(doc, args.path, "check"))
        elif kind == "sub-slice":
            subslice_from_document(doc, args.path)
        elif kind == "round-config":
            rounds, fns = round_config_from_document(doc, args.path)
            if len(fns) != rounds:
                raise KeyScheduleMismatch(f"{rounds} rounds but {len(fns)} round functions")
            for fn in fns:
                if len(fn) != len(fns[0]) or any(not 0 <= v < len(fn) for v in fn):
                    raise MalformedTables("round function entries must index the state set")
    except (
        AxiomFails,
        MalformedTables,
        NotAGroup,
        KeyScheduleMismatch,
        UnderlyingCategoryInvalid,
    ) as exc:
        print(f"fail {exc}")
        return 1
    print("ok")
    return 0


def cmd_conv_table(args) -> int:
    ic = checked_category(internal_from_document(load_document(args.internal), args.internal, "conv-table"))
    size_text, table_text = args.slice
    try:
        a_size = int(size_text)
        f_table = tuple(int(v) for v in table_text.split(",")) if table_text else ()
    except ValueError as exc:
        raise ParseError(f"bad --slice arguments: {exc}") from exc
    a = FinSet(a_size)
    fa = SliceObject(a, FinMap(a, ic.o, f_table))
    fibre = conv_fibre(fa, ic)
    budget(len(fibre) ** 2, f"{len(fibre)}^2 conv-table products")
    unit = conv_unit(fa, ic)
    index = {e.table: i for i, e in enumerate(fibre)}
    print(f"fibre size: {len(fibre)}")
    for i, e in enumerate(fibre):
        print(f"  {i}: {list(e.table)}")
    print(f"unit: {index[unit.table]}")
    print("multiplication table:")
    products = []
    for x in fibre:
        products.append([index[conv_mult(x, y).table] for y in fibre])
        print("  " + " ".join(map(str, products[-1])))
    u, n = index[unit.table], len(fibre)
    is_group = all(any(row[j] == u == products[j][i] for j in range(n)) for i, row in enumerate(products))
    print(f"group: {'yes' if is_group else 'no'}")
    return 0


def cmd_toffoli(args) -> int:
    try:
        table = [int(v) for v in args.f.split(",")] if args.f else []
    except ValueError as exc:
        raise ParseError(f"bad --f truth table: {exc}") from exc
    perm = toffoli_extend(args.m, args.n, table)
    width = args.m + args.n
    for state, image in enumerate(perm):
        print(f"{state:0{width}b} -> {image:0{width}b}")
    return 0


def cmd_feistel(args) -> int:
    group_doc = load_document(args.group)
    if group_doc["kind"] not in ("group", "monoid"):
        raise ParseError(f"{args.group}: feistel needs a group file")
    group = monoid_from_document(group_doc, args.group)
    keys_doc = load_document(args.keys)
    if keys_doc["kind"] != "round-config":
        raise ParseError(f"{args.keys}: feistel needs a round-config file")
    rounds, fns = round_config_from_document(keys_doc, args.keys)
    if rounds != args.rounds:
        raise KeyScheduleMismatch(
            f"--rounds {args.rounds} but the key file declares {rounds}"
        )
    perm, inverse = feistel_network(group, args.rounds, fns)
    try:
        state = int(args.input, 16)
    except ValueError as exc:
        raise ParseError(f"bad --input hex value: {exc}") from exc
    states = group.size * group.size
    if not 0 <= state < states:
        raise ParseError(f"--input {args.input} out of range for {states} states")
    table = perm if args.mode == "encrypt" else inverse
    width = len(format(states - 1, "x"))
    print(f"0x{table[state]:0{width}x}")
    return 0


def cmd_fib_check(args) -> int:
    internal = internal_from_document(load_document(args.internal), args.internal, "fib-check")
    sub_doc = load_document(args.subslice)
    if sub_doc["kind"] != "sub-slice":
        raise ParseError(f"{args.subslice}: fib-check needs a sub-slice file")
    try:
        ss = subslice_from_document(sub_doc, args.subslice, internal)
    except MalformedTables as exc:
        print(f"sub-slice: fail ({exc})")
        return 1
    failed = False
    iso = cartesian_iso(ss)
    for name, fi in (("conv-fibration unique-lift", iso.conv), ("endo-fibration unique-lift", iso.endo)):
        report = check_discrete_fibration(fi)
        print(f"{name}: {'pass' if report.passed else 'fail (' + str(report.first()) + ')'}")
        failed = failed or not report.passed
    print(f"cartesian-iso: {'pass' if iso.report.passed else 'fail (' + str(iso.report.first()) + ')'}")
    failed = failed or not iso.report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanforge",
        description="check and explore finite internal categories, convolution monoids, "
        "and reversible Feistel/Toffoli extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure file")
    p_check.add_argument("path")
    p_check.add_argument("--kind", choices=KINDS, default=None)
    p_check.set_defaults(func=lambda args: cmd_check(args))

    p_conv = sub.add_parser("conv-table", help="print a convolution multiplication table")
    p_conv.add_argument("internal")
    p_conv.add_argument(
        "--slice",
        nargs=2,
        metavar=("A_SIZE", "F_TABLE"),
        required=True,
        help="carrier size and comma-separated map into the objects object",
    )
    p_conv.set_defaults(func=lambda args: cmd_conv_table(args))

    p_tof = sub.add_parser("toffoli", help="print the reversible extension of a truth table")
    p_tof.add_argument("--m", type=int, required=True)
    p_tof.add_argument("--n", type=int, required=True)
    p_tof.add_argument("--f", required=True, help="comma-separated truth table of length 2^m")
    p_tof.set_defaults(func=lambda args: cmd_toffoli(args))

    p_fei = sub.add_parser("feistel", help="encrypt or decrypt one state")
    p_fei.add_argument("mode", choices=("encrypt", "decrypt"))
    p_fei.add_argument("--group", required=True)
    p_fei.add_argument("--rounds", type=int, required=True)
    p_fei.add_argument("--keys", required=True)
    p_fei.add_argument("--input", required=True)
    p_fei.set_defaults(func=lambda args: cmd_feistel(args))

    p_fib = sub.add_parser("fib-check", help="build and verify both fibrations over a sub-slice")
    p_fib.add_argument("--internal", required=True)
    p_fib.add_argument("--subslice", required=True)
    p_fib.set_defaults(func=lambda args: cmd_fib_check(args))

    return parser


# built on the first main call, not at import; each subcommand's func looks up
# its cmd_* by name when called, so rebinding a cmd_* still reaches main
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpanforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a verdict: one line and exit 2, no traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
