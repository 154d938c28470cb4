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

from .catalog import MonoidTable, monoid_from_flat
from .errors import (
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
from .fib import SubSlice, build_conv_fibration, build_endo_fibration, cartesian_iso, check_discrete_fibration
from .finset import FinMap, FinSet, pullback
from .internal import (
    InternalCategory,
    InternalGroupoid,
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


def _int_list(doc: dict, field: str, path: str) -> list[int]:
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
        raise ParseError(f"{path}: field {field!r} must be an integer array")
    return value


def _int_field(doc: dict, field: str, path: str) -> int:
    value = doc.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{path}: field {field!r} must be an integer")
    return value


def _object_field(doc: dict, field: str, path: str, objects: list):
    """The listed object that an integer field names by its position."""
    i = _int_field(doc, field, path)
    if not 0 <= i < len(objects):
        raise ParseError(
            f"{path}: field {field!r} must name one of the {len(objects)} objects, got {i}"
        )
    return objects[i]


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


def internal_category_from_document(doc: dict, path: str) -> InternalCategory:
    o = FinSet(_int_field(doc, "o_size", path), _labels(doc, "o_labels", path))
    m = FinSet(_int_field(doc, "m_size", path), _labels(doc, "m_labels", path))
    d = FinMap(m, o, tuple(_int_list(doc, "d", path)))
    c = FinMap(m, o, tuple(_int_list(doc, "c", path)))
    eta = FinMap(o, m, tuple(_int_list(doc, "eta", path)))
    mu_table = tuple(_int_list(doc, "mu", path))
    # mu is indexed by the composable pairs (a, b) with c(a) = d(b) in
    # lexicographic order; its expected length is checked by the constructor.
    apex = pullback(c, d).apex
    mu = FinMap(apex, m, mu_table)
    return InternalCategory(o, m, d, c, eta, mu)


def internal_groupoid_from_document(doc: dict, path: str) -> InternalGroupoid:
    cat = internal_category_from_document(doc, path)
    iota = FinMap(cat.m, cat.m, tuple(_int_list(doc, "iota", path)))
    return InternalGroupoid(cat, iota)


def subslice_from_document(doc: dict, path: str, ic: InternalCategory | None = None) -> SubSlice:
    if ic is None:
        inner = doc.get("internal_category")
        if not isinstance(inner, dict):
            raise ParseError(f"{path}: sub-slice needs an inline internal_category")
        inner = dict(inner)
        inner.setdefault("kind", "internal-category")
        ic = internal_category_from_document(inner, path)
    objects = []
    raw_objects = doc.get("objects")
    if not isinstance(raw_objects, list):
        raise ParseError(f"{path}: field 'objects' must be an array")
    for entry in raw_objects:
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: sub-slice objects must be objects")
        a = FinSet(_int_field(entry, "size", path))
        objects.append(SliceObject(a, FinMap(a, ic.o, tuple(_int_list(entry, "map", path)))))
    arrows = []
    raw_arrows = doc.get("arrows")
    if not isinstance(raw_arrows, list):
        raise ParseError(f"{path}: field 'arrows' must be an array")
    for entry in raw_arrows:
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: sub-slice arrows must be objects")
        src = _object_field(entry, "src", path, objects)
        dst = _object_field(entry, "dst", path, objects)
        arrows.append(
            TwoCell(src.span, dst.span, FinMap(src.a, dst.a, tuple(_int_list(entry, "map", path))))
        )
    return SubSlice(ic, tuple(objects), tuple(arrows))


def round_config_from_document(doc: dict, path: str) -> tuple[int, list[list[int]]]:
    rounds = _int_field(doc, "rounds", path)
    fns = doc.get("round_functions")
    if not isinstance(fns, list) or not all(
        isinstance(fn, list) and all(isinstance(v, int) for v in fn) for fn in fns
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
        elif kind == "internal-category":
            report = check_internal_category(internal_category_from_document(doc, args.path))
            if not report.passed:
                print(f"fail {report.first()}")
                return 1
        elif kind == "internal-groupoid":
            report = check_internal_groupoid(internal_groupoid_from_document(doc, args.path))
            if not report.passed:
                print(f"fail {report.first()}")
                return 1
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
    doc = load_document(args.internal)
    if doc["kind"] == "internal-groupoid":
        ic = internal_groupoid_from_document(doc, args.internal).cat
    elif doc["kind"] == "internal-category":
        ic = internal_category_from_document(doc, args.internal)
    else:
        raise ParseError(f"{args.internal}: conv-table needs an internal category file")
    size_text, table_text = args.slice
    try:
        a_size = int(size_text)
        f_table = tuple(int(v) for v in table_text.split(",")) if table_text else ()
    except ValueError as exc:
        raise ParseError(f"bad --slice arguments: {exc}") from exc
    a = FinSet(a_size)
    fa = SliceObject(a, FinMap(a, ic.o, f_table))
    fibre = conv_fibre(fa, ic)
    unit = conv_unit(fa, ic)
    index = {e.map.table: i for i, e in enumerate(fibre)}
    print(f"fibre size: {len(fibre)}")
    for i, e in enumerate(fibre):
        print(f"  {i}: {list(e.map.table)}")
    print(f"unit: {index[unit.map.table]}")
    print("multiplication table:")
    products = {}
    for i, x in enumerate(fibre):
        row = []
        for j, y in enumerate(fibre):
            value = index[conv_mult(x, y).map.table]
            products[(i, j)] = value
            row.append(str(value))
        print("  " + " ".join(row))
    unit_idx = index[unit.map.table]
    is_group = all(
        any(products[(i, j)] == unit_idx and products[(j, i)] == unit_idx for j in range(len(fibre)))
        for i in range(len(fibre))
    )
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
    doc = load_document(args.internal)
    if doc["kind"] == "internal-groupoid":
        ic = internal_groupoid_from_document(doc, args.internal).cat
    elif doc["kind"] == "internal-category":
        ic = internal_category_from_document(doc, args.internal)
    else:
        raise ParseError(f"{args.internal}: fib-check needs an internal category file")
    sub_doc = load_document(args.subslice)
    if sub_doc["kind"] != "sub-slice":
        raise ParseError(f"{args.subslice}: fib-check needs a sub-slice file")
    try:
        ss = subslice_from_document(sub_doc, args.subslice, ic)
    except MalformedTables as exc:
        print(f"sub-slice: fail ({exc})")
        return 1
    failed = False
    conv = build_conv_fibration(ss)
    endo = build_endo_fibration(ss)
    for name, fi in (("conv-fibration unique-lift", conv), ("endo-fibration unique-lift", endo)):
        report = check_discrete_fibration(fi)
        print(f"{name}: {'pass' if report.passed else 'fail (' + str(report.first()) + ')'}")
        failed = failed or not report.passed
    iso = cartesian_iso(ss)
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
    p_check.set_defaults(func=cmd_check)

    p_conv = sub.add_parser("conv-table", help="print a convolution multiplication table")
    p_conv.add_argument("internal")
    p_conv.add_argument(
        "--slice",
        nargs=2,
        metavar=("A_SIZE", "F_TABLE"),
        required=True,
        help="carrier size and comma-separated map into the objects object",
    )
    p_conv.set_defaults(func=cmd_conv_table)

    p_tof = sub.add_parser("toffoli", help="print the reversible extension of a truth table")
    p_tof.add_argument("--m", type=int, required=True)
    p_tof.add_argument("--n", type=int, required=True)
    p_tof.add_argument("--f", required=True, help="comma-separated truth table of length 2^m")
    p_tof.set_defaults(func=cmd_toffoli)

    p_fei = sub.add_parser("feistel", help="encrypt or decrypt one state")
    p_fei.add_argument("mode", choices=("encrypt", "decrypt"))
    p_fei.add_argument("--group", required=True)
    p_fei.add_argument("--rounds", type=int, required=True)
    p_fei.add_argument("--keys", required=True)
    p_fei.add_argument("--input", required=True)
    p_fei.set_defaults(func=cmd_feistel)

    p_fib = sub.add_parser("fib-check", help="build and verify both fibrations over a sub-slice")
    p_fib.add_argument("--internal", required=True)
    p_fib.add_argument("--subslice", required=True)
    p_fib.set_defaults(func=cmd_fib_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def run() -> None:
    sys.exit(main())
