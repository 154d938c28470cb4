"""Fuzz cli.main with mutated fixtures and command lines.

Every run must end in exit 0, 1 or 2 with a named reason: no traceback, and
no unexpected exception reaching the catch-all "error: <Type>: <msg>" line.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from spanforge.cli import main

from util import main_by_full_parser

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
INTERNAL = ("and2_internal.json", "pair_groupoid.json", "pair_groupoid_bad_mu.json",
            "z2_internal.json")
SUBSLICES = ("subslice_pair2.json", "subslice_pair2_defect.json")
# pair_groupoid.json as a category, inlined to make a sub-slice fixture a whole document for check
INLINE = dict({k: v for k, v in DOCS["pair_groupoid.json"].items() if k != "iota"}, kind="internal-category")

# the benchmark's plain-Python judges, loaded by path: the spec of every exit code
_spec = importlib.util.spec_from_file_location("perfbench_oracle", FIXTURES.parent / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

JUNK = st.sampled_from(
    [True, False, None, -1, -5, 0, 1, 2, 3, 99, 1.5, "x", "", [], {}, [0], [True], [-1], [99]]
)
NUMBER_TEXT = st.sampled_from(["-1", "0", "7", "99", "x", "", "1.5", "true"])
TABLE_TEXT = st.sampled_from(
    ["", "0", "0,0", "0,1", "1,0", "0,0,0", "0,1,0,1", "0,,1", "-1,0", "2,2", "a,b"]
)
# conv-table's --slice arguments for the differential test; small, as the oracle enumerates without a budget
SLICE_SIZES = ("", "-1", "x", "0", "1", "2", "3")
SLICE_TABLES = ("", "-1", "x", "0", "1", "0,0", "0,1", "1,0", "0,0,0", "0,1,1", "0,,1")
# the catch-all arm of cli.main: an exception no handler names, i.e. a defect
UNEXPECTED = re.compile(r"^error: [A-Za-z_]*(Error|Exception|Exit|Warning): ", re.MULTILINE)


@st.composite
def mutated(draw, doc):
    """The document with one field dropped, replaced by junk, or pushed out of range."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["drop", "junk", "bump"]))
        if action == "drop":
            del node[key]
        elif action == "junk":
            node[key] = draw(JUNK)
        elif isinstance(child, int) and not isinstance(child, bool):
            node[key] = child + draw(st.sampled_from([-100, -1, 1, 2, 100]))
        return doc


@st.composite
def mutated_twice(draw, doc):
    """The document with one or two fields mutated."""
    doc = draw(mutated(doc))
    return draw(mutated(doc)) if draw(st.booleans()) else doc


@st.composite
def document(draw, names):
    name = draw(st.sampled_from(names))
    return draw(st.one_of(st.just(DOCS[name]), mutated(DOCS[name])))


@st.composite
def table_text(draw, size, below):
    """A comma-separated table of the given size, or junk."""
    if draw(st.integers(0, 3)) == 0:
        return draw(TABLE_TEXT)
    return ",".join(str(draw(st.integers(0, below - 1))) for _ in range(size))


def number_text(value):
    return st.one_of(st.just(str(value)), NUMBER_TEXT)


@st.composite
def command(draw):
    """(argv with {0}, {1} placeholders for files, the documents to write there)."""
    which = draw(st.sampled_from(["check", "conv-table", "toffoli", "feistel", "fib-check"]))
    if which == "check":
        docs = [draw(document(sorted(DOCS)))]
        argv = ["check", "{0}"]
        if draw(st.booleans()):
            kinds = ["monoid", "group", "internal-category", "sub-slice", "x"]
            argv += ["--kind", draw(st.sampled_from(kinds))]
    elif which == "conv-table":
        docs = [draw(document(INTERNAL))]
        size = draw(st.integers(0, 3))
        argv = ["conv-table", "{0}", "--slice", draw(number_text(size)), draw(table_text(size, 2))]
    elif which == "toffoli":
        docs = []
        m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        f = draw(table_text(1 << m, 1 << n))
        argv = ["toffoli", "--m", draw(number_text(m)), "--n", draw(number_text(n)), "--f", f]
    elif which == "feistel":
        docs = [draw(document(["z2_4_group.json"])), draw(document(["feistel_keys.json"]))]
        mode = draw(st.sampled_from(["encrypt", "decrypt", "x"]))
        hex_input = draw(st.sampled_from(["0xab", "0x0", "0xff", "0x100", "-0x1", "zz", ""]))
        rounds = draw(number_text(4))
        argv = ["feistel", mode, "--group", "{0}", "--rounds", rounds, "--keys", "{1}",
                "--input", hex_input]
    else:
        docs = [draw(document(INTERNAL)), draw(document(SUBSLICES))]
        argv = ["fib-check", "--internal", "{0}", "--subslice", "{1}"]
    if draw(st.integers(0, 4)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, docs


def run_routes(argv, docs, env=None, routes=(main,)) -> list[tuple[int, str, str]]:
    """Each route (cli.main alone by default) on argv, with each {i} replaced by the path of docs[i]
    written out: (exit code, stdout, stderr) per route."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        argv = [arg.format(*paths) if arg.startswith("{") else arg for arg in argv]
        answers = []
        for route in routes:
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, env or {}):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = route(argv)
            answers.append((code, out.getvalue(), err.getvalue()))
    return answers


def run_main(argv, docs, env=None) -> tuple[int, str]:
    """cli.main on argv, with each {i} replaced by the path of docs[i] written out: (exit code, stderr)."""
    [(code, _, err)] = run_routes(argv, docs, env)
    return code, err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command())
def test_main_always_ends_in_a_named_exit(case):
    argv, docs = case
    code, err = run_main(argv, docs, {"SPANFORGE_SIZE_CAP": "64"})
    assert code in (0, 1, 2), (argv, docs, code)
    assert "Traceback" not in err
    assert not UNEXPECTED.search(err), (argv, docs, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command())
def test_main_answers_as_the_full_parser(case):
    """A known command parsed by its own parser gives the exit, stdout and stderr of the full parser."""
    argv, docs = case
    direct, full = run_routes(argv, docs, {"SPANFORGE_SIZE_CAP": "64"}, routes=(main, main_by_full_parser))
    assert direct == full, (argv, docs)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_subslice_exit_codes_match_the_oracle(data):
    sub = data.draw(st.sampled_from(SUBSLICES))
    if data.draw(st.booleans()):
        doc = data.draw(mutated_twice(dict(DOCS[sub], internal_category=INLINE)))
        code, err = run_main(["check", "{0}"], [doc])
        expected = oracle.check(json.dumps(doc))[0]
    else:
        internal = DOCS[data.draw(st.sampled_from(INTERNAL))]
        doc = data.draw(mutated_twice(DOCS[sub]))
        code, err = run_main(["fib-check", "--internal", "{0}", "--subslice", "{1}"], [internal, doc])
        expected = oracle.fib_check(json.dumps(internal), json.dumps(doc))[0]
    assert code == expected, (doc, code, expected, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_internal_category_exit_codes_match_the_oracle(data):
    doc = data.draw(mutated_twice(DOCS[data.draw(st.sampled_from(INTERNAL))]))
    if data.draw(st.booleans()):
        size, table = data.draw(st.sampled_from(SLICE_SIZES)), data.draw(st.sampled_from(SLICE_TABLES))
        code, err = run_main(["conv-table", "{0}", "--slice", size, table], [doc])
        expected = oracle.conv_table(json.dumps(doc), size, table)[0]
    else:
        code, err = run_main(["check", "{0}"], [doc])
        expected = oracle.check(json.dumps(doc))[0]
    assert code == expected, (doc, code, expected, err)
