#!/usr/bin/env bash
# CLI smoke test: the real entry point in a fresh interpreter, without pytest.
# Exit codes and stdout are pinned.  Run from anywhere:
#
#     PYTHON=python3.10 tools/cli_smoke.sh
#
# The interpreter is $PYTHON (default python); the package is read from src/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
PYTHON=${PYTHON:-python}
trap 'rm -f "${out:-}" "${tmp:-}"' EXIT
out=$(mktemp)
expect() {  # expect EXIT STDOUT ARGS...: run $PYTHON -m spanforge ARGS and compare
  want=$1 stdout=$2; shift 2
  code=0; "$PYTHON" -m spanforge "$@" > "$out" || code=$?
  if [ "$code" != "$want" ] || ! printf '%s' "$stdout" | cmp -s - "$out"; then
    echo "spanforge $*: exit $code, expected $want; stdout:"; cat "$out"; exit 1
  fi
}
expect 0 $'conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n' \
  fib-check --internal fixtures/pair_groupoid.json --subslice fixtures/subslice_pair2.json
expect 1 $'sub-slice: fail (identity missing for object with |A|=2)\n' \
  fib-check --internal fixtures/pair_groupoid.json --subslice fixtures/subslice_pair2_defect.json
expect 2 '' check no/such/file.json
# a category that fails its axioms stops every command that reads it, before any output
expect 1 '' fib-check --internal fixtures/pair_groupoid_bad_mu.json --subslice fixtures/subslice_pair2.json
expect 1 '' conv-table fixtures/pair_groupoid_bad_mu.json --slice 2 0,1
# every field is type-checked before a table is built: eta's type error exits 2, not d's range error 1
tmp=$(mktemp)
echo '{"kind": "internal-category", "o_size": 1, "m_size": 1, "d": [5], "c": [0], "eta": "x", "mu": [0]}' > "$tmp"
expect 2 '' check "$tmp"
# mu's length is checked against the count of composable pairs before they are listed:
# 2000 arrows on one object make 4 000 000 pairs, and an empty mu is refused at once
"$PYTHON" -c 'import json, sys; n = 2000; json.dump({"kind": "internal-category", "o_size": 1, "m_size": n, "d": [0] * n, "c": [0] * n, "eta": [0], "mu": []}, sys.stdout)' > "$tmp"
expect 1 $'fail composition table must map the 4000000 composable pairs into M\n' check "$tmp"
# and a mu one entry too long with the same message
echo '{"kind": "internal-category", "o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0, 0]}' > "$tmp"
expect 1 $'fail composition table must map the 1 composable pairs into M\n' check "$tmp"
# an oversized fibration pass is refused from its fibre sizes, before any fibre is listed: klein4 on one
# object and an |A| = 9 point object with its identity and constant-0 cells make a 262144-element fibre,
# and 1048576 fibration faces
"$PYTHON" -c 'import json, sys; json.dump({"kind": "internal-category", "o_size": 1, "m_size": 4, "d": [0] * 4, "c": [0] * 4, "eta": [0], "mu": [a ^ b for a in range(4) for b in range(4)]}, sys.stdout)' > "$tmp"
expect 1 '' fib-check --internal "$tmp" --subslice <("$PYTHON" -c 'import json, sys; json.dump({"kind": "sub-slice", "objects": [{"size": 9, "map": [0] * 9}], "arrows": [{"src": 0, "dst": 0, "map": list(range(9))}, {"src": 0, "dst": 0, "map": [0] * 9}]}, sys.stdout)')
# and one under the cap in every count passes: an |A| = 5 point object, 1024 elements per fibre
expect 0 $'conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n' \
  fib-check --internal "$tmp" --subslice <("$PYTHON" -c 'import json, sys; json.dump({"kind": "sub-slice", "objects": [{"size": 5, "map": [0] * 5}], "arrows": [{"src": 0, "dst": 0, "map": list(range(5))}]}, sys.stdout)')
# a fibre of 4^7200 over an |A| = 7200 point object: a count of 4 335 digits, refused without spelling it out
expect 1 '' fib-check --internal "$tmp" --subslice <("$PYTHON" -c 'import json, sys; n = 7200; json.dump({"kind": "sub-slice", "objects": [{"size": n, "map": [0] * n}], "arrows": [{"src": 0, "dst": 0, "map": list(range(n))}]}, sys.stdout)')
# klein4 over the point objects with |A| = 0..3 and every slice cell between them: 4 objects and 60 arrows,
# fibres of 85 elements in all, each reindexed along every cell
expect 0 $'conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n' \
  fib-check --internal "$tmp" --subslice <("$PYTHON" -c 'import itertools, json, sys; json.dump({"kind": "sub-slice", "objects": [{"size": a, "map": [0] * a} for a in range(4)], "arrows": [{"src": a, "dst": b, "map": list(phi)} for a in range(4) for b in range(4) for phi in itertools.product(range(b), repeat=a)]}, sys.stdout)')
# a sub-slice's base is built on ids, with no law pass: one 5-point object over the one-arrow category and
# the 625 maps that fix point 4 make 390 625 composable pairs, under the cap
"$PYTHON" -c 'import itertools, json, sys; json.dump({"kind": "sub-slice", "internal_category": {"o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0]}, "objects": [{"size": 5, "map": [0] * 5}], "arrows": [{"src": 0, "dst": 0, "map": [*phi, 4]} for phi in itertools.product(range(5), repeat=4)]}, sys.stdout)' > "$tmp"
expect 0 $'ok\n' check "$tmp"
expect 0 $'conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n' \
  fib-check --internal <("$PYTHON" -c 'import json, sys; json.dump({"kind": "internal-category", "o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0]}, sys.stdout)') --subslice "$tmp"
# and all 3 125 maps of the 5 points make 9 765 625 pairs, refused before any composite is looked up
"$PYTHON" -c 'import itertools, json, sys; json.dump({"kind": "sub-slice", "internal_category": {"o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0]}, "objects": [{"size": 5, "map": [0] * 5}], "arrows": [{"src": 0, "dst": 0, "map": list(phi)} for phi in itertools.product(range(5), repeat=5)]}, sys.stdout)' > "$tmp"
expect 1 '' check "$tmp"
# a cell listed twice is refused by name
expect 1 $'sub-slice: fail (sub-slice arrows must be distinct)\n' \
  fib-check --internal fixtures/z2_internal.json --subslice <("$PYTHON" -c 'import json, sys; json.dump({"kind": "sub-slice", "objects": [{"size": 1, "map": [0]}], "arrows": [{"src": 0, "dst": 0, "map": [0]}] * 2}, sys.stdout)')
# a sub-slice is read whole first: its arrow's missing object exits 2, not its category's bad d 1
echo '{"kind": "sub-slice", "internal_category": {"o_size": 1, "m_size": 1, "d": [5], "c": [0], "eta": [0], "mu": [0]}, "objects": [{"size": 1, "map": [0]}], "arrows": [{"src": 3, "dst": 0, "map": [0]}]}' > "$tmp"
expect 2 '' check "$tmp"
# the law pass names its first failure: a composite's endpoint, then associativity,
# through a monoid's one-object category and through an internal category
expect 1 $'fail composition-target: pair (0, 0)\n' check fixtures/pair_groupoid_bad_mu.json
echo '{"kind": "monoid", "size": 3, "table": [0, 1, 2, 1, 2, 2, 2, 1, 1]}' > "$tmp"
expect 1 $'fail monoid: associativity fails at (1, 1, 1)\n' check "$tmp"
# a monoid's tables also give its inverses and its unit: a group without inverses, and a table without a unit
echo '{"kind": "group", "name": "and2", "size": 2, "table": [0, 0, 0, 1]}' > "$tmp"
expect 1 $'fail and2: element 0 has no two-sided inverse\n' check "$tmp"
echo '{"kind": "monoid", "size": 2, "table": [0, 0, 0, 0]}' > "$tmp"
expect 1 $'fail monoid: no two-sided unit\n' check "$tmp"
echo '{"kind": "internal-category", "o_size": 1, "m_size": 3, "d": [0, 0, 0], "c": [0, 0, 0], "eta": [0], "mu": [0, 1, 2, 1, 2, 2, 2, 1, 1]}' > "$tmp"
expect 1 $'fail associativity: triple (1, 1, 1)\n' check "$tmp"
# the same composition in a groupoid file: its category laws come first, so the same first law
echo '{"kind": "internal-groupoid", "o_size": 1, "m_size": 3, "d": [0, 0, 0], "c": [0, 0, 0], "eta": [0], "mu": [0, 1, 2, 1, 2, 2, 2, 1, 1], "iota": [0, 2, 1]}' > "$tmp"
expect 1 $'fail associativity: triple (1, 1, 1)\n' check "$tmp"
# the groupoid checker names its first failure: an inverse law, then an inverse's endpoint
echo '{"kind": "internal-groupoid", "o_size": 1, "m_size": 3, "d": [0, 0, 0], "c": [0, 0, 0], "eta": [0], "mu": [0, 1, 2, 1, 2, 0, 2, 0, 1], "iota": [0, 1, 2]}' > "$tmp"
expect 1 $'fail right-inverse-law: arrow 1\n' check "$tmp"
echo '{"kind": "internal-groupoid", "o_size": 2, "m_size": 4, "d": [0, 0, 1, 1], "c": [0, 1, 0, 1], "eta": [0, 3], "mu": [0, 1, 0, 1, 2, 3, 2, 3], "iota": [0, 1, 2, 3]}' > "$tmp"
expect 1 $'fail inverse-flips-target: arrow 1\n' check "$tmp"
# a round-config declares as many rounds as it lists round functions
echo '{"kind": "round-config", "rounds": 3, "round_functions": [[0, 1], [1, 0]]}' > "$tmp"
expect 1 $'fail 3 rounds but 2 round functions\n' check "$tmp"
expect 0 $'ok\n' check fixtures/z2_4_group.json
# a field that the format does not name is ignored, as perfbench/oracle.py ignores it
echo '{"kind": "internal-category", "o_size": 1, "m_size": 1, "d": [0], "c": [0], "eta": [0], "mu": [0], "o_labels": ["x", "y"]}' > "$tmp"
expect 0 $'ok\n' check "$tmp"
# a document json cannot read is refused as unreadable: an int past 4300 digits, bytes that are not
# UTF-8, and arrays nested 200 000 deep
"$PYTHON" -c 'import sys; sys.stdout.write("{\"kind\": \"monoid\", \"size\": " + "9" * 5000 + ", \"table\": []}")' > "$tmp"
expect 2 '' check "$tmp"
"$PYTHON" -c 'import sys; sys.stdout.buffer.write(b"{\"kind\": \"monoid\", \"size\": 1, \"table\": [0], \"note\": \"\xff\xfe\"}")' > "$tmp"
expect 2 '' check "$tmp"
"$PYTHON" -c 'import sys; sys.stdout.write("[" * 200000)' > "$tmp"
expect 2 '' check "$tmp"
# the one fixture whose runs of arrows differ in length between objects
expect 0 $'ok\n' check fixtures/loops_and_bridges.json
# and its fibrations over the full sub-slice of one point over each object, with their identity cells
expect 0 $'conv-fibration unique-lift: pass\nendo-fibration unique-lift: pass\ncartesian-iso: pass\n' \
  fib-check --internal fixtures/loops_and_bridges.json --subslice <(echo '{"kind": "sub-slice", "objects": [{"size": 1, "map": [0]}, {"size": 1, "map": [1]}], "arrows": [{"src": 0, "dst": 0, "map": [0]}, {"src": 1, "dst": 1, "map": [0]}]}')
expect 0 $'fibre size: 4\n  0: [0, 2]\n  1: [0, 3]\n  2: [1, 2]\n  3: [1, 3]\nunit: 0\nmultiplication table:\n  0 1 2 3\n  1 0 3 2\n  2 3 2 3\n  3 2 3 2\ngroup: no\n' \
  conv-table fixtures/loops_and_bridges.json --slice 2 0,1
keys=(--group fixtures/z2_4_group.json --rounds 4 --keys fixtures/feistel_keys.json)
expect 0 "$(cat fixtures/feistel_golden.txt)"$'\n' feistel encrypt "${keys[@]}" --input 0xab
expect 0 $'0xab\n' feistel decrypt "${keys[@]}" --input 0x68
table=$'fibre size: 4\n  0: [0, 0]\n  1: [0, 1]\n  2: [1, 0]\n  3: [1, 1]\n'
expect 0 "$table"$'unit: 0\nmultiplication table:\n  0 1 2 3\n  1 0 3 2\n  2 3 0 1\n  3 2 1 0\ngroup: yes\n' \
  conv-table fixtures/z2_internal.json --slice 2 0,0
expect 0 "$table"$'unit: 3\nmultiplication table:\n  0 0 0 0\n  0 1 0 1\n  0 0 2 2\n  0 1 2 3\ngroup: no\n' \
  conv-table fixtures/and2_internal.json --slice 2 0,0
# an 8-element fibre: 64 products through the element memo, in a fresh interpreter
fibre8=$'fibre size: 8\n  0: [0, 0, 0]\n  1: [0, 0, 1]\n  2: [0, 1, 0]\n  3: [0, 1, 1]\n'$'  4: [1, 0, 0]\n  5: [1, 0, 1]\n  6: [1, 1, 0]\n  7: [1, 1, 1]\n'
xor8=$'  0 1 2 3 4 5 6 7\n  1 0 3 2 5 4 7 6\n  2 3 0 1 6 7 4 5\n  3 2 1 0 7 6 5 4\n'$'  4 5 6 7 0 1 2 3\n  5 4 7 6 1 0 3 2\n  6 7 4 5 2 3 0 1\n  7 6 5 4 3 2 1 0\n'
expect 0 "$fibre8"$'unit: 0\nmultiplication table:\n'"$xor8"$'group: yes\n' \
  conv-table fixtures/z2_internal.json --slice 3 0,0,0
expect 0 $'000 -> 000\n001 -> 001\n010 -> 010\n011 -> 011\n100 -> 100\n101 -> 101\n110 -> 111\n111 -> 110\n' \
  toffoli --m 2 --n 1 --f 0,0,0,1
