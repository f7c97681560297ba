"""Pinned CLI output: stdout, stderr and exit code of every case, byte for byte.

The cases run in one fresh interpreter, from the repository root, through
runpy as ``python -m leavitt.cli`` does; graphs that are not demo files are
fed through stdin as ``-``.  The snapshot in ``golden/cli.json`` was written
by this file's ``__main__`` block, one JSON record per line (``stderr`` only
when the command wrote to it); rewrite it only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOT = os.path.join(ROOT, "tests", "golden", "cli.jsonl")

RUNNER = """
import contextlib, io, json, runpy, sys
results = []
for argv, stdin in json.loads(sys.stdin.read()):
    sys.argv = ["leavitt"] + argv
    sys.stdin = io.StringIO(stdin or "")
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("leavitt.cli", run_name="__main__")
        except SystemExit as e:
            code = e.code
    record = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if err.getvalue():
        record["stderr"] = err.getvalue()
    results.append(record)
print(json.dumps(results))
"""

REPORTS = (["analyze"], ["analyze", "--json"], ["lattice"], ["lattice", "--dot"])
IDEAL_OPS = ("gr", "primes-over", "decompose", "factor")

# A few ideal literals per demo graph, as (H, S, components): graded pairs
# (one with a breaking vertex in S), and components on exitless cycles of
# quotients, two of which the CLI rejects (a unit polynomial, and a cycle
# absorbed into H).  B1 also carries invalid pairs, pinning which error wins:
# an S vertex outside B_H (unknown or not), an unknown H vertex, an H that is
# not hereditary saturated; and a repeated H vertex, which is accepted.
DEMO_LITERALS = {
    "A3": [((), (), ()), (("u0", "u1", "u2"), (), ())],
    "B1": [
        ((), (), ()),
        (("a",), (), ()),
        (("a",), ("u",), ()),
        (("b",), (), ()),
        (("a",), ("zz",), ()),
        (("zz",), (), ()),
        (("u",), (), ()),
        (("b",), ("u",), ()),
        (("a", "a"), (), ()),
    ],
    "C2": [((), (), ()), (("v1",), (), ())],
    "D2": [
        ((), (), ()),
        (("v1",), (), ()),
        ((), (), ((("v1",), "1+x"), (("v2",), "1+x^2"))),
        ((), (), ((("v2",), "1+2x+x^2"),)),
        (("v2",), (), ((("v1",), "1-x^2"),)),
    ],
    "L1": [
        ((), (), ()),
        ((), (), ((("v",), "1+2x+x^2"),)),
        ((), (), ((("v",), "2+3x+x^3"),)),
        ((), (), ((("v",), "1"),)),
        (("v",), (), ((("v",), "1+x"),)),
    ],
    "R2": [((), (), ())],
    "RR": [((), (), ()), (("r1",), (), ())],
    "T1": [((), (), ()), (("w",), (), ()), (("w",), (), ((("v",), "1+x^2"),))],
}

# Literals with a value of the wrong JSON type, kept as raw text: each is
# rejected with a reason and exit code 2 before any op runs.
MALFORMED_LITERALS = [
    ("T1", '{"H":[1,"a"],"S":[]}'),
    ("T1", '{"H":["w"],"S":[],"components":[{"cycle":["v"],"poly":5}]}'),
    ("T1", '{"H":["w"],"S":[],"components":[{"cycle":[1],"poly":"1+x"}]}'),
    ("B1", '{"H":"ab","S":[]}'),
]

# An exponent given to an op other than power: rejected with exit code 2.
STRAY_EXPONENTS = [
    ("T1", '{"H":["w"],"S":[]}', "gr", "3"),
    ("T1", '{"H":["w"],"S":[]}', "limit", "2"),
]


def _literal(H, S, components=()):
    comps = [{"cycle": list(c), "poly": p} for c, p in components]
    return json.dumps({"H": list(H), "S": list(S), "components": comps}, sort_keys=True)


def _spec_json(vertices, edges):
    return json.dumps(
        {
            "field": "Q",
            "vertices": list(vertices),
            "edges": [{"src": s, "dst": d, "mult": m} for (s, d), m in edges],
        },
        sort_keys=True,
    )


def _forks(k):
    edges = []
    for i in range(k):
        edges += [((f"u{i}", f"a{i}"), "omega"), ((f"u{i}", f"b{i}"), 1)]
    return _spec_json([f"{x}{i}" for i in range(k) for x in "uab"], edges)


def _loops(k):
    return _spec_json([f"l{i}" for i in range(k)], [((f"l{i}", f"l{i}"), 1) for i in range(k)])


def _rose_chain(n):
    edges = [((f"r{i}", f"r{i}"), 2) for i in range(n)]
    edges += [((f"r{i}", f"r{i - 1}"), 1) for i in range(1, n)]
    return _spec_json([f"r{i}" for i in range(n)], edges)


def cases():
    """(argv, stdin text or None) for every pinned command, in snapshot order."""
    out = []
    for name in sorted(DEMO_LITERALS):
        path = f"demos/graphs/{name}.json"
        out += [([cmd[0], path] + cmd[1:], None) for cmd in REPORTS]
        for lit in (_literal(*spec) for spec in DEMO_LITERALS[name]):
            for op in IDEAL_OPS:
                out.append((["ideal", path, lit, op], None))
                out.append((["ideal", path, lit, op, "--json"], None))
    for text in (_forks(2), _loops(3), _rose_chain(4)):
        out += [([cmd[0], "-"] + cmd[1:], text) for cmd in REPORTS]
    for name, lit in MALFORMED_LITERALS:
        out.append((["ideal", f"demos/graphs/{name}.json", lit, "gr"], None))
    for name, lit, op, n in STRAY_EXPONENTS:
        out.append((["ideal", f"demos/graphs/{name}.json", lit, op, n], None))
    return out


def run_cases(case_list):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(case_list).encode(),
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def _outcome(record):
    return record["exit"], record["stdout"], record.get("stderr")


def test_cli_output_matches_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as handle:
        want = [json.loads(line) for line in handle]
    got = run_cases(cases())
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert _outcome(g) == _outcome(w), g["argv"]


if __name__ == "__main__":
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        for record in run_cases(cases()):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
