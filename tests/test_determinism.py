"""Byte-identical CLI output under different string-hash seeds.

One fresh interpreter per PYTHONHASHSEED runs ``leavitt.cli`` as
``python -m leavitt.cli`` does (through runpy) for every report command on
every demo graph; the two interpreters must print the same bytes.
"""

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNNER = """
import contextlib, io, json, runpy, sys
results = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["leavitt"] + argv
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            runpy.run_module("leavitt.cli", run_name="__main__")
        except SystemExit as e:
            code = e.code
    results.append([argv, code, buf.getvalue()])
print(json.dumps(results))
"""

COMMANDS = (["analyze"], ["analyze", "--json"], ["lattice"], ["lattice", "--dot"])


def test_cli_output_is_independent_of_the_hash_seed():
    graphs = sorted(glob.glob(os.path.join(ROOT, "demos", "graphs", "*.json")))
    assert graphs
    argvs = [cmd[:1] + [path] + cmd[1:] for path in graphs for cmd in COMMANDS]
    src = os.path.join(ROOT, "src")
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", RUNNER, json.dumps(argvs)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        )
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        outs.append(out)
    assert outs[0] == outs[1]
    results = json.loads(outs[0])
    assert len(results) == len(argvs)
    for argv, code, text in results:
        assert code == 0 and text, argv
