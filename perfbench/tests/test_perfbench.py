"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import gen
import tracer
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

HEAD = {"cli-lattice": 36, "ideal-calculus": 150, "corpus-sweep": 30}


def run_head(name, seed, workdir, tr=None):
    """Output hashes and failures of the first HEAD[name] ops, optionally traced."""
    stream = workloads.WORKLOADS[name](seed, str(workdir)).ops()
    run = worker.Run(HEAD[name])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i in range(HEAD[name]):
            op = next(stream)
            call = None if tr is None else (lambda op=op, i=i: tr.run_op(i, op.call))
            run.add(op, worker.execute(op, call))
    finally:
        os.chdir(cwd)
    return run


def files(workdir):
    return {f: (workdir / f).read_bytes() for f in sorted(os.listdir(workdir))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = run_head(name, 7, a)
    second = run_head(name, 7, b)
    other = run_head(name, 8, c)
    assert first.hashes == second.hashes
    assert files(a) == files(b)
    assert first.hashes != other.hashes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_pass_their_checks_and_tracing_keeps_outputs(name, tmp_path):
    plain = run_head(name, 3, tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run_head(name, 3, tmp_path, tr)
    finally:
        tr.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert plain.hashes == traced.hashes
    assert tr.current_op == -1 and len(tr.name) > HEAD[name]


def leavitt_bindings():
    out = {}
    for n, mod in sorted(sys.modules.items()):
        if n == "leavitt" or n.startswith("leavitt."):
            for attr, obj in vars(mod).items():
                out[(n, attr)] = obj
                if isinstance(obj, type):
                    out.update({(n, attr, m): f for m, f in vars(obj).items()})
    return out


def test_every_wrapper_is_removed_after_tracing(tmp_path):
    before = leavitt_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.traced_bindings()
        assert "leavitt.lattice.quotient" in tracer.traced_bindings()
        assert "leavitt.ideals.quotient" in tracer.traced_bindings()  # a second binding of one function
        assert "leavitt.theorems._graded_prime_flags" in tracer.traced_bindings()
        run_head("cli-lattice", 1, tmp_path, tr)
    finally:
        tr.uninstall()
    assert tracer.traced_bindings() == []
    after = leavitt_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_traced_op_time(name, tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        run_head(name, 5, tmp_path, tr)
    finally:
        tr.uninstall()
    tr.dump(str(tmp_path / "spans"))
    spans = tracer.load(str(tmp_path / "spans"))
    assert list(spans["name"]) == list(tr.name) and list(spans["end"]) == list(tr.end)
    m = tracer.layer_metrics(spans, HEAD[name], 1.0)
    op_s = m["trace.op_s"][0]
    uncovered = m["trace.uncovered_frac"][0] * op_s
    layers = sum(m[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert op_s > 0 and layers > 0
    assert layers + uncovered == pytest.approx(op_s, rel=1e-9)
    assert 0 <= uncovered < 0.25 * op_s
    assert all(st["self_s"] >= -1e-9 for st in tracer.self_times(spans).values())


def test_q_irreducibles_are_irreducible():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    assert len(set(gen.Q_IRREDUCIBLES)) == len(gen.Q_IRREDUCIBLES)
    for f in gen.Q_IRREDUCIBLES:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f)], x)
        assert poly.is_irreducible, f


@pytest.mark.parametrize("p", [2, 101, 65537])
def test_gf_irreducibles_are_irreducible(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    irrs = gen.irreducibles(random.Random(1), p)
    assert len(set(irrs)) == len(irrs) >= 6
    for f in irrs:
        assert f[0] != 0 and f[-1] == 1
        assert sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible, f


def test_rounds_repeat_one_mix_whatever_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    one, two = workloads.IdealCalculus(1, str(a)), workloads.IdealCalculus(2, str(b))
    assert one._kronecker == two._kronecker  # the Kronecker inputs come in one fixed order
    assert sorted(one._kronecker) == sorted(gen.kronecker_pairs())
    for w in (one, workloads.CliLattice(1, str(a))):
        assert all(len(w.make_round(r)) == w.round_ops for r in (1, 2))


def test_every_random_slot_op_gets_its_own_graph(tmp_path):
    w = workloads.CliLattice(1, str(tmp_path))
    start = w._files
    w.make_round(1)
    texts = [(tmp_path / f"in{i}.json").read_text() for i in range(start, w._files)]
    kinds = len(w.KINDS)

    def shape(text):  # the graph up to vertex names
        g = json.loads(text)
        return len(g["vertices"]), sorted(str(e["mult"]) for e in g["edges"])

    for slot, (family, _) in enumerate(w.SIZES):
        shapes = [shape(t) for t in texts[slot * kinds : (slot + 1) * kinds]]
        if family == "random":
            assert len({repr(x) for x in shapes}) > 1
        else:
            assert all(x == shapes[0] for x in shapes)


def test_family_closed_forms_match_brute_force():
    for k in (1, 2, 3):
        assert checks.pair_count(gen.forks(k)) == 6**k
    for k in (1, 4, 7):
        assert checks.pair_count(gen.loops(k)) == 2**k
    for n in (1, 5, 12):
        assert checks.pair_count(gen.rose_chain(n)) == n + 1


def test_pool_shapes_and_expansion():
    rng = random.Random(4)
    for p in gen.FIELDS:
        irrs = gen.irreducibles(rng, p)
        for factors in gen.draw_pool(rng, irrs, p, 10, gen.kronecker_pairs()[0]):
            assert sum((len(f) - 1) * m for f, m in factors) <= gen.POOL_DEGREE
            poly = gen.expand(factors, p)
            assert poly[-1] == 1 and all(gen.pdivides(f, poly, p) for f, _ in factors)
            assert checks.parse_poly(gen.poly_text(poly), p) == poly


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-lattice", "--seed", "1", "--seconds", "1"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def test_run_prints_the_contract_result_line():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-lattice", "--seed", "2", "--seconds", "1"]
        cmd += ["--trace", str(trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
