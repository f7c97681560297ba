"""The leavitt benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload cli-lattice --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  One
client runs one op at a time, the next starting when the previous returns,
in a single process.  With ``--trace 0`` a run

1. starts two interpreters that only set the workload up, then three probe
   interpreters (PYTHONHASHSEED 1, 2, 3) that set up and run the ops the
   determinism digest covers;
2. starts the timed interpreter (PYTHONHASHSEED 0), which sets up, runs the
   digest ops as warm-up, then runs whole rounds of ops until their
   latencies add up to ``--seconds``, and checks every output;
3. starts three more interpreters that only set up;
4. prints the end-to-end metrics, one per line, then a JSON result line.

Times are CPU times (see ``worker.py``).  ``setup_s`` is the median over the
nine interpreters of the CPU time each used from its start to "ready".
An op fails when it raises, exits non-zero,
gives a wrong answer, or hashes differently in a probe.  With ``--trace 1``
one interpreter runs each op twice, plainly and traced, and the result line
carries the per-layer metrics.  The last stdout line is always the
JSON result; a run that cannot start prints none and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-lattice", "ideal-calculus", "corpus-sweep")
# Interpreters that only set up, before the probes and after the timed run, so
# that setup_s, a median of nine, samples the machine over the whole run.
SETUP_BEFORE, SETUP_AFTER = 2, 3
PROBE_HASH_SEEDS = (1, 2, 3)
TIMED_HASH_SEED = 0
# The tail percentile of each workload, fixed so that a faster program is not
# charged with a higher percentile.  cli-lattice: p99, the highest with at
# least ten timed ops beyond it (about 19 in a 45 s run).
# ideal-calculus: p99.9, about 180 beyond; p99.99 would leave about 18 but
# lands on the few slowest Kronecker searches, which spread four times as much.
TAIL_PCT = {"cli-lattice": 99.0, "ideal-calculus": 99.9, "corpus-sweep": 99.0}
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(role, workload, seed, seconds, workdir, hash_seed, deadline):
    """Run one worker; return (its CPU s and wall s up to "ready", its result JSON)."""
    out = os.path.join(workdir, f"{role}-{hash_seed}.json")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    worker = os.path.join(HERE, "worker.py")
    cmd = [sys.executable, worker, role, workload, str(seed), str(seconds), workdir, out]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline().split()
        wall = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{role} worker ran past the time limit") from None
    finally:
        proc.stdout.close()
    if len(line) != 2 or line[0] != b"ready" or rc != 0:
        raise BenchError(f"{role} worker failed (exit {rc})")
    setup = (float(line[1]), wall)
    if role == "setup":
        return setup, None
    with open(out, encoding="utf-8") as handle:
        return setup, json.load(handle)


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of values strictly beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    value = sorted_values[rank - 1]
    return value, sum(1 for v in sorted_values if v > value)


def timed_run(workload, seed, seconds, workdir, deadline):
    def setup_only(n):
        for _ in range(n):
            setups.append(spawn("setup", workload, seed, seconds, workdir, TIMED_HASH_SEED, deadline)[0])

    setups, probes = [], []
    setup_only(SETUP_BEFORE)
    for hs in PROBE_HASH_SEEDS:
        setup, res = spawn("probe", workload, seed, seconds, workdir, hs, deadline)
        setups.append(setup)
        probes.append(res["hashes"])
    setup, res = spawn("timed", workload, seed, seconds, workdir, TIMED_HASH_SEED, deadline)
    setups.append(setup)
    setup_only(SETUP_AFTER)
    digest_n = len(probes[0])
    head = res["hashes"][:digest_n]
    bad = {f["op"] for f in res["failures"]}
    bad |= {i for hashes in probes for i, (a, b) in enumerate(zip(hashes, head)) if a != b}
    lat = sorted(res["latencies"][res["warmup_ops"] :])
    tail, beyond = percentile(lat, TAIL_PCT[workload])
    metrics = {
        "setup_s": (statistics.median(cpu for cpu, _ in setups), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MiB"),
    }
    attempted = res["attempted"]
    notes = [
        f"op_tail_ms is p{TAIL_PCT[workload]:g}: {beyond} of {len(lat)} timed ops beyond it",
        f"failed_frac {len(bad) / attempted:.6g} fraction ({len(bad)} of {attempted} ops)",
        f"digest sha256:{hashlib.sha256(''.join(head).encode()).hexdigest()} over the first {digest_n} ops, "
        f"PYTHONHASHSEED {TIMED_HASH_SEED} vs {', '.join(map(str, PROBE_HASH_SEEDS))}: "
        + ("identical" if all(p == head for p in probes) else "MISMATCH"),
        f"setup_s samples (CPU s): {', '.join(f'{cpu:.4f}' for cpu, _ in setups)}",
        f"set-up wall-clock s, spawn to ready: median {statistics.median(w for _, w in setups):.4f}",
        f"timed ops: {sum(lat):.3f} s CPU, {res['wall_s']:.3f} s wall-clock ({res['wall_s'] / sum(lat):.4f}x)",
    ]
    return metrics, attempted, res["failures"], bad, notes


def traced_run(workload, seed, seconds, workdir, deadline):
    import tracer

    _, res = spawn("traced", workload, seed, seconds, workdir, TIMED_HASH_SEED, deadline)
    plain, traced = res, res["traced"]
    bad = {f["op"] for f in plain["failures"]} | {f["op"] for f in traced["failures"]}
    bad |= {i for i, (a, b) in enumerate(zip(plain["hashes"], traced["hashes"])) if a != b}
    n = plain["attempted"]
    spans = tracer.load(os.path.join(workdir, f"traced-{TIMED_HASH_SEED}.json.spans"))
    metrics = tracer.layer_metrics(spans, n, sum(plain["latencies"]))
    failures = plain["failures"] + traced["failures"]
    if res["leftover_wrappers"]:
        bad.add(-1)
        failures.append({"op": -1, "kind": "trace", "why": f"wrappers left: {res['leftover_wrappers']}"})
    op_s = metrics["trace.op_s"][0]
    covered = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    notes = [
        f"{n} ops run plainly and traced ({spans['count']} spans); output digests "
        + ("identical" if plain["hashes"] == traced["hashes"] else "DIFFER"),
        f"layer self times {covered:.6f} s + uncovered {metrics['trace.uncovered_frac'][0] * op_s:.6f} s"
        f" of {op_s:.6f} s traced op time",
    ]
    return metrics, 2 * n, failures, bad, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + WORKER_TIMEOUT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "leavitt", "__init__.py")):
        print(f"error: no leavitt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failures, bad, notes = run(
            args.workload, args.seed, args.seconds, workdir, deadline
        )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for f in failures[:20]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {f['why']}", file=sys.stderr)
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
