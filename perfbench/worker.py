"""One fresh benchmark process: set up a workload, say "ready", run its ops.

Started by ``run.py`` as

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS WORKDIR OUT

from the root of a checkout.  ROLE is

* ``setup``:  set up and exit;
* ``probe``:  run the determinism-digest ops only;
* ``timed``:  run the determinism-digest ops as warm-up, then whole rounds'
  worth of ops back to back until their latencies add up to SECONDS;
* ``traced``: run ops for up to SECONDS/2, each twice: once plainly and
  once, on a second copy of the workload, with the tracer installed.

The line "ready CPU_S" on stdout marks the end of set-up (interpreter start,
``import leavitt``, first round of inputs generated and written) and gives
the CPU time the process has used so far; nothing else is printed there.
Results go to the JSON file OUT, spans to OUT.spans.*.

Ops are timed in CPU time of the calling thread (``clock``), not wall-clock
time: the host of a shared virtual machine takes its CPU away for a share of
the time that changes from minute to minute, and that time is not the
program's.  The wall-clock time of the timed ops is reported beside it.
"""

from __future__ import annotations

import array
import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time
from time import thread_time as clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)

TRACE_OPS = {"cli-lattice": 300, "ideal-calculus": 4326, "corpus-sweep": 1000}  # whole rounds


def execute(op, call=None):
    """Run one op; return (CPU s, sha256 of its output text, failure reason or None, wall s)."""
    call = call or op.call
    t0, w0 = clock(), perf_counter()
    try:
        out, why = call(), None
    except (Exception, SystemExit) as e:
        out, why = None, f"raised {type(e).__name__}: {e}"
    wall = perf_counter() - w0
    dt = clock() - t0
    if why is None:
        try:
            text, why = op.verify(out)
        except Exception as e:  # output of an unexpected shape
            text, why = repr(out), f"unreadable output: {type(e).__name__}: {e}"
    else:
        text = why
    return dt, hashlib.sha256(text.encode()).hexdigest(), why, wall


class Run:
    """Latencies and failures of a stream of ops, and the output hashes of its first ``keep``.

    Only the head's hashes are kept, so the bookkeeping of a long run does not
    grow the peak memory the run measures.
    """

    def __init__(self, keep: int):
        self.keep = keep
        self.count = 0
        self.latencies = array.array("d")
        self.hashes = []
        self.failures = []

    def add(self, op, result):
        dt, h, why, _ = result
        self.latencies.append(dt)
        if self.count < self.keep:
            self.hashes.append(h)
        if why is not None:
            self.failures.append({"op": self.count, "kind": op.kind, "why": why[:500]})
        self.count += 1

    def as_json(self):
        return {
            "attempted": self.count,
            "latencies": self.latencies.tolist(),
            "hashes": self.hashes,
            "failures": self.failures,
        }


def main(argv):
    role, name, seed, seconds, workdir, out = argv
    seed, seconds = int(seed), float(seconds)
    os.chdir(workdir)
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, workdir)
    stream = workload.ops()
    print(f"ready {process_time():.9f}", flush=True)
    if role == "setup":
        return 0
    run = Run(TRACE_OPS[name] if role == "traced" else cls.digest_ops)
    result = {}
    if role == "probe":
        for _ in range(cls.digest_ops):
            op = next(stream)
            run.add(op, execute(op))
    elif role == "timed":
        for _ in range(cls.digest_ops):  # warm-up, checked but not timed
            op = next(stream)
            run.add(op, execute(op))
        # Rounds repeat one mix of op kinds and sizes, so stopping only after
        # a whole round's worth of ops keeps that mix the same in every run.
        busy, wall, timed = 0.0, 0.0, 0
        while busy < seconds or timed % workload.round_ops:
            timed += 1
            op = next(stream)
            res = execute(op)
            busy += res[0]
            wall += res[3]
            run.add(op, res)
        result["warmup_ops"] = cls.digest_ops
        result["wall_s"] = wall
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif role == "traced":
        import tracer

        # Two copies of the stream, one run plainly and one traced, op by op
        # and in alternating order, so drift and warm-up do not bias the
        # tracing overhead.
        copy = cls(seed, workdir).ops()
        traced = Run(TRACE_OPS[name])
        tr = tracer.Tracer()

        def run_traced(i, op):
            tr.install()
            try:
                traced.add(op, execute(op, lambda: tr.run_op(i, op.call)))
            finally:
                tr.uninstall()

        busy = 0.0
        while busy < seconds / 2 and run.count < TRACE_OPS[name]:
            i, op, twin = run.count, next(stream), next(copy)
            if i % 2:  # odd ops run traced first
                run_traced(i, twin)
            res = execute(op)
            busy += res[0]
            run.add(op, res)
            if not i % 2:
                run_traced(i, twin)
        tr.dump(out + ".spans")
        result["traced"] = traced.as_json()
        result["leftover_wrappers"] = tracer.traced_bindings()
    else:
        raise SystemExit(f"unknown role {role!r}")
    result.update(run.as_json())
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
