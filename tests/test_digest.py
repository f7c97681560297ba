"""Pinned CLI output on a wide command set, as one short digest per command.

``analyze``, ``analyze --json``, ``lattice`` and ``lattice --dot`` run on the
test corpus, forks 1-4, loops 1-8 and rose chains 1-32, every graph fed
through stdin, in the runner of ``test_golden``.  Each command's exit code,
stdout and stderr are hashed with sha256, and ``golden/digests.txt`` holds the
first 16 hex digits next to the command's label, so a mismatch names the
command that differs.  ``golden/cli.jsonl`` stays the readable snapshot.
Rewrite the digests only when an output change is intended:

    PYTHONPATH=src python tests/test_digest.py
"""

import hashlib
import json
import os

from conftest import named_graphs, random_corpus
from leavitt.laurent import QQ
from leavitt.serialize import graph_to_data
from test_golden import REPORTS, ROOT, _forks, _loops, _rose_chain, run_cases

DIGESTS = os.path.join(ROOT, "tests", "golden", "digests.txt")


def graphs():
    """(label, graph JSON) for every graph of the command set, in file order."""
    corpus = [(f"named {name}", g) for name, g in named_graphs().items()]
    corpus += [(f"random {i}", g) for i, g in enumerate(random_corpus())]
    out = [(label, json.dumps(graph_to_data(g, QQ), sort_keys=True)) for label, g in corpus]
    out += [(f"forks {k}", _forks(k)) for k in range(1, 5)]
    out += [(f"loops {k}", _loops(k)) for k in range(1, 9)]
    out += [(f"rose chain {n}", _rose_chain(n)) for n in range(1, 33)]
    return out


def digests():
    """{label: digest} for every command, in file order."""
    labels, cases = [], []
    for label, text in graphs():
        for cmd in REPORTS:
            labels.append(f"{label}: {' '.join(cmd)}")
            cases.append(([cmd[0], "-"] + cmd[1:], text))
    out = {}
    for label, r in zip(labels, run_cases(cases)):
        outcome = json.dumps([r["exit"], r["stdout"], r.get("stderr", "")])
        out[label] = hashlib.sha256(outcome.encode()).hexdigest()[:16]
    return out


def test_cli_digests_match():
    with open(DIGESTS, encoding="utf-8") as handle:
        want = dict(reversed(line.rstrip("\n").split("  ", 1)) for line in handle)
    got = digests()
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[:10]}"


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        for label, digest in digests().items():
            handle.write(f"{digest}  {label}\n")
