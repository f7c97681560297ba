"""The benchmark's three workloads: seeded, endless streams of checked ops.

An op is one call into the program: a CLI invocation (``leavitt.cli.main``
in process, output captured), one public library call, or, in
``corpus-sweep``, one graph's full theorem sweep.  Each op carries a
``verify`` that turns the program's output into the text hashed for the
determinism digest and compares it with an answer known by construction.

Inputs are generated one round at a time, between ops and outside their
timing; constructing a workload generates its first round.  Program
functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import checks
import gen
from leavitt import cli, errors, ideals, lattice, laurent, serialize, theorems
from leavitt.graphs import Cycle

Verdict = Tuple[str, Optional[str]]  # (text hashed for the digest, failure reason or None)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    verify: Callable[[object], Verdict]


class Workload:
    name = ""
    digest_ops = 0  # ops at the head of the stream that the determinism digest covers

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self._files = 0
        self._first = self.make_round(0)
        self.round_ops = len(self._first)  # every round has this many ops

    def ops(self) -> Iterator[Op]:
        yield from self._first
        r = 1
        while True:
            yield from self.make_round(r)
            r += 1

    def make_round(self, r: int) -> List[Op]:
        raise NotImplementedError

    def write(self, text: str) -> str:
        """Write an input file into the work directory; return its name there.

        Ops run with the work directory as the current directory, so the
        paths the CLI echoes back do not depend on where the run happens.
        """
        name = f"in{self._files}.json"
        self._files += 1
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return name


def run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the arguments
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def cli_op(kind: str, argv: List[str], check: Callable[[str], Optional[str]]) -> Op:
    def verify(res) -> Verdict:
        rc, out, err = res
        if rc != 0:
            return out + err, f"exit {rc}: {err.strip()}"
        return out, check(out)

    return Op(kind, lambda: run_cli(argv), verify)


def expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# -- cli-lattice ---------------------------------------------------------------


@dataclass
class Family:
    """A graph structure on vertex ids 0..n-1 with what is known about it."""

    key: object  # families with equal keys have equal structure; None for a random graph
    spec: gen.Spec
    pairs: Optional[int]  # closed-form pair count; None for random graphs
    condition_k: Optional[bool]
    draw_pair: Callable[[random.Random], Tuple[set, set]]  # a valid (H, S) on the ids


def _forks(k: int) -> Family:
    def draw(rng):
        H, S = set(), set()
        for i in range(k):
            h, s = rng.choice(gen.FORK_PAIRS)
            H |= {3 * i + j for j in h}
            S |= {3 * i + j for j in s}
        return H, S

    return Family(("forks", k), gen.forks(k), 6**k, True, draw)


def _loops(k: int) -> Family:
    def draw(rng):
        return {i for i in range(k) if rng.random() < 0.5}, set()

    return Family(("loops", k), gen.loops(k), 2**k, False, draw)


def _roses(n: int) -> Family:
    def draw(rng):
        return set(range(rng.randint(0, n))), set()

    return Family(("roses", n), gen.rose_chain(n), n + 1, True, draw)


FAMILIES = {"forks": _forks, "loops": _loops, "roses": _roses}


def _random(rng: random.Random) -> Family:
    spec = gen.random_graph(rng, rng.randint(9, 12), 0.15)

    def draw(rng):
        H = checks.hs_closure(spec, {rng.randrange(len(spec[0]))})
        S = {v for v in sorted(checks.breaking(spec, H)) if rng.random() < 0.5}
        return H, S

    return Family(None, spec, None, None, draw)


def _names(H, names) -> List[str]:
    return sorted(names[v] for v in H)


class CliLattice(Workload):
    """CLI ops on graph families whose pair lattices grow as 6^k, 2^k and n+1.

    forks(4) and loops(8) are left out: one op on them takes 1.5-12 s, so a
    run would hold too few of them for a steady median or tail.  A round is
    150 ops, so its slowest 1% and 5% fall inside groups of like ops (the
    forks(3) ``analyze`` ops; the ``ideal`` ops on forks(3) and loops(7)),
    which keeps the tail percentiles steady from seed to seed.  Every op of a
    random slot gets a random graph of its own: their costs spread widely,
    so a run needs hundreds of them for its median not to turn on the seed.
    """

    name = "cli-lattice"
    digest_ops = 72  # the first twelve slots of a round: every family and op kind
    SIZES = (
        ("roses", 2), ("forks", 1), ("loops", 2), ("random", 0), ("roses", 4), ("forks", 2),
        ("loops", 3), ("random", 0), ("roses", 8), ("forks", 1), ("loops", 4), ("random", 0),
        ("roses", 12), ("forks", 2), ("loops", 5), ("random", 0), ("roses", 16), ("random", 0),
        ("roses", 24), ("random", 0), ("roses", 32), ("random", 0), ("loops", 6), ("forks", 3),
        ("loops", 7),
    )  # fmt: skip
    KINDS = ("analyze", "lattice", "gr", "limit", "krull", "power")

    def __init__(self, seed: int, workdir: str):
        self._counts: Dict[object, int] = {}  # brute-force pair count per family key
        super().__init__(seed, workdir)

    def make_round(self, r: int) -> List[Op]:
        ops = []
        for family, size in self.SIZES:
            fixed = None if family == "random" else FAMILIES[family](size)
            for kind in self.KINDS:
                ops.append(self._op(fixed or _random(self.rng), kind))
        return ops

    def _check_pairs(self, fam: Family, got: int) -> Optional[str]:
        if fam.key is None:
            want = checks.pair_count(fam.spec)
        else:
            if fam.key not in self._counts:
                if len(fam.spec[0]) > 12:  # past the brute-force bound: the closed form alone
                    self._counts[fam.key] = fam.pairs
                else:
                    self._counts[fam.key] = checks.pair_count(fam.spec)
            want = self._counts[fam.key]
        if fam.pairs is not None and fam.pairs != want:
            return f"closed form {fam.pairs} disagrees with the brute-force count {want}"
        return expect(got, want, "pair count")

    def _op(self, fam: Family, kind: str) -> Op:
        names = gen.fresh_names(self.rng, len(fam.spec[0]))
        path = self.write(gen.graph_json(gen.named(fam.spec, names)))
        if kind == "analyze":

            def check(out: str) -> Optional[str]:
                report = json.loads(out)
                k = report["conditionK"] if fam.condition_k is None else fam.condition_k
                return (
                    self._check_pairs(fam, report["latticeSize"])
                    or expect(report["conditionK"], k, "Condition (K)")
                    or expect(report["checks"]["everythingPrime"]["agree"], True, "everything-prime agreement")
                )

            return cli_op(kind, ["analyze", path, "--json"], check)
        if kind == "lattice":

            def check(out: str) -> Optional[str]:
                return self._check_pairs(fam, len(re.findall(r"^  n\d+ \[", out, re.M)))

            return cli_op(kind, ["lattice", path, "--dot"], check)
        H, S = fam.draw_pair(self.rng)
        pair = {"H": _names(H, names), "S": _names(S, names)}
        literal = json.dumps({**pair, "components": []})
        argv = ["ideal", path, literal, kind, "--json"]
        want: object = {"op": kind, "result": dict(pair) if kind == "gr" else {**pair, "components": []}}
        if kind == "power":
            n = self.rng.randint(2, 5)
            argv.insert(4, str(n))
            want["n"] = n
        elif kind == "krull":
            want = {"op": "krull", "result": not H}
        return cli_op(kind, argv, lambda out: expect(json.loads(out), want, kind))


# -- ideal-calculus ------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """Where a pool polynomial lives: an exitless cycle over a graded part.

    ``graded_over`` lists the graded primes containing every ideal of the
    slot; the non-graded primes over an ideal (H, {c: p}) are
    (prime_h, {c: f}) for the irreducible factors f of p.
    """

    graph: str
    h: Tuple[str, ...]
    cycle: Tuple[str, ...]
    graded_over: Tuple[Tuple[str, ...], ...]
    prime_h: Tuple[str, ...]
    can_be_prime: bool  # the complement of h is downward directed
    can_be_maximal: bool  # the quotient graph is exactly the cycle


GRAPHS = {
    "L1": (("v",), {("v", "v"): 1}),
    "T1": (("v", "w"), {("v", "v"): 1, ("v", "w"): 1}),
    "D2": (("v1", "v2"), {("v1", "v1"): 1, ("v2", "v2"): 1}),
    "C2": (("v1", "v2"), {("v1", "v1"): 2, ("v2", "v2"): 2, ("v2", "v1"): 1}),
}
SLOTS = (
    Slot("L1", (), ("v",), (), (), True, True),
    Slot("T1", ("w",), ("v",), (), ("w",), True, True),
    Slot("D2", ("v2",), ("v1",), (), ("v2",), True, True),
    Slot("D2", (), ("v1",), (("v1",),), ("v2",), False, False),
)
# C2 satisfies Condition (K): its ideals are the graded chain {} < {v1} < {v1, v2},
# every proper one prime and only {v1} maximal.
C2_CHAIN = ((), ("v1",), ("v1", "v2"))


def ideal_data(I) -> tuple:
    """(H, S, ((cycle, coefficients), ...)) read off an IdealRep's fields."""
    return I.graded.h, I.graded.s, tuple((c.vertices, p.coeffs) for c, p in I.components)


def ideal_json_data(d: dict, p: int) -> tuple:
    """The same triple from the program's JSON form of an ideal."""
    comps = tuple((tuple(c["cycle"]), checks.parse_poly(c["poly"], p)) for c in d["components"])
    return tuple(d["H"]), tuple(d["S"]), comps


def prime_view(w) -> tuple:
    factors = sorted((f.coeffs, m) for f, m in w.witness) if w.reason == "reducible-polynomial" else None
    return w.prime, w.reason, factors


def primes_over_view(report) -> tuple:
    return (
        ideal_data(report.result),
        report.equals_input,
        sorted((q.h, q.s) for q in report.primes.graded),
        sorted(ideal_data(q) for q in report.primes.nongraded),
    )


def decomposition_view(family) -> Optional[list]:
    return None if family is None else sorted(ideal_data(q) for q in family)


def _text(value) -> str:
    return json.dumps(value, default=str, sort_keys=True)


def lib_op(kind: str, call: Callable[[], object], view: Callable, want) -> Op:
    """A library call whose output, seen through ``view``, must equal ``want``."""

    def verify(out) -> Verdict:
        got = view(out)
        return _text(got), expect(got, want, kind)

    return Op(kind, call, verify)


class IdealCalculus(Workload):
    """Ideal operations over Q and GF(p) on small graphs with exitless cycles.

    Every round draws a fresh pool of polynomials per field, as products of
    known irreducibles, and pairs every pool member with every other, as
    ``leavitt.oracles.laurent_model`` does; the field's slot rotates through
    L1, T1 and both D2 slots.  Graded ops on C2 and CLI ``ideal`` ops ride
    along.
    """

    name = "ideal-calculus"
    digest_ops = 200
    # Larger pools of cheap GF(p) inputs keep the ops on the one Kronecker
    # input of a round near 0.2% of its ops, so the p99.9 falls in the middle
    # of the Kronecker ops rather than on their few slowest.
    POOL_SIZE = {0: 5, 2: 14, 101: 14, 65537: 14}

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}:irreducibles")
        self.irrs = {p: gen.irreducibles(rng, p) for p in gen.FIELDS}
        self.fields = {p: laurent.GF(p) if p else laurent.QQ for p in gen.FIELDS}
        self.graphs = {k: checks.leavitt_graph(spec) for k, spec in GRAPHS.items()}
        self.lattices = {k: lattice.enumerate_pairs(g) for k, g in self.graphs.items()}
        self.files: Dict[tuple, str] = {}
        # Every Kronecker input once per cycle, in the same order for every
        # seed: their factoring times differ twentyfold, so a run that drew
        # them by the seed would carry more or less work by chance.
        self._kronecker = gen.kronecker_pairs()
        random.Random("kronecker-order").shuffle(self._kronecker)
        super().__init__(seed, workdir)

    def make_round(self, r: int) -> List[Op]:
        ops = self._c2_ops()
        kronecker = self._kronecker[r % len(self._kronecker)]
        for i, p in enumerate(gen.FIELDS):
            slot = SLOTS[(r + i) % len(SLOTS)]
            pool = gen.draw_pool(self.rng, self.irrs[p], p, self.POOL_SIZE[p], kronecker)
            ops.extend(self._pool_ops(slot, p, pool))
            ops.extend(self._cli_ops(slot, p, pool, r))
        return ops

    def _c2_ops(self) -> List[Op]:
        g, lat = self.graphs["C2"], self.lattices["C2"]
        reps = [ideals.rep(lattice.admissible_pair(g, h, ())) for h in C2_CHAIN]
        want = [(h, (), ()) for h in C2_CHAIN]
        ops = []
        for i, a in enumerate(reps):
            ops.append(lib_op("make", lambda a=a: ideals.make(g, a.graded), ideal_data, want[i]))
            for j, b in enumerate(reps):
                ops.append(lib_op("contains", lambda a=a, b=b: ideals.contains(g, a, b), bool, j <= i))
                if i < 2 and j < 2:
                    for kind in ("intersect", "product"):
                        call = lambda kind=kind, a=a, b=b: getattr(ideals, kind)(g, a, b)  # noqa: E731
                        ops.append(lib_op(kind, call, ideal_data, want[min(i, j)]))
        for i, a in enumerate(reps[:2]):
            over = ([(h, ()) for h in C2_CHAIN[i:2]], [])
            ops += [
                lib_op("is_prime", lambda a=a: ideals.is_prime(g, lat, a), prime_view, (True, None, None)),
                lib_op("is_maximal", lambda a=a: ideals.is_maximal(g, lat, a), bool, i == 1),
                lib_op("power", lambda a=a: ideals.power(g, a, 3), ideal_data, want[i]),
                lib_op(
                    "intersection_of_primes",
                    lambda a=a: theorems.intersection_of_primes(g, lat, a),
                    primes_over_view,
                    (want[i], True) + over,
                ),
                lib_op(
                    "irredundant_prime_intersection",
                    lambda a=a: theorems.irredundant_prime_intersection(g, lat, a),
                    decomposition_view,
                    [want[i]],
                ),
            ]
        return ops

    def _expected(self, slot: Slot, p: int):
        """Functions of a factor multiset giving the answers on ``slot``."""

        def ideal(h, factors) -> tuple:
            return h, (), ((slot.cycle, gen.expand(factors, p)),)

        def primes_over(factors) -> tuple:
            graded = [(h, ()) for h in slot.graded_over]
            nongraded = sorted(ideal(slot.prime_h, ((f, 1),)) for f, _ in factors)
            squarefree = all(m == 1 for _, m in factors)
            return (ideal(slot.h, gen.fcore(factors)), squarefree, graded, nongraded)

        def decomposition(factors) -> Optional[list]:
            result, squarefree, graded, nongraded = primes_over(factors)
            return sorted([(h, s, ()) for h, s in graded] + nongraded) if squarefree else None

        return ideal, primes_over, decomposition

    def _pool_ops(self, slot: Slot, p: int, pool) -> List[Op]:
        g, lat = self.graphs[slot.graph], self.lattices[slot.graph]
        pair = lattice.admissible_pair(g, slot.h, ())
        cyc = Cycle.from_vertices(slot.cycle)
        ideal, primes_over, decomposition = self._expected(slot, p)
        polys = [laurent.LaurentPoly.from_coeffs(self.fields[p], gen.expand(fa, p)) for fa in pool]
        made = [ideals.make(g, pair, {cyc: P}) for P in polys]
        ops: List[Op] = []
        for k, (fa, P, I) in enumerate(zip(pool, polys, made)):
            if len(fa) > 1 or fa[0][1] > 1:
                prime = (False, "reducible-polynomial", sorted(fa))
            elif slot.can_be_prime:
                prime = (True, None, None)
            else:
                prime = (False, "quotient-not-downward-directed", None)
            n = 2 + k % 2
            ops += [
                lib_op("make", lambda P=P: ideals.make(g, pair, {cyc: P}), ideal_data, ideal(slot.h, fa)),
                lib_op("is_prime", lambda I=I: ideals.is_prime(g, lat, I), prime_view, prime),
                lib_op("is_maximal", lambda I=I: ideals.is_maximal(g, lat, I), bool, prime[0] and slot.can_be_maximal),
                lib_op("power", lambda I=I, n=n: ideals.power(g, I, n), ideal_data, ideal(slot.h, gen.fpow(fa, n))),
                lib_op(
                    "intersection_of_primes",
                    lambda I=I: theorems.intersection_of_primes(g, lat, I),
                    primes_over_view,
                    primes_over(fa),
                ),
                lib_op(
                    "irredundant_prime_intersection",
                    lambda I=I: theorems.irredundant_prime_intersection(g, lat, I),
                    decomposition_view,
                    decomposition(fa),
                ),
            ]
        for fa, I in zip(pool, made):
            for fb, J in zip(pool, made):
                ops.append(lib_op("contains", lambda I=I, J=J: ideals.contains(g, I, J), bool, gen.fdivides(fa, fb)))
                for kind, combine in (("intersect", gen.flcm), ("product", gen.fmul)):
                    call = lambda kind=kind, I=I, J=J: getattr(ideals, kind)(g, I, J)  # noqa: E731
                    ops.append(lib_op(kind, call, ideal_data, ideal(slot.h, combine(fa, fb))))
        return ops

    def _cli_ops(self, slot: Slot, p: int, pool, r: int) -> List[Op]:
        key = (slot.graph, p)
        if key not in self.files:
            self.files[key] = self.write(gen.graph_json(GRAPHS[slot.graph], f"Fp:{p}" if p else "Q"))
        ideal, primes_over, decomposition = self._expected(slot, p)

        def primes_over_json(d) -> tuple:
            return (
                ideal_json_data(d["intersection"], p),
                d["equalsInput"],
                sorted((tuple(q["H"]), tuple(q["S"])) for q in d["gradedPrimes"]),
                sorted(ideal_json_data(q, p) for q in d["nongradedPrimes"]),
            )

        def decomposition_json(d) -> Optional[list]:
            return None if d["result"] is None else sorted(ideal_json_data(q, p) for q in d["result"])

        def power_json(d) -> tuple:
            return ideal_json_data(d["result"], p)

        def squared(factors) -> tuple:
            return ideal(slot.h, gen.fpow(factors, 2))

        ops = []
        kinds = (
            ("primes-over", [], primes_over_json, primes_over),
            ("decompose", [], decomposition_json, decomposition),
            ("power", ["2"], power_json, squared),
        )
        for j, (kind, extra, view, answer) in enumerate(kinds):
            fa = pool[(r + j) % len(pool)]
            component = {"cycle": list(slot.cycle), "poly": gen.poly_text(gen.expand(fa, p))}
            literal = json.dumps({"H": list(slot.h), "S": [], "components": [component]})
            argv = ["ideal", self.files[key], literal, kind, *extra, "--json"]

            def check(out, view=view, want=answer(fa), kind=kind) -> Optional[str]:
                return expect(view(json.loads(out)), want, kind)

            ops.append(cli_op(kind, argv, check))
        return ops


# -- corpus-sweep --------------------------------------------------------------


def sweep(g) -> dict:
    """One graph's full theorem sweep, reported through the program's serializers."""
    lat = lattice.enumerate_pairs(g)
    keq = theorems.condition_K_equivalence(g, lat)
    ep = theorems.everything_prime_check(g, lat)
    ce = theorems.prime_intersection_counterexample(g, lat)
    pa = theorems.prime_always_exists(g, lat)
    md = theorems.maximal_decomposition(g, lat)
    factors = []
    for pair in lat.proper():
        try:
            fs = [serialize.pair_to_data(f) for f in theorems.factor_graded(g, lat, ideals.rep(pair))]
        except errors.FactorizationError:
            fs = None
        factors.append([serialize.pair_to_data(pair), fs])
    return {
        "pairs": len(lat),
        "conditionK": keq.condition_k,
        "equivalent": keq.equivalent,
        "tested": keq.tested,
        "kCounterexample": serialize.ideal_to_data(keq.counterexample) if keq.counterexample else None,
        "everythingPrime": [ep.all_ideals_prime, ep.graph_criterion, ep.graded_chain],
        "agree": ep.agree,
        "primeIntersectionCounterexample": serialize.ideal_to_data(ce) if ce else None,
        "primeExists": serialize.pair_to_data(pa),
        "maximalDecomposition": md,
        "factorizations": factors,
    }


class CorpusSweep(Workload):
    """Full theorem sweeps over many tiny random graphs of at most 8 vertices."""

    name = "corpus-sweep"
    digest_ops = 50
    ROUND = 100

    def make_round(self, r: int) -> List[Op]:
        return [self._op(gen.corpus_graph(self.rng)) for _ in range(self.ROUND)]

    def _op(self, spec: gen.Spec) -> Op:
        g = checks.leavitt_graph(spec)

        def verify(report) -> Verdict:
            why = (
                expect(report["pairs"], checks.pair_count(spec), "pair count")
                or expect(report["equivalent"], True, "Condition (K) equivalence")
                or expect(report["agree"], True, "everything-prime agreement")
            )
            for pair, fs in report["factorizations"]:
                if why is None and fs is not None:
                    got = checks.meet(spec, [(f["H"], f["S"]) for f in fs])
                    why = expect(got, (tuple(pair["H"]), tuple(pair["S"])), "meet of the graded-prime factors")
            return _text(report), why

        return Op("sweep", lambda: sweep(g), verify)


WORKLOADS = {w.name: w for w in (CliLattice, IdealCalculus, CorpusSweep)}
