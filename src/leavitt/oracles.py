"""Independent brute-force references used to validate the main engine.

None of these share traversal or arithmetic code paths with the modules they
check: hereditary saturated sets are filtered definitionally over all vertex
subsets, the pair order is searched as a full bit matrix, closed simple
paths are counted by depth-first search, disjoint loops are replayed
against direct Laurent-ring ideal arithmetic, and the acyclic sink-powerset
premise is verified rather than assumed.

The whole-lattice scans that the engine replaced by Birkhoff's
representation also live here: the primes over an ideal, the maximal graded
ideals, the per-pair meet check of the maximal decomposition, and the
greedy graded-prime factorization, each run over the searched order and the
built quotient graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import FactorizationError, GraphError, InternalInconsistencyError
from .graphs import Graph, condition_K, downward_directed, exitless_cycles, is_finite, reaches
from .ideals import (
    IdealRep,
    contains,
    graded_part,
    intersect,
    is_maximal,
    is_prime,
    limit_power,
    make,
    power,
    product,
    rep,
    zero_ideal,
)
from .lattice import (
    AdmissiblePair,
    PairLattice,
    breaking_vertices,
    enumerate_hs,
    enumerate_pairs,
    quotient,
)
from .laurent import LaurentPoly, divides, factor, is_irreducible, poly_lcm, squarefree_core
from .theorems import PrimeFamily, intersection_of_primes


def brute_hs(g: Graph) -> List[frozenset]:
    """All hereditary saturated subsets by filtering every vertex subset.

    Each vertex gets a bit, a successor mask read off the bundles, and a flag
    for "non-sink with finite out-degree".  A subset is kept when its
    members' successors all lie inside (hereditary) and no flagged vertex
    outside has all its successors inside (saturated).  The members'
    successors are built up subset by subset, each from the subset without
    its lowest bit, and frozensets are built only for the subsets kept.
    Limited to 12 vertices.
    """
    vs = g.vertices
    n = len(vs)
    if n > 12:
        raise GraphError(f"{n} vertices is beyond the brute-force bound of 12")
    index = {v: i for i, v in enumerate(vs)}
    succ, total = [0] * n, [0] * n
    for (src, dst), m in g.bundles.items():
        succ[index[src]] |= 1 << index[dst]
        total[index[src]] += m
    finite = [(1 << i, succ[i]) for i in range(n) if succ[i] and is_finite(total[i])]
    out_of = [0] * (1 << n)  # the successors of the members of each subset
    out = []
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            out_of[mask] = out_of[mask ^ low] | succ[low.bit_length() - 1]
        if out_of[mask] & ~mask:
            continue
        if any(not mask & b and not s & ~mask for b, s in finite):
            continue
        out.append(frozenset(vs[i] for i in range(n) if mask >> i & 1))
    return sorted(out, key=lambda h: tuple(sorted(h)))


class SearchLattice:
    """The pair order of a lattice as an n x n bit matrix, searched.

    ``low[i]`` (``up[i]``) has bit j set when pair j lies below (above) pair
    i.  A meet is the common lower bound with the most pairs below it, and
    must lie above every other one; joins are dual.
    """

    def __init__(self, lattice: PairLattice):
        ps = self.pairs = lattice.pairs
        self._index = {p: i for i, p in enumerate(ps)}
        self._low = [sum(1 << j for j, q in enumerate(ps) if q.le(p)) for p in ps]
        self._up = [sum(1 << j for j, q in enumerate(ps) if p.le(q)) for p in ps]
        self.top = ps[max(range(len(ps)), key=lambda i: self._low[i].bit_count())]
        self._flags = None

    def _extremum(self, a: AdmissiblePair, b: AdmissiblePair, low: List[int], kind: str) -> int:
        cand = low[self._index[a]] & low[self._index[b]]
        inside = [k for k in range(len(low)) if cand >> k & 1]
        best = max(inside, key=lambda k: low[k].bit_count(), default=-1)
        if best < 0 or low[best] != cand:
            raise InternalInconsistencyError(f"admissible pairs have no {kind} for {a} and {b}")
        return best

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.pairs[self._extremum(a, b, self._low, "meet")]

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.pairs[self._extremum(a, b, self._up, "join")]

    def upper_covers(self, p: AdmissiblePair) -> Tuple[AdmissiblePair, ...]:
        i = self._index[p]
        above = [k for k in range(len(self.pairs)) if k != i and self._up[i] >> k & 1]
        return tuple(
            self.pairs[k] for k in above if not any(m != k and self._up[m] >> k & 1 for m in above)
        )

    def meet_all(self, items: Sequence[AdmissiblePair]) -> AdmissiblePair:
        """Meet of a family; the empty family meets to the top pair."""
        out = self.top
        for p in items:
            out = self.meet(out, p)
        return out

    def prime_flags(self) -> Dict[AdmissiblePair, bool]:
        """Meet-primeness by definition: meet(A, B) <= I forces A <= I or B <= I.

        Computed on the first call and kept.
        """
        if self._flags is None:
            not_prime = 0
            for i, a in enumerate(self.pairs):
                for b in self.pairs[i:]:
                    m = self._extremum(a, b, self._low, "meet")
                    not_prime |= self._up[m] & ~self._up[i] & ~self._up[self._index[b]]
            self._flags = {p: not (not_prime >> i & 1) for i, p in enumerate(self.pairs)}
        return self._flags


def primes_containing_by_scan(g: Graph, ref: SearchLattice, I: IdealRep) -> PrimeFamily:
    """The primes over I found by scanning every proper pair of the searched order.

    Graded: the meet-prime pairs (by definition) that contain I.  Non-graded:
    every full-S pair over I's graded part, every exitless cycle of its
    built quotient graph and every irreducible factor of I's component on
    that cycle, kept when the candidate contains I and the vertices outside
    H are downward directed.  The engine reads the same family from J.
    """
    flags = ref.prime_flags()
    proper = [p for p in ref.pairs if p != ref.top]
    graded = tuple(p for p in proper if flags[p] and contains(g, rep(p), I))
    comps = I.component_map()
    nongraded = []
    for pair in proper:
        if pair.s_set != breaking_vertices(g, pair.h_set) or not I.graded.le(pair):
            continue
        for cyc in exitless_cycles(quotient(g, pair).graph):
            if cyc not in comps:
                continue
            for f in factor(comps[cyc]):
                cand = make(g, pair, {cyc: f})
                outside = [v for v in g.vertices if v not in pair.h_set]
                if contains(g, cand, I) and downward_directed(g, outside).holds:
                    nongraded.append(cand)
    nongraded.sort(key=IdealRep.sort_key)
    return PrimeFamily(graded, tuple(nongraded))


def maximal_graded_by_scan(g: Graph, ref: SearchLattice) -> List[AdmissiblePair]:
    """The maximal graded ideals by testing every proper pair.

    A pair qualifies when the top is its only upper cover in the searched
    order and its built quotient graph has no exitless cycle.
    """
    return [
        p
        for p in ref.pairs
        if p != ref.top
        and ref.upper_covers(p) == (ref.top,)
        and not exitless_cycles(quotient(g, p).graph)
    ]


def maximal_decomposition_by_scan(g: Graph, ref: SearchLattice) -> Optional[List[Tuple[str, ...]]]:
    """The maximal decomposition from the brute-force hereditary saturated sets.

    The blocks are the minimal nonempty sets, when Condition (K) holds and
    they partition the vertices.  Then every pair is checked to be the meet,
    in the searched order, of the maximal graded ideals above it.
    """
    if not condition_K(g).holds:
        return None
    hs = [h for h in brute_hs(g) if h]
    atoms = [h for h in hs if not any(other < h for other in hs)]
    union = set()
    for a in atoms:
        if union & a:
            return None
        union |= a
    if union != set(g.vertices):
        return None
    maximals = maximal_graded_by_scan(g, ref)
    for p in ref.pairs:
        if ref.meet_all([m for m in maximals if p.le(m)]) != p:
            raise InternalInconsistencyError(f"{p} is not the meet of the maximal ideals above it")
    return sorted(tuple(sorted(a)) for a in atoms)


def factor_graded_by_search(
    g: Graph, ref: SearchLattice, I: IdealRep
) -> Tuple[AdmissiblePair, ...]:
    """Irredundant graded-prime factorization by greedy search.

    Starts from the meet-prime pairs minimal over I's graded part and drops
    members, in sorted order, while the rest still meet to it; raises
    :class:`FactorizationError` when the minimal primes do not meet to it.
    """
    flags = ref.prime_flags()
    over = [p for p in ref.pairs if p != ref.top and flags[p] and I.graded.le(p)]
    minimal = sorted(p for p in over if not any(q != p and q.le(p) for q in over))
    if not minimal or ref.meet_all(minimal) != I.graded:
        raise FactorizationError(f"no finite graded-prime factorization of {I}")
    changed = True
    while changed:
        changed = False
        for p in list(minimal):
            rest = [q for q in minimal if q != p]
            if rest and ref.meet_all(rest) == I.graded:
                minimal.remove(p)
                changed = True
                break
    return tuple(minimal)


def closed_path_count_by_search(g: Graph, v: str) -> int:
    """Closed simple paths based at v, counted up to 2 by depth-first search.

    Walks bundle sequences inside the strongly connected component of v,
    each bundle used at most twice per path: a path needing a bundle three
    times has a repeated sub-loop, and skipping it gives an earlier witness.
    An OMEGA bundle counts as two parallel edges.  Exponential: it takes
    seconds on some dense 8-vertex graphs.
    """
    comp = {u for u in g.vertices if reaches(g, v, u) and reaches(g, u, v)}
    count = 0
    usage: Dict[Tuple[str, str], int] = {}

    def dfs(u: str, prod: int):
        nonlocal count
        for w, m in g.out_bundles(u):
            if count >= 2:
                return
            weight = min(m, 2) if is_finite(m) else 2
            if w == v:
                count += prod * weight
            elif w in comp and usage.get((u, w), 0) < 2:
                usage[(u, w)] = usage.get((u, w), 0) + 1
                dfs(w, prod * weight)
                usage[(u, w)] -= 1

    dfs(v, 1)
    return min(count, 2)


@dataclass
class ModelReport:
    """Outcome of replaying the ideal calculus against a direct model."""

    checked: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def expect(self, label: str, got, want):
        self.checked += 1
        if got != want:
            self.mismatches.append(f"{label}: engine {got!r} != model {want!r}")


def laurent_model(g: Graph, polys: Sequence[LaurentPoly]) -> ModelReport:
    """Replay the ideal operations on k disjoint loops against K[x, 1/x]^k.

    The algebra is a product of k Laurent rings, so an ideal is a tuple of
    generators, each 0, 1 or a canonical polynomial: containment is
    componentwise divisibility, intersection componentwise lcm, product
    componentwise multiplication, and the intersection of the primes over a
    tuple its componentwise radical.  Among the tuples replayed (entries in
    {0, 1} and ``polys``, at least one a polynomial; on one loop, the <p>)
    the primes and the maximal ideals are those with one irreducible entry
    and 1 elsewhere.  Every mismatch is recorded.
    """
    if not g.vertices or g.bundles != {(v, v): 1 for v in g.vertices}:
        raise GraphError("the Laurent model requires disjoint single loops")
    cycles = exitless_cycles(g)  # one per vertex, in vertex order
    lattice = enumerate_pairs(g)
    F = polys[0].field
    zero, one = LaurentPoly.zero(F), LaurentPoly.one(F)
    polys = [p.unit_free() for p in polys]
    report = ModelReport()

    def pair_of(t) -> AdmissiblePair:
        return AdmissiblePair.of([v for v, x in zip(g.vertices, t) if x == one], ())

    def ideal_of(t) -> IdealRep:
        return make(g, pair_of(t), {c: x for c, x in zip(cycles, t) if x not in (zero, one)})

    def generators(I: IdealRep):
        comps = I.component_map()
        return tuple(one if c.vertices[0] in I.graded.h else comps.get(c, zero) for c in cycles)

    def name(t) -> str:
        return "<" + ", ".join(map(str, t)) + ">"

    tuples = [
        t for t in itertools.product([zero, one] + polys, repeat=len(cycles))
        if any(x not in (zero, one) for x in t)
    ]
    for t in tuples:
        I = ideal_of(t)
        entries = [x for x in t if x != one]
        prime = len(entries) == 1 and is_irreducible(entries[0])
        report.expect(f"graded_part {name(t)}", graded_part(I), pair_of(t))
        report.expect(
            f"limit_power {name(t)}",
            generators(limit_power(g, I)),
            tuple(x if x == one else zero for x in t),
        )
        report.expect(f"is_prime {name(t)}", is_prime(g, lattice, I).prime, prime)
        report.expect(f"is_maximal {name(t)}", is_maximal(g, lattice, I), prime)
        for n in (2, 3):
            want = tuple((x**n).unit_free() for x in t)
            report.expect(f"power {name(t)}^{n}", generators(power(g, I, n)), want)
        iop = intersection_of_primes(g, lattice, I)
        core = tuple(x if x in (zero, one) else squarefree_core(x) for x in t)
        report.expect(f"prime intersection over {name(t)}", generators(iop.result), core)
        report.expect(f"prime intersection equals {name(t)}", iop.equals_input, core == t)
        report.expect(f"zero ideal inside {name(t)}", contains(g, I, zero_ideal()), True)
        for u in tuples:
            J = ideal_of(u)
            report.expect(
                f"contains {name(t)} >= {name(u)}", contains(g, I, J), all(map(divides, t, u))
            )
            report.expect(
                f"intersect {name(t)} & {name(u)}",
                generators(intersect(g, I, J)),
                tuple(map(poly_lcm, t, u)),
            )
            report.expect(
                f"product {name(t)} * {name(u)}",
                generators(product(g, I, J)),
                tuple((x * y).unit_free() for x, y in zip(t, u)),
            )
    return report


@dataclass
class SinkLatticeReport:
    ok: bool
    sink_count: int
    hs_count: int
    message: str = ""


def acyclic_sink_lattice(g: Graph) -> SinkLatticeReport:
    """Verify the sink-powerset description of the lattice of a finite DAG.

    For row-finite acyclic graphs, T -> {v : every sink reachable from v is
    in T} should be an inclusion-preserving bijection from sink subsets onto
    the hereditary saturated sets.  The premise is checked against
    :func:`enumerate_hs`, not assumed; failures are reported loudly (infinite
    emitters do break it).
    """
    order = list(g.vertices)
    reach_sinks = {}

    def sinks_from(v, seen):
        if v in reach_sinks:
            return reach_sinks[v]
        if v in seen:
            raise GraphError("cyclic input: the sink-powerset oracle needs a DAG")
        seen = seen | {v}
        succ = g.successors(v)
        if not succ:
            out = frozenset([v])
        else:
            out = frozenset()
            for w in succ:
                out |= sinks_from(w, seen)
        reach_sinks[v] = out
        return out

    for v in order:
        sinks_from(v, frozenset())
    sinks = sorted(v for v in order if not g.successors(v))
    subsets = []
    for mask in range(1 << len(sinks)):
        T = frozenset(sinks[i] for i in range(len(sinks)) if mask >> i & 1)
        subsets.append(T)
    image = {T: frozenset(v for v in order if reach_sinks[v] <= T) for T in subsets}
    engine = set(enumerate_hs(g))
    if set(image.values()) != engine or len(set(image.values())) != len(subsets):
        return SinkLatticeReport(
            False,
            len(sinks),
            len(engine),
            "sink subsets do not biject onto the hereditary saturated sets",
        )
    for T1 in subsets:
        for T2 in subsets:
            if (T1 <= T2) != (image[T1] <= image[T2]):
                return SinkLatticeReport(
                    False, len(sinks), len(engine), "the bijection does not preserve inclusion"
                )
    return SinkLatticeReport(True, len(sinks), len(engine))
