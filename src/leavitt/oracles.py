"""Independent brute-force references used to validate the main engine.

None of these share traversal or arithmetic code paths with the modules they
check: hereditary saturated sets are filtered definitionally over all vertex
subsets, the pair order is searched as a full bit matrix, closed simple
paths are counted by depth-first search, the single-loop graph is replayed
against direct Laurent-ring ideal arithmetic, and the acyclic sink-powerset
premise is verified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .errors import GraphError, InternalInconsistencyError
from .graphs import Graph, exitless_cycles, is_finite, reaches
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
    zero_ideal,
)
from .lattice import AdmissiblePair, PairLattice, bottom_pair, enumerate_hs, enumerate_pairs
from .laurent import LaurentPoly, divides, is_irreducible, poly_lcm, squarefree_core
from .theorems import intersection_of_primes


def brute_hs(g: Graph) -> List[frozenset]:
    """All hereditary saturated subsets by filtering every vertex subset.

    Checks the two defining conditions edge by edge; limited to 12 vertices.
    """
    vs = g.vertices
    if len(vs) > 12:
        raise GraphError(f"{len(vs)} vertices is beyond the brute-force bound of 12")
    out = []
    for mask in range(1 << len(vs)):
        H = {vs[i] for i in range(len(vs)) if mask >> i & 1}
        hereditary = True
        for (src, dst) in g.bundles:
            if src in H and dst not in H:
                hereditary = False
                break
        if not hereditary:
            continue
        saturated = True
        for v in vs:
            if v in H:
                continue
            targets = [dst for (src, dst) in g.bundles if src == v]
            total = sum((m for (src, _), m in g.bundles.items() if src == v), 0)
            if targets and is_finite(total) and all(t in H for t in targets):
                saturated = False
                break
        if saturated:
            out.append(frozenset(H))
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

    def prime_flags(self) -> Dict[AdmissiblePair, bool]:
        """Meet-primeness by definition: meet(A, B) <= I forces A <= I or B <= I."""
        not_prime = 0
        for i, a in enumerate(self.pairs):
            for b in self.pairs[i:]:
                m = self._extremum(a, b, self._low, "meet")
                not_prime |= self._up[m] & ~self._up[i] & ~self._up[self._index[b]]
        return {p: not (not_prime >> i & 1) for i, p in enumerate(self.pairs)}


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


def _single_loop_cycle(g: Graph):
    cycles = exitless_cycles(g)
    if len(g.vertices) != 1 or len(cycles) != 1 or len(cycles[0]) != 1:
        raise GraphError("the Laurent model requires the single-vertex single-loop graph")
    return cycles[0]


def laurent_model(g: Graph, polys: Sequence[LaurentPoly]) -> ModelReport:
    """Replay the ideal operations on the single-loop graph against K[x, 1/x].

    Proper nonzero ideals correspond to canonical polynomial generators;
    containment is divisibility, intersection is lcm, product is
    multiplication, and the prime/maximal ideals are the irreducible
    generators.  Every mismatch is recorded.
    """
    cyc = _single_loop_cycle(g)
    lattice = enumerate_pairs(g)
    bottom = bottom_pair()
    report = ModelReport()

    def ideal_of(p: LaurentPoly) -> IdealRep:
        return make(g, bottom, {cyc: p})

    def generator(I: IdealRep) -> LaurentPoly:
        if I.components:
            return I.components[0][1]
        if I.graded == bottom:
            return LaurentPoly.zero(polys[0].field)
        return LaurentPoly.one(polys[0].field)

    for p in polys:
        p = p.unit_free()
        I = ideal_of(p)
        report.expect(f"graded_part <{p}>", graded_part(I), bottom)
        report.expect(f"limit_power <{p}>", generator(limit_power(g, I)).is_zero, True)
        report.expect(f"is_prime <{p}>", is_prime(g, lattice, I).prime, is_irreducible(p))
        report.expect(f"is_maximal <{p}>", is_maximal(g, lattice, I), is_irreducible(p))
        for n in (2, 3):
            report.expect(f"power <{p}>^{n}", generator(power(g, I, n)), (p**n).unit_free())
        iop = intersection_of_primes(g, lattice, I)
        core = squarefree_core(p)
        report.expect(f"prime intersection over <{p}>", generator(iop.result), core)
        report.expect(f"prime intersection equals <{p}>", iop.equals_input, core == p)
        report.expect(f"zero ideal inside <{p}>", contains(g, I, zero_ideal()), True)
        for q in polys:
            q = q.unit_free()
            J = ideal_of(q)
            report.expect(f"contains <{p}> >= <{q}>", contains(g, I, J), divides(p, q))
            report.expect(
                f"intersect <{p}> & <{q}>", generator(intersect(g, I, J)), poly_lcm(p, q)
            )
            report.expect(
                f"product <{p}> * <{q}>", generator(product(g, I, J)), (p * q).unit_free()
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
