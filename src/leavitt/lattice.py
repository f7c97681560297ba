"""Hereditary saturated sets, admissible pairs, and the graded-ideal lattice.

An admissible pair ``(H, S)`` is a hereditary saturated vertex set H together
with a set S of breaking vertices of H; it names the graded ideal generated
by H and the elements ``v - sum(e e* : s(e)=v, r(e) not in H)`` for v in S.
The pairs are ordered by ``(H1,S1) <= (H2,S2) iff H1 <= H2 and S1 <= H2|S2``
and form a finite distributive lattice.  Vertex sets are handled as int
bitmasks, the hereditary saturated sets are listed by Ganter's NextClosure,
meets and joins come from closed forms and the order is read through upper
covers.  Quotient graphs are memoized on the graph per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import InternalInconsistencyError, LatticeError
from .graphs import (
    Graph, VertexClass, classify, downward_directed, exitless_cycles, is_finite, reachable_from,
)

VertexSet = frozenset


def _bits(g: Graph):
    """``(index, reach, succ, regular)`` for g, computed once and kept on it.

    Vertex i of ``g.vertices`` is bit ``1 << i`` and ``index[v] == i``;
    ``reach[i]`` and ``succ[i]`` are the masks of what vertex i reaches and of
    its successors, and ``regular`` lists the i of the regular vertices.
    """
    if g._bits is None:
        index = {v: i for i, v in enumerate(g.vertices)}
        g._bits = (  # the bits are distinct, so each sum is a union
            index,
            tuple(sum(1 << index[w] for w in reachable_from(g, v)) for v in g.vertices),
            tuple(sum(1 << index[w] for w in g.successors(v)) for v in g.vertices),
            tuple(i for i, v in enumerate(g.vertices) if classify(g, v) == VertexClass.REGULAR),
        )
    return g._bits


def _mask(g: Graph, X: Iterable[str]) -> int:
    index = _bits(g)[0]
    m = 0
    for v in X:
        g._check(v)
        m |= 1 << index[v]
    return m


def _names(g: Graph, m: int) -> VertexSet:
    return frozenset(v for i, v in enumerate(g.vertices) if m >> i & 1)


def _close(g: Graph, m: int) -> int:
    """Least hereditary saturated superset of the vertex mask m.

    One pass ORs in what m reaches; then every regular vertex whose edges all
    end inside is added until none is left.  Such a vertex keeps the set
    hereditary, so no second reach pass is needed.  Infinite emitters are
    never forced in by saturation.
    """
    _, reach, succ, regular = _bits(g)
    h = 0
    for i, r in enumerate(reach):
        if m >> i & 1:
            h |= r
    grew = True
    while grew:
        grew = False
        for i in regular:
            if not h >> i & 1 and not succ[i] & ~h:
                h |= 1 << i
                grew = True
    return h


def hereditary_saturated_closure(g: Graph, X: Iterable[str]) -> VertexSet:
    """Least hereditary saturated superset of X."""
    return _names(g, _close(g, _mask(g, X)))


def _vkey(s: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(s))


def enumerate_hs(g: Graph) -> List[VertexSet]:
    """All hereditary saturated subsets, sorted by their sorted vertex tuple.

    Ganter's NextClosure, one closure per candidate: the next set after A is
    the first closure of (A below i) + i, for i from the last vertex down,
    that adds nothing below i.  The oracle suite checks the family against
    the brute-force filter over all subsets.
    """
    n = len(g.vertices)
    A = _close(g, 0)
    found = [A]
    while True:
        for i in reversed(range(n)):
            bit = 1 << i
            if A & bit:
                continue
            below = bit - 1
            B = _close(g, (A & below) | bit)
            if B & below == A & below:
                A = B
                found.append(B)
                break
        else:
            return sorted((_names(g, m) for m in found), key=_vkey)


def breaking_vertices(g: Graph, H: Iterable[str]) -> VertexSet:
    """Infinite emitters outside H with finitely many (>=1) edges into E0\\H.

    Memoized on the graph per hereditary saturated set.
    """
    hset = frozenset(H)
    hit = g._breaking.get(hset)
    if hit is not None:
        return hit
    mask = _mask(g, hset)
    if _close(g, mask) != mask:
        raise LatticeError(f"{sorted(hset)} is not hereditary saturated")
    result = set()
    for v in g.vertices:
        if v in hset:
            continue
        if is_finite(g.total_out(v)):
            continue
        into_complement = sum((m for w, m in g.out_bundles(v) if w not in hset), 0)
        if is_finite(into_complement) and into_complement > 0:
            result.add(v)
    hit = g._breaking[hset] = frozenset(result)
    return hit


@dataclass(frozen=True, order=True)
class AdmissiblePair:
    """Canonical (H, S): both parts stored as sorted tuples."""

    h: Tuple[str, ...]
    s: Tuple[str, ...]

    @classmethod
    def of(cls, H: Iterable[str], S: Iterable[str]) -> "AdmissiblePair":
        return cls(_vkey(H), _vkey(S))

    @cached_property
    def h_set(self) -> VertexSet:
        return frozenset(self.h)

    @cached_property
    def s_set(self) -> VertexSet:
        return frozenset(self.s)

    def le(self, other: "AdmissiblePair") -> bool:
        return self.h_set <= other.h_set and self.s_set <= (other.h_set | other.s_set)

    def label(self) -> str:
        return "({%s}, {%s})" % (",".join(self.h), ",".join(self.s))

    def __repr__(self):
        return self.label()


def admissible_pair(g: Graph, H: Iterable[str], S: Iterable[str]) -> AdmissiblePair:
    """Validated admissible pair for g."""
    hset = frozenset(H)
    sset = frozenset(S)
    bh = breaking_vertices(g, hset)
    if not sset <= bh:
        raise LatticeError(f"S={sorted(sset)} is not a subset of B_H={sorted(bh)}")
    return AdmissiblePair.of(hset, sset)


def bottom_pair() -> AdmissiblePair:
    return AdmissiblePair((), ())


def top_pair(g: Graph) -> AdmissiblePair:
    return AdmissiblePair(tuple(g.vertices), ())


class PairLattice:
    """The finite lattice of all admissible pairs of a graph.

    Graded ideals multiply as they intersect, so the lattice is distributive.
    Meets and joins are closed forms (:func:`closed_form_meet` and
    :func:`normalize_generators`), and the order is read through upper
    covers; all three are memoized per lattice.
    """

    def __init__(self, graph: Graph, pairs: List[AdmissiblePair]):
        self.graph = graph
        self.pairs = tuple(sorted(pairs))
        self._index = {p: i for i, p in enumerate(self.pairs)}
        self._meet: Dict[Tuple[int, int], AdmissiblePair] = {}
        self._join: Dict[Tuple[int, int], AdmissiblePair] = {}
        self._covers: Dict[AdmissiblePair, Tuple[AdmissiblePair, ...]] = {}
        self.cache: Dict[str, object] = {}

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, p: AdmissiblePair):
        return p in self._index

    @property
    def bottom(self) -> AdmissiblePair:
        return self.pairs[self._index[bottom_pair()]]

    @property
    def top(self) -> AdmissiblePair:
        return top_pair(self.graph)

    @property
    def hs_sets(self) -> List[VertexSet]:
        """The hereditary saturated sets in :func:`enumerate_hs` order: the H of each (H, {})."""
        return [p.h_set for p in self.pairs if not p.s]

    def index(self, p: AdmissiblePair) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise LatticeError(f"{p} is not an admissible pair of this graph") from None

    def proper(self) -> List[AdmissiblePair]:
        t = self.top
        return [p for p in self.pairs if p != t]

    def _memo(self, table, a: AdmissiblePair, b: AdmissiblePair, compute) -> AdmissiblePair:
        i, j = self.index(a), self.index(b)
        key = (i, j) if i <= j else (j, i)
        if key not in table:
            table[key] = self.pairs[self.index(compute())]
        return table[key]

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self._memo(self._meet, a, b, lambda: closed_form_meet(self.graph, a, b))

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self._memo(
            self._join, a, b,
            lambda: normalize_generators(self.graph, a.h_set | b.h_set, a.s_set | b.s_set),
        )

    def meet_all(self, items: Iterable[AdmissiblePair]) -> AdmissiblePair:
        """Meet of a family; the empty family meets to the top pair."""
        out: Optional[AdmissiblePair] = None
        for p in items:
            out = p if out is None else self.meet(out, p)
        return self.top if out is None else out

    def upper_covers(self, p: AdmissiblePair) -> Tuple[AdmissiblePair, ...]:
        """The pairs covering p, in lattice order.

        A cover q of p is the join of p with any generator of q not below p:
        a vertex w outside H, or a breaking vertex v of H outside S.  So the
        covers are the minimal elements among those joins.
        """
        if p not in self._covers:
            self.index(p)
            g, H = self.graph, p.h_set
            cands = {normalize_generators(g, H | {w}, p.s) for w in g.vertices if w not in H}
            cands.update(
                AdmissiblePair.of(H, p.s_set | {v}) for v in breaking_vertices(g, H) - p.s_set
            )
            minimal = (q for q in cands if not any(r != q and r.le(q) for r in cands))
            self._covers[p] = tuple(sorted(minimal))
        return self._covers[p]

    def covered_by_top(self, p: AdmissiblePair) -> bool:
        return self.upper_covers(p) == (self.top,)


def enumerate_pairs(g: Graph) -> PairLattice:
    """Every admissible pair (H, S) with H hereditary saturated, S <= B_H."""
    pairs = []
    for H in enumerate_hs(g):
        bh = _vkey(breaking_vertices(g, H))
        for S in chain.from_iterable(combinations(bh, r) for r in range(len(bh) + 1)):
            pairs.append(AdmissiblePair.of(H, S))
    return PairLattice(g, pairs)


def closed_form_meet(g: Graph, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
    """Meet of two pairs: H = H1 & H2, S = ((S1|H1) & (S2|H2)) & B_H.

    Computing B_H re-checks that H is hereditary saturated, S <= B_H holds by
    construction, and the result is checked to lie below both arguments.
    """
    H = a.h_set & b.h_set
    S = ((a.s_set | a.h_set) & (b.s_set | b.h_set)) & breaking_vertices(g, H)
    out = AdmissiblePair.of(H, S)
    if not (out.le(a) and out.le(b)):
        raise InternalInconsistencyError(f"meet of {a} and {b} is not a lower bound")
    return out


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by an admissible pair.

    ``provenance`` maps each quotient vertex to ``(original, primed)``; primed
    vertices are added for breaking vertices left out of S and are sinks.
    """

    graph: Graph
    provenance: Dict[str, Tuple[str, bool]] = field(default_factory=dict)

    @cached_property
    def exitless(self) -> Tuple:
        """The exitless cycles of the quotient graph, in canonical order."""
        return tuple(exitless_cycles(self.graph))

    @cached_property
    def directed(self) -> bool:
        """Whether the quotient's vertex set is downward directed."""
        return downward_directed(self.graph, self.graph.vertices).holds

    def primed_vertices(self) -> List[str]:
        return sorted(v for v, (_, primed) in self.provenance.items() if primed)


def _primed_name(v: str, taken) -> str:
    name = v + "'"
    while name in taken:
        name += "'"
    return name


def quotient(g: Graph, p: AdmissiblePair) -> QuotientGraph:
    """The quotient graph E \\ (H, S).

    Vertices are (E0 \\ H) plus a primed sink v' for each breaking vertex v
    outside S; bundles with target outside H survive, and each bundle into a
    breaking vertex outside S is duplicated onto its primed sink.  Memoized
    on the graph per pair.
    """
    hit = g._quotients.get(p)
    if hit is not None:
        return hit
    hset, sset = p.h_set, p.s_set
    bh = breaking_vertices(g, hset)
    if not sset <= bh:
        raise LatticeError(f"invalid pair {p} for this graph")
    survivors = [v for v in g.vertices if v not in hset]
    primed_of = {}
    taken = set(survivors)
    for v in sorted(bh - sset):
        name = _primed_name(v, taken)
        primed_of[v] = name
        taken.add(name)
    bundles = {}
    for (src, dst), mult in g.bundles.items():
        if dst in hset:
            continue
        if src in hset:
            raise InternalInconsistencyError("hereditary set emits into its complement")
        bundles[(src, dst)] = mult
        if dst in primed_of:
            bundles[(src, primed_of[dst])] = mult
    provenance = {v: (v, False) for v in survivors}
    provenance.update({name: (v, True) for v, name in primed_of.items()})
    hit = g._quotients[p] = QuotientGraph(Graph(sorted(taken), bundles), provenance)
    return hit


def normalize_generators(g: Graph, X: Iterable[str], T: Iterable[str]) -> AdmissiblePair:
    """Least admissible pair whose ideal contains X and the v^H for v in T.

    The vertices of X are closed hereditarily and saturatedly; any v in T all
    of whose remaining out-edges end inside H collapses into H (its v^H plus
    the removed part reassembles v), and this promotion is iterated to a
    fixpoint.  The final S is T & B_H.
    """
    for v in T:
        g._check(v)
        if is_finite(g.total_out(v)):
            raise LatticeError(f"{v!r} is not an infinite emitter")
    index, _, succ, _ = _bits(g)
    H = _close(g, _mask(g, X))
    tset = frozenset(T)
    changed = True
    while changed:
        changed = False
        for i in sorted(index[v] for v in tset):
            if not H >> i & 1 and not succ[i] & ~H:
                H = _close(g, H | 1 << i)
                changed = True
    hset = _names(g, H)
    return AdmissiblePair.of(hset, tset & breaking_vertices(g, hset))
