"""Hereditary saturated sets, admissible pairs, and the graded-ideal lattice.

An admissible pair ``(H, S)`` is a hereditary saturated vertex set H together
with a set S of breaking vertices of H; it names the graded ideal generated
by H and the elements ``v - sum(e e* : s(e)=v, r(e) not in H)`` for v in S.
The pairs are ordered by ``(H1,S1) <= (H2,S2) iff H1 <= H2 and S1 <= H2|S2``
and form a finite distributive lattice.  Vertex sets are handled as int
bitmasks, the hereditary saturated sets are listed by Ganter's NextClosure,
and meets and joins come from closed forms.

Everything else about the order is read from Birkhoff's representation
(Davey & Priestley, *Introduction to Lattices and Order*, ch. 5), kept once
per lattice: the join-irreducible pairs J, each pair's down-set D(p) in J,
and the table from down-sets to pairs.  A pair's upper covers add one
minimal member of J outside D(p); the graded primes are the
meet-irreducibles m(j), whose down-sets are J minus the members above j;
the coatoms are the m(j) for maximal j; the lattice is a chain iff J is.

Per-pair quotient facts (downward directedness and exitless cycles) are read
off the pair's masks, from the terminal strongly connected components of
E \\ H (found once per H); the quotient graph itself is built only when it
is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import InternalInconsistencyError, LatticeError
from .graphs import Cycle, Graph, VertexClass, classify, is_finite

VertexSet = frozenset


def _bits(g: Graph):
    """``(index, succ, regular, emitters)`` for g, computed once and kept on it.

    Vertex i of ``g.vertices`` is bit ``1 << i`` and ``index[v] == i``;
    ``succ[i]`` is the mask of vertex i's successors, ``regular`` lists the i
    of the regular vertices, and ``emitters`` holds ``(i, omega, succ[i])``
    for each infinite emitter i, ``omega`` being the mask of the targets of
    its infinite bundles.  Reach masks are kept apart (:func:`_reach`), as
    only closures and quotients need them.
    """
    if g._bits is None:
        index = {v: i for i, v in enumerate(g.vertices)}

        def mask(ws):  # the bits are distinct, so the sum is a union
            return sum(1 << index[w] for w in ws)

        succ = tuple(mask(g.successors(v)) for v in g.vertices)
        kinds = [classify(g, v) for v in g.vertices]
        g._bits = (
            index,
            succ,
            tuple(i for i, k in enumerate(kinds) if k == VertexClass.REGULAR),
            tuple(
                (i, mask(w for w, m in g.out_bundles(v) if not is_finite(m)), succ[i])
                for i, v in enumerate(g.vertices)
                if kinds[i] == VertexClass.INFINITE_EMITTER
            ),
        )
    return g._bits


def _reach(g: Graph) -> Tuple[int, ...]:
    """``reach[i]``, the mask of what vertex i reaches, itself included.

    Built when a closure or a quotient first needs it, and kept on g.
    """
    if g._reach_masks is None:
        succ = _bits(g)[1]
        g._reach_masks = tuple(_reach_mask(succ, i) for i in range(len(succ)))
    return g._reach_masks


def _ones(m: int) -> Iterator[int]:
    """The set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _reach_mask(succ: Tuple[int, ...], i: int) -> int:
    """Mask of the vertices reachable from vertex i, itself included: BFS over successor masks."""
    seen = frontier = 1 << i
    while frontier:
        step = 0
        for j in _ones(frontier):
            step |= succ[j]
        frontier = step & ~seen
        seen |= frontier
    return seen


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

    One pass ORs in what the vertices of m reach, skipping those already
    reached; then every regular vertex whose edges all end inside is added
    until none is left.  Such a vertex keeps the set hereditary, so no
    second reach pass is needed.  Infinite emitters are never forced in by
    saturation.
    """
    _, succ, regular, _ = _bits(g)
    reach = _reach(g)
    h = 0
    while m:
        h |= reach[(m & -m).bit_length() - 1]
        m &= ~h
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


def _hs_masks(g: Graph) -> List[int]:
    """The masks of all hereditary saturated sets, in lectic order.

    Ganter's NextClosure, one closure per candidate: the next set after A is
    the first closure of (A below i) + i, for i from the last vertex down,
    that adds nothing below i.
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
            return found


def enumerate_hs(g: Graph) -> List[VertexSet]:
    """All hereditary saturated subsets, sorted by their sorted vertex tuple.

    The family comes from :func:`_hs_masks`; the oracle suite checks it
    against the brute-force filter over all subsets.
    """
    return sorted((_names(g, m) for m in _hs_masks(g)), key=_vkey)


def _breaking_mask(g: Graph, h: int) -> int:
    """Mask of the breaking vertices of the hereditary saturated mask h.

    An infinite emitter outside h breaks h when every infinite bundle it emits
    ends in h and at least one (finite) bundle leaves h.
    """
    out = 0
    for i, omega, succ in _bits(g)[3]:
        if not h >> i & 1 and not omega & ~h and succ & ~h:
            out |= 1 << i
    return out


def _is_hs(g: Graph, m: int) -> bool:
    """Whether the vertex mask m is hereditary saturated, read off successor masks.

    Hereditary: no vertex of m has a successor outside.  Saturated: no
    regular vertex outside m has all its successors inside.
    """
    _, succ, regular, _ = _bits(g)
    return not any(succ[i] & ~m for i in _ones(m)) and all(
        m >> i & 1 or succ[i] & ~m for i in regular
    )


def breaking_vertices(g: Graph, H: Iterable[str]) -> VertexSet:
    """Infinite emitters outside H with finitely many (>=1) edges into E0\\H.

    Memoized on the graph per hereditary saturated set.
    """
    hset = frozenset(H)
    hit = g._breaking.get(hset)
    if hit is not None:
        return hit
    mask = _mask(g, hset)
    if not _is_hs(g, mask):
        raise LatticeError(f"{sorted(hset)} is not hereditary saturated")
    hit = g._breaking[hset] = _names(g, _breaking_mask(g, mask))
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

    Graded ideals multiply as they intersect, so the lattice is distributive,
    and Birkhoff's representation describes it: each pair p is determined by
    D(p), the join-irreducible pairs J below it (see ``_birkhoff``).  The
    upper covers, the graded primes (the meet-irreducibles m(j)), the
    maximal graded ideals and the chain and antichain tests are all read
    from J and the table from down-sets to pairs, never from a scan over
    pairs.  Meets and joins are closed forms on masks (:func:`_meet_masks`
    and :func:`_normalize`), memoized per lattice.  The vertex masks ``(h, s)``
    of every pair are kept by pair index, and the per-pair quotient facts
    are read off them (:meth:`quotient_facts`).
    """

    def __init__(
        self,
        graph: Graph,
        pairs: List[AdmissiblePair],
        masks: Optional[List[Tuple[int, int]]] = None,
    ):
        """``masks``, when given, holds the ``(h, s)`` masks of ``pairs``, in the same order."""
        self.graph = graph
        if masks is None:
            masks = [(_mask(graph, p.h), _mask(graph, p.s)) for p in pairs]
        # the dataclass order, on plain tuples
        order = sorted(range(len(pairs)), key=lambda i: (pairs[i].h, pairs[i].s))
        self.pairs = tuple(pairs[i] for i in order)
        self._masks = tuple(masks[i] for i in order)
        self._index = {p: i for i, p in enumerate(self.pairs)}
        self._at = {m: i for i, m in enumerate(self._masks)}
        self._meet: Dict[Tuple[int, int], AdmissiblePair] = {}
        self._join: Dict[Tuple[int, int], AdmissiblePair] = {}
        self._covers: Dict[int, Tuple[AdmissiblePair, ...]] = {}
        self._prime_flags: Optional[Dict[AdmissiblePair, bool]] = None  # see ideals._graded_prime_flags

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, p: AdmissiblePair):
        return p in self._index

    @property
    def bottom(self) -> AdmissiblePair:
        return self.pairs[self._index[bottom_pair()]]

    @cached_property
    def top(self) -> AdmissiblePair:
        return top_pair(self.graph)

    def index(self, p: AdmissiblePair) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise LatticeError(f"{p} is not an admissible pair of this graph") from None

    def _member(self, m: Tuple[int, int], source) -> int:
        """Index of the pair with masks m; ``source()`` names what produced m."""
        i = self._at.get(m)
        if i is None:
            raise InternalInconsistencyError(
                f"{source()} gives {self._named(m)}, which is not in the lattice"
            )
        return i

    def _named(self, m: Tuple[int, int]) -> AdmissiblePair:
        h, s = (_names(self.graph, x) for x in m)
        return AdmissiblePair.of(h, s)

    @cached_property
    def _proper(self) -> Tuple[AdmissiblePair, ...]:
        return tuple(p for p in self.pairs if p != self.top)

    def proper(self) -> Tuple[AdmissiblePair, ...]:
        return self._proper

    def _memo(self, table, a: AdmissiblePair, b: AdmissiblePair, compute) -> AdmissiblePair:
        i, j = self.index(a), self.index(b)
        key = (i, j) if i <= j else (j, i)
        if key not in table:
            table[key] = compute(i, j)
        return table[key]

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        def compute(i, j):
            m = _meet_masks(self.graph, self._masks[i], self._masks[j])
            return self.pairs[self._member(m, lambda: f"the meet of {a} and {b}")]

        return self._memo(self._meet, a, b, compute)

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        def compute(i, j):
            (h1, s1), (h2, s2) = self._masks[i], self._masks[j]
            m = _normalize(self.graph, h1 | h2, s1 | s2)
            return self.pairs[self._member(m, lambda: f"the join of {a} and {b}")]

        return self._memo(self._join, a, b, compute)

    def meet_all(self, items: Iterable[AdmissiblePair]) -> AdmissiblePair:
        """Meet of a family, folded on masks; the empty family meets to the top pair."""
        m = None
        for p in items:
            mp = self._masks[self.index(p)]
            m = mp if m is None else _meet_masks(self.graph, m, mp)
        if m is None:
            return self.top
        return self.pairs[self._member(m, lambda: "the meet of a family")]

    @cached_property
    def _birkhoff(self):
        """``(J, below, downs, table)``: Birkhoff's representation of the lattice.

        A finite distributive lattice is isomorphic to the down-sets of its
        join-irreducibles J (:func:`_join_irreducibles`; Davey & Priestley,
        *Introduction to Lattices and Order*, ch. 5).  Subsets of J are bit
        masks over its indices: ``below[j]`` holds the members strictly below
        j, ``downs[i]`` is D(p) for pair i, and ``table`` maps each down-set
        to its pair.  J[k] lies below (h, s) when its h lies in h and its s
        in h | s; the members whose h lies in h are found once per h.  A
        down-set held by two pairs is an internal inconsistency.
        """
        J = _join_irreducibles(self.graph)
        below = tuple(
            sum(1 << k for k, (hk, sk) in enumerate(J) if k != j and not hk & ~h and not sk & ~(h | s))
            for j, (h, s) in enumerate(J)
        )
        downs, table, per_h = [], {}, {}
        for i, (h, s) in enumerate(self._masks):
            hit = per_h.get(h)
            if hit is None:
                base, rest = 0, []
                for k, (hk, sk) in enumerate(J):
                    if not hk & ~h:
                        if sk & ~h:
                            rest.append((1 << k, sk))
                        else:
                            base |= 1 << k
                hit = per_h[h] = (base, rest)
            d, rest = hit
            for bit, sk in rest:
                if not sk & ~s:
                    d |= bit
            if table.setdefault(d, i) != i:
                raise InternalInconsistencyError(
                    f"{self.pairs[table[d]]} and {self.pairs[i]} lie over the same join-irreducibles"
                )
            downs.append(d)
        return J, below, tuple(downs), table

    def _with_down(self, d: int, source) -> int:
        """Index of the pair whose down-set is d; ``source()`` names the pair asked for.

        A down-set held by no pair is an internal inconsistency, reported
        with the pair it stands for: the join of its members.
        """
        i = self._birkhoff[3].get(d)
        if i is None:
            J = self._birkhoff[0]
            h = s = 0
            for k in _ones(d):
                h, s = h | J[k][0], s | J[k][1]
            named = self._named(_normalize(self.graph, h, s))
            raise InternalInconsistencyError(f"{source()} is {named}, which is not in the lattice")
        return i

    def down_set(self, p: AdmissiblePair) -> int:
        """D(p), the join-irreducibles below p, as a mask over the indices of J."""
        return self._birkhoff[2][self.index(p)]

    def upper_covers(self, p: AdmissiblePair) -> Tuple[AdmissiblePair, ...]:
        """The pairs covering p, in lattice order.

        They are the pairs with down-set D(p) + j, for each j outside D(p)
        whose lower set in J lies in D(p).  Found on first request, per pair.
        """
        i = self.index(p)
        hit = self._covers.get(i)
        if hit is None:
            J, below, downs, _ = self._birkhoff
            d = downs[i]
            found = [
                self._with_down(d | 1 << j, lambda: f"a cover of {p}")
                for j in _ones(((1 << len(J)) - 1) & ~d)
                if not below[j] & ~d
            ]
            hit = self._covers[i] = tuple(self.pairs[c] for c in sorted(found))
        return hit

    def covered_by_top(self, p: AdmissiblePair) -> bool:
        return self.upper_covers(p) == (self.top,)

    @cached_property
    def meet_irreducibles(self) -> Tuple[int, ...]:
        """The pair index of m(j) for each j of J, in J's order.

        m(j) is the pair whose down-set is J minus the members above j.  In a
        distributive lattice these are exactly the meet-irreducible, hence
        meet-prime, elements: the pairs of the graded primes.
        """
        J, below, _, _ = self._birkhoff
        full = (1 << len(J)) - 1
        out = []
        for j in range(len(J)):
            up = 1 << j
            for k, b in enumerate(below):
                if b >> j & 1:
                    up |= 1 << k
            out.append(self._with_down(
                full & ~up, lambda: f"the meet-irreducible over {self._named(J[j])}"
            ))
        return tuple(out)

    @cached_property
    def graded_primes(self) -> Tuple[AdmissiblePair, ...]:
        """The proper meet-prime pairs, the m(j), in lattice order."""
        return tuple(self.pairs[i] for i in sorted(self.meet_irreducibles))

    @cached_property
    def maximal_graded(self) -> Tuple[AdmissiblePair, ...]:
        """The pairs of the maximal graded ideals, in lattice order.

        A maximal graded ideal is a coatom whose quotient has no exitless
        cycle, so that no non-graded ideal fits above it.  The coatoms are
        the m(j) for j maximal in J.
        """
        not_maximal = 0
        for b in self._birkhoff[1]:
            not_maximal |= b
        return tuple(
            self.pairs[i]
            for i in sorted(
                i for j, i in enumerate(self.meet_irreducibles)
                if not not_maximal >> j & 1 and not self.quotient_facts(i)[1]
            )
        )

    @cached_property
    def is_chain(self) -> bool:
        """Whether the lattice is a chain: exactly when J is one."""
        below = self._birkhoff[1]
        return all(
            below[j] >> k & 1 or below[k] >> j & 1 for j in range(len(below)) for k in range(j)
        )

    @cached_property
    def is_antichain(self) -> bool:
        """Whether J is an antichain: exactly when every m(j) is a coatom."""
        return not any(self._birkhoff[1])

    def quotient_facts(self, i: int) -> Tuple[bool, Tuple[Cycle, ...]]:
        """:func:`_quotient_facts` of pair i, read off its masks."""
        return _quotient_facts(self.graph, *self._masks[i])


def _join_irreducibles(g: Graph) -> List[Tuple[int, int]]:
    """Masks (h, s) of the join-irreducible admissible pairs of g, sorted.

    Every pair (H, S) is the join of the generators below it: the least pair
    ``(close({w}), {})`` holding each vertex w of H, and for each v in S the
    least pair ``(close(omega_v), {v})`` holding v as a breaking vertex,
    omega_v being the targets of v's infinite bundles (an infinite emitter
    that does not break close(omega_v) breaks no H).  So the join-irreducibles
    are the generators that are neither the bottom nor the join of the
    generators strictly below them.
    """
    gens = {(_close(g, 1 << w), 0) for w in range(len(g.vertices))}
    for i, omega, _ in _bits(g)[3]:
        h = _close(g, omega)
        if _breaking_mask(g, h) >> i & 1:
            gens.add((h, 1 << i))
    gens.discard((0, 0))
    irreducible = []
    for h, s in gens:
        X = T = 0
        for hy, sy in gens:
            if (hy, sy) != (h, s) and not hy & ~h and not sy & ~(h | s):
                X, T = X | hy, T | sy
        if _normalize(g, X, T) != (h, s):
            irreducible.append((h, s))
    return sorted(irreducible)


def enumerate_pairs(g: Graph) -> PairLattice:
    """Every admissible pair (H, S) with H hereditary saturated, S <= B_H.

    Built from the NextClosure masks: the S of each H are the submasks of its
    breaking mask, and the names are read off ``g.vertices``, which is sorted.
    The masks go to the lattice with the pairs.
    """
    vs = g.vertices
    pairs, masks = [], []
    for h in _hs_masks(g):
        names = tuple(vs[i] for i in _ones(h))
        bh = s = _breaking_mask(g, h)
        while True:
            pairs.append(AdmissiblePair(names, tuple(vs[i] for i in _ones(s))))
            masks.append((h, s))
            if not s:
                break
            s = (s - 1) & bh
    return PairLattice(g, pairs, masks)


def _meet_masks(g: Graph, a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """Masks of the meet of the pairs with masks a and b.

    H = H1 & H2 and S = ((S1|H1) & (S2|H2)) & B_H.
    """
    (h1, s1), (h2, s2) = a, b
    h = h1 & h2
    return h, (s1 | h1) & (s2 | h2) & _breaking_mask(g, h)


def _quotient_table(g: Graph):
    """``(coreach, ones, per_h, cycles)`` for g, computed once and kept on it.

    ``coreach[i]`` is the mask of the vertices that reach vertex i, and
    ``ones[i]`` the mask of the targets of i's bundles of multiplicity 1;
    ``per_h`` memoizes :func:`_h_facts` per hereditary saturated mask and
    ``cycles`` the :class:`Cycle` on each vertex mask, so each is built once.
    """
    if g._quotient_table is None:
        index, reach = _bits(g)[0], _reach(g)
        coreach = [0] * len(reach)
        for j, r in enumerate(reach):
            for i in _ones(r):
                coreach[i] |= 1 << j
        ones = tuple(
            sum(1 << index[w] for w, m in g.out_bundles(v) if m == 1) for v in g.vertices
        )
        g._quotient_table = (tuple(coreach), ones, {}, {})
    return g._quotient_table


def _h_facts(g: Graph, h: int):
    """``(terminals, cycles, breaking)`` of E \\ H for the hereditary saturated mask h.

    ``terminals`` are the masks of the terminal strongly connected components
    of E \\ H.  As H is hereditary, u outside H reaches within E \\ H what it
    reaches in E outside H, and whatever reaches u lies outside H; so u is in
    a terminal component iff everything it reaches outside H reaches u back.
    ``cycles`` pairs the mask and :class:`Cycle` of each exitless cycle of
    E \\ H, in canonical order: these are the terminal components in which
    every vertex has exactly one edge, of multiplicity 1, outside H.
    ``breaking`` is :func:`_breaking_mask` of h.
    """
    coreach, ones, per_h, made = _quotient_table(g)
    facts = per_h.get(h)
    if facts is None:
        succ, reach = _bits(g)[1], _reach(g)

        def single(out, ones_j):  # one edge, of multiplicity 1
            return out and not out & (out - 1) and not out & ~ones_j

        terminals, cycles, seen = [], [], h
        for i in range(len(reach)):
            if seen >> i & 1 or reach[i] & ~h & ~coreach[i]:
                continue
            comp = reach[i] & coreach[i]
            seen |= comp
            terminals.append(comp)
            if all(single(succ[j] & ~h, ones[j]) for j in _ones(comp)):
                cycle = made.get(comp)
                if cycle is None:
                    walk, j = [], i
                    while not walk or j != i:
                        walk.append(g.vertices[j])
                        j = (succ[j] & comp).bit_length() - 1
                    cycle = made[comp] = Cycle.from_vertices(walk)
                cycles.append((comp, cycle))
        cycles.sort(key=lambda mc: mc[1])
        facts = per_h[h] = (tuple(terminals), tuple(cycles), _breaking_mask(g, h))
    return facts


class QuotientGraph:
    """Quotient of a graph by an admissible pair.

    ``directed`` (whether the vertex set is downward directed) and
    ``exitless`` (the exitless cycles, in canonical order) are read off vertex
    masks when the quotient is made; ``graph`` and ``provenance`` are built on
    first use.  ``provenance`` maps each quotient vertex to ``(original,
    primed)``; primed vertices are added for breaking vertices left out of S
    and are sinks.  A quotient keeps the parent's vertices and bundles, never
    the parent :class:`Graph`, which memoizes its quotients.
    """

    def __init__(self, directed: bool, exitless: Tuple[Cycle, ...], source):
        self.directed = directed
        self.exitless = exitless
        self._source = source  # (vertices, bundles, and the masks of H and of B_H \ S)

    @cached_property
    def _built(self) -> Tuple[Graph, Dict[str, Tuple[str, bool]]]:
        vertices, parent_bundles, h, d = self._source
        hset = {v for i, v in enumerate(vertices) if h >> i & 1}
        survivors = [v for v in vertices if v not in hset]
        primed_of = {}
        taken = set(survivors)
        for i in _ones(d):
            v = vertices[i]
            name = _primed_name(v, taken)
            primed_of[v] = name
            taken.add(name)
        bundles = {}
        for (src, dst), mult in parent_bundles.items():
            if dst in hset:
                continue
            if src in hset:
                raise InternalInconsistencyError("hereditary set emits into its complement")
            bundles[(src, dst)] = mult
            if dst in primed_of:
                bundles[(src, primed_of[dst])] = mult
        provenance = {v: (v, False) for v in survivors}
        provenance.update({name: (v, True) for v, name in primed_of.items()})
        return Graph(sorted(taken), bundles), provenance

    @property
    def graph(self) -> Graph:
        return self._built[0]

    @property
    def provenance(self) -> Dict[str, Tuple[str, bool]]:
        return self._built[1]

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
    on the graph per pair; its directedness and exitless cycles come from
    :func:`_quotient_facts`.
    """
    hit = g._quotients.get(p)
    if hit is None:
        if not p.s_set <= breaking_vertices(g, p.h_set):
            raise LatticeError(f"invalid pair {p} for this graph")
        h, s = _mask(g, p.h), _mask(g, p.s)
        directed, exitless = _quotient_facts(g, h, s)
        d = _breaking_mask(g, h) & ~s
        hit = g._quotients[p] = QuotientGraph(directed, exitless, (g.vertices, g.bundles, h, d))
    return hit


def _quotient_facts(g: Graph, h: int, s: int) -> Tuple[bool, Tuple[Cycle, ...]]:
    """``(directed, exitless)`` of the quotient by the admissible pair with masks (h, s).

    With D the breaking vertices outside S, the terminal strongly connected
    components of the quotient are the primed sinks and the terminal
    components of E \\ H that miss D (one that meets D has an edge to a
    primed sink); the vertex set is downward directed iff there is at most
    one.  Its exitless cycles are those of E \\ H that miss D, since a
    predecessor of a vertex of D gains the edge to the primed copy.  No
    quotient graph is built.
    """
    terminals, cycles, breaking = _h_facts(g, h)
    d = breaking & ~s
    directed = sum(1 for t in terminals if not t & d) + d.bit_count() <= 1
    return directed, tuple(c for m, c in cycles if not m & d)


def _avoiding(g: Graph, i: int) -> int:
    """Mask of the vertices that do not reach vertex i.

    It is hereditary, and saturated when i lies on a cycle: a regular vertex
    whose successors all miss i misses it too, unless it is i itself, whose
    successor on the cycle reaches i.
    """
    return ((1 << len(g.vertices)) - 1) & ~_quotient_table(g)[0][i]


def _normalize(g: Graph, X: int, T: int) -> Tuple[int, int]:
    """Masks (h, s) of the least admissible pair over the generator masks X and T.

    X is closed hereditarily and saturatedly; any v in T all of whose
    out-edges end inside h collapses into h (its v^H plus the removed part
    reassembles v), and this promotion is iterated to a fixpoint.  The final
    s is T & B_h.
    """
    succ = _bits(g)[1]
    h = _close(g, X)
    todo = list(_ones(T))
    changed = True
    while changed:
        changed = False
        for i in todo:
            if not h >> i & 1 and not succ[i] & ~h:
                h = _close(g, h | 1 << i)
                changed = True
    return h, T & _breaking_mask(g, h)


def normalize_generators(g: Graph, X: Iterable[str], T: Iterable[str]) -> AdmissiblePair:
    """Least admissible pair whose ideal contains X and the v^H for v in T.

    T must consist of infinite emitters; see :func:`_normalize`.
    """
    T = list(T)
    for v in T:
        g._check(v)
        if is_finite(g.total_out(v)):
            raise LatticeError(f"{v!r} is not an infinite emitter")
    h, s = _normalize(g, _mask(g, X), _mask(g, T))
    return AdmissiblePair.of(_names(g, h), _names(g, s))
