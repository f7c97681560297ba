"""Finite directed multigraphs with possibly infinite parallel-edge bundles.

A graph is a finite, lexicographically ordered vertex set together with a
bundle map ``(source, target) -> multiplicity``; a multiplicity is a positive
integer or :data:`OMEGA`, the marker for an infinite bundle of parallel
edges.  Individual edges are addressed as ``(source, target, index)`` with
``index < multiplicity`` whenever a path or cycle needs them.

The module also holds the path-level decision procedures: vertex
classification, reachability, downward directedness, exitless cycles,
Condition (L) and Condition (K).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

from .errors import GraphError


class _Omega:
    """Infinite multiplicity: absorbing under addition, larger than every int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__
    __mul__ = __add__
    __rmul__ = __add__

    def __gt__(self, other):
        return not isinstance(other, _Omega)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __eq__(self, other):
        return isinstance(other, _Omega)

    def __hash__(self):
        return hash("omega")

    def __repr__(self):
        return "omega"


OMEGA = _Omega()

Multiplicity = Union[int, _Omega]


def is_finite(m: Multiplicity) -> bool:
    return not isinstance(m, _Omega)


class VertexClass(Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite_emitter"


Edge = Tuple[str, str, int]


@dataclass(frozen=True)
class Cycle:
    """A vertex-simple cycle stored in canonical rotation.

    ``edges`` is a tuple of ``(source, target, index)`` triples whose targets
    chain into the next source and close up; all sources are distinct.  The
    canonical rotation starts at the lexicographically least vertex.
    """

    edges: Tuple[Edge, ...]

    def __post_init__(self):
        edges = self.edges
        if not edges:
            raise GraphError("cycle must have length >= 1")
        n = len(edges)
        for i, (src, dst, idx) in enumerate(edges):
            if idx < 0:
                raise GraphError("negative edge index in cycle")
            if dst != edges[(i + 1) % n][0]:
                raise GraphError("cycle edges do not chain")
        sources = [e[0] for e in edges]
        if len(set(sources)) != n:
            raise GraphError("cycle passes through a vertex twice")
        lo = sources.index(min(sources))
        if lo != 0:
            object.__setattr__(self, "edges", edges[lo:] + edges[:lo])

    @classmethod
    def from_vertices(cls, vertices: Iterable[str]) -> "Cycle":
        vs = list(vertices)
        return cls(tuple((vs[i], vs[(i + 1) % len(vs)], 0) for i in range(len(vs))))

    @property
    def vertices(self) -> Tuple[str, ...]:
        return tuple(e[0] for e in self.edges)

    def __len__(self):
        return len(self.edges)

    def __lt__(self, other: "Cycle"):
        return self.edges < other.edges

    def __repr__(self):
        return "Cycle(%s)" % "->".join(self.vertices)


class Graph:
    """Immutable directed multigraph over string vertex identifiers."""

    __slots__ = (
        "vertices", "bundles", "_out", "_in", "_reach", "_breaking", "_bits", "_reach_masks",
        "_quotients", "_quotient_table", "_condition_K",
    )

    def __init__(self, vertices: Iterable[str], bundles: Mapping[Tuple[str, str], Multiplicity]):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            dup = sorted(v for v in set(vs) if vs.count(v) > 1)[0]
            raise GraphError(f"duplicate vertex id {dup!r}")
        vset = set(vs)
        clean = {}
        for (src, dst), mult in bundles.items():
            if src not in vset or dst not in vset:
                missing = src if src not in vset else dst
                raise GraphError(f"bundle endpoint {missing!r} is not a declared vertex")
            if mult == 0:
                raise GraphError(f"zero-multiplicity bundle stored at ({src!r}, {dst!r})")
            if is_finite(mult) and (not isinstance(mult, int) or mult < 0):
                raise GraphError(f"bad multiplicity {mult!r} at ({src!r}, {dst!r})")
            clean[(src, dst)] = mult
        self.vertices = tuple(sorted(vs))
        self.bundles = MappingProxyType(clean)
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        for (src, dst) in sorted(clean):
            out[src].append((dst, clean[(src, dst)]))
            inc[dst].append((src, clean[(src, dst)]))
        self._out = out
        self._in = inc
        self._reach = {}
        self._breaking = {}  # hereditary saturated set -> its breaking vertices
        self._bits = None  # vertex bitmasks, built by the lattice module on first use
        self._reach_masks = None  # per-vertex reach bitmasks, likewise
        self._quotients = {}  # admissible pair -> its quotient graph
        self._quotient_table = None  # per-graph quotient facts, built by the lattice module
        self._condition_K = None  # the Condition (K) report, decided on first use

    def __contains__(self, v: str) -> bool:
        return v in self._out

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and dict(self.bundles) == dict(other.bundles)
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.bundles.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.bundles)} bundles)"

    def out_bundles(self, v: str):
        """Sorted list of (target, multiplicity) bundles leaving v."""
        self._check(v)
        return self._out[v]

    def in_bundles(self, v: str):
        self._check(v)
        return self._in[v]

    def total_out(self, v: str) -> Multiplicity:
        return sum((m for _, m in self.out_bundles(v)), 0)

    def successors(self, v: str):
        return [w for w, _ in self.out_bundles(v)]

    def _check(self, v: str):
        if v not in self._out:
            raise GraphError(f"unknown vertex {v!r}")


def validate(g: Graph) -> None:
    """Re-check the structural invariants of an existing graph.

    The constructor already enforces them; this guards hand-built or
    deserialized objects.  Raises :class:`GraphError` on the first violation.
    """
    if len(set(g.vertices)) != len(g.vertices):
        raise GraphError("duplicate vertex id")
    vset = set(g.vertices)
    for (src, dst), mult in g.bundles.items():
        if src not in vset or dst not in vset:
            raise GraphError("bundle endpoint is not a declared vertex")
        if mult == 0:
            raise GraphError("zero-multiplicity bundle stored")


def classify(g: Graph, v: str) -> VertexClass:
    """Sink, regular vertex, or infinite emitter, by total out-multiplicity."""
    total = g.total_out(v)
    if total == 0:
        return VertexClass.SINK
    if is_finite(total):
        return VertexClass.REGULAR
    return VertexClass.INFINITE_EMITTER


def reachable_from(g: Graph, u: str) -> frozenset:
    """All vertices reachable from u, including u (length-0 path)."""
    g._check(u)
    cached = g._reach.get(u)
    if cached is not None:
        return cached
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for w in g.successors(x):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    result = frozenset(seen)
    g._reach[u] = result
    return result


def reaches(g: Graph, u: str, v: str) -> bool:
    """True iff there is a (possibly length-0) path from u to v."""
    g._check(v)
    return v in reachable_from(g, u)


class DirectednessReport(NamedTuple):
    holds: bool
    witness: Optional[Tuple[str, str]]


def downward_directed(g: Graph, D: Iterable[str]) -> DirectednessReport:
    """Whether every pair in D has a common lower bound within D.

    Paths are restricted to D: only vertices of D may be traversed.  On
    failure the lexicographically first bad pair is returned as witness.
    """
    dset = frozenset(D)
    for v in dset:
        g._check(v)
    order = sorted(dset)
    reach = {}
    for u in order:
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in g.successors(x):
                if w in dset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[u] = seen
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if not (reach[u] & reach[v]):
                return DirectednessReport(False, (u, v))
    return DirectednessReport(True, None)


def exitless_cycles(g: Graph) -> list:
    """All cycles whose every vertex has total out-multiplicity exactly 1.

    Such vertices form a partial function, so the cycles are pairwise
    vertex-disjoint; the result is sorted by canonical rotation.
    """
    nxt = {}
    for v in g.vertices:
        obs = g.out_bundles(v)
        if len(obs) == 1 and obs[0][1] == 1:
            nxt[v] = obs[0][0]
    cycles = []
    seen = set()
    for v in sorted(nxt):
        if v in seen:
            continue
        path, pos = [], {}
        u = v
        while u in nxt and u not in pos and u not in seen:
            pos[u] = len(path)
            path.append(u)
            u = nxt[u]
        if u in pos:
            cycles.append(Cycle.from_vertices(path[pos[u] :]))
        seen.update(path)
    return sorted(cycles)


class ConditionReport(NamedTuple):
    holds: bool
    witness: object


def condition_L(g: Graph) -> ConditionReport:
    """Condition (L): every cycle has an exit.

    Equivalent to the absence of exitless cycles; the witness is the first
    exitless cycle in canonical order.
    """
    cycles = exitless_cycles(g)
    if cycles:
        return ConditionReport(False, cycles[0])
    return ConditionReport(True, None)


def simple_closed_path_count(g: Graph, v: str) -> int:
    """Number of closed simple paths based at v, counted up to 2.

    A closed simple path may revisit other vertices but not its base, and
    stays in the strongly connected component C of v, so the count depends
    on C alone (:func:`_closed_path_count`).
    """
    return _closed_path_count(g, _strong_component(g, v))


def _strong_component(g: Graph, v: str) -> set:
    """The strongly connected component of v: what v reaches that reaches v back."""
    ahead = reachable_from(g, v)
    comp, stack = {v}, [v]
    while stack:
        for u, _ in g.in_bundles(stack.pop()):
            if u in ahead and u not in comp:
                comp.add(u)
                stack.append(u)
    return comp


def _closed_path_count(g: Graph, comp: set) -> int:
    """Closed simple paths based at any vertex of the strongly connected component comp, up to 2.

    If a vertex of comp has two edges into comp (two bundles, or
    multiplicity above 1), a shortest path from the base to it, either edge
    and a shortest path back give two such paths.  Otherwise comp is one
    cycle (one path) or one vertex without a loop (none).
    """
    inside = [sum((m for w, m in g.out_bundles(u) if w in comp), 0) for u in comp]
    if inside == [0]:
        return 0
    return 1 if all(m == 1 for m in inside) else 2


def condition_K(g: Graph) -> ConditionReport:
    """Condition (K): no vertex is the base of exactly one closed simple path.

    The witness is the first vertex (in lexicographic order) based at
    exactly one closed simple path.  The count is found once per strongly
    connected component, and the report once per graph.
    """
    if g._condition_K is None:
        counts = {}
        witness = None
        for v in g.vertices:
            if v not in counts:
                comp = _strong_component(g, v)
                counts.update(dict.fromkeys(comp, _closed_path_count(g, comp)))
            if counts[v] == 1:
                witness = v
                break
        g._condition_K = ConditionReport(witness is None, witness)
    return g._condition_K
