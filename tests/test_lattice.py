"""Hereditary saturated sets, admissible pairs, meets/joins and quotients."""

import random
import time

import pytest

from leavitt import lattice
from leavitt.errors import LatticeError
from leavitt.graphs import Cycle, Graph, OMEGA, downward_directed, exitless_cycles
from leavitt.lattice import (
    AdmissiblePair,
    admissible_pair,
    bottom_pair,
    breaking_vertices,
    enumerate_hs,
    enumerate_pairs,
    hereditary_saturated_closure,
    normalize_generators,
    quotient,
    top_pair,
)
from leavitt.ideals import _graded_prime_flags
from leavitt.oracles import SearchLattice, brute_hs, le

from conftest import forks, lattice_of, random_graph


def hs_sets(g):
    return [tuple(sorted(h)) for h in enumerate_hs(g)]


def test_closure(named):
    assert hereditary_saturated_closure(named["T1"], {"w"}) == {"w"}
    assert hereditary_saturated_closure(named["A3"], {"u2"}) == {"u0", "u1", "u2"}
    for g in named.values():
        assert hereditary_saturated_closure(g, ()) == frozenset()


def _acyclic_regular_graph(rng: random.Random) -> Graph:
    """A seeded graph whose regular vertices mostly lie on no cycle.

    A hidden topological order, shuffled against the sorted vertex names,
    carries chains and diamonds of finite bundles; a few vertices get a loop
    or an infinite bundle.  Saturation then adds long runs of vertices one
    after another.
    """
    n = rng.randint(6, 12)
    names = [f"x{i:02d}" for i in range(n)]
    rng.shuffle(names)
    bundles = {}
    for i in range(n - 1):
        bundles[(names[i], names[i + 1])] = 1  # the chain
        if i + 2 < n and rng.random() < 0.4:  # a diamond over i+1
            bundles[(names[i], names[i + 2])] = rng.choice([1, 2])
    for v in rng.sample(names, 2):
        bundles[(v, v) if rng.random() < 0.5 else (v, rng.choice(names))] = rng.choice([1, OMEGA])
    return Graph(names, bundles)


def test_closure_is_the_least_brute_force_hs_superset(corpus):
    rng = random.Random(20261020)
    graphs = corpus + [_acyclic_regular_graph(rng) for _ in range(60)]
    for g in graphs:
        family = brute_hs(g)
        hs = set(family)
        tests = [{v} for v in g.vertices] + [
            set(rng.sample(g.vertices, rng.randint(0, len(g.vertices)))) for _ in range(3)
        ]
        for X in tests:
            want = frozenset(g.vertices).intersection(*(H for H in family if X <= H))
            assert hereditary_saturated_closure(g, X) == want, (dict(g.bundles), X)
            assert lattice._is_hs(g, lattice._mask(g, X)) == (X in hs), (dict(g.bundles), X)


def test_enumerate_hs_small_graphs(named):
    assert hs_sets(named["T1"]) == [(), ("v", "w"), ("w",)]
    assert hs_sets(named["C2"]) == [(), ("v1",), ("v1", "v2")]
    assert hs_sets(named["L1"]) == [(), ("v",)]
    assert hs_sets(named["B1"]) == [(), ("a",), ("a", "b"), ("a", "b", "u"), ("b",)]


def test_enumerate_hs_forks_is_fast():
    # five disjoint forks: each has the 5 HS sets of B1
    k = 5
    g = forks(k)
    start = time.process_time()
    hs = enumerate_hs(g)
    assert time.process_time() - start < 1.0
    assert len(hs) == 5**k == len(set(hs))


def test_admissible_pair_is_the_tuple_h_s():
    p = AdmissiblePair.of(["b", "a", "b"], {"u"})
    assert p == AdmissiblePair(("a", "b"), ("u",)) == (("a", "b"), ("u",))
    assert p.h == ("a", "b") and p.s == ("u",)
    assert repr(p) == str(p) == p.label() == "({a,b}, {u})"
    assert repr(bottom_pair()) == "({}, {})"
    assert hash(p) == hash((p.h, p.s))
    pairs = enumerate_pairs(forks(2)).pairs
    shuffled = list(pairs)
    random.Random(3).shuffle(shuffled)
    assert tuple(sorted(shuffled)) == pairs


def test_cover_outside_the_lattice_is_an_inconsistency(named):
    from leavitt.errors import InternalInconsistencyError
    from leavitt.lattice import PairLattice

    B1 = named["B1"]
    lat = lattice_of(B1)
    dropped = AdmissiblePair.of({"a"}, ())
    kept = [i for i, p in enumerate(lat.pairs) if p != dropped]
    partial = PairLattice(B1, [lat.pairs[i] for i in kept], [lat._masks[i] for i in kept])
    with pytest.raises(InternalInconsistencyError, match=r"\(\{a\}, \{\}\)"):
        partial.upper_covers(bottom_pair())


def test_covers_and_prime_flags_match_search_lattice():
    # the corpus, forks(3) and loops(5) are compared in test_oracles
    rng = random.Random(20261019)
    for n in range(1200):
        g = _sparse_graph(rng, 8) if n % 2 else random_graph(rng, 8)
        lat = enumerate_pairs(g)
        ref = SearchLattice(lat)
        for i, p in enumerate(lat.pairs):
            want = ref.upper_covers(p)
            assert lat.upper_covers(p) == want, (dict(g.bundles), p)
            assert tuple(lat.pairs[c] for c in lat.cover_indices(i)) == want, (dict(g.bundles), p)
        assert _graded_prime_flags(g, lat) == ref.prime_flags(), dict(g.bundles)


def test_covers_make_few_normalize_calls(monkeypatch):
    # forks(4): 12 vertices and 4 infinite emitters, each breaking close(omega_v),
    # so 16 generators; every cover comes from a down-set table, not a join
    g = forks(4)
    lat = enumerate_pairs(g)
    calls = []
    normalize = lattice._normalize

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(lattice, "_normalize", counted)
    covers = [lat.upper_covers(p) for p in lat.pairs]
    assert sum(map(len, covers)) == 4 * 6**3 * 7  # each fork's six pairs have seven cover edges
    assert len(calls) <= 12 + 4 + 16


def test_breaking_vertices(named):
    B1, T1 = named["B1"], named["T1"]
    assert breaking_vertices(B1, {"a"}) == {"u"}
    assert breaking_vertices(B1, {"b"}) == frozenset()
    for H in enumerate_hs(T1):
        assert breaking_vertices(T1, H) == frozenset()
    with pytest.raises(LatticeError, match="not hereditary saturated"):
        breaking_vertices(T1, {"v"})
    A3 = named["A3"]  # u0 -> u1 -> u2
    # {u2} is hereditary but not saturated, {u0} saturated but not hereditary
    for H in ({"u2"}, {"u0"}):
        with pytest.raises(LatticeError, match="not hereditary saturated"):
            breaking_vertices(A3, H)


def test_enumerate_pairs_counts(named):
    assert len(lattice_of(named["B1"])) == 6
    assert len(lattice_of(named["T1"])) == 3
    assert len(lattice_of(named["L1"])) == 2
    b1_pairs = [(p.h, p.s) for p in lattice_of(named["B1"]).pairs]
    assert ((), ()) in b1_pairs
    assert (("a",), ("u",)) in b1_pairs
    assert (("a", "b", "u"), ()) in b1_pairs
    # T1 is a three-element chain
    t1 = lattice_of(named["T1"]).pairs
    assert all(le(a, b) or le(b, a) for a in t1 for b in t1)
    # RR is the four-element Boolean lattice
    rr = lattice_of(named["RR"]).pairs
    assert len(rr) == 4
    atoms = [p for p in rr if p.h and p != top_pair(named["RR"])]
    assert len(atoms) == 2 and not (le(atoms[0], atoms[1]) or le(atoms[1], atoms[0]))


def test_pair_order_is_partial(corpus):
    for g in corpus:
        lat = lattice_of(g)
        for p in lat.pairs:
            assert set(p.s) <= breaking_vertices(g, p.h)
            assert le(p, p)
        for a in lat.pairs:
            for b in lat.pairs:
                if le(a, b) and le(b, a):
                    assert a == b


def test_meet_join_examples(named):
    B1, T1 = named["B1"], named["T1"]
    lat = lattice_of(B1)
    a_u = AdmissiblePair.of({"a"}, {"u"})
    ab = AdmissiblePair.of({"a", "b"}, ())
    assert lat.meet(a_u, ab) == AdmissiblePair.of({"a"}, ())
    assert lat.join(AdmissiblePair.of({"a"}, ()), AdmissiblePair.of({"b"}, ())) == ab
    latt = lattice_of(T1)
    assert latt.meet(AdmissiblePair.of({"w"}, ()), bottom_pair()) == bottom_pair()


def test_lattice_axioms(corpus):
    rng = random.Random(7)
    for g in corpus:
        lat = lattice_of(g)
        ps = lat.pairs
        for a in ps:
            assert lat.meet(a, a) == a and lat.join(a, a) == a
        for a in ps:
            for b in ps:
                m, j = lat.meet(a, b), lat.join(a, b)
                assert m == lat.meet(b, a) and j == lat.join(b, a)
                assert lat.meet(a, j) == a and lat.join(a, m) == a  # absorption
        triples = (
            [(a, b, c) for a in ps for b in ps for c in ps]
            if len(ps) <= 12
            else [tuple(rng.choice(ps) for _ in range(3)) for _ in range(300)]
        )
        for a, b, c in triples:
            assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)
            assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)


def test_quotient_examples(named):
    T1, B1 = named["T1"], named["B1"]
    q = quotient(T1, AdmissiblePair.of({"w"}, ()))
    assert q.graph == Graph(["v"], {("v", "v"): 1})
    qb = quotient(B1, AdmissiblePair.of({"a"}, ()))
    assert qb.graph.vertices == ("b", "u", "u'")
    assert dict(qb.graph.bundles) == {("u", "b"): 1}
    assert qb.primed_vertices() == ["u'"]
    for g in named.values():
        assert quotient(g, bottom_pair()).graph == g


def test_quotient_primed_vertices_are_sinks(corpus):
    for g in corpus:
        lat = lattice_of(g)
        for p in lat.pairs:
            q = quotient(g, p)
            assert q.exitless == tuple(exitless_cycles(q.graph))
            assert q.directed == downward_directed(q.graph, q.graph.vertices).holds
            for v in q.primed_vertices():
                assert q.graph.total_out(v) == 0


def test_quotient_exitless_cycles_depend_on_S():
    # u is a breaking vertex of {h}; left out of S, its primed copy gives w a second edge
    g = Graph(["h", "u", "w"], {("u", "h"): OMEGA, ("u", "w"): 1, ("w", "u"): 1})
    kept = quotient(g, admissible_pair(g, {"h"}, {"u"}))
    primed = quotient(g, admissible_pair(g, {"h"}, ()))
    assert kept.exitless == (Cycle.from_vertices(["u", "w"]),)
    assert primed.exitless == ()
    assert kept.directed and primed.directed
    assert kept.exitless == tuple(exitless_cycles(kept.graph))
    assert dict(primed.graph.bundles) == {("u", "w"): 1, ("w", "u"): 1, ("w", "u'"): 1}


def _sparse_graph(rng: random.Random, max_vertices: int = 9) -> Graph:
    """Sparse enough for exitless cycles, omega bundles for breaking vertices."""
    vs = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    density = rng.uniform(0.08, 0.35)
    return Graph(vs, {
        (v, w): rng.choice([1, 1, 1, 2, OMEGA, OMEGA])
        for v in vs for w in vs if rng.random() < density
    })


def test_quotient_mask_facts_match_the_built_graph():
    # the corpus is compared in test_quotient_primed_vertices_are_sinks
    rng = random.Random(20261018)
    for _ in range(2000):
        g = _sparse_graph(rng)
        for p in enumerate_pairs(g).pairs:
            q = quotient(g, p)
            assert q.exitless == tuple(exitless_cycles(q.graph)), (dict(g.bundles), p)
            assert q.directed == downward_directed(q.graph, q.graph.vertices).holds, (dict(g.bundles), p)


def test_quotient_duplicates_bundles_into_primed_sinks():
    g = Graph(["u", "h", "t"], {("u", "h"): OMEGA, ("u", "t"): 2, ("t", "u"): 1})
    pair = admissible_pair(g, {"h"}, ())
    q = quotient(g, pair)
    assert dict(q.graph.bundles) == {("u", "t"): 2, ("t", "u"): 1, ("t", "u'"): 1}


def test_admissible_pair_validation(named):
    B1 = named["B1"]
    admissible_pair(B1, {"a"}, {"u"})
    with pytest.raises(LatticeError, match="subset of B_H"):
        admissible_pair(B1, {"b"}, {"u"})
    with pytest.raises(LatticeError, match="not hereditary"):
        admissible_pair(named["T1"], {"v"}, ())


def test_normalize_generators(named):
    B1 = named["B1"]
    assert normalize_generators(B1, {"a"}, {"u"}) == AdmissiblePair.of({"a"}, {"u"})
    assert normalize_generators(B1, {"a", "b"}, {"u"}) == top_pair(B1)
    for g in named.values():
        assert normalize_generators(g, (), ()) == bottom_pair()
    with pytest.raises(LatticeError, match="infinite emitter"):
        normalize_generators(B1, (), {"a"})


def test_top_and_bottom(corpus):
    for g in corpus[:40]:
        lat = lattice_of(g)
        assert lat.bottom == bottom_pair()
        assert lat.top == top_pair(g)
        for p in lat.pairs:
            assert le(bottom_pair(), p) and le(p, lat.top)
