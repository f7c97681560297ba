"""Graph construction, vertex classes, reachability and the two conditions."""

import itertools
import time

import pytest

from leavitt import graphs
from leavitt.catalog import chain_of_roses
from leavitt.errors import GraphError
from leavitt.graphs import (
    OMEGA,
    Cycle,
    Graph,
    VertexClass,
    classify,
    condition_K,
    condition_L,
    downward_directed,
    exitless_cycles,
    reaches,
    simple_closed_path_count,
    validate,
)
from leavitt.lattice import quotient

from conftest import lattice_of


def test_omega_arithmetic():
    assert OMEGA + 5 == OMEGA
    assert 5 + OMEGA == OMEGA
    assert OMEGA + OMEGA == OMEGA
    assert OMEGA > 10**12
    assert not OMEGA > OMEGA
    assert OMEGA >= OMEGA
    assert 3 < OMEGA
    assert OMEGA == OMEGA


def test_validate_minimal_loop(named):
    validate(named["L1"])


def test_validate_rejects_undeclared_endpoint():
    with pytest.raises(GraphError, match="declared vertex"):
        Graph(["v"], {("v", "z"): 1})


def test_validate_rejects_duplicate_vertex():
    with pytest.raises(GraphError, match="duplicate"):
        Graph(["v", "v"], {})


def test_validate_rejects_zero_multiplicity():
    with pytest.raises(GraphError, match="zero-multiplicity"):
        Graph(["u", "v"], {("u", "v"): 0})


def test_validate_infinite_emitter_graph(named):
    validate(named["B1"])


def test_classify(named):
    B1, T1 = named["B1"], named["T1"]
    assert classify(B1, "u") is VertexClass.INFINITE_EMITTER
    assert classify(B1, "a") is VertexClass.SINK
    assert classify(T1, "v") is VertexClass.REGULAR
    with pytest.raises(GraphError, match="unknown vertex"):
        classify(T1, "zz")


def test_reaches(named):
    T1 = named["T1"]
    assert reaches(T1, "v", "w")
    assert not reaches(T1, "w", "v")
    for g in named.values():
        for v in g.vertices:
            assert reaches(g, v, v)


def test_reaches_is_a_preorder(corpus):
    for g in corpus[:60]:
        vs = g.vertices
        for u, v, w in itertools.product(vs, repeat=3):
            if reaches(g, u, v) and reaches(g, v, w):
                assert reaches(g, u, w)


def test_downward_directed(named):
    T1, D2 = named["T1"], named["D2"]
    assert downward_directed(T1, T1.vertices).holds
    report = downward_directed(D2, D2.vertices)
    assert not report.holds and report.witness == ("v1", "v2")
    assert downward_directed(T1, ()).holds
    assert downward_directed(T1, ("w",)).holds
    with pytest.raises(GraphError):
        downward_directed(T1, ("nope",))


def test_downward_directed_restricts_paths_to_the_subset():
    # u reaches w only through m; with m excluded there is no common bound
    g = Graph(["u", "m", "w"], {("u", "m"): 1, ("m", "w"): 1, ("w", "w"): 1})
    assert downward_directed(g, g.vertices).holds
    assert not downward_directed(g, ("u", "w")).holds


def test_exitless_cycles(named):
    L1, R2, A3 = named["L1"], named["R2"], named["A3"]
    assert exitless_cycles(L1) == [Cycle.from_vertices(["v"])]
    assert exitless_cycles(R2) == []
    assert exitless_cycles(A3) == []


def test_exitless_cycles_are_vertex_disjoint(corpus):
    for g in corpus:
        seen = set()
        for cyc in exitless_cycles(g):
            assert not (set(cyc.vertices) & seen)
            seen.update(cyc.vertices)


def test_condition_L(named):
    holds, witness = condition_L(named["L1"])
    assert not holds and witness == Cycle.from_vertices(["v"])
    assert condition_L(named["T1"]).holds
    assert condition_L(named["A3"]).holds


def test_simple_closed_path_count(named):
    assert simple_closed_path_count(named["L1"], "v") == 1
    assert simple_closed_path_count(named["R2"], "v") == 2
    assert simple_closed_path_count(named["A3"], "u0") == 0


def test_simple_closed_paths_may_revisit_non_base_vertices():
    # v -> a, a -> a, a -> v: infinitely many simple closed paths at v
    g = Graph(["v", "a"], {("v", "a"): 1, ("a", "a"): 1, ("a", "v"): 1})
    assert simple_closed_path_count(g, "v") == 2


def test_omega_bundle_counts_as_many_parallel_paths():
    g = Graph(["v"], {("v", "v"): OMEGA})
    assert simple_closed_path_count(g, "v") == 2


def test_simple_closed_path_count_on_a_dense_graph_is_fast():
    # 8 vertices, 21 bundles: a bundle-sequence search takes seconds at v7
    w = OMEGA
    g = Graph(
        [f"v{i}" for i in range(8)],
        {
            ("v0", "v0"): 2, ("v0", "v3"): 1, ("v0", "v7"): w, ("v1", "v3"): 1,
            ("v1", "v4"): 2, ("v1", "v6"): w, ("v2", "v1"): 1, ("v2", "v5"): 2,
            ("v2", "v6"): w, ("v3", "v0"): w, ("v3", "v5"): 1, ("v4", "v1"): 1,
            ("v4", "v2"): 2, ("v5", "v1"): w, ("v5", "v2"): 2, ("v5", "v6"): 1,
            ("v6", "v3"): w, ("v6", "v4"): w, ("v6", "v6"): 1, ("v7", "v2"): 2,
            ("v7", "v6"): 1,
        },
    )
    start = time.process_time()
    assert simple_closed_path_count(g, "v7") == 2
    assert time.process_time() - start < 1.0


def test_condition_K(named):
    holds, witness = condition_K(named["L1"])
    assert not holds and witness == "v"
    assert condition_K(named["C2"]).holds
    assert condition_K(named["A3"]).holds
    assert not condition_K(named["T1"]).holds


def test_condition_K_is_decided_once_per_graph(monkeypatch):
    g = chain_of_roses(3)
    first = condition_K(g)
    monkeypatch.setattr(graphs, "simple_closed_path_count", None)
    assert condition_K(g) is first and first.holds


def test_condition_K_reads_strong_components_off_reach_masks(monkeypatch):
    g = chain_of_roses(32)
    calls = []
    search = graphs.reachable_from
    monkeypatch.setattr(graphs, "reachable_from", lambda *args: calls.append(args) or search(*args))
    assert condition_K(g).holds
    assert calls == []


def test_condition_K_implies_condition_L(corpus):
    for g in corpus:
        if condition_K(g).holds:
            assert condition_L(g).holds


def test_condition_K_matches_quotient_criterion(corpus):
    # (K) holds iff every quotient graph satisfies (L)
    for g in corpus:
        lat = lattice_of(g)
        quotients_ok = all(condition_L(quotient(g, p).graph).holds for p in lat.pairs)
        assert condition_K(g).holds == quotients_ok


def test_cycle_canonical_rotation():
    c1 = Cycle((("b", "c", 0), ("c", "a", 0), ("a", "b", 0)))
    c2 = Cycle((("a", "b", 0), ("b", "c", 0), ("c", "a", 0)))
    assert c1 == c2
    assert c1.vertices[0] == "a"
    with pytest.raises(GraphError):
        Cycle((("a", "b", 0), ("b", "a", 0), ("a", "b", 0), ("b", "a", 0)))
    with pytest.raises(GraphError):
        Cycle((("a", "b", 0),))
    with pytest.raises(GraphError):
        Cycle(())


def test_graph_equality_and_lookup(named):
    T1 = named["T1"]
    assert T1 == Graph(["w", "v"], {("v", "v"): 1, ("v", "w"): 1})
    assert "v" in T1 and "zz" not in T1
    assert T1.total_out("v") == 2
    assert T1.total_out("w") == 0
