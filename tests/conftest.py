"""Shared fixtures: named graphs, the seeded random corpus, lattice caching."""

import random

import pytest

from leavitt.catalog import (
    acyclic_chain,
    chain_of_roses,
    infinite_emitter_fork,
    rose,
    single_loop,
    toeplitz,
    two_disjoint_loops,
    two_disjoint_roses,
)
from leavitt.graphs import Graph, OMEGA
from leavitt.lattice import enumerate_pairs

CORPUS_SEED = 20240810
CORPUS_RANDOM = 200


def random_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    bundles = {}
    for v in vs:
        for w in vs:
            if rng.random() < 0.25:
                bundles[(v, w)] = rng.choice([1, 1, 2, OMEGA])
    return Graph(vs, bundles)


def random_dag(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(1, max_vertices)
    vs = [f"d{i}" for i in range(n)]
    bundles = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                bundles[(vs[i], vs[j])] = rng.choice([1, 1, 2])
    return Graph(vs, bundles)


def forks(k: int) -> Graph:
    """k disjoint forks u -omega-> a, u -1-> b: 6^k admissible pairs."""
    bundles = {}
    for i in range(k):
        bundles[(f"u{i}", f"a{i}")] = OMEGA
        bundles[(f"u{i}", f"b{i}")] = 1
    return Graph([f"{x}{i}" for i in range(k) for x in "uab"], bundles)


def loops(k: int) -> Graph:
    """k disjoint single loops: 2^k admissible pairs, Condition (K) fails."""
    return Graph([f"l{i}" for i in range(k)], {(f"l{i}", f"l{i}"): 1 for i in range(k)})


def named_graphs():
    return {
        "L1": single_loop(),
        "R2": rose(),
        "T1": toeplitz(),
        "A3": acyclic_chain(),
        "D2": two_disjoint_loops(),
        "C2": chain_of_roses(),
        "C4": chain_of_roses(4),
        "B1": infinite_emitter_fork(),
        "RR": two_disjoint_roses(),
    }


@pytest.fixture(scope="session")
def named():
    return named_graphs()


def random_corpus():
    """The seeded random graphs of the corpus."""
    rng = random.Random(CORPUS_SEED)
    return [random_graph(rng) for _ in range(CORPUS_RANDOM)]


@pytest.fixture(scope="session")
def corpus(named):
    """Named graphs plus the seeded random corpus."""
    return list(named.values()) + random_corpus()


_LATTICES = {}


def lattice_of(g: Graph):
    lat = _LATTICES.get(g)
    if lat is None:
        lat = enumerate_pairs(g)
        _LATTICES[g] = lat
    return lat


@pytest.fixture(scope="session")
def lattices():
    return lattice_of
