"""Engine versus independent brute-force references."""

import random

import pytest

from leavitt.errors import GraphError
from leavitt.graphs import Graph, OMEGA
from leavitt.lattice import enumerate_hs
from leavitt.laurent import GF, QQ, LaurentPoly, factor, parse_poly
from leavitt.graphs import simple_closed_path_count
from leavitt.ideals import _graded_prime_flags
from leavitt.oracles import (
    SearchLattice,
    acyclic_sink_lattice,
    brute_hs,
    closed_path_count_by_search,
    laurent_model,
)

from conftest import lattice_of, random_dag


def test_brute_hs_examples(named):
    assert [tuple(sorted(h)) for h in brute_hs(named["T1"])] == [(), ("v", "w"), ("w",)]
    assert len(brute_hs(named["B1"])) == 5
    single = Graph(["v"], {})
    assert [tuple(sorted(h)) for h in brute_hs(single)] == [(), ("v",)]
    big = Graph([f"x{i}" for i in range(13)], {})
    with pytest.raises(GraphError, match="brute-force bound"):
        brute_hs(big)


def test_enumerate_hs_matches_brute_force(corpus):
    for g in corpus:
        assert enumerate_hs(g) == brute_hs(g)


def test_enumerate_hs_matches_brute_force_up_to_12_vertices():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(9, 12)
        vs = [f"n{i}" for i in range(n)]
        bundles = {}
        for v in vs:
            for w in vs:
                if rng.random() < 0.18:
                    bundles[(v, w)] = rng.choice([1, 2, OMEGA])
        g = Graph(vs, bundles)
        assert enumerate_hs(g) == brute_hs(g)


def test_laurent_model_on_fixed_polys(named):
    L1 = named["L1"]
    polys = [
        parse_poly(QQ, t)
        for t in ("1+x", "1+x^2", "1+2x+x^2", "1+x+x^2+x^3", "2+x", "1-x")
    ]
    report = laurent_model(L1, polys)
    assert report.ok, report.mismatches
    assert report.checked > 100


def test_laurent_model_requires_the_single_loop(named):
    with pytest.raises(GraphError, match="single-vertex single-loop"):
        laurent_model(named["T1"], [parse_poly(QQ, "1+x")])


def test_acyclic_sink_lattice_examples(named):
    report = acyclic_sink_lattice(named["A3"])
    assert report.ok and report.sink_count == 1 and report.hs_count == 2
    fork = Graph(["u", "a", "b"], {("u", "a"): 1, ("u", "b"): 1})
    report = acyclic_sink_lattice(fork)
    assert report.ok and report.hs_count == 4
    single = Graph(["v"], {})
    assert acyclic_sink_lattice(single).hs_count == 2
    with pytest.raises(GraphError, match="DAG"):
        acyclic_sink_lattice(named["L1"])


def test_acyclic_sink_lattice_random_dags():
    rng = random.Random(777)
    for _ in range(100):
        g = random_dag(rng)
        report = acyclic_sink_lattice(g)
        assert report.ok, report.message


def test_sink_powerset_premise_fails_with_infinite_emitters():
    # saturation cannot pull in an infinite emitter, so the bijection breaks
    g = Graph(["u", "a"], {("u", "a"): OMEGA})
    report = acyclic_sink_lattice(g)
    assert not report.ok and report.hs_count == 3 and report.sink_count == 1


# -- trial-division oracle for factorization over small prime fields


def trial_division_factor(field, f: LaurentPoly):
    """Factor by exhaustive division with all monic polynomials, small fields."""
    out = {}
    work = list(f.canon().coeffs)
    p = field.p

    def monic_polys(degree):
        for mask in range(p**degree):
            coeffs, m = [], mask
            for _ in range(degree):
                coeffs.append(m % p)
                m //= p
            yield coeffs + [1]

    def divide(a, b):
        rem = list(a)
        quo = [0] * (len(a) - len(b) + 1)
        for i in range(len(a) - len(b), -1, -1):
            c = rem[i + len(b) - 1] % p
            quo[i] = c
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
        return quo, [c % p for c in rem if c % p]

    d = 1
    while len(work) - 1 >= 1:
        if d > (len(work) - 1) // 2:
            key = LaurentPoly.from_coeffs(field, work).canon().unit_free()
            out[key] = out.get(key, 0) + 1
            break
        progressed = False
        for cand in monic_polys(d):
            quo, rem = divide(work, cand)
            if not rem and len(cand) > 1 and cand[0] != 0:
                key = LaurentPoly.from_coeffs(field, cand)
                out[key] = out.get(key, 0) + 1
                work = quo
                progressed = True
                break
        if not progressed:
            d += 1
    return out


def test_fp_factor_matches_trial_division():
    rng = random.Random(97)
    for p in (2, 3, 5):
        field = GF(p)
        for _ in range(40):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = LaurentPoly.from_coeffs(field, coeffs)
            if f.is_zero or f.canon().is_unit:
                continue
            assert factor(f) == trial_division_factor(field, f), str(f)


def test_closed_form_meet_is_search_meet(corpus):
    from leavitt.lattice import closed_form_meet

    for g in corpus:
        lat = lattice_of(g)
        ref = SearchLattice(lat)
        for a in lat.pairs:
            for b in lat.pairs:
                assert closed_form_meet(g, a, b) == ref.meet(a, b)


def test_lattice_engine_matches_search_lattice(corpus):
    for g in corpus:
        lat = lattice_of(g)
        ref = SearchLattice(lat)
        for a in lat.pairs:
            assert lat.upper_covers(a) == ref.upper_covers(a)
            for b in lat.pairs:
                assert lat.meet(a, b) == ref.meet(a, b)
                assert lat.join(a, b) == ref.join(a, b)
        assert _graded_prime_flags(g, lat) == ref.prime_flags()


def test_closed_path_count_matches_search(corpus):
    for g in corpus:
        for v in g.vertices:
            assert simple_closed_path_count(g, v) == closed_path_count_by_search(g, v), (g, v)


def test_graded_product_matches_sink_intersection_on_dags():
    # on a row-finite DAG the graded lattice is the powerset of sinks, so the
    # meet (= product = intersection of graded ideals) can be computed on the
    # sink side with plain set intersection, independently of the engine
    from leavitt.ideals import intersect, product, rep
    from leavitt.lattice import AdmissiblePair

    rng = random.Random(31337)
    done = 0
    while done < 25:
        g = random_dag(rng, max_vertices=6)
        assert acyclic_sink_lattice(g).ok
        sinks = sorted(v for v in g.vertices if not g.successors(v))
        if len(sinks) > 4:
            continue
        done += 1
        reach_sinks = {}

        def sinks_from(v):
            if v not in reach_sinks:
                succ = g.successors(v)
                out = frozenset([v]) if not succ else frozenset().union(
                    *(sinks_from(w) for w in succ)
                )
                reach_sinks[v] = out
            return reach_sinks[v]

        def h_of(T):
            return AdmissiblePair.of(
                frozenset(v for v in g.vertices if sinks_from(v) <= T), ()
            )

        subsets = []
        for mask in range(1 << len(sinks)):
            subsets.append(frozenset(sinks[i] for i in range(len(sinks)) if mask >> i & 1))
        for T1 in subsets:
            for T2 in subsets:
                want = rep(h_of(T1 & T2))
                assert product(g, rep(h_of(T1)), rep(h_of(T2))) == want
                assert intersect(g, rep(h_of(T1)), rep(h_of(T2))) == want
