"""The decision procedures: intersections of primes, factorizations, powers."""

import math
import random

import pytest

from leavitt.errors import IdealError
from leavitt.graphs import Cycle, exitless_cycles
from leavitt.ideals import contains, is_prime, make, rep, zero_ideal
from leavitt.lattice import AdmissiblePair, bottom_pair
from leavitt.laurent import QQ, parse_poly
from leavitt.theorems import (
    condition_K_equivalence,
    count_ideals,
    everything_prime_check,
    factor_graded,
    family_intersection,
    graded_primes,
    intersection_of_primes,
    irredundant_prime_intersection,
    krull_check,
    maximal_decomposition,
    prime_always_exists,
    prime_intersection_counterexample,
    primes_containing,
    sample_ideal_family,
    tight_product_check,
    uniqueness_check,
)

from conftest import lattice_of, loops

ONE_X = parse_poly(QQ, "1+x")
ONE_X2 = parse_poly(QQ, "1+x^2")
W_PAIR = AdmissiblePair.of({"w"}, ())
LOOP = Cycle.from_vertices(["v"])


def test_graded_primes(named):
    T1, D2, L1 = named["T1"], named["D2"], named["L1"]
    assert graded_primes(T1, lattice_of(T1)) == [bottom_pair(), W_PAIR]
    assert graded_primes(D2, lattice_of(D2)) == [
        AdmissiblePair.of({"v1"}, ()),
        AdmissiblePair.of({"v2"}, ()),
    ]
    assert graded_primes(L1, lattice_of(L1)) == [bottom_pair()]


def test_primes_containing(named):
    L1, T1 = named["L1"], named["T1"]
    cyc = exitless_cycles(L1)[0]
    sq = make(L1, bottom_pair(), {cyc: ONE_X * ONE_X})
    fam = primes_containing(L1, lattice_of(L1), sq)
    assert fam.graded == ()
    assert fam.nongraded == (make(L1, bottom_pair(), {cyc: ONE_X}),)
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    B = make(T1, W_PAIR, {LOOP: ONE_X2})
    I = make(T1, W_PAIR, {LOOP: ONE_X * ONE_X2})
    fam = primes_containing(T1, lattice_of(T1), I)
    assert fam.graded == () and fam.nongraded == (A, B)
    # the zero ideal lies under every graded prime
    for g in (named["C2"], named["RR"], named["D2"]):
        fam = primes_containing(g, lattice_of(g), zero_ideal())
        assert list(fam.graded) == graded_primes(g, lattice_of(g))
        assert fam.nongraded == ()


def test_intersection_of_primes_examples(named):
    L1, T1, C2 = named["L1"], named["T1"], named["C2"]
    cyc = exitless_cycles(L1)[0]
    r = intersection_of_primes(L1, lattice_of(L1), make(L1, bottom_pair(), {cyc: ONE_X * ONE_X}))
    assert r.result == make(L1, bottom_pair(), {cyc: ONE_X})
    assert not r.equals_input
    I = make(T1, W_PAIR, {LOOP: ONE_X * ONE_X2})
    r = intersection_of_primes(T1, lattice_of(T1), I)
    assert r.result == I and r.equals_input
    for p in lattice_of(C2).proper():
        assert intersection_of_primes(C2, lattice_of(C2), rep(p)).equals_input


def test_graded_ideals_are_prime_intersections(corpus):
    # graded ideals are intersections of the primes over them on every graph
    for g in corpus[:80]:
        lat = lattice_of(g)
        for p in lat.proper():
            assert intersection_of_primes(g, lat, rep(p)).equals_input


def test_condition_K_equivalence(named):
    C2, L1, T1 = named["C2"], named["L1"], named["T1"]
    r = condition_K_equivalence(C2, lattice_of(C2))
    assert r.condition_k and r.all_intersections_exact and r.equivalent
    r = condition_K_equivalence(L1, lattice_of(L1))
    assert not r.condition_k and r.equivalent
    assert r.counterexample == make(L1, bottom_pair(), {exitless_cycles(L1)[0]: ONE_X * ONE_X})
    r = condition_K_equivalence(T1, lattice_of(T1))
    assert r.counterexample == make(T1, W_PAIR, {LOOP: ONE_X * ONE_X})


def test_prime_intersection_counterexample(named):
    L1, T1, R2 = named["L1"], named["T1"], named["R2"]
    assert prime_intersection_counterexample(L1, lattice_of(L1)) == make(
        L1, bottom_pair(), {exitless_cycles(L1)[0]: ONE_X * ONE_X}
    )
    assert prime_intersection_counterexample(T1, lattice_of(T1)) == make(
        T1, W_PAIR, {LOOP: ONE_X * ONE_X}
    )
    assert prime_intersection_counterexample(R2, lattice_of(R2)) is None


def test_irredundant_prime_intersection(named):
    T1, D2, L1 = named["T1"], named["D2"], named["L1"]
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    B = make(T1, W_PAIR, {LOOP: ONE_X2})
    I = make(T1, W_PAIR, {LOOP: ONE_X * ONE_X2})
    assert irredundant_prime_intersection(T1, lattice_of(T1), I) == (A, B)
    assert irredundant_prime_intersection(D2, lattice_of(D2), zero_ideal()) == (
        rep(AdmissiblePair.of({"v1"}, ())),
        rep(AdmissiblePair.of({"v2"}, ())),
    )
    one = make(L1, bottom_pair(), {exitless_cycles(L1)[0]: ONE_X})
    assert irredundant_prime_intersection(L1, lattice_of(L1), one) == (one,)
    # the square generates no exact finite family
    sq = make(L1, bottom_pair(), {exitless_cycles(L1)[0]: ONE_X * ONE_X})
    assert irredundant_prime_intersection(L1, lattice_of(L1), sq) is None


def test_uniqueness_check(named):
    T1 = named["T1"]
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    B = make(T1, W_PAIR, {LOOP: ONE_X2})
    assert uniqueness_check(T1, lattice_of(T1), [A, B], [B, A])
    D2 = named["D2"]
    P1 = rep(AdmissiblePair.of({"v1"}, ()))
    P2 = rep(AdmissiblePair.of({"v2"}, ()))
    with pytest.raises(IdealError, match="different intersections"):
        uniqueness_check(D2, lattice_of(D2), [P1], [P2])
    with pytest.raises(IdealError, match="not irredundant"):
        uniqueness_check(D2, lattice_of(D2), [P1, P2, rep(bottom_pair())], [P1, P2])


def test_uniqueness_over_random_reconstruction_orders(corpus):
    rng = random.Random(17)
    graphs = corpus[:40]
    for g in graphs:
        lat = lattice_of(g)
        for I in sample_ideal_family(g, lat, QQ):
            fam = irredundant_prime_intersection(g, lat, I)
            if fam is None or len(fam) < 2:
                continue
            for _ in range(10):
                shuffled = list(fam)
                rng.shuffle(shuffled)
                assert uniqueness_check(g, lat, fam, shuffled)


def test_factor_graded(named):
    D2, RR, T1 = named["D2"], named["RR"], named["T1"]
    assert factor_graded(D2, lattice_of(D2), zero_ideal()) == (
        AdmissiblePair.of({"v1"}, ()),
        AdmissiblePair.of({"v2"}, ()),
    )
    assert factor_graded(RR, lattice_of(RR), zero_ideal()) == (
        AdmissiblePair.of({"r1"}, ()),
        AdmissiblePair.of({"r2"}, ()),
    )
    assert factor_graded(T1, lattice_of(T1), rep(W_PAIR)) == (W_PAIR,)
    with pytest.raises(IdealError):
        factor_graded(T1, lattice_of(T1), make(T1, W_PAIR, {LOOP: ONE_X}))


def test_tight_product_check(named):
    L1 = named["L1"]
    cyc = exitless_cycles(L1)[0]
    P = make(L1, bottom_pair(), {cyc: ONE_X})
    Q = make(L1, bottom_pair(), {cyc: ONE_X2})
    PQ = make(L1, bottom_pair(), {cyc: ONE_X * ONE_X2})
    assert tight_product_check(L1, [P, Q])
    assert not tight_product_check(L1, [P, PQ])
    assert tight_product_check(L1, [P])
    with pytest.raises(IdealError):
        tight_product_check(L1, [])


def test_everything_prime(named):
    C2, D2, T1, C4 = named["C2"], named["D2"], named["T1"], named["C4"]
    r = everything_prime_check(C2, lattice_of(C2))
    assert r.all_ideals_prime and r.graph_criterion and r.graded_chain and r.agree
    r = everything_prime_check(D2, lattice_of(D2))
    assert not (r.all_ideals_prime or r.graph_criterion or r.graded_chain) and r.agree
    r = everything_prime_check(T1, lattice_of(T1))
    assert not (r.all_ideals_prime or r.graph_criterion or r.graded_chain) and r.agree
    assert everything_prime_check(C4, lattice_of(C4)).all_ideals_prime


def test_everything_prime_check_stops_at_the_first_failure(monkeypatch):
    # the bottom of loops(7) has seven covers, so the first sampled ideal is
    # not prime; the family must not be built beyond it
    from leavitt import theorems

    g = loops(7)
    calls = []

    def counting_make(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(theorems, "make", counting_make)
    r = everything_prime_check(g, lattice_of(g))
    assert not r.all_ideals_prime and r.agree
    assert len(calls) < 10


def test_prime_always_exists(named):
    L1, T1, C2 = named["L1"], named["T1"], named["C2"]
    assert prime_always_exists(L1, lattice_of(L1)) == bottom_pair()
    # the witness construction: H is everything that does not reach the loop
    assert prime_always_exists(T1, lattice_of(T1)) == W_PAIR
    p = prime_always_exists(C2, lattice_of(C2))
    assert is_prime(C2, lattice_of(C2), rep(p)).prime


def test_count_ideals(named):
    C2, L1, R2, C4 = named["C2"], named["L1"], named["R2"], named["C4"]
    assert count_ideals(C2, lattice_of(C2)) == 3
    assert math.isinf(count_ideals(L1, lattice_of(L1)))
    assert count_ideals(R2, lattice_of(R2)) == 2
    assert count_ideals(C4, lattice_of(C4)) == 5


def test_maximal_decomposition(named):
    RR, T1, R2, C2 = named["RR"], named["T1"], named["R2"], named["C2"]
    assert maximal_decomposition(RR, lattice_of(RR)) == [("r1",), ("r2",)]
    assert maximal_decomposition(T1, lattice_of(T1)) is None
    assert maximal_decomposition(R2, lattice_of(R2)) == [("v",)]
    # chain algebras have maximal ideals but 0 is not their intersection
    assert maximal_decomposition(C2, lattice_of(C2)) is None


def test_krull_check(named):
    L1, T1 = named["L1"], named["T1"]
    cyc = exitless_cycles(L1)[0]
    assert krull_check(L1, make(L1, bottom_pair(), {cyc: ONE_X}))
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    assert not krull_check(T1, A)
    assert krull_check(T1, zero_ideal())


def test_krull_matches_vertexlessness(corpus):
    for g in corpus[:60]:
        for I in sample_ideal_family(g, lattice_of(g)):
            assert krull_check(g, I) == (I.graded == bottom_pair())


def test_family_intersection_contains_every_member(corpus):
    for g in corpus[:30]:
        lat = lattice_of(g)
        for I in sample_ideal_family(g, lat):
            fam = primes_containing(g, lat, I).all_reps()
            R = family_intersection(g, lat, fam)
            for P in fam:
                assert contains(g, P, R)


def test_chain_of_roses_regression(named):
    # finite truncations of the descending chain: all ideals graded primes in
    # a chain; maximal ideals exist at every truncation
    for name in ("C2", "C4"):
        g = named[name]
        lat = lattice_of(g)
        assert everything_prime_check(g, lat).agree
        assert len(graded_primes(g, lat)) == len(lat) - 1
        maxima = [p for p in lat.proper() if lat.covered_by_top(p)]
        assert len(maxima) == 1


def test_primes_containing_reads_one_quotient_per_component(monkeypatch):
    # one candidate pair per component cycle, whatever the lattice size: count
    # the lookups of per-H quotient facts on a fresh lattice of 64 pairs
    from leavitt import lattice
    from leavitt.lattice import enumerate_pairs

    g = loops(6)
    lat = enumerate_pairs(g)
    polys = (ONE_X * ONE_X, ONE_X, ONE_X2)
    I = make(g, bottom_pair(), {Cycle.from_vertices([f"l{i}"]): p for i, p in enumerate(polys)})
    calls = []
    h_facts = lattice._h_facts

    def counted(*args):
        calls.append(args)
        return h_facts(*args)

    monkeypatch.setattr(lattice, "_h_facts", counted)
    fam = primes_containing(g, lat, I)
    assert len(calls) <= len(I.components)
    assert len(fam.nongraded) == 3 and len(fam.graded) == 3  # the graded ones hold l0, l1 and l2


def test_maximal_list_makes_no_per_pair_maximality_test(monkeypatch, named):
    import sys

    from leavitt import ideals
    from leavitt.serialize import analyze_report, lattice_dot, lattice_text

    from conftest import forks

    calls = []
    original = ideals.is_maximal

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("leavitt") and getattr(module, "is_maximal", None) is original:
            monkeypatch.setattr(module, "is_maximal", counted)
    found = 0
    for g in (named["RR"], named["T1"], forks(2)):
        lat = lattice_of(g)
        found += len(analyze_report("g", g, QQ, lat)["maximalGradedIdeals"])
        lattice_text(g, lat)
        lattice_dot(g, lat)
        maximal_decomposition(g, lat)
    assert found and calls == []
