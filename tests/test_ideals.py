"""Ideal representations: construction, containment, arithmetic, prime tests."""

import pytest

from leavitt.errors import IdealError
from leavitt.graphs import Cycle, Graph, exitless_cycles
from leavitt.ideals import (
    contains,
    graded_part,
    intersect,
    is_maximal,
    is_prime,
    is_proper,
    limit_power,
    make,
    power,
    product,
    rep,
    unit_ideal,
    zero_ideal,
)
from leavitt.lattice import AdmissiblePair, bottom_pair, quotient
from leavitt.laurent import QQ, LaurentPoly, is_irreducible, parse_poly
from leavitt.theorems import sample_ideal_family

from conftest import lattice_of, loops

ONE_X = parse_poly(QQ, "1+x")
ONE_X2 = parse_poly(QQ, "1+x^2")
W_PAIR = AdmissiblePair.of({"w"}, ())
LOOP = Cycle.from_vertices(["v"])


def toeplitz_ideals(named):
    T1 = named["T1"]
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    B = make(T1, W_PAIR, {LOOP: ONE_X2})
    return T1, A, B


def test_make_validates(named):
    T1, A, B = toeplitz_ideals(named)
    assert A.graded == W_PAIR and A.components == ((LOOP, ONE_X),)
    assert make(named["L1"], bottom_pair(), {}) == zero_ideal()
    with pytest.raises(IdealError, match="exitless"):
        make(T1, bottom_pair(), {LOOP: ONE_X})  # the loop has an exit in T1
    with pytest.raises(IdealError, match="zero"):
        make(named["L1"], bottom_pair(), {LOOP: LaurentPoly.zero(QQ)})
    with pytest.raises(IdealError, match="unit"):
        make(named["L1"], bottom_pair(), {LOOP: parse_poly(QQ, "x^5")})


def test_make_canonicalizes_polynomials(named):
    L1 = named["L1"]
    cyc = exitless_cycles(L1)[0]
    I = make(L1, bottom_pair(), {cyc: parse_poly(QQ, "2x+2x^2")})
    assert I.components[0][1] == ONE_X


def test_graded_part(named):
    T1, A, _ = toeplitz_ideals(named)
    assert graded_part(A) == W_PAIR
    assert graded_part(rep(W_PAIR)) == W_PAIR
    cyc = exitless_cycles(named["L1"])[0]
    assert graded_part(make(named["L1"], bottom_pair(), {cyc: ONE_X})) == bottom_pair()


def test_contains(named):
    T1, A, B = toeplitz_ideals(named)
    I = intersect(T1, A, B)
    assert contains(T1, A, rep(W_PAIR))
    assert contains(T1, A, I) and not contains(T1, I, A)
    assert contains(T1, A, A)
    assert not contains(T1, rep(W_PAIR), A)
    assert contains(T1, unit_ideal(T1), A)


def test_contains_is_an_order_on_sampled_ideals(corpus):
    for g in corpus[:40]:
        fam = list(sample_ideal_family(g, lattice_of(g)))
        for I in fam:
            assert contains(g, I, I)
        for I in fam:
            for J in fam:
                if contains(g, I, J) and contains(g, J, I):
                    assert I == J
                for K in fam:
                    if contains(g, I, J) and contains(g, J, K):
                        assert contains(g, I, K)


def test_intersect_configurations(named):
    T1, A, B = toeplitz_ideals(named)
    I = intersect(T1, A, B)
    assert I == make(T1, W_PAIR, {LOOP: (ONE_X * ONE_X2)})
    # graded x graded is the lattice meet
    latB1 = lattice_of(named["B1"])
    for a in latB1.pairs:
        for b in latB1.pairs:
            assert intersect(named["B1"], rep(a), rep(b)) == rep(latB1.meet(a, b))
    assert intersect(T1, A, A) == A
    # one graded and comparable
    assert intersect(T1, A, rep(W_PAIR)) == rep(W_PAIR)
    assert intersect(T1, rep(W_PAIR), A) == rep(W_PAIR)


def test_intersect_drops_one_sided_components(named):
    # two disjoint exitless loops in D2: components on different cycles meet
    # in the graded part only
    D2 = named["D2"]
    c1, c2 = exitless_cycles(D2)
    I = make(D2, bottom_pair(), {c1: ONE_X})
    J = make(D2, bottom_pair(), {c2: ONE_X})
    assert intersect(D2, I, J) == zero_ideal()
    both = make(D2, bottom_pair(), {c1: ONE_X, c2: ONE_X})
    assert intersect(D2, both, I) == I


def test_intersect_with_incomparable_graded_parts(named):
    # incomparable graded parts with components on both sides: each side's
    # H holds the other's cycle, so the polynomials survive over the meet
    D2 = named["D2"]
    c1, c2 = exitless_cycles(D2)
    p1 = AdmissiblePair.of({"v1"}, ())
    p2 = AdmissiblePair.of({"v2"}, ())
    I = make(D2, p1, {c2: ONE_X})
    J = make(D2, p2, {c1: ONE_X})
    want = make(D2, bottom_pair(), {c1: ONE_X, c2: ONE_X})
    assert intersect(D2, I, J) == product(D2, I, J) == want
    # <v1> and <1+x on v2>: neither holds a nonzero multiple of the other's part
    K = make(D2, bottom_pair(), {c2: ONE_X})
    assert intersect(D2, rep(p1), K) == intersect(D2, K, rep(p1)) == zero_ideal()


def test_intersection_is_the_greatest_sampled_lower_bound(corpus):
    for g in corpus[:25]:
        fam = list(sample_ideal_family(g, lattice_of(g)))
        for I in fam:
            for J in fam:
                R = intersect(g, I, J)
                assert contains(g, I, R) and contains(g, J, R)
                assert contains(g, R, product(g, I, J))
                for X in fam:
                    if contains(g, I, X) and contains(g, J, X):
                        assert contains(g, R, X)
        for I in fam[:8]:
            for J in fam[:8]:
                for K in fam[:8]:
                    left = intersect(g, intersect(g, I, J), K)
                    assert left == intersect(g, I, intersect(g, J, K))


def test_product_configurations(named):
    T1, A, B = toeplitz_ideals(named)
    w = rep(W_PAIR)
    assert product(T1, w, w) == w
    assert product(T1, A, A) == make(T1, W_PAIR, {LOOP: ONE_X * ONE_X})
    assert product(T1, A, w) == w
    assert product(T1, w, A) == w
    # for graded ideals product equals intersection equals the meet
    for g in (named["B1"], named["RR"], named["C2"]):
        lat = lattice_of(g)
        for a in lat.pairs:
            for b in lat.pairs:
                assert product(g, rep(a), rep(b)) == intersect(g, rep(a), rep(b)) == rep(lat.meet(a, b))


def test_graded_ideals_combine_without_quotient_facts(monkeypatch, named):
    from leavitt import ideals

    calls = []
    facts = ideals._quotient_facts
    monkeypatch.setattr(ideals, "_quotient_facts", lambda *args: calls.append(args) or facts(*args))
    for g in (named["B1"], named["D2"], loops(3)):
        lat = lattice_of(g)
        for a in lat.pairs:
            for b in lat.pairs:
                assert product(g, rep(a), rep(b)) == intersect(g, rep(a), rep(b)) == rep(lat.meet(a, b))
    assert calls == []


def test_product_is_commutative(corpus):
    for g in corpus[:25]:
        fam = list(sample_ideal_family(g, lattice_of(g)))
        for I in fam:
            for J in fam:
                left = product(g, I, J)
                assert left == product(g, J, I)
        for I in fam[:8]:
            for J in fam[:8]:
                for K in fam[:8]:
                    assert product(g, product(g, I, J), K) == product(g, I, product(g, J, K))


def test_power(named):
    T1, A, _ = toeplitz_ideals(named)
    L1 = named["L1"]
    cyc = exitless_cycles(L1)[0]
    BL = make(L1, bottom_pair(), {cyc: ONE_X})
    assert power(L1, BL, 2) == make(L1, bottom_pair(), {cyc: ONE_X * ONE_X})
    assert power(T1, rep(W_PAIR), 5) == rep(W_PAIR)
    assert power(T1, A, 3) == make(T1, W_PAIR, {LOOP: ONE_X**3})
    with pytest.raises(IdealError):
        power(T1, A, 0)


def test_powers_of_nongraded_ideals_are_distinct(corpus):
    for g in corpus[:40]:
        for I in sample_ideal_family(g, lattice_of(g)):
            if I.is_graded:
                continue
            powers = [power(g, I, n) for n in range(1, 6)]
            assert len(set(powers)) == 5
            assert all(not p.is_graded for p in powers)


def test_limit_power(named):
    T1, A, _ = toeplitz_ideals(named)
    assert limit_power(T1, A) == rep(W_PAIR)
    L1 = named["L1"]
    cyc = exitless_cycles(L1)[0]
    assert limit_power(L1, make(L1, bottom_pair(), {cyc: ONE_X})) == zero_ideal()
    assert limit_power(T1, rep(W_PAIR)) == rep(W_PAIR)


def test_limit_power_is_contained_in_the_ideal(corpus):
    for g in corpus[:40]:
        for I in sample_ideal_family(g, lattice_of(g)):
            assert contains(g, I, limit_power(g, I))
            assert graded_part(limit_power(g, I)) == graded_part(I)


def test_is_prime_examples(named):
    L1, D2 = named["L1"], named["D2"]
    cyc = exitless_cycles(L1)[0]
    latL1, latD2 = lattice_of(L1), lattice_of(D2)
    assert is_prime(L1, latL1, make(L1, bottom_pair(), {cyc: ONE_X})).prime
    w = is_prime(L1, latL1, make(L1, bottom_pair(), {cyc: ONE_X * ONE_X}))
    assert not w.prime and w.reason == "reducible-polynomial"
    w = is_prime(D2, latD2, zero_ideal())
    assert not w.prime and w.reason == "lattice-meet-violation"
    assert w.witness == (AdmissiblePair.of({"v1"}, ()), AdmissiblePair.of({"v2"}, ()))
    with pytest.raises(IdealError):
        is_prime(L1, latL1, unit_ideal(L1))


def test_is_prime_multi_component_and_s_not_full(named):
    D2 = named["D2"]
    c1, c2 = exitless_cycles(D2)
    both = make(D2, bottom_pair(), {c1: ONE_X, c2: ONE_X})
    w = is_prime(D2, lattice_of(D2), both)
    assert not w.prime and w.reason == "proper-factorization-witness"
    w2 = is_prime(D2, lattice_of(D2), make(D2, AdmissiblePair.of({"v1"}, ()), {c2: ONE_X}))
    assert w2.prime  # S = B_H = empty, complement {v2} downward directed
    # breaking vertex left out of S: the component ideal cannot be prime
    from leavitt.graphs import Graph, OMEGA

    g = Graph(
        ["c1", "c2", "w", "h"],
        {("c1", "c2"): 1, ("c2", "c1"): 1, ("w", "h"): OMEGA, ("w", "c1"): 1},
    )
    pair = AdmissiblePair.of({"h"}, ())
    cyc = Cycle.from_vertices(["c1", "c2"])
    I = make(g, pair, {cyc: ONE_X})
    w3 = is_prime(g, lattice_of(g), I)
    assert not w3.prime and w3.reason == "S-not-full" and w3.witness == ("w",)
    full = make(g, AdmissiblePair.of({"h"}, {"w"}), {cyc: ONE_X})
    assert is_prime(g, lattice_of(g), full).prime


def test_prime_verdict_implies_quotient_downward_directed(corpus):
    # both directions on the built quotient graph: a meet-prime pair has a
    # downward directed quotient, and S = B_H over a downward directed
    # complement is meet-prime
    from leavitt.graphs import downward_directed
    from leavitt.ideals import _graded_prime_flags
    from leavitt.lattice import breaking_vertices

    from conftest import forks

    for g in corpus + [forks(3), loops(5)]:
        lat = lattice_of(g)
        flags = _graded_prime_flags(g, lat)  # raises if some m(j) has an undirected quotient
        for p in lat.pairs:
            q = quotient(g, p).graph
            directed = downward_directed(q, q.vertices).holds
            if flags[p]:
                assert directed, p
            if set(p.s) == breaking_vertices(g, p.h) and directed:
                assert flags[p], p


def test_is_maximal(named):
    T1, A, _ = toeplitz_ideals(named)
    latT1 = lattice_of(T1)
    assert is_maximal(T1, latT1, A)
    assert not is_maximal(T1, latT1, rep(W_PAIR))
    RR = named["RR"]
    assert is_maximal(RR, lattice_of(RR), rep(AdmissiblePair.of({"r1"}, ())))
    with pytest.raises(IdealError):
        is_maximal(T1, latT1, unit_ideal(T1))


def test_is_maximal_matches_the_built_quotient_graph(corpus):
    # maximal non-graded: S = B_H (no primed sink), one irreducible
    # component, and the quotient graph is exactly that cycle
    maximal = 0
    for g in corpus + [loops(k) for k in (1, 2, 3)]:
        lat = lattice_of(g)
        for I in sample_ideal_family(g, lat):
            if I.is_graded:
                continue
            q = quotient(g, I.graded)
            (cyc, p), *rest = I.components
            want = (
                not rest
                and not q.primed_vertices()
                and is_irreducible(p)
                and q.graph == Graph(cyc.vertices, {(e[0], e[1]): 1 for e in cyc.edges})
            )
            assert is_maximal(g, lat, I) == want, (dict(g.bundles), I)
            maximal += want
    assert maximal


def test_is_proper(named):
    T1 = named["T1"]
    assert is_proper(T1, zero_ideal())
    assert not is_proper(T1, unit_ideal(T1))


def test_power_of_graded_is_graded_and_conversely(corpus):
    for g in corpus[:40]:
        for I in sample_ideal_family(g, lattice_of(g)):
            for n in (2, 3):
                assert power(g, I, n).is_graded == I.is_graded
