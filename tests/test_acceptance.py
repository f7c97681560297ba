"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (no tolerances: all arithmetic is exact rational or
prime-field); the timed criteria assert their stated budgets.
"""

import functools
import math
import random
import time

from leavitt.graphs import Cycle
from leavitt.ideals import (
    contains,
    graded_part,
    intersect,
    is_maximal,
    is_prime,
    limit_power,
    make,
    power,
    product,
    rep,
    zero_ideal,
)
from leavitt.lattice import AdmissiblePair, bottom_pair, enumerate_hs
from leavitt.laurent import GF, QQ, LaurentPoly, factor, parse_poly
from leavitt.oracles import SearchLattice, acyclic_sink_lattice, brute_hs, laurent_model
from leavitt.theorems import (
    condition_K_equivalence,
    count_ideals,
    everything_prime_check,
    factor_graded,
    intersection_of_primes,
    irredundant_prime_intersection,
    krull_check,
    maximal_decomposition,
    prime_always_exists,
    prime_intersection_counterexample,
    sample_ideal_family,
    tight_product_check,
    uniqueness_check,
)

from conftest import lattice_of, random_dag
from test_oracles import trial_division_factor

ONE_X = parse_poly(QQ, "1+x")
ONE_X2 = parse_poly(QQ, "1+x^2")
LOOP = Cycle.from_vertices(["v"])
W_PAIR = AdmissiblePair.of({"w"}, ())


def _verdict(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return run

    return wrap


@_verdict(1, "single-loop model: squared ideal is not a prime intersection")
def test_criterion_1_single_loop(named):
    start = time.monotonic()
    L1 = named["L1"]
    lat = lattice_of(L1)
    sq = make(L1, bottom_pair(), {LOOP: ONE_X * ONE_X})
    report = intersection_of_primes(L1, lat, sq)
    assert report.result == make(L1, bottom_pair(), {LOOP: ONE_X})
    assert report.equals_input is False
    rng = random.Random(1001)
    polys = []
    while len(polys) < 50:
        f = LaurentPoly.from_coeffs(QQ, [rng.randint(-3, 3) for _ in range(5)])
        if not f.is_zero and f.canon().degree >= 1:
            polys.append(f)
    model = laurent_model(L1, polys)
    assert model.ok, model.mismatches
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"single-loop replay took {elapsed:.1f}s"


@_verdict(2, "Toeplitz: A & B, maximality, irredundant decomposition")
def test_criterion_2_toeplitz(named):
    T1 = named["T1"]
    lat = lattice_of(T1)
    A = make(T1, W_PAIR, {LOOP: ONE_X})
    B = make(T1, W_PAIR, {LOOP: ONE_X2})
    I = intersect(T1, A, B)
    assert I == make(T1, W_PAIR, {LOOP: ONE_X * ONE_X2})
    for P in (A, B):
        assert is_maximal(T1, lat, P)
        assert is_prime(T1, lat, P).prime
    assert irredundant_prime_intersection(T1, lat, I) == (A, B)
    assert graded_part(A) == W_PAIR


@_verdict(3, "Condition (K) is equivalent to every ideal being a prime intersection")
def test_criterion_3_k_equivalence(corpus):
    for g in corpus:
        lat = lattice_of(g)
        report = condition_K_equivalence(g, lat)
        assert report.equivalent, f"{g}: {report}"
        counterexample = prime_intersection_counterexample(g, lat)
        assert (counterexample is None) == report.condition_k
        if counterexample is not None:
            assert not intersection_of_primes(g, lat, counterexample).equals_input


@_verdict(4, "everything-prime verdicts (a)=(b)=(c) on the whole corpus")
def test_criterion_4_everything_prime(corpus, named):
    for g in corpus:
        assert everything_prime_check(g, lattice_of(g)).agree
    c2 = everything_prime_check(named["C2"], lattice_of(named["C2"]))
    assert c2.all_ideals_prime and c2.graph_criterion and c2.graded_chain
    assert len(lattice_of(named["C2"])) == 3
    for name in ("D2", "T1"):
        r = everything_prime_check(named[name], lattice_of(named[name]))
        assert not (r.all_ideals_prime or r.graph_criterion or r.graded_chain)


@_verdict(5, "finitely many ideals exactly under Condition (K)")
def test_criterion_5_count_ideals(corpus, named):
    from leavitt.graphs import condition_K

    for g in corpus:
        n = count_ideals(g, lattice_of(g))
        if condition_K(g).holds:
            assert n == len(lattice_of(g))
        else:
            assert math.isinf(n)
    assert count_ideals(named["C2"], lattice_of(named["C2"])) == 3


@_verdict(6, "maximal decomposition on the disjoint roses, none on Toeplitz")
def test_criterion_6_maximal_decomposition(named):
    RR, T1 = named["RR"], named["T1"]
    lat = lattice_of(RR)
    blocks = maximal_decomposition(RR, lat)
    assert blocks == [("r1",), ("r2",)]
    maximals = [p for p in lat.proper() if is_maximal(RR, lat, rep(p))]
    assert len(maximals) == 2
    met = lat.meet(*maximals)
    assert rep(met) == zero_ideal()
    assert product(RR, rep(maximals[0]), rep(maximals[1])) == zero_ideal()
    for p in lat.pairs:
        above = [m for m in maximals if p.le(m)]
        assert lat.meet_all(above) == p
    assert maximal_decomposition(T1, lattice_of(T1)) is None


@_verdict(7, "graded factorizations: product = meet = ideal, unique, order-free")
def test_criterion_7_factorization_uniqueness(corpus, named):
    rng = random.Random(7007)
    for g in corpus:
        lat = lattice_of(g)
        for pair in lat.proper():
            try:
                factors = factor_graded(g, lat, rep(pair))
            except Exception as e:
                from leavitt.errors import FactorizationError

                assert isinstance(e, FactorizationError)
                continue
            assert lat.meet_all(factors) == pair
            assert tight_product_check(g, [rep(p) for p in factors])
            for q in factors:
                rest = [r for r in factors if r != q]
                assert not rest or lat.meet_all(rest) != pair  # irredundant
            orders = 100 if len(factors) > 1 else 1
            for _ in range(orders):
                shuffled = list(factors)
                rng.shuffle(shuffled)
                prod = rep(shuffled[0])
                for q in shuffled[1:]:
                    prod = product(g, prod, rep(q))
                assert prod == rep(pair)
    # tight products of distinct irreducible-polynomial primes over the loop
    L1 = named["L1"]
    latL1 = lattice_of(L1)
    irreducibles = [parse_poly(QQ, t) for t in ("1+x", "1+x^2", "1+x+x^2")]
    primes = [make(L1, bottom_pair(), {LOOP: f}) for f in irreducibles]
    for i in range(len(primes)):
        for j in range(len(primes)):
            if i == j:
                continue
            assert tight_product_check(L1, [primes[i], primes[j]])
            left = product(L1, primes[i], primes[j])
            right = product(L1, primes[j], primes[i])
            assert left == right
            assert uniqueness_check(L1, latL1, [primes[i], primes[j]], [primes[j], primes[i]])
    assert product(L1, primes[0], primes[1]) != product(L1, primes[0], primes[2])


@_verdict(8, "powers of non-graded ideals stay distinct; Krull criterion exact")
def test_criterion_8_powers_and_krull(corpus):
    for g in corpus:
        lat = lattice_of(g)
        for I in sample_ideal_family(g, lat):
            assert limit_power(g, I) == rep(graded_part(I))
            assert contains(g, I, limit_power(g, I))
            assert krull_check(g, I) == (graded_part(I) == bottom_pair())
            if I.is_graded:
                continue
            powers = [power(g, I, n) for n in range(1, 6)]
            assert len(set(powers)) == 5
            for p in powers:
                assert not p.is_graded


@_verdict(9, "oracle agreement: subsets, DAG sinks, meets, prime-field factors")
def test_criterion_9_oracles(corpus):
    start = time.monotonic()
    for g in corpus:
        assert enumerate_hs(g) == brute_hs(g)
    rng = random.Random(4242)
    from leavitt.graphs import Graph, OMEGA

    for _ in range(12):
        n = rng.randint(9, 12)
        vs = [f"n{i}" for i in range(n)]
        bundles = {}
        for v in vs:
            for w in vs:
                if rng.random() < 0.18:
                    bundles[(v, w)] = rng.choice([1, 2, OMEGA])
        g = Graph(vs, bundles)
        assert enumerate_hs(g) == brute_hs(g)
    dag_rng = random.Random(777)
    for _ in range(100):
        report = acyclic_sink_lattice(random_dag(dag_rng))
        assert report.ok, report.message
    for g in corpus:
        lat = lattice_of(g)
        ref = SearchLattice(lat)
        for a in lat.pairs:
            for b in lat.pairs:
                assert graded_part(intersect(g, rep(a), rep(b))) == ref.meet(a, b)
    poly_rng = random.Random(97)
    for p in (2, 3, 5):
        fld = GF(p)
        for _ in range(40):
            deg = poly_rng.randint(1, 6)
            coeffs = [poly_rng.randrange(p) for _ in range(deg)] + [poly_rng.randrange(1, p)]
            f = LaurentPoly.from_coeffs(fld, coeffs)
            if f.is_zero or f.canon().is_unit:
                continue
            assert factor(f) == trial_division_factor(fld, f)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


@_verdict(10, "a prime ideal exists and verifies on every corpus graph")
def test_criterion_10_prime_existence(corpus):
    for g in corpus:
        lat = lattice_of(g)
        pair = prime_always_exists(g, lat)
        assert is_prime(g, lat, rep(pair)).prime
