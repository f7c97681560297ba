"""Decision procedures for the structure theorems on ideal intersections,
prime factorizations and powers.

Every procedure returns machine-checkable evidence (witness ideals, verified
families, equivalence reports) rather than a bare verdict, and re-verifies
its own output where the underlying theory predicts an identity; a failed
re-verification raises :class:`InternalInconsistencyError`.

The lattice questions are answered from Birkhoff's representation, which
:class:`PairLattice` keeps: the graded primes over an ideal are the m(j)
outside its down-set, its graded-prime factorization is the m(j) for the
minimal j outside, the maximal decomposition is checked as "J is an
antichain", and a non-graded prime over a component cycle c has one
candidate pair, the vertices that do not reach c.  What still walks the
pairs (the counterexample scan, the sampled family, the directedness of
every quotient) reads each pair's facts off its masks.  The whole-lattice
scans these replace live in :mod:`leavitt.oracles` as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import FactorizationError, IdealError, InternalInconsistencyError
from .graphs import Graph, condition_K
from .ideals import (
    IdealRep,
    contains,
    is_prime,
    limit_power,
    make,
    product,
    rep,
    unit_ideal,
    zero_ideal,
    _graded_prime_flags,
)
from .lattice import (
    AdmissiblePair,
    PairLattice,
    bottom_pair,
    _avoiding,
    _bits,
    _breaking_mask,
    _close,
    _mask,
    _ones,
)
from .laurent import QQ, LaurentPoly, factor


def graded_primes(g: Graph, lattice: PairLattice) -> List[AdmissiblePair]:
    """All proper lattice elements that name prime graded ideals, sorted.

    They are the meet-irreducibles m(j); the directedness cross-checks of
    :func:`_graded_prime_flags` run once per lattice.
    """
    _graded_prime_flags(g, lattice)
    return list(lattice.graded_primes)


@dataclass(frozen=True)
class PrimeFamily:
    """Finite description of the primes containing an ideal.

    ``nongraded`` lists only the primes that pin one of the ideal's component
    cycles (their polynomial divides that component); families with a free
    polynomial parameter are infinite and contribute nothing extra to the
    representable intersection.
    """

    graded: Tuple[AdmissiblePair, ...]
    nongraded: Tuple[IdealRep, ...]

    def all_reps(self) -> List[IdealRep]:
        return [rep(p) for p in self.graded] + list(self.nongraded)

    def __len__(self):
        return len(self.graded) + len(self.nongraded)


def primes_containing(g: Graph, lattice: PairLattice, I: IdealRep) -> PrimeFamily:
    """All representable primes containing a proper ideal I, read from J.

    Graded: the graded primes are the m(j) (:attr:`PairLattice.graded_primes`),
    and m(j) lies over I's graded part iff j is not in D(I).  It contains I
    iff its H also holds every component cycle of I.

    Non-graded: a prime (H, S; (c, f)) over I pins a component cycle c of I,
    has S = B_H, f irreducible, and the vertices outside H downward directed.
    Then H is H_c, the vertices that do not reach c: a vertex of H reaching c
    would pull c into H, and one outside H missing c would have no common
    lower bound with c, which has no exit outside H.  So each component has
    one candidate pair, (H_c, B_{H_c}), and one ``_h_facts`` lookup decides
    its directedness and exitless cycles.  The candidate (H_c, B_{H_c}; (c, f))
    is kept for each irreducible factor f of c's polynomial when I's graded
    part lies below the pair, c is an exitless cycle of its quotient, the
    quotient is downward directed and the candidate contains I.  The pair
    scan this replaces is :func:`leavitt.oracles.primes_containing_by_scan`.
    """
    d = lattice.down_set(I.graded)
    masks = lattice._masks
    holds = [_mask(g, cyc.vertices) for cyc, _ in I.components]
    graded = tuple(
        lattice.pairs[i]
        for i in sorted(
            i for j, i in enumerate(lattice.meet_irreducibles)
            if not d >> j & 1 and not any(c & ~masks[i][0] for c in holds)
        )
    )
    index = _bits(g)[0]
    nongraded: List[IdealRep] = []
    for cyc, poly in I.components:
        h = _avoiding(g, index[cyc.vertices[0]])
        i = lattice._member((h, _breaking_mask(g, h)), lambda: f"the prime pair over {cyc}")
        pair = lattice.pairs[i]
        if not I.graded.le(pair):
            continue
        directed, exitless = lattice.quotient_facts(i)
        if not directed or cyc not in exitless:
            continue
        for f in factor(poly):
            cand = IdealRep(pair, ((cyc, f.unit_free()),))
            if contains(g, cand, I):
                nongraded.append(cand)
    nongraded.sort(key=IdealRep.sort_key)
    return PrimeFamily(graded, tuple(nongraded))


def family_intersection(g: Graph, lattice: PairLattice, primes: Sequence[IdealRep]) -> IdealRep:
    """Exact intersection of a family of representable primes over one ideal.

    The graded part is the lattice meet of the members' pairs; each cycle
    pinned by some member keeps the product of the distinct irreducible
    polynomials pinned to it.  The empty family intersects to the whole
    algebra.
    """
    if not primes:
        return unit_ideal(g)
    pair = lattice.meet_all(p.graded for p in primes)
    buckets: Dict = {}
    for P in primes:
        for cyc, f in P.components:
            buckets.setdefault(cyc, [])
            if f not in buckets[cyc]:
                buckets[cyc].append(f)
    comps = {}
    for cyc, fs in buckets.items():
        poly = fs[0]
        for f in fs[1:]:
            poly = poly * f
        comps[cyc] = poly
    try:
        return make(g, pair, comps)
    except IdealError as e:
        raise InternalInconsistencyError(
            f"the intersection of a prime family is not representable: {e}"
        ) from e


@dataclass(frozen=True)
class IntersectionReport:
    result: IdealRep
    equals_input: bool
    primes: PrimeFamily


def intersection_of_primes(g: Graph, lattice: PairLattice, I: IdealRep) -> IntersectionReport:
    """Intersection of all representable primes containing I, with verification.

    The result is checked to contain I and to be contained in every listed
    prime; ``equals_input`` records whether the intersection reproduces I
    exactly.
    """
    fam = primes_containing(g, lattice, I)
    reps = fam.all_reps()
    result = family_intersection(g, lattice, reps)
    for P in reps:
        if not contains(g, P, result):
            raise InternalInconsistencyError(
                f"prime intersection {result} is not inside the prime {P}"
            )
    if not contains(g, result, I):
        raise InternalInconsistencyError(f"prime intersection {result} does not contain {I}")
    return IntersectionReport(result, result == I, fam)


def standard_test_polys(fld=QQ) -> Tuple[LaurentPoly, ...]:
    """The fixed polynomial set used to sample non-graded ideals."""
    one_x = LaurentPoly.from_coeffs(fld, [1, 1])
    one_x2 = LaurentPoly.from_coeffs(fld, [1, 0, 1])
    return (one_x, one_x * one_x, one_x2, one_x * one_x2)


def sample_ideal_family(g: Graph, lattice: PairLattice, fld=QQ) -> Iterator[IdealRep]:
    """Proper lattice ideals plus sampled non-graded ideals, generated lazily.

    For every pair whose quotient has an exitless cycle, one ideal per cycle
    and test polynomial is generated; on graphs satisfying Condition (K) the
    family is exactly the proper graded lattice.  Members are built as they
    are drawn, so a caller that stops at its first failure builds no more.
    The exitless cycles are read off each pair's masks.
    """
    for p in lattice.proper():
        yield rep(p)
    seen = set()
    for i, pair in enumerate(lattice.pairs):
        for cyc in lattice.quotient_facts(i)[1]:
            for poly in standard_test_polys(fld):
                I = IdealRep(pair, ((cyc, poly.unit_free()),))
                if I not in seen:
                    seen.add(I)
                    yield I


@dataclass(frozen=True)
class KEquivalenceReport:
    condition_k: bool
    all_intersections_exact: bool
    equivalent: bool
    tested: int
    counterexample: Optional[IdealRep]


def condition_K_equivalence(g: Graph, lattice: PairLattice, fld=QQ) -> KEquivalenceReport:
    """Condition (K) versus 'every ideal is an intersection of primes'.

    Condition (K) is decided directly on the graph; the intersection property
    is checked over the sampled ideal family.  The two verdicts must agree.
    """
    k = condition_K(g).holds
    counterexample = None
    tested = 0
    for I in sample_ideal_family(g, lattice, fld):
        tested += 1
        if not intersection_of_primes(g, lattice, I).equals_input:
            counterexample = I
            break
    all_exact = counterexample is None
    return KEquivalenceReport(k, all_exact, k == all_exact, tested, counterexample)


def prime_intersection_counterexample(g: Graph, lattice: PairLattice, fld=QQ) -> Optional[IdealRep]:
    """An ideal that is provably not an intersection of primes, if one exists.

    Built as (H, S, {(c, (1+x)^2)}) on the first quotient exitless cycle, the
    pairs scanned in lattice order by their masks, and verified through
    :func:`intersection_of_primes`; no such ideal exists exactly when the
    graph satisfies Condition (K).
    """
    one_x = LaurentPoly.from_coeffs(fld, [1, 1])
    for i, pair in enumerate(lattice.pairs):
        cycles = lattice.quotient_facts(i)[1]
        if not cycles:
            continue
        I = IdealRep(pair, ((cycles[0], (one_x * one_x).unit_free()),))
        if intersection_of_primes(g, lattice, I).equals_input:
            raise InternalInconsistencyError(
                f"{I} is an intersection of primes although its cycle has no exits"
            )
        if condition_K(g).holds:
            raise InternalInconsistencyError(
                "Condition (K) holds but a quotient graph has an exitless cycle"
            )
        return I
    if not condition_K(g).holds:
        raise InternalInconsistencyError(
            "Condition (K) fails but no quotient graph has an exitless cycle"
        )
    return None


def irredundant_prime_intersection(
    g: Graph, lattice: PairLattice, I: IdealRep
) -> Optional[Tuple[IdealRep, ...]]:
    """A minimal finite family of primes intersecting exactly to I, if any.

    Starts from the primes minimal under containment and greedily removes
    members (in sorted order) whose omission keeps the intersection equal to
    I; returns None when no representable finite family meets I exactly.
    """
    reps = primes_containing(g, lattice, I).all_reps()
    if not reps or family_intersection(g, lattice, reps) != I:
        return None
    minimal = [
        P
        for P in reps
        if not any(Q != P and contains(g, P, Q) for Q in reps)
    ]
    minimal.sort(key=IdealRep.sort_key)
    if family_intersection(g, lattice, minimal) != I:
        raise InternalInconsistencyError("minimal primes lost the intersection")
    changed = True
    while changed:
        changed = False
        for P in list(minimal):
            rest = [Q for Q in minimal if Q != P]
            if rest and family_intersection(g, lattice, rest) == I:
                minimal.remove(P)
                changed = True
                break
    return tuple(minimal)


def _is_irredundant(g: Graph, lattice: PairLattice, fam: Sequence[IdealRep]) -> bool:
    whole = family_intersection(g, lattice, fam)
    if len(fam) == 1:
        return True
    for P in fam:
        rest = [Q for Q in fam if Q != P]
        if family_intersection(g, lattice, rest) == whole:
            return False
    return True


def uniqueness_check(
    g: Graph,
    lattice: PairLattice,
    first: Sequence[IdealRep],
    second: Sequence[IdealRep],
) -> bool:
    """Set equality of two irredundant prime decompositions of the same ideal."""
    for fam in (first, second):
        if not fam:
            raise IdealError("empty prime family")
        if not _is_irredundant(g, lattice, fam):
            raise IdealError("family is not irredundant")
    if family_intersection(g, lattice, first) != family_intersection(g, lattice, second):
        raise IdealError("the two families have different intersections")
    return set(first) == set(second)


def factor_graded(g: Graph, lattice: PairLattice, I: IdealRep) -> Tuple[AdmissiblePair, ...]:
    """Irredundant graded-prime factorization of a proper graded ideal.

    The graded primes over I are the m(j) for j outside D(I), and m(j) lies
    below m(k) iff j <= k.  So the minimal ones are the m(j) for j minimal
    in J minus D(I); their down-sets meet in D(I), and none can be dropped,
    so they are the unique irredundant factorization.  The product of the
    returned primes (in any order) equals their meet, which is checked to
    equal I; the improper ideal raises :class:`FactorizationError`.  The
    greedy search this replaces is :func:`leavitt.oracles.factor_graded_by_search`.
    """
    if not I.is_graded:
        raise IdealError("factor_graded expects a graded ideal")
    d = lattice.down_set(I.graded)
    below = lattice._birkhoff[1]
    minimal = [
        lattice.pairs[i]
        for i in sorted(
            i for j, i in enumerate(lattice.meet_irreducibles)
            if not d >> j & 1 and not below[j] & ~d
        )
    ]
    if not minimal:
        raise FactorizationError(f"no finite graded-prime factorization of {I}")
    prod = rep(minimal[0])
    for p in minimal[1:]:
        prod = product(g, prod, rep(p))
    if prod != I:
        raise InternalInconsistencyError(
            f"graded-prime product {prod} does not reproduce {I}"
        )
    return tuple(minimal)


def tight_product_check(g: Graph, factors: Sequence[IdealRep]) -> bool:
    """Pairwise non-containment of the factors of a product."""
    if not factors:
        raise IdealError("empty factor list")
    for i, a in enumerate(factors):
        for j, b in enumerate(factors):
            if i != j and contains(g, b, a):
                return False
    return True


@dataclass(frozen=True)
class EverythingPrimeReport:
    all_ideals_prime: bool
    graph_criterion: bool
    graded_chain: bool
    details: Dict[str, bool] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        return self.all_ideals_prime == self.graph_criterion == self.graded_chain


def everything_prime_check(g: Graph, lattice: PairLattice, fld=QQ) -> EverythingPrimeReport:
    """The three equivalent faces of 'every ideal is prime'.

    (a) every proper ideal of the sampled universe is prime; (b) Condition
    (K) together with a chain lattice, at most one breaking vertex per H,
    and downward directed quotient vertex sets; (c) Condition (K) and the
    graded ideals forming a chain.
    """
    k = condition_K(g).holds
    chain = lattice.is_chain
    small_b = all(_breaking_mask(g, h).bit_count() <= 1 for h, s in lattice._masks if not s)
    quots_dd = all(lattice.quotient_facts(i)[0] for i in range(len(lattice)))
    criterion = k and chain and small_b and quots_dd
    chain_verdict = k and chain
    all_prime = True
    for I in sample_ideal_family(g, lattice, fld):
        if not is_prime(g, lattice, I).prime:
            all_prime = False
            break
    return EverythingPrimeReport(
        all_prime,
        criterion,
        chain_verdict,
        {"condition_k": k, "chain": chain, "breaking_small": small_b, "quotients_dd": quots_dd},
    )


def prime_always_exists(g: Graph, lattice: PairLattice) -> AdmissiblePair:
    """A prime graded ideal; guaranteed to exist for every graph.

    Under Condition (K) the first graded prime is returned; otherwise H is
    the set of vertices that do not reach the Condition (K) witness, whose
    complement is downward directed, and (H, B_H) is prime: the candidate
    pair :func:`primes_containing` takes for a cycle through the witness.
    """
    k = condition_K(g)
    if k.holds:
        primes = graded_primes(g, lattice)
        if not primes:
            raise InternalInconsistencyError("Condition (K) holds but no graded prime exists")
        return primes[0]
    h = _avoiding(g, _bits(g)[0][k.witness])
    i = lattice._member((h, _breaking_mask(g, h)), lambda: f"the prime pair avoiding {k.witness}")
    pair = lattice.pairs[i]
    if not is_prime(g, lattice, rep(pair)).prime:
        raise InternalInconsistencyError(f"constructed pair {pair} is not prime")
    return pair


def count_ideals(g: Graph, lattice: PairLattice):
    """Number of ideals: the lattice size under Condition (K), else infinite."""
    if condition_K(g).holds:
        return len(lattice)
    return math.inf


def maximal_decomposition(g: Graph, lattice: PairLattice) -> Optional[List[Tuple[str, ...]]]:
    """Partition of the vertices into minimal hereditary saturated blocks.

    Exists exactly when every ideal is an intersection of maximal ideals:
    Condition (K) holds and the minimal nonempty hereditary saturated sets
    partition the vertex set.  Every nonempty hereditary saturated set holds
    close({v}) for each of its vertices v, so those minimal sets are the
    minimal single-vertex closures.

    On success it is verified that every lattice element is the meet of the
    maximal graded ideals above it.  In a distributive lattice that holds
    iff every meet-irreducible m(j) is a maximal graded ideal: J is an
    antichain, so every m(j) is a coatom, and no coatom's quotient has an
    exitless cycle.  The per-pair meets this replaces are
    :func:`leavitt.oracles.maximal_decomposition_by_scan`.
    """
    if not condition_K(g).holds:
        return None
    closures = {_close(g, 1 << i) for i in range(len(g.vertices))}
    atoms = [a for a in closures if not any(b != a and not b & ~a for b in closures)]
    union = 0
    for a in atoms:
        if union & a:
            return None
        union |= a
    if union != (1 << len(g.vertices)) - 1:
        return None
    maximals = lattice.maximal_graded
    if not lattice.is_antichain or len(maximals) != len(lattice.graded_primes):
        p = next(p for p in lattice.graded_primes if p not in maximals)
        raise InternalInconsistencyError(f"{p} is not the meet of the maximal ideals above it")
    return sorted(tuple(g.vertices[i] for i in _ones(a)) for a in atoms)


def krull_check(g: Graph, I: IdealRep) -> bool:
    """Whether the powers of I intersect to zero: exactly when I has no vertices."""
    vanishes = limit_power(g, I) == zero_ideal()
    no_vertices = I.graded == bottom_pair()
    if vanishes != no_vertices:
        raise InternalInconsistencyError(
            "limit of powers vanishes but the ideal contains vertices (or conversely)"
        )
    return vanishes
