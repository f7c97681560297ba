"""Decision procedures for the structure theorems on ideal intersections,
prime factorizations and powers.

Every procedure returns machine-checkable evidence (witness ideals, verified
families, equivalence reports) rather than a bare verdict, and re-verifies
its own output where the underlying theory predicts an identity; a failed
re-verification raises :class:`InternalInconsistencyError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import FactorizationError, IdealError, InternalInconsistencyError
from .graphs import Graph, condition_K, reaches
from .ideals import (
    IdealRep,
    contains,
    is_prime,
    is_maximal,
    limit_power,
    make,
    product,
    rep,
    unit_ideal,
    zero_ideal,
    _directed_complement,
    _graded_prime_flags,
)
from .lattice import (
    AdmissiblePair,
    PairLattice,
    admissible_pair,
    bottom_pair,
    breaking_vertices,
    quotient,
)
from .laurent import QQ, LaurentPoly, factor


def graded_primes(g: Graph, lattice: PairLattice) -> List[AdmissiblePair]:
    """All proper lattice elements that name prime graded ideals, sorted."""
    flags = _graded_prime_flags(g, lattice)
    return [p for p in lattice.proper() if flags[p]]


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
    """All representable primes containing a proper ideal I."""
    flags = _graded_prime_flags(g, lattice)
    graded = tuple(
        p for p in lattice.proper() if flags[p] and contains(g, rep(p), I)
    )
    nongraded: List[IdealRep] = []
    if I.components:
        # a candidate (pair; cyc, f) has S = B_H, one component and f
        # irreducible, so is_prime would only test the directedness of the
        # vertices outside H: factor each component and test each pair once
        factors = {cyc: tuple(factor(p_c)) for cyc, p_c in I.components}
        for pair in lattice.proper():
            if pair.s_set != breaking_vertices(g, pair.h_set):
                continue
            if not I.graded.le(pair):
                continue
            directed = None
            for cyc in quotient(g, pair).exitless:
                for f in factors.get(cyc, ()):
                    cand = make(g, pair, {cyc: f})
                    if not contains(g, cand, I):
                        continue
                    if directed is None:
                        directed = _directed_complement(g, pair).prime
                    if directed:
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
    """
    for p in lattice.proper():
        yield rep(p)
    seen = set()
    for pair in lattice.pairs:
        for cyc in quotient(g, pair).exitless:
            for poly in standard_test_polys(fld):
                I = make(g, pair, {cyc: poly})
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

    Built as (H, S, {(c, (1+x)^2)}) on the first quotient exitless cycle and
    verified through :func:`intersection_of_primes`; no such ideal exists
    exactly when the graph satisfies Condition (K).
    """
    one_x = LaurentPoly.from_coeffs(fld, [1, 1])
    for pair in lattice.pairs:
        cycles = quotient(g, pair).exitless
        if not cycles:
            continue
        I = make(g, pair, {cycles[0]: one_x * one_x})
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

    The product of the returned primes (in any order) equals their meet,
    which equals I; raises :class:`FactorizationError` when no finite family
    of graded primes meets I exactly.
    """
    if not I.is_graded:
        raise IdealError("factor_graded expects a graded ideal")
    flags = _graded_prime_flags(g, lattice)
    over = [p for p in lattice.proper() if flags[p] and I.graded.le(p)]
    minimal = [p for p in over if not any(q != p and q.le(p) for q in over)]
    minimal.sort()
    if not minimal or lattice.meet_all(minimal) != I.graded:
        raise FactorizationError(f"no finite graded-prime factorization of {I}")
    changed = True
    while changed:
        changed = False
        for p in list(minimal):
            rest = [q for q in minimal if q != p]
            if rest and lattice.meet_all(rest) == I.graded:
                minimal.remove(p)
                changed = True
                break
    prod = rep(minimal[0])
    for p in minimal[1:]:
        prod = product(g, prod, rep(p))
    if prod != I:
        raise InternalInconsistencyError(
            f"graded-prime product {prod} does not reproduce {I}"
        )
    return tuple(minimal)


def tight_product_check(g: Graph, factors: Sequence[IdealRep]) -> bool:
    """Pairwise non-containment of the factors of a supported product."""
    if not factors:
        raise IdealError("empty factor list")
    prod = factors[0]
    for f in factors[1:]:
        prod = product(g, prod, f)
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
    # a finite lattice is a chain exactly when no element has two upper covers
    chain = all(len(lattice.upper_covers(p)) <= 1 for p in lattice.pairs)
    small_b = all(len(breaking_vertices(g, H)) <= 1 for H in lattice.hs_sets)
    quots_dd = all(quotient(g, p).directed for p in lattice.pairs)
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
    complement is downward directed, and (H, B_H) is prime.
    """
    k = condition_K(g)
    if k.holds:
        primes = graded_primes(g, lattice)
        if not primes:
            raise InternalInconsistencyError("Condition (K) holds but no graded prime exists")
        return primes[0]
    v = k.witness
    H = frozenset(u for u in g.vertices if not reaches(g, u, v))
    pair = admissible_pair(g, H, breaking_vertices(g, H))
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
    partition the vertex set.  On success it is verified that every lattice
    element is the meet of the maximal graded ideals above it.
    """
    if not condition_K(g).holds:
        return None
    hs = [h for h in lattice.hs_sets if h]
    atoms = [h for h in hs if not any(other and other < h for other in hs)]
    union = set()
    for a in atoms:
        if union & a:
            return None
        union |= a
    if union != set(g.vertices):
        return None
    maximals = [p for p in lattice.proper() if is_maximal(g, lattice, rep(p))]
    for p in lattice.pairs:
        above = [m for m in maximals if p.le(m)]
        if lattice.meet_all(above) != p:
            raise InternalInconsistencyError(
                f"{p} is not the meet of the maximal ideals above it"
            )
    return sorted(tuple(sorted(a)) for a in atoms)


def krull_check(g: Graph, I: IdealRep) -> bool:
    """Whether the powers of I intersect to zero: exactly when I has no vertices."""
    vanishes = limit_power(g, I) == zero_ideal()
    no_vertices = I.graded == bottom_pair()
    if vanishes != no_vertices:
        raise InternalInconsistencyError(
            "limit of powers vanishes but the ideal contains vertices (or conversely)"
        )
    return vanishes
