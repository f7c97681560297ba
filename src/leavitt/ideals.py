"""Canonical two-sided ideal representations and their calculus.

Every ideal is named by its largest graded part, an admissible pair (H, S),
plus finitely many components (c, p): c an exitless cycle of the quotient
graph by (H, S) and p a canonical polynomial with nonzero constant term and
degree at least one.  The ideal is graded iff it has no components.

Containment, intersection, product, powers and the prime/maximal tests all
work on this representation.  By the structure theorem for ideals
(Rangaswamy, J. Algebra 375, 2013; Abrams, Ara & Siles Molina, *Leavitt Path
Algebras*, LNM 2191, ch. 2) every ideal has exactly one such name, so
intersections and products are computed for every pair of ideals.

The graded part is carried by name, for the public API and JSON; every test
on it reads its ``(h, s)`` vertex masks from :func:`leavitt.lattice._pair_masks`,
which validates the pair once per graph, and the quotient facts from
:func:`leavitt.lattice._quotient_facts`.  Only :func:`is_maximal` builds a
quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import IdealError, InternalInconsistencyError
from .graphs import Cycle, Graph, _bits, downward_directed
from .laurent import LaurentPoly, divides, factor, is_irreducible, poly_lcm
from .lattice import (
    AdmissiblePair,
    PairLattice,
    bottom_pair,
    quotient,
    top_pair,
    _breaking_mask,
    _meet_masks,
    _pair,
    _pair_masks,
    _quotient_facts,
    _vertices,
)

Component = Tuple[Cycle, LaurentPoly]


@dataclass(frozen=True)
class IdealRep:
    """Canonical name of a two-sided ideal: graded pair plus cycle components."""

    graded: AdmissiblePair
    components: Tuple[Component, ...] = ()

    @property
    def is_graded(self) -> bool:
        return not self.components

    @property
    def field(self):
        return self.components[0][1].field if self.components else None

    def component_map(self) -> Dict[Cycle, LaurentPoly]:
        return dict(self.components)

    def sort_key(self):
        return (
            self.graded,
            tuple((c.edges, p.sort_key()) for c, p in self.components),
        )

    def label(self) -> str:
        if self.is_graded:
            return "I" + self.graded.label()
        comps = ", ".join(f"({'->'.join(c.vertices)}, {p})" for c, p in self.components)
        return f"I({self.graded.label()}; {comps})"

    def __repr__(self):
        return self.label()


def rep(pair: AdmissiblePair) -> IdealRep:
    """The graded ideal named by an admissible pair."""
    return IdealRep(pair, ())


def zero_ideal() -> IdealRep:
    return IdealRep(bottom_pair(), ())


def unit_ideal(g: Graph) -> IdealRep:
    return IdealRep(top_pair(g), ())


def is_proper(g: Graph, I: IdealRep) -> bool:
    """Whether I is not the whole algebra: the top pair is (all vertices, {})."""
    return I.graded.h != g.vertices or bool(I.graded.s)


def make(
    g: Graph,
    pair: AdmissiblePair,
    components: Union[Mapping[Cycle, LaurentPoly], Iterable[Component]] = (),
) -> IdealRep:
    """Validated canonical ideal representation.

    Polynomials are replaced by their unit-free canonical associates; each
    component cycle must be an exitless cycle of the quotient graph by the
    pair, and the polynomial must have degree at least one.
    """
    h, s = _pair_masks(g, pair)
    items = components.items() if isinstance(components, Mapping) else list(components)
    exitless = _quotient_facts(g, h, s)[1] if items else ()
    cleaned = []
    field = None
    for cyc, p in items:
        if not isinstance(cyc, Cycle):
            raise IdealError(f"component key {cyc!r} is not a cycle")
        if p.is_zero:
            raise IdealError("component polynomial is zero")
        if field is None:
            field = p.field
        elif p.field != field:
            raise IdealError("components mix coefficient fields")
        p = p.unit_free()
        if p.degree < 1:
            raise IdealError(f"component polynomial {p} is a unit; degree >= 1 required")
        if cyc not in exitless:
            raise IdealError(
                f"cycle {'->'.join(cyc.vertices)} is not an exitless cycle of the "
                f"quotient graph by {pair}"
            )
        cleaned.append((cyc, p))
    keys = [c for c, _ in cleaned]
    if len(set(keys)) != len(keys):
        raise IdealError("duplicate component cycle")
    cleaned.sort(key=lambda cp: cp[0].edges)
    return IdealRep(pair, tuple(cleaned))


def graded_part(I: IdealRep) -> AdmissiblePair:
    """The admissible pair of the largest graded ideal contained in I."""
    return I.graded


def _check_fields(I: IdealRep, J: IdealRep):
    if I.components and J.components and I.field != J.field:
        raise IdealError("ideals use different coefficient fields")


def contains(g: Graph, I: IdealRep, J: IdealRep) -> bool:
    """True iff J is contained in I.

    Requires graded(J) <= graded(I) in the mask order, and each component
    (c, p) of J either lies in H_I or is matched by a component (c, q) of I
    with q dividing p.  H_I is hereditary, so c lies in it as soon as one
    vertex of c does.
    """
    _check_fields(I, J)
    h_i, s_i = _pair_masks(g, I.graded)
    h_j, s_j = _pair_masks(g, J.graded)
    if h_j & ~h_i or s_j & ~(h_i | s_i):
        return False
    index = _bits(g)[0]
    comp_i = I.component_map()
    for cyc, p in J.components:
        if h_i >> index[cyc.vertices[0]] & 1:
            continue
        q = comp_i.get(cyc)
        if q is None or not divides(q, p):
            return False
    return True


def _combine(g: Graph, I: IdealRep, J: IdealRep, merge) -> IdealRep:
    """I and J combined cycle by cycle; ``merge`` joins two polynomials.

    The graded part is the meet (h, s) of the two graded parts: it is the
    largest graded ideal in I & J, and in IJ too, since graded ideals
    multiply as they intersect.  On each exitless cycle c of the quotient by
    (h, s) an ideal K takes the value 1 when c lies in H_K, p when (c, p) is
    a component of K, and 0 otherwise.  A merge with 1 gives the other
    value, and a 0 drops c.  c lies outside h, so some side's H misses it
    and takes the value p or 0 there: only the two sides' component cycles
    can be kept, and two graded ideals combine to a graded one.  The cycles
    are walked in canonical order, so the result is canonical as built.
    """
    _check_fields(I, J)
    ma, mb = _pair_masks(g, I.graded), _pair_masks(g, J.graded)
    m = h, s = _meet_masks(g, ma, mb)
    pair = I.graded if m == ma else J.graded if m == mb else _pair(g, h, s)
    if I.is_graded and J.is_graded:
        return IdealRep(pair)
    index = _bits(g)[0]
    sides = ((ma[0], I.component_map()), (mb[0], J.component_map()))
    exitless = _quotient_facts(g, h, s)[1]
    comps = []
    for cyc in sorted(sides[0][1].keys() | sides[1][1].keys()):
        if cyc not in exitless:
            continue
        bit = 1 << index[cyc.vertices[0]]
        # the values of the sides whose H misses c, None for 0 (a 1 merges away)
        vals = [ck.get(cyc) for hk, ck in sides if not hk & bit]
        if None not in vals:
            comps.append((cyc, reduce(merge, vals).unit_free()))
    return IdealRep(pair, tuple(comps))


def intersect(g: Graph, I: IdealRep, J: IdealRep) -> IdealRep:
    """Intersection: the meet of the graded parts, polynomials merged by lcm.

    See :func:`_combine`.  A cycle held by one side only is dropped unless
    the other side's H holds it, since the other ideal contains no nonzero
    multiple of it.
    """
    return _combine(g, I, J, poly_lcm)


def product(g: Graph, I: IdealRep, J: IdealRep) -> IdealRep:
    """Product: the meet of the graded parts, polynomials multiplied.

    See :func:`_combine`.  For graded ideals the product is the
    intersection, the lattice meet.
    """
    return _combine(g, I, J, mul)


def power(g: Graph, I: IdealRep, n: int) -> IdealRep:
    """n-th power: graded part unchanged, component polynomials raised to n."""
    if not isinstance(n, int) or n < 1:
        raise IdealError(f"power requires n >= 1, got {n!r}")
    if I.is_graded:
        return I
    return make(g, I.graded, {c: p**n for c, p in I.components})


def limit_power(g: Graph, I: IdealRep) -> IdealRep:
    """Intersection of all powers of I: the largest graded ideal inside I."""
    return rep(I.graded)


@dataclass(frozen=True)
class PrimeWitness:
    """Primality verdict with a machine-checkable reason on failure."""

    prime: bool
    reason: Optional[str] = None
    witness: object = None

    _REASONS = (
        "quotient-not-downward-directed",
        "lattice-meet-violation",
        "reducible-polynomial",
        "S-not-full",
        "proper-factorization-witness",
    )

    def __post_init__(self):
        if self.prime and self.reason is not None:
            raise IdealError("prime verdicts carry no reason")
        if not self.prime and self.reason not in self._REASONS:
            raise IdealError(f"unknown reason {self.reason!r}")


def _graded_prime_flags(g: Graph, lattice: PairLattice) -> Dict[AdmissiblePair, bool]:
    """Meet-primeness of every lattice element, with a directedness cross-check.

    An element I is meet-prime when meet(A, B) <= I forces A <= I or B <= I.
    The lattice is distributive, so the proper meet-prime elements are its
    meet-irreducibles m(j) (:attr:`PairLattice.graded_primes`); the top is
    vacuously meet-prime, and its quotient is empty.  The quotient vertex
    set of each m(j), read off its masks, must be downward directed; a
    disagreement aborts.  The converse, that a full-S pair over a downward
    directed complement is meet-prime, is checked by the tests on built
    quotient graphs.
    """
    if lattice._prime_flags is not None:
        return lattice._prime_flags
    for i in lattice.meet_irreducibles:
        if not lattice.quotient_facts(i)[0]:
            raise InternalInconsistencyError(
                f"{lattice.pairs[i]} is meet-prime but its quotient vertex set is not downward directed"
            )
    primes = set(lattice.meet_irreducibles)
    top = lattice.top
    flags = {p: i in primes or p == top for i, p in enumerate(lattice.pairs)}
    lattice._prime_flags = flags
    return flags


def is_prime(g: Graph, lattice: PairLattice, I: IdealRep) -> PrimeWitness:
    """Primality of a proper ideal.

    Graded ideals are tested by meet-primeness within the admissible-pair
    lattice (each m(j) cross-checked for a downward directed quotient).
    A non-graded ideal is prime exactly when it is a full-S pair with a
    single component carrying an irreducible polynomial over a downward
    directed complement.
    """
    if not is_proper(g, I):
        raise IdealError("the improper ideal is not tested for primality")
    if I.is_graded:
        flags = _graded_prime_flags(g, lattice)
        pair = I.graded
        if pair not in flags:
            raise IdealError(f"{pair} is not in the supplied lattice")
        if flags[pair]:
            return PrimeWitness(True)
        # two upper covers of a non-prime pair meet in it, and neither lies below it
        a, b = lattice.upper_covers(pair)[:2]
        if lattice.meet(a, b) != pair:
            raise InternalInconsistencyError(
                f"the upper covers {a} and {b} of {pair} do not meet in it"
            )
        return PrimeWitness(False, "lattice-meet-violation", (a, b))
    if len(I.components) > 1:
        split = tuple(IdealRep(I.graded, (cp,)) for cp in I.components)
        return PrimeWitness(False, "proper-factorization-witness", split)
    h, s = _pair_masks(g, I.graded)
    bh = _breaking_mask(g, h)
    if s != bh:
        return PrimeWitness(False, "S-not-full", _vertices(g, bh & ~s))
    (cyc, p), = I.components
    fac = factor(p)
    if list(fac.values()) != [1]:
        return PrimeWitness(
            False,
            "reducible-polynomial",
            tuple(sorted(fac.items(), key=lambda kv: kv[0].sort_key())),
        )
    # one irreducible component over the full-S pair: prime iff the vertices
    # outside H are downward directed
    report = downward_directed(g, _vertices(g, ((1 << len(g.vertices)) - 1) & ~h))
    if not report.holds:
        return PrimeWitness(False, "quotient-not-downward-directed", report.witness)
    return PrimeWitness(True)


def is_maximal(g: Graph, lattice: PairLattice, I: IdealRep) -> bool:
    """Maximality of a proper ideal.

    A graded ideal is maximal when its pair is covered by the top of the
    lattice and the quotient graph satisfies Condition (L), so that nothing
    non-graded fits between: the lattice keeps the list of these
    (:attr:`PairLattice.maximal_graded`).  A non-graded ideal is maximal when
    it is a full-S pair with one irreducible component and the quotient graph
    is exactly that exitless cycle.
    """
    if not is_proper(g, I):
        raise IdealError("the improper ideal is not tested for maximality")
    if I.is_graded:
        if I.graded not in lattice:
            raise IdealError(f"{I.graded} is not in the supplied lattice")
        return I.graded in lattice.maximal_graded
    if len(I.components) != 1:
        return False
    h, s = _pair_masks(g, I.graded)
    if s != _breaking_mask(g, h):
        return False
    (cyc, p), = I.components
    if not is_irreducible(p):
        return False
    q = quotient(g, I.graded).graph
    cycle_bundles = {(e[0], e[1]): 1 for e in cyc.edges}
    return set(q.vertices) == set(cyc.vertices) and dict(q.bundles) == cycle_bundles
