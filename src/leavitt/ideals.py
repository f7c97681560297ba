"""Canonical two-sided ideal representations and their calculus.

Every ideal is named by its largest graded part, an admissible pair (H, S),
plus finitely many components (c, p): c an exitless cycle of the quotient
graph by (H, S) and p a canonical polynomial with nonzero constant term and
degree at least one.  The ideal is graded iff it has no components.

Containment, intersection, product, powers and the prime/maximal tests all
work on this representation.  Intersections and products are only defined
for the configurations the representation can express exactly (both graded,
equal graded parts, or one graded factor comparable with the other); outside
those an :class:`UnsupportedConfigurationError` is raised rather than a
guess returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    IdealError,
    InternalInconsistencyError,
    UnsupportedConfigurationError,
)
from .graphs import Cycle, Graph, downward_directed
from .laurent import LaurentPoly, divides, factor, is_irreducible, poly_lcm
from .lattice import (
    AdmissiblePair,
    PairLattice,
    admissible_pair,
    bottom_pair,
    breaking_vertices,
    closed_form_meet,
    quotient,
    top_pair,
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
    return I.graded != top_pair(g)


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
    pair = admissible_pair(g, pair.h_set, pair.s_set)
    items = components.items() if isinstance(components, Mapping) else list(components)
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
        if cyc not in quotient(g, pair).exitless:
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

    Requires graded(J) <= graded(I), and each component (c, p) of J either
    has all its vertices absorbed into H_I or is matched by a component
    (c, q) of I with q dividing p.
    """
    _check_fields(I, J)
    if not J.graded.le(I.graded):
        return False
    h_i = I.graded.h_set
    comp_i = I.component_map()
    for cyc, p in J.components:
        if set(cyc.vertices) <= h_i:
            continue
        q = comp_i.get(cyc)
        if q is None or not divides(q, p):
            return False
    return True


def intersect(g: Graph, I: IdealRep, J: IdealRep) -> IdealRep:
    """Intersection, in the supported configurations.

    Both graded: the lattice meet.  Equal graded parts: componentwise lcm
    over common cycles; a cycle carried by one side only is dropped, since
    the other ideal contains no nonzero multiple of it.  One factor graded
    and comparable with the other: the smaller ideal.
    """
    _check_fields(I, J)
    if I.is_graded and J.is_graded:
        return rep(closed_form_meet(g, I.graded, J.graded))
    if I.graded == J.graded:
        ci, cj = I.component_map(), J.component_map()
        comps = {c: poly_lcm(ci[c], cj[c]) for c in set(ci) & set(cj)}
        return make(g, I.graded, comps)
    if I.is_graded or J.is_graded:
        if contains(g, I, J):
            return J
        if contains(g, J, I):
            return I
    raise UnsupportedConfigurationError(
        "intersection is only supported for graded pairs, equal graded parts, "
        "or a graded ideal comparable with the other"
    )


def product(g: Graph, I: IdealRep, J: IdealRep) -> IdealRep:
    """Product, in the supported configurations.

    For graded ideals the product equals the intersection, hence the lattice
    meet.  With equal graded parts the common cycle components multiply and
    one-sided components are absorbed by the graded part.  A graded factor
    comparable with the other absorbs into the smaller ideal.
    """
    _check_fields(I, J)
    if I.is_graded and J.is_graded:
        return rep(closed_form_meet(g, I.graded, J.graded))
    if I.graded == J.graded:
        ci, cj = I.component_map(), J.component_map()
        comps = {c: ci[c] * cj[c] for c in set(ci) & set(cj)}
        return make(g, I.graded, comps)
    if I.is_graded or J.is_graded:
        if contains(g, I, J):
            return J
        if contains(g, J, I):
            return I
    raise UnsupportedConfigurationError(
        "product is only supported for graded pairs, equal graded parts, "
        "or a graded ideal comparable with the other"
    )


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
    """Meet-primeness of every lattice element, with directedness cross-checks.

    An element I is meet-prime when meet(A, B) <= I forces A <= I or B <= I.
    The lattice is distributive, so a proper element is meet-prime exactly
    when it has one upper cover; the top is vacuously meet-prime.  Two facts
    are verified for every element: a prime quotient vertex set must be
    downward directed, and a full-S pair over a downward directed complement
    must be prime.  Any disagreement aborts.
    """
    cached = lattice.cache.get("prime_flags")
    if cached is not None:
        return cached
    flags = {}
    for p in lattice.pairs:
        meet_prime = p == lattice.top or len(lattice.upper_covers(p)) == 1
        dd = quotient(g, p).directed
        if meet_prime and not dd:
            raise InternalInconsistencyError(
                f"{p} is meet-prime but its quotient vertex set is not downward directed"
            )
        full_s = p.s_set == breaking_vertices(g, p.h_set)
        if full_s and dd and not meet_prime:
            raise InternalInconsistencyError(
                f"{p} has S = B_H over a downward directed complement but is not meet-prime"
            )
        flags[p] = meet_prime
    lattice.cache["prime_flags"] = flags
    return flags


def is_prime(g: Graph, lattice: PairLattice, I: IdealRep) -> PrimeWitness:
    """Primality of a proper ideal.

    Graded ideals are tested by meet-primeness within the admissible-pair
    lattice (cross-checked against downward directedness of the quotient).
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
    bh = breaking_vertices(g, I.graded.h_set)
    if I.graded.s_set != bh:
        return PrimeWitness(False, "S-not-full", tuple(sorted(bh - I.graded.s_set)))
    (cyc, p), = I.components
    fac = factor(p)
    if list(fac.values()) != [1]:
        return PrimeWitness(
            False,
            "reducible-polynomial",
            tuple(sorted(fac.items(), key=lambda kv: kv[0].sort_key())),
        )
    complement = [v for v in g.vertices if v not in I.graded.h_set]
    report = downward_directed(g, complement)
    if not report.holds:
        return PrimeWitness(False, "quotient-not-downward-directed", report.witness)
    return PrimeWitness(True)


def is_maximal(g: Graph, lattice: PairLattice, I: IdealRep) -> bool:
    """Maximality of a proper ideal.

    A graded ideal is maximal when its pair is covered by the top of the
    lattice and the quotient graph satisfies Condition (L), so that nothing
    non-graded fits between.  A non-graded ideal is maximal when it is a
    full-S pair with one irreducible component and the quotient graph is
    exactly that exitless cycle.
    """
    if not is_proper(g, I):
        raise IdealError("the improper ideal is not tested for maximality")
    if I.is_graded:
        if I.graded not in lattice:
            raise IdealError(f"{I.graded} is not in the supplied lattice")
        if not lattice.covered_by_top(I.graded):
            return False
        return not quotient(g, I.graded).exitless
    if len(I.components) != 1:
        return False
    if I.graded.s_set != breaking_vertices(g, I.graded.h_set):
        return False
    (cyc, p), = I.components
    if not is_irreducible(p):
        return False
    q = quotient(g, I.graded).graph
    cycle_bundles = {(e[0], e[1]): 1 for e in cyc.edges}
    return set(q.vertices) == set(cyc.vertices) and dict(q.bundles) == cycle_bundles
