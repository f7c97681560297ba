"""Ideal lattices of Leavitt path algebras of finite graphs.

The package decides, constructs and cross-verifies the two-sided ideal
structure of the Leavitt path algebra of a finitely presented graph: the
graded-ideal lattice through admissible pairs, prime and maximal ideals,
intersections and factorizations into primes, powers of ideals, and the
Condition (K) equivalences, with exact Laurent polynomial arithmetic over
the rationals or a prime field underneath the non-graded part.
"""

from .errors import (
    FactorizationError,
    GraphError,
    IdealError,
    InternalInconsistencyError,
    LatticeError,
    LaurentError,
    LeavittError,
)
from .graphs import (
    OMEGA,
    ConditionReport,
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
from .lattice import (
    AdmissiblePair,
    PairLattice,
    QuotientGraph,
    admissible_pair,
    bottom_pair,
    breaking_vertices,
    enumerate_hs,
    enumerate_pairs,
    hereditary_saturated_closure,
    normalize_generators,
    quotient,
    top_pair,
)
from .laurent import (
    GF,
    QQ,
    LaurentPoly,
    PrimeField,
    Rationals,
    divides,
    factor,
    field_from_string,
    field_to_string,
    is_irreducible,
    parse_poly,
    poly_gcd,
    poly_lcm,
    squarefree_core,
)
from .ideals import (
    IdealRep,
    PrimeWitness,
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
from .theorems import (
    EverythingPrimeReport,
    IntersectionReport,
    KEquivalenceReport,
    PrimeFamily,
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
    standard_test_polys,
    sample_ideal_family,
    tight_product_check,
    uniqueness_check,
)
from . import catalog, oracles, serialize

__version__ = "0.1.0"
