"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports ``leavitt``: graphs are plain specs and polynomials are
coefficient tuples, so the answers the checks compare against come from the
construction itself, not from the code under test.

* A graph spec is ``(vertices, edges)`` with ``edges`` a dict
  ``{(src, dst): mult}`` and ``mult`` a positive int or ``"omega"``.
* A polynomial is a monic coefficient tuple, constant term first and
  nonzero, over Q (``p == 0``, Fraction coefficients) or GF(p) (ints in
  ``range(p)``).  Pool polynomials are recorded as factor multisets
  ``{irreducible: multiplicity}`` and expanded here.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

OMEGA = "omega"

Spec = Tuple[Tuple[str, ...], Dict[Tuple[str, str], object]]
Poly = Tuple
Factors = Tuple[Tuple[Poly, int], ...]


# -- graphs ------------------------------------------------------------------
#
# Families are built on the vertex ids 0..n-1; ``named`` gives an op its own
# vertex names, so the program cannot reuse work across ops.


def fresh_names(rng: random.Random, n: int) -> List[str]:
    """n distinct vertex names drawn from the seed."""
    names: List[str] = []
    taken = set()
    while len(names) < n:
        name = "q%06x" % rng.getrandbits(24)
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def named(spec: Spec, names: Sequence[str]) -> Spec:
    vertices, edges = spec
    return tuple(names[v] for v in vertices), {(names[s], names[d]): m for (s, d), m in edges.items()}


def forks(k: int) -> Spec:
    """k disjoint infinite-emitter forks 3i -omega-> 3i+1, 3i -1-> 3i+2.

    Each fork has the six admissible pairs of ``FORK_PAIRS``, so the graph
    has 6^k; there are no cycles, so Condition (K) holds.
    """
    edges = {}
    for i in range(k):
        edges[(3 * i, 3 * i + 1)] = OMEGA
        edges[(3 * i, 3 * i + 2)] = 1
    return tuple(range(3 * k)), edges


# (H, S) of one fork (u, a, b) by position: u breaks {a} because exactly one
# edge, u -> b, leaves {a} into its complement.
FORK_PAIRS = (((), ()), ((1,), ()), ((1,), (0,)), ((2,), ()), ((1, 2), ()), ((0, 1, 2), ()))


def loops(k: int) -> Spec:
    """k disjoint single loops: 2^k pairs, Condition (K) fails at every loop."""
    return tuple(range(k)), {(i, i): 1 for i in range(k)}


def rose_chain(n: int) -> Spec:
    """Two-loop roses 0 <- 1 <- ... <- n-1: n+1 pairs, Condition (K) holds.

    The hereditary saturated sets are exactly the prefixes {0, ..., j-1}.
    """
    edges = {(i, i): 2 for i in range(n)}
    for i in range(1, n):
        edges[(i, i - 1)] = 1
    return tuple(range(n)), edges


def random_graph(rng: random.Random, n: int, density: float) -> Spec:
    """Each ordered vertex pair gets a bundle with probability ``density``.

    Multiplicities are drawn from (1, 1, 2, omega), the distribution of the
    test suite's random corpus.
    """
    edges = {}
    for v in range(n):
        for w in range(n):
            if rng.random() < density:
                edges[(v, w)] = rng.choice([1, 1, 2, OMEGA])
    return tuple(range(n)), edges


def corpus_graph(rng: random.Random) -> Spec:
    """The test suite's ``random_graph`` distribution: 1-8 vertices, density 0.25."""
    n = rng.randint(1, 8)
    return named(random_graph(rng, n, 0.25), [f"v{i}" for i in range(n)])


def graph_json(spec: Spec, field: str = "Q") -> str:
    vertices, edges = spec
    return json.dumps(
        {
            "field": field,
            "vertices": list(vertices),
            "edges": [{"src": s, "dst": d, "mult": m} for (s, d), m in edges.items()],
        },
        sort_keys=True,
    )


# -- polynomials ---------------------------------------------------------------


def _f(*cs) -> Poly:
    return tuple(Fraction(c) for c in cs)


# Monic irreducibles over Q with small coefficients, constant term first.
# The list leaves out x^3-2, x^3+2x+1, x^3-2x-2, x^3+2x^2+3, x^4+x+1, x^4+x^3+1,
# x^4+3x+3 and x^4+2: some products of these take the Kronecker search
# 0.15-6 s to factor (CPython 3.11, 2-core Xeon VM), so a run's figures
# would turn on whether the seed drew one.  The benchmark's own tests confirm that every entry is irreducible.
Q_IRREDUCIBLES: Tuple[Poly, ...] = (
    _f(1, 1),
    _f(-1, 1),
    _f(2, 1),
    _f(-3, 1),
    _f(Fraction(1, 2), 1),
    _f(Fraction(-2, 3), 1),
    _f(1, 0, 1),
    _f(1, 1, 1),
    _f(-2, 0, 1),
    _f(3, 0, 1),
    _f(-1, -1, 1),
    _f(Fraction(1, 2), 1, 1),
    _f(1, 1, 0, 1),
    _f(-1, -3, 0, 1),
    _f(1, -1, 0, 1),
    _f(-1, -2, 1, 1),
    _f(3, 3, 0, 1),
    _f(1, 0, 1, 1),
    _f(1, 0, 0, 0, 1),
    _f(1, 0, -1, 0, 1),
    _f(1, 1, 1, 1, 1),
    _f(-1, -1, 0, 0, 1),
    _f(-1, -1, 0, 0, 0, 1),
)

FIELDS = (0, 2, 101, 65537)  # 0 stands for Q
POOL_DEGREE = 8  # the program's documented factoring bound over Q
GF_MAX_DEGREE = {2: 4, 101: 3, 65537: 2}  # kept small so the brute-force search stays cheap


def trim(cs: Sequence, p: int) -> Poly:
    cs = [c % p for c in cs] if p else list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pmul(a: Poly, b: Poly, p: int) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out, p)


def pdivides(d: Poly, a: Poly, p: int) -> bool:
    """Whether d divides a; d is monic."""
    rem = list(a)
    for i in range(len(a) - len(d), -1, -1):
        c = rem[i + len(d) - 1]
        if c:
            for j, x in enumerate(d):
                rem[i + j] -= c * x
            if p:
                rem = [r % p for r in rem]
    return not any(rem[: len(d) - 1])


def expand(factors: Factors, p: int) -> Poly:
    out: Poly = (Fraction(1),) if not p else (1,)
    for irr, mult in factors:
        for _ in range(mult):
            out = pmul(out, irr, p)
    return out


def _monic_polys(p: int, d: int):
    """Every monic degree-d polynomial over GF(p) with nonzero constant term."""
    for code in range(p**d):
        cs = []
        for _ in range(d):
            cs.append(code % p)
            code //= p
        if cs[0]:
            yield tuple(cs) + (1,)


def _has_root(f: Poly, p: int) -> bool:
    for x in range(p):
        y = 0
        for c in reversed(f):
            y = (y * x + c) % p
        if y == 0:
            return True
    return False


def gf_irreducibles(rng: random.Random, p: int, max_degree: int, per_degree: int) -> List[Poly]:
    """Monic irreducibles over GF(p) found by brute force.

    Over GF(2) every candidate is tested by trial division by all monic
    polynomials of at most half its degree.  For larger p only degrees 1-3
    are drawn, where irreducible means "no root", checked at every field
    element; candidates are drawn from the seed.
    """
    out: List[Poly] = []
    if p == 2:
        for d in range(1, max_degree + 1):
            for f in _monic_polys(2, d):
                if not any(pdivides(g, f, 2) for g in out if 2 * (len(g) - 1) <= d):
                    out.append(f)
        return out
    for d in range(1, min(max_degree, 3) + 1):
        found: List[Poly] = []
        while len(found) < per_degree:
            f = tuple(rng.randrange(1, p) if i == 0 else rng.randrange(p) for i in range(d)) + (1,)
            if f not in found and (d == 1 or not _has_root(f, p)):
                found.append(f)
        out.extend(found)
    return out


def irreducibles(rng: random.Random, p: int) -> List[Poly]:
    if p == 0:
        return list(Q_IRREDUCIBLES)
    return gf_irreducibles(rng, p, GF_MAX_DEGREE[p], per_degree=3)


# Factor-multiplicity shapes of a pool, in turn: an irreducible, a squarefree
# product, a square, a product of three, and a square times another, so
# prime, squarefree and non-squarefree answers all occur in every pool.
SHAPES = ((1,), (1, 1), (2,), (1, 1, 1), (2, 1))
# Over Q the squarefree product is the product of two irreducibles of degree
# >= 3 (see ``kronecker_pairs``), so factoring it needs a Kronecker search
# (4-110 ms with CPython 3.11 on a 2-core Xeon VM); every other entry has
# factors of degree <= 2.  One such input per pool keeps the share of
# Kronecker work, and with it the tail, the same in every round.
KRONECKER = 1


def kronecker_pairs() -> List[Tuple[Poly, Poly]]:
    """Every pair of Q irreducibles of degree >= 3 whose product stays within POOL_DEGREE."""
    big = [f for f in Q_IRREDUCIBLES if len(f) > 3]
    return [(a, b) for i, a in enumerate(big) for b in big[i + 1 :] if len(a) + len(b) - 2 <= POOL_DEGREE]


def draw_pool(rng: random.Random, irrs: Sequence[Poly], p: int, size: int, kronecker=None) -> List[Factors]:
    """``size`` polynomials, shapes in turn, as sorted factor multisets of degree <= POOL_DEGREE.

    Over Q the ``KRONECKER`` entry is the given pair from ``kronecker_pairs``.
    """
    pool = []
    for i in range(size):
        shape = SHAPES[i % len(SHAPES)]
        if p == 0 and i == KRONECKER:
            pool.append(tuple(sorted(((kronecker[0], 1), (kronecker[1], 1)), key=repr)))
            continue
        choices = [f for f in irrs if p or len(f) <= 3]
        while True:
            factors = tuple(sorted(zip(rng.sample(choices, len(shape)), shape), key=repr))
            if sum((len(f) - 1) * m for f, m in factors) <= POOL_DEGREE:
                break
        pool.append(factors)
    return pool


def fmul(a: Factors, b: Factors) -> Factors:
    c = Counter(dict(a))
    c.update(dict(b))
    return tuple(sorted(c.items(), key=repr))


def flcm(a: Factors, b: Factors) -> Factors:
    c = dict(a)
    for f, m in b:
        c[f] = max(c.get(f, 0), m)
    return tuple(sorted(c.items(), key=repr))


def fdivides(a: Factors, b: Factors) -> bool:
    db = dict(b)
    return all(db.get(f, 0) >= m for f, m in a)


def fpow(a: Factors, n: int) -> Factors:
    return tuple((f, m * n) for f, m in a)


def fcore(a: Factors) -> Factors:
    return tuple((f, 1) for f, _ in a)


def poly_text(cs: Poly) -> str:
    """A literal in the program's documented syntax, e.g. ``1/2-3x+x^2``."""
    parts = []
    for e, c in enumerate(cs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        parts.append(f"{sign}{mag}" + ("" if e == 0 else "x" if e == 1 else f"x^{e}"))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
