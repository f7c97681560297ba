"""Independent answers the benchmark checks the program's outputs against.

Hereditary saturated sets, breaking vertices and the meet of admissible
pairs are recomputed here from their definitions on plain graph specs (see
``gen``); pair counts come from ``leavitt.oracles.brute_hs``, the package's
own brute-force reference, which shares no code with the engine.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Set, Tuple

from gen import OMEGA, Spec


def _out(spec: Spec, v) -> list:
    return [(d, m) for (s, d), m in spec[1].items() if s == v]


def breaking(spec: Spec, H: Iterable) -> Set:
    """B_H: infinite emitters outside H with finitely many (at least one) edges leaving H."""
    hset = set(H)
    out = set()
    for v in spec[0]:
        bundles = _out(spec, v)
        if v in hset or all(m != OMEGA for _, m in bundles):
            continue
        into = [m for d, m in bundles if d not in hset]
        if into and OMEGA not in into:
            out.add(v)
    return out


def hs_closure(spec: Spec, X: Iterable) -> Set:
    """Least hereditary saturated set containing X.

    Hereditary: every successor of a member is a member.  Saturated: a
    regular vertex (a non-sink with finitely many edges) whose successors are
    all members is itself a member.
    """
    H = set(X)
    changed = True
    while changed:
        changed = False
        for v in spec[0]:
            bundles = _out(spec, v)
            succ = {d for d, _ in bundles}
            if v in H:
                if not succ <= H:
                    H |= succ
                    changed = True
            elif succ and all(m != OMEGA for _, m in bundles) and succ <= H:
                H.add(v)
                changed = True
    return H


def leavitt_graph(spec: Spec):
    from leavitt.graphs import OMEGA as L_OMEGA, Graph

    vertices, edges = spec
    return Graph(vertices, {k: (L_OMEGA if m == OMEGA else m) for k, m in edges.items()})


def pair_count(spec: Spec) -> int:
    """Number of admissible pairs: the sum of 2^|B_H| over brute-force HS sets."""
    from leavitt.oracles import brute_hs

    return sum(2 ** len(breaking(spec, H)) for H in brute_hs(leavitt_graph(spec)))


def meet(spec: Spec, pairs: Sequence[Tuple[Sequence, Sequence]]) -> Tuple[tuple, tuple]:
    """Meet of admissible pairs: H = common H, S = common (S | H) restricted to B_H."""
    H = set(pairs[0][0])
    SH = set(pairs[0][0]) | set(pairs[0][1])
    for h, s in pairs[1:]:
        H &= set(h)
        SH &= set(h) | set(s)
    return tuple(sorted(H)), tuple(sorted(SH & breaking(spec, H)))


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?")


def parse_poly(text: str, p: int) -> tuple:
    """Coefficient tuple (constant first) of a polynomial printed by the program."""
    terms = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"unparsable polynomial {text!r}")
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        e = 0 if not m.group(3) else int(m.group(4) or 1)
        terms[e] = terms.get(e, 0) + c
        pos = m.end()
    cs = [terms.get(e, 0) for e in range(max(terms) + 1)]
    return tuple(int(c) % p for c in cs) if p else tuple(Fraction(c) for c in cs)
