"""Graph files, ideal literals, JSON reports and DOT diagrams.

The graph file is JSON: an optional ``field`` tag ("Q" or "Fp:<p>"),
a ``vertices`` list and an ``edges`` list of ``{src, dst, mult}`` records
where ``mult`` is a positive integer or the string "omega".  Ideal literals
are JSON objects ``{"H": [...], "S": [...], "components": [{"cycle":
[...], "poly": "..."}]}``.  Unknown keys are rejected everywhere, and every
emitted literal re-parses to an equal value.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Tuple

from .errors import GraphError, IdealError
from .graphs import Cycle, Graph, OMEGA, condition_K, condition_L, is_finite
from .ideals import IdealRep, make
from .lattice import AdmissiblePair, PairLattice
from .laurent import field_from_string, field_to_string, parse_poly
from . import theorems


def _require_keys(data: dict, allowed: set, required: set, what: str):
    if not isinstance(data, dict):
        raise GraphError(f"{what} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise GraphError(f"unknown key {sorted(unknown)[0]!r} in {what}")
    missing = required - set(data)
    if missing:
        raise GraphError(f"missing key {sorted(missing)[0]!r} in {what}")


def graph_from_data(data: dict) -> Tuple[Graph, object]:
    """Build (graph, field) from parsed graph-file JSON; strict about keys."""
    _require_keys(data, {"field", "vertices", "edges"}, {"vertices", "edges"}, "graph file")
    field = field_from_string(data.get("field", "Q"))
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("vertices must be a list of strings")
    bundles: Dict[Tuple[str, str], object] = {}
    if not isinstance(data["edges"], list):
        raise GraphError("edges must be a list")
    for edge in data["edges"]:
        _require_keys(edge, {"src", "dst", "mult"}, {"src", "dst"}, "edge record")
        mult = edge.get("mult", 1)
        if mult == "omega":
            mult = OMEGA
        elif not isinstance(mult, int) or mult < 1:
            raise GraphError(f"edge multiplicity must be a positive integer or 'omega', got {mult!r}")
        key = (edge["src"], edge["dst"])
        bundles[key] = bundles.get(key, 0) + mult
    return Graph(vertices, bundles), field


def graph_to_data(g: Graph, field) -> dict:
    return {
        "field": field_to_string(field),
        "vertices": list(g.vertices),
        "edges": [
            {"src": src, "dst": dst, "mult": mult if is_finite(mult) else "omega"}
            for (src, dst), mult in sorted(g.bundles.items())
        ],
    }


def load_graph(path: str, field_override: str = None) -> Tuple[Graph, object]:
    import sys

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphError(f"invalid JSON in graph file: {e}") from None
    g, field = graph_from_data(data)
    if field_override:
        field = field_from_string(field_override)
    return g, field


def pair_to_data(pair: AdmissiblePair) -> dict:
    return {"H": list(pair.h), "S": list(pair.s)}


def ideal_to_data(I: IdealRep) -> dict:
    return {
        "H": list(I.graded.h),
        "S": list(I.graded.s),
        "components": [
            {"cycle": list(c.vertices), "poly": str(p)} for c, p in I.components
        ],
    }


def ideal_literal(I: IdealRep) -> str:
    return json.dumps(ideal_to_data(I), sort_keys=True)


def ideal_from_data(g: Graph, field, data: dict) -> IdealRep:
    _require_keys(data, {"H", "S", "components"}, set(), "ideal literal")
    H = data.get("H", [])
    S = data.get("S", [])
    pair = AdmissiblePair.of(H, S)
    comps = {}
    for record in data.get("components", []):
        _require_keys(record, {"cycle", "poly"}, {"cycle", "poly"}, "ideal component")
        vs = record["cycle"]
        if not isinstance(vs, list) or not vs:
            raise IdealError("component cycle must be a nonempty vertex list")
        cyc = Cycle.from_vertices(vs)
        poly = parse_poly(field, record["poly"])
        if cyc in comps:
            raise IdealError("duplicate component cycle in ideal literal")
        comps[cyc] = poly
    return make(g, pair, comps)


def parse_ideal_literal(g: Graph, field, text: str) -> IdealRep:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise IdealError(f"invalid JSON in ideal literal: {e}") from None
    return ideal_from_data(g, field, data)


def analyze_report(name: str, g: Graph, field, lattice: PairLattice) -> dict:
    """The stable JSON analysis schema for a graph."""
    condL = condition_L(g)
    condK = condition_K(g)
    primes = theorems.graded_primes(g, lattice)
    maximals = lattice.maximal_graded
    count = theorems.count_ideals(g, lattice)
    decomposition = theorems.maximal_decomposition(g, lattice)
    counterexample = theorems.prime_intersection_counterexample(g, lattice, field)
    report = {
        "graph": name,
        "field": field_to_string(field),
        "conditionL": condL.holds,
        "conditionLWitness": list(condL.witness.vertices) if condL.witness else None,
        "conditionK": condK.holds,
        "conditionKWitness": condK.witness,
        "latticeSize": len(lattice),
        "primes": [pair_to_data(p) for p in primes],
        "maximalGradedIdeals": [pair_to_data(p) for p in maximals],
        "checks": {
            "everythingPrime": _everything_prime_data(g, lattice, field),
            "idealCount": count if not math.isinf(count) else "infinite",
            "maximalDecomposition": (
                [list(block) for block in decomposition] if decomposition is not None else None
            ),
            "primeAlwaysExists": pair_to_data(theorems.prime_always_exists(g, lattice)),
            "primeIntersectionCounterexample": (
                ideal_to_data(counterexample) if counterexample is not None else None
            ),
        },
    }
    return report


def _everything_prime_data(g: Graph, lattice: PairLattice, field) -> dict:
    ep = theorems.everything_prime_check(g, lattice, field)
    return {
        "allIdealsPrime": ep.all_ideals_prime,
        "graphCriterion": ep.graph_criterion,
        "gradedChain": ep.graded_chain,
        "agree": ep.agree,
    }


def analyze_text(report: dict) -> str:
    lines = [
        f"graph: {report['graph']}",
        f"field: {report['field']}",
        f"Condition (L): {str(report['conditionL']).lower()}"
        + (
            f" (exitless cycle {'->'.join(report['conditionLWitness'])})"
            if report["conditionLWitness"]
            else ""
        ),
        f"Condition (K): {str(report['conditionK']).lower()}"
        + (
            f" (witness vertex {report['conditionKWitness']})"
            if report["conditionKWitness"]
            else ""
        ),
        f"admissible pairs: {report['latticeSize']}",
        f"graded primes: {len(report['primes'])}",
    ]
    for p in report["primes"]:
        lines.append(f"  prime ({{{','.join(p['H'])}}}, {{{','.join(p['S'])}}})")
    lines.append(f"maximal graded ideals: {len(report['maximalGradedIdeals'])}")
    checks = report["checks"]
    lines.append(f"ideal count: {checks['idealCount']}")
    ep = checks["everythingPrime"]
    lines.append(
        "everything prime: "
        f"ideals={str(ep['allIdealsPrime']).lower()} "
        f"criterion={str(ep['graphCriterion']).lower()} "
        f"chain={str(ep['gradedChain']).lower()} "
        f"agree={str(ep['agree']).lower()}"
    )
    md = checks["maximalDecomposition"]
    lines.append(
        "maximal decomposition: "
        + ("none" if md is None else " | ".join("{%s}" % ",".join(b) for b in md))
    )
    pae = checks["primeAlwaysExists"]
    lines.append(f"a prime ideal: ({{{','.join(pae['H'])}}}, {{{','.join(pae['S'])}}})")
    ce = checks["primeIntersectionCounterexample"]
    lines.append(
        "not an intersection of primes: "
        + (json.dumps(ce, sort_keys=True) if ce is not None else "none")
    )
    return "\n".join(lines)


def lattice_dot(g: Graph, lattice: PairLattice) -> str:
    """DOT Hasse diagram: primes double-circled, maximal ideals filled."""
    primes = set(theorems.graded_primes(g, lattice))
    maximals = set(lattice.maximal_graded)
    lines = ["digraph admissible_pairs {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i, p in enumerate(lattice.pairs):
        attrs = [f'label="{p.label()}"']
        if p in primes:
            attrs.append("peripheries=2")
        if p in maximals:
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    edges = sorted(
        (lattice.index(q), i) for i, p in enumerate(lattice.pairs) for q in lattice.upper_covers(p)
    )
    lines.extend(f"  n{i} -> n{j};" for j, i in edges)
    lines.append("}")
    return "\n".join(lines)


def lattice_text(g: Graph, lattice: PairLattice) -> str:
    primes = set(theorems.graded_primes(g, lattice))
    maximals = set(lattice.maximal_graded)
    lines = [f"admissible pairs: {len(lattice)}"]
    for p in lattice.pairs:
        flags = []
        if p == lattice.top:
            flags.append("top")
        if p in primes:
            flags.append("prime")
        if p in maximals:
            flags.append("maximal")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(f"  {p.label()}{suffix}")
    return "\n".join(lines)
