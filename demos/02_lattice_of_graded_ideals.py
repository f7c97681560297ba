"""The admissible-pair lattice: hereditary saturated sets, breaking vertices,
meets, joins and quotient graphs.

Run with: python demos/02_lattice_of_graded_ideals.py
"""

from leavitt import (
    AdmissiblePair,
    breaking_vertices,
    enumerate_hs,
    enumerate_pairs,
    hereditary_saturated_closure,
    normalize_generators,
    quotient,
)
from leavitt.catalog import NAMED


def banner(text):
    print()
    print(f"== {text} ==")


B1 = NAMED["B1"]()
T1 = NAMED["T1"]()

banner("hereditary saturated closures")
A3 = NAMED["A3"]()
print("A3 is the chain u0 -> u1 -> u2; closing {u2} pulls in everything that")
print("only feeds u2:", sorted(hereditary_saturated_closure(A3, {"u2"})))
print("T1: closure of the sink {w} stays {w}:",
      sorted(hereditary_saturated_closure(T1, {"w"})))

banner("all hereditary saturated sets")
for name in ("T1", "C2", "B1"):
    sets = [sorted(h) for h in enumerate_hs(NAMED[name]())]
    print(f"{name}: {sets}")

banner("breaking vertices")
print("B1: u emits an omega bundle to a and one edge to b")
print("with H={a}, u keeps one edge out of H, so u breaks {a}:",
      sorted(breaking_vertices(B1, {"a"})))
print("with H={b}, u still emits infinitely often outside H:",
      sorted(breaking_vertices(B1, {"b"})))

banner("the lattice of admissible pairs of B1")
lat = enumerate_pairs(B1)
for p in lat.pairs:
    print(" ", p.label())
a_u = AdmissiblePair.of({"a"}, {"u"})
ab = AdmissiblePair.of({"a", "b"}, ())
print("meet of ({a},{u}) and ({a,b},{}):", lat.meet(a_u, ab).label())
print("join of ({a},{}) and ({b},{}):  ",
      lat.join(AdmissiblePair.of({"a"}, ()), AdmissiblePair.of({"b"}, ())).label())

banner("quotient graphs")
q = quotient(T1, AdmissiblePair.of({"w"}, ()))
print("T1 / ({w},{}) collapses to the single loop:", dict(q.graph.bundles))
q = quotient(B1, AdmissiblePair.of({"a"}, ()))
print("B1 / ({a},{}) keeps u -> b and adds the primed sink u':",
      list(q.graph.vertices), dict(q.graph.bundles))

banner("normalizing generator sets")
print("generators {a} plus u^H:", normalize_generators(B1, {"a"}, {"u"}).label())
print("generators {a,b} plus u^H promote u into H:",
      normalize_generators(B1, {"a", "b"}, {"u"}).label())
