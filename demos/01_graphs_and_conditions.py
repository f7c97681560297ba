"""Tour of the graph layer: multiplicities, vertex classes, Conditions (L) and (K).

Run with: python demos/01_graphs_and_conditions.py
"""

from leavitt import (
    OMEGA,
    Graph,
    classify,
    condition_K,
    condition_L,
    downward_directed,
    exitless_cycles,
    reaches,
    simple_closed_path_count,
)
from leavitt.catalog import NAMED


def banner(text):
    print()
    print(f"== {text} ==")


banner("the named graphs")
for name, build in sorted(NAMED.items()):
    g = build()
    print(f"{name}: vertices={list(g.vertices)} bundles={dict(g.bundles)}")

banner("vertex classes")
B1 = NAMED["B1"]()
for v in B1.vertices:
    print(f"B1 vertex {v}: {classify(B1, v).value}")
print("an 'omega' bundle stands for infinitely many parallel edges;")
print(f"omega + 3 = {OMEGA + 3}, omega > 10**9: {OMEGA > 10**9}")

banner("reachability and downward directedness")
T1 = NAMED["T1"]()
print(f"T1: v reaches w: {reaches(T1, 'v', 'w')}, w reaches v: {reaches(T1, 'w', 'v')}")
D2 = NAMED["D2"]()
ok, witness = downward_directed(D2, D2.vertices)
print(f"D2 vertex set downward directed: {ok} (witness pair {witness})")

banner("exitless cycles and Condition (L)")
for name in ("L1", "T1", "R2", "A3"):
    g = NAMED[name]()
    cycles = exitless_cycles(g)
    ok, witness = condition_L(g)
    shown = [list(c.vertices) for c in cycles]
    print(f"{name}: exitless cycles {shown}; Condition (L): {ok}")

banner("closed simple paths and Condition (K)")
for name in ("L1", "R2", "C2", "T1"):
    g = NAMED[name]()
    counts = {v: simple_closed_path_count(g, v) for v in g.vertices}
    ok, witness = condition_K(g)
    print(f"{name}: closed-simple-path counts {counts}; Condition (K): {ok}"
          + (f" (witness {witness})" if witness else ""))

banner("why (K) is stronger than (L)")
g = Graph(["v", "w"], {("v", "v"): 1, ("v", "w"): 1})
print("the Toeplitz loop has an exit, so (L) holds, but the loop is the only")
print("closed simple path at its base, so (K) fails:",
      condition_L(g).holds, "/", condition_K(g).holds)
