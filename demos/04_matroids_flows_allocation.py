"""Applications on top of the dec-min engine: balanced sums of matroid
bases, balanced basis/partition intersections, orientations dec-min in
both degree directions, fair bipartite load assignment (semi-matchings),
the discrete fair source-flow problem, and root-vectors of arborescence
packings.

Run:  python demos/04_matroids_flows_allocation.py
"""

from decmin.applications import (
    MegiddoProblem,
    SemiMatchingProblem,
    decmin_root_vector,
    decmin_semimatching,
    megiddo_discrete,
)
from decmin.matroid import (
    bases_matroid,
    decmin_basis_sum,
    decmin_partition_intersection,
    graphic_matroid,
    matroid_intersection,
)
from decmin.netflow import Digraph
from decmin.orientation import Graph, inout_decmin_orientation

# ---------------------------------------------------------------------------
# 1. matroid intersection on the two rank-2 matroids with complementary
#    circuit pairs: exactly two common bases
# ---------------------------------------------------------------------------
m1 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 2}, {1, 3}])
m2 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 3}, {1, 2}])
print("a maximum common independent set:", sorted(matroid_intersection(m1, m2)))

# dec-min sum of one basis from each matroid: perfectly balanced
bases, total = decmin_basis_sum([m1, m2])
print("chosen bases:", [sorted(b) for b in bases], "-> sum", total)

# three spanning trees of a triangle share the load evenly
tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
_, total3 = decmin_basis_sum([tri] * 3)
print("three triangle spanning trees, edge usage:", total3)
print()

# ---------------------------------------------------------------------------
# 2. a spanning tree whose partition-intersection vector is dec-min
# ---------------------------------------------------------------------------
ladder = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
basis, vec = decmin_partition_intersection(ladder, [[0, 1], [2, 3], [4]])
print("spanning tree", sorted(basis), "hits the edge classes", vec)
print()

# ---------------------------------------------------------------------------
# 3. one orientation that is dec-min in in-degrees AND in out-degrees
# ---------------------------------------------------------------------------
path = Graph(3, [(0, 1), (1, 2)])
o = inout_decmin_orientation(path)
print("path both-ways dec-min:", o.arcs(), "in", o.indeg, "out", o.outdeg)
print()

# ---------------------------------------------------------------------------
# 4. semi-matchings: assign every user (right side) to one server (left
#    side) so the server load profile is as even as possible
# ---------------------------------------------------------------------------
P = SemiMatchingProblem(
    n_left=3,
    n_right=5,
    edges=[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 3), (1, 3), (2, 4)],
)
res = decmin_semimatching(P)
print("server loads:", res.left_degrees, "chosen edges:", res.edge_list)

# degree bounds, a pinned total, and per-edge costs all compose
P2 = SemiMatchingProblem(
    n_left=3,
    n_right=5,
    edges=P.edges,
    upper_left=[2, 2, 2],
    lower_right=[0] * 5,
    upper_right=[1] * 5,
    gamma=4,
    cost=[3, 1, 1, 4, 1, 1, 2, 0],
)
res2 = decmin_semimatching(P2)
print("bounded variant loads:", res2.left_degrees, "cost", res2.cost)
print()

# ---------------------------------------------------------------------------
# 5. discrete fair source flow: split a prescribed amount over the source
#    set so the per-source contributions are increasingly maximal
# ---------------------------------------------------------------------------
net = Digraph(
    4,
    [(0, 2), (0, 2), (1, 2), (2, 3), (0, 3)],
    [1, 1, 1, 3, 1],
)
res = megiddo_discrete(MegiddoProblem(net, sources={0, 1}, sinks={3}))
print("source contributions:", res.outflow, "arc flow:", res.flow)
print()

# ---------------------------------------------------------------------------
# 6. root-vectors: spread the roots of k arc-disjoint spanning
#    arborescences as evenly as the digraph allows
# ---------------------------------------------------------------------------
cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)] * 2, [1] * 6)
print("roots of 2 arc-disjoint spanning arborescences:",
      decmin_root_vector(cycle, 2))
