"""The structure theory around a dec-min element: canonical chain and
partition, the essential value-sequence, value-fixed elements, the
square-sum min-max certificate with its smallest dual vector, and cheapest
dec-min elements via the block matroids.

Run:  python demos/02_certificates_and_structure.py
"""

import numpy as np

from decmin import (
    BaseHandle,
    TableOracle,
    canonical_from_decmin,
    cheapest_decmin,
    decmin_set_membership,
    duality_gap,
    matroid_Mi_base_test,
    strongly_poly_decmin,
    verify_dual_optimal,
)

# the running instance: four points, unique dec-min element (2, 3, 3, 1)
pts = np.array([(2, 3, 3, 1), (3, 3, 3, 0), (2, 2, 4, 1), (3, 2, 4, 0)])
vals = []
for mask in range(16):
    idx = [i for i in range(4) if mask >> i & 1]
    vals.append(int(pts[:, idx].sum(axis=1).min()) if idx else 0)
B = BaseHandle(TableOracle(vals))

m = strongly_poly_decmin(B)
D = canonical_from_decmin(B, m)
print("dec-min element:", m)
print("essential value-sequence:", D.betas)
print("canonical partition:", [sorted(s) for s in D.partition])
print("canonical chain:", [sorted(c) for c in D.chain])
print("counts r_i:", D.counts)
print("translation Delta*:", D.delta_star)
print("value-fixed sets:", [sorted(f) for f in D.value_fixed])
print()

# every dec-min element sits in the small box around Delta* and keeps the
# chain tight; everything else is rejected
for cand in pts:
    print(f"  {tuple(cand.tolist())} in dec-min set:",
          decmin_set_membership(D, B, cand))
print()

# the min-max certificate: the square-sum of a dec-min element equals the
# linear-extension bound at the smallest odd dual pi*
rep = duality_gap(B, m, D.pi_star)
print("pi* =", D.pi_star, " (odd in every component)")
print("square-sum:", rep.square_sum, " dual bound:", rep.lower_bound,
      " gap:", rep.gap)
print("optimality criteria hold:", rep.o1 and rep.o2)
print("pi* passes the full dual description:",
      verify_dual_optimal(D, B, D.pi_star))
print("a larger dual fails:", verify_dual_optimal(D, B, D.pi_star + 2))
print()

# block matroids: which r_i-subsets of a block may carry the top value
# beta_i in a dec-min element (here the single 2-subset of S_1).  They are
# the bases of M_i; matroid.from_decomposition_matroid reads M_i off the
# smallest tight sets: L - y + x is a basis iff x lies in T_m(y)
import itertools

for i in range(D.q):
    block = sorted(D.partition[i])
    accepted = [
        set(L)
        for L in itertools.combinations(block, D.counts[i])
        if matroid_Mi_base_test(D, B, i, frozenset(L))
    ]
    print(f"block S_{i + 1} = {block}, r = {D.counts[i]}, bases of M_{i + 1}:",
          accepted)

# cheapest dec-min element under a linear cost: a greedy min-cost basis
# of each block matroid, swapped in along one walk from the dec-min element
cost = [5, 1, 1, 1]
cheapest = cheapest_decmin(B, cost)
print("cheapest dec-min element for cost", cost, "->", cheapest,
      "cost", int(np.dot(cheapest, cost)))

# a two-element instance with two dec-min elements shows the cost choice
B2 = BaseHandle(TableOracle([0, 0, 0, 1]))
print("tie-broken by cost:", cheapest_decmin(B2, [0, 1]),
      "vs", cheapest_decmin(B2, [1, 0]))
