"""Walk through the basic objects: decreasing/increasing orders, an
M-convex set given by a supermodular table, exhaustive enumeration, and
the two dec-min solvers.

Run:  python demos/01_decmin_basics.py
"""

import numpy as np

from decmin import (
    BaseHandle,
    TableOracle,
    basic_decmin,
    dec_compare,
    inc_compare,
    measures,
    strongly_poly_decmin,
)
from decmin.brute import points

# ---------------------------------------------------------------------------
# 1. comparing vectors by sorted components
# ---------------------------------------------------------------------------
x, y = (2, 5, 5, 1, 4), (1, 5, 5, 5, 1)
print("x =", x, " y =", y)
print("dec order:", dec_compare(x, y).value, " (sorted-desc lexicographic)")
print("value-equivalent example:", dec_compare((2, 5, 5, 1, 4), (1, 4, 5, 2, 5)).value)
print("inc order:", inc_compare((2, 2, 2, 4), (3, 1, 3, 3)).value)
print()

# ---------------------------------------------------------------------------
# 2. an M-convex set from a set-function table
#    masks index subsets: value[0b11] is the whole two-element ground set
# ---------------------------------------------------------------------------
B = BaseHandle(TableOracle([0, 0, 0, 1]))
print("integral points of the toy base-polyhedron:", points(B).tolist())

m_basic = basic_decmin(B)
m_strong = strongly_poly_decmin(B)
print("basic algorithm:   ", m_basic)
print("strongly polynomial:", m_strong)
print()

# ---------------------------------------------------------------------------
# 3. a four-element instance whose unique dec-min element is (2, 3, 3, 1);
#    the square-sums of its four points are 23, 27, 25, 29, showing that
#    the square-sum does not order vectors the way the dec order does
# ---------------------------------------------------------------------------
pts = np.array([(2, 3, 3, 1), (3, 3, 3, 0), (2, 2, 4, 1), (3, 2, 4, 0)])
vals = []
for mask in range(16):
    idx = [i for i in range(4) if mask >> i & 1]
    vals.append(int(pts[:, idx].sum(axis=1).min()) if idx else 0)
B4 = BaseHandle(TableOracle(vals))
print("points:", points(B4).tolist())
best = strongly_poly_decmin(B4)
print("dec-min element:", best)
for p in pts:
    rep = measures(p)
    print(f"  {tuple(p.tolist())}: square-sum {rep.square_sum:2d}, "
          f"difference-sum {rep.diff_sum:2d}, k-largest {rep.k_largest}")
