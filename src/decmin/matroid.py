"""Matroid oracles, Edmonds' matroid intersection, greedy bases, dec-min
sums of matroid bases, dec-min partition-intersection vectors, and the
orientation that is dec-min in both degree directions at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BaseHandle,
    NEG_INF,
    SetFunctionOracle,
    as_intvec,
    effective_oracle,
    mask_of,
    register_fast_path,
)
from .canonical import CanonicalDecomposition
from .engine import basic_decmin


class MatroidOracle:
    """Independence-oracle matroid on ground set {0, ..., n-1}.

    Rank queries run the greedy over the independence oracle; both are
    memoized.
    """

    def __init__(self, n: int, indep: Callable, name: str = "matroid"):
        self.n = int(n)
        self._indep = indep
        self.name = name
        self._memo: dict = {frozenset(): True}

    def independent(self, X) -> bool:
        X = frozenset(int(v) for v in X)
        if X not in self._memo:
            self._memo[X] = bool(self._indep(X))
        return self._memo[X]

    def rank(self, X=None) -> int:
        X = range(self.n) if X is None else sorted(set(int(v) for v in X))
        cur: set = set()
        for v in X:
            if self.independent(cur | {v}):
                cur.add(v)
        return len(cur)

    def greedy_basis(self, key=None) -> frozenset:
        """A basis picked greedily in ``key`` order (default: element order)."""
        order = sorted(range(self.n), key=key) if key else range(self.n)
        cur: set = set()
        for v in order:
            if self.independent(cur | {v}):
                cur.add(v)
        return frozenset(cur)

    def __repr__(self):
        return f"MatroidOracle({self.name}, n={self.n})"


# -- constructors -----------------------------------------------------------


def uniform_matroid(n: int, r: int) -> MatroidOracle:
    return MatroidOracle(n, lambda X: len(X) <= r, f"uniform(r={r})")


def graphic_matroid(n_nodes: int, edges: Sequence) -> MatroidOracle:
    edges = [(int(u), int(v)) for u, v in edges]

    def forest(X):
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for j in X:
            u, v = edges[j]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return MatroidOracle(len(edges), forest, "graphic")


def partition_matroid(n: int, blocks: Sequence, caps: Sequence) -> MatroidOracle:
    blocks = [frozenset(int(v) for v in b) for b in blocks]
    caps = [int(c) for c in caps]

    def indep(X):
        return all(len(X & b) <= c for b, c in zip(blocks, caps))

    return MatroidOracle(n, indep, "partition")


def bases_matroid(n: int, bases: Sequence) -> MatroidOracle:
    fam = [frozenset(int(v) for v in b) for b in bases]
    if not fam:
        raise ValueError("need at least one basis")

    def indep(X):
        return any(X <= b for b in fam)

    return MatroidOracle(n, indep, "explicit-bases")


def dual_matroid(M: MatroidOracle) -> MatroidOracle:
    full = M.rank()
    ground = frozenset(range(M.n))

    def indep(X):
        return M.rank(ground - X) == full

    return MatroidOracle(M.n, indep, f"dual({M.name})")


def restrict_matroid(M: MatroidOracle, keep) -> tuple:
    """Restriction to ``keep``; returns (matroid, old-labels-of-new-ground)."""
    keep = sorted(set(int(v) for v in keep))
    back = {j: v for j, v in enumerate(keep)}

    def indep(X):
        return M.independent({back[j] for j in X})

    return MatroidOracle(len(keep), indep, f"{M.name}|"), keep


def contract_matroid(M: MatroidOracle, away) -> tuple:
    """Contraction of ``away`` (must be independent); returns
    (matroid, old-labels-of-new-ground)."""
    away = frozenset(int(v) for v in away)
    if not M.independent(away):
        raise ValueError("can only contract an independent set")
    keep = sorted(set(range(M.n)) - away)
    back = {j: v for j, v in enumerate(keep)}
    base_rank = M.rank(away)

    def indep(X):
        lifted = {back[j] for j in X} | away
        return M.rank(lifted) == len(X) + base_rank

    return MatroidOracle(len(keep), indep, f"{M.name}/"), keep


def direct_sum_matroid(parts: Sequence, grounds: Sequence) -> MatroidOracle:
    """Direct sum of matroids living on disjoint index sets of a common
    ground set; grounds[i] maps part i's local indices to global ones."""
    n = 1 + max(v for g in grounds for v in g) if grounds else 0
    lookup = {}
    for i, g in enumerate(grounds):
        for j, v in enumerate(g):
            lookup[int(v)] = (i, j)

    def indep(X):
        per = [set() for _ in parts]
        for v in X:
            if v not in lookup:
                return False
            i, j = lookup[v]
            per[i].add(j)
        return all(parts[i].independent(per[i]) for i in range(len(parts)))

    return MatroidOracle(n, indep, "direct-sum")


def _contracted_value(eff: SetFunctionOracle, witness, prev_mask: int, xmask: int):
    """p_i(X) = p(X u C_{i-1}) - p(C_{i-1}); the tight prefix value is read
    off the witness instead of a second oracle call."""
    base = int(sum(witness[v] for v in range(eff.n) if prev_mask >> v & 1))
    v = eff.value(xmask | prev_mask)
    if v == NEG_INF:
        return NEG_INF
    return v - base


def from_decomposition_matroid(
    D: CanonicalDecomposition, B: BaseHandle, i: int
) -> tuple:
    """The block matroid M_i of a canonical decomposition, as an
    independence oracle; returns (matroid, sorted block elements).

    Built through the dual: complements of bases of M_i are exactly the
    maximum sets packed under the submodular budget
    b*(X) = beta_i |X| - p_i(X), so independence reduces to a dual rank
    query."""
    eff = effective_oracle(B)
    witness = D.decmin_element()
    block = sorted(D.partition[i])
    kk = len(block)
    beta = D.betas[i]
    prev_mask = mask_of(D.chain[i - 1]) if i > 0 else 0
    bstar = np.zeros(1 << kk, dtype=np.float64)
    for sub in range(1, 1 << kk):
        xmask = mask_of(block[j] for j in range(kk) if sub >> j & 1)
        size = bin(sub).count("1")
        pv = _contracted_value(eff, witness, prev_mask, xmask)
        bstar[sub] = np.inf if pv == -np.inf else beta * size - pv
    masks = np.arange(1 << kk, dtype=np.int64)
    pc = np.array([bin(m).count("1") for m in range(1 << kk)])

    def dual_indep(W):
        wmask = 0
        for j in W:
            wmask |= 1 << j
        return bool(np.all(pc[masks & wmask] <= bstar))

    dual = MatroidOracle(kk, dual_indep, f"M{i}-dual")
    dual_rank = dual.rank()

    def indep(X):
        rest = set(range(kk)) - set(X)
        return dual.rank(rest) == dual_rank

    return MatroidOracle(kk, indep, f"M{i}"), block


# ---------------------------------------------------------------------------
# matroid intersection and greedy bases
# ---------------------------------------------------------------------------


@dataclass
class CommonBasisProblem:
    """Two matroid oracles on one ground set; solved by intersection."""

    first: MatroidOracle
    second: MatroidOracle

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise ValueError("matroids must share a ground set")


def common_basis(problem: CommonBasisProblem):
    """A common basis of the two matroids, or None when sizes fall short."""
    got = matroid_intersection(problem.first, problem.second)
    if len(got) == problem.first.rank() == problem.second.rank():
        return got
    return None


def matroid_intersection(M1: MatroidOracle, M2: MatroidOracle) -> frozenset:
    """Maximum common independent set via shortest augmenting paths in the
    exchange graph."""
    if M1.n != M2.n:
        raise ValueError("matroids must share a ground set")
    n = M1.n
    I: set = set()
    while True:
        outside = [x for x in range(n) if x not in I]
        sources = [x for x in outside if M1.independent(I | {x})]
        sinks = set(x for x in outside if M2.independent(I | {x}))
        if not sources or not sinks:
            break
        # BFS over the exchange graph, shortest path first
        prev = {x: None for x in sources}
        queue = list(sources)
        found = None
        for x in sources:
            if x in sinks:
                found = x
                break
        while queue and found is None:
            nxt = []
            for u in queue:
                if u in I:
                    # u -> x arcs: swap u out, x in keeps M1 independent
                    for x in outside:
                        if x in prev:
                            continue
                        if M1.independent((I - {u}) | {x}):
                            prev[x] = u
                            if x in sinks:
                                found = x
                                break
                            nxt.append(x)
                else:
                    # x -> y arcs: swap y out, x in keeps M2 independent
                    for y in list(I):
                        if y in prev:
                            continue
                        if M2.independent((I - {y}) | {u}):
                            prev[y] = u
                            nxt.append(y)
                if found is not None:
                    break
            queue = nxt
        if found is None:
            break
        path = []
        v = found
        while v is not None:
            path.append(v)
            v = prev[v]
        I ^= set(path)
    return frozenset(I)


def min_cost_basis(M: MatroidOracle, cost) -> frozenset:
    """Greedy minimum-cost basis (ascending cost, ties by index)."""
    cost = list(cost)
    if len(cost) != M.n:
        raise ValueError("one cost per element required")
    order = sorted(range(M.n), key=lambda v: (cost[v], v))
    cur: set = set()
    for v in order:
        if M.independent(cur | {v}):
            cur.add(v)
    if len(cur) != M.rank():
        raise ValueError("matroid has no basis of full rank")
    return frozenset(cur)


# ---------------------------------------------------------------------------
# dec-min sums of bases
# ---------------------------------------------------------------------------


class SumOfMatroidsOracle(SetFunctionOracle):
    """p(X) = sum_i [r_i(S) - r_i(S - X)]: the supermodular function of the
    Minkowski sum of the matroid base-polyhedra."""

    kind = "matroid-sum"

    def __init__(self, matroids: Sequence):
        if not matroids:
            raise ValueError("need at least one matroid")
        n = matroids[0].n
        if any(M.n != n for M in matroids):
            raise ValueError("matroids must share a ground set")
        super().__init__(n)
        self.matroids = list(matroids)
        self._full = [M.rank() for M in self.matroids]
        self._memo: dict = {}

    def value(self, mask: int):
        if mask not in self._memo:
            rest = [v for v in range(self._n) if not mask >> v & 1]
            self._memo[mask] = int(
                sum(f - M.rank(rest) for f, M in zip(self._full, self.matroids))
            )
        return self._memo[mask]


def _sum_membership_via_intersection(oracle: SumOfMatroidsOracle, m) -> Optional[list]:
    """Common-basis formulation: disjoint copies of the ground set, one per
    matroid, against the partition matroid demanding exactly m(s) copies of
    each element; returns the per-matroid bases or None."""
    mats = oracle.matroids
    k = len(mats)
    n = oracle.n
    if int(np.sum(m)) != sum(M.rank() for M in mats):
        return None
    if np.any(m < 0) or np.any(m > k):
        return None
    grounds = [[i * n + v for v in range(n)] for i in range(k)]
    n1 = direct_sum_matroid(mats, grounds)
    blocks = [frozenset(i * n + v for i in range(k)) for v in range(n)]
    n2 = partition_matroid(k * n, blocks, [int(m[v]) for v in range(n)])
    common = matroid_intersection(n1, n2)
    if len(common) != sum(M.rank() for M in mats):
        return None
    out = [frozenset(idx - i * n for idx in common if i * n <= idx < (i + 1) * n)
           for i in range(k)]
    return out


def _sum_membership(B: BaseHandle, m) -> bool:
    return _sum_membership_via_intersection(B.oracle, m) is not None


def _sum_exchange(B: BaseHandle, m, s: int, t: int) -> bool:
    m2 = as_intvec(m, B.n).copy()
    m2[s] += 1
    m2[t] -= 1
    return _sum_membership(B, m2)


register_fast_path(
    "matroid-sum", membership=_sum_membership, exchange=_sum_exchange
)


def decmin_basis_sum(matroids: Sequence, lower=None, upper=None):
    """Bases B_i of the given matroids whose summed incidence vector is
    decreasingly minimal, optionally within per-element bounds on how many
    bases may contain each element.

    Returns (list of bases, sum vector).  Membership tests run through
    matroid intersection against a copy-partition matroid.
    """
    oracle = SumOfMatroidsOracle(matroids)
    handle = BaseHandle(oracle, lower=lower, upper=upper)
    m0 = np.zeros(oracle.n, dtype=np.int64)
    for M in matroids:
        for v in M.greedy_basis():
            m0[v] += 1
    if not handle.in_box(m0):
        from .engine import initial_member

        m0 = initial_member(handle)
    m = basic_decmin(handle, m0)
    bases = _sum_membership_via_intersection(oracle, m)
    if bases is None:
        raise RuntimeError("dec-min sum vector failed to decompose")
    return bases, m


# ---------------------------------------------------------------------------
# dec-min partition-intersection vectors of a single matroid
# ---------------------------------------------------------------------------


class AggregateMatroidOracle(SetFunctionOracle):
    """p(X) = r(T) - r(T - union of the blocks in X): the supermodular
    function of the aggregated base-polyhedron along a partition."""

    kind = "matroid-aggregate"

    def __init__(self, M: MatroidOracle, blocks: Sequence):
        blocks = [sorted(set(int(v) for v in b)) for b in blocks]
        seen: set = set()
        for b in blocks:
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen |= set(b)
        if seen != set(range(M.n)):
            raise ValueError("blocks must partition the matroid ground set")
        super().__init__(len(blocks))
        self.M = M
        self.blocks = blocks
        self._full = M.rank()
        self._memo: dict = {}

    def value(self, mask: int):
        if mask not in self._memo:
            rest = [
                v
                for i, b in enumerate(self.blocks)
                if not mask >> i & 1
                for v in b
            ]
            self._memo[mask] = int(self._full - self.M.rank(rest))
        return self._memo[mask]


def _aggregate_realize(oracle: AggregateMatroidOracle, y) -> Optional[frozenset]:
    caps = [int(c) for c in y]
    if any(c < 0 or c > len(b) for c, b in zip(caps, oracle.blocks)):
        return None
    if sum(caps) != oracle._full:
        return None
    n2 = partition_matroid(oracle.M.n, oracle.blocks, caps)
    common = matroid_intersection(oracle.M, n2)
    if len(common) != oracle._full:
        return None
    return common


def _aggregate_membership(B: BaseHandle, y) -> bool:
    return _aggregate_realize(B.oracle, y) is not None


def _aggregate_exchange(B: BaseHandle, y, s: int, t: int) -> bool:
    y2 = as_intvec(y, B.n).copy()
    y2[s] += 1
    y2[t] -= 1
    return _aggregate_membership(B, y2)


register_fast_path(
    "matroid-aggregate",
    membership=_aggregate_membership,
    exchange=_aggregate_exchange,
)


def decmin_partition_intersection(M: MatroidOracle, blocks: Sequence):
    """A basis of M whose intersection vector with the given partition is
    decreasingly minimal; returns (basis, vector)."""
    oracle = AggregateMatroidOracle(M, blocks)
    handle = BaseHandle(oracle)
    base0 = M.greedy_basis()
    y0 = np.array(
        [len(base0 & set(b)) for b in oracle.blocks], dtype=np.int64
    )
    y = basic_decmin(handle, y0)
    basis = _aggregate_realize(oracle, y)
    if basis is None:
        raise RuntimeError("dec-min aggregate vector failed to realize")
    return basis, y


# ---------------------------------------------------------------------------
# orientations dec-min in both in-degrees and out-degrees
# ---------------------------------------------------------------------------


def inout_decmin_orientation(G):
    """An orientation whose in-degree vector is dec-min and whose
    out-degree vector is dec-min too, or None when no orientation achieves
    both at once.

    Both dec-min sets are translates of matroid base families by the same
    canonical translation, so the simultaneous requirement asks for two
    bases whose incidence vectors sum to a fixed 0/1/2 vector; the
    free part is a common-basis question answered by matroid intersection.
    """
    from .orientation import decmin_orientation, orient_with_indegrees, orientation_canonical

    D = orientation_canonical(G, decmin_orientation(G))
    handle = BaseHandle(G.induced_oracle())
    parts = []
    grounds = []
    for i in range(D.q):
        Mi, block = from_decomposition_matroid(D, handle, i)
        parts.append(Mi)
        grounds.append(block)
    mstar = direct_sum_matroid(parts, grounds)
    rank = mstar.rank()
    w = G.degrees() - 2 * D.delta_star
    if np.any(w < 0) or np.any(w > 2):
        return None
    forced = frozenset(int(v) for v in np.flatnonzero(w == 2))
    free = sorted(int(v) for v in np.flatnonzero(w == 1))
    if len(forced) + len(free) < rank or int(w.sum()) != 2 * rank:
        return None
    if not mstar.independent(forced):
        return None
    try:
        contracted, keep = contract_matroid(mstar, forced)
    except ValueError:
        return None
    keep_pos = {v: j for j, v in enumerate(keep)}
    if any(v not in keep_pos for v in free):
        return None
    mfree, back = restrict_matroid(contracted, [keep_pos[v] for v in free])
    r_free = rank - len(forced)
    if mfree.rank() != r_free or len(free) != 2 * r_free:
        return None
    common = matroid_intersection(mfree, dual_matroid(mfree))
    if len(common) != r_free:
        return None
    chosen = {free[j] for j in common} | forced
    m_in = D.delta_star.copy()
    for v in chosen:
        m_in[v] += 1
    return orient_with_indegrees(G, m_in)


# ---------------------------------------------------------------------------
# matroid JSON interface
# ---------------------------------------------------------------------------


def load_matroid_json(text: str) -> MatroidOracle:
    """{"type": graphic|uniform|partition|bases, ...params}."""
    doc = json.loads(text)
    kind = doc["type"]
    if kind == "graphic":
        return graphic_matroid(int(doc["n_nodes"]), doc["edges"])
    if kind == "uniform":
        return uniform_matroid(int(doc["n"]), int(doc["r"]))
    if kind == "partition":
        return partition_matroid(int(doc["n"]), doc["blocks"], doc["caps"])
    if kind == "bases":
        return bases_matroid(int(doc["n"]), doc["bases"])
    raise ValueError(f"unknown matroid type {kind!r}")
