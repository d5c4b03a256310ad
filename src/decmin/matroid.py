"""Matroid oracles, Edmonds' matroid intersection, greedy bases, the block
matroids of a canonical decomposition (exchanges along a walk, no subset
table), dec-min sums of bases and dec-min partition-intersection vectors.

The orientation that is dec-min in both degree directions at once is one
orientation flow over two dec-min descriptions
(orientation.inout_decmin_orientation).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BaseHandle,
    EmptyBaseError,
    NEG_INF,
    POS_INF,
    SetFunctionOracle,
    Walk,
    box_walk,
    mask_of,
    member_tight_sets,
    register_membership,
    register_reader,
    text_parser,
)
from .canonical import CanonicalDecomposition, swap_partner
from .engine import basic_decmin, tighten


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
    if any(not 0 <= x < n_nodes for e in edges for x in e):
        raise ValueError("edge endpoint out of range")

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


def from_decomposition_matroid(
    D: CanonicalDecomposition, B: BaseHandle, i: int
) -> tuple:
    """The block matroid M_i of a canonical decomposition, as an
    independence oracle; returns (matroid, sorted block elements).

    Its bases are the beta_i-valued parts L on S_i of dec-min elements m,
    and L - y + x is a basis iff x is in T_m(y).  So X of at most r_i
    elements is independent iff, on a fresh walk from D's element, each x
    of X outside L swaps in for a y of the current basis outside X
    (canonical.swap_partner); if no y does, x's circuit lies in X."""
    start = D.decmin_element()
    block = sorted(D.partition[i])
    beta, r = D.betas[i], D.counts[i]

    def indep(X):
        X = {block[j] for j in X}
        if len(X) > r:
            return False
        outside = [x for x in X if start[x] != beta]
        if not outside:
            return True
        walk = member_tight_sets(B, start)
        m = walk.m
        for j, x in enumerate(outside):
            y = swap_partner(walk, x, (y for y in block if m[y] == beta and y not in X))
            if y is None:
                return False
            if j + 1 < len(outside):  # the last swap need not be made
                walk.step(x, y)
        return True

    return MatroidOracle(len(block), indep, f"M{i}"), block


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


def _bits(mask: int):
    """The elements of a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(adj: list, start: int, stop: Optional[int] = None) -> dict:
    """Breadth-first search over bitmask adjacency lists from start:
    prev[x] is the element x was first reached from (None for start).
    Stops as soon as stop is reached."""
    prev = {start: None}
    seen = 1 << start
    queue = deque([start])
    while queue:
        x = queue.popleft()
        new = adj[x] & ~seen
        seen |= new
        for y in _bits(new):
            prev[y] = x
            if y == stop:
                return prev
            queue.append(y)
    return prev


def _exchange_masks(M: MatroidOracle, basis: frozenset) -> list:
    """Per element x outside the basis, the bitmask of the y in it with
    basis - y + x a basis (the fundamental circuit of x, without x); 0 for
    the elements of the basis.  Asks the raw independence function, so the
    memo keeps no set of these one-off queries."""
    out = [0] * M.n
    for x in range(M.n):
        if x not in basis:
            out[x] = mask_of(y for y in basis if M._indep((basis - {y}) | {x}))
    return out


class _SumState(Walk):
    """The walk of bases B_1..B_k of the matroids summing to m, with the
    exchange graph of their union: arc x -> y when y is in B_i, x is not,
    and B_i - y + x is a basis of M_i.

    m + chi_s - chi_t is a sum of bases iff s reaches t, and a shortest
    s -> t path is a valid exchange sequence (Edmonds' matroid partition;
    Knuth 1973; Schrijver, Combinatorial Optimization, ch. 42).  So T_m(t)
    is the set of elements that reach t, and a step is one exchange."""

    def __init__(self, matroids: Sequence, bases: Sequence):
        self.matroids = list(matroids)
        self.bases = [frozenset(b) for b in bases]
        self.m = np.zeros(self.matroids[0].n, dtype=np.int64)
        for b in self.bases:
            self.m[list(b)] += 1
        self.arcs = [_exchange_masks(M, b) for M, b in zip(self.matroids, self.bases)]
        self._adjacency()

    def _adjacency(self) -> None:
        self.succ = [0] * len(self.m)
        for masks in self.arcs:
            for x, out in enumerate(masks):
                self.succ[x] |= out
        self.pred = [0] * len(self.m)
        for x, out in enumerate(self.succ):
            for y in _bits(out):
                self.pred[y] |= 1 << x

    def __call__(self, t: int) -> frozenset:
        return frozenset(_search(self.pred, t))

    def step(self, s: int, t: int, limit: int = 1) -> int:
        """Move to m + chi_s - chi_t along a shortest s -> t path (s
        reaches t)."""
        prev = _search(self.succ, s, t)
        changed = set()
        y = t
        while prev[y] is not None:
            x = prev[y]
            i = next(i for i, masks in enumerate(self.arcs) if masks[x] >> y & 1)
            self.bases[i] = (self.bases[i] - {y}) | {x}
            changed.add(i)
            y = x
        for i in changed:
            self.arcs[i] = _exchange_masks(self.matroids[i], self.bases[i])
        self.m[s] += 1
        self.m[t] -= 1
        self._adjacency()
        return 1


def _sum_start(B: BaseHandle, lo, hi) -> _SumState:
    """The walk of bases summing to a member in the box lo <= m <= hi: the
    greedy bases, moved into the box by exchange paths (_into_box)."""
    state = _SumState(B.oracle.matroids, [M.greedy_basis() for M in B.oracle.matroids])
    _into_box(state, lo, hi)
    return state


register_reader("matroid-sum", _sum_start)


def _into_box(state: _SumState, lo, hi) -> None:
    """Move the state into the box lo <= m <= hi (None: no bound) by
    exchange paths.  A unit leaves v with m(v) > hi(v) for the nearest u
    with m(u) < hi(u) that reaches v; then a unit reaches v with
    m(v) < lo(v) from the nearest u with m(u) > lo(u) that v reaches.
    Neither move breaks a bound that holds.  When no such u exists the
    box misses the set:

    - the elements T that reach v form the m-tight set T_m(v), so every
      member x has x(T) >= p(T) = m(T) > hi(T);
    - the elements R that v reaches hold m(R) = r_1(R) + ... + r_k(R),
      the most any member puts on R, and m(R) < lo(R).

    EmptyBaseError then carries T or R as its witness."""
    n = len(state.m)
    lo = np.full(n, NEG_INF) if lo is None else lo
    hi = np.full(n, POS_INF) if hi is None else hi
    for v in range(n):
        while state.m[v] > hi[v]:
            reach = _search(state.pred, v)
            u = next((u for u in reach if state.m[u] < hi[u]), None)
            if u is None:
                raise EmptyBaseError(
                    "the upper bounds sum below p on a tight set",
                    witness=frozenset(reach),
                )
            state.step(u, v)
    for v in range(n):
        while state.m[v] < lo[v]:
            reach = _search(state.succ, v)
            u = next((u for u in reach if state.m[u] > lo[u]), None)
            if u is None:
                raise EmptyBaseError(
                    "the lower bounds sum above the rank sum of a set",
                    witness=frozenset(reach),
                )
            state.step(v, u)


def decmin_basis_sum(matroids: Sequence, lower=None, upper=None):
    """Bases B_i of the given matroids whose summed incidence vector is
    decreasingly minimal, optionally within per-element bounds on how many
    bases may contain each element.

    Returns (list of bases, sum vector).  The solver keeps bases summing
    to the current vector and the exchange graph of their union (see
    _SumState): each tight set is one reverse search and each
    1-tightening step one shortest exchange path, so no set function is
    evaluated.  The greedy bases enter a box by exchange paths too; an
    empty intersection raises EmptyBaseError with a witness set.
    """
    handle = BaseHandle(SumOfMatroidsOracle(matroids), lower=lower, upper=upper)
    state = _sum_start(handle, handle.lower, handle.upper)
    tighten(box_walk(handle, state))
    return list(state.bases), state.m.copy()


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


register_membership("matroid-aggregate", _aggregate_membership)


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
# matroid JSON interface
# ---------------------------------------------------------------------------


@text_parser
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
