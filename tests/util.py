"""Shared test helpers: independent brute-force oracles and instance
generators.  Everything here works from first definitions (exhaustive
scans over subsets, points, or orientations), never through the solver
code paths it is used to check."""

from __future__ import annotations

import itertools
import math

import numpy as np

from decmin.core import (
    NEG_INF,
    BaseHandle,
    TableOracle,
    iter_masks,
    mask_of,
    popcounts,
    sorted_dec,
    sorted_inc,
)
from decmin.matroid import (
    MatroidOracle,
    bases_matroid,
    dual_matroid,
    graphic_matroid,
    min_cost_basis,
    partition_matroid,
    uniform_matroid,
)
from decmin.orientation import Graph, Orientation


# ---------------------------------------------------------------------------
# instances from the worked examples
# ---------------------------------------------------------------------------

# two-element instance with zero singleton values: members are (0,1), (1,0)
def i1_handle() -> BaseHandle:
    return BaseHandle(TableOracle([0, 0, 0, 1]))


# the sum-equals-one line: singletons unbounded below
def line_handle() -> BaseHandle:
    return BaseHandle(TableOracle([0, NEG_INF, NEG_INF, 1]))


R62_POINTS = np.array(
    [
        (2, 3, 3, 1),
        (3, 3, 3, 0),
        (2, 2, 4, 1),
        (3, 2, 4, 0),
    ],
    dtype=np.int64,
)


def table_from_points(points: np.ndarray) -> TableOracle:
    """The (supermodular) lower envelope p(X) = min over the point set of
    the coordinate sum on X; exact for M-convex point sets."""
    points = np.asarray(points, dtype=np.int64)
    n = points.shape[1]
    vals = []
    for mask in iter_masks(n):
        idx = [v for v in range(n) if mask >> v & 1]
        vals.append(int(points[:, idx].sum(axis=1).min()) if idx else 0)
    return TableOracle(vals)


def r62_handle() -> BaseHandle:
    return BaseHandle(table_from_points(R62_POINTS))


# translated matroid instance: bases of the four-element rank-2 matroid
# with circuits {0,3} and {1,2}, shifted by (1,-1,0,0)
SEC34_B1_POINTS = np.array(
    [
        (2, 0, 0, 0),
        (1, -1, 1, 1),
        (2, -1, 1, 0),
        (1, 0, 0, 1),
    ],
    dtype=np.int64,
)

SEC34_B2_POINTS = np.array(
    [
        (2, 0, 0, 0),
        (1, -1, 1, 1),
        (2, -1, 0, 1),
        (1, 0, 1, 0),
    ],
    dtype=np.int64,
)


def path_graph() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


def c4_graph() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def triangle_graph() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


# ---------------------------------------------------------------------------
# random instance generators (all deterministic via the caller's rng)
# ---------------------------------------------------------------------------


def random_supermodular_table(rng, n: int, low=-4, high=4) -> TableOracle:
    """Constructive supermodular generator: a modular part plus nonnegative
    multiples of superset indicators; resampled until every value lies in
    [low, high]."""
    for _ in range(1000):
        weights = rng.integers(-2, 3, size=n)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n + 1))
            members = rng.choice(n, size=size, replace=False)
            terms.append((mask_of(int(v) for v in members), int(rng.integers(1, 3))))
        vals = []
        for mask in iter_masks(n):
            total = sum(int(weights[v]) for v in range(n) if mask >> v & 1)
            total += sum(a for tm, a in terms if mask & tm == tm)
            vals.append(total)
        vals[0] = 0
        if all(low <= v <= high for v in vals):
            return TableOracle(vals)
    raise RuntimeError("generator failed to hit the value range")


def random_matroid(rng, n: int, kind: str) -> MatroidOracle:
    """A matroid of the given kind on n elements."""
    if kind in ("graphic", "explicit-bases", "dual"):
        nodes = int(rng.integers(2, 6))
        M = graphic_matroid(nodes, [tuple(int(v) for v in rng.integers(0, nodes, 2))
                                    for _ in range(n)])
        if kind == "dual":
            return dual_matroid(M)
        if kind == "explicit-bases":
            r = M.rank()
            return bases_matroid(n, [c for c in itertools.combinations(range(n), r)
                                     if M.independent(c)])
        return M
    if kind == "uniform":
        return uniform_matroid(n, int(rng.integers(0, n + 1)))
    cut = int(rng.integers(1, n))
    return partition_matroid(n, [range(cut), range(cut, n)],
                             [int(rng.integers(0, cut + 1)), int(rng.integers(0, n - cut + 1))])


def random_multigraph(rng, max_nodes=7, max_edges=12, connected=True, min_nodes=2) -> Graph:
    for _ in range(1000):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        m = int(rng.integers(n - 1, max_edges + 1))
        edges = []
        order = rng.permutation(n)
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((int(order[j]), int(order[i])))
        while len(edges) < m:
            u, v = rng.choice(n, size=2, replace=False)
            edges.append((int(u), int(v)))
        G = Graph(n, edges[:m])
        if not connected or _is_connected(G):
            return G
    raise RuntimeError("failed to generate a graph")


def _is_connected(G: Graph) -> bool:
    seen = {0}
    stack = [0]
    adj = [[] for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].append(v)
        adj[v].append(u)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == G.n


def random_bipartite(rng, max_left=4, max_right=4, max_edges=12):
    nl = int(rng.integers(1, max_left + 1))
    nr = int(rng.integers(1, max_right + 1))
    m = int(rng.integers(1, max_edges + 1))
    edges = [
        (int(rng.integers(0, nl)), int(rng.integers(0, nr))) for _ in range(m)
    ]
    return nl, nr, edges


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def full_scan_pair(m, tight):
    """The 1-tightening pair read off every target's smallest tight set:
    targets by decreasing m(t), the first one with a candidate s (m(s) <=
    m(t) - 2 in tight(t)) gives the pair with the smallest m(s); None when
    no target has one."""
    for t in sorted(range(len(m)), key=lambda v: (-int(m[v]), v)):
        cands = [s for s in tight(t) if s != t and m[t] - m[s] >= 2]
        if cands:
            return min(cands, key=lambda v: (int(m[v]), v)), t
    return None


def full_union(m, tight, keep) -> frozenset:
    """The union of tight(u) over every u with keep(m(u))."""
    return frozenset().union(*(tight(u) for u in range(len(m)) if keep(int(m[u]))))


def max_sendable(P) -> int:
    """The largest amount a MegiddoProblem's sources can send into its
    sinks: one max flow from a super-source feeding every source to a
    super-sink drained by every sink, on a copy of the digraph."""
    from decmin.netflow import Digraph, max_flow

    D = P.digraph
    big = int(D.cap.sum()) + 1
    sigma, tau = D.n, D.n + 1
    arcs = list(D.arcs) + [(sigma, s) for s in sorted(P.sources)]
    arcs += [(t, tau) for t in sorted(P.sinks)]
    caps = D.cap.tolist() + [big] * (len(P.sources) + len(P.sinks))
    return max_flow(Digraph(D.n + 2, arcs, caps), sigma, tau)[0]


def orientation_scan(G: Graph) -> np.ndarray:
    """In-degree vectors of all 2^m orientations, row per head-code."""
    m = G.m
    codes = np.arange(1 << m, dtype=np.int64)
    deg = np.zeros((1 << m, G.n), dtype=np.int64)
    for j, (u, v) in enumerate(G.edges):
        bit = (codes >> j) & 1
        deg[:, v] += bit
        deg[:, u] += 1 - bit
    return deg


def orientation_from_code(G: Graph, code: int) -> Orientation:
    heads = np.array(
        [v if code >> j & 1 else u for j, (u, v) in enumerate(G.edges)],
        dtype=np.int64,
    )
    return Orientation(G, heads)


def decmin_rows(rows: np.ndarray) -> tuple:
    """(boolean selector of dec-min rows, optimal signature)."""
    sigs = [sorted_dec(r) for r in rows]
    best = min(sigs)
    return np.array([s == best for s in sigs]), best


def incmax_rows(rows: np.ndarray) -> tuple:
    sigs = [sorted_inc(r) for r in rows]
    best = max(sigs)
    return np.array([s == best for s in sigs]), best


def has_improving_dipath_brute(
    orient: Orientation, lo, hi, connectivity: int = 0
) -> bool:
    """Literal improving-dipath test: reachability plus the degree, bound
    and (for k-connected problems) arc-disjointness conditions."""
    from decmin.netflow import arc_disjoint_paths_at_least

    G = orient.graph
    deg = orient.indeg
    adj = [[] for _ in range(G.n)]
    for tail, head in orient.arcs():
        adj[tail].append(head)
    for s in range(G.n):
        if deg[s] + 1 > hi[s]:
            continue
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        for t in seen:
            if t == s or deg[t] - deg[s] < 2 or deg[t] - 1 < lo[t]:
                continue
            if connectivity and not arc_disjoint_paths_at_least(
                orient.digraph(), s, t, connectivity + 1
            ):
                continue
            return True
    return False


def is_k_connected_code(G: Graph, code: int, k: int) -> bool:
    from decmin.netflow import arc_disjoint_paths_at_least

    if k == 0:
        return True
    D = orientation_from_code(G, code).digraph()
    for v in range(1, G.n):
        if not arc_disjoint_paths_at_least(D, 0, v, k):
            return False
        if not arc_disjoint_paths_at_least(D, v, 0, k):
            return False
    return True


def brute_nd(tab: np.ndarray, n: int) -> int:
    """max over nonempty X of ceil(p(X)/|X|)."""
    best = None
    for mask in range(1, 1 << n):
        v = tab[mask]
        if v == NEG_INF:
            continue
        cand = math.ceil(v / bin(mask).count("1"))
        if best is None or cand > best:
            best = cand
    return best


def brute_canonical(tab, n: int):
    """Canonical data straight from the defining formulas: beta_i as the
    max ceiling ratio of the contracted function, S_i as the intersection
    of the maximizers of h_i, plus r_i, F_i, Delta*, pi*.

    Independent of the Algorithm-8.1 code path in the package."""
    chain = []
    partition = []
    betas = []
    counts = []
    value_fixed = []
    covered = 0
    full = (1 << n) - 1

    def p_of(mask):
        return tab[mask]

    while covered != full:
        rest = [v for v in range(n) if not covered >> v & 1]
        base = p_of(covered)
        best = None
        for r in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                xm = mask_of(combo)
                val = p_of(covered | xm)
                if val == NEG_INF:
                    continue
                cand = math.ceil((val - base) / r)
                if best is None or cand > best:
                    best = cand
        beta = best
        hmax = None
        maximizers = []
        for r in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                xm = mask_of(combo)
                val = p_of(covered | xm)
                if val == NEG_INF:
                    continue
                h = (val - base) - (beta - 1) * r
                if hmax is None or h > hmax:
                    hmax = h
                    maximizers = [set(combo)]
                elif h == hmax:
                    maximizers.append(set(combo))
        s_i = set.intersection(*maximizers)
        si_mask = mask_of(s_i)
        r_i = p_of(covered | si_mask) - base - (beta - 1) * len(s_i)
        fixed = set()
        for r in range(1, len(s_i) + 1):
            for combo in itertools.combinations(sorted(s_i), r):
                xm = mask_of(combo)
                val = p_of(covered | xm)
                if val != NEG_INF and val - base == beta * r:
                    fixed |= set(combo)
        covered |= si_mask
        chain.append(frozenset(v for v in range(n) if covered >> v & 1))
        partition.append(frozenset(s_i))
        betas.append(int(beta))
        counts.append(int(r_i))
        value_fixed.append(frozenset(fixed))
    delta = np.zeros(n, dtype=np.int64)
    pi = np.zeros(n, dtype=np.int64)
    for i, si in enumerate(partition):
        for v in si:
            delta[v] = betas[i] - 1
            pi[v] = 2 * betas[i] - 1
    return {
        "chain": chain,
        "partition": partition,
        "betas": betas,
        "counts": counts,
        "value_fixed": value_fixed,
        "delta_star": delta,
        "pi_star": pi,
    }


def basis_exchange_holds(family) -> bool:
    """Exhaustive matroid basis-exchange check over a set family."""
    fam = [frozenset(b) for b in family]
    if not fam:
        return False
    sizes = {len(b) for b in fam}
    if len(sizes) != 1:
        return False
    for b1 in fam:
        for b2 in fam:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in fam for y in b2 - b1):
                    return False
    return True


# ---------------------------------------------------------------------------
# single-matroid dec-min basis sums by rapid costs (cross-check path)
# ---------------------------------------------------------------------------


def parallel_copies_matroid(M: MatroidOracle, k: int) -> MatroidOracle:
    """Each element replaced by k parallel copies; copy (v, c) gets global
    index v * k + c."""

    def indep(X):
        seen = set()
        for idx in X:
            v = idx // k
            if v in seen:
                return False
            seen.add(v)
        return M.independent({idx // k for idx in X})

    return MatroidOracle(M.n * k, indep, f"{M.name}^parallel{k}")


def union_k_matroid(M: MatroidOracle, k: int, graph=None) -> MatroidOracle:
    """k-fold matroid union of M with itself: X independent iff it splits
    into k independent sets.  With graph = (n_nodes, edges), M is the
    graphic matroid of that multigraph and Nash-Williams' forest cover
    theorem decides (X splits into k forests iff no node set U holds more
    than k(|U| - 1) of its edges), one scan over the node sets; otherwise
    the union rank formula, exponential in |X|."""
    if graph is not None:
        n_nodes, edges = graph
        sets = np.arange(1 << n_nodes)
        spans = [(sets >> u) & (sets >> v) & 1 for u, v in edges]
        room = k * (popcounts(n_nodes) - 1)
        room[0] = 0

        def forests(X):
            held = sum((spans[j] for j in X), np.zeros(1 << n_nodes, dtype=np.int64))
            return bool(np.all(held <= room))

        return MatroidOracle(M.n, forests, f"{M.name}^union{k}")

    def indep(X):
        X = sorted(X)
        for r in range(len(X) + 1):
            for Y in itertools.combinations(X, r):
                if len(X) - len(Y) + k * M.rank(Y) < len(X):
                    return False
        return True

    return MatroidOracle(M.n, indep, f"{M.name}^union{k}")


def levin_onn_decmin_sum(M: MatroidOracle, k: int, graph=None):
    """Single-matroid dec-min basis sum through rapid costs on k parallel
    copies (union matroid + greedy), independent of decmin_basis_sum.
    graph = (n_nodes, edges) when M is that multigraph's graphic matroid
    (see union_k_matroid)."""
    par = parallel_copies_matroid(M, k)
    if graph is not None:
        n_nodes, edges = graph
        graph = (n_nodes, [edges[idx // k] for idx in range(M.n * k)])
    uni = union_k_matroid(par, k, graph)
    base = M.n * k + 2
    cost = [base ** (idx % k) for idx in range(M.n * k)]
    basis = min_cost_basis(uni, cost)
    out = np.zeros(M.n, dtype=np.int64)
    for idx in basis:
        out[idx // k] += 1
    return out
