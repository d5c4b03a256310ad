"""Exhaustive scans: the independent check on every solver at small sizes.

Each scan here works from the first definitions of its family (every
lattice point, every orientation code, every subgraph, arc flow, basis
tuple or root vector), never through a solver, so the CLI's --verify
switches, ``decmin verify`` and the tests compare the solvers against the
same scan.  No solver module imports this one and ``import decmin`` does
not load it; it reads the problem data classes and, for k-connected
orientations, netflow's Menger count.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    NEG_INF,
    POS_INF,
    BaseHandle,
    CeilingExceeded,
    EmptyBaseError,
    TableOracle,
    iter_masks,
    mask_of,
    sorted_dec,
)
from .netflow import Digraph, arc_disjoint_paths_at_least
from .orientation import Graph

VOLUME_CEILING = 10**6  # lattice points one point scan may touch


def _grid(widths) -> np.ndarray:
    """Every integer vector 0 <= x < widths, one row each, in
    lexicographic order (the last coordinate moves fastest)."""
    widths = [int(w) for w in widths]
    if not widths:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices(widths, dtype=np.int64).reshape(len(widths), -1).T


def decmin_rows(rows) -> tuple:
    """(boolean selector of the dec-min rows, their sorted signature)."""
    if len(rows) == 0:
        raise EmptyBaseError("no integral points")
    sigs = [sorted_dec(r) for r in rows]
    best = min(sigs)
    return np.array([s == best for s in sigs]), best


# ---------------------------------------------------------------------------
# points of a base-polyhedron
# ---------------------------------------------------------------------------


def _natural_bounds(B: BaseHandle):
    """Coordinatewise min/max of the set, from p and its complement, merged
    with the handle's box."""
    tab = B.oracle.table()
    full = B.oracle.full_mask
    lo = np.array([tab[1 << v] for v in range(B.n)])
    hi = np.array([
        POS_INF if tab[full ^ 1 << v] == NEG_INF else tab[full] - tab[full ^ 1 << v]
        for v in range(B.n)
    ])
    if B.lower is not None:
        lo = np.maximum(lo, B.lower)
    if B.upper is not None:
        hi = np.minimum(hi, B.upper)
    return lo, hi


def points(B: BaseHandle, box=None) -> np.ndarray:
    """Every integral point of B inside ``box`` = (lo, hi) (default: the
    natural coordinate bounds), as a lexicographically sorted (count, n)
    array.  CeilingExceeded on an unbounded range or past VOLUME_CEILING
    lattice points."""
    lo, hi = _natural_bounds(B)
    if box is not None:
        lo = np.maximum(lo, np.asarray(box[0], dtype=np.float64))
        hi = np.minimum(hi, np.asarray(box[1], dtype=np.float64))
    if np.any(np.isinf(lo)) or np.any(np.isinf(hi)):
        raise CeilingExceeded("unbounded coordinate range; pass a search box")
    lo, hi = np.ceil(lo).astype(np.int64), np.floor(hi).astype(np.int64)
    if np.any(hi < lo):
        return np.zeros((0, B.n), dtype=np.int64)
    widths = hi - lo + 1
    volume = int(np.prod(widths.astype(np.float64)))
    if volume > VOLUME_CEILING:
        raise CeilingExceeded(f"search volume {volume} exceeds ceiling")
    pts = _grid(widths) + lo
    tab = B.oracle.table()
    maskmat = (np.arange(1 << B.n) >> np.arange(B.n)[:, None] & 1).astype(np.float64)
    keep = np.zeros(len(pts), dtype=bool)
    for i in range(0, len(pts), 4096):
        sums = pts[i : i + 4096].astype(np.float64) @ maskmat
        keep[i : i + 4096] = np.all(sums >= tab, axis=1) & (sums[:, -1] == tab[-1])
    return pts[keep]


# ---------------------------------------------------------------------------
# one scan per problem family
# ---------------------------------------------------------------------------


def _k_connected(G: Graph, heads, k: int) -> bool:
    """Menger: k arc-disjoint dipaths from node 0 to every node and back."""
    arcs = [(u + v - h, h) for (u, v), h in zip(G.edges, heads.tolist())]
    D = Digraph(G.n, arcs, np.ones(G.m, np.int64))
    return all(
        arc_disjoint_paths_at_least(D, 0, v, k) and arc_disjoint_paths_at_least(D, v, 0, k)
        for v in range(1, G.n)
    )


def orientations(G: Graph, lo=None, hi=None, k: int = 0) -> tuple:
    """(heads, indeg) of every orientation of G with lo <= indeg <= hi
    (None: no bound) that is k-edge-connected: one row each, heads[:, j]
    the head of edge j, in the order of the 2^m head codes (bit j set:
    edge j = (u, v) points at v)."""
    codes = np.arange(1 << G.m, dtype=np.int64)
    heads = np.zeros((1 << G.m, G.m), dtype=np.int64)
    deg = np.zeros((1 << G.m, G.n), dtype=np.int64)
    for j, (u, v) in enumerate(G.edges):
        bit = codes >> j & 1
        heads[:, j] = np.where(bit == 1, v, u)
        deg[:, v] += bit
        deg[:, u] += 1 - bit
    keep = np.ones(len(deg), dtype=bool)
    if lo is not None:
        keep &= np.all(deg >= np.asarray(lo), axis=1)
    if hi is not None:
        keep &= np.all(deg <= np.asarray(hi), axis=1)
    if k > 0:
        keep[keep] = [_k_connected(G, h, k) for h in heads[keep]]
    return heads[keep], deg[keep]


def subgraphs(P) -> tuple:
    """(multiplicity, left degrees) of every subgraph that is feasible for
    the SemiMatchingProblem P: each edge taken at most its capacity (once
    by default), the right degrees pinned by t_degrees or within their
    bounds (all 1 without either), the left degrees within theirs, and
    gamma edge copies in all when set."""
    caps = P.edge_caps if P.edge_caps is not None else np.ones(P.m, np.int64)
    z = _grid(np.asarray(caps) + 1)
    left = np.zeros((P.m, P.n_left), dtype=np.int64)
    right = np.zeros((P.m, P.n_right), dtype=np.int64)
    for j, (s, t) in enumerate(P.edges):
        left[j, s] = right[j, t] = 1
    deg_s, deg_t = z @ left, z @ right
    keep = np.ones(len(z), dtype=bool)
    if P.t_degrees is not None:
        keep &= np.all(deg_t == P.t_degrees, axis=1)
    elif P.lower_right is None and P.upper_right is None:
        keep &= np.all(deg_t == 1, axis=1)
    for deg, low, high in ((deg_t, P.lower_right, P.upper_right),
                           (deg_s, P.lower_left, P.upper_left)):
        if low is not None:
            keep &= np.all(deg >= np.asarray(low), axis=1)
        if high is not None:
            keep &= np.all(deg <= np.asarray(high), axis=1)
    if P.gamma is not None:
        keep &= z.sum(axis=1) == P.gamma
    return z[keep], deg_s[keep]


def flows(D: Digraph, sources, sinks) -> tuple:
    """(z, net in-flow) of every integral arc vector 0 <= z <= cap of D
    that sends from the sources into the sinks: no source takes in, no
    sink sends out and every other node conserves."""
    z = _grid(D.cap + 1)
    inc = np.zeros((D.m, D.n), dtype=np.int64)
    for j, (u, v) in enumerate(D.arcs):
        inc[j, v] += 1
        inc[j, u] -= 1
    psi = z @ inc
    src, snk = sorted(sources), sorted(sinks)
    rest = [v for v in range(D.n) if v not in sources and v not in sinks]
    keep = (np.all(psi[:, src] <= 0, axis=1) & np.all(psi[:, snk] >= 0, axis=1)
            & np.all(psi[:, rest] == 0, axis=1))
    return z[keep], psi[keep]


def basis_sums(mats, limit=None) -> np.ndarray:
    """Every distinct sum of bases, one basis of each matroid, as rows.
    CeilingExceeded once the basis tuples to scan number more than limit."""
    n, tuples = mats[0].n, 1
    families = []
    for M in mats:
        families.append([c for c in itertools.combinations(range(n), M.rank())
                         if M.independent(c)])
        tuples *= len(families[-1])
        if limit is not None and tuples > limit:
            raise CeilingExceeded(f"more than {limit} basis tuples to scan")
    sums = {(0,) * n}
    for fam in families:
        sums = {tuple(x + (v in b) for v, x in enumerate(s)) for s in sums for b in fam}
    return np.array(sorted(sums), dtype=np.int64).reshape(-1, n)


def root_vectors(n: int, arcs, k: int) -> np.ndarray:
    """Every vector of k roots in all that meets Edmonds' condition
    m(X) >= k - rho(X) on every nonempty node set X, rho(X) counting the
    arcs that enter X: the root vectors of k disjoint spanning
    arborescences."""
    vecs = _grid([k + 1] * n)
    vecs = vecs[vecs.sum(axis=1) == k]
    masks = np.arange(1, 1 << n)
    rho = np.zeros(len(masks), dtype=np.int64)
    for u, v in arcs:
        rho += (masks >> v & 1) & ~(masks >> u) & 1
    inside = masks >> np.arange(n)[:, None] & 1
    return vecs[np.all(vecs @ inside >= k - rho, axis=1)]


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_supermodular_table(rng, n: int, low=-4, high=4) -> TableOracle:
    """A random fully supermodular table: a modular part plus nonnegative
    multiples of superset indicators, redrawn until every value lies in
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
