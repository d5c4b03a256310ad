"""Graph orientation solvers: prescribed in-degree vectors, dec-min
orientations (plain, degree-bounded, T-specified, capacitated,
k-edge-connected), the orientation form of the canonical decomposition,
cheapest dec-min bounded orientations, and orientations dec-min in both
degree directions at once.

The in-degree vectors of orientations of G are the integral points of the
base-polyhedron of the induced-edge-count function.  Every solver here
rests on two primitives: one flow on the nodes of G itself
(_orientation_flow: exact in-degrees, in-degree bounds, block sums and
costs, with a minimum cut as the infeasibility witness), and one walk on
the residual network of the current orientation (_ResidualWalk), whose
arcs hold the copies of each edge headed at either end.  The smallest
tight set T_m(t) is the set of nodes t reaches in it; a step reverses
delta copies along an s->t dipath, the exchange m + delta (chi_s - chi_t),
pushed in place along a t->s path.  The dec-min solvers run
engine.tighten on that walk, the same loop the engine runs on every
kind's walk; capacitated graphs run it on copy counts.

OrientationOracle is every set one orientation flow realises on some of
its nodes: in-degree-bounded orientations and graph-induced sets (lo = 0,
a closed-form value) here, semi-matchings and Megiddo flows in
applications.  Its solvers walk on the residual network of their start flow
(walk_on), so a solve runs one flow and then one path per step, and with
costs one more flow over the dec-min set (cheapest_flow); an orientation
dec-min both ways is one flow over the in-degree and the out-degree
dec-min sets (inout_decmin_orientation).  One start, _flow_start, serves
each kind: one flow within the box, walked on its own residual network;
pinned to a vector it reads that vector's tight sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netflow
from .core import (
    BaseHandle,
    CeilingExceeded,
    EmptyBaseError,
    NEG_INF,
    POS_INF,
    SetFunctionOracle,
    Walk,
    as_intvec,
    mask_of,
    register_reader,
    start,
    text_parser,
)
from .canonical import (
    CanonicalDecomposition,
    canonical_from_decmin,
    canonical_from_tight_sets,
    decmin_description,
)
from .engine import tighten
from .netflow import Digraph, FlowProblem, FlowResult, arc_disjoint_paths_at_least


class InfeasibleOrientationError(EmptyBaseError):
    """No orientation satisfies the requirements; carries a witness set."""


def _check_edges(n, edges) -> None:
    """ValueError unless every edge joins two distinct nodes of range(n)."""
    for u, v in edges:
        if u == v:
            raise ValueError("loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("edge endpoint out of range")


@dataclass
class Graph:
    """Undirected multigraph; optional per-edge capacities and per-direction
    costs: cost[j] = (price when u is the head, price when v is the head)
    for edge j = (u, v)."""

    n: int
    edges: list
    ell: Optional[np.ndarray] = None
    cost: Optional[list] = None

    def __post_init__(self):
        self.edges = [(int(u), int(v)) for u, v in self.edges]
        _check_edges(self.n, self.edges)
        if self.ell is not None:
            self.ell = as_intvec(self.ell, len(self.edges))
            if np.any(self.ell < 1):
                raise ValueError("edge capacities must be >= 1")
        if self.cost is not None:
            self.cost = [(int(a), int(b)) for a, b in self.cost]
            if len(self.cost) != len(self.edges):
                raise ValueError("one cost pair per edge required")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=np.int64).ravel()
        return np.bincount(ends, minlength=self.n).astype(np.int64)

    def induced_oracle(self) -> GraphInducedOracle:
        return GraphInducedOracle(self.n, self.edges, self.ell)

    def expand(self) -> "Graph":
        """Replace each edge by ell(e) parallel copies (drops capacities)."""
        if self.ell is None:
            return Graph(self.n, list(self.edges))
        out = []
        for (u, v), k in zip(self.edges, self.ell):
            out.extend([(u, v)] * int(k))
        return Graph(self.n, out)


@dataclass
class OrientationSpec:
    """What to solve: in-degree bounds, exact specification on a node set,
    connectivity requirement, and the objective."""

    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    t_set: Optional[frozenset] = None
    t_degrees: Optional[np.ndarray] = None
    connectivity: int = 0
    objective: str = "decmin"  # decmin | cheapest-decmin | min-indeg-T

    def __post_init__(self):
        if self.objective not in ("decmin", "cheapest-decmin", "min-indeg-T"):
            raise ValueError(f"unknown objective {self.objective!r}")


def solve_orientation_spec(G: Graph, spec: OrientationSpec):
    """Dispatch an OrientationSpec to the matching solver."""
    lower, upper = spec.lower, spec.upper
    if spec.t_degrees is not None:
        t_set = range(len(spec.t_degrees)) if spec.t_set is None else spec.t_set
        lower, upper = _pin_degrees(G.n, lower, upper, t_set, spec.t_degrees)
    if spec.objective == "min-indeg-T":
        if spec.t_set is None:
            raise ValueError("min-indeg-T needs a node set")
        if spec.connectivity:
            raise ValueError("min-indeg-T and connectivity cannot be combined")
        return decmin_orientation_minT(G, lower, upper, spec.t_set)
    if spec.objective == "cheapest-decmin":
        if spec.connectivity:
            raise ValueError("costs and connectivity cannot be combined")
        return cheapest_decmin_orientation_bounded(G, lower, upper, G.cost)
    if spec.connectivity > 0:
        return decmin_korient(G, spec.connectivity, lower, upper)
    if lower is None and upper is None:
        return decmin_orientation(G)
    return decmin_orientation_bounded(G, lower, upper)


@dataclass
class Orientation:
    """An orientation of every edge copy; heads[j] is the head of edge j."""

    graph: Graph
    heads: np.ndarray

    def __post_init__(self):
        self.heads = as_intvec(self.heads, self.graph.m)
        for (u, v), h in zip(self.graph.edges, self.heads):
            if h != u and h != v:
                raise ValueError("head must be one of the edge endpoints")

    @property
    def indeg(self) -> np.ndarray:
        return np.bincount(self.heads, minlength=self.graph.n).astype(np.int64)

    @property
    def outdeg(self) -> np.ndarray:
        return self.graph.degrees() - self.indeg

    def arcs(self) -> list:
        return [
            ((v if h == u else u), int(h))
            for (u, v), h in zip(self.graph.edges, self.heads)
        ]

    def digraph(self) -> Digraph:
        return Digraph(self.graph.n, self.arcs(), np.ones(self.graph.m, np.int64))


@dataclass
class CapacitatedOrientation:
    """Orientation of the ell(e)-fold parallel class of each edge:
    toward_head[j] copies of edge j = (u, v) get head v, the rest head u."""

    graph: Graph
    toward_head: np.ndarray

    def __post_init__(self):
        self.toward_head = as_intvec(self.toward_head, self.graph.m)
        ell = 1 if self.graph.ell is None else self.graph.ell
        if np.any(self.toward_head < 0) or np.any(self.toward_head > ell):
            raise ValueError("copy counts must lie in [0, ell]")

    @property
    def indeg(self) -> np.ndarray:
        z = self.toward_head
        rest = (1 if self.graph.ell is None else self.graph.ell) - z
        d = np.zeros(self.graph.n, dtype=np.int64)
        for (u, v), zj, rj in zip(self.graph.edges, z.tolist(), rest.tolist()):
            d[v] += zj
            d[u] += rj
        return d


# ---------------------------------------------------------------------------
# the one flow model: copies of each edge moved along an arc of G itself
# ---------------------------------------------------------------------------


def _orientation_flow(n, edges, ell, lo, hi, cost=None, blocks=None):
    """An orientation of ell(j) copies of each edge j = (u, v) with
    lo <= in-degree <= hi, as one flow on the nodes of G.

    Every copy starts at its cheaper head (u on ties), so each arc costs
    |c_v - c_u| >= 0 and successive shortest paths never meet a negative
    cycle; the flow on arc j moves copies of edge j to its other end, up
    to ell(j) of them.  A node with lo(v) = hi(v) is a net-in-flow target;
    every other node sends its in-degree to its block's node, whose target
    is the block's in-degree sum minus that of its exact nodes.  blocks is
    a list of (nodes, in-degree sum) partitioning the nodes; by default one
    block holds every node and every copy.  With cost (one price pair per
    edge, as Graph.cost) the flow is a cheapest one.

    Returns a FlowResult whose flow counts the copies of each edge headed
    at v, or whose witness is a violating node set of G.
    """
    mm = len(edges)
    ell = [1] * mm if ell is None else ell.tolist()
    if cost is None:
        flip, arcs = [False] * mm, list(edges)
    else:
        flip = [cv < cu for cu, cv in cost]
        arcs = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flip)]
    lo, hi = lo.tolist(), hi.tolist()
    target = [lo[v] if lo[v] == hi[v] else 0 for v in range(n)]
    for (a, _), k in zip(arcs, ell):
        target[a] -= k
    if blocks is None:
        blocks = [(range(n), sum(ell))]
    for i, (members, total) in enumerate(blocks):
        target.append(total - sum(lo[v] for v in members if lo[v] == hi[v]))
        arcs += [(v, n + i) for v in members if lo[v] != hi[v]]
    free = [v for v, _ in arcs[mm:]]
    upper = ell + [hi[v] for v in free]
    P = FlowProblem(
        Digraph(n + len(blocks), arcs, upper),
        [0] * mm + [lo[v] for v in free],
        upper,
        target,
        cost=None
        if cost is None
        else [abs(cv - cu) for cu, cv in cost] + [0] * len(free),
    )
    res = netflow.feasible_m_flow(P) if cost is None else netflow.min_cost_flow(P)
    if not res.feasible:
        return FlowResult(None, witness=frozenset(v for v in res.witness if v < n))
    moved = res.flow[:mm]
    toward_v = np.where(flip, np.array(ell, dtype=np.int64) - moved, moved)
    return FlowResult(toward_v, residual=res.residual)


def _oriented(G: Graph, toward_v) -> Orientation:
    """The orientation heading edge j = (u, v) at v iff toward_v[j] > 0."""
    uv = np.asarray(G.edges, dtype=np.int64).reshape(-1, 2)
    return Orientation(G, np.where(np.asarray(toward_v) > 0, uv[:, 1], uv[:, 0]))


def orient_with_indegrees(G: Graph, m) -> Orientation:
    """An orientation whose in-degree vector is m, or
    InfeasibleOrientationError carrying a set X with m~(X) < i_G(X)."""
    m = as_intvec(m, G.n)
    if int(m.sum()) != G.m:
        raise ValueError("in-degree sum must equal the number of edges")
    if np.any(m < 0):
        v = int(np.argmin(m))
        raise InfeasibleOrientationError(
            f"negative in-degree at node {v}", witness=frozenset({v})
        )
    res = _orientation_flow(G.n, G.edges, None, m, m)
    if not res.feasible:
        raise InfeasibleOrientationError(
            "no orientation matches the in-degree vector", witness=res.witness
        )
    return _oriented(G, res.flow)


# ---------------------------------------------------------------------------
# dec-min orientations via improving dipath reversals
# ---------------------------------------------------------------------------


def _residual(n, edges, ell, toward_v):
    """(R, in-degrees) of the orientation heading toward_v[j] of the ell(j)
    copies of edge j = (u, v) at v, laid out as the residual network of an
    orientation flow: arc 2j (u -> v) holds the copies headed at u and
    arc 2j+1 (v -> u) the others, so the flow on arc j is toward_v[j]."""
    R = netflow._Residual(n, edges, ell)
    deg = [0] * n
    for j, ((u, v), z) in enumerate(zip(edges, toward_v)):
        R.res[2 * j + 1] = int(z)
        R.res[2 * j] -= int(z)
        deg[v] += R.res[2 * j + 1]
        deg[u] += R.res[2 * j]
    return R, deg


def _residual_of(orient: Orientation):
    G = orient.graph
    return _residual(G.n, G.edges, [1] * G.m, orient.heads == [v for _, v in G.edges])


def _toward_v(R, mm) -> np.ndarray:
    """The copies of each of the first mm edges headed at v: the flow on
    arc j of R, the residual network of _residual or of an orientation
    flow that starts every edge at u (no cost pair has c_v < c_u)."""
    return np.array(R.res[1 : 2 * mm : 2], dtype=np.int64)


def _pinned(R, n, nodes):
    """R with the in-degrees of the given nodes fixed: their arcs to the
    nodes past the first n (the flow's block nodes, source and sink) are
    closed both ways."""
    for v in nodes:
        for a in R.adj[v]:
            if R.head[a] >= n:
                R.res[a] = R.res[a ^ 1] = 0
    return R


class _ResidualWalk(Walk):
    """The walk of an orientation held by R, the residual network of an
    orientation flow: m = deg, the in-degrees of its first len(deg)
    nodes, kept within [lo, hi].  Pushing d along a t -> s path of R
    reverses d copies of an s -> t dipath: m + d (chi_s - chi_t).

    walk(t), cached until the next step, holds the nodes s that t reaches
    in R (s has an s -> t dipath), sit below hi(s) and, for connectivity
    k > 0, have k+1 arc-disjoint s -> t dipaths, i.e. a t -> s flow of
    k+1 in R (so reversing one keeps every cut in-degree at k or more);
    {t} alone when t sits at lo(t); with block labels, only the s of t's
    block (the flow fixes each block's sum).  A step pushes along a
    shortest t -> s path as many units as the limit, the path's least
    arc, hi(s) - deg(s) and deg(t) - lo(t) allow."""

    def __init__(self, R, deg, lo, hi, k=0, block=None):
        self.m = deg
        self.R, self.k, self.block = R, k, block
        self.lo, self.hi = np.asarray(lo).tolist(), np.asarray(hi).tolist()
        self._arcs = [(R.head[a ^ 1], R.head[a]) for a in range(len(R.res))] if k else None
        self._cache: dict = {}

    def __call__(self, t: int) -> frozenset:
        got = self._cache.get(t)
        if got is None:
            got = self._cache[t] = self._read(t)
        return got

    def _read(self, t: int) -> frozenset:
        R, deg, hi, k = self.R, self.m, self.hi, self.k
        if deg[t] <= self.lo[t]:
            return frozenset({t})
        seen = R.reach(t)
        members = [s for s in range(len(deg)) if seen[s] and deg[s] < hi[s] and s != t]
        if self.block is not None:
            members = [s for s in members if self.block[s] == self.block[t]]
        if k:
            members = [
                s for s in members
                if netflow._max_flow(R.n, self._arcs, R.res, t, s, k + 1)[0] > k
            ]
        return frozenset(members + [t])

    def step(self, s: int, t: int, limit: int = 1) -> int:
        R, deg = self.R, self.m
        path = R.path(t, s)
        d = int(min([limit, self.hi[s] - deg[s], deg[t] - self.lo[t]] + [R.res[a] for a in path]))
        R.push(path, d)
        deg[s] += d
        deg[t] -= d
        self._cache.clear()
        return d


def _improved(orient: Orientation, lo, hi, k=0) -> Orientation:
    R, deg = _residual_of(orient)
    tighten(_ResidualWalk(R, deg, lo, hi, k))
    return _oriented(orient.graph, _toward_v(R, orient.graph.m))


# ---------------------------------------------------------------------------
# the sets one orientation flow realises on some of its nodes
# ---------------------------------------------------------------------------


class OrientationOracle(SetFunctionOracle):
    """The vectors y = in-degree - base on the first k of the n nodes of
    an orientation of ell(j) copies of each edge j = (u, v) with
    lo <= in-degree <= hi: an M-convex set whose p(X), the least y(X),
    is one min-cost flow pricing each copy headed at a node of X.

    blocks, (ground nodes, y-sum) pairs, fix sums of y, and the nodes
    past the first k then take the remaining copies; without blocks the
    in-degrees of all n nodes sum to the copies.  Bounded orientations
    are the case k = n, base 0; semi-matchings and Megiddo flows are
    subclasses (applications).  Every edge joins two distinct nodes of
    range(n), else ValueError; ell may be 0 (a Megiddo arc of capacity 0)."""

    kind = "orientation"

    def __init__(self, n, edges, ell, lo, hi, k=None, base=0, blocks=None):
        super().__init__(n if k is None else k)
        _check_edges(n, edges)
        self.nodes, self.edges, self.blocks = n, edges, blocks
        self.ell = np.ones(len(edges), np.int64) if ell is None else as_intvec(ell, len(edges))
        self.lo, self.hi = lo, hi
        self.base = np.zeros(self._n, dtype=np.int64) + base
        self._memo: dict = {}

    def flow(self, lo_y=None, hi_y=None, blocks=None, cost=None) -> FlowResult:
        """One orientation flow with y narrowed to [lo_y, hi_y] (either
        side optional, an infinite bound meaning none; pinned when
        lo_y = hi_y) and the sums of blocks (default: the oracle's own)
        fixed; with cost, one price pair per edge as Graph.cost, a
        cheapest one.  The flow counts the copies of each edge headed at
        v; a witness is a node set of G, the nodes whose in-degree box is
        empty when there are some."""
        k, n = self._n, self.nodes
        lo, hi = self.lo, self.hi
        if lo_y is not None:
            lo = np.concatenate((np.maximum(lo[:k], self.base + lo_y), lo[k:]))
        if hi_y is not None:
            hi = np.concatenate((np.minimum(hi[:k], self.base + hi_y), hi[k:]))
        if np.any(lo > hi):
            return FlowResult(None, witness=frozenset(np.flatnonzero(lo > hi).tolist()))
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        blocks = self.blocks if blocks is None else blocks
        if blocks is not None:
            blocks = [(nodes, total + int(self.base[list(nodes)].sum())) for nodes, total in blocks]
            if k < n:
                blocks.append((range(k, n), int(self.ell.sum()) - sum(t for _, t in blocks)))
        return _orientation_flow(n, self.edges, self.ell, lo, hi, cost, blocks)

    def y(self, toward_v) -> np.ndarray:
        """y of the orientation heading toward_v[j] copies of edge j at v."""
        indeg = [0] * self.nodes
        for (u, v), k, z in zip(self.edges, self.ell.tolist(), toward_v.tolist()):
            indeg[u] += k - z
            indeg[v] += z
        return np.array(indeg[: self._n], dtype=np.int64) - self.base

    def walk(self, R, y) -> _ResidualWalk:
        """The walk of y on R, the residual network of a flow realising it;
        with two blocks or more, each tight set keeps to its block."""
        k = self._n
        block = [0] * k
        for i, (nodes, _) in enumerate(self.blocks or ()):
            for v in nodes:
                block[v] = i
        lo, hi = self.lo[:k] - self.base, self.hi[:k] - self.base
        return _ResidualWalk(R, y, lo, hi, block=block if any(block) else None)

    def value(self, mask: int):
        if mask not in self._memo:
            mark = [mask >> v & 1 for v in range(self._n)] + [0] * (self.nodes - self._n)
            res = self.flow(cost=[(mark[u], mark[v]) for u, v in self.edges])
            if not res.feasible:
                raise InfeasibleOrientationError("no orientation meets the bounds", res.witness)
            self._memo[mask] = int(self.y(res.flow) @ mark[: self._n])
        return self._memo[mask]


def _flow_start(B: BaseHandle, lo, hi) -> _ResidualWalk:
    """The walk of one orientation flow with lo <= y <= hi on its own
    residual network (walk_on).  Unless blocks or k = n fix y(S), the
    nodes past the first k realise larger sums too: an unpinned start
    then prices each copy headed at a ground node, and y(S) = p(S) must
    hold in the box."""
    oracle, k = B.oracle, B.oracle.n
    free = oracle.blocks is None and k < oracle.nodes
    pinned = lo is not None and hi is not None and np.array_equal(lo, hi)
    cost = [(int(u < k), int(v < k)) for u, v in oracle.edges] if free and not pinned else None
    res = oracle.flow(lo, hi, cost=cost)
    if not res.feasible:
        raise InfeasibleOrientationError("no orientation meets the bounds", res.witness)
    walk = walk_on(oracle, res)
    if free and (lo is not None or hi is not None) and sum(walk.m) != oracle.value(oracle.full_mask):
        raise EmptyBaseError("the box holds no member of least sum")
    return walk


class GraphInducedOracle(OrientationOracle):
    """i_G(X), the number (or total capacity ell) of edges inside X, in
    closed form.  Its base-polyhedron holds the in-degree vectors of the
    (capacitated) orientations of G: the bounded-orientation set with
    lo = 0 and hi = ell(E), a bound no in-degree passes.  Edges and
    capacities are checked as Graph checks them."""

    kind = "graph-induced"

    def __init__(self, n_nodes: int, edges, ell=None):
        G = Graph(n_nodes, edges, ell)
        ell = np.ones(G.m, dtype=np.int64) if G.ell is None else G.ell
        lo = np.zeros(G.n, dtype=np.int64)
        super().__init__(G.n, G.edges, ell, lo, lo + int(ell.sum()))
        self._edge_masks = [mask_of(e) for e in self.edges]

    def value(self, mask: int):
        return int(
            sum(
                w
                for em, w in zip(self._edge_masks, self.ell)
                if em & mask == em
            )
        )


register_reader(OrientationOracle.kind, _flow_start)
register_reader(GraphInducedOracle.kind, _flow_start)


def walk_on(oracle: OrientationOracle, first: FlowResult) -> _ResidualWalk:
    """The walk of a feasible flow of oracle on its own residual network,
    the in-degrees of the ground nodes pinned; _toward_v reads the walked
    flow off walk.R when no cost pair of first flipped an edge."""
    R = _pinned(first.residual, oracle.nodes, range(oracle.n))
    return oracle.walk(R, oracle.y(first.flow).tolist())


def cheapest_flow(oracle: OrientationOracle, walk: _ResidualWalk, cost) -> FlowResult:
    """The cheapest flow under cost over the dec-min set of oracle, walk
    being at a dec-min element: the canonical chain read off walk keeps
    every block sum exact and every y inside its small box
    (canonical.decmin_description)."""
    D = canonical_from_tight_sets(np.array(walk.m, dtype=np.int64), walk)
    res = oracle.flow(*decmin_description(D), cost=cost)
    assert res.feasible, "the dec-min element meets its own description"
    return res


def _resolve_bounds(G: Graph, lower, upper):
    deg = G.degrees()
    lo = np.zeros(G.n, dtype=np.int64)
    hi = deg.copy()
    if lower is not None:
        lraw = np.asarray(lower, dtype=np.float64)
        lo = np.maximum(lo, np.where(np.isfinite(lraw), lraw, 0)).astype(np.int64)
    if upper is not None:
        uraw = np.asarray(upper, dtype=np.float64)
        hi = np.minimum(hi, np.where(np.isfinite(uraw), uraw, deg)).astype(np.int64)
    return lo, hi


def _bounded(G: Graph, lower=None, upper=None, blocks=None) -> OrientationOracle:
    """The in-degree-bounded orientations of G as an orientation oracle."""
    return OrientationOracle(G.n, G.edges, None, *_resolve_bounds(G, lower, upper), blocks=blocks)


def decmin_orientation(G: Graph) -> Orientation:
    """Orientation whose in-degree vector is decreasingly minimal: reverse
    any dipath whose end in-degree exceeds its start in-degree by 2+."""
    orient = Orientation(G, np.array([v for _, v in G.edges], dtype=np.int64))
    return _improved(orient, np.zeros(G.n, dtype=np.int64), G.degrees())


def decmin_orientation_bounded(G: Graph, lower=None, upper=None) -> Orientation:
    """Dec-min among orientations with f(v) <= indeg(v) <= g(v)."""
    walk = start(BaseHandle(_bounded(G, lower, upper)))
    tighten(walk)
    return _oriented(G, _toward_v(walk.R, G.m))


def decmin_orientation_tspec(G: Graph, t_set, t_degrees) -> Orientation:
    """Dec-min among orientations with exact in-degrees on the nodes of
    t_set (a T-specified orientation)."""
    return decmin_orientation_bounded(G, *_pin_degrees(G.n, None, None, t_set, t_degrees))


def _pin_degrees(n, lower, upper, t_set, t_degrees):
    """(lower, upper) as float copies with the in-degrees of the nodes of
    t_set, in increasing order, pinned to t_degrees; ValueError unless
    there is one degree per node and every node lies in range(n)."""
    nodes = sorted(set(int(v) for v in t_set))
    degrees = as_intvec(t_degrees, len(nodes))
    if nodes and not 0 <= nodes[0] <= nodes[-1] < n:
        raise ValueError(f"T-node outside range({n})")
    lower = np.full(n, NEG_INF) if lower is None else np.array(lower, dtype=float)
    upper = np.full(n, POS_INF) if upper is None else np.array(upper, dtype=float)
    lower[nodes] = upper[nodes] = degrees
    return lower, upper


def orientation_canonical(
    G: Graph, orient: Orientation, lower=None, upper=None
) -> CanonicalDecomposition:
    """Canonical chain/partition/value-sequence read off a dec-min
    orientation of the in-degree-bounded orientations of G, whose smallest
    tight sets are reachability sets of one orientation flow; raises
    canonical.NotDecMinError unless its in-degrees are a dec-min member."""
    return canonical_from_decmin(BaseHandle(_bounded(G, lower, upper)), orient.indeg)


# ---------------------------------------------------------------------------
# cheapest dec-min bounded orientations
# ---------------------------------------------------------------------------


def orientation_cost(orient: Orientation, cost) -> int:
    total = 0
    for j, (u, v) in enumerate(orient.graph.edges):
        cu, cv = cost[j]
        total += int(cv) if orient.heads[j] == v else int(cu)
    return total


def cheapest_decmin_orientation_bounded(
    G: Graph, lower=None, upper=None, cost=None
) -> Orientation:
    """Cheapest (per-arc costs) among all dec-min (f, g)-bounded
    orientations.

    Pipeline: dec-min bounded orientation -> canonical data -> the exact
    description of the dec-min set (in-degrees inside the small canonical
    box AND every canonical block keeping its in-degree sum) -> one
    min-cost flow over exactly that set.
    """
    if cost is None:
        cost = G.cost
    if cost is None:
        cost = [(0, 0)] * G.m
    oracle = _bounded(G, lower, upper)
    walk = start(BaseHandle(oracle))
    tighten(walk)
    return _oriented(G, cheapest_flow(oracle, walk, cost).flow)


# ---------------------------------------------------------------------------
# orientations dec-min in both in-degrees and out-degrees
# ---------------------------------------------------------------------------


def inout_decmin_orientation(G: Graph) -> Optional[Orientation]:
    """An orientation whose in-degree vector is dec-min and whose
    out-degree vector is dec-min too, or None when no orientation achieves
    both at once.

    Out-degree vectors are the in-degree vectors of the reversed
    orientations, so both dec-min sets have the one description read off a
    dec-min orientation (canonical.decmin_description): x is the in-degree
    vector of an answer iff x and deg - x both keep its small box and its
    block sums.  That is one orientation flow, with the two boxes
    intersected, once deg(S_i) is twice the sum on every block S_i."""
    walk = start(BaseHandle(_bounded(G)))
    tighten(walk)
    D = canonical_from_tight_sets(np.array(walk.m, dtype=np.int64), walk)
    lower, upper, blocks = decmin_description(D)
    deg = G.degrees()
    if any(int(deg[nodes].sum()) != 2 * total for nodes, total in blocks):
        return None
    lo, hi = np.maximum(lower, deg - upper), np.minimum(upper, deg - lower)
    res = OrientationOracle(G.n, G.edges, None, lo, hi, blocks=blocks).flow()
    return _oriented(G, res.flow) if res.feasible else None


# ---------------------------------------------------------------------------
# minimizing the in-degree of a node set T first
# ---------------------------------------------------------------------------


def decmin_orientation_minT(G: Graph, lower, upper, t_set) -> Orientation:
    """Among (f, g)-bounded orientations minimizing the total in-degree of
    T, a dec-min one.

    The least in-degree of T is the bounded oracle's p(T), one min-cost
    flow; the orientations reaching it keep the in-degree sums of T and
    of V - T, so one orientation flow with those two block sums starts
    the walk, whose tight sets keep to their block."""
    t_set = sorted(set(int(v) for v in t_set))
    least = _bounded(G, lower, upper).value(mask_of(t_set))
    rest = [v for v in range(G.n) if v not in t_set]
    blocks = [(t_set, least), (rest, G.m - least)]
    walk = start(BaseHandle(_bounded(G, lower, upper, blocks)))
    tighten(walk)
    return _oriented(G, _toward_v(walk.R, G.m))


# ---------------------------------------------------------------------------
# k-edge-connected dec-min orientations
# ---------------------------------------------------------------------------


def _is_k_connected(orient: Orientation, k: int) -> bool:
    if k == 0:
        return True
    D = orient.digraph()
    return all(
        arc_disjoint_paths_at_least(D, 0, v, k)
        and arc_disjoint_paths_at_least(D, v, 0, k)
        for v in range(1, orient.graph.n)
    )


def _initial_korient(G: Graph, k: int, lo, hi) -> Orientation:
    """Backtracking over edge orientations; desk-scale constructor for a
    k-edge-connected in-degree-bounded starting point."""
    if G.m > 22:
        raise CeilingExceeded("initial k-connected search too large")
    heads = np.zeros(G.m, dtype=np.int64)
    indeg = np.zeros(G.n, dtype=np.int64)
    incident_left = G.degrees().astype(np.int64)

    def feasible_partial():
        # each node must still be able to reach its lower bound
        for v in range(G.n):
            if indeg[v] + incident_left[v] < lo[v]:
                return False
        return True

    def rec(j):
        if j == G.m:
            orient = Orientation(G, heads.copy())
            if np.all(indeg >= lo) and _is_k_connected(orient, k):
                return orient
            return None
        u, v = G.edges[j]
        incident_left[u] -= 1
        incident_left[v] -= 1
        for h in (v, u):
            if indeg[h] + 1 > hi[h]:
                continue
            heads[j] = h
            indeg[h] += 1
            if feasible_partial():
                got = rec(j + 1)
                if got is not None:
                    return got
            indeg[h] -= 1
        incident_left[u] += 1
        incident_left[v] += 1
        return None

    got = rec(0)
    if got is None:
        raise InfeasibleOrientationError(
            f"no {k}-edge-connected orientation within the bounds"
        )
    return got


def decmin_korient(G: Graph, k: int, lower=None, upper=None) -> Orientation:
    """Dec-min among k-edge-connected (f, g)-bounded orientations.

    Improvement step: reverse an s->t dipath when indeg(t) >= indeg(s)+2,
    the bounds permit, and k+1 arc-disjoint s->t dipaths exist (so every
    directed cut keeps in-degree at least k after the reversal)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    lo, hi = _resolve_bounds(G, lower, upper)
    if np.any(lo > hi):
        bad = frozenset(int(v) for v in np.flatnonzero(lo > hi))
        raise InfeasibleOrientationError("empty in-degree box", witness=bad)
    if k == 0:
        return decmin_orientation_bounded(G, lo, hi)
    return _improved(_initial_korient(G, k, lo, hi), lo, hi, k)


# ---------------------------------------------------------------------------
# capacitated orientations through the net-in-flow base-polyhedron
# ---------------------------------------------------------------------------


def capacitated_decmin_orientation(G: Graph) -> CapacitatedOrientation:
    """Dec-min orientation of the graph in which edge e stands for ell(e)
    parallel copies, without expanding the edges.

    The same reversal loop as the other orientations runs on copy counts:
    it starts with every copy of edge (u, v) headed at v and each reversal
    moves delta copies along an s -> t dipath of the residual network,
    delta the least of the path's bottleneck and (deg t - deg s) // 2.
    The number of reversals is polynomial in n and the total capacity,
    not strongly polynomial."""
    if G.ell is None:
        raise ValueError("graph carries no edge capacities")
    ell = G.ell.tolist()
    R, deg = _residual(G.n, G.edges, ell, ell)
    tighten(_ResidualWalk(R, deg, [0] * G.n, [sum(ell)] * G.n))
    return CapacitatedOrientation(G, _toward_v(R, G.m))


# ---------------------------------------------------------------------------
# text format: "p orient n m", "e u v [mult] [ell] [cost_uv cost_vu]",
# bounds lines "b v f g" (1-indexed nodes; "-inf"/"inf" allowed in bounds)
# ---------------------------------------------------------------------------


@text_parser
def parse_graph(text: str):
    """Parse the orientation problem text format; returns (Graph, lower,
    upper) where the bounds are None when no 'b' lines appear."""
    n = None
    edges = []
    ells = []
    costs = []
    bounds = {}
    saw_ell = False
    saw_cost = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "p":
            if len(tok) < 4 or tok[1] != "orient":
                raise ValueError(f"bad problem line: {raw!r}")
            n = int(tok[2])
        elif tok[0] == "e":
            if n is None:
                raise ValueError("edge line before problem line")
            u, v = int(tok[1]) - 1, int(tok[2]) - 1
            mult = int(tok[3]) if len(tok) >= 4 else 1
            ell = int(tok[4]) if len(tok) >= 5 else 1
            if len(tok) >= 7:
                cost_uv, cost_vu = int(tok[5]), int(tok[6])
                saw_cost = True
            else:
                cost_uv = cost_vu = 0
            if len(tok) >= 5:
                saw_ell = True
            for _ in range(mult):
                edges.append((u, v))
                ells.append(ell)
                # file gives arc costs (u->v, v->u); internally head-indexed
                costs.append((cost_vu, cost_uv))
        elif tok[0] == "b":
            v = int(tok[1]) - 1
            lo = NEG_INF if tok[2] in ("-inf", "-") else int(tok[2])
            hi = POS_INF if tok[3] in ("inf", "-") else int(tok[3])
            bounds[v] = (lo, hi)
        else:
            raise ValueError(f"unknown line: {raw!r}")
    if n is None:
        raise ValueError("missing problem line")
    G = Graph(
        n,
        edges,
        ell=np.array(ells, dtype=np.int64) if saw_ell else None,
        cost=costs if saw_cost else None,
    )
    lower = upper = None
    if bounds:
        lower = np.full(n, NEG_INF)
        upper = np.full(n, POS_INF)
        for v, (lo, hi) in bounds.items():
            if not 0 <= v < n:
                raise ValueError(f"bound line for node {v + 1} outside 1..{n}")
            lower[v] = lo
            upper[v] = hi
    return G, lower, upper
