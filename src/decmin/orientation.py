"""Graph orientation solvers: prescribed in-degree vectors, dec-min
orientations (plain, degree-bounded, T-specified, capacitated,
k-edge-connected), the orientation form of the canonical decomposition,
and cheapest dec-min bounded orientations.

The in-degree vectors of orientations of G are the integral points of the
base-polyhedron of the induced-edge-count function.  Every solver here
rests on two primitives: one flow on the nodes of G itself
(_orientation_flow: exact in-degrees, in-degree bounds, block sums and
costs, with a minimum cut as the infeasibility witness), and one reader of
smallest tight sets as reachability sets (_tight_sets), where reversing an
s->t dipath is exactly the exchange m + chi_s - chi_t and the pair to
reverse comes from engine.tightening_pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netflow
from .core import (
    BaseHandle,
    CeilingExceeded,
    GraphInducedOracle,
    NEG_INF,
    POS_INF,
    as_intvec,
    register_fast_path,
)
from .canonical import (
    CanonicalDecomposition,
    canonical_from_tight_sets,
    decmin_description,
)
from .engine import tightening_pair
from .netflow import Digraph, FlowProblem, FlowResult, arc_disjoint_paths_at_least


class InfeasibleOrientationError(RuntimeError):
    """No orientation satisfies the requirements; carries a witness set."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDecMinOrientationError(ValueError):
    pass


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
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
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
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

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
        t_nodes = sorted(spec.t_set or range(len(spec.t_degrees)))
        lower = np.full(G.n, NEG_INF) if lower is None else np.asarray(lower, float)
        upper = np.full(G.n, POS_INF) if upper is None else np.asarray(upper, float)
        for v, d in zip(t_nodes, spec.t_degrees):
            lower[v] = upper[v] = int(d)
    if spec.objective == "min-indeg-T":
        if spec.t_set is None:
            raise ValueError("min-indeg-T needs a node set")
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
        d = np.zeros(self.graph.n, dtype=np.int64)
        for h in self.heads:
            d[h] += 1
        return d

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
        ell = self.graph.ell
        if ell is None:
            ell = np.ones(self.graph.m, dtype=np.int64)
        if np.any(self.toward_head < 0) or np.any(self.toward_head > ell):
            raise ValueError("copy counts must lie in [0, ell]")

    @property
    def indeg(self) -> np.ndarray:
        ell = self.graph.ell
        if ell is None:
            ell = np.ones(self.graph.m, dtype=np.int64)
        d = np.zeros(self.graph.n, dtype=np.int64)
        for (u, v), z, k in zip(self.graph.edges, self.toward_head, ell):
            d[v] += int(z)
            d[u] += int(k - z)
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
    return FlowResult(np.where(flip, np.array(ell) - moved, moved))


def _orient_by_flow(G: Graph, lo, hi, message, cost=None, blocks=None) -> Orientation:
    res = _orientation_flow(G.n, G.edges, None, lo, hi, cost, blocks)
    if not res.feasible:
        raise InfeasibleOrientationError(message, witness=res.witness)
    uv = np.asarray(G.edges, dtype=np.int64).reshape(-1, 2)
    return Orientation(G, np.where(res.flow > 0, uv[:, 1], uv[:, 0]))


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
    return _orient_by_flow(G, m, m, "no orientation matches the in-degree vector")


# ---------------------------------------------------------------------------
# dec-min orientations via improving dipath reversals
# ---------------------------------------------------------------------------


def _adjacency(orient: Orientation):
    adj = [[] for _ in range(orient.graph.n)]
    for j, (tail, head) in enumerate(orient.arcs()):
        adj[tail].append((head, j))
    return adj


def _reverse_adjacency(adj):
    radj = [[] for _ in adj]
    for u, out in enumerate(adj):
        for v, j in out:
            radj[v].append((u, j))
    return radj


def _reach_from(adj, s: int, n: int, allowed=None) -> np.ndarray:
    seen = np.zeros(n, dtype=bool)
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for v, j in adj[u]:
            if allowed is not None and not allowed[j]:
                continue
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _find_path(adj, s: int, t: int, n: int, allowed=None):
    """BFS dipath from s to t as a list of edge ids, or None."""
    prev = {s: (None, None)}
    queue = [s]
    while queue:
        nxt = []
        for u in queue:
            for v, j in adj[u]:
                if allowed is not None and not allowed[j]:
                    continue
                if v not in prev:
                    prev[v] = (u, j)
                    if v == t:
                        path = []
                        while v != s:
                            u0, j0 = prev[v]
                            path.append(j0)
                            v = u0
                        return path[::-1]
                    nxt.append(v)
        queue = nxt
    return None


def _reverse_path(orient: Orientation, path):
    for j in path:
        u, v = orient.graph.edges[j]
        orient.heads[j] = u if orient.heads[j] == v else v


def _tight_sets(orient: Orientation, lo, hi, k=0, allowed=None):
    """(in-degrees, adjacency, tight) of the current orientation, where the
    cached tight(t) is the smallest tight set of t: the nodes s that reach
    t along arcs of edges the mask allows, sit below hi(s) and, for
    connectivity k > 0, have k+1 arc-disjoint s->t dipaths (so reversing
    one keeps every cut in-degree at k or more); {t} alone when t sits at
    lo(t).  Reversing an s->t dipath is the exchange m + chi_s - chi_t."""
    deg = orient.indeg
    adj = _adjacency(orient)
    radj = _reverse_adjacency(adj)
    n = len(deg)
    below = deg < hi
    digraph = orient.digraph() if k else None

    @functools.cache
    def tight(t: int) -> frozenset:
        if deg[t] <= lo[t]:
            return frozenset({t})
        ok = _reach_from(radj, t, n, allowed) & below
        ok[t] = False
        members = np.flatnonzero(ok).tolist()
        if k:
            members = [
                s for s in members
                if arc_disjoint_paths_at_least(digraph, s, t, k + 1)
            ]
        return frozenset(members + [t])

    return deg, adj, tight


def _improve_to_decmin(orient: Orientation, lo, hi, k=0, allowed=None):
    """Reverse the dipath of a 1-tightening pair until none exists."""
    while True:
        deg, adj, tight = _tight_sets(orient, lo, hi, k, allowed)
        pair = tightening_pair(deg, tight)
        if pair is None:
            return orient
        _reverse_path(orient, _find_path(adj, *pair, len(deg), allowed))


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


def _initial_bounded(G: Graph, lo, hi) -> Orientation:
    """Any (lo, hi)-bounded orientation via one feasibility flow."""
    if np.any(lo > hi):
        bad = frozenset(int(v) for v in np.flatnonzero(lo > hi))
        raise InfeasibleOrientationError("empty in-degree box", witness=bad)
    return _orient_by_flow(G, lo, hi, "no in-degree-bounded orientation exists")


def decmin_orientation(G: Graph) -> Orientation:
    """Orientation whose in-degree vector is decreasingly minimal: reverse
    any dipath whose end in-degree exceeds its start in-degree by 2+."""
    orient = Orientation(G, np.array([v for _, v in G.edges], dtype=np.int64))
    lo = np.zeros(G.n, dtype=np.int64)
    hi = G.degrees()
    return _improve_to_decmin(orient, lo, hi)


def decmin_orientation_bounded(G: Graph, lower=None, upper=None) -> Orientation:
    """Dec-min among orientations with f(v) <= indeg(v) <= g(v)."""
    lo, hi = _resolve_bounds(G, lower, upper)
    return _improve_to_decmin(_initial_bounded(G, lo, hi), lo, hi)


def decmin_orientation_tspec(G: Graph, t_set, t_degrees) -> Orientation:
    """Dec-min among orientations with exact in-degrees on the nodes of
    t_set (a T-specified orientation)."""
    t_set = sorted(set(int(v) for v in t_set))
    spec = as_intvec(t_degrees, len(t_set))
    lo = np.full(G.n, -np.inf)
    hi = np.full(G.n, np.inf)
    for v, d in zip(t_set, spec):
        lo[v] = hi[v] = int(d)
    return decmin_orientation_bounded(G, lo, hi)


def orientation_canonical(
    G: Graph, orient: Orientation, lower=None, upper=None
) -> CanonicalDecomposition:
    """Canonical chain/partition/value-sequence read off a dec-min
    orientation, with smallest tight sets realized as reachability sets
    (in-degree-zero sets are exactly the tight ones)."""
    lo, hi = _resolve_bounds(G, lower, upper)
    deg, _, tight = _tight_sets(orient, lo, hi)
    if np.any(deg < lo) or np.any(deg > hi):
        raise NotDecMinOrientationError("orientation violates the bounds")
    if tightening_pair(deg, tight) is not None:
        raise NotDecMinOrientationError("orientation is not dec-min")
    return canonical_from_tight_sets(deg, tight)


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
    lo, hi = _resolve_bounds(G, lower, upper)
    base = decmin_orientation_bounded(G, lo, hi)
    f, g, blocks = decmin_description(orientation_canonical(G, base, lo, hi))
    return _orient_by_flow(
        G, np.maximum(f, lo), np.minimum(g, hi), "no such orientation", cost, blocks
    )


def decmin_orientation_of_mixed_graph(*args, **kwargs):
    """Dec-min orientation of a mixed graph is rejected: the in-degree
    vectors of strong/mixed orientations form an intersection of two
    M-convex sets, where dec-min and inc-max genuinely differ, so the
    single-base-polyhedron machinery here does not apply."""
    raise NotImplementedError(decmin_orientation_of_mixed_graph.__doc__)


# ---------------------------------------------------------------------------
# minimizing the in-degree of a node set T first
# ---------------------------------------------------------------------------


def decmin_orientation_minT(G: Graph, lower, upper, t_set) -> Orientation:
    """Among (f, g)-bounded orientations minimizing the total in-degree of
    T, a dec-min one.

    First reverse s->t dipaths (s outside T below its upper bound, t in T
    above its lower bound) until the in-degree of T is minimum; the nodes
    reaching an unsaturated T-node then form the set X_T whose edges to the
    outside get frozen, and dec-min improvement continues on both sides of
    the frozen cut independently."""
    t_set = frozenset(int(v) for v in t_set)
    lo, hi = _resolve_bounds(G, lower, upper)
    orient = _initial_bounded(G, lo, hi)
    n = G.n
    while True:
        deg, adj, tight = _tight_sets(orient, lo, hi)
        pair = next(
            ((min(tight(t) - t_set), t) for t in sorted(t_set) if tight(t) - t_set),
            None,
        )
        if pair is None:
            break
        _reverse_path(orient, _find_path(adj, *pair, n))
    radj = _reverse_adjacency(adj)
    xt = np.zeros(n, dtype=bool)
    for t in sorted(t_set):
        if deg[t] > lo[t]:
            xt |= _reach_from(radj, t, n)
    in_t = np.isin(np.arange(n), list(t_set))
    f2 = np.where(xt & ~in_t, hi, lo)
    g2 = np.where(in_t & ~xt, lo, hi)
    same_side = np.array([xt[u] == xt[v] for u, v in G.edges], dtype=bool)
    return _improve_to_decmin(orient, f2, g2, allowed=same_side)


# ---------------------------------------------------------------------------
# k-edge-connected dec-min orientations
# ---------------------------------------------------------------------------


def _is_k_connected(orient: Orientation, k: int) -> bool:
    if k == 0:
        return True
    D = orient.digraph()
    if orient.graph.n == 1:
        return True
    v0 = 0
    for v in range(1, orient.graph.n):
        if not arc_disjoint_paths_at_least(D, v0, v, k):
            return False
        if not arc_disjoint_paths_at_least(D, v, v0, k):
            return False
    return True


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
    orient = _initial_korient(G, k, lo, hi)
    return _improve_to_decmin(orient, lo, hi, k)


# ---------------------------------------------------------------------------
# capacitated orientations through the net-in-flow base-polyhedron
# ---------------------------------------------------------------------------


def capacitated_decmin_orientation(G: Graph) -> CapacitatedOrientation:
    """Dec-min orientation of the graph in which edge e stands for ell(e)
    parallel copies, without expanding the edges: the in-degree vectors
    form the base-polyhedron of the capacity-weighted induced-edge
    function, and the copy counts are recovered by one feasibility flow."""
    if G.ell is None:
        raise ValueError("graph carries no edge capacities")
    from .engine import strongly_poly_decmin  # local import, cycle-free

    m = strongly_poly_decmin(BaseHandle(G.induced_oracle()))
    res = _orientation_flow(G.n, G.edges, G.ell, m, m)
    if not res.feasible:
        raise RuntimeError("dec-min in-degree vector was not realizable")
    return CapacitatedOrientation(G, res.flow)


# ---------------------------------------------------------------------------
# registry: flow-backed membership for graph-induced oracles
# ---------------------------------------------------------------------------


def _graph_membership(B: BaseHandle, m) -> bool:
    p: GraphInducedOracle = B.oracle
    m = as_intvec(m, p.n)
    if int(m.sum()) != int(np.sum(p.weights)):
        return False
    return _orientation_flow(p.n, p.edges, p.weights, m, m).feasible


def _graph_exchange(B: BaseHandle, m, s: int, t: int) -> bool:
    m2 = as_intvec(m, B.n).copy()
    m2[s] += 1
    m2[t] -= 1
    return _graph_membership(B, m2)


register_fast_path(
    "graph-induced", membership=_graph_membership, exchange=_graph_exchange
)


# ---------------------------------------------------------------------------
# text format: "p orient n m", "e u v [mult] [ell] [cost_uv cost_vu]",
# bounds lines "b v f g" (1-indexed nodes; "-inf"/"inf" allowed in bounds)
# ---------------------------------------------------------------------------


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
            lower[v] = lo
            upper[v] = hi
    return G, lower, upper
