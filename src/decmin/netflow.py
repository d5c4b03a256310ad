"""Integer network-flow plumbing: max-flow/min-cut (Edmonds-Karp),
arc-disjoint path counting, Hoffman-type feasible flows with lower bounds,
and successive-shortest-path min-cost flow.

These make the orientation and flow oracles polynomial instead of
brute-force; every routine returns integral flows and, on failure, a
violating node set usable as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import as_intvec


@dataclass
class Digraph:
    """Directed multigraph with integer arc capacities and optional costs."""

    n: int
    arcs: list  # list of (tail, head)
    cap: np.ndarray
    cost: Optional[np.ndarray] = None

    def __post_init__(self):
        self.arcs = [(int(u), int(v)) for u, v in self.arcs]
        for u, v in self.arcs:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("arc endpoint out of range")
        self.cap = as_intvec(self.cap, len(self.arcs))
        if np.any(self.cap < 0):
            raise ValueError("capacities must be nonnegative")
        if self.cost is not None:
            self.cost = as_intvec(self.cost, len(self.arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)


class _Residual:
    """Arc-list residual network; arc 2i is forward, 2i+1 its reverse."""

    def __init__(self, n, arcs, caps, costs=None):
        self.n = n
        self.head = []
        self.res = []
        self.cost = []
        self.adj = [[] for _ in range(n)]
        if costs is None:
            costs = [0] * len(arcs)
        for (u, v), c, w in zip(arcs, caps, costs):
            self._add(u, v, int(c), int(w))

    def _add(self, u, v, c, w):
        self.adj[u].append(len(self.head))
        self.head.append(v)
        self.res.append(c)
        self.cost.append(w)
        self.adj[v].append(len(self.head))
        self.head.append(u)
        self.res.append(0)
        self.cost.append(-w)

    def flow_on(self, i: int) -> int:
        return self.res[2 * i + 1]

    def reach(self, s: int) -> list:
        """seen[v]: v is reachable from s along arcs of positive residual
        capacity (the source side of a minimum cut)."""
        seen = [False] * self.n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for a in self.adj[u]:
                v = self.head[a]
                if self.res[a] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen

    def path(self, s: int, t: int):
        """The arcs of a shortest s->t path of positive residual capacity
        (breadth-first), or None."""
        prev_arc = [-1] * self.n
        prev_arc[s] = s
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for a in self.adj[u]:
                    v = self.head[a]
                    if self.res[a] > 0 and prev_arc[v] == -1:
                        prev_arc[v] = a
                        if v == t:
                            path = []
                            while v != s:
                                path.append(prev_arc[v])
                                v = self.head[prev_arc[v] ^ 1]
                            return path[::-1]
                        nxt.append(v)
            queue = nxt
        return None

    def push(self, path, amount: int) -> None:
        """Send amount units along the arcs of path."""
        for a in path:
            self.res[a] -= amount
            self.res[a ^ 1] += amount


def _max_flow(n, arcs, caps, s, t):
    """Edmonds-Karp on arc lists: (value, residual network at the end)."""
    R = _Residual(n, arcs, caps)
    value = 0
    while (path := R.path(s, t)) is not None:
        bottleneck = min(R.res[a] for a in path)
        R.push(path, bottleneck)
        value += bottleneck
    return value, R


def max_flow(D: Digraph, s: int, t: int):
    """Integral max flow from s to t with a min-cut certificate.

    Returns (value, flow per arc, cut) where cut is the set of nodes on the
    source side of a minimum cut (value equals its capacity).
    """
    if s == t:
        raise ValueError("source and sink must differ")
    value, R = _max_flow(D.n, D.arcs, D.cap, s, t)
    seen = R.reach(s)
    flow = np.array([R.flow_on(i) for i in range(D.m)], dtype=np.int64)
    cut = frozenset(v for v in range(D.n) if seen[v])
    return value, flow, cut


def arc_disjoint_paths_at_least(D: Digraph, s: int, t: int, k: int) -> bool:
    """Menger: are there at least k arc-disjoint s->t dipaths?"""
    if k < 1:
        raise ValueError("k must be >= 1")
    return max_flow(Digraph(D.n, D.arcs, [1] * D.m), s, t)[0] >= k


@dataclass
class FlowProblem:
    """Find integral z with lower <= z <= upper whose net-in-flow is m."""

    digraph: Digraph
    lower: np.ndarray
    upper: np.ndarray
    target: np.ndarray
    cost: Optional[np.ndarray] = None

    def __post_init__(self):
        m = self.digraph.m
        self.lower = as_intvec(self.lower, m)
        self.upper = as_intvec(self.upper, m)
        self.target = as_intvec(self.target, self.digraph.n)
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper")
        if self.cost is not None:
            self.cost = as_intvec(self.cost, m)


@dataclass
class FlowResult:
    flow: Optional[np.ndarray]
    witness: Optional[frozenset] = None
    cost: Optional[int] = None

    @property
    def feasible(self) -> bool:
        return self.flow is not None


def net_in_flow(D: Digraph, z) -> np.ndarray:
    psi = [0] * D.n
    for (u, v), x in zip(D.arcs, as_intvec(z, D.m).tolist()):
        psi[v] += x
        psi[u] -= x
    return np.array(psi, dtype=np.int64)


def _demand_network(P: FlowProblem):
    """Standard lower-bound transformation: the arcs of P with capacities
    upper - lower, plus a super-source feeding every node whose demand
    d = target - psi(lower) is negative and a super-sink drained by every
    node whose demand is positive (zero-cost plumbing when P has costs).

    Returns (arcs, caps, costs, src, snk, need); costs is None without
    costs, and need is the supply a feasible flow must route."""
    D = P.digraph
    if int(P.target.sum()) != 0:
        raise ValueError("net-in-flow targets must sum to zero")
    demand = P.target - net_in_flow(D, P.lower)
    src, snk = D.n, D.n + 1
    arcs = list(D.arcs)
    caps = (P.upper - P.lower).tolist()
    costs = None if P.cost is None else P.cost.tolist()
    for v in np.flatnonzero(demand).tolist():
        d = int(demand[v])
        arcs.append((v, snk) if d > 0 else (src, v))
        caps.append(abs(d))
        if costs is not None:
            costs.append(0)
    need = int(demand[demand > 0].sum())
    return arcs, caps, costs, src, snk, need


def feasible_m_flow(P: FlowProblem) -> FlowResult:
    """Hoffman-type feasibility: an integral flow with the prescribed
    net-in-flow, or a node set Z maximizing rho_f(Z) - delta_g(Z) - m~(Z)
    (a witness that the requirement fails on Z)."""
    D = P.digraph
    arcs, caps, _, src, snk, need = _demand_network(P)
    value, R = _max_flow(D.n + 2, arcs, caps, src, snk)
    if value == need:
        z = P.lower + np.array([R.flow_on(i) for i in range(D.m)], dtype=np.int64)
        return FlowResult(flow=z)
    seen = R.reach(src)
    return FlowResult(flow=None, witness=frozenset(v for v in range(D.n) if seen[v]))


def _spfa_potentials(n, adj, head, res, cost, src):
    """Bellman-Ford distances in the residual network (None if unreachable)."""
    dist = [None] * n
    dist[src] = 0
    prev_arc = [-1] * n

    def relax_once():
        changed = False
        for u in range(n):
            if dist[u] is None:
                continue
            for a in adj[u]:
                if res[a] <= 0:
                    continue
                v = head[a]
                nd = dist[u] + cost[a]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = a
                    changed = True
        return changed

    for _ in range(n - 1):
        if not relax_once():
            break
    else:
        if relax_once():
            raise ValueError("negative-cost cycle in the flow network")
    return dist, prev_arc


def min_cost_flow(P: FlowProblem) -> FlowResult:
    """Minimum-cost integral flow with the prescribed net-in-flow, via
    successive shortest augmenting paths (Bellman-Ford distances, so
    negative arc costs are fine as long as no negative cycle exists)."""
    D = P.digraph
    if P.cost is None:
        raise ValueError("flow problem has no costs")
    arcs, caps, costs, src, snk, need = _demand_network(P)
    R = _Residual(D.n + 2, arcs, caps, costs)
    sent = 0
    while sent < need:
        dist, prev_arc = _spfa_potentials(R.n, R.adj, R.head, R.res, R.cost, src)
        if dist[snk] is None:
            break
        # walk back along the shortest path
        path = []
        v = snk
        while v != src:
            a = prev_arc[v]
            path.append(a)
            v = R.head[a ^ 1]
        path.reverse()
        bottleneck = min(R.res[a] for a in path)
        R.push(path, bottleneck)
        sent += bottleneck
    if sent < need:
        seen = R.reach(src)
        witness = frozenset(v for v in range(D.n) if seen[v])
        return FlowResult(flow=None, witness=witness)
    z = P.lower + np.array([R.flow_on(i) for i in range(D.m)], dtype=np.int64)
    total_cost = int(np.dot(z, P.cost))
    return FlowResult(flow=z, cost=total_cost)
