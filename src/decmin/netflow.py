"""Integer network-flow plumbing: max-flow/min-cut, arc-disjoint path
counting, Hoffman-type feasible flows with lower bounds, and min-cost flow.

One routine moves flow: ``_blocking_flows`` (Dinic: breadth-first level
graphs and blocking flows with current-arc pointers).  A max flow is one
call of it; a min-cost flow is primal-dual, one Dijkstra on reduced costs
per phase and then blocking flows on the arcs of reduced cost 0.

These make the orientation and flow oracles polynomial instead of
brute-force; every routine returns integral flows and, on failure, a
violating node set usable as a certificate: the nodes the source reaches
in the final residual network, the inclusion-minimal minimum cut, which
is the same for every maximum flow.
"""

from __future__ import annotations

import heapq
import math
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
        m = len(arcs)
        self.head = [0] * (2 * m)
        self.head[0::2] = [v for _, v in arcs]
        self.head[1::2] = [u for u, _ in arcs]
        self.res = [0] * (2 * m)
        self.res[0::2] = map(int, caps)
        self.cost = None
        if costs is not None:
            self.cost = [0] * (2 * m)
            self.cost[0::2] = map(int, costs)
            self.cost[1::2] = [-w for w in self.cost[0::2]]
        self.adj = [[] for _ in range(n)]
        for i, (u, v) in enumerate(arcs):
            self.adj[u].append(2 * i)
            self.adj[v].append(2 * i + 1)

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


def _blocking_flows(R: _Residual, s: int, t: int, limit, adm=None) -> int:
    """Dinic: push flow from s to t in R, in place, until limit units are
    sent or t is cut off; returns the amount sent.

    Each phase labels the nodes by breadth-first distance from s and sends
    a blocking flow along arcs that go one level up, found by a depth-first
    search that keeps a current-arc pointer per node (each arc is passed
    over at most once per phase).  adm[a], when given, admits arc a at all.
    """
    n, head, res, adj = R.n, R.head, R.res, R.adj
    if adm is None:
        adm = res  # every arc of positive residual capacity
    sent = 0
    while sent < limit:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            up = level[u] + 1
            for a in adj[u]:
                if res[a] and adm[a] and level[head[a]] < 0:
                    level[head[a]] = up
                    queue.append(head[a])
            if level[t] >= 0:
                break
        if level[t] < 0:
            break
        ptr = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                d = min(limit - sent, min(res[a] for a in path))
                R.push(path, d)
                sent += d
                if sent == limit:
                    return sent
                # back up to the tail of the first arc the push saturated
                k = next(i for i, a in enumerate(path) if not res[a])
                del path[k:]
                u = head[path[-1]] if path else s
                continue
            out, i, up = adj[u], ptr[u], level[u] + 1
            end = len(out)
            while i < end:
                a = out[i]
                if res[a] and adm[a] and level[head[a]] == up:
                    break
                i += 1
            ptr[u] = i
            if i < end:
                path.append(out[i])
                u = head[out[i]]
            elif path:
                # dead end: retreat and skip the arc that led here
                u = head[path.pop() ^ 1]
                ptr[u] += 1
            else:
                break
    return sent


def _max_flow(n, arcs, caps, s, t, limit=math.inf):
    """Dinic on arc lists: (value, residual network at the end).  The
    value stops at limit when one is given (a Menger test needs no more),
    so the residual network then holds a flow of value limit, not a
    maximum one."""
    R = _Residual(n, arcs, caps)
    return _blocking_flows(R, s, t, limit), R


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
    if s == t:
        raise ValueError("source and sink must differ")
    return _max_flow(D.n, D.arcs, [1] * D.m, s, t, k)[0] >= k


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
    residual: Optional[_Residual] = None  # at the flow found, nodes of P first

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
        return FlowResult(flow=z, residual=R)
    seen = R.reach(src)
    return FlowResult(flow=None, witness=frozenset(v for v in range(D.n) if seen[v]))


def _potentials(R: _Residual) -> list:
    """Bellman-Ford from a virtual node joined to every node at cost 0:
    potentials under which every arc of positive residual capacity has a
    nonnegative reduced cost, or ValueError if a cycle of such arcs has
    negative cost (wherever it lies)."""
    n, adj, head, res, cost = R.n, R.adj, R.head, R.res, R.cost
    pi = [0] * n
    for _ in range(n + 1):
        changed = False
        for u in range(n):
            pu = pi[u]
            for a in adj[u]:
                if res[a] > 0 and pu + cost[a] < pi[head[a]]:
                    pi[head[a]] = pu + cost[a]
                    changed = True
        if not changed:
            return pi
    raise ValueError("negative-cost cycle in the flow network")


def _shortest_to(R: _Residual, s: int, t: int, pi: list) -> bool:
    """Dijkstra from s on the reduced costs cost(a) + pi(tail) - pi(head),
    stopped once t is settled.  Adds to pi the distance d(v) capped at
    d(t), which keeps every reduced cost nonnegative and gives 0 to every
    arc of a shortest s->t path.  False (pi untouched) if t is out of
    reach."""
    n, adj, head, res, cost = R.n, R.adj, R.head, R.res, R.cost
    dist = [None] * n
    dist[s] = 0
    done = [False] * n
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        base = d + pi[u]
        for a in adj[u]:
            v = head[a]
            if res[a] > 0 and not done[v]:
                nd = base + cost[a] - pi[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    if not done[t]:
        return False
    dt = dist[t]
    for v in range(n):
        pi[v] += dist[v] if done[v] else dt
    return True


def min_cost_flow(P: FlowProblem) -> FlowResult:
    """Minimum-cost integral flow with the prescribed net-in-flow, by the
    primal-dual method: each phase runs one Dijkstra on reduced costs,
    moves the potentials by its distances and sends blocking flows along
    the arcs whose reduced cost is then 0.  Potentials start at 0 when
    every cost is nonnegative, else from one Bellman-Ford, so negative
    arc costs are fine; a negative-cost cycle raises ValueError."""
    D = P.digraph
    if P.cost is None:
        raise ValueError("flow problem has no costs")
    arcs, caps, costs, src, snk, need = _demand_network(P)
    R = _Residual(D.n + 2, arcs, caps, costs)
    pi = _potentials(R) if min(costs, default=0) < 0 else [0] * R.n
    head, cost = R.head, R.cost
    sent = 0
    while sent < need and _shortest_to(R, src, snk, pi):
        adm = [cost[a] + pi[head[a ^ 1]] == pi[head[a]] for a in range(len(cost))]
        sent += _blocking_flows(R, src, snk, need - sent, adm)
    if sent < need:
        seen = R.reach(src)
        witness = frozenset(v for v in range(D.n) if seen[v])
        return FlowResult(flow=None, witness=witness)
    z = P.lower + np.array([R.flow_on(i) for i in range(D.m)], dtype=np.int64)
    total_cost = int(np.dot(z, P.cost))
    return FlowResult(flow=z, cost=total_cost, residual=R)
