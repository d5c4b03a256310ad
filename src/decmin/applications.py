"""End-to-end reductions: dec-min semi-matchings of bipartite graphs (all
degree-bounded and cardinality-constrained variants), the discrete
fair-flow problem on source sets, and dec-min root-vectors of arborescence
packings.

Each reduction presents its feasible vectors as an M-convex set through a
flow-backed supermodular oracle, hands the dec-min work to the generic
engine, and realizes the optimal vector again by one more flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netflow
from .core import (
    BaseHandle,
    RootVectorOracle,
    SetFunctionOracle,
    as_intvec,
    register_fast_path,
)
from .engine import basic_decmin
from .netflow import Digraph, FlowProblem


class InfeasibleProblemError(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# semi-matchings
# ---------------------------------------------------------------------------


@dataclass
class SemiMatchingProblem:
    """Degree-constrained bipartite subgraph selection.

    edges are (s, t) pairs with s in the left class S and t in the right
    class T; the objective side is always S.  With no degree data on T the
    classic semi-matching target d_F(t) = 1 applies.  ``gamma`` pins |F|,
    ``edge_caps`` allows edge multiplicities, ``cost`` prices each chosen
    edge copy.
    """

    n_left: int
    n_right: int
    edges: list
    t_degrees: Optional[np.ndarray] = None
    lower_left: Optional[np.ndarray] = None
    upper_left: Optional[np.ndarray] = None
    lower_right: Optional[np.ndarray] = None
    upper_right: Optional[np.ndarray] = None
    gamma: Optional[int] = None
    edge_caps: Optional[np.ndarray] = None
    cost: Optional[np.ndarray] = None

    def __post_init__(self):
        self.edges = [(int(s), int(t)) for s, t in self.edges]
        for s, t in self.edges:
            if not (0 <= s < self.n_left and 0 <= t < self.n_right):
                raise ValueError("edge endpoint out of range")
        if self.t_degrees is not None:
            self.t_degrees = as_intvec(self.t_degrees, self.n_right)
        if self.edge_caps is not None:
            self.edge_caps = as_intvec(self.edge_caps, len(self.edges))
        if self.cost is not None:
            self.cost = as_intvec(self.cost, len(self.edges))
        if self.gamma is not None and int(self.gamma) < 0:
            raise ValueError("gamma must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> np.ndarray:
        d = np.zeros(self.n_left, dtype=np.int64)
        for s, _ in self.edges:
            d[s] += 1
        return d

    def right_degrees(self) -> np.ndarray:
        d = np.zeros(self.n_right, dtype=np.int64)
        for _, t in self.edges:
            d[t] += 1
        return d


@dataclass
class SemiMatchingResult:
    multiplicity: np.ndarray  # chosen copies per edge
    left_degrees: np.ndarray
    right_degrees: np.ndarray
    cost: Optional[int] = None

    @property
    def edge_list(self) -> list:
        return [j for j, z in enumerate(self.multiplicity) for _ in range(int(z))]


def _sm_bounds(P: SemiMatchingProblem):
    caps = P.edge_caps
    if caps is None:
        caps = np.ones(P.m, dtype=np.int64)
    weighted_right = np.zeros(P.n_right, dtype=np.int64)
    weighted_left = np.zeros(P.n_left, dtype=np.int64)
    for (s, t), c in zip(P.edges, caps):
        weighted_left[s] += int(c)
        weighted_right[t] += int(c)
    if P.t_degrees is not None:
        lo_t = hi_t = P.t_degrees
    elif P.lower_right is not None or P.upper_right is not None:
        lo_t = (
            np.zeros(P.n_right, np.int64)
            if P.lower_right is None
            else as_intvec(P.lower_right, P.n_right)
        )
        hi_t = (
            weighted_right
            if P.upper_right is None
            else np.minimum(as_intvec(P.upper_right, P.n_right), weighted_right)
        )
    else:
        lo_t = hi_t = np.ones(P.n_right, dtype=np.int64)
    lo_s = (
        np.zeros(P.n_left, np.int64)
        if P.lower_left is None
        else as_intvec(P.lower_left, P.n_left)
    )
    hi_s = (
        weighted_left
        if P.upper_left is None
        else np.minimum(as_intvec(P.upper_left, P.n_left), weighted_left)
    )
    return caps, lo_s, hi_s, lo_t, hi_t


def _sm_circulation(P, pin=None, edge_cost=None, block_caps=None):
    """The circulation model: hubT -> t -> (edges) -> s -> hubS -> hubT.

    pin: exact S-degrees; block_caps: (per-node bounds, list of (block
    nodes, exact sum)) enforcing a canonical chain while minimizing cost.
    Returns FlowResult whose flow is indexed [edges..., then plumbing].
    """
    from .netflow import FlowResult

    caps, lo_s, hi_s, lo_t, hi_t = _sm_bounds(P)
    nS, nT, mm = P.n_left, P.n_right, P.m
    if np.any(lo_s > hi_s) or np.any(lo_t > hi_t):
        bad = frozenset(int(v) for v in np.flatnonzero(lo_s > hi_s))
        bad |= frozenset(
            P.n_left + int(v) for v in np.flatnonzero(lo_t > hi_t)
        )
        return FlowResult(flow=None, witness=bad)
    hub_t, hub_s = nS + nT, nS + nT + 1
    extra = 0
    arcs = []
    lows = []
    highs = []
    costs = []
    for j, (s, t) in enumerate(P.edges):
        arcs.append((nS + t, s))
        lows.append(0)
        highs.append(int(caps[j]))
        costs.append(0 if edge_cost is None else int(edge_cost[j]))
    for t in range(nT):
        arcs.append((hub_t, nS + t))
        lows.append(int(lo_t[t]))
        highs.append(int(hi_t[t]))
        costs.append(0)
    node_bounds = None
    blocks = None
    if block_caps is not None:
        node_bounds, blocks = block_caps
    if blocks is None:
        for s in range(nS):
            arcs.append((s, hub_s))
            lows.append(int(lo_s[s]))
            highs.append(int(hi_s[s]))
            costs.append(0)
    else:
        base = nS + nT + 2
        extra = len(blocks)
        for i, (members, sigma) in enumerate(blocks):
            for s in members:
                arcs.append((s, base + i))
                lows.append(int(node_bounds[0][s]))
                highs.append(int(node_bounds[1][s]))
                costs.append(0)
            arcs.append((base + i, hub_s))
            lows.append(int(sigma))
            highs.append(int(sigma))
            costs.append(0)
    if pin is not None:
        # overwrite the s -> hub arcs with exact values
        for idx, (u, v) in enumerate(arcs):
            if v == hub_s and u < nS:
                lows[idx] = highs[idx] = int(pin[u])
    total = int(P.gamma) if P.gamma is not None else None
    arcs.append((hub_s, hub_t))
    lows.append(0 if total is None else total)
    highs.append(int(caps.sum()) if total is None else total)
    costs.append(0)
    n_all = nS + nT + 2 + extra
    problem = FlowProblem(
        Digraph(n_all, arcs, np.array(highs, dtype=np.int64)),
        np.array(lows, dtype=np.int64),
        np.array(highs, dtype=np.int64),
        np.zeros(n_all, dtype=np.int64),
        cost=None if edge_cost is None else np.array(costs, dtype=np.int64),
    )
    if edge_cost is None:
        return netflow.feasible_m_flow(problem)
    return netflow.min_cost_flow(problem)


class SemiMatchingOracle(SetFunctionOracle):
    """p(X) = minimum total S-degree on X over feasible subgraphs; each
    evaluation is one min-cost circulation."""

    kind = "semimatching"

    def __init__(self, problem: SemiMatchingProblem):
        super().__init__(problem.n_left)
        self.problem = problem
        self._memo: dict = {}

    def value(self, mask: int):
        if mask not in self._memo:
            marker = np.array(
                [1 if mask >> s & 1 else 0 for s, _ in self.problem.edges],
                dtype=np.int64,
            )
            res = _sm_circulation(self.problem, edge_cost=marker)
            if not res.feasible:
                raise InfeasibleProblemError(
                    "no feasible subgraph", witness=res.witness
                )
            self._memo[mask] = int(res.cost)
        return self._memo[mask]


def _sm_membership(B: BaseHandle, y) -> bool:
    P = B.oracle.problem
    y = as_intvec(y, B.n)
    # pinning the degrees replaces the S-side bound arcs, so enforce the
    # bounds before the flow query
    _, lo_s, hi_s, _, _ = _sm_bounds(P)
    if np.any(y < lo_s) or np.any(y > hi_s):
        return False
    return _sm_circulation(P, pin=y).feasible


def _sm_exchange(B: BaseHandle, y, s: int, t: int) -> bool:
    y2 = as_intvec(y, B.n).copy()
    y2[s] += 1
    y2[t] -= 1
    return _sm_membership(B, y2)


register_fast_path(
    "semimatching", membership=_sm_membership, exchange=_sm_exchange
)


def decmin_semimatching(P: SemiMatchingProblem) -> SemiMatchingResult:
    """A feasible subgraph whose S-degree vector is decreasingly minimal;
    with costs, the cheapest one among those."""
    first = _sm_circulation(P)
    if not first.feasible:
        raise InfeasibleProblemError(
            "no subgraph meets the degree specifications", witness=first.witness
        )
    y0 = np.zeros(P.n_left, dtype=np.int64)
    for j, (s, _) in enumerate(P.edges):
        y0[s] += int(first.flow[j])
    handle = BaseHandle(SemiMatchingOracle(P))
    y = basic_decmin(handle, y0)
    if P.cost is None:
        final = _sm_circulation(P, pin=y)
        assert final.feasible
        z = final.flow[: P.m]
        total_cost = None
    else:
        # cheapest subgraph over the whole dec-min set: keep every chain
        # block sum exact and every node inside its small box
        from .canonical import canonical_from_decmin, decmin_description

        D = canonical_from_decmin(handle, y, check=False)
        lo_d, hi_d, blocks = decmin_description(D)
        _, lo_s, hi_s, _, _ = _sm_bounds(P)
        bounds = (np.maximum(lo_s, lo_d), np.minimum(hi_s, hi_d))
        res = _sm_circulation(P, edge_cost=P.cost, block_caps=(bounds, blocks))
        assert res.feasible
        z = res.flow[: P.m]
        total_cost = int(np.dot(z, P.cost))
    degS = np.zeros(P.n_left, dtype=np.int64)
    degT = np.zeros(P.n_right, dtype=np.int64)
    for j, (s, t) in enumerate(P.edges):
        degS[s] += int(z[j])
        degT[t] += int(z[j])
    return SemiMatchingResult(z, degS, degT, total_cost)


def load_semimatching_json(text: str) -> SemiMatchingProblem:
    doc = json.loads(text)
    return SemiMatchingProblem(
        n_left=int(doc["n_left"]),
        n_right=int(doc["n_right"]),
        edges=[tuple(e) for e in doc["edges"]],
        t_degrees=doc.get("t_degrees"),
        lower_left=doc.get("lower_left"),
        upper_left=doc.get("upper_left"),
        lower_right=doc.get("lower_right"),
        upper_right=doc.get("upper_right"),
        gamma=doc.get("gamma"),
        edge_caps=doc.get("edge_caps"),
        cost=doc.get("cost"),
    )


# ---------------------------------------------------------------------------
# discrete fair flows from a source set
# ---------------------------------------------------------------------------


@dataclass
class MegiddoProblem:
    """Send ``amount`` units from the source set into the sink set so that
    the per-source contribution vector is increasingly maximal."""

    digraph: Digraph
    sources: frozenset
    sinks: frozenset
    amount: Optional[int] = None

    def __post_init__(self):
        self.sources = frozenset(int(v) for v in self.sources)
        self.sinks = frozenset(int(v) for v in self.sinks)
        if self.sources & self.sinks:
            raise ValueError("source and sink sets must be disjoint")
        if not self.sources or not self.sinks:
            raise ValueError("source and sink sets must be non-empty")


@dataclass
class MegiddoResult:
    flow: np.ndarray
    outflow: np.ndarray  # per source, indexed by sorted(sources)
    sources: list


def _meg_network(P: MegiddoProblem, pin=None, marker=None, amount=None):
    D = P.digraph
    srcs = sorted(P.sources)
    big = int(D.cap.sum()) + 1
    sigma, tau = D.n, D.n + 1
    arcs = list(D.arcs)
    lows = [0] * D.m
    highs = [int(c) for c in D.cap]
    costs = [0] * D.m
    for i, s in enumerate(srcs):
        arcs.append((sigma, s))
        if pin is not None:
            lows.append(int(pin[i]))
            highs.append(int(pin[i]))
        else:
            lows.append(0)
            highs.append(big)
        costs.append(0 if marker is None else int(marker[i]))
    for t in sorted(P.sinks):
        arcs.append((t, tau))
        lows.append(0)
        highs.append(big)
        costs.append(0)
    arcs.append((tau, sigma))
    lows.append(int(amount))
    highs.append(int(amount))
    costs.append(0)
    problem = FlowProblem(
        Digraph(D.n + 2, arcs, np.array(highs, dtype=np.int64)),
        np.array(lows, dtype=np.int64),
        np.array(highs, dtype=np.int64),
        np.zeros(D.n + 2, dtype=np.int64),
        cost=None if marker is None else np.array(costs, dtype=np.int64),
    )
    if marker is None:
        return netflow.feasible_m_flow(problem)
    return netflow.min_cost_flow(problem)


def max_sendable(P: MegiddoProblem) -> int:
    D = P.digraph
    big = int(D.cap.sum()) + 1
    sigma, tau = D.n, D.n + 1
    arcs = list(D.arcs) + [(sigma, s) for s in sorted(P.sources)]
    caps = [int(c) for c in D.cap] + [big] * len(P.sources)
    for t in sorted(P.sinks):
        arcs.append((t, tau))
        caps.append(big)
    value, _, _ = netflow.max_flow(
        Digraph(D.n + 2, arcs, np.array(caps, dtype=np.int64)), sigma, tau
    )
    return value


class MegiddoOracle(SetFunctionOracle):
    """p(X) = minimum total out-flow of the sources in X among feasible
    flows of the prescribed amount."""

    kind = "megiddo"

    def __init__(self, problem: MegiddoProblem, amount: int):
        super().__init__(len(problem.sources))
        self.problem = problem
        self.amount = int(amount)
        self.sources = sorted(problem.sources)
        self._memo: dict = {}

    def value(self, mask: int):
        if mask not in self._memo:
            marker = [1 if mask >> i & 1 else 0 for i in range(self._n)]
            res = _meg_network(self.problem, marker=marker, amount=self.amount)
            if not res.feasible:
                raise InfeasibleProblemError("amount exceeds the max flow")
            self._memo[mask] = int(res.cost)
        return self._memo[mask]


def _meg_membership(B: BaseHandle, y) -> bool:
    o: MegiddoOracle = B.oracle
    if np.any(y < 0) or int(y.sum()) != o.amount:
        return False
    return _meg_network(o.problem, pin=y, amount=o.amount).feasible


def _meg_exchange(B: BaseHandle, y, s: int, t: int) -> bool:
    y2 = as_intvec(y, B.n).copy()
    y2[s] += 1
    y2[t] -= 1
    return _meg_membership(B, y2)


register_fast_path("megiddo", membership=_meg_membership, exchange=_meg_exchange)


def megiddo_discrete(P: MegiddoProblem) -> MegiddoResult:
    """Integral flow of the prescribed amount whose per-source out-flow
    vector is inc-max (equivalently dec-min over the same M-convex set)."""
    limit = max_sendable(P)
    amount = limit if P.amount is None else int(P.amount)
    if amount > limit or amount < 0:
        raise InfeasibleProblemError(
            f"amount {amount} exceeds the maximum sendable {limit}"
        )
    srcs = sorted(P.sources)
    first = _meg_network(P, amount=amount)
    assert first.feasible
    y0 = np.array(
        [first.flow[P.digraph.m + i] for i in range(len(srcs))], dtype=np.int64
    )
    handle = BaseHandle(MegiddoOracle(P, amount))
    y = basic_decmin(handle, y0)
    final = _meg_network(P, pin=y, amount=amount)
    assert final.feasible
    return MegiddoResult(final.flow[: P.digraph.m], y, srcs)


# ---------------------------------------------------------------------------
# dec-min root-vectors of arborescence packings
# ---------------------------------------------------------------------------


def _root_membership(B: BaseHandle, m) -> bool:
    p: RootVectorOracle = B.oracle
    if np.any(m < 0) or int(m.sum()) != p.k:
        return False
    # min over X containing v of m~(X) + rho(X) must reach k everywhere
    n = p.n
    for v in range(n):
        sigma = n
        arcs = list(p.arcs) + [(sigma, u) for u in range(n)]
        caps = [1] * len(p.arcs) + [int(m[u]) for u in range(n)]
        value, _, _ = netflow.max_flow(
            Digraph(n + 1, arcs, np.array(caps, dtype=np.int64)), sigma, v
        )
        if value < p.k:
            return False
    return True


def _root_exchange(B: BaseHandle, m, s: int, t: int) -> bool:
    m2 = as_intvec(m, B.n).copy()
    m2[s] += 1
    m2[t] -= 1
    return _root_membership(B, m2)


register_fast_path(
    "root-vector", membership=_root_membership, exchange=_root_exchange
)


def decmin_root_vector(D: Digraph, k: int) -> np.ndarray:
    """Dec-min vector m with m(v) roots at v across some packing of k
    arc-disjoint spanning arborescences; infeasible digraphs raise."""
    if k < 1:
        raise ValueError("k must be positive")
    oracle = RootVectorOracle(D.n, D.arcs, k)
    handle = BaseHandle(
        oracle,
        modularity="intersecting",
        lower=np.zeros(D.n),
        upper=np.full(D.n, float(k)),
    )
    from .engine import initial_member, EmptyBaseError

    try:
        m0 = initial_member(handle)
    except EmptyBaseError as exc:
        raise InfeasibleProblemError(
            f"no packing of {k} arc-disjoint spanning arborescences"
        ) from exc
    return basic_decmin(handle, m0)


# ---------------------------------------------------------------------------
# megiddo text format: digraph + "S:" / "T:" node lists + "M:" amount
# ---------------------------------------------------------------------------


def parse_megiddo(text: str) -> MegiddoProblem:
    """Lines: "p digraph n m", "a u v cap", "S: u ...", "T: v ...",
    optional "M: amount" (1-indexed nodes)."""
    n = None
    arcs = []
    caps = []
    sources = sinks = None
    amount = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "p":
            n = int(tok[2])
        elif tok[0] == "a":
            arcs.append((int(tok[1]) - 1, int(tok[2]) - 1))
            caps.append(int(tok[3]) if len(tok) > 3 else 1)
        elif tok[0] == "S:":
            sources = frozenset(int(x) - 1 for x in tok[1:])
        elif tok[0] == "T:":
            sinks = frozenset(int(x) - 1 for x in tok[1:])
        elif tok[0] == "M:":
            amount = int(tok[1])
        else:
            raise ValueError(f"unknown line: {raw!r}")
    if n is None or sources is None or sinks is None:
        raise ValueError("digraph, S: and T: lines are all required")
    return MegiddoProblem(
        Digraph(n, arcs, np.array(caps, dtype=np.int64)), sources, sinks, amount
    )


def parse_digraph(text: str) -> Digraph:
    n = None
    arcs = []
    caps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "p":
            n = int(tok[2])
        elif tok[0] == "a":
            arcs.append((int(tok[1]) - 1, int(tok[2]) - 1))
            caps.append(int(tok[3]) if len(tok) > 3 else 1)
        else:
            raise ValueError(f"unknown line: {raw!r}")
    if n is None:
        raise ValueError("missing problem line")
    return Digraph(n, arcs, np.array(caps, dtype=np.int64))
