"""End-to-end reductions: dec-min semi-matchings of bipartite graphs (all
degree-bounded and cardinality-constrained variants), the discrete
fair-flow problem on source sets, and dec-min root-vectors of arborescence
packings.

Each reduction presents its feasible vectors as an M-convex set through a
flow-backed supermodular oracle and hands the dec-min work to the generic
engine.

Semi-matchings and Megiddo flows are orientations: their oracles are
orientation.OrientationOracle on the graphs below, which owns every flow
of either (oracle value, start, tight sets):

- a semi-matching orients the bipartite graph G = (S, T; E) itself: the
  chosen copies of each edge point at S and the rest at T, so d_F(s) is
  the in-degree of s and d_F(t) is t's capacity-weighted degree w(t)
  minus its in-degree; nodes are S followed by T, and an infeasibility
  witness is a node set of G, with t numbered n_left + t;
- a Megiddo flow orients the reversed arcs of D, one copy per unit of
  capacity, with the sources numbered first (MegiddoOracle).

decmin_semimatching and megiddo_discrete solve one flow, the start's
(core.start for a semi-matching; a Megiddo flow raises the zero flow to
the amount, unknown when unset, by a max flow on its own residual
network): engine.tighten walks on its residual network with the
objective nodes pinned (orientation.walk_on), one path per step, and the
final flow is read off that network, or with costs is one cheapest flow
over the dec-min set (orientation.cheapest_flow).

Root-vectors have a fully supermodular oracle whose values and tight sets
are max flows from a super-root (RootVectorOracle, _root_tight).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import netflow
from .core import (
    BaseHandle,
    EmptyBaseError,
    SetFunctionOracle,
    _rereading,
    as_intvec,
    register_reader,
    start,
    text_parser,
)
from .engine import basic_decmin, tighten
from .netflow import Digraph, FlowResult
from .orientation import (
    OrientationOracle,
    _flow_start,
    _toward_v,
    cheapest_flow,
    walk_on,
)


class InfeasibleProblemError(EmptyBaseError):
    """No feasible answer exists; carries a witness set when one is known."""


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
    """(caps, lo, hi): the copies of each edge and the in-degree bounds of
    the orientation view, S-nodes first; t's in-degree is w(t) - d_F(t),
    so its bounds are [w(t) - hi_t, w(t) - lo_t]."""
    caps = P.edge_caps
    if caps is None:
        caps = np.ones(P.m, dtype=np.int64)
    w = np.zeros(P.n_left + P.n_right, dtype=np.int64)
    for (s, t), c in zip(P.edges, caps.tolist()):
        w[s] += c
        w[P.n_left + t] += c
    weighted_left, weighted_right = w[: P.n_left], w[P.n_left :]
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
    lo = np.concatenate((lo_s, weighted_right - hi_t))
    hi = np.concatenate((hi_s, weighted_right - lo_t))
    return caps, lo, hi


class SemiMatchingOracle(OrientationOracle):
    """p(X) = minimum total S-degree on X over feasible subgraphs: the
    S-degrees are the in-degrees of the first n_left nodes of an
    orientation of G (_sm_bounds), where edge j = (s, t) is the edge
    (n_left + t, s) and a chosen copy is headed at s.  gamma, when set,
    is the one block sum; the T-nodes take the remaining copies."""

    kind = "semimatching"

    def __init__(self, problem: SemiMatchingProblem):
        k = problem.n_left
        edges = [(k + t, s) for s, t in problem.edges]
        gamma = None if problem.gamma is None else [(range(k), int(problem.gamma))]
        super().__init__(k + problem.n_right, edges, *_sm_bounds(problem), k, blocks=gamma)
        self.problem = problem


def _sm_degrees(P: SemiMatchingProblem, z):
    """(S-degrees, T-degrees) of the subgraph taking z[j] copies of edge j."""
    degS = np.zeros(P.n_left, dtype=np.int64)
    degT = np.zeros(P.n_right, dtype=np.int64)
    for (s, t), k in zip(P.edges, z.tolist()):
        degS[s] += k
        degT[t] += k
    return degS, degT


def decmin_semimatching(P: SemiMatchingProblem) -> SemiMatchingResult:
    """A feasible subgraph whose S-degree vector is decreasingly minimal;
    with costs, the cheapest one among those.

    The search starts from a smallest feasible subgraph: when T-degrees
    and |F| are free, only S-degree vectors of least sum can be dec-min,
    and they form the M-convex set of the oracle.

    InfeasibleProblemError carries a node set X of G (t as n_left + t)
    where the orientation view fails: either the nodes whose degree box is
    empty or, with gamma unset, i(X) > hi(X) or e(V - X) < lo(V - X) for
    the in-degree bounds lo, hi, where i(X) counts the edge copies inside
    X and e(U) those touching U."""
    oracle = SemiMatchingOracle(P)
    try:
        walk = start(BaseHandle(oracle))
    except EmptyBaseError as exc:
        raise InfeasibleProblemError(
            "no subgraph meets the degree specifications", exc.witness
        ) from None
    tighten(walk)
    if P.cost is None:
        z = _toward_v(walk.R, P.m)
    else:
        # cheapest subgraph over the whole dec-min set
        z = cheapest_flow(oracle, walk, [(0, int(c)) for c in P.cost]).flow
    total_cost = None if P.cost is None else int(np.dot(z, P.cost))
    return SemiMatchingResult(z, *_sm_degrees(P, z), total_cost)


@text_parser
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
        for v in sorted(self.sources | self.sinks):
            if not 0 <= v < self.digraph.n:
                raise ValueError(f"source or sink node {v} outside range({self.digraph.n})")


@dataclass
class MegiddoResult:
    flow: np.ndarray
    outflow: np.ndarray  # per source, indexed by sorted(sources)
    sources: list


class MegiddoOracle(OrientationOracle):
    """p(X) = minimum total out-flow of the sources in X among feasible
    flows of the prescribed amount.

    A flow is an orientation of D's arc copies: arc (a, b) of capacity c
    becomes the edge (b, a) with c copies, headed at b until a unit of
    flow heads one at a.  So every node's in-degree is its in-capacity
    plus its net out-flow: exact at inner nodes, within [0, in-capacity]
    at sinks, and at least the in-capacity (the base) at the sources,
    which come first and send the amount between them (one block)."""

    kind = "megiddo"

    def __init__(self, problem: MegiddoProblem, amount: int):
        self.problem = problem
        self.amount = int(amount)
        self.sources = sorted(problem.sources)
        D, k = problem.digraph, len(self.sources)
        order = self.sources + [v for v in range(D.n) if v not in problem.sources]
        num = np.argsort(order).tolist()
        edges = [(num[b], num[a]) for a, b in D.arcs]
        incap = np.bincount([u for u, _ in edges], D.cap, D.n).astype(np.int64)
        lo = np.where(np.isin(order, sorted(problem.sinks)), 0, incap)
        hi = np.where(np.arange(D.n) < k, int(D.cap.sum()), incap)
        super().__init__(D.n, edges, D.cap, lo, hi, k, incap[:k], [(range(k), self.amount)])


register_reader(SemiMatchingOracle.kind, _flow_start)
register_reader(MegiddoOracle.kind, _flow_start)


def megiddo_discrete(P: MegiddoProblem) -> MegiddoResult:
    """Integral flow of the prescribed amount whose per-source out-flow
    vector is inc-max (equivalently dec-min over the same M-convex set);
    with the amount unset, of the largest amount the sources can send.

    One flow: the orientation flow sending nothing, then a max flow on
    its residual network from the other block's node to the sources'
    (each unit moves one unit of the block sums, so one more unit leaves
    the sources), up to the amount; the walk starts from that flow."""
    zero = MegiddoOracle(P, 0)
    first = zero.flow()
    assert first.feasible, "the zero flow meets every bound"
    R, n = first.residual, P.digraph.n
    want = math.inf if P.amount is None else int(P.amount)
    if want < 0:
        raise InfeasibleProblemError(f"amount {want} is negative")
    sent = netflow._blocking_flows(R, n + 1, n, want)
    if sent < want < math.inf:
        raise InfeasibleProblemError(f"amount {want} exceeds the maximum sendable {sent}")
    # the walk pins the sources' arcs to the block nodes, so it never reads
    # the block sums the zero-amount oracle was built with
    walk = walk_on(zero, FlowResult(_toward_v(R, P.digraph.m), residual=R))
    tighten(walk)
    y = np.array(walk.m, dtype=np.int64)
    return MegiddoResult(_toward_v(walk.R, P.digraph.m), y, zero.sources)


# ---------------------------------------------------------------------------
# dec-min root-vectors of arborescence packings
# ---------------------------------------------------------------------------


class RootVectorOracle(SetFunctionOracle):
    """p(X), the fewest roots X holds over the packings of k arc-disjoint
    spanning arborescences (arcs at capacity 1).  By Edmonds' branching
    theorem, c(u) roots at each u fit one iff a super-root feeding each u
    with c(u) sends k units into every node.  From k at every node, p(X)
    lowers each v of X in increasing order to k - f_v, f_v the flow into
    v while the super-root feeds the other nodes.  p is fully supermodular
    with p({v}) >= 0; the root vectors are B'(p) if p(S) = k, else none
    exist.  The memo holds one list of supplies per mask, and a mask
    lowers its highest node from those of the mask without it: one flow
    per mask, n along the greedy chain."""

    kind = "root-vector"

    def __init__(self, n_nodes: int, arcs: Sequence, k: int):
        super().__init__(n_nodes)
        self.arcs = [(int(u), int(v)) for (u, v) in arcs]
        self.k = int(k)
        self._reversed = [(v, u) for u, v in self.arcs] + [(u, n_nodes) for u in range(n_nodes)]
        self._memo: dict = {0: [self.k] * n_nodes}

    def flow_into(self, v: int, c):
        """(value, residual network) of a max flow into v, stopped at k,
        from a super-root feeding each u with c(u); it runs on the reversed
        network, so R.reach(v) marks the nodes that reach v."""
        caps = [1] * len(self.arcs) + list(c)
        return netflow._max_flow(self._n + 1, self._reversed, caps, v, self._n, self.k)

    def value(self, mask: int):
        chain = []
        while mask not in self._memo:
            chain.append(mask)
            mask ^= 1 << (mask.bit_length() - 1)
        for mask in reversed(chain):
            v = mask.bit_length() - 1
            c = list(self._memo[mask ^ 1 << v])
            c[v] = 0
            c[v] = self.k - self.flow_into(v, c)[0]
            self._memo[mask] = c
        c = self._memo[mask]
        return sum(c[v] for v in range(self._n) if mask >> v & 1)


def _root_tight(B: BaseHandle, m):
    """tight(t) of m, or None unless m >= 0, m(S) = k and every node takes
    k units from a super-root feeding each u with m(u).  T_m(t) is {t} when
    m(t) = 0, else the nodes that reach t in the residual network of the
    flow into t: the least cut of value k that holds t."""
    p: RootVectorOracle = B.oracle
    c = m.tolist()
    if min(c) < 0 or sum(c) != p.k:
        return None
    flows = []
    for v in range(p.n):
        value, R = p.flow_into(v, c)
        if value < p.k:
            return None
        flows.append(R)

    def tight(t: int) -> frozenset:
        if c[t] == 0:
            return frozenset({t})
        seen = flows[t].reach(t)
        return frozenset(u for u in range(p.n) if seen[u])

    return tight


register_reader(RootVectorOracle.kind, _rereading(_root_tight))


def decmin_root_vector(D: Digraph, k: int) -> np.ndarray:
    """Dec-min vector m with m(v) roots at v across some packing of k
    arc-disjoint spanning arborescences; infeasible digraphs raise."""
    if k < 1:
        raise ValueError("k must be positive")
    oracle = RootVectorOracle(D.n, D.arcs, k)
    if oracle.value(oracle.full_mask) != k:
        raise InfeasibleProblemError(
            f"no packing of {k} arc-disjoint spanning arborescences"
        )
    return basic_decmin(BaseHandle(oracle))


# ---------------------------------------------------------------------------
# megiddo text format: digraph + "S:" / "T:" node lists + "M:" amount
# ---------------------------------------------------------------------------


def _read_digraph(text: str, keys=()):
    """(Digraph, {key: integers}) of the lines "p digraph n m" and
    "a u v [cap]" (1-indexed nodes), plus one line per key in keys."""
    n = None
    arcs = []
    caps = []
    extra = {}
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
        elif tok[0] in keys:
            extra[tok[0]] = [int(x) for x in tok[1:]]
        else:
            raise ValueError(f"unknown line: {raw!r}")
    if n is None:
        raise ValueError("missing problem line")
    return Digraph(n, arcs, np.array(caps, dtype=np.int64)), extra


@text_parser
def parse_megiddo(text: str) -> MegiddoProblem:
    """Lines: "p digraph n m", "a u v cap", "S: u ...", "T: v ...",
    optional "M: amount" (1-indexed nodes)."""
    D, extra = _read_digraph(text, ("S:", "T:", "M:"))
    if "S:" not in extra or "T:" not in extra:
        raise ValueError("digraph, S: and T: lines are all required")
    (amount,) = extra.get("M:", [None])
    sources, sinks = (frozenset(v - 1 for v in extra[k]) for k in ("S:", "T:"))
    return MegiddoProblem(D, sources, sinks, amount)


@text_parser
def parse_digraph(text: str) -> Digraph:
    return _read_digraph(text)[0]
