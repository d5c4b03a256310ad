"""Independent answer checks, run after the timed loop.

Nothing here calls decmin.  Orientations, semi-matchings, Megiddo flows and
graph-induced sets are checked against a networkx convex-cost flow: on an
M-convex set the dec-min elements are exactly the least square-sum ones,
and a staircase arc whose k-th unit costs 2k - 1 prices a node's load at
its square.  Table and matroid answers are checked by a membership witness
plus a square-sum duality gap of 0, computed here from the set function's
own values: for integral x in the base-polyhedron and any integral pi,
sum x^2 >= p-hat(pi) - sum floor(pi/2) ceil(pi/2), so a gap of 0 proves
the answer optimal.

Each check takes a Job and the solver's answer and returns True or False;
the reference a check compares against is computed once per instance and
cached on the Job.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

# ---------------------------------------------------------------------------
# convex-cost flow references
# ---------------------------------------------------------------------------


def _orientation_cost(n, edges, unit_cost, upper=None, ell=None, flip_cost=None):
    """Least total cost of an orientation of the ell(e)-fold edge copies.

    Every copy of edge (u, v) starts with head v; one unit on arc v -> u
    turns one copy around.  Node v passes its final in-degree to the sink
    through unit arcs, the k-th costing unit_cost(v, k); ``flip_cost[j]`` is
    added per copy of edge j turned around."""
    G = nx.MultiDiGraph()
    mult = [1] * len(edges) if ell is None else [int(c) for c in ell]
    start = [0] * n
    load = [0] * n
    for (u, v), c in zip(edges, mult):
        start[v] += c
        load[u] += c
        load[v] += c
    G.add_node("sink", demand=sum(mult))
    for v in range(n):
        G.add_node(v, demand=-start[v])
    for j, ((u, v), c) in enumerate(zip(edges, mult)):
        w = 0 if flip_cost is None else int(flip_cost[j])
        G.add_edge(v, u, capacity=c, weight=w)
    for v in range(n):
        top = load[v] if upper is None else min(load[v], int(upper[v]))
        for k in range(1, top + 1):
            G.add_edge(v, "sink", capacity=1, weight=unit_cost(v, k))
    return nx.network_simplex(G)[0]


def _orientation_reference(inst, family):
    """Least square-sum of in-degrees, plus the least cost among those for
    the cheapest variant, or the least in-degree of T first for minT."""
    n, edges = inst["n"], inst["edges"]
    upper = inst.get("upper")
    if family == "orient.cheapest":
        cost = inst["cost"]
        scale = sum(max(cu, cv) for cu, cv in cost) + 1
        total = _orientation_cost(
            n, edges, lambda v, k: scale * (2 * k - 1), upper,
            flip_cost=[cu - cv for cu, cv in cost],
        )
        total += sum(cv for _, cv in cost)
        return {"square_sum": total // scale, "cost": total % scale}
    if family == "orient.minT":
        t_set = set(inst["t_set"])
        deg = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        scale = int(np.sum(deg * deg)) + 1
        total = _orientation_cost(
            n, edges, lambda v, k: scale * (v in t_set) + 2 * k - 1, upper
        )
        return {"square_sum": total % scale, "t_indeg": total // scale}
    return {
        "square_sum": _orientation_cost(
            n, edges, lambda v, k: 2 * k - 1, upper, ell=inst.get("ell")
        )
    }


def _semimatching_reference(inst):
    """Least square-sum of left degrees when each right node takes exactly
    one of its edges."""
    G = nx.MultiDiGraph()
    nl, nr = inst["n_left"], inst["n_right"]
    G.add_node("sink", demand=nr)
    deg = [0] * nl
    for t in range(nr):
        G.add_node(("r", t), demand=-1)
    for s, t in inst["edges"]:
        G.add_edge(("r", t), ("l", s), capacity=1, weight=0)
        deg[s] += 1
    for s in range(nl):
        for k in range(1, deg[s] + 1):
            G.add_edge(("l", s), "sink", capacity=1, weight=2 * k - 1)
    return {"square_sum": nx.network_simplex(G)[0]}


def _megiddo_reference(inst):
    """The largest amount the sources can send, and the least square-sum
    of per-source out-flows at that amount."""
    flat = nx.DiGraph()
    for (u, v), c in zip(inst["arcs"], inst["cap"]):
        old = flat.get_edge_data(u, v, {"capacity": 0})["capacity"]
        flat.add_edge(u, v, capacity=old + int(c))
    for s in inst["sources"]:
        flat.add_edge("sigma", s)  # no capacity attribute: unbounded
    for t in inst["sinks"]:
        flat.add_edge(t, "tau")
    amount = nx.maximum_flow_value(flat, "sigma", "tau")
    G = nx.MultiDiGraph()
    for (u, v), c in zip(inst["arcs"], inst["cap"]):
        G.add_edge(u, v, capacity=int(c), weight=0)
    for t in inst["sinks"]:
        G.add_edge(t, "tau", capacity=amount, weight=0)
    G.add_node("sigma", demand=-amount)
    G.add_node("tau", demand=amount)
    for s in inst["sources"]:
        for k in range(1, amount + 1):
            G.add_edge("sigma", s, capacity=1, weight=2 * k - 1)
    return {"amount": amount, "square_sum": nx.network_simplex(G)[0]}


# ---------------------------------------------------------------------------
# set-function tables, canonical duals and the square-sum gap
# ---------------------------------------------------------------------------


def subset_sums(x) -> np.ndarray:
    """x~(X) for every subset mask X."""
    out = np.zeros(1, dtype=np.int64)
    for v in range(len(x)):
        out = np.concatenate([out, out + int(x[v])])
    return out


def canonical_dual(tab: np.ndarray, m) -> np.ndarray:
    """pi* = 2 beta_i - 1 on the i-th canonical block, read off m by smallest
    tight sets: C_i is the smallest m-tight set containing every element of
    value at least beta_i.  Needs m in the base-polyhedron of ``tab``."""
    n = len(m)
    full = (1 << n) - 1
    masks = np.arange(1 << n, dtype=np.int64)
    tight = subset_sums(m) == tab
    pi = np.zeros(n, dtype=np.int64)
    covered = 0
    while covered != full:
        beta = max(int(m[v]) for v in range(n) if not covered >> v & 1)
        want = covered | sum(1 << v for v in range(n) if m[v] >= beta)
        chain = int(np.bitwise_and.reduce(masks[tight & ((masks & want) == want)]))
        for v in range(n):
            if chain >> v & 1 and not covered >> v & 1:
                pi[v] = 2 * beta - 1
        covered = chain
    return pi


def square_gap(tab: np.ndarray, m, pi) -> int:
    """sum m^2 - (p-hat(pi) - sum floor(pi/2) ceil(pi/2)), with p-hat the
    linear extension of ``tab`` along decreasing pi."""
    n = len(m)
    pi = [int(p) for p in pi]
    order = sorted(range(n), key=lambda v: (-pi[v], v))
    phat = 0
    mask = 0
    for j, v in enumerate(order):
        mask |= 1 << v
        nxt = pi[order[j + 1]] if j + 1 < n else 0
        phat += int(tab[mask]) * (pi[v] - nxt)
    corr = sum((p // 2) * (-(-p // 2)) for p in pi)
    return sum(int(x) * int(x) for x in m) - (phat - corr)


def _gap_is_zero(tab, m) -> bool:
    """Exact membership of m in B(tab) plus a zero gap at the canonical dual."""
    sums = subset_sums(m)
    if sums[-1] != tab[-1] or np.any(sums < tab):
        return False
    return square_gap(tab, m, canonical_dual(tab, m)) == 0


def _graph_rank(n_nodes, edges, chosen) -> int:
    parent = list(range(n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rank = 0
    for j in chosen:
        ru, rv = find(edges[j][0]), find(edges[j][1])
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def _is_spanning_tree(n_nodes, edges, basis) -> bool:
    basis = list(basis)
    return len(basis) == n_nodes - 1 and _graph_rank(n_nodes, edges, basis) == n_nodes - 1


def _basis_sum_table(inst) -> np.ndarray:
    """p(X) = k (r(E) - r(E - X)) for k copies of one graphic matroid."""
    n_nodes, edges, k = inst["n_nodes"], inst["edges"], inst["k"]
    ne = len(edges)
    full = _graph_rank(n_nodes, edges, range(ne))
    return np.array(
        [
            k * (full - _graph_rank(n_nodes, edges, [j for j in range(ne) if not x >> j & 1]))
            for x in range(1 << ne)
        ],
        dtype=np.int64,
    )


def _partition_table(inst) -> np.ndarray:
    """p(X) = r(E) - r(E - union of the blocks in X)."""
    n_nodes, edges, blocks = inst["n_nodes"], inst["edges"], inst["blocks"]
    full = _graph_rank(n_nodes, edges, range(len(edges)))
    out = []
    for x in range(1 << len(blocks)):
        rest = [j for i, b in enumerate(blocks) if not x >> i & 1 for j in b]
        out.append(full - _graph_rank(n_nodes, edges, rest))
    return np.array(out, dtype=np.int64)


def _generators_witness(inst, m) -> bool:
    """m = a + a split of each generator's c_i units over its set T_i."""
    gens = inst["gens"]
    need = [int(x) - int(a) for x, a in zip(m, inst["a"])]
    supply = sum(c for _, c in gens)
    if min(need) < 0 or sum(need) != supply:
        return False
    G = nx.DiGraph()
    for i, (members, c) in enumerate(gens):
        G.add_edge("s", ("g", i), capacity=c)
        for v in members:
            G.add_edge(("g", i), v, capacity=c)
    for v, d in enumerate(need):
        G.add_edge(v, "t", capacity=d)
    return nx.maximum_flow_value(G, "s", "t") == supply


def _orientable(n, edges, m) -> bool:
    """Some orientation of the edges has in-degree vector m."""
    if len(m) != n or min(int(x) for x in m) < 0 or int(sum(m)) != len(edges):
        return False
    G = nx.DiGraph()
    for j, (u, v) in enumerate(edges):
        G.add_edge("s", ("e", j), capacity=1)
        G.add_edge(("e", j), u, capacity=1)
        G.add_edge(("e", j), v, capacity=1)
    for v in range(n):
        G.add_edge(v, "t", capacity=int(m[v]))
    return nx.maximum_flow_value(G, "s", "t") == len(edges)


# ---------------------------------------------------------------------------
# per-family checks
# ---------------------------------------------------------------------------

_REFERENCES = {
    "exchange.semimatching": _semimatching_reference,
    "exchange.megiddo": _megiddo_reference,
    "exchange.basis_sum": _basis_sum_table,
    "exchange.partition": _partition_table,
}


def _reference(job):
    """The instance's independent answer (an orientation optimum unless
    listed above), computed once and cached on the job."""
    if job.reference is None:
        make = _REFERENCES.get(job.family)
        job.reference = (
            make(job.instance) if make else _orientation_reference(job.instance, job.family)
        )
    return job.reference


def _square(x) -> int:
    return sum(int(v) * int(v) for v in x)


def check_orientation(job, answer) -> bool:
    inst = job.instance
    n, edges = inst["n"], inst["edges"]
    heads = [int(h) for h in answer.heads]
    if len(heads) != len(edges) or any(h not in e for h, e in zip(heads, edges)):
        return False
    indeg = np.bincount(heads, minlength=n)
    if "upper" in inst and np.any(indeg > inst["upper"]):
        return False
    ref = _reference(job)
    if _square(indeg) != ref["square_sum"]:
        return False
    if job.family == "orient.cheapest":
        cost = sum(cv if h == v else cu for (cu, cv), (_, v), h in zip(inst["cost"], edges, heads))
        return cost == ref["cost"]
    if job.family == "orient.minT":
        return int(sum(indeg[v] for v in inst["t_set"])) == ref["t_indeg"]
    return True


def check_capacitated(job, answer) -> bool:
    inst = job.instance
    z = [int(c) for c in answer.toward_head]
    ell = [int(c) for c in inst["ell"]]
    if len(z) != len(ell) or any(not 0 <= c <= k for c, k in zip(z, ell)):
        return False
    indeg = np.zeros(inst["n"], dtype=np.int64)
    for (u, v), c, k in zip(inst["edges"], z, ell):
        indeg[v] += c
        indeg[u] += k - c
    return _square(indeg) == _reference(job)["square_sum"]


def check_induced_vector(job, m) -> bool:
    inst = job.instance
    return _orientable(inst["n"], inst["edges"], m) and _square(m) == _reference(job)["square_sum"]


def check_table_pipeline(job, answer) -> bool:
    """Explicit tables: generator witness and a zero gap from the table's
    own values.  Graph-induced sets: an orientation witness and the networkx
    square-sum.  Either way the reported canonical dual and gap must agree."""
    m, D, report = answer
    inst = job.instance
    if job.family == "table.explicit":
        tab = inst["values"]
        if not (_generators_witness(inst, m) and _gap_is_zero(tab, m)):
            return False
        if not np.array_equal(np.asarray(D.pi_star), canonical_dual(tab, m)):
            return False
    elif not check_induced_vector(job, m):
        return False
    return report.gap == 0


def check_semimatching(job, answer) -> bool:
    inst = job.instance
    z = [int(c) for c in answer.multiplicity]
    if len(z) != len(inst["edges"]) or any(c not in (0, 1) for c in z):
        return False
    left = np.zeros(inst["n_left"], dtype=np.int64)
    right = np.zeros(inst["n_right"], dtype=np.int64)
    for (s, t), c in zip(inst["edges"], z):
        left[s] += c
        right[t] += c
    if np.any(right != 1) or not np.array_equal(left, np.asarray(answer.left_degrees)):
        return False
    return _square(left) == _reference(job)["square_sum"]


def check_megiddo(job, answer) -> bool:
    inst = job.instance
    flow = [int(f) for f in answer.flow]
    y = [int(c) for c in answer.outflow]
    if len(flow) != len(inst["arcs"]) or any(
        not 0 <= f <= int(c) for f, c in zip(flow, inst["cap"])
    ):
        return False
    net_out = np.zeros(inst["n"], dtype=np.int64)
    for (u, v), f in zip(inst["arcs"], flow):
        net_out[u] += f
        net_out[v] -= f
    sources, sinks = inst["sources"], set(inst["sinks"])
    if len(y) != len(sources) or min(y) < 0:
        return False
    for v in range(inst["n"]):
        if v in sinks:
            if net_out[v] > 0:
                return False
        elif v not in sources and net_out[v] != 0:
            return False
    if any(net_out[s] != c for s, c in zip(sources, y)):
        return False
    ref = _reference(job)
    return sum(y) == ref["amount"] and _square(y) == ref["square_sum"]


def check_basis_sum(job, answer) -> bool:
    bases, m = answer
    inst = job.instance
    n_nodes, edges = inst["n_nodes"], inst["edges"]
    if len(bases) != inst["k"] or not all(_is_spanning_tree(n_nodes, edges, b) for b in bases):
        return False
    count = np.zeros(len(edges), dtype=np.int64)
    for b in bases:
        for j in b:
            count[j] += 1
    if not np.array_equal(count, np.asarray(m)):
        return False
    return _gap_is_zero(_reference(job), m)


def check_partition(job, answer) -> bool:
    basis, y = answer
    inst = job.instance
    if not _is_spanning_tree(inst["n_nodes"], inst["edges"], basis):
        return False
    if [len(set(basis) & set(b)) for b in inst["blocks"]] != [int(c) for c in y]:
        return False
    return _gap_is_zero(_reference(job), y)


CHECKS: dict = {
    "orient.plain": check_orientation,
    "orient.bounded": check_orientation,
    "orient.minT": check_orientation,
    "orient.cheapest": check_orientation,
    "table.explicit": check_table_pipeline,
    "table.induced": check_table_pipeline,
    "table.capacitated": check_capacitated,
    "exchange.semimatching": check_semimatching,
    "exchange.megiddo": check_megiddo,
    "exchange.induced": check_induced_vector,
    "exchange.basis_sum": check_basis_sum,
    "exchange.partition": check_partition,
}


def check(job, answer) -> bool:
    return bool(CHECKS[job.family](job, answer))
