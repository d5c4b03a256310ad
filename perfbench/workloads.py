"""Seeded instance generators and solve calls for the benchmark workloads.

A workload is a fixed list of *slots* (solver family and size).  One
*round* draws one fresh random instance for every slot, so every round
does the same kinds and sizes of work and only the random structure
changes with the seed.  The runner solves whole rounds in a closed loop.

Instances hold plain data (graphs, problems, value vectors).  Every solve
builds its oracle, matroid and handle objects afresh from that data, so no
memo or table cache carries over from one solve to the next.  The solve
functions look library functions up through their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from decmin import applications, canonical, core, engine, matroid, netflow, orientation

# Number of rounds made at set-up, about what a 38-second run uses at the
# seed.  The closed loop starts again from the first round if a run needs
# more; every solve still builds fresh objects.
ROUNDS = 16


@dataclass
class Job:
    """One instance of one slot; ``reference`` caches the independent
    answer the checks compare against."""

    family: str
    size: str
    instance: dict
    reference: object = field(default=None, repr=False)

    def solve(self):
        return SOLVERS[self.family](self.instance)


# ---------------------------------------------------------------------------
# random structures
# ---------------------------------------------------------------------------


def connected_multigraph(rng: random.Random, n: int, m: int) -> list:
    """A random spanning tree plus random extra edges (parallel edges
    allowed, no loops), in random order."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    rng.shuffle(edges)
    return edges


def _degrees(n: int, edges) -> np.ndarray:
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _random_caps(rng: random.Random, n: int, edges) -> np.ndarray:
    """In-degree caps met by a random orientation: half of the nodes are
    capped at that orientation's in-degree, the rest only by their degree.
    Feasible by construction, and the caps bind where the random in-degree
    is low."""
    indeg = np.zeros(n, dtype=np.int64)
    for e in edges:
        indeg[rng.choice(e)] += 1
    deg = _degrees(n, edges)
    return np.array(
        [int(indeg[v]) if rng.random() < 0.5 else int(deg[v]) for v in range(n)],
        dtype=np.int64,
    )


# ---------------------------------------------------------------------------
# instance makers, one per family
# ---------------------------------------------------------------------------


def make_orient(rng, family: str, n: int) -> dict:
    edges = connected_multigraph(rng, n, 5 * n)
    inst = {"n": n, "edges": edges, "graph": orientation.Graph(n, edges)}
    if family in ("orient.bounded", "orient.cheapest"):
        inst["upper"] = _random_caps(rng, n, edges)
    if family == "orient.cheapest":
        inst["cost"] = [(rng.randrange(10), rng.randrange(10)) for _ in edges]
    if family == "orient.minT":
        inst["t_set"] = sorted(rng.sample(range(n), n // 4))
    return inst


def make_table(rng, n: int) -> dict:
    """p(X) = a(X) + sum_i c_i [T_i subset of X] with c_i > 0: supermodular,
    finite everywhere, and every member is a plus some split of each c_i
    over T_i (the membership witness)."""
    a = np.array([rng.randrange(-3, 6) for _ in range(n)], dtype=np.int64)
    gens = [
        (sorted(rng.sample(range(n), rng.randrange(1, 4))), rng.randrange(1, 6))
        for _ in range(2 * n)
    ]
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        values += a[v] * ((masks >> v) & 1)
    for members, c in gens:
        tm = core.mask_of(members)
        values += c * ((masks & tm) == tm)
    return {"n": n, "a": a, "gens": gens, "values": values}


def make_induced(rng, n: int, m: int) -> dict:
    return {"n": n, "edges": connected_multigraph(rng, n, m)}


def make_capacitated(rng, n: int) -> dict:
    edges = connected_multigraph(rng, n, 2 * n)
    ell = np.array([rng.randrange(1, 4) for _ in edges], dtype=np.int64)
    return {"n": n, "edges": edges, "ell": ell, "graph": orientation.Graph(n, edges, ell=ell)}


def make_semimatching(rng, n_left: int, n_right: int, m: int) -> dict:
    """Distinct left-right edges, every right node covered at least once
    (so the classic target of one edge per right node is feasible)."""
    edges = {(rng.randrange(n_left), t) for t in range(n_right)}
    while len(edges) < m:
        edges.add((rng.randrange(n_left), rng.randrange(n_right)))
    edges = sorted(edges)
    problem = applications.SemiMatchingProblem(n_left, n_right, edges)
    return {"n_left": n_left, "n_right": n_right, "edges": edges, "problem": problem}


def make_megiddo(rng, n: int, n_sources: int, n_sinks: int) -> dict:
    arcs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in connected_multigraph(rng, n, 3 * n)
    ]
    cap = np.array([rng.randrange(1, 5) for _ in arcs], dtype=np.int64)
    nodes = list(range(n))
    rng.shuffle(nodes)
    sources = sorted(nodes[:n_sources])
    sinks = sorted(nodes[n_sources : n_sources + n_sinks])
    problem = applications.MegiddoProblem(
        netflow.Digraph(n, arcs, cap), sources, sinks
    )
    return {"n": n, "arcs": arcs, "cap": cap, "sources": sources, "sinks": sinks,
            "problem": problem}


def make_basis_sum(rng, n_nodes: int, n_edges: int) -> dict:
    """Two copies of one graphic matroid: bases are spanning trees."""
    return {"n_nodes": n_nodes, "edges": connected_multigraph(rng, n_nodes, n_edges), "k": 2}


def make_partition(rng, n_nodes: int, n_blocks: int) -> dict:
    edges = connected_multigraph(rng, n_nodes, 2 * n_nodes)
    idx = list(range(len(edges)))
    rng.shuffle(idx)
    blocks = [sorted(idx[i::n_blocks]) for i in range(n_blocks)]
    return {"n_nodes": n_nodes, "edges": edges, "blocks": blocks}


# ---------------------------------------------------------------------------
# solve calls: each builds its oracles and handles from the instance data
# ---------------------------------------------------------------------------


def _solve_table_pipeline(oracle):
    """strongly_poly_decmin -> canonical_from_decmin -> duality_gap, the
    path behind the CLI's decmin, canonical and certify commands."""
    B = core.BaseHandle(oracle)
    m = engine.strongly_poly_decmin(B)
    D = canonical.canonical_from_decmin(B, m)
    report = canonical.duality_gap(B, m, D.pi_star)
    return m, D, report


SOLVERS: dict = {
    "orient.plain": lambda x: orientation.decmin_orientation(x["graph"]),
    "orient.bounded": lambda x: orientation.decmin_orientation_bounded(
        x["graph"], None, x["upper"]
    ),
    "orient.minT": lambda x: orientation.decmin_orientation_minT(
        x["graph"], None, None, x["t_set"]
    ),
    "orient.cheapest": lambda x: orientation.cheapest_decmin_orientation_bounded(
        x["graph"], None, x["upper"], x["cost"]
    ),
    "table.explicit": lambda x: _solve_table_pipeline(core.TableOracle(x["values"])),
    "table.induced": lambda x: _solve_table_pipeline(
        core.GraphInducedOracle(x["n"], x["edges"])
    ),
    "table.capacitated": lambda x: orientation.capacitated_decmin_orientation(x["graph"]),
    "exchange.semimatching": lambda x: applications.decmin_semimatching(x["problem"]),
    "exchange.megiddo": lambda x: applications.megiddo_discrete(x["problem"]),
    "exchange.induced": lambda x: engine.basic_decmin(
        core.BaseHandle(core.GraphInducedOracle(x["n"], x["edges"]))
    ),
    "exchange.basis_sum": lambda x: matroid.decmin_basis_sum(
        [matroid.graphic_matroid(x["n_nodes"], x["edges"]) for _ in range(x["k"])]
    ),
    "exchange.partition": lambda x: matroid.decmin_partition_intersection(
        matroid.graphic_matroid(x["n_nodes"], x["edges"]), x["blocks"]
    ),
}


# ---------------------------------------------------------------------------
# workloads: slot lists (family, size label, maker)
# ---------------------------------------------------------------------------


def _orient(family, n):
    return family, f"n={n}", lambda rng: make_orient(rng, family, n)


# Each workload has ten slots, listed from fast to slow.  A class of
# identical slots sits where solve_s.p50 falls, and the two slowest slots
# are one class that holds solve_s.p90, so each percentile falls inside a
# class of like instances rather than in the gap between two classes.
WORKLOADS: dict = {
    # the paper's main application: path reversal on orientations, plus
    # flow solves (initial bounded orientation, min-cost flow)
    "orient": [
        _orient("orient.plain", 60),
        _orient("orient.minT", 40),
        _orient("orient.bounded", 60),
    ]
    + [_orient("orient.plain", 100)] * 4
    + [_orient("orient.bounded", 90)]
    + [_orient("orient.cheapest", 50)] * 2,
    # explicit set functions: Newton-Dinkelbach and peak sets in engine,
    # vectorised 2^n scans in core, subset scans in canonical
    "table": [
        ("table.capacitated", "n=12", lambda rng: make_capacitated(rng, 12)),
        ("table.explicit", "n=12", lambda rng: make_table(rng, 12)),
        ("table.induced", "n=12", lambda rng: make_induced(rng, 12, 36)),
    ]
    + [("table.capacitated", "n=14", lambda rng: make_capacitated(rng, 14))] * 4
    + [("table.induced", "n=13", lambda rng: make_induced(rng, 13, 39))]
    + [("table.explicit", "n=14", lambda rng: make_table(rng, 14))] * 2,
    # oracles that are optimisation problems: every 1-tightening step asks
    # core for tight sets, answered by many small flows or intersections;
    # semi-matchings on both sides of the subset ceiling (20)
    "exchange": [
        ("exchange.megiddo", "n=40", lambda rng: make_megiddo(rng, 40, 5, 3)),
        ("exchange.basis_sum", "nodes=5", lambda rng: make_basis_sum(rng, 5, 10)),
        ("exchange.semimatching", "n_left=6",
         lambda rng: make_semimatching(rng, 6, 12, 24)),
        ("exchange.partition", "nodes=20", lambda rng: make_partition(rng, 20, 8)),
    ]
    + [("exchange.semimatching", "n_left=7",
        lambda rng: make_semimatching(rng, 7, 14, 28))] * 3
    + [("exchange.semimatching", "n_left=22",
        lambda rng: make_semimatching(rng, 22, 11, 33))]
    + [("exchange.induced", "n=22", lambda rng: make_induced(rng, 22, 44))] * 2,
}


def build_rounds(workload: str, seed: int) -> list:
    """ROUNDS lists of Jobs, one per slot each; the same seed always gives
    the same instances."""
    rng = random.Random(f"{workload}/{seed}")
    return [
        [Job(family, size, make(rng)) for family, size, make in WORKLOADS[workload]]
        for _ in range(ROUNDS)
    ]
