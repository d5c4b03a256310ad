"""The tight-set reader of every oracle kind in core's registry against the
2^n subset scan of a TableOracle holding the same values, plus the
reader contract: non-members raise, and handles hold no reference cycle.
Then the walks: each in-place step lands where a fresh reader would, the
basic algorithm on one walk agrees with a fresh reader per step, the
flows read off walked residual networks are feasible, and a flow-backed
solve runs a fixed number of flows however many steps it takes.

    PYTHONPATH=src python -m pytest -q tests/test_readers.py
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from decmin import core, netflow, orientation
from decmin.applications import (
    MegiddoOracle,
    MegiddoProblem,
    RootVectorOracle,
    SemiMatchingOracle,
    SemiMatchingProblem,
    decmin_semimatching,
    megiddo_discrete,
)
from decmin.core import (
    BaseHandle,
    TableOracle,
    exchange_feasible,
    is_member,
    smallest_tight_set,
    sorted_dec,
    tight_sets,
)
from decmin.canonical import canonical_from_tight_sets
from decmin.engine import (
    _peak,
    basic_decmin,
    initial_member,
    one_tightening,
    tighten,
    tightening_pair,
)
from decmin.matroid import AggregateMatroidOracle, SumOfMatroidsOracle, graphic_matroid
from decmin.netflow import Digraph, net_in_flow
from decmin.orientation import (
    Graph,
    OrientationOracle,
    capacitated_decmin_orientation,
    decmin_orientation_bounded,
)

import util


def _graph_induced(rng):
    for trial in range(12):
        G = util.random_multigraph(rng, max_nodes=10, max_edges=20)
        ell = rng.integers(1, 4, size=G.m) if trial % 2 else None
        yield Graph(G.n, G.edges, ell=ell).induced_oracle()


def _orientation(rng):
    # in-degree-bounded orientations, edge copies on every other instance
    done = 0
    while done < 12:
        G = util.random_multigraph(rng, max_nodes=7, max_edges=12)
        ell = rng.integers(1, 3, size=G.m) if done % 2 else np.ones(G.m, np.int64)
        deg = np.bincount(np.ravel(G.edges), np.repeat(ell, 2), G.n).astype(np.int64)
        lo, hi = rng.integers(0, 2, size=G.n), deg - rng.integers(0, 2, size=G.n)
        oracle = OrientationOracle(G.n, G.edges, ell, lo, hi)
        if oracle.flow().feasible:
            done += 1
            yield oracle


def _semimatching(rng):
    done = 0
    while done < 24:
        nl, nr, edges = util.random_bipartite(rng, 5, 4, 10)
        kw = [
            dict(t_degrees=rng.integers(0, 3, size=nr)),
            dict(lower_left=rng.integers(0, 2, size=nl),
                 upper_left=rng.integers(1, 4, size=nl),
                 lower_right=rng.integers(0, 2, size=nr),
                 upper_right=rng.integers(1, 4, size=nr)),
            dict(upper_left=rng.integers(1, 4, size=nl),
                 lower_right=np.zeros(nr, np.int64),
                 upper_right=rng.integers(1, 3, size=nr),
                 gamma=int(rng.integers(1, 5))),
            dict(),
        ][done % 4]
        if done % 3 == 0:
            kw["edge_caps"] = rng.integers(1, 3, size=len(edges))
        oracle = SemiMatchingOracle(SemiMatchingProblem(nl, nr, edges, **kw))
        if oracle.flow().feasible:
            done += 1
            yield oracle


def _megiddo(rng):
    for _ in range(20):
        n = int(rng.integers(5, 9))
        arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                for _ in range(int(rng.integers(3, 12)))]
        D = Digraph(n, arcs, rng.integers(0, 3, size=len(arcs)))
        nodes = rng.permutation(n).tolist()
        k = int(rng.integers(2, min(4, n - 1) + 1))
        P = MegiddoProblem(D, nodes[:k], nodes[k:k + 3])
        yield MegiddoOracle(P, int(rng.integers(0, util.max_sendable(P) + 1)))


def _matroid_sum(rng):
    for trial in range(15):
        n = int(rng.integers(2, 7))
        kind = ["graphic", "uniform", "partition", "explicit-bases", "dual"][trial % 5]
        yield SumOfMatroidsOracle([util.random_matroid(rng, n, kind)
                                   for _ in range(trial % 3 + 1)])


def _matroid_aggregate(rng):
    for _ in range(10):
        G = util.random_multigraph(rng, max_nodes=5, max_edges=9)
        q = int(rng.integers(min(2, G.m), min(6, G.m) + 1))
        order = rng.permutation(G.m).tolist()
        yield AggregateMatroidOracle(graphic_matroid(G.n, G.edges),
                                     [order[i::q] for i in range(q)])


def _root_vector(rng):
    # k copies of one spanning arborescence make the set non-empty
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        order = rng.permutation(n).tolist()
        tree = [(order[int(rng.integers(0, i))], order[i]) for i in range(1, n)]
        arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                for _ in range(int(rng.integers(0, 2 * n)))]
        yield RootVectorOracle(n, tree * k + arcs, k)


INSTANCES = {
    "graph-induced": _graph_induced,
    "orientation": _orientation,
    "semimatching": _semimatching,
    "megiddo": _megiddo,
    "matroid-sum": _matroid_sum,
    "matroid-aggregate": _matroid_aggregate,
    "root-vector": _root_vector,
}


def _members(scan, rng):
    """A dec-min member, then members one exchange away from it, each
    followed by the dec-min one again (a reader that moves cached state
    along an exchange path has to move it back)."""
    m = basic_decmin(scan)
    n = scan.n
    steps = [(s, t) for s in range(n) for t in range(n)
             if s != t and exchange_feasible(scan, m, s, t)]
    out = [m]
    for i in rng.permutation(len(steps))[:3]:
        s, t = steps[i]
        x = m.copy()
        x[s] += 1
        x[t] -= 1
        out += [x, m]
    return out


@pytest.mark.parametrize("kind", sorted(core._READERS))
def test_reader_matches_table_scan(kind, monkeypatch):
    # membership and every smallest tight set, with and without a box, at
    # members and at non-members; the low ceiling sends the kinds that
    # register a membership test through their exchange branch
    rng = np.random.default_rng(53)
    queries = zero_entries = 0
    for oracle in INSTANCES[kind](rng):
        monkeypatch.delenv("DECMIN_BRUTE_CEILING", raising=False)
        n = oracle.n
        table = TableOracle([oracle.value(x) for x in range(1 << n)])
        table.table()
        scan = BaseHandle(table)
        members = _members(scan, rng)
        probes = [members[0] + rng.integers(-1, 2, size=n),
                  members[0] + np.eye(n, dtype=np.int64)[0]]
        boxes = [{}, {"lower": members[0] - rng.integers(0, 2, size=n),
                      "upper": members[0] + rng.integers(0, 2, size=n)}]
        for low_ceiling in (False, True):
            if low_ceiling:
                monkeypatch.setenv("DECMIN_BRUTE_CEILING", "1")
            for box in boxes:
                B = BaseHandle(oracle, **box)
                ref = BaseHandle(table, **box)
                for y in members:
                    zero_entries += int(np.any(y == 0))
                    assert is_member(B, y) == is_member(ref, y)
                    if ref.in_box(y):
                        for t in range(n):
                            queries += 1
                            got = smallest_tight_set(B, y, t)
                            assert got == smallest_tight_set(ref, y, t)
                for y in probes:
                    assert is_member(B, y) == is_member(ref, y)
    assert queries >= 100
    assert zero_entries


def _start_or_none(B, lo, hi):
    try:
        return core.start(B, lo, hi)
    except core.EmptyBaseError:
        return None


@pytest.mark.parametrize("kind", sorted(core._READERS))
def test_start_matches_the_table_start(kind):
    # over random boxes near a dec-min member, one-sided, two-sided and
    # pinned, given to start and, in the later half, met with a box on the
    # handle whose lower bound is the tighter one: the kind's start finds
    # a member exactly when the table's start does, inside the box
    rng, pick = np.random.default_rng(59), np.random.default_rng(67)
    found = missed = 0
    for oracle in INSTANCES[kind](rng):
        n = oracle.n
        table = TableOracle([oracle.value(x) for x in range(1 << n)])
        m = basic_decmin(BaseHandle(table))
        for trial in range(8):
            lo = m - pick.integers(-1, 3, size=n)
            hi = np.maximum(lo, m + pick.integers(-1, 3, size=n))
            lo, hi = [(lo, hi), (None, hi), (lo, None), (lo, lo)][trial % 4]
            own, given = {}, (lo, hi)
            if trial >= 4:
                own = {"lower": lo, "upper": None if hi is None else hi + 1}
                given = (None if lo is None else lo - 1, hi)
            B, ref = BaseHandle(oracle, **own), BaseHandle(table, **own)
            got, want = _start_or_none(B, *given), _start_or_none(ref, *given)
            assert (got is None) == (want is None)
            if got is None:
                missed += 1
                continue
            x = np.array(got.m, dtype=np.int64)
            assert (lo is None or (x >= lo).all()) and (hi is None or (x <= hi).all())
            assert is_member(B, x) and is_member(ref, x)
            found += 1
    assert found >= 20 and missed >= 5


def test_non_members_raise():
    # no reader exists for a vector outside the set, so nothing is read
    # off a table for it
    B = util.r62_handle()
    for oracle in (B.oracle, Graph(3, [(0, 1), (1, 2)]).induced_oracle()):
        handle = BaseHandle(oracle)
        outside = np.zeros(oracle.n, dtype=np.int64)
        assert not is_member(handle, outside)
        with pytest.raises(ValueError, match="not in the M-convex set"):
            smallest_tight_set(handle, outside, 0)
        with pytest.raises(ValueError, match="not in the M-convex set"):
            one_tightening(handle, outside)


def test_handles_are_freed_by_reference_counting():
    # a reader must not be cached where it keeps its handle alive: a cycle
    # would hold each handle's caches until a full collection
    rng = np.random.default_rng(3)
    aggregate = next(_matroid_aggregate(rng))
    semimatching = next(_semimatching(rng))
    gc.disable()
    try:
        for oracle in (aggregate, semimatching):
            B = BaseHandle(oracle)
            m = basic_decmin(B)
            assert is_member(B, m)
            ref = weakref.ref(B)
            del B
            assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def _start(scan):
    """A member far from dec-min: initial_member's, then up to 2n unit
    exchanges, each raising a component at least as large as the one it
    lowers (the widest such gap first), read off the table scan."""
    m, n = initial_member(scan), scan.n
    for _ in range(2 * n):
        moves = [(s, t) for s in range(n) for t in range(n)
                 if s != t and m[s] >= m[t] and exchange_feasible(scan, m, s, t)]
        if not moves:
            break
        s, t = max(moves, key=lambda st: (m[st[0]] - m[st[1]], st))
        m[s] += 1
        m[t] -= 1
    return m


def _box_around(rng, m):
    n = len(m)
    return {"lower": m - rng.integers(0, 3, size=n), "upper": m + rng.integers(0, 3, size=n)}


@pytest.mark.parametrize("kind", sorted(core._READERS))
def test_walk_steps_match_a_fresh_reader(kind):
    # step the walk in place from a member far from dec-min until none is
    # left; after every step its tight sets are those of a fresh reader
    # and of the table scan at the new vector, boxed and unboxed
    rng, pick = np.random.default_rng(53), np.random.default_rng(61)
    steps = 0
    for oracle in INSTANCES[kind](rng):
        n = oracle.n
        table = TableOracle([oracle.value(x) for x in range(1 << n)])
        start = _start(BaseHandle(table))
        for box in ({}, _box_around(pick, start)):
            B = BaseHandle(oracle, **box)
            ref = BaseHandle(table, **box)
            walk = tight_sets(B, start)
            while (pair := tightening_pair(walk.m, walk)) is not None:
                s, t = pair
                before = np.array(walk.m)
                limit = int(before[t] - before[s]) // 2
                d = walk.step(s, t, limit)
                assert 1 <= d <= limit
                moved = before.copy()
                moved[s] += d
                moved[t] -= d
                assert np.array(walk.m).tolist() == moved.tolist()
                fresh, scan = tight_sets(B, moved), tight_sets(ref, moved)
                assert all(walk(v) == fresh(v) == scan(v) for v in range(n))
                steps += 1
    assert steps >= 5


@pytest.mark.parametrize("oracle, start, s, t", [
    # six copies of one edge, all headed at node 1
    (Graph(2, [(0, 1)], ell=[6]).induced_oracle(), [0, 6], 0, 1),
    # six copies of each of two edges into one T-node of degree 6
    (SemiMatchingOracle(SemiMatchingProblem(2, 1, [(0, 0), (1, 0)], t_degrees=[6],
                                            edge_caps=[6, 6])), [0, 6], 0, 1),
    # two sources with an arc of capacity 6 each into the sink
    (MegiddoOracle(MegiddoProblem(Digraph(3, [(0, 2), (1, 2)], [6, 6]), {0, 1}, {2}), 6),
     [6, 0], 1, 0),
])
def test_flow_walk_steps_push_many_units(oracle, start, s, t):
    # a flow-backed step pushes up to its limit, 3 units, or to the box
    # bound 1 above the start at s
    tight_box = np.full(2, 6)
    tight_box[s] = 1
    for upper, d in ((None, 3), (tight_box, 1)):
        B = BaseHandle(oracle, upper=upper)
        walk = tight_sets(B, start)
        assert walk.step(s, t, 3) == d
        m = np.array(start)
        m[s] += d
        m[t] -= d
        assert list(walk.m) == m.tolist()
        fresh = tight_sets(B, m)
        assert walk(0) == fresh(0) and walk(1) == fresh(1)


def _fresh_route(B, m):
    """The basic algorithm with a fresh reader per unit step."""
    while (step := one_tightening(B, m)) is not None:
        m = step[2]
    return m


def _check_semimatching(P, res):
    # the subgraph z meets every degree specification of P on its own terms
    caps = np.ones(P.m, np.int64) if P.edge_caps is None else P.edge_caps
    z = res.multiplicity
    assert ((0 <= z) & (z <= caps)).all()
    deg_s = np.bincount([s for s, _ in P.edges], weights=z, minlength=P.n_left)
    deg_t = np.bincount([t for _, t in P.edges], weights=z, minlength=P.n_right)
    assert res.left_degrees.tolist() == deg_s.tolist()
    assert res.right_degrees.tolist() == deg_t.tolist()
    if P.lower_left is not None:
        assert (deg_s >= P.lower_left).all()
    if P.upper_left is not None:
        assert (deg_s <= P.upper_left).all()
    if P.t_degrees is not None:
        assert deg_t.tolist() == P.t_degrees.tolist()
    elif P.lower_right is None and P.upper_right is None:
        assert deg_t.tolist() == [1] * P.n_right
    else:
        assert P.lower_right is None or (deg_t >= P.lower_right).all()
        assert P.upper_right is None or (deg_t <= P.upper_right).all()
    if P.gamma is not None:
        assert int(z.sum()) == P.gamma


def _check_megiddo(P, amount, res):
    # arc capacities, conservation off the sources and sinks, sinks only
    # receive, and the sources send the amount as res.outflow says
    D = P.digraph
    assert ((0 <= res.flow) & (res.flow <= D.cap)).all()
    psi = net_in_flow(D, res.flow)
    inner = [v for v in range(D.n) if v not in P.sources | P.sinks]
    assert (psi[inner] == 0).all()
    assert (psi[sorted(P.sinks)] >= 0).all()
    assert res.outflow.tolist() == (-psi[sorted(P.sources)]).tolist()
    assert (res.outflow >= 0).all() and int(res.outflow.sum()) == amount


def test_walk_matches_a_fresh_reader_per_step():
    # basic_decmin walks once; a fresh reader per unit step reaches the
    # same sorted vector, and so do the solvers that read their final flow
    # off the walked residual network, whose flows pass their checks
    solved = flows = 0
    for seed in (53, 54):
        pick = np.random.default_rng(seed + 100)
        for kind in sorted(core._READERS):
            rng = np.random.default_rng(seed)
            for oracle in INSTANCES[kind](rng):
                B = BaseHandle(oracle)
                table = TableOracle([oracle.value(x) for x in range(1 << oracle.n)])
                start = _start(BaseHandle(table))
                best = sorted_dec(_fresh_route(B, start))
                assert sorted_dec(basic_decmin(B)) == sorted_dec(basic_decmin(B, start)) == best
                boxed = BaseHandle(oracle, **_box_around(pick, start))
                got = basic_decmin(boxed, start)
                assert sorted_dec(got) == sorted_dec(_fresh_route(boxed, start))
                assert boxed.in_box(got)
                solved += 2
                if kind == "semimatching":
                    res = decmin_semimatching(oracle.problem)
                    _check_semimatching(oracle.problem, res)
                    assert sorted_dec(res.left_degrees) == best
                elif kind == "megiddo":
                    P = oracle.problem
                    res = megiddo_discrete(MegiddoProblem(P.digraph, P.sources, P.sinks, oracle.amount))
                    _check_megiddo(P, oracle.amount, res)
                    assert sorted_dec(res.outflow) == best
                elif kind == "graph-induced":
                    G = Graph(oracle.n, oracle.edges, ell=oracle.ell)
                    assert sorted_dec(capacitated_decmin_orientation(G).indeg) == best
                elif kind == "orientation" and (oracle.ell == 1).all():
                    G = Graph(oracle.n, oracle.edges)
                    got = decmin_orientation_bounded(G, oracle.lo, oracle.hi).indeg
                    assert sorted_dec(got) == best
                else:
                    continue
                flows += 1
    assert solved >= 300 and flows >= 100


def test_flow_backed_solves_run_a_fixed_number_of_flows(monkeypatch):
    # one flow per solve, however many steps the walk takes: the start's
    # min-cost flow for a semi-matching, the first flow for a Megiddo
    # flow, the greedy member's (or the start's) flow for a graph-induced set
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(netflow, "feasible_m_flow", counted("feasible", netflow.feasible_m_flow))
    monkeypatch.setattr(netflow, "min_cost_flow", counted("min-cost", netflow.min_cost_flow))
    walk = orientation._ResidualWalk
    monkeypatch.setattr(walk, "step", counted("step", walk.step))

    def solve(fn, *args):
        counts.clear()
        fn(*args)
        steps = counts.pop("step", 0)
        return dict(counts), steps

    rng = np.random.default_rng(19)
    seen = {"semimatching": set(), "megiddo": set(), "induced": set()}
    for n in range(4, 16, 2):
        edges = {(int(rng.integers(n)), t) for t in range(2 * n)}
        while len(edges) < 4 * n:
            edges.add((int(rng.integers(n)), int(rng.integers(2 * n))))
        got, steps = solve(decmin_semimatching, SemiMatchingProblem(n, 2 * n, sorted(edges)))
        assert got == {"min-cost": 1}
        seen["semimatching"].add(steps)

        arcs = [tuple(int(v) for v in rng.choice(3 * n, size=2, replace=False))
                for _ in range(9 * n)]
        D = Digraph(3 * n, arcs, rng.integers(1, 5, size=len(arcs)))
        got, steps = solve(megiddo_discrete, MegiddoProblem(D, range(n), range(n, n + 3)))
        assert got == {"feasible": 1}
        seen["megiddo"].add(steps)

        G = util.random_multigraph(rng, min_nodes=2 * n, max_nodes=2 * n, max_edges=6 * n)
        B = BaseHandle(G.induced_oracle())
        got, steps = solve(basic_decmin, B)
        assert got == {"feasible": 1}
        seen["induced"].add(steps)
        heads = np.bincount([v for _, v in G.edges], minlength=G.n)
        assert solve(basic_decmin, B, heads)[0] == {"feasible": 1}
    assert all(len(steps) >= 3 for steps in seen.values()), seen


def test_flow_kinds_start_by_one_flow(monkeypatch):
    # without a given start, a bounded orientation handle on 200 nodes and
    # a boxed graph-induced one on 30 each solve by one flow and build no
    # 2^n table; the answers are dec-min members
    import random

    def no_table(self):
        raise AssertionError("a 2^n table was built")

    flows = []
    for name in ("feasible_m_flow", "min_cost_flow"):
        fn = getattr(netflow, name)
        monkeypatch.setattr(netflow, name, lambda P, fn=fn: flows.append(P) or fn(P))
    rng = random.Random(7)
    handles = []
    for n, mm in ((200, 1000), (30, 90)):
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(mm - n + 1)]
        deg = Graph(n, edges).degrees()
        if n == 200:
            lo = np.array([rng.randint(0, d // 2) for d in deg.tolist()])
            hi = np.array([rng.randint((d + 1) // 2, d) for d in deg.tolist()])
            handles.append(BaseHandle(OrientationOracle(n, edges, None, lo, hi)))
        else:
            handles.append(BaseHandle(Graph(n, edges).induced_oracle(), upper=np.full(n, 4)))
    for B in handles:
        flows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(core.SetFunctionOracle, "table", no_table)
            m = basic_decmin(B)
        assert len(flows) == 1
        assert B.in_box(m) and is_member(B, m)
        assert tightening_pair(m, tight_sets(B, m)) is None


# ---------------------------------------------------------------------------
# one search per maximal tight set
# ---------------------------------------------------------------------------


class _Recording(core.Walk):
    """A walk that keeps, scan by scan, each target it is asked for with
    the set it answered; a step starts the next scan."""

    def __init__(self, inner):
        self.m, self._inner, self.scans = inner.m, inner, [[]]

    def __call__(self, t):
        got = self._inner(t)
        self.scans[-1].append((t, got))
        return got

    def step(self, s, t, limit=1):
        self.scans.append([])
        return self._inner.step(s, t, limit)


def _reads_inside_an_earlier_set(scan) -> bool:
    """Does the scan read a target that a set it read before holds?"""
    seen = set()
    for t, got in scan:
        if t in seen:
            return True
        seen |= got
    return False


def _skip_instances(kind, rng):
    if kind != "explicit-table":
        yield from INSTANCES[kind](rng)
        return
    for _ in range(12):
        yield util.random_supermodular_table(rng, int(rng.integers(2, 7)))


SKIP_KINDS = sorted(core._READERS) + ["explicit-table"]


@pytest.mark.parametrize("kind", SKIP_KINDS)
def test_tightening_pair_matches_the_full_scan(kind):
    # at every step of a tighten run from a member far from dec-min, boxed
    # and unboxed, the scan that skips targets inside the sets it has read
    # returns the pair of the scan that reads every target, and so does
    # the pre-dec-min scan that reads only the largest-valued targets
    rng, pick = np.random.default_rng(71), np.random.default_rng(73)
    steps = 0
    for oracle in _skip_instances(kind, rng):
        n = oracle.n
        table = TableOracle([oracle.value(x) for x in range(1 << n)])
        start = _start(BaseHandle(table))
        for box in ({}, _box_around(pick, start)):
            walk = _Recording(tight_sets(BaseHandle(oracle, **box), start))
            m, inner = walk.m, walk._inner
            while True:
                top = max(m)

                def at_top(tight):
                    return lambda t: tight(t) if m[t] == top else frozenset({t})

                assert tightening_pair(m, at_top(walk)) == util.full_scan_pair(m, at_top(inner))
                walk.scans.append([])
                pair = tightening_pair(m, walk)
                assert pair == util.full_scan_pair(m, inner)
                if pair is None:
                    break
                s, t = pair
                walk.step(s, t, int(m[t] - m[s]) // 2)
                steps += 1
            assert not any(map(_reads_inside_an_earlier_set, walk.scans))
    assert steps >= 4


@pytest.mark.parametrize("kind", SKIP_KINDS)
def test_chain_and_peak_unions_match_full_unions(kind):
    # at a dec-min element, boxed and unboxed, the canonical chain and
    # the peak set of every value, which skip the elements inside the
    # union so far, are the unions of every element's smallest tight set
    rng, pick = np.random.default_rng(79), np.random.default_rng(83)
    for oracle in _skip_instances(kind, rng):
        table = TableOracle([oracle.value(x) for x in range(1 << oracle.n)])
        start = _start(BaseHandle(table))
        for box in ({}, _box_around(pick, start)):
            B = BaseHandle(oracle, **box)
            m = basic_decmin(B, start)
            walk = tight_sets(B, m)
            D = canonical_from_tight_sets(m, walk)
            assert D.chain == [util.full_union(m, walk, lambda v: v >= beta) for beta in D.betas]
            for beta in set(m.tolist()):
                assert _peak(walk, beta) == util.full_union(m, walk, lambda v: v == beta)


def _plain_orientation_walk(rng, n, mm):
    """The walk of decmin_orientation on a connected multigraph with n
    nodes and mm edges (a random spanning tree plus random edges), every
    edge (u, v) headed at v."""
    order = rng.permutation(n).tolist()
    edges = [(order[int(rng.integers(i))], order[i]) for i in range(1, n)]
    while len(edges) < mm:
        u, v = rng.choice(n, size=2, replace=False).tolist()
        edges.append((u, v))
    G = Graph(n, edges)
    R, deg = orientation._residual_of(orientation.Orientation(G, [v for _, v in edges]))
    return G, orientation._ResidualWalk(R, deg, [0] * n, G.degrees())


def test_scans_skip_targets_inside_sets_already_read():
    # within one scan of a plain orientation solve no target is read that
    # lies inside a set read before it, so the final dec-min certificate
    # reads one set per maximal tight set: fewer than n/2 of them
    rng = np.random.default_rng(97)
    for _ in range(3):
        G, inner = _plain_orientation_walk(rng, 100, 500)
        walk = _Recording(inner)
        tighten(walk)
        assert len(walk.scans) > 20
        assert not any(map(_reads_inside_an_earlier_set, walk.scans))
        assert len(walk.scans[-1]) < G.n / 2
        assert util.full_scan_pair(walk.m, inner) is None
