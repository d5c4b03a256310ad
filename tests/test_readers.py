"""The tight-set reader of every oracle kind in core's registry against the
2^n subset scan of a TableOracle holding the same values, plus the
reader contract: non-members raise, and handles hold no reference cycle.

    PYTHONPATH=src python -m pytest -q tests/test_readers.py
"""

import gc
import weakref

import numpy as np
import pytest

from decmin import core
from decmin.applications import (
    MegiddoOracle,
    MegiddoProblem,
    SemiMatchingOracle,
    SemiMatchingProblem,
    max_sendable,
)
from decmin.core import (
    BaseHandle,
    RootVectorOracle,
    TableOracle,
    exchange_feasible,
    is_member,
    smallest_tight_set,
)
from decmin.engine import basic_decmin, one_tightening
from decmin.matroid import AggregateMatroidOracle, SumOfMatroidsOracle, graphic_matroid
from decmin.netflow import Digraph
from decmin.orientation import Graph

import util


def _graph_induced(rng):
    for trial in range(12):
        G = util.random_multigraph(rng, max_nodes=10, max_edges=20)
        ell = rng.integers(1, 4, size=G.m) if trial % 2 else None
        yield Graph(G.n, G.edges, ell=ell).induced_oracle()


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
        yield MegiddoOracle(P, int(rng.integers(0, max_sendable(P) + 1)))


def _matroid_sum(rng):
    for trial in range(15):
        n = int(rng.integers(2, 7))
        kind = ["graphic", "uniform", "partition", "explicit-bases", "dual"][trial % 5]
        yield SumOfMatroidsOracle([util.random_matroid(rng, n, kind)
                                   for _ in range(trial % 3 + 1)])


def _matroid_aggregate(rng):
    for _ in range(10):
        G = util.random_multigraph(rng, max_nodes=5, max_edges=9)
        q = int(rng.integers(2, min(6, G.m) + 1))
        order = rng.permutation(G.m).tolist()
        yield AggregateMatroidOracle(graphic_matroid(G.n, G.edges),
                                     [order[i::q] for i in range(q)])


def _root_vector(rng):
    # k copies of one spanning arborescence make the set non-empty
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        order = rng.permutation(n).tolist()
        tree = [(order[int(rng.integers(0, i))], order[i]) for i in range(1, n)]
        arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                for _ in range(int(rng.integers(0, 2 * n)))]
        yield RootVectorOracle(n, tree * k + arcs, k)


INSTANCES = {
    "graph-induced": _graph_induced,
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
    modularity = "intersecting" if kind == "root-vector" else "full"
    queries = zero_entries = 0
    for oracle in INSTANCES[kind](rng):
        monkeypatch.delenv("DECMIN_BRUTE_CEILING", raising=False)
        n = oracle.n
        table = TableOracle([oracle.value(x) for x in range(1 << n)])
        table.table()
        scan = BaseHandle(table, modularity)
        members = _members(scan, rng)
        probes = [members[0] + rng.integers(-1, 2, size=n),
                  members[0] + np.eye(n, dtype=np.int64)[0]]
        boxes = [{}, {"lower": members[0] - rng.integers(0, 2, size=n),
                      "upper": members[0] + rng.integers(0, 2, size=n)}]
        for low_ceiling in (False, True):
            if low_ceiling:
                monkeypatch.setenv("DECMIN_BRUTE_CEILING", "1")
            for box in boxes:
                B = BaseHandle(oracle, modularity, **box)
                ref = BaseHandle(table, modularity, **box)
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
