import itertools
import random

import numpy as np
import pytest

from decmin.canonical import (
    canonical_from_decmin,
    decmin_set_membership,
    duality_gap,
    verify_dual_optimal,
)
import decmin
from decmin.core import BaseHandle, EmptyBaseError, TableOracle, is_member, sorted_dec, tight_sets
from decmin.engine import greedy_member, is_decmin, strongly_poly_decmin
from decmin.orientation import (
    Graph,
    GraphInducedOracle,
    InfeasibleOrientationError,
    NotDecMinOrientationError,
    OrientationOracle,
    OrientationSpec,
    capacitated_decmin_orientation,
    cheapest_decmin_orientation_bounded,
    decmin_korient,
    decmin_orientation,
    decmin_orientation_bounded,
    decmin_orientation_minT,
    decmin_orientation_tspec,
    inout_decmin_orientation,
    orient_with_indegrees,
    orientation_canonical,
    orientation_cost,
    parse_graph,
    solve_orientation_spec,
)

import util


class TestOrientWithIndegrees:
    def test_examples(self):
        path = util.path_graph()
        o = orient_with_indegrees(path, [0, 1, 1])
        assert o.indeg.tolist() == [0, 1, 1]
        o2 = orient_with_indegrees(path, [0, 2, 0])
        assert o2.indeg.tolist() == [0, 2, 0]
        with pytest.raises(InfeasibleOrientationError):
            orient_with_indegrees(path, [2, 0, 0])

    def test_witness_violates_induced_count(self):
        G = util.path_graph()
        with pytest.raises(InfeasibleOrientationError) as exc:
            orient_with_indegrees(G, [2, 0, 0])
        X = exc.value.witness
        m = [2, 0, 0]
        ig = sum(1 for u, v in G.edges if u in X and v in X)
        assert sum(m[v] for v in X) < ig

    def test_witness_beyond_subset_scan(self):
        # n = 30, with a K6 on nodes 0..5 that gets no in-degree at all: the
        # witness comes from the flow's minimum cut alone
        rng = np.random.default_rng(41)
        n = 30
        for _ in range(5):
            edges = list(itertools.combinations(range(6), 2))
            edges += [(v, int(rng.integers(0, v))) for v in range(6, n)]
            G = Graph(n, edges)
            m = np.zeros(n, dtype=np.int64)
            m[6:] = np.bincount(rng.integers(6, n, size=G.m), minlength=n)[6:]
            with pytest.raises(InfeasibleOrientationError) as exc:
                orient_with_indegrees(G, m)
            X = exc.value.witness
            ig = sum(1 for u, v in G.edges if u in X and v in X)
            assert int(m[sorted(X)].sum()) < ig

    def test_random_feasible_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
            scan = util.orientation_scan(G)
            m = scan[int(rng.integers(0, scan.shape[0]))]
            o = orient_with_indegrees(G, m)
            assert (o.indeg == m).all()


class TestDecminOrientation:
    def test_examples(self):
        assert decmin_orientation(util.c4_graph()).indeg.tolist() == [1, 1, 1, 1]
        assert sorted_dec(decmin_orientation(util.path_graph()).indeg) == (1, 1, 0)
        assert decmin_orientation(util.triangle_graph()).indeg.tolist() == [1, 1, 1]

    def test_brute_small(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
            _, best = util.decmin_rows(util.orientation_scan(G))
            assert sorted_dec(decmin_orientation(G).indeg) == best


def _witness_violates(G, lo, hi, X):
    """X certifies that no orientation of G meets lo <= indeg <= hi: the
    nodes whose box is empty, or a set holding more edges than hi allows
    or whose complement touches fewer edges than lo demands."""
    if np.any(lo > hi):
        return X == set(np.flatnonzero(lo > hi).tolist())
    rest = set(range(G.n)) - X
    inside = sum(1 for u, v in G.edges if u in X and v in X)
    touching = sum(1 for u, v in G.edges if u in rest or v in rest)
    return inside > hi[sorted(X)].sum() or touching < lo[sorted(rest)].sum()


class TestBounded:
    def test_examples(self):
        path = util.path_graph()
        o = decmin_orientation_bounded(path, None, [1, 1, 1])
        assert sorted_dec(o.indeg) == (1, 1, 0)
        forced = decmin_orientation_bounded(path, [0, 2, 0], None)
        assert forced.indeg.tolist() == [0, 2, 0]
        c4 = util.c4_graph()
        assert decmin_orientation_bounded(c4, None, [1] * 4).indeg.tolist() == [
            1
        ] * 4

    def test_infeasible(self):
        with pytest.raises(InfeasibleOrientationError):
            decmin_orientation_bounded(util.path_graph(), [2, 0, 0], None)

    def test_brute_small(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 12:
            G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
            deg = G.degrees()
            lo = np.minimum(rng.integers(0, 2, size=G.n), deg)
            hi = np.minimum(lo + rng.integers(0, 3, size=G.n), deg)
            scan = util.orientation_scan(G)
            ok = np.all(scan >= lo, axis=1) & np.all(scan <= hi, axis=1)
            if not ok.any():
                with pytest.raises(InfeasibleOrientationError) as exc:
                    decmin_orientation_bounded(G, lo, hi)
                assert _witness_violates(G, lo, hi, exc.value.witness)
                continue
            done += 1
            _, best = util.decmin_rows(scan[ok])
            assert sorted_dec(decmin_orientation_bounded(G, lo, hi).indeg) == best

    def test_tspec(self):
        o = decmin_orientation_tspec(util.path_graph(), [1], [2])
        assert o.indeg.tolist() == [0, 2, 0]

    def test_tspec_needs_one_degree_per_node_in_range(self):
        # both paths pin T-degrees alike and drop none of them silently
        path = util.path_graph()
        for t_set, t_degrees in (({0, 1, 2}, [2]), ({2}, [0, 3]), ({3}, [1]), ({-1}, [1])):
            with pytest.raises(ValueError):
                decmin_orientation_tspec(path, t_set, t_degrees)
            with pytest.raises(ValueError):
                solve_orientation_spec(path, OrientationSpec(t_set=t_set, t_degrees=t_degrees))
        lower = np.zeros(3)
        spec = OrientationSpec(lower=lower, t_set={1}, t_degrees=[2])
        assert solve_orientation_spec(path, spec).indeg.tolist() == [0, 2, 0]
        assert lower.tolist() == [0, 0, 0]


def _same_induced_set(G: Graph, ell):
    """i_G with capacities ell in closed form has the min-cost-flow value
    of the orientation oracle with bounds [0, weighted degree] on every
    mask, and at a greedy member both read the tight sets of the table."""
    induced = GraphInducedOracle(G.n, G.edges, ell)
    deg = np.zeros(G.n, np.int64)
    np.add.at(deg, np.ravel(G.edges), np.repeat(induced.ell, 2))
    flowed = OrientationOracle(G.n, G.edges, ell, np.zeros(G.n, np.int64), deg)
    masks = range(1 << G.n)
    assert [induced.value(x) for x in masks] == [flowed.value(x) for x in masks]
    m = greedy_member(BaseHandle(induced))
    reads = [
        tight_sets(BaseHandle(p), m)
        for p in (induced, flowed, TableOracle(induced.table()))
    ]
    for t in range(G.n):
        assert reads[0](t) == reads[1](t) == reads[2](t)


def test_orientation_oracle_value_is_least_indegree_sum():
    # p(X) = min over the orientations within the bounds of indeg(X); with
    # the bounds [0, deg] that is the induced edge count, with capacities
    # 1-3 too
    rng = np.random.default_rng(31)
    caps = np.random.default_rng(32)
    empty = 0
    for trial in range(36):
        G = util.random_multigraph(rng, max_nodes=7, max_edges=11)
        deg = G.degrees()
        lo, hi = np.zeros(G.n, np.int64), deg
        if trial % 3:
            lo, hi = rng.integers(0, 2, size=G.n), deg - rng.integers(0, 2, size=G.n)
        oracle = OrientationOracle(G.n, G.edges, None, lo, hi)
        scan = util.orientation_scan(G)
        rows = scan[np.all(scan >= lo, axis=1) & np.all(scan <= hi, axis=1)]
        if not len(rows):
            empty += 1
            with pytest.raises(EmptyBaseError) as exc:
                oracle.value(int(rng.integers(1 << G.n)))
            assert _witness_violates(G, lo, hi, exc.value.witness)
            continue
        masks = np.arange(1 << G.n)[:, None] >> np.arange(G.n) & 1
        least = (rows @ masks.T).min(axis=0)
        assert [oracle.value(x) for x in range(1 << G.n)] == least.tolist()
        if trial % 3 == 0:
            induced = G.induced_oracle()
            assert all(oracle.value(x) == induced.value(x) for x in range(1 << G.n))
            _same_induced_set(G, caps.integers(1, 4, size=G.m))
    assert empty


def test_graph_induced_oracle_checks_its_graph():
    # endpoints outside range(n), loops and capacities below 1 fail at
    # construction, as Graph's do, not at the first value or flow
    for edges, ell in (
        ([(0, 5), (1, 2)], None),
        ([(-1, 2)], None),
        ([(1, 1)], None),
        ([(0, 1), (1, 2)], [1, 0]),
        ([(0, 1), (1, 2)], [1]),
    ):
        with pytest.raises(ValueError):
            GraphInducedOracle(3, edges, ell)
    assert GraphInducedOracle(3, [(0, 2), (1, 2)], [2, 3]).value(7) == 5
    # the old home stays an alias: the benchmark's workloads build it there
    assert decmin.core.GraphInducedOracle is decmin.orientation.GraphInducedOracle


def test_orientation_oracle_checks_its_edges():
    # endpoints outside range(n), negative endpoints and loops fail at
    # construction, not as an IndexError inside the first flow; an edge
    # with no copies (a Megiddo arc of capacity 0) stays legal
    lo, hi = np.zeros(3, np.int64), np.full(3, 5)
    for edges in ([(0, 5), (1, 2)], [(-1, 2)], [(1, 1)]):
        with pytest.raises(ValueError):
            OrientationOracle(3, edges, None, lo, hi)
    assert OrientationOracle(3, [(0, 2), (1, 2)], [0, 2], lo, hi).value(7) == 2


class TestOrientationCanonical:
    def test_examples(self):
        c4 = util.c4_graph()
        D = orientation_canonical(c4, decmin_orientation(c4))
        assert D.q == 1 and D.betas == [1] and D.chain == [frozenset(range(4))]
        path = util.path_graph()
        Dp = orientation_canonical(path, decmin_orientation(path))
        assert Dp.q == 1 and Dp.betas == [1] and Dp.counts == [2]

    def test_two_blocks_k4_plus_edge(self):
        # K4 has density 6/4 -> beta 2 block; the far edge gives beta 1
        edges = list(itertools.combinations(range(4), 2)) + [(4, 5)]
        G = Graph(6, edges)
        D = orientation_canonical(G, decmin_orientation(G))
        assert D.q == 2
        assert D.betas == [2, 1]
        assert D.partition[0] == frozenset(range(4))
        assert D.partition[1] == frozenset({4, 5})

    def test_rejects_non_decmin(self):
        path = util.path_graph()
        bad = orient_with_indegrees(path, [0, 2, 0])
        with pytest.raises(NotDecMinOrientationError):
            orientation_canonical(path, bad)

    def test_matches_generic_canonical_on_ig_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
            o = decmin_orientation(G)
            D_graph = orientation_canonical(G, o)
            handle = BaseHandle(G.induced_oracle())
            D_generic = canonical_from_decmin(handle, o.indeg, check=False)
            assert D_graph == D_generic

    def test_boxed_matches_generic(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 8:
            G = util.random_multigraph(rng, max_nodes=5, max_edges=7)
            deg = G.degrees()
            lo = np.zeros(G.n, dtype=np.int64)
            hi = np.minimum(1 + rng.integers(0, 2, size=G.n), deg)
            scan = util.orientation_scan(G)
            ok = np.all(scan >= lo, axis=1) & np.all(scan <= hi, axis=1)
            if not ok.any():
                continue
            done += 1
            o = decmin_orientation_bounded(G, lo, hi)
            D_graph = orientation_canonical(G, o, lo, hi)
            boxed = BaseHandle(G.induced_oracle(), lower=lo, upper=hi)
            D_generic = canonical_from_decmin(boxed, o.indeg, check=False)
            assert D_graph == D_generic

    def test_beyond_subset_ceiling(self):
        # K5 planted in a random connected graph on 24 nodes: a 21-node
        # block whose value-fixed part is a proper non-empty subset, so
        # neither the chain nor F_i may come from a 2^|S_i| scan
        rng = np.random.default_rng(4)
        n = 24
        edges = list(itertools.combinations(range(5), 2))
        edges += [(v, int(rng.integers(0, v))) for v in range(5, n)]
        for _ in range(int(rng.integers(8, 16))):
            u, v = rng.choice(n, size=2, replace=False)
            edges.append((int(u), int(v)))
        G = Graph(n, edges)
        o = decmin_orientation(G)
        D = orientation_canonical(G, o)
        big = max(range(D.q), key=lambda i: len(D.partition[i]))
        assert len(D.partition[big]) >= 20
        assert 0 < len(D.value_fixed[big]) < len(D.partition[big])
        handle = BaseHandle(G.induced_oracle())
        assert canonical_from_decmin(handle, o.indeg) == D
        assert verify_dual_optimal(D, handle, D.pi_star)
        assert duality_gap(handle, o.indeg, D.pi_star).gap == 0
        # raising pi by 2 on a whole value-fixed set keeps it optimal
        pi = D.pi_star.copy()
        pi[sorted(D.value_fixed[big])] += 2
        assert verify_dual_optimal(D, handle, pi)
        assert duality_gap(handle, o.indeg, pi).gap == 0
        # raising it on one element alone breaks an arc into that element
        pi = D.pi_star.copy()
        pi[max(D.value_fixed[big])] += 2
        assert not verify_dual_optimal(D, handle, pi)
        assert duality_gap(handle, o.indeg, pi).gap > 0


class TestCheapest:
    def test_examples(self):
        c4 = util.c4_graph()
        cost = [(0, 0)] * 4
        cost[0] = (0, 7)  # orienting edge (0,1) toward 1 is expensive
        o = cheapest_decmin_orientation_bounded(c4, cost=cost)
        assert o.indeg.tolist() == [1, 1, 1, 1]
        assert orientation_cost(o, cost) == 0
        # contract: output lies in the dec-min set
        D = orientation_canonical(c4, decmin_orientation(c4))
        handle = BaseHandle(c4.induced_oracle())
        assert decmin_set_membership(D, handle, o.indeg)

    def test_brute_random(self):
        # negative costs, and in-degree caps on every other graph
        rng = np.random.default_rng(23)
        for trial in range(16):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=7)
            cost = [tuple(int(x) for x in rng.integers(-5, 10, size=2)) for _ in G.edges]
            scan = util.orientation_scan(G)
            codes = np.arange(scan.shape[0])
            upper = None
            if trial % 2:
                upper = np.minimum(G.degrees(), rng.integers(1, 4, size=G.n))
                ok = np.all(scan <= upper, axis=1)
                scan, codes = scan[ok], codes[ok]
            if not len(codes):
                with pytest.raises(InfeasibleOrientationError):
                    cheapest_decmin_orientation_bounded(G, None, upper, cost)
                continue
            sel, best = util.decmin_rows(scan)
            want = min(
                orientation_cost(util.orientation_from_code(G, int(code)), cost)
                for code in codes[sel]
            )
            got = cheapest_decmin_orientation_bounded(G, None, upper, cost)
            assert sorted_dec(got.indeg) == best
            assert orientation_cost(got, cost) == want


class TestInOut:
    def test_examples(self):
        o = inout_decmin_orientation(util.c4_graph())
        assert o.indeg.tolist() == [1, 1, 1, 1]
        o2 = inout_decmin_orientation(util.path_graph())
        assert o2 is not None
        assert sorted_dec(o2.indeg) == (1, 1, 0)
        assert sorted_dec(o2.outdeg) == (1, 1, 0)
        o3 = inout_decmin_orientation(util.triangle_graph())
        assert o3.indeg.tolist() == [1, 1, 1]

    def test_matches_brute(self):
        rng = np.random.default_rng(29)
        answered = 0
        for _ in range(200):
            G = util.random_multigraph(rng, max_nodes=6, max_edges=10)
            scan = util.orientation_scan(G)
            deg = G.degrees()
            in_sel, best_in = util.decmin_rows(scan)
            out_sel, best_out = util.decmin_rows(deg[None, :] - scan)
            got = inout_decmin_orientation(G)
            assert (got is not None) == bool((in_sel & out_sel).any())
            if got is not None:
                answered += 1
                assert sorted_dec(got.indeg) == best_in
                assert sorted_dec(got.outdeg) == best_out
        assert 50 < answered < 150

    def test_six_regular_past_the_subset_ceiling(self):
        # three random Hamiltonian cycles on 200 nodes: the canonical block
        # is the whole node set, far past any 2^n table
        rng = random.Random(11)
        n = 200
        edges = []
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            edges += [(order[i - 1], order[i]) for i in range(n)]
        G = Graph(n, edges)
        o = inout_decmin_orientation(G)
        handle = BaseHandle(G.induced_oracle())
        assert is_decmin(handle, o.indeg)[0] and is_decmin(handle, o.outdeg)[0]
        assert o.indeg.tolist() == o.outdeg.tolist() == [3] * n


class TestMinT:
    def test_examples(self):
        path = util.path_graph()
        o = decmin_orientation_minT(path, None, [2, 2, 2], {1})
        assert o.indeg.tolist() == [1, 0, 1]
        c4 = util.c4_graph()
        o2 = decmin_orientation_minT(c4, None, None, {0})
        assert o2.indeg[0] == 0
        assert sorted_dec(o2.indeg) == (2, 1, 1, 0)
        # T = V collapses to the plain dec-min problem
        o3 = decmin_orientation_minT(c4, None, None, range(4))
        assert sorted_dec(o3.indeg) == (1, 1, 1, 1)

    def test_brute_random(self):
        # each instance unbounded and with random in-degree bounds, which
        # leave no orientation at all now and then
        rng, pick = np.random.default_rng(29), np.random.default_rng(31)
        solved = infeasible = 0
        for _ in range(12):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
            t_size = int(rng.integers(1, G.n + 1))
            T = set(int(v) for v in rng.choice(G.n, size=t_size, replace=False))
            deg = G.degrees()
            lo = pick.integers(0, deg // 2 + 2)
            hi = np.maximum(lo, deg - pick.integers(0, 3, size=G.n))
            for lower, upper in ((None, None), (lo, hi)):
                scan = util.orientation_scan(G)
                if lower is not None:
                    scan = scan[((scan >= lower) & (scan <= upper)).all(axis=1)]
                if not len(scan):
                    with pytest.raises(InfeasibleOrientationError):
                        decmin_orientation_minT(G, lower, upper, T)
                    infeasible += 1
                    continue
                tsums = scan[:, sorted(T)].sum(axis=1)
                keep = tsums == tsums.min()
                _, best = util.decmin_rows(scan[keep])
                got = decmin_orientation_minT(G, lower, upper, T)
                assert lower is None or ((lower <= got.indeg) & (got.indeg <= upper)).all()
                assert int(got.indeg[sorted(T)].sum()) == int(tsums.min())
                assert sorted_dec(got.indeg) == best
                solved += 1
        assert solved >= 18 and infeasible >= 1


class TestKConnected:
    def test_examples(self):
        c4 = util.c4_graph()
        assert decmin_korient(c4, 1).indeg.tolist() == [1, 1, 1, 1]
        doubled = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
        assert decmin_korient(doubled, 2).indeg.tolist() == [2, 2, 2, 2]
        # a doubled path is 2-edge-connected, so k=1 is feasible there;
        # the single path is not (Robbins)
        dpath = Graph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
        assert sorted_dec(decmin_korient(dpath, 1).indeg) == (2, 1, 1)
        with pytest.raises(InfeasibleOrientationError):
            decmin_korient(util.path_graph(), 1)

    def test_brute_random(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 8:
            G = util.random_multigraph(rng, max_nodes=4, max_edges=8)
            k = int(rng.integers(1, 3))
            scan = util.orientation_scan(G)
            feas = [
                code
                for code in range(scan.shape[0])
                if util.is_k_connected_code(G, code, k)
            ]
            if not feas:
                with pytest.raises(InfeasibleOrientationError):
                    decmin_korient(G, k)
                continue
            done += 1
            _, best = util.decmin_rows(scan[feas])
            got = decmin_korient(G, k)
            assert sorted_dec(got.indeg) == best


class TestCapacitated:
    def test_single_edge(self):
        e5 = Graph(2, [(0, 1)], ell=[5])
        assert sorted(capacitated_decmin_orientation(e5).indeg.tolist()) == [2, 3]
        e4 = Graph(2, [(0, 1)], ell=[4])
        assert capacitated_decmin_orientation(e4).indeg.tolist() == [2, 2]

    def test_c4_capacity2(self):
        G = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], ell=[2] * 4)
        assert capacitated_decmin_orientation(G).indeg.tolist() == [2] * 4

    def test_matches_expanded_small(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            G = util.random_multigraph(rng, max_nodes=4, max_edges=4)
            ell = rng.integers(1, 5, size=G.m)
            cap_graph = Graph(G.n, G.edges, ell=ell)
            got = capacitated_decmin_orientation(cap_graph)
            expanded = cap_graph.expand()
            if expanded.m <= 12:
                _, best = util.decmin_rows(util.orientation_scan(expanded))
                assert sorted_dec(got.indeg) == best

    def test_requires_capacities(self):
        with pytest.raises(ValueError):
            capacitated_decmin_orientation(util.c4_graph())

    def test_matches_strongly_polynomial_route(self):
        # capacities up to 10^6: reversals move many copies at a time
        rng = np.random.default_rng(43)
        for high in (3, 10**6) * 6:
            G = util.random_multigraph(rng, max_nodes=12, max_edges=24)
            G = Graph(G.n, G.edges, ell=rng.integers(1, high + 1, size=G.m))
            got = capacitated_decmin_orientation(G)
            want = strongly_poly_decmin(BaseHandle(G.induced_oracle()))
            assert sorted(got.indeg.tolist()) == sorted(want.tolist())

    def test_certified_at_n200(self):
        rng = np.random.default_rng(47)
        n = 200
        G = util.random_multigraph(rng, max_nodes=n, max_edges=2 * n)
        G = Graph(G.n, G.edges, ell=rng.integers(1, 4, size=G.m))
        got = capacitated_decmin_orientation(G)
        B = BaseHandle(G.induced_oracle())
        D = canonical_from_decmin(B, got.indeg, check=True)
        assert duality_gap(B, got.indeg, D.pi_star).gap == 0


def test_graph_induced_fast_path_matches_table():
    # flow-backed membership/exchange equals the subset-scan answer
    rng = np.random.default_rng(41)
    for _ in range(10):
        G = util.random_multigraph(rng, max_nodes=5, max_edges=7)
        handle = BaseHandle(G.induced_oracle())
        tab = handle.oracle.table()
        scan = util.orientation_scan(G)
        member = scan[int(rng.integers(0, scan.shape[0]))]
        probe = member.copy()
        probe[0] += 1
        probe[-1] -= 1
        for m in (member, probe):
            sums = [
                sum(int(m[v]) for v in range(G.n) if mask >> v & 1)
                for mask in range(1 << G.n)
            ]
            table_ans = sums[-1] == tab[-1] and all(
                s >= t for s, t in zip(sums, tab)
            )
            assert is_member(handle, m) == table_ans


def test_parse_graph_full_format():
    text = """
    # comment
    p orient 4 5
    e 1 2 2
    e 2 3 1 3
    e 3 4 1 1 5 7
    b 1 0 2
    b 4 - inf
    """
    G, lo, hi = parse_graph(text)
    assert G.n == 4 and G.m == 4  # multiplicity 2 expands
    assert G.ell.tolist() == [1, 1, 3, 1]
    assert G.cost[3] == (7, 5)  # head 3 costs c_vu, head 4 costs c_uv
    assert lo[0] == 0 and hi[0] == 2
    assert np.isinf(hi[3])


def test_orientation_invariants():
    o = decmin_orientation(util.c4_graph())
    assert int(o.indeg.sum()) == o.graph.m
    assert (o.indeg + o.outdeg == o.graph.degrees()).all()


def test_decmin_orientation_is_incmax():
    rng = np.random.default_rng(103)
    from decmin.core import sorted_inc

    for _ in range(10):
        G = util.random_multigraph(rng, max_nodes=5, max_edges=8)
        scan = util.orientation_scan(G)
        _, best_inc = util.incmax_rows(scan)
        got = decmin_orientation(G)
        assert sorted_inc(got.indeg) == best_inc


def test_orientation_spec_dispatch():
    from decmin.orientation import OrientationSpec, solve_orientation_spec

    c4 = util.c4_graph()
    assert solve_orientation_spec(c4, OrientationSpec()).indeg.tolist() == [1] * 4
    spec = OrientationSpec(connectivity=1)
    assert solve_orientation_spec(c4, spec).indeg.tolist() == [1] * 4
    path = util.path_graph()
    spec_t = OrientationSpec(t_set=frozenset({1}), t_degrees=np.array([2]))
    assert solve_orientation_spec(path, spec_t).indeg.tolist() == [0, 2, 0]
    spec_min = OrientationSpec(objective="min-indeg-T", t_set=frozenset({1}))
    assert solve_orientation_spec(path, spec_min).indeg.tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        OrientationSpec(objective="nope")


def test_contradictory_bounds_surface_as_infeasible():
    path = util.path_graph()
    for fn in (
        lambda: decmin_orientation_bounded(path, [3, 0, 0], [1, 2, 2]),
        lambda: decmin_orientation_minT(path, [3, 0, 0], [1, 2, 2], {1}),
        lambda: decmin_korient(path, 1, [3, 0, 0], [1, 2, 2]),
    ):
        with pytest.raises(InfeasibleOrientationError) as exc:
            fn()
        assert exc.value.witness == {0}
