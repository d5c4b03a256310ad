import random

import numpy as np
import pytest

from decmin import brute
from decmin.applications import (
    InfeasibleProblemError,
    MegiddoOracle,
    MegiddoProblem,
    RootVectorOracle,
    SemiMatchingOracle,
    SemiMatchingProblem,
    decmin_root_vector,
    decmin_semimatching,
    load_semimatching_json,
    megiddo_discrete,
    parse_digraph,
    parse_megiddo,
)
from decmin.canonical import canonical_from_decmin, duality_gap, verify_dual_optimal
from decmin.core import (
    BaseHandle,
    EmptyBaseError,
    TableOracle,
    sorted_dec,
    sorted_inc,
    value_equivalent,
)
from decmin.engine import basic_decmin, strongly_poly_decmin
from decmin.netflow import Digraph, net_in_flow

import util


class TestSemiMatching:
    def test_two_user_instance(self):
        P = SemiMatchingProblem(2, 1, [(0, 0), (1, 0)])
        res = decmin_semimatching(P)
        assert value_equivalent(res.left_degrees, (1, 0))
        assert int(res.multiplicity.sum()) == 1

    def test_k22_perfect_matching(self):
        P = SemiMatchingProblem(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        res = decmin_semimatching(P)
        assert res.left_degrees.tolist() == [1, 1]

    def test_forced_double(self):
        P = SemiMatchingProblem(1, 2, [(0, 0), (0, 1)])
        res = decmin_semimatching(P)
        assert res.left_degrees.tolist() == [2]

    def test_infeasible(self):
        P = SemiMatchingProblem(1, 2, [(0, 0)])
        with pytest.raises(InfeasibleProblemError):
            decmin_semimatching(P)

    def test_harvey_objective_equivalence_random(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 12:
            nl, nr, edges = util.random_bipartite(rng, 4, 3, 9)
            P = SemiMatchingProblem(nl, nr, edges)
            _, degs = brute.subgraphs(P)
            if not len(degs):
                continue
            done += 1
            res = decmin_semimatching(P)
            _, best = brute.decmin_rows(degs)
            assert sorted_dec(res.left_degrees) == best
            harvey = lambda d: int(np.sum(d * (d + 1)))
            best_h = min(harvey(d) for d in degs)
            assert harvey(res.left_degrees) == best_h
            dec_set = {tuple(sorted_dec(d)) for d in degs if sorted_dec(d) == best}
            harvey_set = {
                tuple(sorted_dec(d)) for d in degs if harvey(d) == best_h
            }
            assert dec_set == harvey_set

    def test_bounded_gamma_variant_random(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 10:
            nl, nr, edges = util.random_bipartite(rng, 3, 3, 7)
            P = SemiMatchingProblem(
                nl,
                nr,
                edges,
                lower_right=np.zeros(nr, np.int64),
                upper_right=rng.integers(1, 3, size=nr),
                upper_left=rng.integers(1, 4, size=nl),
                gamma=int(rng.integers(1, 4)),
            )
            _, degs = brute.subgraphs(P)
            if not len(degs):
                with pytest.raises(InfeasibleProblemError):
                    decmin_semimatching(P)
                continue
            done += 1
            res = decmin_semimatching(P)
            _, best = brute.decmin_rows(degs)
            assert sorted_dec(res.left_degrees) == best
            assert int(res.multiplicity.sum()) == P.gamma

    def test_capacitated_random(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 8:
            nl, nr, edges = util.random_bipartite(rng, 3, 2, 5)
            P = SemiMatchingProblem(
                nl,
                nr,
                edges,
                t_degrees=rng.integers(0, 3, size=nr),
                edge_caps=rng.integers(1, 3, size=len(edges)),
            )
            _, degs = brute.subgraphs(P)
            if not len(degs):
                with pytest.raises(InfeasibleProblemError):
                    decmin_semimatching(P)
                continue
            done += 1
            res = decmin_semimatching(P)
            _, best = brute.decmin_rows(degs)
            assert sorted_dec(res.left_degrees) == best

    def test_min_cost_variant_random(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 10:
            nl, nr, edges = util.random_bipartite(rng, 3, 3, 7)
            cost = rng.integers(0, 5, size=len(edges))
            P = SemiMatchingProblem(nl, nr, edges, cost=cost)
            zs, degs = brute.subgraphs(P)
            if not len(degs):
                continue
            done += 1
            res = decmin_semimatching(P)
            _, best = brute.decmin_rows(degs)
            assert sorted_dec(res.left_degrees) == best
            want = min(
                int(np.dot(z, cost))
                for z, d in zip(zs, degs)
                if sorted_dec(d) == best
            )
            assert res.cost == want

    def test_flexible_right_bounds_random(self):
        # T-degrees free inside [lower_right, upper_right] and |F| free:
        # the S-degree vectors of feasible subgraphs vary in sum, and only
        # those of least sum can be dec-min; with one S-node that is all
        P = SemiMatchingProblem(
            1,
            2,
            [(0, 0), (0, 1), (0, 1), (0, 0)],
            lower_left=[2],
            lower_right=[0, 2],
            edge_caps=[1, 2, 1, 2],
        )
        assert decmin_semimatching(P).left_degrees.tolist() == [2]
        rng = np.random.default_rng(17)
        done = 0
        while done < 16:
            nl, nr, edges = util.random_bipartite(rng, 4, 3, 7)
            cost = rng.integers(-3, 6, size=len(edges)) if done % 2 else None
            P = SemiMatchingProblem(
                nl,
                nr,
                edges,
                lower_right=rng.integers(0, 2, size=nr),
                upper_right=rng.integers(1, 4, size=nr),
                lower_left=rng.integers(0, 3, size=nl),
                edge_caps=rng.integers(1, 3, size=len(edges)),
                cost=cost,
            )
            zs, degs = brute.subgraphs(P)
            if not len(degs):
                with pytest.raises(InfeasibleProblemError):
                    decmin_semimatching(P)
                continue
            done += 1
            res = decmin_semimatching(P)
            _, best = brute.decmin_rows(degs)
            assert sorted_dec(res.left_degrees) == best
            if cost is not None:
                assert res.cost == min(
                    int(np.dot(z, cost)) for z, d in zip(zs, degs) if sorted_dec(d) == best
                )

    def test_witness_is_a_node_set_of_the_graph(self):
        # orientation view: S first, t as n_left + t; a chosen copy of
        # edge (s, t) points at s, so t's in-degree is w(t) - d_F(t); the
        # problems below set lower_left and no upper bound or gamma
        def check(P):
            with pytest.raises(InfeasibleProblemError) as exc:
                decmin_semimatching(P)
            X = exc.value.witness
            # the oracle's value on the empty set carries the same cut
            with pytest.raises(EmptyBaseError) as empty:
                SemiMatchingOracle(P).value(1)
            assert empty.value.witness == X
            nl, n = P.n_left, P.n_left + P.n_right
            assert X <= set(range(n))
            caps = np.ones(P.m, np.int64) if P.edge_caps is None else P.edge_caps
            ends = [(s, nl + t) for s, t in P.edges]
            w = np.zeros(n, np.int64)
            for (s, t), c in zip(ends, caps):
                w[s] += c
                w[t] += c
            lo_t = hi_t = np.ones(P.n_right, np.int64)
            if P.t_degrees is not None:
                lo_t = hi_t = P.t_degrees
            elif P.lower_right is not None:
                lo_t, hi_t = P.lower_right, w[nl:]
            lo = np.concatenate([P.lower_left, w[nl:] - hi_t])
            hi = np.concatenate([w[:nl], w[nl:] - lo_t])
            if np.any(lo > hi):
                assert X == set(np.flatnonzero(lo > hi).tolist())
                return
            rest = set(range(n)) - X
            copies = list(zip(ends, caps.tolist()))
            inside = sum(c for (a, b), c in copies if a in X and b in X)
            touching = sum(c for (a, b), c in copies if a in rest or b in rest)
            assert inside > hi[sorted(X)].sum() or touching < lo[sorted(rest)].sum()

        # two S-nodes must each take the one T-node's single edge
        check(SemiMatchingProblem(3, 1, [(0, 0), (1, 0), (2, 0)], lower_left=[1, 1, 0]))
        rng = np.random.default_rng(19)
        for _ in range(40):
            nl, nr, edges = util.random_bipartite(rng, 4, 3, 6)
            kind = rng.integers(0, 3)
            P = SemiMatchingProblem(
                nl,
                nr,
                edges,
                t_degrees=rng.integers(0, 3, size=nr) if kind == 0 else None,
                lower_right=rng.integers(0, 3, size=nr) if kind == 1 else None,
                lower_left=rng.integers(0, 3, size=nl),
                edge_caps=rng.integers(1, 3, size=len(edges)),
            )
            if not len(brute.subgraphs(P)[1]):
                check(P)

    def test_json_loader(self):
        P = load_semimatching_json(
            '{"n_left": 2, "n_right": 1, "edges": [[0,0],[1,0]]}'
        )
        assert P.n_left == 2 and P.m == 2


class TestMegiddo:
    def test_examples(self):
        D = Digraph(3, [(0, 2), (1, 2)], [1, 1])
        res = megiddo_discrete(MegiddoProblem(D, {0, 1}, {2}))
        assert res.outflow.tolist() == [1, 1]
        D2 = Digraph(3, [(0, 2), (0, 2), (1, 2)], [1, 1, 1])
        res2 = megiddo_discrete(MegiddoProblem(D2, {0, 1}, {2}, 2))
        assert res2.outflow.tolist() == [1, 1]
        res0 = megiddo_discrete(MegiddoProblem(D2, {0, 1}, {2}, 0))
        assert res0.outflow.tolist() == [0, 0]
        assert res0.flow.tolist() == [0, 0, 0]

    def test_amount_over_max(self):
        D = Digraph(3, [(0, 2), (1, 2)], [1, 1])
        P = MegiddoProblem(D, {0, 1}, {2}, 5)
        with pytest.raises(InfeasibleProblemError):
            megiddo_discrete(P)
        # the oracle's set is empty; the violated constraint is the sum
        # the sources must send, so the cut holds no node of the network
        with pytest.raises(EmptyBaseError) as exc:
            MegiddoOracle(P, 5).value(1)
        assert exc.value.witness == frozenset()

    def test_incmax_brute_random(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 10:
            n = int(rng.integers(3, 5))
            m = int(rng.integers(2, 6))
            arcs = []
            while len(arcs) < m:
                u, v = rng.choice(n, size=2, replace=False)
                arcs.append((int(u), int(v)))
            caps = rng.integers(0, 3, size=m)
            D = Digraph(n, arcs, caps)
            sources = {0}
            sinks = {n - 1}
            if n > 3:
                sources = {0, 1}
            P = MegiddoProblem(D, sources, sinks)
            limit = util.max_sendable(P)
            amount = int(rng.integers(0, limit + 1))
            P = MegiddoProblem(D, sources, sinks, amount)
            res = megiddo_discrete(P)
            done += 1
            # verify flow validity
            z = res.flow
            assert np.all(z >= 0) and np.all(z <= caps)
            psi = net_in_flow(D, z)
            srcs = sorted(sources)
            for v in range(n):
                if v in sources:
                    assert psi[v] <= 0
                elif v in sinks:
                    assert psi[v] >= 0
                else:
                    assert psi[v] == 0
            assert (res.outflow == -psi[srcs]).all()
            assert int(res.outflow.sum()) == amount
            # brute force over all integral arc vectors
            out = -brute.flows(D, sources, sinks)[1][:, srcs]
            best = max(sorted_inc(x) for x in out if x.sum() == amount)
            assert sorted_inc(res.outflow) == best

    def test_amounts_match_a_max_flow_and_the_table_route(self):
        # unset, the amount is the max flow of a super-source/super-sink
        # copy of D; set or unset, the sorted out-flows are those of the
        # basic algorithm on the oracle's 2^k value table, and an amount
        # past the maximum or below 0 raises
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                    for _ in range(int(rng.integers(1, 3 * n)))]
            D = Digraph(n, arcs, rng.integers(0, 4, size=len(arcs)))
            nodes = rng.permutation(n).tolist()
            k = int(rng.integers(1, min(3, n - 1) + 1))
            sources, sinks = nodes[:k], nodes[k:k + int(rng.integers(1, n - k + 1))]
            limit = util.max_sendable(MegiddoProblem(D, sources, sinks))
            for amount in (None, int(rng.integers(0, limit + 1))):
                res = megiddo_discrete(MegiddoProblem(D, sources, sinks, amount))
                amount = limit if amount is None else amount
                assert int(res.outflow.sum()) == amount
                table = TableOracle([MegiddoOracle(MegiddoProblem(D, sources, sinks), amount).value(x)
                                     for x in range(1 << k)])
                assert sorted_dec(res.outflow) == sorted_dec(basic_decmin(BaseHandle(table)))
            for amount in (limit + 1 + int(rng.integers(0, 3)), -1):
                with pytest.raises(InfeasibleProblemError):
                    megiddo_discrete(MegiddoProblem(D, sources, sinks, amount))

    def test_parsers(self):
        P = parse_megiddo(
            "p digraph 3 2\na 1 3 2\na 2 3 1\nS: 1 2\nT: 3\nM: 2\n"
        )
        assert P.amount == 2 and P.sources == {0, 1}
        D = parse_digraph("p digraph 2 1\na 1 2 3\n")
        assert D.cap.tolist() == [3]

    def test_nodes_outside_the_digraph_fail_at_construction(self):
        # not as a numpy broadcast error inside the first solve
        D = Digraph(3, [(0, 2), (1, 2)], [1, 1])
        with pytest.raises(ValueError, match=r"node 3 outside range\(3\)"):
            MegiddoProblem(D, {0, 1}, {3})
        with pytest.raises(ValueError, match=r"node -1 outside range\(3\)"):
            MegiddoProblem(D, {-1}, {2})
        with pytest.raises(ValueError, match=r"node -1 outside range\(3\)"):
            parse_megiddo("p digraph 3 2\na 1 3 1\na 2 3 1\nS: 0\nT: 3\n")


def random_digraph(rng, n, max_arcs):
    return [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
            for _ in range(int(rng.integers(0, max_arcs + 1)))]


def both_ways(rng, n, m):
    """Both directions of each edge of a random connected multigraph: a
    random spanning tree plus random edges, m edges in all."""
    order = rng.permutation(n).tolist()
    edges = [(order[int(rng.integers(i))], order[i]) for i in range(1, n)]
    while len(edges) < m:
        edges.append(tuple(int(v) for v in rng.choice(n, size=2, replace=False)))
    return edges + [(v, u) for u, v in edges]


class TestRootVectors:
    def test_examples(self):
        c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)], [1] * 3)
        m = decmin_root_vector(c3, 1)
        assert value_equivalent(m, (1, 0, 0))
        doubled = Digraph(3, [(0, 1), (1, 2), (2, 0)] * 2, [1] * 6)
        m2 = decmin_root_vector(doubled, 2)
        assert value_equivalent(m2, (1, 1, 0))

    def test_isolated_nodes_infeasible(self):
        lonely = Digraph(2, [(0, 1)], [1])
        m = decmin_root_vector(lonely, 1)
        assert m.tolist() == [1, 0]  # root at 0 spans via the arc
        no_arcs = Digraph(2, [], np.zeros(0, dtype=np.int64))
        with pytest.raises(InfeasibleProblemError):
            decmin_root_vector(no_arcs, 1)

    def test_edmonds_condition_random(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            arcs = []
            while len(arcs) < m:
                u, v = rng.choice(n, size=2, replace=False)
                arcs.append((int(u), int(v)))
            k = int(rng.integers(1, 3))
            D = Digraph(n, arcs, np.ones(m, np.int64))
            # brute feasibility and dec-min over root vectors
            feas = brute.root_vectors(n, arcs, k)
            done += 1
            if not len(feas):
                with pytest.raises(InfeasibleProblemError):
                    decmin_root_vector(D, k)
                continue
            got = decmin_root_vector(D, k)
            _, best = brute.decmin_rows(feas)
            assert sorted_dec(got) == best
            # returned vector satisfies the packing condition everywhere
            for mask in range(1, 1 << n):
                X = [v for v in range(n) if mask >> v & 1]
                indeg = sum(1 for u, v in arcs if v in X and u not in X)
                assert sum(int(got[v]) for v in X) >= k - indeg

    def test_oracle_is_supermodular_and_holds_the_root_vectors(self):
        # p is fully supermodular, p(S) = k exactly when a packing exists,
        # and then the points of B'(p) are the root vectors
        rng = np.random.default_rng(29)
        feasible = 0
        for _ in range(60):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            arcs = random_digraph(rng, n, 3 * n)
            oracle = RootVectorOracle(n, arcs, k)
            p = [oracle.value(x) for x in range(1 << n)]
            for x in range(1 << n):
                for y in range(x):
                    assert p[x | y] + p[x & y] >= p[x] + p[y]
            want = sorted(map(tuple, brute.root_vectors(n, arcs, k).tolist()))
            assert (p[-1] == k) == bool(want)
            if want:
                feasible += 1
                pts = brute.points(BaseHandle(oracle))
                assert sorted(map(tuple, pts.tolist())) == want
        assert feasible >= 20

    def test_certificates_at_pi_star(self):
        # the square-sum certificate holds at every answer: gap 0 at the
        # optimal dual pi*, which verify_dual_optimal accepts, and the
        # strongly polynomial recursion finds the same sorted vector
        rng = np.random.default_rng(3)
        done = 0
        for _ in range(240):
            n, k = int(rng.integers(3, 6)), int(rng.integers(1, 3))
            arcs = random_digraph(rng, n, 4 * n)
            D = Digraph(n, arcs, np.ones(len(arcs), np.int64))
            try:
                m = decmin_root_vector(D, k)
            except InfeasibleProblemError:
                continue
            done += 1
            B = BaseHandle(RootVectorOracle(n, arcs, k))
            C = canonical_from_decmin(B, m)
            assert duality_gap(B, m, C.pi_star).gap == 0
            assert verify_dual_optimal(C, B, C.pi_star)
            assert sorted_dec(strongly_poly_decmin(B)) == sorted_dec(m)
        assert done >= 150

    def test_large_digraphs_read_no_table_and_no_exchange(self, monkeypatch):
        # past the subset ceiling every value and tight set is read off
        # max flows; the answer meets Edmonds' condition at every node
        # and its square-sum certificate holds
        from decmin import core, netflow

        def forbidden(*args):
            raise AssertionError("a root-vector solve read a table or an exchange")

        monkeypatch.setattr(core.SetFunctionOracle, "table", forbidden)
        monkeypatch.setattr(core, "_exchange_tight", forbidden)
        rng = np.random.default_rng(31)
        arcs = both_ways(rng, 30, 90)
        m = decmin_root_vector(Digraph(30, arcs, np.ones(len(arcs), np.int64)), 2)
        assert m.min() >= 0 and int(m.sum()) == 2
        rooted = Digraph(31, arcs + [(30, u) for u in range(30)], [1] * len(arcs) + m.tolist())
        assert all(netflow.max_flow(rooted, 30, v)[0] == 2 for v in range(30))
        B = BaseHandle(RootVectorOracle(30, arcs, 2))
        assert duality_gap(B, m, canonical_from_decmin(B, m).pi_star).gap == 0

    def test_greedy_start_runs_a_flow_per_node(self, monkeypatch):
        # each greedy prefix lowers one more node from the supplies kept
        # for the prefix before it: n flows, then n per tight-set read
        from decmin import netflow

        calls = []
        max_flow = netflow._max_flow

        def counted(*args):
            calls.append(args[3])
            return max_flow(*args)

        monkeypatch.setattr(netflow, "_max_flow", counted)
        rng = random.Random(41)  # a Hamiltonian cycle makes it 2-edge-connected
        order = rng.sample(range(100), 100)
        edges = [(order[i - 1], order[i]) for i in range(100)]
        edges += [tuple(rng.sample(range(100), 2)) for _ in range(200)]
        arcs = edges + [(v, u) for u, v in edges]
        m = decmin_root_vector(Digraph(100, arcs, np.ones(len(arcs), np.int64)), 2)
        assert len(calls) <= 5 * 100
        assert m.min() >= 0 and int(m.sum()) == 2 and m.max() == 1

    def test_nodes_short_of_in_arcs_are_infeasible_at_scale(self):
        # both directions of 600 random edges on 200 nodes: a node v with
        # fewer than 2 in-arcs needs 2 - indeg(v) roots, more than 2 in all
        rng = random.Random(7)
        edges = [tuple(rng.sample(range(200), 2)) for _ in range(600)]
        arcs = edges + [(v, u) for u, v in edges]
        indeg = np.bincount([v for _, v in arcs], minlength=200)
        assert np.maximum(2 - indeg, 0).sum() > 2
        with pytest.raises(InfeasibleProblemError):
            decmin_root_vector(Digraph(200, arcs, np.ones(len(arcs), np.int64)), 2)


def test_membership_keeps_the_base_sum():
    # free T-degrees realise S-degree sums above p(S), which lie outside B'(p)
    from decmin.applications import SemiMatchingOracle
    from decmin.core import BaseHandle, exchange_feasible, is_member

    P = SemiMatchingProblem(
        1, 2, [(0, 0), (0, 1)], lower_right=[0, 0], upper_right=[1, 1]
    )
    oracle = SemiMatchingOracle(P)
    assert oracle.value(oracle.full_mask) == 0
    handle = BaseHandle(oracle)
    assert is_member(handle, [0])
    assert not is_member(handle, [1])
    assert not is_member(handle, [2])
    P2 = SemiMatchingProblem(
        2, 2, [(0, 0), (1, 1), (0, 1)], lower_right=[0, 0], upper_right=[1, 1]
    )
    handle2 = BaseHandle(SemiMatchingOracle(P2))
    assert is_member(handle2, [0, 0])
    assert not is_member(handle2, [0, 1])
    # [1, 0] -> [0, 1] keeps the sum 1 > p(S) = 0; both are realisable
    assert not exchange_feasible(handle2, [1, 0], 1, 0)


def test_membership_respects_left_bounds():
    # pinned degree queries must still honor the S-side degree bounds
    from decmin.applications import SemiMatchingOracle
    from decmin.core import BaseHandle, is_member

    P = SemiMatchingProblem(
        2, 2, [(0, 0), (0, 1), (1, 1)], t_degrees=[1, 1], upper_left=[1, 2]
    )
    handle = BaseHandle(SemiMatchingOracle(P))
    assert is_member(handle, [1, 1])
    assert not is_member(handle, [2, 0])
    res = decmin_semimatching(P)
    assert res.left_degrees.tolist() == [1, 1]


def test_flow_backed_solves_read_no_table_and_no_exchange(monkeypatch):
    # semi-matchings either side of the subset ceiling and a Megiddo flow
    # with 24 sources take every tight set from one realising flow
    from decmin import core

    def forbidden(*args):
        raise AssertionError("a flow-backed solve read a table or an exchange")

    monkeypatch.setattr(core.SetFunctionOracle, "table", forbidden)
    monkeypatch.setattr(core, "_exchange_tight", forbidden)
    rng = np.random.default_rng(5)
    for n_left, n_right, m in ((7, 14, 28), (22, 11, 33)):
        edges = {(int(rng.integers(n_left)), t) for t in range(n_right)}
        while len(edges) < m:
            edges.add((int(rng.integers(n_left)), int(rng.integers(n_right))))
        res = decmin_semimatching(SemiMatchingProblem(n_left, n_right, sorted(edges)))
        assert res.right_degrees.tolist() == [1] * n_right
        assert int(res.left_degrees.sum()) == n_right
    n = 60
    arcs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
            for _ in range(3 * n)]
    D = Digraph(n, arcs, rng.integers(1, 5, size=len(arcs)))
    P = MegiddoProblem(D, range(24), range(24, 27))
    res = megiddo_discrete(P)
    psi = net_in_flow(D, res.flow)
    assert (res.outflow == -psi[:24]).all()
    assert int(res.outflow.sum()) == util.max_sendable(P) > 0
