import itertools

import numpy as np
import pytest

from decmin import netflow
from decmin.netflow import (
    Digraph,
    FlowProblem,
    arc_disjoint_paths_at_least,
    feasible_m_flow,
    max_flow,
    min_cost_flow,
    net_in_flow,
)


def random_digraph(rng, max_nodes=5, max_arcs=8, max_cap=3):
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_arcs + 1))
    arcs = []
    while len(arcs) < m:
        u, v = rng.choice(n, size=2, replace=False)
        arcs.append((int(u), int(v)))
    caps = rng.integers(0, max_cap + 1, size=m)
    return Digraph(n, arcs, caps)


class TestMaxFlow:
    def test_examples(self):
        assert max_flow(Digraph(2, [(0, 1)], [3]), 0, 1)[0] == 3
        assert max_flow(Digraph(2, [(0, 1), (0, 1)], [1, 1]), 0, 1)[0] == 2
        diamond = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1] * 4)
        value, flow, cut = max_flow(diamond, 0, 3)
        assert value == 2
        assert cut in ({0}, {0, 1, 2})

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 0)], [1])
        with pytest.raises(ValueError):
            max_flow(Digraph(2, [(0, 1)], [1]), 1, 1)

    def test_cut_certificate_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            D = random_digraph(rng)
            s, t = 0, D.n - 1
            value, flow, cut = max_flow(D, s, t)
            assert s in cut and t not in cut
            cap_cut = sum(
                int(c)
                for (u, v), c in zip(D.arcs, D.cap)
                if u in cut and v not in cut
            )
            assert value == cap_cut
            # conservation and capacity of the returned flow
            assert np.all(flow >= 0) and np.all(flow <= D.cap)
            psi = net_in_flow(D, flow)
            assert psi[t] == value and psi[s] == -value
            inner = [v for v in range(D.n) if v not in (s, t)]
            assert all(psi[v] == 0 for v in inner)


class TestMenger:
    def test_cycle_examples(self):
        c4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1] * 4)
        assert arc_disjoint_paths_at_least(c4, 0, 2, 1)
        assert not arc_disjoint_paths_at_least(c4, 0, 2, 2)
        doubled = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2, [1] * 8)
        assert arc_disjoint_paths_at_least(doubled, 0, 2, 2)
        diamond = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [1] * 4)
        assert arc_disjoint_paths_at_least(diamond, 0, 3, 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            arc_disjoint_paths_at_least(Digraph(2, [(0, 1)], [1]), 0, 1, 0)


class TestFeasibleFlow:
    def test_examples(self):
        D = Digraph(2, [(0, 1)], [1])
        res = feasible_m_flow(FlowProblem(D, [0], [1], [-1, 1]))
        assert res.flow.tolist() == [1]
        bad = feasible_m_flow(FlowProblem(D, [0], [1], [1, -1]))
        assert not bad.feasible and bad.witness == {1}
        res0 = feasible_m_flow(FlowProblem(D, [0], [1], [0, 0]))
        assert res0.flow.tolist() == [0]

    def test_sum_must_vanish(self):
        D = Digraph(2, [(0, 1)], [1])
        with pytest.raises(ValueError):
            feasible_m_flow(FlowProblem(D, [0], [1], [1, 1]))

    def test_hoffman_condition_random(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            D = random_digraph(rng)
            lower = rng.integers(0, 2, size=D.m)
            upper = lower + rng.integers(0, 2, size=D.m)
            target = np.zeros(D.n, dtype=np.int64)
            for _ in range(3):
                u, v = rng.choice(D.n, size=2, replace=False)
                target[u] -= 1
                target[v] += 1
            P = FlowProblem(D, lower, upper, target)
            res = feasible_m_flow(P)
            # brute check of the cut condition rho_f(Z) - delta_g(Z) <= m(Z)
            worst = None
            for zmask in range(1, 1 << D.n):
                Z = {v for v in range(D.n) if zmask >> v & 1}
                rho_f = sum(
                    int(f)
                    for (u, v), f in zip(D.arcs, lower)
                    if v in Z and u not in Z
                )
                delta_g = sum(
                    int(g)
                    for (u, v), g in zip(D.arcs, upper)
                    if u in Z and v not in Z
                )
                slack = rho_f - delta_g - sum(int(target[v]) for v in Z)
                if worst is None or slack > worst:
                    worst = slack
            if res.feasible:
                assert worst <= 0
                assert np.all(res.flow >= lower) and np.all(res.flow <= upper)
                assert (net_in_flow(D, res.flow) == target).all()
            else:
                assert worst > 0
                Z = res.witness
                rho_f = sum(
                    int(f)
                    for (u, v), f in zip(D.arcs, lower)
                    if v in Z and u not in Z
                )
                delta_g = sum(
                    int(g)
                    for (u, v), g in zip(D.arcs, upper)
                    if u in Z and v not in Z
                )
                gap = rho_f - delta_g - sum(int(target[v]) for v in Z)
                assert gap == worst  # witness attains the max violation


class TestMinCostFlow:
    def test_examples(self):
        D = Digraph(2, [(0, 1), (0, 1)], [1, 1])
        res = min_cost_flow(FlowProblem(D, [0, 0], [1, 1], [-1, 1], cost=[5, 0]))
        assert res.flow.tolist() == [0, 1] and res.cost == 0
        res0 = min_cost_flow(
            FlowProblem(D, [0, 0], [1, 1], [0, 0], cost=[5, 7])
        )
        assert res0.cost == 0 and res0.flow.tolist() == [0, 0]
        tri = Digraph(3, [(0, 1), (0, 2), (2, 1)], [2, 2, 2])
        res2 = min_cost_flow(
            FlowProblem(tri, [0] * 3, [2, 2, 2], [-2, 2, 0], cost=[3, 1, 1])
        )
        assert res2.cost == 4

    def test_matches_exhaustive_random(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 30:
            D = random_digraph(rng, max_nodes=4, max_arcs=5, max_cap=2)
            cost = rng.integers(0, 5, size=D.m)
            target = np.zeros(D.n, dtype=np.int64)
            u, v = rng.choice(D.n, size=2, replace=False)
            target[u] -= 1
            target[v] += 1
            P = FlowProblem(
                D, np.zeros(D.m, dtype=np.int64), D.cap, target, cost=cost
            )
            res = min_cost_flow(P)
            best = None
            for z in itertools.product(*[range(int(c) + 1) for c in D.cap]):
                if (net_in_flow(D, np.array(z, np.int64)) == target).all():
                    c = int(np.dot(z, cost))
                    best = c if best is None or c < best else best
            checked += 1
            if best is None:
                assert not res.feasible
            else:
                assert res.feasible and res.cost == best

    def test_negative_cycle_raises_wherever_it_lies(self):
        # a negative cycle with zero targets: nothing needs to be sent
        tri = Digraph(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        with pytest.raises(ValueError, match="negative-cost cycle"):
            min_cost_flow(FlowProblem(tri, [0] * 3, [1] * 3, [0] * 3, cost=[-1] * 3))
        # a negative cycle on nodes the supply never reaches
        D = Digraph(5, [(0, 1), (2, 3), (3, 4), (4, 2)], [1] * 4)
        P = FlowProblem(D, [0] * 4, [1] * 4, [-1, 1, 0, 0, 0], cost=[1, -1, -1, -1])
        with pytest.raises(ValueError, match="negative-cost cycle"):
            min_cost_flow(P)

    def test_one_bellman_ford_per_call(self, monkeypatch):
        calls = []
        real = netflow._potentials
        monkeypatch.setattr(
            netflow, "_potentials", lambda R: calls.append(1) or real(R)
        )
        # three units: two along the paths of cost -1, one along 0-2-3 (3)
        D = Digraph(4, [(0, 1), (0, 2), (1, 3), (1, 2), (2, 3)], [2, 2, 1, 2, 3])
        res = min_cost_flow(
            FlowProblem(D, [0] * 5, D.cap, [-3, 0, 0, 3], cost=[-2, 1, 1, -1, 2])
        )
        assert res.cost == 1 and len(calls) == 1
        min_cost_flow(FlowProblem(D, [0] * 5, D.cap, [-3, 0, 0, 3], cost=[1] * 5))
        assert len(calls) == 1

    def test_dijkstra_keeps_reduced_costs_nonnegative(self):
        # after a phase's Dijkstra (stopped once the sink is settled), every
        # arc of positive residual capacity keeps a nonnegative reduced cost
        # and pi(t) - pi(s) is the cost of a cheapest s->t path
        rng = np.random.default_rng(23)
        for _ in range(60):
            D = random_digraph(rng, max_nodes=9, max_arcs=24, max_cap=2)
            cost = rng.integers(0, 6, size=D.m).tolist()
            R = netflow._Residual(D.n, D.arcs, D.cap, cost)
            pi = [0] * D.n
            s, t = 0, D.n - 1
            reached = R.reach(s)[t]
            assert netflow._shortest_to(R, s, t, pi) == reached
            if not reached:
                continue
            cheapest = {s: 0}
            for _ in range(D.n):
                for (u, v), c, w in zip(D.arcs, D.cap, cost):
                    if c > 0 and u in cheapest and cheapest[u] + w < cheapest.get(v, 1e9):
                        cheapest[v] = cheapest[u] + w
            assert pi[t] - pi[s] == cheapest[t]
            for a in range(len(R.res)):
                if R.res[a] > 0:
                    assert R.cost[a] + pi[R.head[a ^ 1]] - pi[R.head[a]] >= 0


def _nx_lower_bound_graph(nx, D, lower, upper, target, cost=None):
    """The networkx MultiDiGraph of a flow problem with its lower bounds
    sent first: capacities upper - lower and demands target - psi(lower);
    also returns the cost of the lower bounds."""
    demand = (np.asarray(target) - net_in_flow(D, lower)).tolist()
    G = nx.MultiDiGraph()
    for v in range(D.n):
        G.add_node(v, demand=int(demand[v]))
    base = 0
    for i, (u, v) in enumerate(D.arcs):
        w = 0 if cost is None else int(cost[i])
        G.add_edge(u, v, capacity=int(upper[i] - lower[i]), weight=w)
        base += w * int(lower[i])
    return G, base


def _random_problem(rng, negative=False):
    """A random network with lower bounds, a random target and, when
    negative, arc costs of both signs but no negative cycle (reduced costs
    of random node prices are nonnegative)."""
    D = random_digraph(rng, max_nodes=8, max_arcs=16, max_cap=4)
    lower = rng.integers(0, 3, size=D.m) * (rng.random(D.m) < 0.5)
    upper = lower + rng.integers(0, 4, size=D.m)
    target = np.zeros(D.n, dtype=np.int64)
    for _ in range(int(rng.integers(0, 5))):
        u, v = rng.choice(D.n, size=2, replace=False)
        k = int(rng.integers(1, 4))
        target[u] -= k
        target[v] += k
    if negative:
        price = rng.integers(-6, 7, size=D.n)
        cost = [int(rng.integers(0, 5)) + int(price[v] - price[u]) for u, v in D.arcs]
    else:
        cost = rng.integers(0, 7, size=D.m)
    return D, lower, upper, target, cost


class TestAgainstNetworkx:
    def test_max_flow_values_and_cuts(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(101)
        for _ in range(60):
            D = random_digraph(rng, max_nodes=9, max_arcs=20, max_cap=5)
            s, t = 0, D.n - 1
            value, flow, cut = max_flow(D, s, t)
            G = nx.DiGraph()
            G.add_nodes_from(range(D.n))
            for (u, v), c in zip(D.arcs, D.cap.tolist()):
                old = G.get_edge_data(u, v, {"capacity": 0})["capacity"]
                G.add_edge(u, v, capacity=old + c)
            assert value == nx.maximum_flow_value(G, s, t)
            assert s in cut and t not in cut
            assert value == sum(
                int(c) for (u, v), c in zip(D.arcs, D.cap) if u in cut and v not in cut
            )

    def test_feasible_flows(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(102)
        seen = set()
        for _ in range(80):
            D, lower, upper, target, _ = _random_problem(rng)
            res = feasible_m_flow(FlowProblem(D, lower, upper, target))
            G, _ = _nx_lower_bound_graph(nx, D, lower, upper, target)
            try:
                nx.network_simplex(G)
                expected = True
            except nx.NetworkXUnfeasible:
                expected = False
            assert res.feasible == expected
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("negative", [False, True])
    def test_min_cost_flows(self, negative):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(103 + negative)
        seen = set()
        for _ in range(80):
            D, lower, upper, target, cost = _random_problem(rng, negative)
            res = min_cost_flow(FlowProblem(D, lower, upper, target, cost=cost))
            G, base = _nx_lower_bound_graph(nx, D, lower, upper, target, cost)
            try:
                expected = base + nx.network_simplex(G)[0]
            except nx.NetworkXUnfeasible:
                expected = None
            assert res.cost == expected
            if res.feasible:
                assert (net_in_flow(D, res.flow) == target).all()
                assert np.all(res.flow >= lower) and np.all(res.flow <= upper)
                assert res.cost == int(np.dot(res.flow, cost))
            seen.add(expected is None)
        assert seen == {True, False}
