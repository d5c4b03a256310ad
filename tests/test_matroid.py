import itertools

import numpy as np
import pytest

from decmin.canonical import canonical_from_decmin
from decmin.core import BaseHandle, sorted_dec, value_equivalent
from decmin.matroid import (
    MatroidOracle,
    bases_matroid,
    contract_matroid,
    decmin_basis_sum,
    decmin_partition_intersection,
    direct_sum_matroid,
    dual_matroid,
    from_decomposition_matroid,
    graphic_matroid,
    inout_decmin_orientation,
    load_matroid_json,
    matroid_intersection,
    min_cost_basis,
    partition_matroid,
    restrict_matroid,
    uniform_matroid,
)

import util


def sec34_matroids():
    m1 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 2}, {1, 3}])
    m2 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 3}, {1, 2}])
    return m1, m2


def brute_max_common(M1, M2):
    best = 0
    for r in range(M1.n, -1, -1):
        for combo in itertools.combinations(range(M1.n), r):
            if M1.independent(combo) and M2.independent(combo):
                return r
    return best


class TestIntersection:
    def test_sec34_common_bases(self):
        m1, m2 = sec34_matroids()
        got = matroid_intersection(m1, m2)
        assert len(got) == 2
        common = [
            set(c)
            for c in itertools.combinations(range(4), 2)
            if m1.independent(c) and m2.independent(c)
        ]
        assert common == [{0, 1}, {2, 3}]
        assert set(got) in common

    def test_uniform(self):
        u = uniform_matroid(3, 2)
        assert len(matroid_intersection(u, u)) == 2

    def test_graphic_vs_partition(self):
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        part = partition_matroid(3, [[0], [1, 2]], [1, 1])
        assert len(matroid_intersection(tri, part)) == 2

    def test_matches_brute_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=7)
            m1 = graphic_matroid(G.n, G.edges)
            n = m1.n
            split = int(rng.integers(1, n)) if n > 1 else 1
            blocks = [list(range(split)), list(range(split, n))]
            blocks = [b for b in blocks if b]
            caps = [int(rng.integers(0, len(b) + 1)) for b in blocks]
            m2 = partition_matroid(n, blocks, caps)
            got = matroid_intersection(m1, m2)
            assert m1.independent(got) and m2.independent(got)
            assert len(got) == brute_max_common(m1, m2)


class TestMinCostBasis:
    def test_examples(self):
        assert min_cost_basis(uniform_matroid(2, 1), [2, 1]) == {1}
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        assert min_cost_basis(tri, [1, 2, 3]) == {0, 1}
        m1, _ = sec34_matroids()
        assert min_cost_basis(m1, [0, 0, 1, 1]) == {0, 1}

    def test_no_basis_error(self):
        # rank smaller than the spanning requirement cannot happen for a
        # matroid, so force the error with an oracle of empty rank
        empty = MatroidOracle(2, lambda X: len(X) == 0, "trivial")
        assert min_cost_basis(empty, [1, 1]) == frozenset()

    def test_matches_brute_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 5
            G = util.random_multigraph(rng, max_nodes=4, max_edges=n)
            M = graphic_matroid(G.n, G.edges)
            cost = rng.integers(-3, 6, size=M.n)
            got = min_cost_basis(M, cost.tolist())
            r = M.rank()
            best = min(
                sum(int(cost[v]) for v in combo)
                for combo in itertools.combinations(range(M.n), r)
                if M.independent(combo)
            )
            assert sum(int(cost[v]) for v in got) == best


class TestBasisSum:
    def test_examples(self):
        u = uniform_matroid(2, 1)
        _, s = decmin_basis_sum([u, u])
        assert s.tolist() == [1, 1]
        m1, m2 = sec34_matroids()
        bases, s = decmin_basis_sum([m1, m2])
        assert value_equivalent(s, (1, 1, 1, 1))
        assert m1.independent(bases[0]) and len(bases[0]) == 2
        assert m2.independent(bases[1]) and len(bases[1]) == 2
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        _, s3 = decmin_basis_sum([tri] * 3)
        assert s3.tolist() == [2, 2, 2]

    def test_matches_brute_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = 4
            G1 = util.random_multigraph(rng, max_nodes=3, max_edges=n)
            G2 = util.random_multigraph(rng, max_nodes=3, max_edges=n)
            M1 = graphic_matroid(G1.n, G1.edges)
            M2 = graphic_matroid(G2.n, G2.edges)
            if M1.n != M2.n:
                continue
            n = M1.n
            bases1 = [
                frozenset(c)
                for c in itertools.combinations(range(n), M1.rank())
                if M1.independent(c)
            ]
            bases2 = [
                frozenset(c)
                for c in itertools.combinations(range(n), M2.rank())
                if M2.independent(c)
            ]
            best = None
            for b1 in bases1:
                for b2 in bases2:
                    vec = np.zeros(n, dtype=np.int64)
                    for v in b1:
                        vec[v] += 1
                    for v in b2:
                        vec[v] += 1
                    sig = sorted_dec(vec)
                    best = sig if best is None or sig < best else best
            _, got = decmin_basis_sum([M1, M2])
            assert sorted_dec(got) == best

    def test_bounded_sum_matches_brute(self):
        # per-element bounds on how many bases may use an element
        rng = np.random.default_rng(13)
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        bases = [
            frozenset(c)
            for c in itertools.combinations(range(3), 2)
        ]
        for _ in range(6):
            ub = rng.integers(1, 4, size=3)
            feasible = []
            for b1 in bases:
                for b2 in bases:
                    for b3 in bases:
                        vec = np.zeros(3, dtype=np.int64)
                        for b in (b1, b2, b3):
                            for v in b:
                                vec[v] += 1
                        if np.all(vec <= ub):
                            feasible.append(sorted_dec(vec))
            if not feasible:
                continue
            _, got = decmin_basis_sum([tri] * 3, upper=ub)
            assert sorted_dec(got) == min(feasible)

    def test_levin_onn_cross_check(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            G = util.random_multigraph(rng, max_nodes=4, max_edges=4)
            M = graphic_matroid(G.n, G.edges)
            k = int(rng.integers(2, 4))
            _, got = decmin_basis_sum([M] * k)
            rapid = util.levin_onn_decmin_sum(M, k)
            assert value_equivalent(got, rapid)


class TestPartitionIntersection:
    def test_examples(self):
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        basis, y = decmin_partition_intersection(tri, [[0], [1], [2]])
        assert sorted_dec(y) == (1, 1, 0)
        path3 = graphic_matroid(4, [(0, 1), (1, 2), (2, 3)])
        _, y2 = decmin_partition_intersection(path3, [[0, 1], [2]])
        assert y2.tolist() == [2, 1]
        _, y3 = decmin_partition_intersection(uniform_matroid(4, 2), [[0, 1], [2, 3]])
        assert y3.tolist() == [1, 1]

    def test_matches_brute(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            G = util.random_multigraph(rng, max_nodes=4, max_edges=6)
            M = graphic_matroid(G.n, G.edges)
            r = M.rank()
            cuts = sorted(rng.choice(M.n - 1, size=min(2, M.n - 1), replace=False) + 1) if M.n > 1 else []
            blocks = []
            prev = 0
            for c in list(cuts) + [M.n]:
                if c > prev:
                    blocks.append(list(range(prev, c)))
                    prev = c
            best = None
            for combo in itertools.combinations(range(M.n), r):
                if not M.independent(combo):
                    continue
                vec = tuple(len(set(combo) & set(b)) for b in blocks)
                sig = sorted_dec(vec)
                best = sig if best is None or sig < best else best
            basis, y = decmin_partition_intersection(M, blocks)
            assert sorted_dec(y) == best
            assert M.independent(basis) and len(basis) == r


class TestFromDecomposition:
    def test_exchange_axiom_sampled(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            from decmin.core import enumerate_integral_points

            pts = enumerate_integral_points(handle).points
            sel, _ = util.decmin_rows(pts)
            D = canonical_from_decmin(handle, pts[sel][0])
            for i in range(D.q):
                Mi, block = from_decomposition_matroid(D, handle, i)
                bases = [
                    frozenset(c)
                    for c in itertools.combinations(range(Mi.n), D.counts[i])
                    if Mi.independent(c) and Mi.rank(c) == len(c)
                ]
                maximal = [b for b in bases if len(b) == Mi.rank()]
                assert util.basis_exchange_holds(maximal)
                # bases match the beta-level sets of the brute dec-min set
                seen = {
                    frozenset(block.index(v) for v in D.partition[i] if m[v] == D.betas[i])
                    for m in pts[sel]
                }
                assert set(maximal) == seen


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
        for _ in range(10):
            G = util.random_multigraph(rng, max_nodes=5, max_edges=7)
            scan = util.orientation_scan(G)
            in_sel, _ = util.decmin_rows(scan)
            deg = G.degrees()
            out_sel, _ = util.decmin_rows(deg[None, :] - scan)
            exists = bool((in_sel & out_sel).any())
            got = inout_decmin_orientation(G)
            assert (got is not None) == exists
            if got is not None:
                _, best_in = util.decmin_rows(scan)
                _, best_out = util.decmin_rows(deg[None, :] - scan)
                assert sorted_dec(got.indeg) == best_in
                assert sorted_dec(got.outdeg) == best_out


class TestTransforms:
    def test_dual_restrict_contract(self):
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        dual = dual_matroid(tri)
        assert dual.rank() == 1  # co-rank of a triangle
        sub, keep = restrict_matroid(tri, [0, 1])
        assert sub.rank() == 2 and keep == [0, 1]
        con, keep2 = contract_matroid(tri, {0})
        assert con.rank() == 1
        with pytest.raises(ValueError):
            contract_matroid(bases_matroid(2, [{0}]), {1})

    def test_parallel_and_direct_sum(self):
        u = uniform_matroid(2, 1)
        par = util.parallel_copies_matroid(u, 2)
        assert par.independent({0}) and not par.independent({0, 1})
        ds = direct_sum_matroid([u, u], [[0, 1], [2, 3]])
        assert ds.rank() == 2 and ds.independent({0, 2})


def test_matroid_json():
    m = load_matroid_json('{"type": "uniform", "n": 3, "r": 2}')
    assert m.rank() == 2
    g = load_matroid_json(
        '{"type": "graphic", "n_nodes": 3, "edges": [[0,1],[1,2],[2,0]]}'
    )
    assert g.rank() == 2
    p = load_matroid_json(
        '{"type": "partition", "n": 3, "blocks": [[0,1],[2]], "caps": [1,1]}'
    )
    assert p.rank() == 2
    b = load_matroid_json('{"type": "bases", "n": 2, "bases": [[0]]}')
    assert b.rank() == 1
    with pytest.raises(ValueError):
        load_matroid_json('{"type": "nope"}')


def test_common_basis_problem():
    from decmin.matroid import CommonBasisProblem, common_basis

    m1, m2 = sec34_matroids()
    got = common_basis(CommonBasisProblem(m1, m2))
    assert got in ({0, 1}, {2, 3})
    part = partition_matroid(4, [[0, 1], [2, 3]], [0, 2])
    assert common_basis(CommonBasisProblem(m1, part)) == {2, 3}
    with pytest.raises(ValueError):
        CommonBasisProblem(m1, uniform_matroid(3, 1))
