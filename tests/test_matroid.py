import itertools

import numpy as np
import pytest

from decmin import matroid
from decmin.applications import SemiMatchingOracle, SemiMatchingProblem
from decmin.canonical import canonical_from_decmin, decmin_set_membership
from decmin.core import (
    BaseHandle,
    EmptyBaseError,
    SetFunctionOracle,
    TableOracle,
    enumerate_integral_points,
    exchange_feasible,
    is_member,
    mask_of,
    smallest_tight_set,
    sorted_dec,
    value_equivalent,
)
from decmin.engine import basic_decmin
from decmin.matroid import (
    MatroidOracle,
    SumOfMatroidsOracle,
    bases_matroid,
    decmin_basis_sum,
    decmin_partition_intersection,
    dual_matroid,
    from_decomposition_matroid,
    graphic_matroid,
    load_matroid_json,
    matroid_intersection,
    min_cost_basis,
    partition_matroid,
    uniform_matroid,
)
from decmin.orientation import (
    Graph,
    OrientationOracle,
    decmin_orientation,
    orientation_canonical,
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


def _bases(M):
    return [frozenset(c) for c in itertools.combinations(range(M.n), M.rank())
            if M.independent(c)]


def _brute_sums(mats):
    """Every sum of bases, one per matroid."""
    sums = {(0,) * mats[0].n}
    for M in mats:
        fam = _bases(M)
        sums = {tuple(x + (v in b) for v, x in enumerate(s)) for s in sums for b in fam}
    return [np.array(s) for s in sums]


def _check_bases(mats, bases, m):
    count = np.zeros(mats[0].n, dtype=np.int64)
    for M, b in zip(mats, bases):
        assert M.independent(b) and len(b) == M.rank()
        count[list(b)] += 1
    assert count.tolist() == list(m)


@pytest.mark.parametrize("kind", ["graphic", "uniform", "partition", "explicit-bases", "dual"])
def test_matroid_sum_tight_sets_match_table_scan(kind):
    # the exchange-graph tight sets and memberships against the 2^n scan of
    # the rank-sum table, at dec-min members and at members one exchange
    # away (the cached bases move there along one path and back)
    rng = np.random.default_rng(31)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        k = trial % 3 + 1
        mats = [util.random_matroid(rng, n, kind) for _ in range(k)]
        oracle = SumOfMatroidsOracle(mats)
        box = {}
        if trial % 2:
            box = {"lower": rng.integers(0, 2, n), "upper": rng.integers(1, k + 1, n)}
        ref = BaseHandle(TableOracle([oracle.value(x) for x in range(1 << n)]), **box)
        try:
            _, m = decmin_basis_sum(mats, **box)
        except EmptyBaseError:
            assert not any(ref.in_box(x) for x in _brute_sums(mats))
            continue
        B = BaseHandle(SumOfMatroidsOracle(mats), **box)
        steps = [(s, t) for s in range(n) for t in range(n)
                 if s != t and exchange_feasible(ref, m, s, t)]
        for s, t in [(None, None)] + steps:
            x = m.copy()
            if s is not None:
                x[s] += 1
                x[t] -= 1
            for y in (x, m):
                assert is_member(B, y)
                for v in range(n):
                    assert smallest_tight_set(B, y, v) == smallest_tight_set(ref, y, v)
                for a, b in itertools.permutations(range(n), 2):
                    assert exchange_feasible(B, y, a, b) == exchange_feasible(ref, y, a, b)


def _connected_multigraph(rng, nodes, edges):
    out = [(int(rng.integers(0, v)), v) for v in range(1, nodes)]
    while len(out) < edges:
        u, v = rng.choice(nodes, size=2, replace=False)
        out.append((int(u), int(v)))
    return out


def test_unbounded_basis_sum_evaluates_no_set_function(monkeypatch):
    # no rank-sum table, no value and no intersection: every tight set is
    # a search in the exchange graph, every step one exchange path
    def forbidden(*args, **kwargs):
        raise AssertionError("the exchange-graph solver evaluated p")

    monkeypatch.setattr(SetFunctionOracle, "table", forbidden)
    monkeypatch.setattr(SumOfMatroidsOracle, "value", forbidden)
    monkeypatch.setattr(matroid, "matroid_intersection", forbidden)
    rng = np.random.default_rng(37)
    for nodes in (5, 12, 30):
        mats = [graphic_matroid(nodes, _connected_multigraph(rng, nodes, 2 * nodes))
                for _ in range(2)]
        bases, m = decmin_basis_sum(mats)
        _check_bases(mats, bases, m)


def test_levin_onn_cross_check_past_the_table_ceiling():
    # 12-14 nodes: more than 20 edges, where the rank-sum table stopped
    rng = np.random.default_rng(41)
    for _ in range(6):
        G = util.random_multigraph(rng, max_nodes=14, max_edges=28, min_nodes=12)
        M = graphic_matroid(G.n, G.edges)
        k = int(rng.integers(2, 4))
        bases, got = decmin_basis_sum([M] * k)
        _check_bases([M] * k, bases, got)
        assert value_equivalent(got, util.levin_onn_decmin_sum(M, k, (G.n, G.edges)))


def test_forest_cover_union_matches_rank_formula():
    # the graphic reference's Nash-Williams count against the union rank
    # formula, on multigraphs with loops and parallel edges, on every edge
    # set and through the parallel copies of the Levin-Onn reference
    rng = np.random.default_rng(43)
    for trial in range(12):
        nodes = int(rng.integers(1, 5))
        edges = [tuple(int(v) for v in rng.integers(0, nodes, 2))
                 for _ in range(int(rng.integers(1, 7)))]
        M = graphic_matroid(nodes, edges)
        k = trial % 3 + 1
        by_rank = util.union_k_matroid(M, k)
        by_count = util.union_k_matroid(M, k, (nodes, edges))
        for mask in range(1 << M.n):
            X = [v for v in range(M.n) if mask >> v & 1]
            assert by_count.independent(X) == by_rank.independent(X)
        assert util.levin_onn_decmin_sum(M, k, (nodes, edges)).tolist() == \
            util.levin_onn_decmin_sum(M, k).tolist()


def _assert_box_misses(mats, witness, lower, upper):
    """The witness W is a set no sum of bases fits: p(W) > g(W) with W
    tight, or the rank sum of W below f(W)."""
    p = SumOfMatroidsOracle(mats)
    w = sorted(witness)
    full = p.value(p.full_mask)
    need = p.value(mask_of(w))
    most = full - p.value(p.full_mask & ~mask_of(w))
    assert need > upper[w].sum() or most < lower[w].sum()


def test_bounded_start_matches_brute():
    rng = np.random.default_rng(43)
    seen = {"solved": 0, "empty": 0}
    for trial in range(60):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, 4)) if n <= 7 else 2
        kinds = ["graphic", "uniform", "partition"]
        mats = [util.random_matroid(rng, n, kinds[int(rng.integers(0, 3))]) for _ in range(k)]
        lower = rng.integers(0, 2, n)
        upper = rng.integers(1, k + 1, n)
        fits = [x for x in _brute_sums(mats)
                if np.all(x >= lower) and np.all(x <= upper)]
        if not fits:
            with pytest.raises(EmptyBaseError) as err:
                decmin_basis_sum(mats, lower, upper)
            _assert_box_misses(mats, err.value.witness, lower, upper)
            seen["empty"] += 1
            continue
        bases, m = decmin_basis_sum(mats, lower, upper)
        _check_bases(mats, bases, m)
        assert np.all(m >= lower) and np.all(m <= upper)
        assert sorted_dec(m) == min(sorted_dec(x) for x in fits)
        seen["solved"] += 1
    assert min(seen.values()) >= 10


def test_bounded_start_past_the_table_ceiling():
    # two graphic matroids, 12 nodes, 24 edges, each edge in at most one
    # tree: two edge-disjoint spanning trees plus two edges fit the box
    rng = np.random.default_rng(47)
    trees = _connected_multigraph(rng, 12, 11) + _connected_multigraph(rng, 12, 11)
    edges = trees + _connected_multigraph(rng, 12, 13)[-2:]
    mats = [graphic_matroid(12, edges)] * 2
    upper = np.ones(24, dtype=np.int64)
    bases, m = decmin_basis_sum(mats, upper=upper)
    _check_bases(mats, bases, m)
    assert sorted_dec(m) == (1,) * 22 + (0,) * 2
    # a bridge lies in both trees: the box misses the set, and the
    # witness is the bridge alone
    bridged = edges + [(0, 12)]
    mats = [graphic_matroid(13, bridged)] * 2
    with pytest.raises(EmptyBaseError) as err:
        decmin_basis_sum(mats, upper=np.ones(25, dtype=np.int64))
    assert err.value.witness == {24}
    _assert_box_misses(mats, err.value.witness, np.zeros(25), np.ones(25))


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


def _small_oracles(kind, rng):
    """Twenty oracles of one reader kind on at most 6 elements (nodes of
    an in-degree-bounded orientation, left nodes of a semi-matching with
    exact right degrees or a fixed edge count, or elements of a sum of one
    to three matroids)."""
    made = 0
    while made < 20:
        if kind == "explicit-table":
            oracle = util.random_supermodular_table(rng, int(rng.integers(2, 6)))
        elif kind == "orientation":
            G = util.random_multigraph(rng, max_nodes=6, max_edges=11)
            deg = G.degrees()
            lo, hi = rng.integers(0, 2, size=G.n), deg - rng.integers(0, 2, size=G.n)
            oracle = OrientationOracle(G.n, G.edges, None, lo, hi)
        elif kind == "semimatching":
            nl, nr, edges = util.random_bipartite(rng, 6, 4, 12)
            kw = [dict(t_degrees=rng.integers(0, 3, size=nr)),
                  dict(lower_right=np.zeros(nr, np.int64),
                       upper_right=rng.integers(1, 4, size=nr),
                       gamma=int(rng.integers(1, 7)))][made % 2]
            oracle = SemiMatchingOracle(SemiMatchingProblem(nl, nr, edges, **kw))
        else:
            n = int(rng.integers(2, 7))
            kinds = ["graphic", "uniform", "partition", "explicit-bases", "dual"]
            oracle = SumOfMatroidsOracle(
                [util.random_matroid(rng, n, kinds[int(rng.integers(0, 5))])
                 for _ in range(int(rng.integers(1, 4)))]
            )
        if not isinstance(oracle, OrientationOracle) or oracle.flow().feasible:
            made += 1
            yield oracle


class TestFromDecomposition:
    def test_exchange_axiom_sampled(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
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

    @pytest.mark.parametrize(
        "kind", ["explicit-table", "orientation", "semimatching", "matroid-sum"]
    )
    def test_independence_matches_brute_levels(self, kind):
        # read through each kind's own walk, a subset of a block is
        # independent in M_i iff it lies inside the beta_i-valued part of
        # some dec-min element, all of them found by enumerating a table
        # of the same values
        rng = np.random.default_rng(31)
        subsets = dependent = 0
        for oracle in _small_oracles(kind, rng):
            handle = BaseHandle(oracle)
            table = TableOracle([oracle.value(x) for x in range(1 << oracle.n)])
            pts = enumerate_integral_points(BaseHandle(table)).points
            sel, _ = util.decmin_rows(pts)
            D = canonical_from_decmin(handle, basic_decmin(handle))
            for i in range(D.q):
                Mi, block = from_decomposition_matroid(D, handle, i)
                levels = {
                    frozenset(j for j, v in enumerate(block) if m[v] == D.betas[i])
                    for m in pts[sel]
                }
                for r in range(len(block) + 1):
                    for X in itertools.combinations(range(len(block)), r):
                        want = any(L.issuperset(X) for L in levels)
                        assert Mi.independent(X) == want
                        subsets += 1
                        dependent += not want
        assert subsets >= 150 and dependent >= 20

    def test_block_past_64_nodes(self):
        # a 70-node block: a Hamiltonian cycle, a perfect matching and ten
        # chords orient with in-degrees 1 and 2 in one block; its matroid
        # builds without a table over the subsets of the block, its rank
        # is r_1 and a greedy basis is the top-valued part of a dec-min
        # element
        rng = np.random.default_rng(5)
        n = 70
        order = rng.permutation(n).tolist()
        edges = [(order[j - 1], order[j]) for j in range(n)]
        pairs = rng.permutation(n).tolist()
        edges += [(pairs[j], pairs[j + 1]) for j in range(0, n, 2)]
        edges += [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                  for _ in range(10)]
        G = Graph(n, edges)
        D = orientation_canonical(G, decmin_orientation(G))
        handle = BaseHandle(OrientationOracle(n, G.edges, None, np.zeros(n, np.int64), G.degrees()))
        assert D.q == 1 and D.betas == [2] and D.counts == [len(edges) - n]
        Mi, block = from_decomposition_matroid(D, handle, 0)
        assert len(block) == n
        assert Mi.rank() == D.counts[0]
        cost = rng.permutation(n)
        basis = min_cost_basis(Mi, cost)
        m = D.delta_star.copy()
        m[[block[j] for j in basis]] += 1
        assert decmin_set_membership(D, handle, m)


class TestTransforms:
    def test_dual_restrict_contract(self):
        tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
        dual = dual_matroid(tri)
        assert dual.rank() == 1  # co-rank of a triangle
        assert dual.independent({0}) and not dual.independent({0, 1})
        # restriction to {0, 1} and contraction of {0}, by their rank formulas
        assert tri.rank({0, 1}) == 2
        assert tri.rank() - tri.rank({0}) == 1
        # element 1 is a loop of this bases matroid: contracting it adds nothing
        loopy = bases_matroid(2, [{0}])
        assert loopy.rank({1}) == 0 and loopy.rank() - loopy.rank({1}) == 1

    def test_parallel_and_direct_sum(self):
        u = uniform_matroid(2, 1)
        par = util.parallel_copies_matroid(u, 2)
        assert par.independent({0}) and not par.independent({0, 1})
        # a partition matroid is the direct sum of uniform matroids
        ds = partition_matroid(4, [[0, 1], [2, 3]], [1, 1])
        assert ds.rank() == 2 and ds.independent({0, 2})
        assert not ds.independent({0, 1})


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
