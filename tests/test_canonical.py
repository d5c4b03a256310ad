import itertools

import numpy as np
import pytest

from decmin import brute
from decmin.canonical import (
    CanonicalDecomposition,
    NotDecMinError,
    _value_fixed,
    canonical_from_decmin,
    cheapest_decmin,
    decmin_set_membership,
    duality_gap,
    linear_extension,
    matroid_Mi_base_test,
    value_fixed_set,
    verify_dual_optimal,
)
from decmin.core import (
    NEG_INF,
    BaseHandle,
    TableOracle,
    iter_masks,
    mask_of,
    member_tight_sets,
    value_equivalent,
)
from decmin.engine import strongly_poly_decmin
from decmin.orientation import (
    Graph,
    GraphInducedOracle,
    OrientationOracle,
    cheapest_decmin_orientation_bounded,
    decmin_orientation,
    decmin_orientation_bounded,
    orientation_canonical,
    orientation_cost,
)

import util


def fixed_instance():
    """n = 2 table with p({0}) = 1 = p(S): the only dec-min element is
    (1, 0), so element 0 is value-fixed."""
    return BaseHandle(TableOracle([0, 1, 0, 1]))


class TestCanonicalFromDecmin:
    def test_i1(self):
        i1 = util.i1_handle()
        D = canonical_from_decmin(i1, [1, 0])
        assert D.q == 1
        assert D.chain == [frozenset({0, 1})]
        assert D.betas == [1] and D.counts == [1]
        assert D.delta_star.tolist() == [0, 0]
        assert D.pi_star.tolist() == [1, 1]
        assert D.value_fixed == [frozenset()]

    def test_path_ig(self):
        handle = BaseHandle(GraphInducedOracle(3, [(0, 1), (1, 2)]))
        D = canonical_from_decmin(handle, [0, 1, 1])
        assert D.q == 1 and D.betas == [1] and D.counts == [2]

    def test_r62_matches_definition_scan(self):
        handle = util.r62_handle()
        D = canonical_from_decmin(handle, [2, 3, 3, 1])
        want = util.brute_canonical(handle.oracle.table(), 4)
        assert D.betas == want["betas"]
        assert D.partition == want["partition"]
        assert D.chain == want["chain"]
        assert D.counts == want["counts"]
        assert D.value_fixed == want["value_fixed"]
        assert (D.pi_star == want["pi_star"]).all()

    def test_rejects_non_decmin(self):
        with pytest.raises(NotDecMinError):
            canonical_from_decmin(util.r62_handle(), [3, 3, 3, 0])
        with pytest.raises(NotDecMinError):
            canonical_from_decmin(util.i1_handle(), [2, -1])

    def test_invariance_and_counts_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            decs = [canonical_from_decmin(handle, m) for m in pts[sel]]
            assert all(d == decs[0] for d in decs[1:])
            want = util.brute_canonical(oracle.table(), 4)
            D = decs[0]
            assert D.betas == want["betas"]
            assert D.partition == want["partition"]
            assert D.counts == want["counts"]
            assert D.value_fixed == want["value_fixed"]
            # r_i identity (5.4)
            tab = oracle.table()
            prev = 0
            for ci, si, beta, r in zip(D.chain, D.partition, D.betas, D.counts):
                cm = mask_of(ci)
                assert r == tab[cm] - prev - (beta - 1) * len(si)
                prev = tab[cm]


class TestDecminSetMembership:
    def test_examples(self):
        i1 = util.i1_handle()
        D = canonical_from_decmin(i1, [1, 0])
        assert decmin_set_membership(D, i1, [1, 0])
        assert decmin_set_membership(D, i1, [0, 1])
        assert not decmin_set_membership(D, i1, [2, -1])
        r62 = util.r62_handle()
        D62 = canonical_from_decmin(r62, [2, 3, 3, 1])
        assert not decmin_set_membership(D62, r62, [3, 3, 3, 0])

    def test_equals_brute_decmin_set(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            D = canonical_from_decmin(handle, pts[sel][0])
            for m, good in zip(pts, sel):
                assert decmin_set_membership(D, handle, m) == bool(good)


def literal_base_test(D, tab, i, L):
    """The subset-scan condition (lower bounds on |L n X|) verbatim."""
    block = sorted(D.partition[i])
    beta = D.betas[i]
    prev = mask_of(D.chain[i - 1]) if i > 0 else 0
    base = tab[prev]
    for r in range(len(block) + 1):
        for combo in itertools.combinations(block, r):
            pv = tab[prev | mask_of(combo)] - base
            if pv == NEG_INF:
                continue
            if len(set(combo) & L) < pv - (beta - 1) * len(combo):
                return False
    return True


class TestBlockMatroids:
    def test_i1_bases(self):
        i1 = util.i1_handle()
        D = canonical_from_decmin(i1, [1, 0])
        assert matroid_Mi_base_test(D, i1, 0, {0})
        assert matroid_Mi_base_test(D, i1, 0, {1})
        with pytest.raises(ValueError):
            matroid_Mi_base_test(D, i1, 0, {0, 1})

    def test_matches_literal_scan_and_brute_family(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            D = canonical_from_decmin(handle, pts[sel][0])
            tab = oracle.table()
            for i in range(D.q):
                block = sorted(D.partition[i])
                for combo in itertools.combinations(block, D.counts[i]):
                    L = frozenset(combo)
                    assert matroid_Mi_base_test(D, handle, i, L) == literal_base_test(
                        D, tab, i, L
                    )
            # the family of beta-level sets over brute dec-min elements
            # equals the family of accepted bases (Theorem on B_i)
            for i in range(D.q):
                block = D.partition[i]
                seen = {
                    frozenset(v for v in block if m[v] == D.betas[i])
                    for m in pts[sel]
                }
                accepted = {
                    frozenset(c)
                    for c in itertools.combinations(sorted(block), D.counts[i])
                    if matroid_Mi_base_test(D, handle, i, frozenset(c))
                }
                assert seen == accepted

    def test_translated_family_is_matroidal(self):
        # Delta*-shifted dec-min set satisfies basis exchange
        rng = np.random.default_rng(37)
        for _ in range(15):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            D = canonical_from_decmin(handle, pts[sel][0])
            family = []
            for m in pts[sel]:
                diff = m - D.delta_star
                assert set(diff.tolist()) <= {0, 1}
                family.append(frozenset(np.flatnonzero(diff == 1).tolist()))
            assert util.basis_exchange_holds(family)


class TestValueFixed:
    def test_examples(self):
        i1 = util.i1_handle()
        D = canonical_from_decmin(i1, [1, 0])
        assert value_fixed_set(D, i1, 0) == frozenset()
        fx = fixed_instance()
        Dfx = canonical_from_decmin(fx, [1, 0])
        assert Dfx.betas[0] == 1
        assert value_fixed_set(Dfx, fx, 0) == {0}

    def test_matches_constant_coordinates(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            selected = pts[sel]
            D = canonical_from_decmin(handle, selected[0])
            for i in range(D.q):
                expected = frozenset(
                    v
                    for v in D.partition[i]
                    if all(m[v] == D.betas[i] for m in selected)
                )
                assert D.value_fixed[i] == expected

    def test_skips_elements_inside_a_fixed_set(self):
        # K5 planted in a random connected graph on 24 nodes: F_i is a
        # proper non-empty part of a 21-node block.  It equals the set read
        # element by element, and no element inside T_m(w) of an element w
        # already found fixed is read
        rng = np.random.default_rng(4)
        n = 24
        edges = list(itertools.combinations(range(5), 2))
        edges += [(v, int(rng.integers(0, v))) for v in range(5, n)]
        for _ in range(int(rng.integers(8, 16))):
            u, v = rng.choice(n, size=2, replace=False)
            edges.append((int(u), int(v)))
        G = Graph(n, edges)
        m = decmin_orientation(G).indeg
        B = BaseHandle(G.induced_oracle())
        walk = member_tight_sets(B, m)
        D = canonical_from_decmin(B, m)
        skipped = 0
        for si, beta, fi in zip(D.partition, D.betas, D.value_fixed):
            reads = []

            def tight(t):
                reads.append(t)
                return walk(t)

            each = frozenset(
                s for s in si if m[s] == beta and all(m[v] == beta for v in walk(s) & si)
            )
            assert _value_fixed(m, tight, si, beta) == fi == each
            for j, s in enumerate(reads):
                assert not any(s in walk(w) and w in fi for w in reads[:j])
            skipped += sum(1 for s in si if m[s] == beta) - len(reads)
        assert 0 < max(map(len, D.value_fixed)) < max(map(len, D.partition))
        assert skipped > 0


class TestLinearExtension:
    def test_examples(self):
        p = util.i1_handle().oracle
        assert linear_extension(p, [1, 1]) == 1
        assert linear_extension(p, [2, 1]) == 1  # p({0}) * 1 + p(S) * 1

    def test_indicator_recovers_values(self):
        rng = np.random.default_rng(47)
        p = brute.random_supermodular_table(rng, 4)
        for mask in iter_masks(4):
            chi = [1 if mask >> v & 1 else 0 for v in range(4)]
            assert linear_extension(p, chi) == p.value(mask)

    def test_neg_inf_prefix(self):
        line = util.line_handle().oracle
        assert linear_extension(line, [2, 1]) == NEG_INF
        assert linear_extension(line, [1, 1]) == 1  # tie skips the prefix


class TestDualityGap:
    def test_i1_examples(self):
        i1 = util.i1_handle()
        rep = duality_gap(i1, [1, 0], [1, 1])
        assert rep.gap == 0 and rep.o1 and rep.o2
        rep2 = duality_gap(i1, [1, 0], [3, 3])
        assert rep2.gap == 2

    def test_r62_certificate(self):
        r62 = util.r62_handle()
        D = canonical_from_decmin(r62, [2, 3, 3, 1])
        rep = duality_gap(r62, [2, 3, 3, 1], D.pi_star)
        assert rep.square_sum == 23 and rep.gap == 0 and rep.o1 and rep.o2

    def test_min_max_equality_random(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            m = strongly_poly_decmin(handle)
            D = canonical_from_decmin(handle, m, check=False)
            assert all(int(p) % 2 == 1 for p in D.pi_star)
            rep = duality_gap(handle, m, D.pi_star)
            assert rep.gap == 0 and rep.o1 and rep.o2
            # closed form of the odd dual bound
            phat = linear_extension(handle.oracle, D.pi_star)
            assert rep.square_sum == phat - sum(
                (int(p) ** 2 - 1) // 4 for p in D.pi_star
            )


class TestVerifyDualOptimal:
    def test_i1(self):
        i1 = util.i1_handle()
        D = canonical_from_decmin(i1, [1, 0])
        assert verify_dual_optimal(D, i1, [1, 1])
        assert not verify_dual_optimal(D, i1, [1, 3])

    def test_value_fixed_box(self):
        fx = fixed_instance()
        D = canonical_from_decmin(fx, [1, 0])
        assert verify_dual_optimal(D, fx, [3, -1])
        assert verify_dual_optimal(D, fx, [1, -1])
        assert not verify_dual_optimal(D, fx, [5, -1])

    def test_pi_star_passes_and_is_smallest(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            m = strongly_poly_decmin(handle)
            D = canonical_from_decmin(handle, m, check=False)
            assert verify_dual_optimal(D, handle, D.pi_star)
            # sampled: every accepted dual dominates pi*, and acceptance
            # coincides with a zero duality gap
            for _ in range(60):
                pi = D.pi_star + rng.integers(-1, 3, size=4)
                ok = verify_dual_optimal(D, handle, pi)
                assert ok == (duality_gap(handle, m, pi).gap == 0)
                if ok:
                    assert (pi >= D.pi_star).all()


class TestBoxAdaptation:
    def test_boxed_matches_explicit_table(self):
        rng = np.random.default_rng(67)
        hits = 0
        while hits < 12:
            oracle = brute.random_supermodular_table(rng, 4)
            lo = rng.integers(-3, 1, size=4)
            hi = lo + rng.integers(1, 4, size=4)
            boxed = BaseHandle(oracle, lower=lo, upper=hi)
            pts = brute.points(boxed)
            if len(pts) == 0:
                continue
            hits += 1
            sel, _ = brute.decmin_rows(pts)
            m = pts[sel][0]
            D_boxed = canonical_from_decmin(boxed, m)
            flat = BaseHandle(util.table_from_points(pts))
            D_flat = canonical_from_decmin(flat, m)
            assert D_boxed == D_flat


class TestCheapest:
    def test_examples(self):
        i1 = util.i1_handle()
        assert cheapest_decmin(i1, [0, 1]).tolist() == [1, 0]
        assert cheapest_decmin(i1, [1, 0]).tolist() == [0, 1]
        assert cheapest_decmin(util.r62_handle(), [5, 1, 1, 1]).tolist() == [
            2,
            3,
            3,
            1,
        ]

    def test_matches_brute_random(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            oracle = brute.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            cost = rng.integers(-4, 5, size=4)
            pts = brute.points(handle)
            sel, _ = brute.decmin_rows(pts)
            want = min(int(np.dot(m, cost)) for m in pts[sel])
            got = cheapest_decmin(handle, cost)
            assert decmin_set_membership(
                canonical_from_decmin(handle, got, check=False), handle, got
            )
            assert int(np.dot(got, cost)) == want

    def test_one_cost_per_element(self):
        i1 = util.i1_handle()
        for cost in ([5], [0, 1, 7], [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match="one cost per element"):
                cheapest_decmin(i1, cost)

    def test_orientation_handles_match_the_flow_route(self):
        # per-node prices c on an in-degree-bounded orientation handle with
        # its decomposition given, against the min-cost flow over the
        # dec-min set pricing each edge (c[u], c[v]) by the node it heads at
        rng = np.random.default_rng(61)
        done = 0
        while done < 100:
            G = util.random_multigraph(rng, max_nodes=60, max_edges=150, min_nodes=3)
            deg = G.degrees()
            lo, hi = rng.integers(0, 2, size=G.n), deg - rng.integers(0, 2, size=G.n)
            oracle = OrientationOracle(G.n, G.edges, None, lo, hi)
            if not oracle.flow().feasible:
                continue
            done += 1
            D = orientation_canonical(G, decmin_orientation_bounded(G, lo, hi), lo, hi)
            handle = BaseHandle(oracle)
            c = rng.integers(-5, 6, size=G.n)
            got = cheapest_decmin(handle, c, D)
            pairs = [(int(c[u]), int(c[v])) for u, v in G.edges]
            want = cheapest_decmin_orientation_bounded(G, lo, hi, pairs)
            assert int(c @ got) == orientation_cost(want, pairs)
            assert value_equivalent(got, want.indeg)
            assert decmin_set_membership(D, handle, got)

    def test_orientation_handles_without_a_decomposition(self):
        # the same handles with no decomposition given, most of them past
        # the subset ceiling: the greedy walks on the basic algorithm's
        # own walk and reaches the min-cost flow's cost
        rng = np.random.default_rng(67)
        done = large = 0
        while done < 50:
            G = util.random_multigraph(rng, max_nodes=60, max_edges=150, min_nodes=3)
            deg = G.degrees()
            lo, hi = rng.integers(0, 2, size=G.n), deg - rng.integers(0, 2, size=G.n)
            oracle = OrientationOracle(G.n, G.edges, None, lo, hi)
            if not oracle.flow().feasible:
                continue
            done += 1
            large += G.n > 20
            handle = BaseHandle(oracle)
            c = rng.integers(-5, 6, size=G.n)
            got = cheapest_decmin(handle, c)
            pairs = [(int(c[u]), int(c[v])) for u, v in G.edges]
            want = cheapest_decmin_orientation_bounded(G, lo, hi, pairs)
            assert int(c @ got) == orientation_cost(want, pairs)
            D = orientation_canonical(G, decmin_orientation_bounded(G, lo, hi), lo, hi)
            assert decmin_set_membership(D, handle, got)
        assert large >= 25


def test_serialization_roundtrip():
    handle = util.r62_handle()
    D = canonical_from_decmin(handle, [2, 3, 3, 1])
    again = CanonicalDecomposition.from_json(D.to_json())
    assert again == D


def test_loaded_decomposition_carries_no_element():
    # what D alone describes still works on the JSON form; what needs the
    # dec-min element it was read off says so
    from decmin.matroid import from_decomposition_matroid

    handle = util.r62_handle()
    D = canonical_from_decmin(handle, [2, 3, 3, 1])
    loaded = CanonicalDecomposition.from_json(D.to_json())
    assert decmin_set_membership(loaded, handle, [2, 3, 3, 1])
    assert not decmin_set_membership(loaded, handle, [3, 3, 3, 0])
    for call in (
        lambda: value_fixed_set(loaded, handle, 0),
        lambda: matroid_Mi_base_test(loaded, handle, 0, {1, 2}),
        lambda: cheapest_decmin(handle, [5, 1, 1, 1], loaded),
        lambda: from_decomposition_matroid(loaded, handle, 1),
        lambda: verify_dual_optimal(loaded, handle, D.pi_star),
    ):
        with pytest.raises(ValueError, match="no dec-min element"):
            call()


def test_dual_vector_wrapper_accepted():
    from decmin.canonical import DualVector

    handle = util.r62_handle()
    D = canonical_from_decmin(handle, [2, 3, 3, 1])
    wrapped = DualVector(D.pi_star)
    assert duality_gap(handle, [2, 3, 3, 1], wrapped).gap == 0
    assert verify_dual_optimal(D, handle, wrapped)
    assert linear_extension(handle.oracle, wrapped) == linear_extension(
        handle.oracle, D.pi_star
    )
