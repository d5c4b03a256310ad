"""Acceptance suite: every criterion re-checks the solvers against
independent exhaustive oracles (point enumerations, 2^m orientation scans,
subset scans) and the frozen worked-example values, printing one pass/fail
line per criterion (run with `pytest -s` to see them)."""

import itertools
import time

import numpy as np
import pytest

from decmin import brute
from decmin.applications import SemiMatchingProblem, decmin_semimatching
from decmin.canonical import (
    canonical_from_decmin,
    cheapest_decmin,
    duality_gap,
    linear_extension,
    verify_dual_optimal,
)
from decmin.core import (
    BaseHandle,
    Ordering,
    dec_compare,
    inc_compare,
    k_largest_sum,
    sorted_dec,
    value_equivalent,
)
from decmin.engine import (
    basic_decmin,
    measures,
    newton_dinkelbach,
    strongly_poly_decmin,
    _CardinalityOracle,
)
from decmin.matroid import bases_matroid, matroid_intersection
from decmin.orientation import (
    Graph,
    InfeasibleOrientationError,
    Orientation,
    capacitated_decmin_orientation,
    cheapest_decmin_orientation_bounded,
    decmin_korient,
    decmin_orientation,
    decmin_orientation_bounded,
    decmin_orientation_minT,
    orientation_cost,
)

import util


def report(num, text, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:2d}: {text} PASS{suffix}")


@pytest.fixture(scope="module")
def corpus():
    """>= 300 instances: explicit supermodular tables (n <= 5, values in
    [-4, 4]) and induced-edge-count oracles of random multigraphs with at
    most 12 edges, each paired with its exhaustive point enumeration."""
    rng = np.random.default_rng(20260810)
    records = []
    for _ in range(160):
        n = int(rng.integers(2, 6))
        oracle = brute.random_supermodular_table(rng, n)
        handle = BaseHandle(oracle)
        pts = brute.points(handle)
        records.append({"kind": "table", "handle": handle, "points": pts, "n": n})
    for _ in range(160):
        G = util.random_multigraph(rng, max_nodes=7, max_edges=12)
        handle = BaseHandle(G.induced_oracle())
        pts = np.unique(brute.orientations(G)[1], axis=0)
        records.append(
            {"kind": "graph", "handle": handle, "points": pts, "n": G.n, "graph": G}
        )
    for rec in records:
        sel, best = brute.decmin_rows(rec["points"])
        rec["dec_sel"] = sel
        rec["dec_best"] = best
    return records


@pytest.fixture(scope="module")
def orientation_corpus():
    """Connected multigraphs with at most 10 edges, exhaustively scannable."""
    rng = np.random.default_rng(77)
    graphs = [
        util.path_graph(),
        util.c4_graph(),
        util.triangle_graph(),
        Graph(4, list(itertools.combinations(range(4), 2))),  # K4
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2),  # doubled C4
        Graph(3, [(0, 1), (1, 2), (2, 0)] * 2),  # doubled triangle
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]),
    ]
    while len(graphs) < 14:
        graphs.append(util.random_multigraph(rng, max_nodes=6, max_edges=10))
    return graphs


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.time()
    assert len(corpus) >= 300
    for rec in corpus:
        got_strong = strongly_poly_decmin(rec["handle"])
        got_basic = basic_decmin(rec["handle"])
        assert sorted_dec(got_strong) == rec["dec_best"]
        assert sorted_dec(got_basic) == rec["dec_best"]
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"strong+basic equal brute dec-min on {len(corpus)} instances",
           elapsed)


def test_criterion_2_decmin_equals_incmax(corpus):
    for rec in corpus:
        inc_sel, _ = util.incmax_rows(rec["points"])
        assert (inc_sel == rec["dec_sel"]).all()
    report(2, "brute dec-min set equals brute inc-max set everywhere")


def test_criterion_3_measure_equivalences(corpus):
    for rec in corpus:
        pts = rec["points"]
        w = (pts * pts).sum(axis=1)
        w_sel = w == w.min()
        diffs = np.abs(pts[:, :, None] - pts[:, None, :]).sum(axis=(1, 2))
        d_sel = diffs == diffs.min()
        assert (w_sel == rec["dec_sel"]).all()
        assert (d_sel == rec["dec_sel"]).all()
    m1, m2, m3, m4 = (2, 3, 3, 1), (3, 3, 3, 0), (2, 2, 4, 1), (3, 2, 4, 0)
    assert [measures(m).square_sum for m in (m1, m2, m3, m4)] == [23, 27, 25, 29]
    assert dec_compare(m1, m2) is Ordering.SMALLER
    assert dec_compare(m2, m3) is Ordering.SMALLER
    assert dec_compare(m3, m4) is Ordering.SMALLER
    report(3, "dec-min = W-min = diff-min; square-sum regression (23,27,25,29)")


def test_criterion_4_minmax_certificate(corpus):
    for rec in corpus:
        handle = rec["handle"]
        m = rec["points"][rec["dec_sel"]][0]
        D = canonical_from_decmin(handle, m, check=False)
        assert all(int(p) % 2 == 1 for p in D.pi_star)
        rep = duality_gap(handle, m, D.pi_star)
        assert rep.gap == 0 and rep.o1 and rep.o2
        phat = linear_extension(handle.oracle, D.pi_star)
        assert rep.square_sum == phat - sum(
            (int(p) ** 2 - 1) // 4 for p in D.pi_star
        )
        assert verify_dual_optimal(D, handle, D.pi_star)
    report(4, "W(dec-min) = p-hat(pi*) - sum((pi*^2 - 1)/4), pi* odd, (O1)(O2)")


def test_criterion_5_matroidal_structure(corpus):
    checked = 0
    for rec in corpus:
        decs = rec["points"][rec["dec_sel"]]
        if decs.shape[0] > 50:
            continue
        checked += 1
        D = canonical_from_decmin(rec["handle"], decs[0], check=False)
        family = []
        for m in decs:
            diff = m - D.delta_star
            assert set(np.unique(diff).tolist()) <= {0, 1}
            family.append(frozenset(np.flatnonzero(diff == 1).tolist()))
        assert util.basis_exchange_holds(family)
    assert checked >= 250
    report(5, f"dec-min sets minus Delta* are matroid basis families "
              f"({checked} instances)")


def test_criterion_6_canonical_invariance(corpus):
    for rec in corpus:
        decs = rec["points"][rec["dec_sel"]]
        base = canonical_from_decmin(rec["handle"], decs[0], check=False)
        for m in decs[1:]:
            assert canonical_from_decmin(rec["handle"], m, check=False) == base
    report(6, "Algorithm output identical across every brute dec-min element")


def test_criterion_7_newton_dinkelbach(corpus):
    for rec in corpus:
        oracle = rec["handle"].oracle
        n = rec["n"]
        trace = newton_dinkelbach(oracle, _CardinalityOracle(n))
        assert trace.result == util.brute_nd(oracle.table(), n)
        assert all(a < b for a, b in zip(trace.mus, trace.mus[1:]))
        sizes = [bin(x).count("1") for x in trace.witnesses]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert trace.iterations <= n
    report(7, "ND result exact, mu ascending, witness sizes descending, <= n steps")


def test_criterion_8_section34_regression():
    b1 = BaseHandle(util.table_from_points(util.SEC34_B1_POINTS))
    got1 = {tuple(p) for p in brute.points(b1)}
    assert got1 == {tuple(p) for p in util.SEC34_B1_POINTS}
    b2 = BaseHandle(util.table_from_points(util.SEC34_B2_POINTS))
    got2 = {tuple(p) for p in brute.points(b2)}
    assert got2 == {tuple(p) for p in util.SEC34_B2_POINTS}
    x, y = (2, 0, 0, 0), (1, -1, 1, 1)
    assert inc_compare(x, y) is Ordering.LARGER  # x inc-max of the pair
    assert dec_compare(y, x) is Ordering.SMALLER  # y dec-min of the pair
    # no integral least-majorized element: the k-largest sums cross over
    assert k_largest_sum(y, 1) < k_largest_sum(x, 1)
    assert k_largest_sum(x, 3) < k_largest_sum(y, 3)
    # the two matroids share exactly the two printed common bases
    m1 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 2}, {1, 3}])
    m2 = bases_matroid(4, [{0, 1}, {2, 3}, {0, 3}, {1, 2}])
    assert len(matroid_intersection(m1, m2)) == 2
    common = [
        set(c)
        for c in itertools.combinations(range(4), 2)
        if m1.independent(c) and m2.independent(c)
    ]
    assert common == [{0, 1}, {2, 3}]
    report(8, "section-3.4 enumerations, comparator claims, no least-majorized")


def test_criterion_9_mixed_graph_comparators():
    assert dec_compare((3, 1, 3, 3), (2, 2, 2, 4)) is Ordering.SMALLER
    assert inc_compare((2, 2, 2, 4), (3, 1, 3, 3)) is Ordering.LARGER
    # second counterexample variant: in-degrees of the undirected part
    assert dec_compare((2, 2, 0, 2, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1, 1, 1)) is Ordering.SMALLER
    assert inc_compare((3, 1, 1, 1, 1, 1, 1, 1), (2, 2, 0, 2, 1, 1, 1, 1)) is Ordering.LARGER
    report(9, "mixed-graph counterexample comparator regressions")


def test_criterion_10_orientations(orientation_corpus):
    t0 = time.time()
    rng = np.random.default_rng(99)
    for G in orientation_corpus:
        heads, scan = brute.orientations(G)
        lo0 = np.zeros(G.n, dtype=np.int64)
        hi0 = G.degrees()
        # plain dec-min + the local characterization in both directions
        _, best = brute.decmin_rows(scan)
        got = decmin_orientation(G)
        assert sorted_dec(got.indeg) == best
        assert not util.has_improving_dipath_brute(got, lo0, hi0)
        for h in heads:
            orient = Orientation(G, h)
            is_opt = sorted_dec(orient.indeg) == best
            assert util.has_improving_dipath_brute(orient, lo0, hi0) == (not is_opt)
        # bounded variant with random feasible bounds
        deg = G.degrees()
        lo = np.minimum(rng.integers(0, 2, size=G.n), deg)
        hi = np.minimum(lo + rng.integers(0, 3, size=G.n), deg)
        bheads, bscan = brute.orientations(G, lo, hi)
        if len(bscan):
            _, bbest = brute.decmin_rows(bscan)
            gotb = decmin_orientation_bounded(G, lo, hi)
            assert sorted_dec(gotb.indeg) == bbest
            assert not util.has_improving_dipath_brute(gotb, lo, hi)
            for h in bheads:
                orient = Orientation(G, h)
                is_opt = sorted_dec(orient.indeg) == bbest
                assert util.has_improving_dipath_brute(orient, lo, hi) == (
                    not is_opt
                )
        else:
            with pytest.raises(InfeasibleOrientationError):
                decmin_orientation_bounded(G, lo, hi)
        # minimize the in-degree of a random T first
        t_size = int(rng.integers(1, G.n + 1))
        T = sorted(int(v) for v in rng.choice(G.n, size=t_size, replace=False))
        tsums = scan[:, T].sum(axis=1)
        keep = tsums == tsums.min()
        _, tbest = brute.decmin_rows(scan[keep])
        gott = decmin_orientation_minT(G, None, None, T)
        assert int(gott.indeg[T].sum()) == int(tsums.min())
        assert sorted_dec(gott.indeg) == tbest
        # k-edge-connected variants
        for k in (1, 2):
            if G.m > 8 and k == 2:
                continue
            kheads, kscan = brute.orientations(G, k=k)
            if not len(kscan):
                with pytest.raises(InfeasibleOrientationError):
                    decmin_korient(G, k)
                continue
            _, kbest = brute.decmin_rows(kscan)
            gotk = decmin_korient(G, k)
            assert sorted_dec(gotk.indeg) == kbest
            assert not util.has_improving_dipath_brute(gotk, lo0, hi0, k)
            for h in kheads:
                orient = Orientation(G, h)
                is_opt = sorted_dec(orient.indeg) == kbest
                assert util.has_improving_dipath_brute(
                    orient, lo0, hi0, k
                ) == (not is_opt)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(10, f"orientation solvers match 2^m scans on "
               f"{len(orientation_corpus)} graphs, local tests exact", elapsed)


def test_criterion_11_cheapest(corpus, orientation_corpus):
    rng = np.random.default_rng(123)
    for rec in corpus[::4]:
        handle = rec["handle"]
        cost = rng.integers(-4, 5, size=rec["handle"].n)
        decs = rec["points"][rec["dec_sel"]]
        want = min(int(np.dot(m, cost)) for m in decs)
        got = cheapest_decmin(handle, cost)
        assert sorted_dec(got) == rec["dec_best"]
        assert int(np.dot(got, cost)) == want
    for G in orientation_corpus[:8]:
        cost = [tuple(int(x) for x in rng.integers(0, 6, size=2)) for _ in G.edges]
        heads, scan = brute.orientations(G)
        sel, best = brute.decmin_rows(scan)
        want = min(orientation_cost(Orientation(G, h), cost) for h in heads[sel])
        got = cheapest_decmin_orientation_bounded(G, cost=cost)
        assert sorted_dec(got.indeg) == best
        assert orientation_cost(got, cost) == want
    report(11, "cheapest dec-min element/orientation match brute minima")


def test_criterion_12_semimatchings():
    rng = np.random.default_rng(31)
    done = 0
    while done < 15:
        nl, nr, edges = util.random_bipartite(rng, 4, 3, 12)
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
        assert {tuple(d) for d in degs if harvey(d) == best_h} == {
            tuple(d) for d in degs if sorted_dec(d) == best
        }
    two_user = decmin_semimatching(SemiMatchingProblem(2, 1, [(0, 0), (1, 0)]))
    assert value_equivalent(two_user.left_degrees, (1, 0))
    report(12, "Harvey-objective minimizers = dec-min semi-matchings "
               f"({done} instances), two-user regression")


def test_criterion_13_capacitated():
    rng = np.random.default_rng(41)
    done = 0
    while done < 12:
        G = util.random_multigraph(rng, max_nodes=4, max_edges=4)
        ell = rng.integers(1, 5, size=G.m)
        cap_graph = Graph(G.n, G.edges, ell=ell)
        expanded = cap_graph.expand()
        if expanded.m > 12:
            continue
        done += 1
        got = capacitated_decmin_orientation(cap_graph)
        _, best = brute.decmin_rows(brute.orientations(expanded)[1])
        assert sorted_dec(got.indeg) == best
    e5 = Graph(2, [(0, 1)], ell=[5])
    assert sorted(capacitated_decmin_orientation(e5).indeg.tolist()) == [2, 3]
    report(13, f"capacitated solver = expanded-graph solver ({done} instances), "
               "single-edge capacity-5 split {2,3}")
