import numpy as np
import pytest

from decmin.core import (
    BaseHandle,
    EmptyBaseError,
    TableOracle,
    enumerate_integral_points,
    brute_decmin_set,
    is_member,
    mask_of,
    sorted_dec,
    value_equivalent,
)
from decmin.engine import (
    NoGoodMuError,
    basic_decmin,
    beta_covered_member,
    greedy_member,
    initial_member,
    is_decmin,
    largest_essential_value,
    measures,
    newton_dinkelbach,
    one_tightening,
    peak_set,
    pre_decmin_tighten,
    strongly_poly_decmin,
    _CardinalityOracle,
)
from decmin.orientation import GraphInducedOracle

import util


def path_ig_handle():
    return BaseHandle(GraphInducedOracle(3, [(0, 1), (1, 2)]))


class TestGreedy:
    def test_i1_orders(self):
        i1 = util.i1_handle()
        assert greedy_member(i1, [0, 1]).tolist() == [0, 1]
        assert greedy_member(i1, [1, 0]).tolist() == [1, 0]

    def test_path_ig(self):
        m = greedy_member(path_ig_handle(), [0, 1, 2])
        assert m.tolist() == [0, 1, 1]

    def test_neg_inf_chain_raises(self):
        with pytest.raises(EmptyBaseError):
            greedy_member(util.line_handle(), [0, 1])

    def test_initial_member_falls_back_to_scan(self):
        handle = util.line_handle()
        handle.lower = np.array([-2.0, -2.0])
        handle.upper = np.array([3.0, 3.0])
        m = initial_member(handle)
        assert is_member(handle, m)

    def test_empty_crossing_base_surfaces(self):
        # crossing-style oracle whose polyhedron is empty: p(S)=0 but a
        # singleton demands more than the complement allows
        oracle = TableOracle([0, 1, 1, 0])
        handle = BaseHandle(oracle)
        with pytest.raises(EmptyBaseError):
            initial_member(handle)


class TestOneTightening:
    def test_line_step(self):
        line = util.line_handle()
        step = one_tightening(line, [2, -1])
        assert step is not None
        s, t, m2 = step
        assert (s, t) == (1, 0) and m2.tolist() == [1, 0]
        assert one_tightening(line, [1, 0]) is None

    def test_r62_terminal(self):
        r62 = util.r62_handle()
        m = np.array([3, 2, 4, 0])
        seen = m
        while True:
            step = one_tightening(r62, seen)
            if step is None:
                break
            seen = step[2]
        assert value_equivalent(seen, (2, 3, 3, 1))

    def test_every_step_drops_square_sum_and_k_sums(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            m = initial_member(handle)
            while True:
                step = one_tightening(handle, m)
                if step is None:
                    break
                m2 = step[2]
                assert measures(m2).square_sum < measures(m).square_sum
                before = measures(m).k_largest
                after = measures(m2).k_largest
                assert all(a <= b for a, b in zip(after, before))
                m = m2


class TestBasicDecmin:
    def test_examples(self):
        assert value_equivalent(basic_decmin(util.line_handle(), [2, -1]), (1, 0))
        b1 = BaseHandle(util.table_from_points(util.SEC34_B1_POINTS))
        assert value_equivalent(basic_decmin(b1, [2, -1, 1, 0]), (1, 0, 0, 1))
        assert value_equivalent(basic_decmin(util.r62_handle()), (2, 3, 3, 1))

    def test_matches_brute_on_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            _, best = brute_decmin_set(enumerate_integral_points(handle).points)
            assert sorted_dec(basic_decmin(handle)) == best


class TestNewtonDinkelbach:
    def test_i1(self):
        trace = newton_dinkelbach(util.i1_handle().oracle, _CardinalityOracle(2))
        assert trace.result == 1
        assert trace.mus == [0, 1]
        assert trace.iterations == 1

    def test_path_ig(self):
        p = path_ig_handle().oracle
        assert newton_dinkelbach(p, _CardinalityOracle(3)).result == 1

    def test_r62(self):
        assert largest_essential_value(util.r62_handle().oracle) == 3

    def test_degenerate_good_start(self):
        # all values nonpositive: mu = 0 good, probe downward
        p = TableOracle([0, -3, -3, -2])
        trace = newton_dinkelbach(p, _CardinalityOracle(2))
        assert trace.result == util.brute_nd(p.table(), 2) == -1

    def test_no_good_mu(self):
        p = TableOracle([0, 2, 0, 1])
        b = TableOracle.__new__(TableOracle)  # b with a zero on a p>0 set
        from decmin.core import SetFunctionOracle

        class ZeroOn1(SetFunctionOracle):
            kind = "test"

            def value(self, mask):
                return 0 if mask == 1 else bin(mask).count("1")

        with pytest.raises(NoGoodMuError):
            newton_dinkelbach(p, ZeroOn1(2))

    def test_trace_invariants_random(self):
        rng = np.random.default_rng(41)
        card = _CardinalityOracle(4)
        for _ in range(30):
            p = util.random_supermodular_table(rng, 4)
            trace = newton_dinkelbach(p, card)
            assert trace.result == util.brute_nd(p.table(), 4)
            assert all(a < b for a, b in zip(trace.mus, trace.mus[1:]))
            sizes = [bin(x).count("1") for x in trace.witnesses]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert trace.iterations <= 4


class TestBetaCovered:
    def test_i1(self):
        m = beta_covered_member(util.i1_handle(), 1)
        assert sorted(m.tolist()) == [0, 1]

    def test_line_beta2(self):
        handle = util.line_handle()
        m = beta_covered_member(handle, 2)
        assert is_member(handle, m) and m.max() <= 2

    def test_path_beta1(self):
        handle = path_ig_handle()
        m = beta_covered_member(handle, 1)
        assert is_member(handle, m) and m.max() <= 1

    def test_too_small_beta(self):
        with pytest.raises(EmptyBaseError):
            beta_covered_member(util.r62_handle(), 2)

    def test_beta_below_a_lower_bound_names_that_element(self):
        # the box x <= beta meets the handle's own box, whose lower bound
        # 3 on element 2 lies above beta = 2
        handle = BaseHandle(util.r62_handle().oracle, lower=[0, 0, 3, 0])
        m = beta_covered_member(handle, 3)
        assert is_member(handle, m) and m.max() <= 3
        with pytest.raises(EmptyBaseError) as info:
            beta_covered_member(handle, 2)
        assert info.value.witness == {2}

    def test_too_small_beta_names_a_violated_set(self):
        # below beta_1 the witness X has p(X) > beta |X|
        rng = np.random.default_rng(53)
        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 5)
            beta = largest_essential_value(oracle) - 1
            with pytest.raises(EmptyBaseError) as info:
                beta_covered_member(BaseHandle(oracle), beta)
            X = info.value.witness
            assert X and oracle.value(mask_of(X)) > beta * len(X)

    def test_any_order_yields_member(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            beta = largest_essential_value(oracle)
            m = beta_covered_member(handle, beta)
            assert is_member(handle, m) and m.max() <= beta


class TestPreDecminAndPeak:
    def test_i1(self):
        i1 = util.i1_handle()
        m = pre_decmin_tighten(i1, np.array([1, 0]), 1)
        assert m.tolist() == [1, 0]
        assert peak_set(i1, 1) == {0, 1}

    def test_path(self):
        handle = path_ig_handle()
        m = pre_decmin_tighten(handle, beta_covered_member(handle, 1), 1)
        assert int((m == 1).sum()) == 2  # r_1 = 2
        assert peak_set(handle, 1) == {0, 1, 2}

    def test_r62_counts(self):
        handle = util.r62_handle()
        m = pre_decmin_tighten(handle, beta_covered_member(handle, 3), 3)
        assert int((m == 3).sum()) == 2

    def test_peak_matches_h1_scan(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            data = util.brute_canonical(oracle.table(), 4)
            assert peak_set(handle, data["betas"][0]) == data["partition"][0]


class TestStronglyPoly:
    def test_examples(self):
        assert value_equivalent(strongly_poly_decmin(util.line_handle()), (1, 0))
        b1 = BaseHandle(util.table_from_points(util.SEC34_B1_POINTS))
        assert value_equivalent(strongly_poly_decmin(b1), (1, 0, 0, 1))
        assert strongly_poly_decmin(util.r62_handle()).tolist() == [2, 3, 3, 1]

    def test_matches_brute_random(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            _, best = brute_decmin_set(enumerate_integral_points(handle).points)
            assert sorted_dec(strongly_poly_decmin(handle)) == best

    def test_boxed(self):
        rng = np.random.default_rng(81)
        hits = 0
        while hits < 10:
            oracle = util.random_supermodular_table(rng, 4)
            lo = rng.integers(-3, 1, size=4)
            hi = lo + rng.integers(1, 4, size=4)
            handle = BaseHandle(oracle, lower=lo, upper=hi)
            pts = enumerate_integral_points(handle)
            if len(pts) == 0:
                continue
            hits += 1
            _, best = brute_decmin_set(pts.points)
            assert sorted_dec(strongly_poly_decmin(handle)) == best


class TestIsDecmin:
    def test_examples(self):
        line = util.line_handle()
        ok, witness = is_decmin(line, [1, 0])
        assert ok and witness is None
        ok, witness = is_decmin(line, [2, -1])
        assert not ok and witness == (1, 0)
        ok, _ = is_decmin(util.r62_handle(), [3, 3, 3, 0])
        assert not ok

    def test_decmin_iff_incmax_brute(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 4)
            pts = enumerate_integral_points(BaseHandle(oracle)).points
            dec_sel, _ = util.decmin_rows(pts)
            inc_sel, _ = util.incmax_rows(pts)
            assert (dec_sel == inc_sel).all()


class TestMeasures:
    def test_examples(self):
        assert measures((2, 3, 3, 1)).square_sum == 23
        assert measures((3, 2, 4, 0)).square_sum == 29
        rep = measures((2, 3, 3, 1))
        assert rep.diff_sum == 14
        assert rep.k_largest[1] == 6
        assert rep.k_largest[-1] == 9

    def test_diff_k(self):
        rep = measures((0, 2, 5), K=2)
        # ordered pairs: |0-2|=2 -> 0, |0-5|=5 -> 3, |2-5|=3 -> 1; doubled
        assert rep.diff_k == 2 * (0 + 3 + 1)

    def test_diff_sum_counts_ordered_pairs(self):
        assert measures((0, 1)).diff_sum == 2


class TestKLargestOptimality:
    def test_decmin_minimizes_every_k_largest_sum(self):
        # any dec-min element solves min k-largest-sum for every k
        rng = np.random.default_rng(101)
        from decmin.core import enumerate_integral_points, k_largest_sum

        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            pts = enumerate_integral_points(handle).points
            m = strongly_poly_decmin(handle)
            for k in range(1, 5):
                best = min(k_largest_sum(p, k) for p in pts)
                assert k_largest_sum(m, k) == best


def test_strongly_poly_empty_box_raises():
    handle = BaseHandle(
        TableOracle([0, 0, 0, 1]),
        lower=np.array([1.0, 1.0]),
        upper=np.array([2.0, 2.0]),
    )
    with pytest.raises(EmptyBaseError):
        strongly_poly_decmin(handle)
