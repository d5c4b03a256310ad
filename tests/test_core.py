import numpy as np
import pytest
from hypothesis import given, strategies as st

from decmin.engine import basic_decmin, initial_member, strongly_poly_decmin
from decmin.orientation import GraphInducedOracle

from decmin.core import (
    NEG_INF,
    POS_INF,
    BaseHandle,
    CeilingExceeded,
    EmptyBaseError,
    GroundSet,
    Ordering,
    SetFunctionOracle,
    TableOracle,
    box_intersection_feasible,
    complement,
    contract,
    dec_compare,
    dump_table_json,
    effective_oracle,
    enumerate_integral_points,
    exchange_feasible,
    inc_compare,
    is_member,
    iter_masks,
    k_largest_sum,
    load_table_json,
    mask_of,
    restrict,
    shift,
    smallest_tight_set,
    value_equivalent,
)

import util


def test_ground_set_invariants():
    g = GroundSet(("a", "b", "c"))
    assert g.n == 3 and g.index("b") == 1
    with pytest.raises(ValueError):
        GroundSet(())
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


class TestComparators:
    def test_paper_examples_dec(self):
        assert dec_compare((2, 5, 5, 1, 4), (1, 5, 5, 5, 1)) is Ordering.SMALLER
        assert dec_compare((2, 5, 5, 1, 4), (1, 4, 5, 2, 5)) is Ordering.VALUE_EQUIVALENT
        assert dec_compare((3, 1, 3, 3), (2, 2, 2, 4)) is Ordering.SMALLER

    def test_paper_examples_inc(self):
        assert inc_compare((2, 2, 2, 4), (3, 1, 3, 3)) is Ordering.LARGER
        assert inc_compare((1, 0), (0, 1)) is Ordering.VALUE_EQUIVALENT
        assert inc_compare((1, 1), (2, 0)) is Ordering.LARGER

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dec_compare((1,), (1, 2))
        with pytest.raises(ValueError):
            inc_compare((1,), (1, 2))

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    )
    def test_total_and_antisymmetric(self, x, y):
        if len(x) != len(y):
            x, y = x, x[:]
        a = dec_compare(x, y)
        b = dec_compare(y, x)
        flip = {
            Ordering.SMALLER: Ordering.LARGER,
            Ordering.LARGER: Ordering.SMALLER,
            Ordering.VALUE_EQUIVALENT: Ordering.VALUE_EQUIVALENT,
        }
        assert b == flip[a]
        assert (a is Ordering.VALUE_EQUIVALENT) == value_equivalent(x, y)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.integers(-5, 5), min_size=n, max_size=n)] * 3
            )
        )
    )
    def test_transitive(self, triple):
        x, y, z = triple
        if (
            dec_compare(x, y) is not Ordering.LARGER
            and dec_compare(y, z) is not Ordering.LARGER
        ):
            assert dec_compare(x, z) is not Ordering.LARGER

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.data())
    def test_dec_neg_is_inc(self, x, data):
        y = data.draw(
            st.lists(st.integers(-5, 5), min_size=len(x), max_size=len(x))
        )
        neg = lambda v: [-a for a in v]
        assert (dec_compare(x, y) is Ordering.SMALLER) == (
            inc_compare(neg(x), neg(y)) is Ordering.LARGER
        )


class TestMembershipExchange:
    def test_member_examples(self):
        i1 = util.i1_handle()
        assert is_member(i1, [1, 0])
        assert not is_member(i1, [1, 1])  # wrong component sum
        # the unbounded line instance admits (2, -1)
        line = util.line_handle()
        assert is_member(line, [2, -1])
        assert not is_member(line, [1, 1])

    def test_exchange_examples(self):
        i1 = util.i1_handle()
        assert exchange_feasible(i1, [0, 1], 0, 1)  # lands on (1, 0)
        assert not exchange_feasible(i1, [0, 1], 1, 0)  # (-1, 2) leaves B
        boxed = BaseHandle(TableOracle([0, 0, 0, 1]), lower=np.zeros(2))
        assert not exchange_feasible(boxed, [0, 1], 1, 0)  # box violation
        with pytest.raises(ValueError):
            exchange_feasible(i1, [0, 1], 1, 1)

    def test_membership_oracle_inequalities_hold_on_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            tab = oracle.table()
            pts = enumerate_integral_points(handle)
            for m in pts:
                sums = [
                    sum(int(m[v]) for v in range(4) if mask >> v & 1)
                    for mask in iter_masks(4)
                ]
                assert all(s >= t for s, t in zip(sums, tab))
                assert sums[-1] == tab[-1]


class TestTightSets:
    def test_examples(self):
        i1 = util.i1_handle()
        assert smallest_tight_set(i1, [0, 1], 1) == {0, 1}
        assert smallest_tight_set(i1, [0, 1], 0) == {0}
        boxed = BaseHandle(
            TableOracle([0, 0, 0, 1]), lower=np.zeros(2), upper=np.ones(2)
        )
        assert smallest_tight_set(boxed, [0, 1], 1) == {0, 1}

    def test_minimality_against_tight_lattice(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            oracle = util.random_supermodular_table(rng, 4)
            handle = BaseHandle(oracle)
            tab = oracle.table()
            pts = enumerate_integral_points(handle)
            m = pts.points[0]
            for t in range(4):
                T = smallest_tight_set(handle, m, t)
                tight_sets = [
                    mask
                    for mask in iter_masks(4)
                    if mask >> t & 1
                    and tab[mask] != NEG_INF
                    and sum(int(m[v]) for v in range(4) if mask >> v & 1)
                    == tab[mask]
                ]
                expected = None
                for mask in tight_sets:
                    expected = mask if expected is None else expected & mask
                got = mask_of(T)
                assert got == expected
                # T itself is m-tight
                assert sum(int(m[v]) for v in T) == tab[got]


def _greedy_vertex(p, order):
    """The vertex of B'(p) that the greedy algorithm builds along order."""
    x = [0] * p.n
    prefix = 0
    for v in order:
        x[v] = p.value(prefix | 1 << v) - p.value(prefix)
        prefix |= 1 << v
    return x


def _ideal_restriction(p, arcs):
    """p on the sets X with u in X whenever v in X for each arc (u, v), -inf
    elsewhere; such sets are closed under union and intersection, so the
    restriction stays supermodular and keeps every member of B'(p)."""
    vals = []
    for mask in iter_masks(p.n):
        closed = all(mask >> u & 1 for u, v in arcs if mask >> v & 1)
        vals.append(p.value(mask) if closed else NEG_INF)
    return TableOracle(vals)


def _exchange_sets(B, m):
    """{s : m + chi_s - chi_t is a member} for every t, each member checked
    against every subset sum and the box."""
    n = B.n
    p = [B.oracle.value(mask) for mask in iter_masks(n)]
    sums = [0]
    for v in range(n):
        sums += [x + int(m[v]) for x in sums]

    def member(s, t):
        y = [int(c) for c in m]
        y[s] += 1
        y[t] -= 1
        if B.lower is not None and any(a < b for a, b in zip(y, B.lower)):
            return False
        if B.upper is not None and any(a > b for a, b in zip(y, B.upper)):
            return False
        return sums[-1] == p[-1] and all(
            sums[mask] + (mask >> s & 1) - (mask >> t & 1) >= p[mask]
            for mask in iter_masks(n)
        )

    return [{t} | {s for s in range(n) if s != t and member(s, t)} for t in range(n)]


class TestTableKernels:
    def test_tight_sets_match_exchange_definition(self):
        rng = np.random.default_rng(18)
        checked = 0
        for n in (2, 3, 4, 5, 6, 8):
            wide = 4 if n <= 4 else 12 * n
            # even cases restrict p to an ideal family (-inf entries);
            # case // 2 picks no box, a lower bound, an upper bound, both
            for case in range(8):
                p = util.random_supermodular_table(rng, n, -wide, wide)
                m0 = np.array(_greedy_vertex(p, rng.permutation(n).tolist()))
                if case % 2 == 0:
                    arcs = [tuple(rng.choice(n, 2, replace=False).tolist())
                            for _ in range(int(rng.integers(1, n + 1)))]
                    p = _ideal_restriction(p, arcs)
                    assert NEG_INF in [p.value(x) for x in iter_masks(n)]
                lower = m0 - rng.integers(0, 3, size=n) if case // 2 in (1, 3) else None
                upper = m0 + rng.integers(0, 3, size=n) if case // 2 >= 2 else None
                B = BaseHandle(p, lower=lower, upper=upper)
                radius = 3 if n <= 4 else 2 if n <= 6 else 1
                window = (m0 - radius, m0 + radius)
                points = enumerate_integral_points(B, window).points
                assert any((row == m0).all() for row in points)
                for m in points:
                    expected = _exchange_sets(B, m)
                    for t in range(n):
                        assert smallest_tight_set(B, m, t) == expected[t]
                    checked += 1
        assert checked > 500

    def test_ndarray_and_list_give_one_table(self):
        big = 2**60
        values = [0, big, 5, big + 7]
        a = TableOracle(values)
        b = TableOracle(np.array(values, dtype=np.int64))
        assert np.array_equal(a.table(), b.table())
        for p in (a, b):
            assert type(p.value(1)) is int and p.value(1) == big
            assert p.value(3) == big + 7
        c = TableOracle([0, NEG_INF, 2, 3])
        d = TableOracle(np.array([0, NEG_INF, 2, 3]))
        assert np.array_equal(c.table(), d.table())
        assert d.value(1) == NEG_INF and type(d.value(3)) is int

    def test_integer_array_is_read_exactly(self):
        # an integer array goes through one tolist(): values past 2^53,
        # which a float cannot hold, stay exact python ints; a float
        # array with -inf keeps its -inf and turns the rest into ints
        odd = 2**53 + 1
        for dtype in (np.int64, np.uint64):
            p = TableOracle(np.array([0, odd, 3, odd + 4], dtype=dtype))
            assert [p.value(x) for x in range(4)] == [0, odd, 3, odd + 4]
            assert all(type(p.value(x)) is int for x in range(4))
        q = TableOracle(np.array([0.0, NEG_INF, 2.0, 5.0]))
        assert [q.value(x) for x in range(4)] == [0, NEG_INF, 2, 5]
        assert type(q.value(2)) is int and q.table().tolist() == [0.0, NEG_INF, 2.0, 5.0]

    def test_table_respects_the_subset_ceiling(self, monkeypatch):
        p = TableOracle([0, 0, 0, 1])
        monkeypatch.setenv("DECMIN_BRUTE_CEILING", "1")
        with pytest.raises(CeilingExceeded):
            p.table()
        monkeypatch.setenv("DECMIN_BRUTE_CEILING", "2")
        assert p.table().tolist() == [0.0, 0.0, 0.0, 1.0]


class TestWrappers:
    def test_contract_and_complement_examples(self):
        p = util.i1_handle().oracle
        contracted = contract(p, {0})
        assert contracted.value(1) == 1  # p(S) - p({0})
        b = complement(p)
        assert b.value(1) == 1  # p(S) - p({1})
        # double contraction fuses
        p4 = util.random_supermodular_table(np.random.default_rng(0), 4)
        c12 = contract(contract(p4, {0}), {0})  # second {0} is old element 1
        c_both = contract(p4, {0, 1})
        assert [c12.value(m) for m in iter_masks(2)] == [
            c_both.value(m) for m in iter_masks(2)
        ]

    def test_complement_involution_pointwise(self):
        rng = np.random.default_rng(3)
        p = util.random_supermodular_table(rng, 4)
        double = complement(complement(p))
        for mask in iter_masks(4):
            assert double.value(mask) == p.value(mask)

    def test_restrict_and_shift(self):
        p = util.r62_handle().oracle
        r = restrict(p, [1, 2])
        assert r.value(3) == p.value(mask_of([1, 2]))
        s = shift(p, [1, 0, 0, 0])
        assert s.value(1) == p.value(1) + 1
        assert s.value(0) == 0


    def test_transforms_reject_elements_outside_the_ground_set(self):
        g = GraphInducedOracle(3, [(0, 1), (1, 2)])
        t = TableOracle([0, 0, 0, 1])
        for p in (g, t):
            for bad in ([p.n], [p.n + 2], [-1]):
                with pytest.raises(ValueError):
                    restrict(p, bad)
                with pytest.raises(ValueError):
                    contract(p, set(bad))
            with pytest.raises(ValueError):
                contract(p, 1 << p.n)

    def test_transforms_match_their_formulas_exactly(self):
        rng = np.random.default_rng(11)
        big = 2**60
        for _ in range(30):
            n = int(rng.integers(2, 6))
            p = _random_table(rng, n, big)
            full = (1 << n) - 1
            zmask = int(rng.integers(0, full))
            rest = [v for v in range(n) if not zmask >> v & 1]
            if p.value(zmask) == NEG_INF:
                with pytest.raises(ValueError):
                    contract(p, zmask)
            else:
                c = contract(p, zmask)
                want = [p.value(_embedded(rest, x) | zmask) - p.value(zmask)
                        for x in iter_masks(len(rest))]
                assert _values_of(c) == want
                # nested: contracting element 0 of p/Z contracts Z + rest[0]
                if len(rest) > 1 and c.value(1) != NEG_INF:
                    both = contract(p, zmask | 1 << rest[0])
                    assert _values_of(contract(c, {0})) == _values_of(both)
            keep = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                      replace=False))
            if p.value(mask_of(keep)) != NEG_INF:
                r = restrict(p, keep)
                assert _values_of(r) == [p.value(_embedded(keep, x)) for x in iter_masks(len(keep))]
            w = [int(v) for v in rng.integers(-big, big, size=n)]
            s = shift(p, w)
            assert _values_of(s) == [
                p.value(x) + sum(w[v] for v in range(n) if x >> v & 1)
                for x in iter_masks(n)
            ]
            b = complement(p)
            assert _values_of(b) == [
                POS_INF if p.value(full ^ x) == NEG_INF else p.value(full) - p.value(full ^ x)
                for x in iter_masks(n)
            ]
            assert _values_of(complement(b)) == _values_of(p)
            for q in (b, s):
                assert all(type(v) is int for v in _values_of(q) if abs(v) != POS_INF)


def _embedded(keep, x):
    """The mask that x, a mask over len(keep) elements, names in the inner
    ground set."""
    return mask_of(v for j, v in enumerate(keep) if x >> j & 1)


def _random_table(rng, n, high=6):
    """A table (not necessarily supermodular) with -inf entries."""
    vals = [0] + [int(v) for v in rng.integers(-high, high + 1, size=(1 << n) - 1)]
    for mask in range(1, (1 << n) - 1):
        if rng.random() < 0.25:
            vals[mask] = NEG_INF
    return TableOracle(vals)


def _random_box(rng, n):
    """Bounds f <= g with some infinite entries; either may be missing."""
    lo = rng.integers(-4, 3, size=n).astype(float)
    hi = lo + rng.integers(0, 5, size=n)
    lo[rng.random(n) < 0.25] = NEG_INF
    hi[rng.random(n) < 0.25] = POS_INF
    return (None if rng.random() < 0.2 else lo), (None if rng.random() < 0.2 else hi)


def _values_of(p):
    return [p.value(x) for x in iter_masks(p.n)]


def _boxed_scan(p, lo, hi, y):
    """max_X [p(X) + f~(Y - X) - g~(X - Y)], scanned; a sum holding both
    +inf and -inf counts as -inf."""
    n = p.n
    f = [NEG_INF] * n if lo is None else list(lo)
    g = [POS_INF] * n if hi is None else list(hi)
    best = NEG_INF
    for x in iter_masks(n):
        terms = [p.value(x)]
        terms += [f[v] for v in range(n) if y >> v & 1 and not x >> v & 1]
        terms += [-g[v] for v in range(n) if x >> v & 1 and not y >> v & 1]
        if not (POS_INF in terms and NEG_INF in terms):
            best = max(best, sum(terms))
    return best


def _violated(p, lo, hi, witness):
    """W breaks p(W) <= g~(W) or f~(W) <= p-bar(W) = p(S) - p(S - W)."""
    n = p.n
    w = mask_of(witness)
    full = (1 << n) - 1
    g = sum(POS_INF if hi is None else hi[v] for v in witness)
    f = sum(NEG_INF if lo is None else lo[v] for v in witness)
    rest = p.value(full ^ w)
    pbar = POS_INF if rest == NEG_INF else p.value(full) - rest
    return p.value(w) > g or f > pbar


class TestBoxedFunction:
    def test_effective_oracle_is_the_boxed_maximum(self):
        rng = np.random.default_rng(21)
        seen = {"meets": 0, "misses": 0}
        for _ in range(80):
            n = int(rng.integers(2, 6))
            p = _random_table(rng, n)
            lo, hi = _random_box(rng, n)
            want = [_boxed_scan(p, lo, hi, y) for y in iter_masks(n)]
            B = BaseHandle(p, lower=lo, upper=hi)
            if want[0] == 0 and want[-1] == p.value((1 << n) - 1):
                seen["meets"] += 1
                assert _values_of(effective_oracle(B)) == want
            else:
                seen["misses"] += 1
                with pytest.raises(EmptyBaseError) as err:
                    effective_oracle(B)
                assert _violated(p, lo, hi, err.value.witness)
        assert min(seen.values()) >= 10

    def test_box_feasibility_is_the_frank_condition(self):
        rng = np.random.default_rng(22)
        for _ in range(80):
            n = int(rng.integers(2, 6))
            p = _random_table(rng, n)
            lo, hi = _random_box(rng, n)
            lo = np.full(n, NEG_INF) if lo is None else lo
            hi = np.full(n, POS_INF) if hi is None else hi
            want = all(
                not _violated(p, lo, hi, [v for v in range(n) if x >> v & 1])
                for x in iter_masks(n)
            )
            assert box_intersection_feasible(BaseHandle(p), lo, hi) == want

    @pytest.mark.parametrize("solve", [basic_decmin, initial_member, strongly_poly_decmin])
    def test_empty_boxes_raise_with_a_violated_set(self, solve):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            p = util.random_supermodular_table(rng, n)
            m = strongly_poly_decmin(BaseHandle(p))
            for lo, hi in ((None, m - 1), (m + 1, None), (m + 1, m + 2), (m - 3, m - 1)):
                with pytest.raises(EmptyBaseError) as err:
                    solve(BaseHandle(p, lower=lo, upper=hi))
                assert _violated(p, lo, hi, err.value.witness)

    def test_a_bound_no_integer_meets_is_an_empty_box(self):
        p = TableOracle([0, NEG_INF, NEG_INF, 0])
        for lo, hi in (([NEG_INF, POS_INF], None), (None, [NEG_INF, POS_INF])):
            assert not box_intersection_feasible(
                BaseHandle(p),
                [NEG_INF] * 2 if lo is None else lo,
                [POS_INF] * 2 if hi is None else hi,
            )
            for solve in (basic_decmin, strongly_poly_decmin):
                with pytest.raises(EmptyBaseError) as err:
                    solve(BaseHandle(p, lower=lo, upper=hi))
                assert err.value.witness == {1 if lo else 0}

    def test_boxed_handle_past_the_ceiling_allocates_nothing_first(self, monkeypatch):
        # a boxed graph-induced cycle past the ceiling solves by its flow
        # start, every in-degree 1; a set function with no start of its
        # own meets the ceiling before the 2^n boxed table is allocated
        import tracemalloc

        class NoStart(SetFunctionOracle):
            def value(self, mask):
                return bin(mask).count("1")

        monkeypatch.delenv("DECMIN_BRUTE_CEILING", raising=False)
        n = 24
        g = GraphInducedOracle(n, [(v, (v + 1) % n) for v in range(n)])
        tracemalloc.start()
        try:
            m = basic_decmin(BaseHandle(g, upper=np.full(n, 3)))
            solved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(CeilingExceeded):
                basic_decmin(BaseHandle(NoStart(n), upper=np.full(n, 3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.tolist() == [1] * n
        assert solved < 16 * 2**20 and peak < 16 * 2**20


class TestEnumeration:
    def test_line_box(self):
        pts = enumerate_integral_points(util.line_handle(), ([-1, -1], [2, 2]))
        assert sorted(map(tuple, pts.points)) == [
            (-1, 2),
            (0, 1),
            (1, 0),
            (2, -1),
        ]

    def test_section34_instances(self):
        b1 = BaseHandle(util.table_from_points(util.SEC34_B1_POINTS))
        got = {tuple(p) for p in enumerate_integral_points(b1).points}
        assert got == {tuple(p) for p in util.SEC34_B1_POINTS}
        b2 = BaseHandle(util.table_from_points(util.SEC34_B2_POINTS))
        got2 = {tuple(p) for p in enumerate_integral_points(b2).points}
        assert got2 == {tuple(p) for p in util.SEC34_B2_POINTS}

    def test_remark62_instance(self):
        got = {tuple(p) for p in enumerate_integral_points(util.r62_handle()).points}
        assert got == {tuple(p) for p in util.R62_POINTS}

    def test_common_component_sum_invariant(self):
        pts = enumerate_integral_points(util.r62_handle())
        assert len({int(p.sum()) for p in pts}) == 1


class TestBoxFeasibility:
    def test_examples(self):
        i1 = util.i1_handle()
        assert box_intersection_feasible(i1, [0, 0], [1, 1])
        assert not box_intersection_feasible(i1, [1, 1], [2, 2])
        assert not box_intersection_feasible(i1, [-5, -5], [0, 0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            oracle = util.random_supermodular_table(rng, 3)
            lo = rng.integers(-3, 1, size=3)
            hi = lo + rng.integers(0, 4, size=3)
            feasible = box_intersection_feasible(BaseHandle(oracle), lo, hi)
            boxed = BaseHandle(oracle, lower=lo, upper=hi)
            assert feasible == (len(enumerate_integral_points(boxed)) > 0)


def test_table_json_roundtrip():
    text = '{"n": 2, "values": {"1": 0, "3": 1}}'
    p = load_table_json(text)
    assert p.value(0) == 0 and p.value(1) == 0
    assert p.value(2) == NEG_INF and p.value(3) == 1
    again = load_table_json(dump_table_json(p))
    assert [again.value(m) for m in iter_masks(2)] == [
        p.value(m) for m in iter_masks(2)
    ]


def test_k_largest_sum():
    assert k_largest_sum((2, 3, 3, 1), 2) == 6
    assert k_largest_sum((2, 3, 3, 1), 4) == 9
