"""Dec-min solvers over M-convex sets: the 1-tightening basic algorithm,
the Newton-Dinkelbach routine for the largest essential value, and the
strongly polynomial peak-set recursion, plus local/global optimality tests
and the uniformity measures (square-sum, difference-sum, k-largest-sums).

Every routine reads the handle's p as fully supermodular and begins at
its kind's start (core.start): a beta-covered member is the start in the
box x <= beta, which the peak-set recursion tightens in place.

The basic algorithm is one loop, tighten, over a core.Walk: the member
moves in place, one step per 1-tightening pair, and the walk answers the
next tight sets.  A flow-backed walk pushes each step along a path of its
residual network, a matroid-sum walk along an exchange path; the others
read the new vector again.  The orientation solvers run the same loop.

Smallest tight sets are closed under intersection, so t' in T_m(t)
implies T_m(t') within T_m(t).  A scan that has read T_m(t) and found no
candidate s there therefore has none to find at any t' inside it:
tightening_pair and the peak-set union read T_m(t) only for the t outside
the union of the sets read so far, one search per maximal tight set
instead of one per element, with the same answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    BaseHandle,
    NEG_INF,
    SetFunctionOracle,
    Walk,
    as_intvec,
    _greedy,
    contract,
    effective_oracle,
    member_tight_sets,
    popcounts,
    start,
)


class NoGoodMuError(RuntimeError):
    """Raised when ceil(p/b) has no finite maximum (no good integer)."""


def greedy_member(B: BaseHandle, order=None) -> np.ndarray:
    """Edmonds' greedy member of B along order (core._greedy): p's own
    prefix values, or with a box those of the 2^n boxed table; raises
    EmptyBaseError on a -inf prefix."""
    return _greedy(B.oracle, B.lower, B.upper, order)


def initial_member(B: BaseHandle) -> np.ndarray:
    """Some integral element of the set: the kind's start (core.start).  A
    table that is not fully supermodular fails its membership read and
    raises EmptyBaseError."""
    return np.array(start(B).m, dtype=np.int64)


def tightening_pair(m, tight: Callable[[int], frozenset]) -> Optional[tuple]:
    """The 1-tightening pair (s, t) with m(t) >= m(s) + 2 and s in the
    smallest m-tight set tight(t) of t, or None iff m is dec-min.

    Targets t are scanned by decreasing m(t) (the
    highest-in-degree-end heuristic); for each t the smallest m-tight set
    answers every candidate s at once, and the smallest m(s) inside it wins.
    A target inside a set already read is skipped unread: T_m(t') lies
    within that set and m(t') <= m(t), so t' has no candidate either.
    """
    read = set()
    for t in sorted(range(len(m)), key=lambda v: (-int(m[v]), v)):
        if t in read:
            continue
        tt = tight(t)
        cands = [s for s in tt if s != t and m[t] - m[s] >= 2]
        if cands:
            return min(cands, key=lambda v: (int(m[v]), v)), t
        read.update(tt)
    return None


def tighten(walk: Walk, beta: Optional[int] = None) -> None:
    """The basic algorithm on a walk: take 1-tightening steps, in place,
    until none applies.  Each step moves up to (m(t) - m(s)) // 2 units,
    as many as the walk allows (one, except on a flow-backed walk), so
    the square-sum strictly drops.  With beta only the steps off a
    beta-valued t are taken: the pre-dec-min tightening."""
    m = walk.m
    tight = walk if beta is None else (
        lambda t: walk(t) if m[t] == beta else frozenset({t})
    )
    while True:
        pair = tightening_pair(m, tight)
        if pair is None:
            return
        s, t = pair
        walk.step(s, t, int(m[t] - m[s]) // 2)


def one_tightening(B: BaseHandle, m) -> Optional[tuple]:
    """One 1-tightening step: (s, t, m') with m(t) >= m(s) + 2 and m' in the
    set, or None iff m is dec-min; ValueError when m is not in the set."""
    m = as_intvec(m, B.n)
    pair = tightening_pair(m, member_tight_sets(B, m))
    if pair is None:
        return None
    s, t = pair
    m2 = m.copy()
    m2[s] += 1
    m2[t] -= 1
    return s, t, m2


def basic_decmin(B: BaseHandle, m0=None) -> np.ndarray:
    """The basic algorithm: 1-tightening steps until none applies, on one
    walk from m0 (default: the kind's start, core.start), so a flow-backed set solves
    one flow and pushes each step along a path of its residual network.

    Polynomial in n + |p(S)| (the square-sum strictly drops each step)."""
    walk = start(B) if m0 is None else member_tight_sets(B, m0)
    tighten(walk)
    return np.array(walk.m, dtype=np.int64)


def is_decmin(B: BaseHandle, m) -> tuple:
    """(True, None) iff m is dec-min; otherwise (False, (s, t)) with a
    feasible 1-tightening witness."""
    step = one_tightening(B, m)
    if step is None:
        return True, None
    return False, (step[0], step[1])


# ---------------------------------------------------------------------------
# Newton-Dinkelbach for max ceil(p(X)/b(X))
# ---------------------------------------------------------------------------


@dataclass
class NDTrace:
    """Run record of the Newton-Dinkelbach ascent.

    mus[0] is the starting (bad) value, mus[-1] the first good one, which
    equals the result; witnesses[j] maximizes p(X) - mus[j] b(X)."""

    mus: list
    witnesses: list  # subset masks
    result: int

    @property
    def iterations(self) -> int:
        return len(self.mus) - 1


def newton_dinkelbach(p: SetFunctionOracle, b: SetFunctionOracle) -> NDTrace:
    """Smallest integer mu with mu*b(X) >= p(X) for all X, i.e.
    max ceil(p(X)/b(X)) over b(X) > 0.

    b must be nonnegative and finite, and p(X) <= 0 must hold wherever
    b(X) = 0 (otherwise no good mu exists and NoGoodMuError is raised).
    The ascent from any bad start strictly increases mu while b of the
    witness strictly decreases, so it ends within max(b) iterations.
    """
    ptab, btab = p.table(), b.table()

    def best(mu):
        x = int(np.argmax(ptab - mu * btab))
        px, bx = p.value(x), b.value(x)
        gap = NEG_INF if px == NEG_INF else px - mu * bx
        return x, px, bx, gap

    mu = 0
    x, px, bx, gap = best(mu)
    if gap > 0 and bx == 0:
        raise NoGoodMuError("p(X) > 0 on a set with b(X) = 0")
    if gap <= 0:
        # mu = 0 already good: probe downward with the same oracle until a
        # bad value (or a usable lower bound) appears
        step = 1
        probes = 0
        while True:
            probes += 1
            if probes > 128:
                raise NoGoodMuError("no bad mu found; b vanishes where p is finite")
            mu = -step
            step *= 2
            x, px, bx, gap = best(mu)
            if gap > 0:
                if bx == 0:
                    raise NoGoodMuError("p(X) > 0 on a set with b(X) = 0")
                break
            if bx > 0 and px != NEG_INF:
                # ceil(p(x)/b(x)) <= mu_min: restart the ascent there
                mu = math.ceil(px / bx)
                x, px, bx, gap = best(mu)
                if gap <= 0:
                    return NDTrace([mu], [], int(mu))
                break
    mus = [mu]
    witnesses = [x]
    while True:
        mu = math.ceil(px / bx)
        x, px, bx, gap = best(mu)
        mus.append(mu)
        if gap <= 0:
            return NDTrace(mus, witnesses, int(mu))
        if bx == 0:
            raise NoGoodMuError("p(X) > 0 on a set with b(X) = 0")
        witnesses.append(x)


class _CardinalityOracle(SetFunctionOracle):
    kind = "cardinality"

    def __init__(self, n):
        super().__init__(n)

    def value(self, mask: int):
        return bin(mask).count("1")

    def table(self):
        if self._table is None:
            self._table = popcounts(self._n).astype(np.float64)
        return self._table


def largest_essential_value(p: SetFunctionOracle) -> int:
    """beta_1 = max over nonempty X of ceil(p(X)/|X|), via Newton-Dinkelbach."""
    return newton_dinkelbach(p, _CardinalityOracle(p.n)).result


# ---------------------------------------------------------------------------
# beta-covered members, pre-dec-min tightening, peak sets
# ---------------------------------------------------------------------------


def beta_covered_member(B: BaseHandle, beta: int) -> np.ndarray:
    """A member with every component <= beta: the kind's start in the box
    x <= beta (core.start).

    Requires beta >= beta_1(B); raises EmptyBaseError otherwise, whose
    witness, on a kind that starts by the boxed greedy, is a set X with
    p(X) > beta |X|.
    """
    return np.array(start(B, upper=np.full(B.n, beta)).m, dtype=np.int64)


def tight_union(tight, targets, union: Optional[set] = None) -> set:
    """union (a union of smallest tight sets, default empty) grown in place
    by tight(u) for every u of targets, read only for the u outside it: a
    u inside tight(w) has tight(u) within tight(w) and adds nothing."""
    union = set() if union is None else union
    for u in targets:
        if u not in union:
            union.update(tight(u))
    return union


def _peak(walk: Walk, beta: int) -> frozenset:
    m = walk.m
    return frozenset(tight_union(walk, (t for t in range(len(m)) if m[t] == beta)))


def pre_decmin_tighten(B: BaseHandle, m, beta: int) -> np.ndarray:
    """Turn a beta-covered member into a pre-dec-min one: repeatedly move
    units off a beta-valued component onto one at most beta - 2, while
    some exchange allows it: the 1-tightening steps whose t sits at beta."""
    walk = member_tight_sets(B, m)
    tighten(walk, beta)
    return np.array(walk.m, dtype=np.int64)


def peak_set(B: BaseHandle, beta1: int, m=None) -> frozenset:
    """S_1: the smallest maximizer of h_1(X) = p(X) - (beta_1 - 1)|X|,
    computed from a pre-dec-min member as the union of the smallest tight
    sets of its beta_1-valued components."""
    if m is None:
        walk = start(B, upper=np.full(B.n, beta1))
        tighten(walk, beta1)
    else:
        walk = member_tight_sets(B, m)
    return _peak(walk, beta1)


def strongly_poly_decmin(B: BaseHandle) -> np.ndarray:
    """Dec-min element via the peak-set recursion: find beta_i by
    Newton-Dinkelbach, fix a near-uniform block on the peak set S_i,
    contract it, and recurse on the rest."""
    eff = effective_oracle(B)
    n = eff.n
    result = np.zeros(n, dtype=np.int64)
    remaining = list(range(n))  # original indices of the current ground set
    cur: SetFunctionOracle = eff
    prev_beta = None
    while remaining:
        handle = BaseHandle(cur)
        beta = largest_essential_value(cur)
        if prev_beta is not None and beta >= prev_beta:
            raise RuntimeError("essential values failed to decrease")
        prev_beta = beta
        # the peak set is read off the walk the tightening ended on
        walk = start(handle, upper=np.full(handle.n, beta))
        tighten(walk, beta)
        m = walk.m
        s1 = _peak(walk, beta)
        for local in s1:
            result[remaining[local]] = m[local]
        if len(s1) == len(remaining):
            break
        cur = contract(cur, s1)
        remaining = [orig for j, orig in enumerate(remaining) if j not in s1]
    return result


# ---------------------------------------------------------------------------
# uniformity measures
# ---------------------------------------------------------------------------


@dataclass
class MeasureReport:
    """Square-sum, difference-sum (ordered pairs), k-largest-sums and the
    optional capped difference measure."""

    square_sum: int
    diff_sum: int
    k_largest: tuple
    diff_k: Optional[int] = None


def measures(m, K: Optional[int] = None) -> MeasureReport:
    v = np.asarray(list(m), dtype=np.int64)
    square = int(np.sum(v * v))
    diffs = np.abs(v[:, None] - v[None, :])
    diff_sum = int(diffs.sum())  # ordered pairs: each unordered pair twice
    s = np.sort(v)[::-1]
    klg = tuple(int(x) for x in np.cumsum(s))
    diff_k = None
    if K is not None:
        clipped = np.maximum(diffs - K, 0)
        np.fill_diagonal(clipped, 0)
        diff_k = int(clipped.sum())
    return MeasureReport(square, diff_sum, klg, diff_k)
