"""Canonical chain/partition and essential value-sequence of an M-convex
set, the block matroids of its dec-min elements (exchanges read off
smallest tight sets), cheapest dec-min elements as one greedy walk, and
the square-sum duality layer (linear extension, min-max certificate,
optimal dual vectors).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BaseHandle,
    NEG_INF,
    SetFunctionOracle,
    as_intvec,
    effective_oracle,
    is_member,
    mask_of,
    member_tight_sets,
    start,
    tight_sets,
)
from .engine import tight_union, tighten, tightening_pair


class NotDecMinError(ValueError):
    """The supplied element is not decreasingly minimal."""


@dataclass
class DualVector:
    """An integral dual vector for the square-sum min-max formula;
    optimality is decided by verify_dual_optimal, not by construction."""

    pi: np.ndarray

    def __post_init__(self):
        self.pi = as_intvec(self.pi)


def _pi_values(pi) -> np.ndarray:
    if isinstance(pi, DualVector):
        return pi.pi
    return np.asarray(list(pi), dtype=np.int64)


@dataclass
class CanonicalDecomposition:
    """Canonical chain C_1 c ... c C_q, partition {S_i}, essential values
    beta_1 > ... > beta_q, counts r_i, translation Delta*, smallest optimal
    dual pi*, and value-fixed sets F_i.

    ``witness`` keeps the dec-min element the decomposition was read off
    from; the decomposition itself does not depend on that choice.
    """

    n: int
    chain: list
    partition: list
    betas: list
    counts: list
    delta_star: np.ndarray
    pi_star: np.ndarray
    value_fixed: list
    witness: np.ndarray = field(repr=False, default=None)

    @property
    def q(self) -> int:
        return len(self.partition)

    def decmin_element(self) -> np.ndarray:
        """The dec-min element the decomposition was read off."""
        if self.witness is None:
            raise ValueError(
                "the decomposition carries no dec-min element (one loaded "
                "from JSON has none)"
            )
        return self.witness

    def __eq__(self, other):
        if not isinstance(other, CanonicalDecomposition):
            return NotImplemented
        return (
            self.n == other.n
            and self.chain == other.chain
            and self.partition == other.partition
            and self.betas == other.betas
            and self.counts == other.counts
            and np.array_equal(self.delta_star, other.delta_star)
            and np.array_equal(self.pi_star, other.pi_star)
            and self.value_fixed == other.value_fixed
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "chain": [sorted(c) for c in self.chain],
                "partition": [sorted(s) for s in self.partition],
                "betas": [int(b) for b in self.betas],
                "r": [int(r) for r in self.counts],
                "delta_star": [int(d) for d in self.delta_star],
                "pi_star": [int(p) for p in self.pi_star],
                "value_fixed": [sorted(f) for f in self.value_fixed],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CanonicalDecomposition":
        doc = json.loads(text)
        delta = np.asarray(doc["delta_star"], dtype=np.int64)
        return cls(
            n=len(delta),
            chain=[frozenset(c) for c in doc["chain"]],
            partition=[frozenset(s) for s in doc["partition"]],
            betas=[int(b) for b in doc["betas"]],
            counts=[int(r) for r in doc["r"]],
            delta_star=delta,
            pi_star=np.asarray(doc["pi_star"], dtype=np.int64),
            value_fixed=[frozenset(f) for f in doc["value_fixed"]],
        )


def _value_fixed(m, tight, si, beta) -> frozenset:
    """F_i: the elements s of S_i with m(s) = beta_i whose smallest tight
    set meets S_i only in beta_i-valued elements.  T_m(s) n S_i is the
    smallest X in S_i with beta_i |X| = p_i(X) that contains s, if any.
    An s inside T_m(w) of a w already in F_i is in F_i, as T_m(s) lies
    within T_m(w), and is not read."""
    fixed = set()
    for s in si:
        if s not in fixed and m[s] == beta:
            ts = tight(s) & si
            if all(m[v] == beta for v in ts):
                fixed |= ts
    return frozenset(fixed)


def value_fixed_set(D: CanonicalDecomposition, B: BaseHandle, i: int) -> frozenset:
    """F_i: the largest X inside S_i with beta_i |X| = p_i(X); its elements
    take the value beta_i in every dec-min element."""
    m = D.decmin_element()
    return _value_fixed(m, member_tight_sets(B, m), D.partition[i], D.betas[i])


def canonical_from_tight_sets(m, tight) -> CanonicalDecomposition:
    """Read the canonical decomposition off a dec-min element m, given its
    smallest m-tight sets tight(u): beta_i is the next largest value outside
    C_{i-1} and C_i is the union of tight(u) over the elements u of value at
    least beta_i.

    Smallest tight sets are closed under intersection, so u in tight(w)
    implies tight(u) within tight(w): C_i starts from C_{i-1} and reads
    tight(u) only for the u outside the union so far (engine.tight_union),
    one read per maximal set instead of one per element."""
    n = len(m)
    chain, partition, betas, counts, value_fixed = [], [], [], [], []
    delta = np.zeros(n, dtype=np.int64)
    covered = frozenset()
    union = set()
    while len(covered) < n:
        beta = max(int(m[v]) for v in range(n) if v not in covered)
        ci = frozenset(tight_union(tight, (u for u in range(n) if m[u] >= beta), union))
        si = ci - covered
        betas.append(beta)
        chain.append(ci)
        partition.append(si)
        counts.append(sum(1 for v in si if m[v] == beta))
        value_fixed.append(_value_fixed(m, tight, si, beta))
        delta[list(si)] = beta - 1
        covered = ci
    return CanonicalDecomposition(
        n=n,
        chain=chain,
        partition=partition,
        betas=betas,
        counts=counts,
        delta_star=delta,
        pi_star=2 * delta + 1,
        value_fixed=value_fixed,
        witness=m.copy(),
    )


def canonical_from_decmin(
    B: BaseHandle, m, check: bool = True
) -> CanonicalDecomposition:
    """Read the canonical chain, partition and essential value-sequence off
    a dec-min element through its smallest tight sets.  The output does not
    depend on which dec-min element is supplied."""
    m = as_intvec(m, B.n)
    tight = tight_sets(B, m)
    if tight is None:
        raise NotDecMinError("element is not in the M-convex set")
    tight = functools.cache(tight)
    if check:
        witness = tightening_pair(m, tight)
        if witness is not None:
            raise NotDecMinError(f"element admits a 1-tightening step {witness}")
    return canonical_from_tight_sets(m, tight)


def decmin_description(D: CanonicalDecomposition) -> tuple:
    """The dec-min set described by D alone, as (lower, upper, blocks):
    beta_i - 1 <= x <= beta_i on each block S_i, and blocks lists each
    (sorted S_i, (beta_i - 1)|S_i| + r_i), the sum x must keep on S_i.
    The dec-min elements are the members of the set that meet all three."""
    blocks = [
        (sorted(si), (beta - 1) * len(si) + r)
        for si, beta, r in zip(D.partition, D.betas, D.counts)
    ]
    lower = D.delta_star.copy()
    return lower, lower + 1, blocks


def decmin_set_membership(D: CanonicalDecomposition, B: BaseHandle, m) -> bool:
    """Exact test for membership in the dec-min set: inside the small box
    beta_i - 1 .. beta_i on each block, every block sum as in D, and a
    member of B."""
    m = as_intvec(m, B.n)
    lower, upper, blocks = decmin_description(D)
    if np.any(m < lower) or np.any(m > upper):
        return False
    if any(int(m[si].sum()) != total for si, total in blocks):
        return False
    return is_member(B, m)


def matroid_Mi_base_test(
    D: CanonicalDecomposition, B: BaseHandle, i: int, L
) -> bool:
    """Is the r_i-element set L (inside S_i) a basis of the block matroid
    M_i, i.e. |L n X| >= p_i(X) - (beta_i - 1)|X| for every X in S_i?

    Tested by composing L with the witness into a candidate vector and
    checking dec-min-set membership (equivalent via the direct-sum
    structure of the dec-min set).
    """
    L = frozenset(L)
    if not L <= D.partition[i]:
        raise ValueError("L must be a subset of the block S_i")
    if len(L) != D.counts[i]:
        raise ValueError(f"|L| must equal r_i = {D.counts[i]}")
    m = D.decmin_element().copy()
    beta = D.betas[i]
    for v in D.partition[i]:
        m[v] = beta if v in L else beta - 1
    return decmin_set_membership(D, B, m)


# ---------------------------------------------------------------------------
# square-sum duality
# ---------------------------------------------------------------------------


def linear_extension(p: SetFunctionOracle, pi) -> float:
    """Lovasz-style extension along the decreasing order of pi:
    p-hat(pi) = p(I_n) pi(s_n) + sum_j p(I_j) (pi(s_j) - pi(s_j+1)).

    Prefixes multiplied by a zero coefficient are skipped, so ties never
    touch -inf values; a -inf prefix with positive coefficient yields -inf.
    """
    pi = _pi_values(pi)
    n = p.n
    if pi.shape != (n,):
        raise ValueError("dual vector has wrong length")
    order = sorted(range(n), key=lambda v: (-int(pi[v]), v))
    total = 0
    mask = 0
    for j, v in enumerate(order):
        mask |= 1 << v
        coeff = int(pi[v]) - (int(pi[order[j + 1]]) if j + 1 < n else 0)
        if coeff == 0:
            continue
        val = p.value(mask)
        if val == NEG_INF:
            return NEG_INF
        total += val * coeff
    return total


@dataclass
class GapReport:
    """Square-sum duality report: W(m), the dual lower bound
    p-hat(pi) - sum floor(pi/2) ceil(pi/2), their gap, and which of the two
    optimality criteria hold."""

    square_sum: int
    lower_bound: float
    gap: float
    o1: bool
    o2: bool


def duality_gap(B: BaseHandle, m, pi) -> GapReport:
    """Evaluate the min-max certificate for the integral square-sum: the
    gap is zero exactly when m minimizes the square-sum and pi is an
    optimal dual, which happens iff (O1) and (O2) both hold."""
    m = as_intvec(m, B.n)
    pi = _pi_values(pi)
    eff = effective_oracle(B)
    w = int(np.sum(m * m))
    phat = linear_extension(eff, pi)
    corr = int(sum((p // 2) * (-(-p // 2)) for p in pi.tolist()))
    lower = NEG_INF if phat == NEG_INF else phat - corr
    gap = math.inf if lower == NEG_INF else w - lower
    o1 = all(m[v] in (pi[v] // 2, -(-pi[v] // 2)) for v in range(B.n))
    o2 = True
    for theta in sorted(set(pi.tolist())):
        zmask = mask_of(v for v in range(B.n) if pi[v] >= theta)
        zsum = int(sum(m[v] for v in range(B.n) if pi[v] >= theta))
        if eff.value(zmask) != zsum:
            o2 = False
            break
    return GapReport(w, lower, gap, o1, o2)


def verify_dual_optimal(D: CanonicalDecomposition, B: BaseHandle, pi) -> bool:
    """Test an integral vector against the full description of the optimal
    dual set: pi = 2 beta_i - 1 outside the value-fixed part, within
    [2 beta_i - 1, 2 beta_i + 1] on it, and monotone along the auxiliary
    arcs that leave the tight family untouched."""
    pi = _pi_values(pi)
    if pi.shape != (D.n,):
        raise ValueError("dual vector has wrong length")
    tight = member_tight_sets(B, D.decmin_element())
    for i in range(D.q):
        beta = D.betas[i]
        fi = D.value_fixed[i]
        for v in D.partition[i]:
            if v in fi:
                if not 2 * beta - 1 <= pi[v] <= 2 * beta + 1:
                    return False
            elif pi[v] != 2 * beta - 1:
                return False
        # st is an arc of D_i iff s lies in T_m(t): T_m(t) n S_i is the
        # smallest X with beta_i |X| = p_i(X) containing t
        for t in fi:
            if any(pi[s] < pi[t] for s in fi & tight(t)):
                return False
    return True


def swap_partner(walk, x: int, ys):
    """The first y of ys with x in T_m(y), i.e. with m + chi_x - chi_y in
    the set, at the walk's m; None when there is none.  A y inside a
    T_m(y') read without x is skipped: T_m(y) lies within T_m(y')."""
    missed: set = set()
    for y in ys:
        if y not in missed:
            got = walk(y)
            if x in got:
                return y
            missed |= got
    return None


def cheapest_decmin(B: BaseHandle, cost, D: Optional[CanonicalDecomposition] = None):
    """A dec-min element minimizing sum c(s) m(s), one cost per element
    (else ValueError): a greedy min-cost basis of each block matroid M_i
    on one walk from D's dec-min element.  The elements of S_i go by cost,
    ties to the beta_i-valued ones in D's element, then to smaller index;
    x is kept iff it is beta_i-valued or swaps in for a beta_i-valued y not
    kept (swap_partner, latest y in that order first), until r_i are kept.
    Of equal-cost answers this is the greedy basis of that order, so D's
    element comes back unchanged when it is cheapest already.  Without D
    the walk is the basic algorithm's from the kind's start (core.start),
    and D is read off the dec-min element it ends at."""
    cost = np.asarray(list(cost), dtype=np.float64)
    if cost.shape != (B.n,):
        raise ValueError(f"one cost per element required: {B.n} elements, {cost.size} costs")
    if D is None:
        walk = start(B)
        tighten(walk)
        m = walk.m
        D = canonical_from_tight_sets(np.array(m, dtype=np.int64), walk)
    else:
        m, walk = D.decmin_element(), None
    for si, beta, r in zip(D.partition, D.betas, D.counts):
        order = sorted(si, key=lambda v: (cost[v], m[v] != beta, v))
        kept = set()
        for x in order:
            if len(kept) == r:
                break
            if m[x] != beta:
                if walk is None:
                    walk = member_tight_sets(B, m)
                    m = walk.m
                free = (y for y in reversed(order) if m[y] == beta and y not in kept)
                y = swap_partner(walk, x, free)
                if y is None:
                    continue
                walk.step(x, y)
            kept.add(x)
    return np.array(m, dtype=np.int64)
