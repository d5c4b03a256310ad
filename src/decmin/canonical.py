"""Canonical chain/partition and essential value-sequence of an M-convex
set, the matroidal description of its dec-min elements, cheapest dec-min
elements, and the square-sum duality layer (linear extension, min-max
certificate, optimal dual vectors).
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
    smallest_tight_set,
)
from .engine import strongly_poly_decmin, tightening_pair


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

    def block_of(self, v: int) -> int:
        for i, block in enumerate(self.partition):
            if v in block:
                return i
        raise KeyError(v)

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
    smallest X in S_i with beta_i |X| = p_i(X) that contains s, if any."""
    return frozenset(
        s for s in si if m[s] == beta and all(m[v] == beta for v in tight(s) & si)
    )


def value_fixed_set(D: CanonicalDecomposition, B: BaseHandle, i: int) -> frozenset:
    """F_i: the largest X inside S_i with beta_i |X| = p_i(X); its elements
    take the value beta_i in every dec-min element."""
    m = D.decmin_element()
    return _value_fixed(
        m, lambda u: smallest_tight_set(B, m, u), D.partition[i], D.betas[i]
    )


def canonical_from_tight_sets(m, tight) -> CanonicalDecomposition:
    """Read the canonical decomposition off a dec-min element m, given its
    smallest m-tight sets tight(u): beta_i is the next largest value outside
    C_{i-1} and C_i is the union of tight(u) over the elements u of value at
    least beta_i."""
    n = len(m)
    chain, partition, betas, counts, value_fixed = [], [], [], [], []
    delta = np.zeros(n, dtype=np.int64)
    covered = frozenset()
    while len(covered) < n:
        beta = max(int(m[v]) for v in range(n) if v not in covered)
        ci = frozenset().union(*(tight(u) for u in range(n) if m[u] >= beta))
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
    tight = functools.cache(lambda u: smallest_tight_set(B, m, u))
    if check:
        if not is_member(B, m):
            raise NotDecMinError("element is not in the M-convex set")
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
            tight = smallest_tight_set(B, D.decmin_element(), t)
            if any(pi[s] < pi[t] for s in fi & tight):
                return False
    return True


def cheapest_decmin(B: BaseHandle, cost, D: Optional[CanonicalDecomposition] = None):
    """A dec-min element minimizing the linear cost sum c(s) m(s).

    Equivalent to a minimum-cost basis of the direct sum of the block
    matroids; solved by local basis exchanges inside each block (single
    swaps certify optimality in a matroid)."""
    cost = np.asarray(list(cost), dtype=np.float64)
    if D is None:
        m = strongly_poly_decmin(B)
        D = canonical_from_decmin(B, m, check=False)
    out = D.decmin_element().copy()
    for i in range(D.q):
        block = sorted(D.partition[i])
        beta = D.betas[i]
        basis = {v for v in block if out[v] == beta}
        # one swap per pass, strictly decreasing cost: never revisits a
        # basis, so the basis count bounds the pass count
        for _ in range(math.comb(len(block), len(basis)) + 1):
            best = None
            for u in sorted(basis):
                for v in block:
                    if v in basis or cost[v] >= cost[u]:
                        continue
                    cand = (basis - {u}) | {v}
                    if matroid_Mi_base_test(D, B, i, cand):
                        saving = cost[u] - cost[v]
                        if best is None or saving > best[0]:
                            best = (saving, u, v)
            if best is None:
                break
            basis.discard(best[1])
            basis.add(best[2])
        else:
            raise RuntimeError("basis local search failed to terminate")
        for v in block:
            out[v] = beta if v in basis else beta - 1
    return out
