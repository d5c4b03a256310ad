"""Ground sets, integer vectors, decreasing/increasing orders, set-function
oracles and base-polyhedron primitives.

A base-polyhedron is presented here by an integer-valued, fully
supermodular set-function p with p(empty) = 0 and p(full ground set)
finite:

    B'(p) = {x : x~(S) = p(S), x~(Z) >= p(Z) for every Z},

optionally intersected with an integral box f <= x <= g.  The integral
points of B'(p) form the discrete sets all solvers in this package work
on.  A BaseHandle means the same set to every routine: a set first
described by an intersecting or crossing supermodular function comes
with its fully supermodular one (root vectors in applications do so).
Everything in this module is exact integer arithmetic; minus infinity is
represented by ``float("-inf")`` and saturates.

A derived set function (contraction, restriction, shift, complement and
the box's p_box) is again a TableOracle, built by numpy from the 2^n table
of its inner function, so each costs one table and no per-mask calls.

Every solver begins at start(B, lower, upper), a walk at some member
inside a box: each oracle kind registers one start here, membership is
the start pinned to a vector (tight_sets), and a kind with none starts
at Edmonds' greedy member (_greedy).  Set functions that one network
flow realises (OrientationOracle and its kinds, graph-induced sets among
them) live with that flow, in orientation.

This module also hosts the brute-force point enumeration
(enumerate_integral_points) that the tests and the CLI's --verify scans
use as a verification oracle.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")

DEFAULT_SUBSET_CEILING = 20
DEFAULT_VOLUME_CEILING = 10**6


def __getattr__(name):
    # perfbench/workloads.py builds core.GraphInducedOracle, the class's
    # old home; this alias goes with the next change to the benchmark
    if name == "GraphInducedOracle":
        from .orientation import GraphInducedOracle

        return GraphInducedOracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CeilingExceeded(RuntimeError):
    """Raised when a brute-force scan would exceed the configured ceiling."""


class EmptyBaseError(RuntimeError):
    """Raised when the base-polyhedron has no integral element; ``witness``,
    when set, is a set on which a bound contradicts the set function."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def subset_ceiling() -> int:
    """Largest ground-set size for which 2^n subset scans are allowed."""
    raw = os.environ.get("DECMIN_BRUTE_CEILING")
    return int(raw) if raw else DEFAULT_SUBSET_CEILING


def volume_ceiling() -> int:
    """Largest number of lattice points an exhaustive point scan may touch."""
    raw = os.environ.get("DECMIN_BRUTE_CEILING")
    if raw:
        return max(DEFAULT_VOLUME_CEILING, 2 ** int(raw))
    return DEFAULT_VOLUME_CEILING


# ---------------------------------------------------------------------------
# ground set and integer vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundSet:
    """A finite non-empty ground set with distinct external labels."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("ground set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)


def as_intvec(values: Sequence, n: Optional[int] = None) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    if v.ndim != 1:
        raise ValueError("integer vector must be one-dimensional")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    return v


class Ordering(Enum):
    SMALLER = "smaller"
    VALUE_EQUIVALENT = "value-equivalent"
    LARGER = "larger"


def sorted_dec(x) -> tuple:
    """Components rearranged in decreasing order."""
    return tuple(sorted(x, reverse=True))


def sorted_inc(x) -> tuple:
    return tuple(sorted(x))


def dec_compare(x, y) -> Ordering:
    """Compare two vectors in the decreasing (lexicographic on sorted-desc)
    quasi-order.  Returns SMALLER iff x is decreasingly smaller than y."""
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError("dec_compare needs vectors of equal length")
    sx, sy = sorted_dec(x), sorted_dec(y)
    if sx == sy:
        return Ordering.VALUE_EQUIVALENT
    return Ordering.SMALLER if sx < sy else Ordering.LARGER


def inc_compare(x, y) -> Ordering:
    """Compare in the increasing order: LARGER iff x is increasingly larger
    than y (first differing component of the sorted-asc vectors is bigger)."""
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError("inc_compare needs vectors of equal length")
    sx, sy = sorted_inc(x), sorted_inc(y)
    if sx == sy:
        return Ordering.VALUE_EQUIVALENT
    return Ordering.LARGER if sx > sy else Ordering.SMALLER


def value_equivalent(x, y) -> bool:
    return sorted_dec(x) == sorted_dec(y)


def k_largest_sum(x, k: int):
    """Sum of the k largest components."""
    s = sorted_dec(x)
    return sum(s[:k])


# ---------------------------------------------------------------------------
# subset machinery (masks are plain ints, bit v <-> element v)
# ---------------------------------------------------------------------------


def subset_sums(values: Sequence) -> np.ndarray:
    """All 2^n subset sums of ``values`` as a float array indexed by mask.

    Works with +-inf entries (sums saturate the numpy way, which is the
    saturation the oracle contract asks for)."""
    sums = np.zeros(1, dtype=np.float64)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def iter_masks(n: int):
    return range(1 << n)


def popcounts(n: int) -> np.ndarray:
    """Array of |X| for every mask X, shape (2^n,)."""
    return subset_sums(np.ones(n)).astype(np.int64)


# ---------------------------------------------------------------------------
# set-function oracles
# ---------------------------------------------------------------------------


class SetFunctionOracle:
    """Integer-valued set-function on a ground set of size n.

    ``value(mask)`` returns a python int or NEG_INF.  Subclasses must keep
    value(0) == 0 and value(full) finite when used in the supermodular role.
    """

    kind = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ground set must be non-empty")
        self._n = n
        self._table: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self._n

    def value(self, mask: int):
        raise NotImplementedError

    @property
    def full_mask(self) -> int:
        return (1 << self._n) - 1

    def table(self) -> np.ndarray:
        """All 2^n values as a float array (cached).  Guarded by the subset
        ceiling since it materializes the whole lattice."""
        if self._table is None:
            if self._n > subset_ceiling():
                raise CeilingExceeded(
                    f"n={self._n} exceeds subset ceiling {subset_ceiling()}"
                )
            self._table = np.array(
                [self.value(m) for m in iter_masks(self._n)], dtype=np.float64
            )
        return self._table


class TableOracle(SetFunctionOracle):
    """Explicit table of 2^n values: ints, -inf, and +inf where a
    complement has them.  An integer array is read with one tolist(),
    whose ints are exact; other input goes value by value."""

    kind = "explicit-table"

    def __init__(self, values):
        exact = isinstance(values, np.ndarray) and values.dtype.kind in "iu"
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        n = len(values).bit_length() - 1
        if 1 << n != len(values):
            raise ValueError("table length must be a power of two")
        super().__init__(n)
        if values[0] != 0:
            raise ValueError("value on the empty set must be 0")
        if values[-1] in (NEG_INF, POS_INF):
            raise ValueError("value on the full ground set must be finite")
        self._vals = values if exact else [
            v if v in (NEG_INF, POS_INF) else int(v) for v in values
        ]

    def value(self, mask: int):
        return self._vals[mask]

    def table(self) -> np.ndarray:
        if self._table is None and self._n <= subset_ceiling():
            self._table = np.array(self._vals, dtype=np.float64)
        return super().table()


# ---------------------------------------------------------------------------
# derived set functions: each is a table gathered from its inner function's
# ---------------------------------------------------------------------------


def _values(p: SetFunctionOracle) -> np.ndarray:
    """The 2^n values of p: a table's own exact ints (above 2^53 too), any
    other oracle's cached float table, whose values are small counts."""
    if isinstance(p, TableOracle):
        return np.array(p._vals, dtype=object)
    return p.table()


def _in_ground_set(p: SetFunctionOracle, mask: int) -> list:
    """The elements of mask, which must all lie in p's ground set."""
    if not 0 <= mask <= p.full_mask:
        raise ValueError(f"elements outside the ground set of size {p.n}")
    return [v for v in range(p.n) if mask >> v & 1]


def _embed(keep: Sequence[int]) -> np.ndarray:
    """For every mask over len(keep) elements, the mask it names in the
    inner ground set: bit j becomes bit keep[j]."""
    masks = np.arange(1 << len(keep), dtype=np.int64)
    out = np.zeros_like(masks)
    for j, v in enumerate(keep):
        out |= (masks >> j & 1) << v
    return out


def restrict(p: SetFunctionOracle, keep) -> TableOracle:
    """p | Z: restriction to the elements of Z (keeps their relative
    order); p(Z) must be finite."""
    keep = _in_ground_set(p, mask_of(int(v) for v in keep))
    if not keep:
        raise ValueError("restriction to the empty set")
    return TableOracle(_values(p)[_embed(keep)])


def contract(p: SetFunctionOracle, zap) -> TableOracle:
    """p / Z: contraction, (p/Z)(X) = p(X u Z) - p(Z) on the elements
    outside Z."""
    zmask = zap if isinstance(zap, int) else mask_of(zap)
    _in_ground_set(p, zmask)
    rest = [v for v in range(p.n) if not zmask >> v & 1]
    if not rest:
        raise ValueError("contraction would empty the ground set")
    vals = _values(p)
    if vals[zmask] == NEG_INF:
        raise ValueError("cannot contract a set with value -inf")
    return TableOracle(vals[zmask | _embed(rest)] - vals[zmask])


def complement(p: SetFunctionOracle) -> TableOracle:
    """p-bar(X) = p(S) - p(S - X); -inf values become +inf, and the
    complement of a complement is p again."""
    vals = _values(p)
    if vals[-1] == NEG_INF:
        raise ValueError("complement needs a finite value on the full set")
    return TableOracle(vals[-1] - vals[::-1])  # S - X is mask 2^n - 1 - X


def shift(p: SetFunctionOracle, w) -> TableOracle:
    """p(X) + w~(X): translates the base-polyhedron by the integer vector w."""
    sums = np.zeros(1, dtype=object)  # exact subset sums of w
    for v in as_intvec(w, p.n).tolist():
        sums = np.concatenate([sums, sums + v])
    return TableOracle(_values(p) + sums)


# ---------------------------------------------------------------------------
# base handles and the membership / exchange / tight-set primitives
# ---------------------------------------------------------------------------

@dataclass
class BaseHandle:
    """An M-convex set: a fully supermodular oracle and an optional
    integral box f <= x <= g."""

    oracle: SetFunctionOracle
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.oracle.n
        if self.lower is not None:
            self.lower = np.asarray(self.lower, dtype=np.float64)
            if self.lower.shape != (n,):
                raise ValueError("box lower bound has wrong length")
        if self.upper is not None:
            self.upper = np.asarray(self.upper, dtype=np.float64)
            if self.upper.shape != (n,):
                raise ValueError("box upper bound has wrong length")
        if (
            self.lower is not None
            and self.upper is not None
            and np.any(self.lower > self.upper)
        ):
            raise ValueError("box must satisfy f <= g")

    @property
    def n(self) -> int:
        return self.oracle.n

    @property
    def has_box(self) -> bool:
        return self.lower is not None or self.upper is not None

    def in_box(self, m: np.ndarray) -> bool:
        if self.lower is not None and np.any(m < self.lower):
            return False
        if self.upper is not None and np.any(m > self.upper):
            return False
        return True


def _boxed_table(p: SetFunctionOracle, lower, upper) -> np.ndarray:
    """p_box(Y) = max_X [p(X) + f~(Y - X) - g~(X - Y)] for every Y, the
    fully supermodular function of B'(p) intersected with the box; missing
    bounds are infinite.  Each element's share of the sum depends only on
    whether it lies in X and in Y, so one max per element turns its X bit
    into its Y bit: O(n 2^n).  A NaN share (inf - inf) counts as -inf.

    EmptyBaseError, with a violated set W as witness, when the box misses
    B'(p), that is unless p_box(empty) = 0 and p_box(S) = p(S): either
    p(W) > g~(W) or f~(W) > p-bar(W)."""
    tab = p.table()  # the subset ceiling fires before any allocation
    f = np.full(p.n, NEG_INF) if lower is None else np.asarray(lower, float)
    g = np.full(p.n, POS_INF) if upper is None else np.asarray(upper, float)
    unmet = np.flatnonzero((f == POS_INF) | (g == NEG_INF))
    if unmet.size:  # f~ <= p-bar cannot see a bound no integer meets
        raise EmptyBaseError("a bound no integer meets", frozenset({int(unmet[0])}))
    box = tab.copy()
    with np.errstate(invalid="ignore"):
        for v in range(p.n):
            view = box.reshape(-1, 2, 1 << v)
            out_x, in_x = view[:, 0].copy(), view[:, 1]
            np.fmax(out_x, in_x - g[v], out=view[:, 0])
            np.fmax(in_x, out_x + f[v], out=view[:, 1])
        if box[0] > 0:
            excess = tab - subset_sums(g)  # p(W) - g~(W)
        elif box[-1] > tab[-1]:
            excess = subset_sums(f) + tab[::-1] - tab[-1]  # f~(W) - p-bar(W)
        else:
            return box
    w = int(np.nanargmax(excess))
    raise EmptyBaseError(
        "the box misses the base-polyhedron",
        frozenset(v for v in range(p.n) if w >> v & 1),
    )


def effective_oracle(B: BaseHandle) -> SetFunctionOracle:
    """The fully supermodular function describing B including its box: the
    table of p_box (see _boxed_table), cached on the handle.  Raises
    CeilingExceeded past the subset ceiling and EmptyBaseError, with a
    violated set as witness, when the box misses B'(p)."""
    if not B.has_box:
        return B.oracle
    if getattr(B, "_eff", None) is None:
        B._eff = TableOracle(_boxed_table(B.oracle, B.lower, B.upper))
    return B._eff


class Walk:
    """A member m of the set that moves in place.

    walk(t) is T_m(t), the unique smallest m-tight set containing t, as a
    frozenset.  walk.step(s, t, limit), for s in T_m(t), moves m to
    m + d (chi_s - chi_t) for some 1 <= d <= limit and returns d; a walk
    that holds a realisation of m (a flow, a set of bases) moves it along,
    so each step costs one path, not a new realisation.  walk.m is the
    current vector and changes in place."""

    m: Sequence

    def __call__(self, t: int) -> frozenset:
        raise NotImplementedError

    def step(self, s: int, t: int, limit: int = 1) -> int:
        raise NotImplementedError


def _greedy(p: SetFunctionOracle, lo=None, hi=None, order=None) -> np.ndarray:
    """Edmonds' greedy member of B'(p) cut by the box lo <= x <= hi (None:
    no bound): m(s_i) = q(Z_i) - q(Z_{i-1}) along the chain Z_i of the
    first i elements of order (default 0, ..., n-1).  Without a box q is
    p, read at the n prefixes; with one it is p_box (_boxed_table: 2^n
    values, behind the subset ceiling).  EmptyBaseError on a -inf prefix."""
    order = list(range(p.n) if order is None else order)
    masks = list(itertools.accumulate(1 << v for v in order))
    if lo is None and hi is None:
        chain = [p.value(x) for x in masks]
    else:
        tab = _boxed_table(p, lo, hi)
        chain = [tab[x] for x in masks]
    if NEG_INF in chain:
        raise EmptyBaseError("the greedy chain meets a -inf value")
    m = np.zeros(p.n, dtype=np.int64)
    m[order] = np.diff(chain, prepend=0)
    return m


class _Rereading(Walk):
    """The walk of a kind that holds no realisation: read(B, m) gives
    tight(t), and each step moves one unit; the new vector is read on the
    next tight-set call, so a last step costs no read."""

    def __init__(self, read, B: BaseHandle, m, tight):
        self.m = m
        self._read, self._B, self._tight = read, B, tight

    def __call__(self, t: int) -> frozenset:
        if self._tight is None:
            self._tight = self._read(self._B, self.m)
        return self._tight(t)

    def step(self, s: int, t: int, limit: int = 1) -> int:
        self.m[s] += 1
        self.m[t] -= 1
        self._tight = None
        return 1


def _rereading(read):
    """The start of a kind whose read(B, m) gives tight(t) of a member m
    of B'(p), or None for a non-member: it reads m itself when lo = hi,
    otherwise Edmonds' greedy member in the box (_greedy)."""

    def start(B: BaseHandle, lo, hi) -> Walk:
        pinned = lo is not None and hi is not None and np.array_equal(lo, hi)
        m = as_intvec(lo).copy() if pinned else _greedy(B.oracle, lo, hi)
        tight = read(B, m)
        if tight is None:
            raise EmptyBaseError("no member of the set lies in the box")
        return _Rereading(read, B, m, tight)

    return start


class _InBox(Walk):
    """A walk of the unboxed set seen inside the box f <= x <= g: T_m(t)
    is {t} alone when m(t) sits on f(t), otherwise the unboxed set minus
    the elements at g; a step stops at the bounds."""

    def __init__(self, inner: Walk, f, g):
        self.m = inner.m
        self._inner, self._f, self._g = inner, f, g

    def __call__(self, t: int) -> frozenset:
        m, f, g = self.m, self._f, self._g
        if f is not None and m[t] - 1 < f[t]:
            return frozenset({t})
        return frozenset(s for s in self._inner(t) if s == t or g is None or m[s] + 1 <= g[s])

    def step(self, s: int, t: int, limit: int = 1) -> int:
        m, f, g = self.m, self._f, self._g
        if g is not None:
            limit = min(limit, g[s] - m[s])
        if f is not None:
            limit = min(limit, m[t] - f[t])
        return self._inner.step(s, t, int(limit))


def box_walk(B: BaseHandle, walk: Walk) -> Walk:
    """A walk of the unboxed set B'(p) as a walk of B, box included."""
    return _InBox(walk, B.lower, B.upper) if B.has_box else walk


# one start per oracle kind: start(B, lo, hi) is a Walk of the unboxed set
# B'(p) at a member with lo <= x <= hi (None: no bound), whose vector the
# walk owns, or EmptyBaseError; kinds without one start by Edmonds' greedy
# and scan the 2^n table
_READERS: dict = {}


def register_reader(kind: str, start) -> None:
    _READERS[kind] = start


def _table_tight(B: BaseHandle, m):
    """The subset scan: m is a member iff every subset sum reaches p and
    the full one equals it.  m + chi_s - chi_t is a member iff no m-tight
    set holds t and misses s, so T_m(t) is the intersection of the tight
    masks containing t (the full set is one of them)."""
    tab = B.oracle.table()
    sums = subset_sums(m)
    if sums[-1] != tab[-1] or not np.all(sums >= tab):
        return None
    masks = np.flatnonzero(sums == tab)

    def tight(t: int) -> frozenset:
        x = int(np.bitwise_and.reduce(masks[(masks >> t) & 1 == 1]))
        return frozenset(v for v in range(B.n) if x >> v & 1)

    return tight


_table_start = _rereading(_table_tight)


def _exchange_tight(member, B: BaseHandle, m, t: int) -> frozenset:
    """T_m(t) by one membership query per element: s is in it iff
    m + chi_s - chi_t is a member."""
    out = {t}
    for s in range(B.n):
        m2 = m.copy()
        m2[s] += 1
        m2[t] -= 1
        if s == t or member(B, m2):
            out.add(s)
    return frozenset(out)


def register_membership(kind: str, member) -> None:
    """A start from an exact membership test member(B, m) of the unboxed
    set, for a kind with no reading of its own (matroid aggregates):
    Edmonds' greedy, then the table scan up to the subset ceiling and one
    membership query per element of each tight set beyond it."""

    def tight(B: BaseHandle, m):
        if B.n <= subset_ceiling():
            return _table_tight(B, m)
        if not member(B, m):
            return None
        return functools.partial(_exchange_tight, member, B, m)

    register_reader(kind, _rereading(tight))


def _meet(own, given, pick):
    """The bound pick(own, given), None being no bound; given itself, its
    exact ints kept, when it lies inside own already."""
    if given is None:
        return own
    given = np.asarray(given)
    if own is None:
        return given
    met = pick(own, given)
    return given if np.array_equal(met, given) else met


def start(B: BaseHandle, lower=None, upper=None) -> Walk:
    """A walk of B, box included, at some member with lower <= x <= upper
    (None: no bound): the kind's start on B's box met with these bounds.
    EmptyBaseError, with a witness set when one is known, if none exists."""
    lo, hi = _meet(B.lower, lower, np.maximum), _meet(B.upper, upper, np.minimum)
    if lo is not None and hi is not None and np.any(lo > hi):
        raise EmptyBaseError("the box is empty", frozenset({int(np.argmax(lo > hi))}))
    return box_walk(B, _READERS.get(B.oracle.kind, _table_start)(B, lo, hi))


def tight_sets(B: BaseHandle, m) -> Optional[Walk]:
    """None when m is not in the set (box included), else a Walk at m, the
    start pinned to m: walk(t) is T_m(t), the unique smallest m-tight set
    containing t.

    With a box this is the boxed variant: {t} alone if m(t) sits on the
    lower bound, otherwise the unboxed set minus the elements saturating
    their upper bound.
    """
    m = as_intvec(m, B.n)
    try:  # outside B's box the met bounds cross, and start raises
        return start(B, m, m)
    except EmptyBaseError:
        return None


def member_tight_sets(B: BaseHandle, m) -> Walk:
    """tight_sets(B, m) of a member m; ValueError for any other vector."""
    tight = tight_sets(B, m)
    if tight is None:
        raise ValueError("the vector is not in the M-convex set")
    return tight


def is_member(B: BaseHandle, m) -> bool:
    """Exact membership test of an integer vector in the M-convex set."""
    return tight_sets(B, m) is not None


def exchange_feasible(B: BaseHandle, m, s: int, t: int) -> bool:
    """True iff m + chi_s - chi_t stays in the set (box included): one
    membership query on the shifted vector.

    This is the membership-delta primitive: for m in the set it is
    equivalent to the absence of an m-tight set containing t and avoiding s.
    """
    if s == t:
        raise ValueError("exchange needs distinct elements")
    m2 = as_intvec(m, B.n).copy()
    m2[s] += 1
    m2[t] -= 1
    return is_member(B, m2)


def smallest_tight_set(B: BaseHandle, m, t: int) -> frozenset:
    """T_m(t) of a member m (see tight_sets); ValueError for a non-member."""
    return member_tight_sets(B, m)(t)


def box_intersection_feasible(B: BaseHandle, lower, upper) -> bool:
    """Feasibility of B'(p) intersected with the box T(f, g): p <= g~ and
    f~ <= p-bar on every subset, read off p_box (see _boxed_table)."""
    if np.any(np.asarray(lower, float) > np.asarray(upper, float)):
        raise ValueError("need f <= g")
    try:
        _boxed_table(B.oracle, lower, upper)
    except EmptyBaseError:
        return False
    return True


# ---------------------------------------------------------------------------
# brute-force enumeration (the verification oracle)
# ---------------------------------------------------------------------------


@dataclass
class EnumeratedSet:
    """Explicit list of the integral points of an M-convex set."""

    points: np.ndarray  # shape (count, n)

    def __post_init__(self):
        if self.points.size and len({int(r.sum()) for r in self.points}) > 1:
            raise ValueError("points of an M-convex set share a component sum")

    def __len__(self):
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)


def natural_bounds(B: BaseHandle):
    """Coordinatewise min/max of the set, from p and its complement, merged
    with the handle's box."""
    tab = B.oracle.table()
    n = B.n
    full = (1 << n) - 1
    lo = np.array([tab[1 << v] for v in range(n)])
    hi = np.array(
        [
            POS_INF if tab[full ^ (1 << v)] == NEG_INF
            else tab[full] - tab[full ^ (1 << v)]
            for v in range(n)
        ]
    )
    if B.lower is not None:
        lo = np.maximum(lo, B.lower)
    if B.upper is not None:
        hi = np.minimum(hi, B.upper)
    return lo, hi


def enumerate_integral_points(
    B: BaseHandle, search_box=None
) -> EnumeratedSet:
    """Exhaustive scan for every integral point of B inside ``search_box``
    (defaults to the natural coordinate bounds).  Desk-scale only."""
    n = B.n
    if search_box is not None:
        lo = np.asarray(search_box[0], dtype=np.float64)
        hi = np.asarray(search_box[1], dtype=np.float64)
        blo, bhi = natural_bounds(B)
        lo = np.maximum(lo, blo)
        hi = np.minimum(hi, bhi)
    else:
        lo, hi = natural_bounds(B)
    if np.any(np.isinf(lo)) or np.any(np.isinf(hi)):
        raise CeilingExceeded("unbounded coordinate range; pass a search box")
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    if np.any(hi < lo):
        return EnumeratedSet(np.zeros((0, n), dtype=np.int64))
    widths = hi - lo + 1
    volume = int(np.prod(widths.astype(np.float64)))
    if volume > volume_ceiling():
        raise CeilingExceeded(f"search volume {volume} exceeds ceiling")
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)],
                        indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    tab = B.oracle.table()
    maskmat = ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1).astype(np.float64)
    keep = np.zeros(pts.shape[0], dtype=bool)
    chunk = 4096
    for i in range(0, pts.shape[0], chunk):
        block = pts[i : i + chunk].astype(np.float64)
        sums = block @ maskmat
        ok = np.all(sums >= tab[None, :], axis=1) & (sums[:, -1] == tab[-1])
        keep[i : i + chunk] = ok
    pts = pts[keep]
    if B.lower is not None:
        pts = pts[np.all(pts >= B.lower[None, :], axis=1)]
    if B.upper is not None:
        pts = pts[np.all(pts <= B.upper[None, :], axis=1)]
    order = np.lexsort(pts.T[::-1]) if pts.size else np.arange(0)
    return EnumeratedSet(pts[order])


def brute_decmin_set(points: np.ndarray):
    """All dec-min elements of an enumerated set plus the optimal sorted
    signature; the independent oracle for the solvers."""
    if points.shape[0] == 0:
        raise EmptyBaseError("no integral points")
    signatures = [sorted_dec(row) for row in points]
    best = min(signatures)
    sel = np.array([sig == best for sig in signatures])
    return points[sel], best


# ---------------------------------------------------------------------------
# explicit-table JSON interface
# ---------------------------------------------------------------------------


def text_parser(fn):
    """Report malformed input as ValueError: the failed lookups of a parser
    (a missing key or token, a value of the wrong type) become one."""

    @functools.wraps(fn)
    def parse(text: str):
        try:
            return fn(text)
        except (IndexError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed input: {exc!r}") from None

    return parse


@text_parser
def load_table_json(text: str) -> TableOracle:
    """Set-function table format: {"n": k, "values": {"<mask>": int|"-inf"}}.
    Missing masks default to -inf except the empty set, which is 0; n must
    lie in 1..subset_ceiling(), checked before the 2^n values exist."""
    doc = json.loads(text)
    n = int(doc["n"])
    if n < 1:
        raise ValueError(f"a table needs n >= 1, not {n}")
    if n > subset_ceiling():
        raise CeilingExceeded(f"a table on n={n} exceeds subset ceiling {subset_ceiling()}")
    vals = [NEG_INF] * (1 << n)
    vals[0] = 0
    for key, raw in doc.get("values", {}).items():
        mask = int(key)
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {key} out of range for n={n}")
        vals[mask] = NEG_INF if raw == "-inf" else int(raw)
    return TableOracle(vals)


def dump_table_json(p: SetFunctionOracle) -> str:
    values = {}
    for mask in iter_masks(p.n):
        v = p.value(mask)
        if mask == 0:
            continue
        values[str(mask)] = "-inf" if v == NEG_INF else int(v)
    return json.dumps({"n": p.n, "values": values})
