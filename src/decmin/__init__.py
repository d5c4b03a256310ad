"""decmin: decreasingly minimal (egalitarian) integral elements of
base-polyhedra, with canonical decompositions, square-sum duality
certificates, graph orientation solvers, matroid and flow applications."""

from .core import (
    BaseHandle,
    EmptyBaseError,
    NEG_INF,
    Ordering,
    SetFunctionOracle,
    TableOracle,
    box_intersection_feasible,
    complement,
    contract,
    dec_compare,
    exchange_feasible,
    inc_compare,
    is_member,
    k_largest_sum,
    load_table_json,
    restrict,
    shift,
    smallest_tight_set,
    value_equivalent,
)
from .engine import (
    MeasureReport,
    NDTrace,
    basic_decmin,
    beta_covered_member,
    greedy_member,
    initial_member,
    is_decmin,
    measures,
    newton_dinkelbach,
    one_tightening,
    peak_set,
    pre_decmin_tighten,
    strongly_poly_decmin,
)
from .canonical import (
    CanonicalDecomposition,
    DualVector,
    canonical_from_decmin,
    cheapest_decmin,
    decmin_set_membership,
    duality_gap,
    linear_extension,
    matroid_Mi_base_test,
    value_fixed_set,
    verify_dual_optimal,
)

from .orientation import GraphInducedOracle

# importing the problem modules registers their starts
from . import applications, matroid, netflow, orientation  # noqa: F401

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
