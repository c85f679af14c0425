"""Exact Ramsey numbers of path-matchings and 1-cores.

The toolkit computes multicolor Ramsey numbers for path-matchings (linear
forests) and for 1-cores, realized as block covers in covering designs.
Everything is exact: closed forms use integer arithmetic only, search
verdicts come from complete backtracking, and every reported value
carries a validated lower witness.
"""

from .bounds import (BoundsReport, ceil_div, cockayne_lorimer, core_bounds_report,
                     core_upper_degree, core_upper_edgecount, core_upper_main,
                     covering_lower_eh, covering_lower_schonheim,
                     diagonal_guarantee, pm_all3,
                     pm_bounds_report, pm_lowers, pm_standard_value, pm_upper,
                     sorted_targets)
from .coloring import (EdgeColoring, core_lift_coloring,
                       layered_coloring, mono_core_profile, mono_pm_profile,
                       pm_extremal_coloring)
from .core_ramsey import (BlockCover, cover_feasible_with_stats, cover_to_coloring,
                          covering_number, exact_core_ramsey)
from .graphs import SimpleGraph, complete_graph
from .path_matching import (DeficiencyCertificate, deficiency, max_pm_order,
                            packing_oracle)
from .pm_ramsey import (clear_core_cache, exact_pm_ramsey,
                        find_lower_witness, verify_upper)
from .results import (BudgetExceededError, FormulaUnavailableError,
                      RamseyResult, RouteDisagreementError, SearchStats)
from .search import SearchOutcome, enumerate_colorings

__version__ = "0.1.0"

__all__ = [
    "BlockCover", "BoundsReport", "BudgetExceededError", "DeficiencyCertificate",
    "EdgeColoring", "FormulaUnavailableError", "RamseyResult",
    "RouteDisagreementError", "SearchOutcome", "SearchStats",
    "SimpleGraph",
    "ceil_div", "clear_core_cache",
    "cockayne_lorimer", "complete_graph", "core_bounds_report",
    "core_lift_coloring", "core_upper_degree", "core_upper_edgecount",
    "core_upper_main", "cover_feasible_with_stats", "cover_to_coloring", "covering_lower_eh",
    "covering_lower_schonheim", "covering_number", "deficiency",
    "diagonal_guarantee", "enumerate_colorings", "exact_core_ramsey",
    "exact_pm_ramsey", "find_lower_witness",
    "layered_coloring", "max_pm_order", "mono_core_profile",
    "mono_pm_profile", "packing_oracle", "pm_all3",
    "pm_bounds_report", "pm_extremal_coloring", "pm_lowers", "pm_standard_value",
    "pm_upper", "sorted_targets", "verify_upper",
]
