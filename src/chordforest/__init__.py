"""Exact counting of tree and forest chord diagrams.

The same numbers are computed three independent ways: closed-form formulas
(:mod:`.formulas`), a truncated formal power-series engine (:mod:`.series`),
and a brute-force enumeration oracle (:mod:`.oracle`).  The ``chordforest
verify`` command cross-checks them.
"""

from .diagrams import (
    Classification,
    classify_chords,
    format_chords,
    from_pairs,
    parse_diagram,
)
from .errors import ConsistencyError
from .formulas import (
    binomial,
    catalan,
    double_factorial_pairings,
    forest_count,
    forest_row,
    kreweras_count,
    lagrange_coeff,
    rooted_forest_count,
    rooted_forest_paper_rows,
    rooted_forest_rows,
    tree_count,
    tree_counts,
    type_sum_forest_count,
)
from .oracle import (
    CountTable,
    brute_force_counts,
    enumerate_diagrams,
    enumerate_types,
)
from .series import rooted_gf, solve_ternary_gf, tree_gf

__version__ = "0.1.0"
