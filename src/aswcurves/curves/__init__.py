"""Curve-level analysis of y^p - y = x*R(x) in characteristic 2.

Submodules: base (curve and datum types), lpoly (eigenvalue formulas),
count (enumeration oracle), presentation (existence of a datum behind a
given R and recovery), twists (classification of the linear-coefficient
family), families (closed-form constructions), period (extremality
period and parity over growing fields), zeta (the one home of every
route meeting: the two-route report, the search and the hd-check).
"""

from .base import (
    CurveSpec,
    TwistDatum,
    build_curve,
    format_curve_spec,
    head_curve,
    parse_curve_spec,
)
from .count import DEFAULT_BUDGET, brute_count, psi_sum, trace_zero_count
from .families import (
    ExtremalRecipe,
    HermitianReport,
    PalindromicFamily,
    classify_small_kernel,
    classify_subfield_kernel,
    extremal_from_subspace,
    hermitian_twist,
    palindromic_family,
)
from .lpoly import LPolynomial, l_polynomial
from .period import (
    PeriodParity,
    ScanReport,
    forbidden_pairs,
    impossibility_scan,
    period_parity,
)
from .presentation import (
    PresentationReport,
    parameter_search,
    presentation_conditions,
    recover_datum,
    recover_head,
)
from .twists import TwistClassification, classify_twists, quadratic_extension_maximal
from .zeta import ZetaReport, extremal_search, hd_check, zeta_report

__all__ = [
    "CurveSpec",
    "DEFAULT_BUDGET",
    "ExtremalRecipe",
    "HermitianReport",
    "LPolynomial",
    "PalindromicFamily",
    "PeriodParity",
    "PresentationReport",
    "ScanReport",
    "TwistClassification",
    "TwistDatum",
    "ZetaReport",
    "brute_count",
    "build_curve",
    "classify_small_kernel",
    "classify_subfield_kernel",
    "classify_twists",
    "extremal_from_subspace",
    "extremal_search",
    "forbidden_pairs",
    "format_curve_spec",
    "hd_check",
    "head_curve",
    "hermitian_twist",
    "impossibility_scan",
    "l_polynomial",
    "palindromic_family",
    "parameter_search",
    "parse_curve_spec",
    "period_parity",
    "presentation_conditions",
    "psi_sum",
    "quadratic_extension_maximal",
    "recover_datum",
    "recover_head",
    "trace_zero_count",
    "zeta_report",
]
