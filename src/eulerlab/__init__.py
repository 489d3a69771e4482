"""Exact arithmetic for joint descent/excedance polynomials.

The package builds joint and refined Eulerian-type distribution
polynomials over the symmetric groups, splits them into palindromic
parts, expands those parts in the gamma basis, verifies the series and
determinant identities they satisfy, and scans rational specializations
for gamma-nonnegativity.  Everything is exact; no floats, ever.
"""

from .checks import CHECKS, CheckResult, run_checks
from .detformula import (alpha, beta, build_matrix, det_bareiss, det_cofactor,
                         det_Mnr, reconstruct_a, recurrence_f)
from .distributions import (DistributionSpec, FAMILIES, build_distribution,
                            classic_eulerian, derangement_lhs,
                            derangement_poly, eulerian_st, exc_slice,
                            trivariate, xi, xi_transposed)
from .gfengine import (FoataReport, a_series_term, binom_resum, f_nkr,
                       f_nkr_closed, f_series, foata_term, lhs_coeff,
                       lhs_coeff_a, verify_foata)
from .mpoly import (DivisibilityError, MPoly, VAR_ORDER, canonical_vars,
                    exact_divide, reciprocal_in, variables)
from .perms import (MAX_ENUM_N, PermStats, enumerate_perms, inverse,
                    is_derangement, stable_subsets, stats)
from .qanalog import (binom_poly, fubini_number, gen_binomial, stirling2,
                      subfactorial, t_analog)
from .series import USeries
from .symmetry import (GammaExpansion, RecursionReport, ScanReport, ShapeFlags,
                       SymDecomp, a_part, conjecture_scan, gamma_expand,
                       gamma_expand_coeffs, is_palindromic, shape_checks,
                       sym_decompose, verify_thm20)
from .univariate import RatFunc, UPoly, poly_gcd

__version__ = "0.1.0"

__all__ = [
    "CHECKS", "CheckResult", "run_checks",
    "alpha", "beta", "build_matrix", "det_bareiss", "det_cofactor",
    "det_Mnr", "reconstruct_a", "recurrence_f",
    "DistributionSpec", "FAMILIES", "build_distribution", "classic_eulerian",
    "derangement_lhs", "derangement_poly", "eulerian_st", "exc_slice",
    "trivariate", "xi", "xi_transposed",
    "FoataReport", "a_series_term", "binom_resum", "f_nkr", "f_nkr_closed",
    "f_series", "foata_term", "lhs_coeff", "lhs_coeff_a", "verify_foata",
    "DivisibilityError", "MPoly", "VAR_ORDER", "canonical_vars",
    "exact_divide", "reciprocal_in", "variables",
    "MAX_ENUM_N", "PermStats", "enumerate_perms", "inverse",
    "is_derangement", "stable_subsets", "stats",
    "binom_poly", "fubini_number", "gen_binomial", "stirling2",
    "subfactorial", "t_analog",
    "USeries",
    "GammaExpansion", "RecursionReport", "ScanReport", "ShapeFlags",
    "SymDecomp", "a_part", "conjecture_scan", "gamma_expand",
    "gamma_expand_coeffs", "is_palindromic", "shape_checks", "sym_decompose",
    "verify_thm20",
    "RatFunc", "UPoly", "poly_gcd",
    "__version__",
]
