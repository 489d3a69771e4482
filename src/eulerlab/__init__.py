"""Exact arithmetic for joint descent/excedance polynomials.

The package builds joint and refined Eulerian-type distribution
polynomials over the symmetric groups, splits them into palindromic
parts, expands those parts in the gamma basis, verifies the series and
determinant identities they satisfy, and scans rational specializations
for gamma-nonnegativity.  Everything is exact; no floats, ever.

The names below are imported on first use (PEP 562), so ``import
eulerlab`` and each CLI command load only the modules they run.  A
looked-up name is not cached here: the package namespace never changes
after import.
"""

from importlib import import_module

__version__ = "0.1.0"

#: defining module -> the names the package exports from it
_EXPORTS = {
    "checks": ("CHECKS", "CheckResult", "run_checks"),
    "detformula": ("det_at", "det_bareiss", "det_Mnr", "f_at",
                   "reconstruct_a"),
    "distributions": ("FAMILIES", "build_distribution", "classic_eulerian",
                      "derangement_lhs", "derangement_poly", "eulerian_st",
                      "exc_slice", "trivariate", "xi", "xi_transposed"),
    "gfengine": ("f_nkr", "f_nkr_closed", "verify_foata"),
    "mpoly": ("DivisibilityError", "MPoly", "VAR_ORDER"),
    "perms": ("MAX_ENUM_N", "stable_subsets"),
    "qanalog": ("binom_poly", "fubini_number", "gen_binomial", "stirling2",
                "subfactorial"),
    "symmetry": ("GammaExpansion", "ScanReport", "ShapeFlags", "SymDecomp",
                 "a_part", "conjecture_scan", "gamma_expand",
                 "gamma_expand_coeffs", "is_palindromic", "shape_checks",
                 "sym_decompose", "verify_thm20"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
