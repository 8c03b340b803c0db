"""Exact engine for Backlund transformation groups of the Painleve systems.

The package verifies, in exact arithmetic over Q(sqrt2), that the generator
tables of the groups W_VI ... W_II satisfy their fundamental relations, are
symplectic, and commute with the Hamiltonian derivations; and that for each
degeneration arrow VI->V, V->IV, V->III, IV->II, III->II a chosen subgroup
of the source group converges, coefficient by coefficient in eps, to the
generator table of the target group.
"""

__version__ = "0.1.0"

import importlib

# Public name -> the module that defines it.  Names load on first access
# (PEP 562): importing the package runs none of its modules, and importing
# one module runs only the modules that module imports.
_EXPORTS = {
    name: module
    for module, names in {
        "qsqrt2": ("QSqrt2",),
        "symbols": ("Symbol", "sym"),
        "poly": ("MonomialOverflow", "Poly"),
        "ratfn": ("DenominatorVanishes", "DivisionByZero", "RatFn", "ratfn_equal"),
        "series": (
            "EpsSeries", "DivergesAtZero", "DivisionByZeroSeries", "FloorExceeded",
            "NonpositiveValuation", "NotExpandable", "binomial_series", "series_equal",
        ),
        "exprio": (
            "ExprSyntaxError", "UnknownSymbol", "load_fixtures", "parse_expr",
            "print_expr", "print_series",
        ),
        "systems": (
            "PainleveSystem", "UnsupportedSystem", "derivation_apply", "hamiltonian",
            "poisson_bracket", "system",
        ),
        "groups": (
            "BacklundGen", "apply_word", "fundamental_relations", "generator",
            "generators", "verify_commutes_with_derivation",
            "verify_constraint_preserved", "verify_relation", "verify_symplectic",
        ),
        "degeneration": (
            "DegenerationArrow", "LiftedGenerator", "UnsupportedArrow", "arrow",
            "arrows", "degenerate_hamiltonian", "hamiltonian_limit",
            "lift_generator", "lift_word", "limit_action",
            "transformed_system_factor", "verify_subgroup_relations",
        ),
        "numeric": (
            "NearPole", "Trajectory", "backlund_numeric_check",
            "degeneration_numeric_check", "eval_ratfn", "integrate",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [*_EXPORTS, "__version__"]
