"""Exact engine for Backlund transformation groups of the Painleve systems.

The package verifies, in exact arithmetic over Q(sqrt2), that the generator
tables of the groups W_VI ... W_II satisfy their fundamental relations, are
symplectic, and commute with the Hamiltonian derivations; and that for each
degeneration arrow VI->V, V->IV, V->III, IV->II, III->II a chosen subgroup
of the source group converges, coefficient by coefficient in eps, to the
generator table of the target group.
"""

__version__ = "0.1.0"

from .qsqrt2 import QSqrt2
from .symbols import Symbol, sym
from .poly import MonomialOverflow, Poly
from .ratfn import (
    DenominatorVanishes,
    DivisionByZero,
    RatFn,
    ratfn_equal,
)
from .series import (
    EpsSeries,
    DivergesAtZero,
    DivisionByZeroSeries,
    FloorExceeded,
    NonpositiveValuation,
    NotExpandable,
    binomial_series,
    series_equal,
)
from .exprio import (
    ExprSyntaxError,
    UnknownSymbol,
    load_fixtures,
    parse_expr,
    print_expr,
    print_series,
)
from .systems import (
    PainleveSystem,
    UnsupportedSystem,
    derivation_apply,
    hamiltonian,
    poisson_bracket,
    system,
)
from .groups import (
    BacklundGen,
    apply_word,
    fundamental_relations,
    generator,
    generators,
    verify_commutes_with_derivation,
    verify_constraint_preserved,
    verify_relation,
    verify_symplectic,
)
from .degeneration import (
    DegenerationArrow,
    LiftedGenerator,
    UnsupportedArrow,
    arrow,
    arrows,
    degenerate_hamiltonian,
    hamiltonian_limit,
    lift_generator,
    lift_word,
    limit_action,
    transformed_system_factor,
    verify_subgroup_relations,
)
from .numeric import (
    NearPole,
    Trajectory,
    backlund_numeric_check,
    degeneration_numeric_check,
    eval_ratfn,
    integrate,
)

__all__ = [
    "QSqrt2", "Symbol", "sym", "Poly", "MonomialOverflow", "RatFn", "ratfn_equal",
    "DivisionByZero", "DenominatorVanishes",
    "EpsSeries", "binomial_series", "series_equal", "DivergesAtZero",
    "DivisionByZeroSeries", "FloorExceeded", "NonpositiveValuation",
    "NotExpandable",
    "parse_expr", "print_expr", "print_series", "load_fixtures",
    "ExprSyntaxError", "UnknownSymbol",
    "PainleveSystem", "UnsupportedSystem", "system", "hamiltonian",
    "poisson_bracket", "derivation_apply",
    "BacklundGen", "generators", "generator", "apply_word",
    "fundamental_relations", "verify_relation", "verify_symplectic",
    "verify_commutes_with_derivation", "verify_constraint_preserved",
    "DegenerationArrow", "LiftedGenerator", "UnsupportedArrow", "arrow",
    "arrows", "lift_generator", "lift_word", "limit_action",
    "degenerate_hamiltonian", "hamiltonian_limit",
    "transformed_system_factor", "verify_subgroup_relations",
    "NearPole", "Trajectory", "integrate", "eval_ratfn",
    "backlund_numeric_check", "degeneration_numeric_check",
    "__version__",
]
