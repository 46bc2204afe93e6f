"""Exact-arithmetic normal forms for para-CR surface jets y = F(a, b, x)
and second-order ODEs y'' = B(x, y, y')."""

from .poly import (Poly, Grading, REGULAR, UNIT, singular_grading,
                   GradingError, SubstitutionError, mono_exps, VARS)
from .series import SolveError, implicit_solve, ode_solve, reciprocal, divide
from .cmoperator import VField, OperatorReport, analyze, decompose, kernel_basis
from .surfaces import SurfaceJet, PointMap, MapError, apply_map, preliminary_reduce
from .regnorm import (NormalFormReport, normalize_jet, geometric_normalize,
                      check_normal_conditions, is_normal)
from .singnorm import (TypeData, SingularReport, finite_type,
                       prelim_reduce_singular, normalize_singular_jet,
                       check_singular_normal, is_singular_normal)
from .odebridge import (OdeJet, EliminationData, ode_to_surface,
                        surface_to_ode, check_ode_normal, is_ode_normal,
                        tresse_first_invariant, linear_ode_surface)
from .autodetect import (TangencyResidual, IsotropyReport, apply_field,
                         is_infinitesimal_automorphism, monomial_pattern_check,
                         isotropy_report, grading_field, rotation_field,
                         square_field, model_fields)

__all__ = [
    "Poly", "Grading", "REGULAR", "UNIT", "singular_grading",
    "GradingError", "SubstitutionError", "mono_exps", "VARS",
    "SolveError", "implicit_solve", "ode_solve", "reciprocal", "divide",
    "VField", "OperatorReport", "analyze", "decompose", "kernel_basis",
    "SurfaceJet", "PointMap", "MapError", "apply_map", "preliminary_reduce",
    "NormalFormReport", "normalize_jet", "geometric_normalize",
    "check_normal_conditions", "is_normal",
    "TypeData", "SingularReport", "finite_type", "prelim_reduce_singular",
    "normalize_singular_jet", "check_singular_normal", "is_singular_normal",
    "OdeJet", "EliminationData", "ode_to_surface", "surface_to_ode",
    "check_ode_normal", "is_ode_normal", "tresse_first_invariant",
    "linear_ode_surface",
    "TangencyResidual", "IsotropyReport", "apply_field",
    "is_infinitesimal_automorphism", "monomial_pattern_check",
    "isotropy_report", "grading_field", "rotation_field", "square_field",
    "model_fields",
]
