"""Certified zero counting and component bounds for exponential terms.

The package builds a high-accuracy super-logarithm (an Abel function of
exp), evaluates an exp-log term language extended by that function,
counts non-singular zeros of square systems with an interval Krawczyk
operator, and turns certified critical-point counts on compact
thickenings into connected-component bounds for quantifier-free sets.
"""

from .abel import (AbelFunction, DominationReport, build_abel, exp_n,
                   get_default_abel, log_n)
from .census import (CensusReport, DeformationPath, RadiusReport,
                     SquareSystem, SystemParams, TrackReport,
                     build_system, count_nonsingular_zeros, count_over_box,
                     load_system_file, reduce_phi_complexity, search_radius,
                     system_from_dict, track_path)
from .errors import (BuildError, CertificationError, DifferentiationError,
                     DomainError, GrowthAnalysisError, PathError,
                     SlogcensusError, TermSyntaxError)
from .gridoracle import (GridSpec, flood_components,
                         flood_components_sublevel, membership_mask,
                         oracle_zero_count)
from .intervals import (Box, Interval, KrawczykResult, interval_eval,
                        krawczyk_test, subdivide)
from .morse import (AffineSubspace, ComponentReport, GammaReport,
                    MilnorSchedule, QFFormula, affine_restrict, atom,
                    certify_schedule, component_bound, critical_system,
                    formula_from_dict, gamma_estimate, load_formula_file,
                    milnor_tube, normalize, oracle_components, prove_empty,
                    schedule_for_ball, wilkie_reduce)
from .terms import (CompiledTerms, RAPrimitive, TermNode,
                    collect_phi_monomials, compile_terms, default_catalog,
                    differentiate, eval_compiled, eval_term, fcpx,
                    free_variables, gradient, gradient_compiled,
                    growth_exponent, parse_term, substitute, to_text)

__version__ = "0.1.0"

__all__ = [
    "AbelFunction", "AffineSubspace", "Box", "BuildError", "CensusReport",
    "CertificationError", "CompiledTerms", "ComponentReport",
    "DeformationPath", "DifferentiationError", "DomainError",
    "DominationReport", "GammaReport", "GridSpec", "GrowthAnalysisError",
    "Interval", "KrawczykResult", "MilnorSchedule", "PathError",
    "QFFormula", "RAPrimitive", "RadiusReport", "SlogcensusError",
    "SquareSystem", "SystemParams", "TermNode",
    "TermSyntaxError", "TrackReport", "affine_restrict", "atom",
    "build_abel", "build_system", "certify_schedule",
    "collect_phi_monomials", "compile_terms", "component_bound",
    "count_nonsingular_zeros", "count_over_box", "critical_system",
    "default_catalog", "differentiate", "eval_compiled", "eval_term",
    "exp_n", "fcpx", "flood_components", "flood_components_sublevel",
    "formula_from_dict", "free_variables", "gamma_estimate",
    "get_default_abel", "gradient", "gradient_compiled", "growth_exponent",
    "interval_eval", "krawczyk_test", "load_formula_file",
    "load_system_file", "log_n", "membership_mask", "milnor_tube",
    "normalize", "oracle_components", "oracle_zero_count", "parse_term",
    "prove_empty", "reduce_phi_complexity", "schedule_for_ball",
    "search_radius", "subdivide", "substitute", "system_from_dict",
    "to_text", "track_path", "wilkie_reduce",
]
