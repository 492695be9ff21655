"""Certified zero counting and component bounds for exponential terms.

The package builds a high-accuracy super-logarithm (an Abel function of
exp), evaluates an exp-log term language extended by that function,
counts non-singular zeros of square systems with an interval Krawczyk
operator, and turns certified critical-point counts on compact
thickenings into connected-component bounds for quantifier-free sets.

Each exported name is imported from its module at its first use, so
``import slogcensus`` imports no submodule, and numpy is loaded only by
the modules and functions that compute with it.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "abel": "AbelFunction DominationReport build_abel get_default_abel",
    "census": "CensusReport DeformationPath RadiusReport SquareSystem "
              "SystemParams TrackReport build_system count_nonsingular_zeros "
              "count_over_box load_system_file reduce_phi_complexity "
              "search_radius system_from_dict track_path",
    "errors": "BuildError CertificationError DifferentiationError "
              "DomainError GrowthAnalysisError PathError SlogcensusError "
              "TermSyntaxError",
    "gridoracle": "GridSpec flood_components flood_components_sublevel "
                  "membership_mask oracle_zero_count",
    "intervals": "Box Interval KrawczykResult interval_eval krawczyk_test "
                 "subdivide",
    "morse": "AffineSubspace ComponentReport GammaReport MilnorSchedule "
             "QFFormula affine_restrict atom certify_schedule "
             "component_bound critical_system formula_from_dict "
             "gamma_estimate load_formula_file milnor_tube normalize "
             "oracle_components prove_empty schedule_for_ball wilkie_reduce",
    "terms": "CompiledTerms RAPrimitive TermNode collect_phi_monomials "
             "compile_terms default_catalog differentiate eval_compiled "
             "eval_term exp_n fcpx free_variables gradient gradient_compiled "
             "growth_exponent log_n parse_term substitute to_text",
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
