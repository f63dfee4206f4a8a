"""symbolkit: symbols of Levy-driven SDE solutions.

Evaluate the characteristic exponent of a driving Levy process, simulate the
SDE dX = Phi(X_-) dZ + Psi(X_-) dt, estimate the solution's symbol p(x, xi)
by small-time Monte Carlo, cross-check the generator in its two
representations, and derive generalized Blumenthal-Getoor indices and
path-regularity diagnostics from the symbol.

The public names below and the submodules load on first access
(``sk.beta_inf`` imports ``symbolkit.indices``), so a program pays only for
the modules it uses.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "coefficients": ("CoefficientField",),
    "errors": ("BijectivityViolation", "ConfigError", "DegenerateSymbol", "DimensionMismatch",
               "NonConvergence", "QuadratureFailure", "SectorViolation", "SimulationOverflow",
               "SymbolkitError"),
    "levy": ("AtomLaw", "ContinuousLaw", "DensityForm", "FiniteActivity", "LevyTriplet",
             "StableSymmetric", "ZeroMeasure", "kappa_from_c0", "sector_constant"),
    "sde": ("MultiDriverSpec", "SamplePath", "SdeModel", "simulate_multi", "simulate_path"),
    "symbols": ("SymbolField", "TestFunction", "estimate_symbol_mc", "frozen_triplet",
                "gaussian_bump", "generator_apply_fourier", "generator_apply_integro",
                "multi_driver_symbol", "solution_symbol", "symbol_mc_table", "symbol_of_model"),
    "indices": ("IndexReport", "beta_inf", "beta_zero", "big_H", "build_index_report", "eval_g",
                "g_identity_check", "index_transfer_check", "small_h",
                "symbol_bound_diagnostic"),
    "pathstats": ("VariationResult", "gamma_variation", "growth_experiment",
                  "variation_experiment"),
}
_SUBMODULES = ("catalog", "cli", "coefficients", "errors", "indices", "levy", "pathstats",
               "quadrature", "sde", "seeding", "special", "symbols")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + list(_SUBMODULES)


def __getattr__(name):
    module = name if name in _SUBMODULES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's path, so -X importtime reports the module
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
