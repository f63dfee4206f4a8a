"""symbolkit: symbols of Levy-driven SDE solutions.

Evaluate the characteristic exponent of a driving Levy process, simulate the
SDE dX = Phi(X_-) dZ + Psi(X_-) dt, estimate the solution's symbol p(x, xi)
by small-time Monte Carlo, cross-check the generator in its two
representations, and derive generalized Blumenthal-Getoor indices and
path-regularity diagnostics from the symbol.
"""

__version__ = "0.1.0"

from .coefficients import CoefficientField
from .errors import (BijectivityViolation, ConfigError, DegenerateSymbol,
                     DimensionMismatch, NonConvergence, QuadratureFailure,
                     SectorViolation, SimulationOverflow, SymbolkitError)
from .levy import (AtomLaw, ContinuousLaw, DensityForm, FiniteActivity, LevyTriplet,
                   StableSymmetric, ZeroMeasure, kappa_from_c0, sample_increment,
                   sector_constant)
from .sde import (MultiDriverSpec, SamplePath, SdeModel, first_exit_time,
                  simulate_multi, simulate_path, stopped_path)
from .symbols import (SymbolField, TestFunction, estimate_symbol_mc, frozen_triplet,
                      gaussian_bump, generator_apply_fourier, generator_apply_integro,
                      multi_driver_symbol, solution_symbol, symbol_mc_table,
                      symbol_of_model)
from .indices import (IndexReport, beta_inf, beta_zero, big_H, build_index_report, eval_g,
                      g_identity_check, index_transfer_check, small_h,
                      symbol_bound_diagnostic)
from .pathstats import (VariationResult, gamma_variation, growth_experiment,
                        variation_experiment)
