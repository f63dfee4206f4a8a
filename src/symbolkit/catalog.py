"""Named drivers, models, and symbols used by the experiments and the CLI."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import coefficients as coeff
from .coefficients import CoefficientField
from .levy import (AtomLaw, DensityForm, FiniteActivity, LevyTriplet, StableSymmetric,
                   ZeroMeasure, catalog_entry, named, tempered_power)
from .sde import SdeModel
from .symbols import (SymbolField, mixed_power_symbol, power_law_symbol,
                      stable_like_symbol, symbol_from_exponent, symbol_of_model)

# --------------------------------------------------------------------------
# drivers


def bm_driver(variance: float = 1.0) -> LevyTriplet:
    """Standard Brownian driver: psi(xi) = variance * xi^2 / 2."""
    return LevyTriplet([0.0], [[variance]], ZeroMeasure(), name="bm")


def drift_driver(rate: float = 1.0) -> LevyTriplet:
    return LevyTriplet([rate], [[0.0]], ZeroMeasure(), name="drift")


def compound_poisson_pm1(rate: float = 1.0) -> LevyTriplet:
    """Rate-``rate`` compound Poisson with symmetric unit jumps +-1."""
    law = AtomLaw.of([(1.0, 0.5), (-1.0, 0.5)])
    return LevyTriplet([0.0], [[0.0]], FiniteActivity(rate, law), name="cp_pm1")


def poisson_unit(rate: float = 1.0) -> LevyTriplet:
    """Standard Poisson process: unit jumps at rate ``rate``."""
    law = AtomLaw.of([(1.0, 1.0)])
    return LevyTriplet([0.0], [[0.0]], FiniteActivity(rate, law), name="poisson")


def stable_driver(alpha: float, scale: float = 1.0) -> LevyTriplet:
    """Symmetric alpha-stable driver: psi(xi) = scale * |xi|^alpha."""
    return LevyTriplet([0.0], [[0.0]], StableSymmetric(alpha, scale), name=f"stable{alpha}")


def tempered_density_driver(alpha: float = 0.5, decay: float = 1.0,
                            cutoff: float = 5e-3, window: float = 40.0) -> LevyTriplet:
    """Density-form driver nu(y) = |y|^{-1-alpha} e^{-decay |y|}."""
    dens = tempered_power(1.0, alpha, decay)
    return LevyTriplet([0.0], [[0.0]], DensityForm(dens, window=window, cutoff=cutoff,
                                                   name="tempered"), name="tempered")


_DRIVERS = {
    "bm": bm_driver,
    "drift": drift_driver,
    "cp_pm1": compound_poisson_pm1,
    "poisson": poisson_unit,
    "stable": stable_driver,
    "tempered": tempered_density_driver,
}


def resolve_driver(spec: dict) -> LevyTriplet:
    """Named catalog driver (``params``: constructor keywords) or a full triplet object."""
    if "name" in spec:
        return catalog_entry(_DRIVERS, "driver", spec)
    return LevyTriplet.from_dict(spec)


# --------------------------------------------------------------------------
# models


def _model(name: str, driver: LevyTriplet, phi: CoefficientField,
           psi: Optional[CoefficientField] = None) -> SdeModel:
    return SdeModel(coefficient=phi, driver=driver, drift_coefficient=psi, name=name)


def bm_bump() -> SdeModel:
    return _model("bm_bump", bm_driver(), coeff.bump(0.5, 1.0))


def cp_tanh() -> SdeModel:
    return _model("cp_tanh", compound_poisson_pm1(), coeff.tanh_field(2.0, 1.0))


def stable_sin() -> SdeModel:
    return _model("stable_sin", stable_driver(1.0), coeff.sine(2.0, 1.0))


def bm_bump_drift() -> SdeModel:
    return _model("bm_bump_drift", bm_driver(), coeff.bump(0.5, 1.0),
                  coeff.cosine(0.0, 1.0))


def bm_unit() -> SdeModel:
    return _model("bm_unit", bm_driver(), coeff.constant(1.0))


def feller_demo_model() -> SdeModel:
    """dX = -X_- dN with a standard Poisson N: jumps to 0 and stays."""
    return _model("feller_demo", poisson_unit(), coeff.negative_identity())


MODEL_CATALOG = {
    "bm_bump": bm_bump,
    "cp_tanh": cp_tanh,
    "stable_sin": stable_sin,
    "bm_bump_drift": bm_bump_drift,
    "bm_unit": bm_unit,
    "feller_demo": feller_demo_model,
}

# models exercised by the symbol-agreement experiment
AGREEMENT_MODELS = ("bm_bump", "cp_tanh", "stable_sin", "bm_bump_drift")


def _explicit_model(*, coefficient, driver, drift_coefficient=None, label="sde") -> SdeModel:
    phi = coeff.from_dict(coefficient)
    drift = coeff.from_dict(drift_coefficient) if drift_coefficient else None
    return SdeModel(coefficient=phi, driver=resolve_driver(driver), drift_coefficient=drift,
                    name=label)


def resolve_model(spec: dict) -> SdeModel:
    """{"name": catalog} or {"coefficient": ..., "driver": ..., "drift_coefficient"?, "label"?}."""
    if "name" not in spec:
        return _explicit_model(**spec)
    return named(MODEL_CATALOG, "model", spec["name"],
                 {k: v for k, v in spec.items() if k != "name"})


# --------------------------------------------------------------------------
# symbols


def default_stable_like_alpha(y):
    return 1.0 + 0.5 / (1.0 + np.asarray(y) ** 2)


def stable_like() -> SymbolField:
    """|xi|^{alpha(y)} with the default index 1 + 0.5 / (1 + y^2); it takes no parameters."""
    return stable_like_symbol(default_stable_like_alpha, name="stable_like")


_SYMBOLS = {
    "power_law": power_law_symbol,
    "mixed_power": mixed_power_symbol,
    "stable_like": stable_like,
}


def resolve_symbol(spec: dict) -> SymbolField:
    """Named synthetic symbol, {"driver": ...} (its exponent) or {"model": ...} (its solution symbol)."""
    if "model" in spec or "driver" in spec:
        if len(spec) > 1:
            raise ValueError(f"a model or driver symbol takes no other key, got {sorted(spec)}")
        if "model" in spec:
            return symbol_of_model(resolve_model(spec["model"]))
        return symbol_from_exponent(resolve_driver(spec["driver"]))
    return catalog_entry(_SYMBOLS, "symbol", spec)
