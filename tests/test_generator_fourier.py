"""The Fourier form of the generator on fixed GK21 panels, against the adaptive oracle.

``symbols.generator_apply_fourier`` evaluates the symbol once on a fixed
panel table over the window of hat-u, graded geometrically toward xi = 0,
and takes its error estimate from the Gauss-vs-Kronrod difference per panel.
``reference_generator.generator_apply_fourier`` is the adaptive form it
replaced: two ``quad`` runs, one symbol point per integrand call.  Wherever
the oracle passes, the two agree to 1e-11 relative on every measure variant.
"""

from functools import lru_cache

import numpy as np
import pytest

import reference_generator as ref
from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.errors import QuadratureFailure
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, StableSymmetric,
                            ZeroMeasure, normal_law)
from symbolkit.symbols import (SymbolField, _fourier_panels, gaussian_bump,
                               generator_apply_fourier, solution_symbol,
                               symbol_from_exponent, symbol_of_model)

MODELS = {
    "gaussian": lambda: solution_symbol(LevyTriplet([0.2], [[1.0]], ZeroMeasure()),
                                        co.bump(0.5, 1.0)),
    "atoms": lambda: solution_symbol(
        LevyTriplet([0.0], [[0.0]], FiniteActivity(1.5, AtomLaw.of([(0.5, 0.25), (-2.0, 0.75)]))),
        co.bump(0.5, 1.0)),
    # atoms at +-60: p oscillates in xi with period 0.1, which the 0.5-wide
    # panels do not resolve; the narrower retry tables do
    "atoms-far": lambda: solution_symbol(
        LevyTriplet([0.0], [[0.0]], FiniteActivity(1.0, AtomLaw.of([(60.0, 0.5), (-60.0, 0.5)]))),
        co.bump(0.5, 1.0)),
    "law": lambda: solution_symbol(
        LevyTriplet([0.0], [[0.0]], FiniteActivity(1.0, normal_law(0.0, 1.0))), co.bump(0.5, 1.0)),
    "density": lambda: solution_symbol(catalog.tempered_density_driver(), co.bump(0.5, 1.0)),
    "stable0.5": lambda: solution_symbol(catalog.stable_driver(0.5), co.bump(0.5, 1.0)),
    "stable1.9": lambda: solution_symbol(catalog.stable_driver(1.9), co.bump(0.5, 1.0)),
    "cp_tanh": lambda: symbol_of_model(catalog.cp_tanh()),
    "stable_sin": lambda: symbol_of_model(catalog.stable_sin()),
    "bm_bump_drift": lambda: symbol_of_model(catalog.bm_bump_drift()),
    "cauchy-exponent": lambda: symbol_from_exponent(
        LevyTriplet([0.0], [[0.0]], StableSymmetric(1.0))),
}


@lru_cache(maxsize=None)
def model(name) -> SymbolField:
    return MODELS[name]()


@pytest.mark.parametrize("x", [-1.0, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("name", MODELS)
def test_panels_match_the_adaptive_oracle(name, x):
    p, u = model(name), gaussian_bump()
    try:
        want = ref.generator_apply_fourier(p, u, x)
    except QuadratureFailure:
        pytest.skip("the adaptive oracle misses its own tolerance here")
    got = generator_apply_fourier(p, u, x)
    assert abs(got - want) <= 1e-11 * abs(want), (got, want)


def test_one_symbol_call_over_the_whole_table():
    calls = []
    inner = model("cp_tanh")

    def batch(xs, xis):
        calls.append((xs.shape, xis.shape))
        return inner.batch_fn(xs, xis)

    u = gaussian_bump(0.3, 1.2)
    generator_apply_fourier(SymbolField(batch_fn=batch, d=1), u, 0.4)
    nodes, kronrod, gauss = _fourier_panels(float(u.hat_halfwidth(1e-14)), 0.5)
    assert calls == [((1, 1), (1, nodes.size, 1))]


def test_oscillating_symbol_is_retried_on_narrower_panels():
    calls = []
    inner = model("atoms-far")

    def batch(xs, xis):
        calls.append(xis.shape[1])
        return inner.batch_fn(xs, xis)

    generator_apply_fourier(SymbolField(batch_fn=batch, d=1), gaussian_bump(), 0.3)
    assert len(calls) > 1 and calls == sorted(calls)


def test_panel_table_is_graded_toward_zero_and_mirrored():
    nodes, kronrod, gauss = _fourier_panels(7.5, 0.5)
    assert nodes.shape == kronrod.shape == gauss.shape == (2 * (41 + 14), 21)
    assert np.array_equal(nodes, -nodes[::-1, ::-1])
    width = kronrod.sum(axis=1)
    assert width.sum() == pytest.approx(15.0, rel=1e-14)
    assert width.max() <= 0.5 * (1 + 1e-14)
    assert np.abs(nodes).min() < 1e-12
    assert np.allclose(kronrod.sum(axis=1), gauss.sum(axis=1), rtol=1e-14, atol=0)


def test_narrow_window_keeps_the_grading():
    nodes, kronrod, _ = _fourier_panels(0.2, 0.5)
    assert nodes.shape == (2 * 41, 21)
    assert kronrod.sum() == pytest.approx(0.4, rel=1e-14)


def test_jump_inside_a_panel_raises_with_achieved():
    # p jumps at |xi| = 0.3, inside the panel [0.25, 0.5]
    p = SymbolField(batch_fn=lambda xs, xis: (np.abs(xis[..., 0]) > 0.3) + 0j, d=1,
                    x_independent=True)
    with pytest.raises(QuadratureFailure, match="fourier generator") as err:
        generator_apply_fourier(p, gaussian_bump(), 0.0)
    assert err.value.achieved > 1e-9


def test_odd_symbol_fails_the_imaginary_residual_check():
    # an odd real part is not negative definite: the Fourier integral is imaginary
    p = SymbolField(batch_fn=lambda xs, xis: np.sin(xis[..., 0]) + 0j, d=1,
                    x_independent=True)
    with pytest.raises(QuadratureFailure, match="imaginary residual") as err:
        generator_apply_fourier(p, gaussian_bump(), 0.5)
    assert err.value.achieved > 1e-8


def test_window_too_wide_for_the_table_raises():
    # a bump 1e-4 wide has hat-u above 1e-14 out to |xi| ~ 66,000
    u = gaussian_bump(0.0, 1e-4)
    with pytest.raises(QuadratureFailure, match="panels per side"):
        generator_apply_fourier(model("cp_tanh"), u, 0.0)
