"""The Fourier form of the generator on fixed GK21 panels, against the adaptive oracle.

``symbols.generator_apply_fourier`` evaluates the symbol once on a fixed
panel table over the window of hat-u (``quadrature.radial_edges`` mirrored
about xi = 0, so graded geometrically toward it) and sums it with
``quadrature.integrate_panels``, whose error estimate is the Gauss-vs-Kronrod
difference per panel.  The tests below watch the symbol calls the generator
makes: one per table tried, on a node set symmetric about 0.
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
from symbolkit.quadrature import RADIAL_FLOOR, radial_edges
from symbolkit.symbols import (SymbolField, frozen_triplet, gaussian_bump,
                               generator_apply_fourier, generator_apply_integro,
                               solution_symbol, symbol_from_exponent, symbol_of_model)

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


def _recording(inner: SymbolField, calls: list) -> SymbolField:
    """``inner`` with every batch call's frequency nodes appended to ``calls``."""

    def batch(xs, xis):
        calls.append((xs.shape, xis.copy()))
        return inner.batch_fn(xs, xis)

    return SymbolField(batch_fn=batch, d=1)


def test_one_symbol_call_over_the_whole_table():
    calls = []
    u = gaussian_bump(0.3, 1.2)
    generator_apply_fourier(_recording(model("cp_tanh"), calls), u, 0.4)
    right = radial_edges(float(u.hat_halfwidth(1e-14)), 0.5, "table")
    assert [(shape, xis.shape) for shape, xis in calls] == [((1, 1), (1, 42 * right.size, 1))]


def test_oscillating_symbol_is_retried_on_narrower_panels():
    calls = []
    generator_apply_fourier(_recording(model("atoms-far"), calls), gaussian_bump(), 0.3)
    sizes = [xis.size for _, xis in calls]
    assert len(sizes) > 1 and sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_panel_table_is_graded_toward_zero_and_mirrored():
    calls = []
    u = gaussian_bump()
    generator_apply_fourier(_recording(model("cp_tanh"), calls), u, 0.3)
    (_, xis), = calls
    nodes = np.sort(xis.ravel())
    assert np.array_equal(nodes, -nodes[::-1])           # mirrored bit for bit
    half = float(u.hat_halfwidth(1e-14))
    assert half * (1 - 1e-3) < nodes[-1] < half
    assert np.abs(nodes).min() < RADIAL_FLOOR
    # panels at most 0.5 wide: GK21's widest node gap is 0.149 of a panel's half-width
    assert np.diff(nodes[nodes > 1.0]).max() <= 0.25 * 0.149


def test_narrow_window_keeps_the_grading():
    # a bump 100 wide: hat-u falls below 1e-14 within |xi| < 0.5, one graded table
    calls = []
    u = gaussian_bump(0.0, 100.0)
    half = float(u.hat_halfwidth(1e-14))
    assert half < 0.5
    generator_apply_fourier(_recording(model("cp_tanh"), calls), u, 0.0)
    (_, xis), = calls
    assert xis.size == 42 * radial_edges(half, 0.5, "table").size
    assert np.abs(xis).max() < half and np.abs(xis).min() < RADIAL_FLOOR


def test_nan_symbol_raises():
    # a symbol that is NaN past |xi| = 1: the first table's error estimate is NaN, a
    # failure raised without trying a finer table
    calls = []
    p = SymbolField(batch_fn=lambda xs, xis: np.where(np.abs(xis[..., 0]) > 1.0, np.nan, 1.0)
                    + 0j, d=1, x_independent=True)
    with pytest.raises(QuadratureFailure, match="fourier generator") as err:
        generator_apply_fourier(_recording(p, calls), gaussian_bump(), 0.0)
    assert np.isnan(err.value.achieved)
    assert len(calls) == 1


def test_atoms_at_1000_agree_with_the_integro_form():
    # p oscillates in xi with period 2 pi / 1000: the fourth table, with panels 1/128
    # wide, resolves it; the integro form's atom sum is exactly -1 at x = 0
    driver = LevyTriplet([0.0], [[0.0]],
                         FiniteActivity(1.0, AtomLaw.of([(1000.0, 0.5), (-1000.0, 0.5)])))
    u, phi = gaussian_bump(), co.constant(1.0)
    got = generator_apply_fourier(solution_symbol(driver, phi), u, 0.0)
    want = generator_apply_integro(frozen_triplet(driver, phi, [0.0]), u, 0.0)
    assert want == -1.0
    assert abs(got - want) <= 1e-12


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
    with pytest.raises(QuadratureFailure, match="more than 16384") as err:
        generator_apply_fourier(model("cp_tanh"), u, 0.0)
    assert err.value.achieved is None
