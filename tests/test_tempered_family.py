"""The tempered-power density family: closed-form exponent, set-up, sampler table, checks.

The windowed exponent is checked against the mpmath references of
``reference_tempered`` on every alpha the family takes, with and without
tempering, on windows from 0.7 to 4000 and frequencies from 1e-8 to 1e8;
``exponential`` against its elementary closed form.  The measure keeps the
properties of every jump measure (an even, real, nonnegative exponent; the
frozen-triplet identity; the one-step characteristic function of its draws),
and its set-up integrates nothing.
"""

import mpmath
import numpy as np
import pytest

import symbolkit as sk
from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.levy import (DensityForm, TemperedPower, exponential, sample_step_ensemble,
                            tempered_power)
from symbolkit.seeding import rng_at

from reference_tempered import mp_tempered_exponent

XIS = (1e-8, -1e-8, 1e-3, 0.3, 3.0, 30.0, 1e3, 1e8)
ALPHAS = (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 1.5, 1.9)
WINDOWS = (0.7, 3.0, 40.0, 4000.0)


def exponent(family, window, xis):
    return DensityForm(family, window=window, cutoff=1e-4 * window).exponent_many(
        np.array(xis, dtype=float)[:, None])


def assert_matches_mpmath(family, window, xis, rel=1e-14):
    got = exponent(family, window, xis)
    assert (got.imag == 0.0).all()
    for xi, value in zip(xis, got.real):
        want = mp_tempered_exponent(family.a, family.alpha, family.b, window, xi)
        assert abs(mpmath.mpf(value) - want) <= rel * abs(want), (family, window, xi, value)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_exponent_matches_mpmath(alpha):
    for b in (0.5, 1.0, 2.0):
        for window in WINDOWS:
            assert_matches_mpmath(TemperedPower(1.3, alpha, b), window, XIS)


@pytest.mark.parametrize("alpha", [a for a in ALPHAS if a > 0])
def test_truncated_power_matches_mpmath(alpha):
    # b = 0: the truncated stable power, its tail a continued fraction on the imaginary axis
    for window in WINDOWS:
        assert_matches_mpmath(TemperedPower(0.8, alpha, 0.0), window, XIS)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_either_side_of_the_series_reach(alpha):
    # the xi-series ends at |xi| window = 2, where the closed form takes over
    for window in (0.7, 40.0):
        xis = [2.0 / window * f for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6)]
        assert_matches_mpmath(TemperedPower(1.0, alpha, 1.0), window, xis)


@pytest.mark.parametrize("phi", [1.3, -1.7])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 1.9])
def test_image_is_the_family_at_scaled_parameters(alpha, phi):
    measure = DensityForm(TemperedPower(1.0, alpha, 1.0), window=40.0, cutoff=5e-3)
    image = measure.image(phi)
    f = image.family
    assert (f.a, f.alpha, f.b) == (abs(phi) ** alpha, alpha, 1.0 / abs(phi))
    assert (image.window, image.cutoff) == (40.0 * abs(phi), 5e-3 * abs(phi))
    got = image.exponent_many(np.array(XIS)[:, None])
    for xi, value in zip(XIS, got):
        want = mp_tempered_exponent(1.0, alpha, 1.0, 40.0, phi * xi)
        assert abs(mpmath.mpf(value.real) - want) <= 1e-14 * abs(want), xi
        assert value.imag == 0.0


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.5, 1.5), (2.0, 0.5)])
@pytest.mark.parametrize("window", [0.7, 30.0])
def test_exponential_matches_its_elementary_form(a, b, window):
    # 2 a xi^2 / (b (b^2 + xi^2)) less the tail 2 a [e^{-b W} / b - Re(e^{-c W} / c)], c = b - i xi
    got = exponent(exponential(a, b), window, XIS)
    with mpmath.workdps(40):
        b_, w = mpmath.mpf(b), mpmath.mpf(window)
        for xi, value in zip(XIS, got.real):
            x = mpmath.mpf(xi)
            c = b_ - 1j * x
            full = 2 * a * x * x / (b_ * (b_ * b_ + x * x))
            tail = 2 * a * (mpmath.exp(-b_ * w) / b_ - mpmath.re(mpmath.exp(-c * w) / c))
            assert abs(value - (full - tail)) <= 1e-14 * abs(full - tail), xi


def test_exponential_is_the_family_at_alpha_minus_one():
    assert exponential(0.5, 1.5) == TemperedPower(0.5, -1.0, 1.5)
    assert tempered_power() == TemperedPower(1.0, 0.5, 1.0)
    density = exponential(0.5, 1.5).density
    for y in (1e-9, -0.3, 2.0, -40.0):
        assert np.float64(density(y)).tobytes() == np.float64(0.5 * np.exp(-1.5 * abs(y))).tobytes()


# each family variant as a measure: (family, window or None, cutoff)
VARIANTS = {
    "catalog": (tempered_power(1.0, 0.5, 1.0), 40.0, 5e-3),
    "exponential": (exponential(0.5, 1.5), None, 1e-3),
    "log": (TemperedPower(1.0, 0.0, 2.0), None, 1e-2),
    "cauchy-like": (TemperedPower(0.7, 1.0, 1.0), 20.0, 1e-2),
    "alpha-1.5": (TemperedPower(2.0, 1.5, 0.5), None, 2e-2),
    "negative-alpha": (TemperedPower(1.0, -0.5, 1.0), None, 1e-3),
    "truncated-power": (TemperedPower(1.0, 0.8, 0.0), 5.0, 1e-2),
}


def variant(name):
    family, window, cutoff = VARIANTS[name]
    return DensityForm(family, window=window, cutoff=cutoff, name=name)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_exponent_is_even_real_and_nonnegative(name):
    measure = variant(name)
    xi = np.random.default_rng(5).uniform(-50.0, 50.0, size=(400, 1))
    xi = np.concatenate([xi, [[0.0], [1e-8], [2.0 / measure.window], [1e8]]])
    plus, minus = measure.exponent_many(xi), measure.exponent_many(-xi)
    assert plus.tobytes() == minus.tobytes()
    assert (plus.imag == 0.0).all() and (plus.real >= 0.0).all()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_value_does_not_depend_on_the_batch(name):
    measure = variant(name)
    xi = np.concatenate([np.geomspace(1e-6, 1e6, 60), np.linspace(-3.0, 3.0, 25)])[:, None]
    batch = measure.exponent_many(xi)
    single = np.array([measure.exponent_many(x[None, :])[0] for x in xi])
    assert batch.tobytes() == single.tobytes()


@pytest.mark.parametrize("phi", [0.4, -1.7, 3.0])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_frozen_triplet_is_the_scaled_exponent(name, phi):
    driver = sk.LevyTriplet([0.3], [[0.0]], variant(name))
    frozen = sk.frozen_triplet(driver, co.constant(phi), 0.0)
    for xi in (0.3, -1.0, 2.2, 40.0):
        want = driver(phi * xi)
        assert abs(frozen(xi) - want) <= 1e-13 * abs(want), xi


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_one_step_draws_have_the_exponent_characteristic_function(name):
    # the draws drop the jumps below the cutoff, whose exponent is the family's on that window
    measure = variant(name)
    dropped = DensityForm(measure.family, window=measure.cutoff, cutoff=measure.cutoff / 2)
    trip = sk.LevyTriplet([0.0], [[0.0]], measure)
    dt, m = min(0.25, 2.0 / measure.activity), 100_000
    step = sample_step_ensemble(trip, dt, m, rng_at(8))
    total = step.smooth[:, 0].copy()
    np.add.at(total, np.repeat(np.arange(m), step.jump_counts), step.jump_values[:, 0])
    for xi in (0.5, 1.5, 3.0, -4.0):
        w = np.exp(1j * xi * total)
        se = np.sqrt((w.real.var(ddof=1) + w.imag.var(ddof=1)) / m)
        exact = np.exp(-dt * (trip(xi) - dropped.exponent_many(np.array([[xi]]))[0]))
        assert abs(w.mean() - exact) <= 4 * se, (xi, abs(w.mean() - exact), se)


def _two_sided_tables(measure):
    """Both sides' sampler tables, one scalar density call per knot and side: the reference
    the one-sided table and its draws must match bit for bit."""
    grids, cdfs = [], []
    for sgn in (1.0, -1.0):
        y = np.geomspace(measure.cutoff, measure.window, 4096)
        dens = np.array([max(measure.density(sgn * t), 0.0) for t in y])
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(y)
        grids.append(y)
        cdfs.append(np.concatenate([[0.0], np.cumsum(seg)]))
    return grids, cdfs, np.array([cdf[-1] for cdf in cdfs])


def _two_sided_draws(measure, rng, size):
    grids, cdfs, side_mass = _two_sided_tables(measure)
    u = rng.uniform(size=size)
    side = rng.uniform(size=size) * float(side_mass.sum()) >= side_mass[0]
    out = np.empty(size)
    for s, idx in ((0, ~side), (1, side)):
        y = np.interp(u[idx] * side_mass[s], cdfs[s], grids[s])
        out[idx] = y if s == 0 else -y
    return out.reshape(size, 1)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_sampler_table_is_the_scalar_loop_bit_for_bit(name):
    measure = variant(name)
    grids, cdfs, side_mass = _two_sided_tables(measure)
    knots, cdf = measure._table
    for side in (0, 1):
        assert grids[side].tobytes() == knots.tobytes()
        assert cdfs[side].tobytes() == cdf.tobytes()
    assert measure.activity == float(side_mass.sum())
    got = measure.sample_jumps(rng_at(2, 1), 5000)
    assert got.tobytes() == _two_sided_draws(measure, rng_at(2, 1), 5000).tobytes()


def test_sampler_table_is_built_on_the_first_draw():
    driver = catalog.tempered_density_driver()
    frozen = sk.frozen_triplet(driver, co.constant(0.6), 0.0)
    frozen.many(np.linspace(-5.0, 5.0, 11)[:, None])
    assert "_table" not in vars(frozen.levy_measure)
    assert "_table" not in vars(driver.levy_measure)
    sample_step_ensemble(driver, 0.01, 10, rng_at(1))
    assert "_table" in vars(driver.levy_measure)


def test_set_up_and_exponent_integrate_nothing(monkeypatch):
    # no module of the package takes an adaptive integral (see test_lazy_scipy); the
    # tempered set-up and exponent take no panel integral either
    def refuse(*args, **kwargs):
        raise AssertionError("an integral was called")

    monkeypatch.setattr(sk.levy, "integrate_panels", refuse)
    for name in sorted(VARIANTS):
        measure = variant(name)
        for m in (measure, measure.image(-1.7)):
            m.exponent_many(np.array([[1e-3], [0.5], [30.0], [1e6]]))
            m.truncation_shift(-1.7)
            assert m.small_jump_drift == 0.0


@pytest.mark.parametrize("phi", [0.5, -0.5, 2.0, -2.0, 1.0, -1.0, 0.0])
def test_truncation_shift_is_a_signed_zero(phi):
    # the two sides' quad integrals cancel to +0.0, signed by phi and flipped when |phi| > 1
    # (tests/reference_measures.py checks the same bits against the quad form)
    got = catalog.tempered_density_driver().levy_measure.truncation_shift(phi)
    want = 0.0 if abs(phi) in (0.0, 1.0) else (0.0 if (phi > 0) == (abs(phi) < 1) else -0.0)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("params, window", [
    ((1.0, 0.5, 1.0), 32.0), ((1.0, -1.0, 2.0), 16.0), ((1.0, -1.0, 1.0), 32.0),
    ((1.0, 1.5, 1.0), 32.0), ((2.0, 1.2, 0.5), 64.0), ((0.5, 1.9, 3.0), 8.0),
    ((1.0, 0.0, 0.25), 128.0)])
def test_automatic_window_doubles_until_the_tail_is_negligible(params, window):
    # the powers of two the [W, 4W] quad probe picked
    assert DensityForm(TemperedPower(*params)).window == window


@pytest.mark.parametrize("params, key", [
    ((-1.0, 0.5, 1.0), "a"), ((0.0, 0.5, 1.0), "a"), ((1.0, 2.0, 1.0), "alpha"),
    ((1.0, 2.5, 1.0), "alpha"), ((1.0, -1.5, 1.0), "alpha"), ((1.0, 0.5, -1.0), "b"),
    ((True, 0.5, 1.0), "a"), ((1.0, False, 1.0), "alpha"), ((1.0, 0.5, float("nan")), "b"),
    ((float("inf"), 0.5, 1.0), "a"), ((1.0, 0.5, float("inf")), "b"),
    ((1.0, 0.0, 0.0), "alpha"), ((1.0, -1.0, 0.0), "alpha"), ((1.0, "0.5", 1.0), "alpha")])
def test_parameter_check_names_the_field(params, key):
    with pytest.raises(ValueError, match=f"density parameter '{key}'"):
        TemperedPower(*params)


def test_truncated_power_needs_a_window():
    with pytest.raises(ValueError, match="'b' = 0 needs an explicit window"):
        DensityForm(TemperedPower(1.0, 0.8, 0.0))
    assert DensityForm(TemperedPower(1.0, 0.8, 0.0), window=5.0).window == 5.0
