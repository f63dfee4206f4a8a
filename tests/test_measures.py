"""The jump-measure methods against the dispatching functions they replaced.

``image``, ``truncation_shift``, ``generator_term`` and ``mass_ratio`` must
reproduce ``tests/reference_measures.py`` bit for bit on every variant; the
two declared exceptions, the mass of a continuous jump law and of a stable
measure with alpha != 1, are checked against mpmath.
"""

import mpmath
import numpy as np
import pytest

import symbolkit as sk
from symbolkit import catalog
from symbolkit.levy import (AtomLaw, normal_law, sample_step_ensemble,
                            stable_density_coefficient, uniform_law)
from symbolkit.seeding import rng_at
from symbolkit.symbols import gaussian_bump

import reference_measures as ref

PHIS = (0.0, 0.6, -0.6, 1.0, -1.7, 3.0)
XI = np.linspace(-12.0, 12.0, 49)[:, None]


def _measures():
    exponential = sk.LevyModel.from_dict({"levy_measure": {
        "kind": "density", "name": "exponential", "params": {"a": 1.0, "b": 1.0}}})
    return {
        "zero": sk.ZeroMeasure(),
        "atoms_1d": sk.FiniteActivity(1.3, AtomLaw.of(
            [(0.5, 0.3), (-2.0, 0.2), (0.9, 0.1), (-0.5, 0.4)])),
        "atoms_2d": sk.FiniteActivity(0.8, AtomLaw.of(
            [((0.4, -1.2), 0.6), ((-1.5, 0.3), 0.4)])),
        "normal": sk.FiniteActivity(2.0, normal_law(0.3, 0.5)),
        "uniform": sk.FiniteActivity(1.5, uniform_law(-0.7, 1.9)),
        "stable_07": sk.StableSymmetric(0.7, 0.9),
        "stable_10": sk.StableSymmetric(1.0),
        "stable_15": sk.StableSymmetric(1.5, 1.3),
        "tempered": catalog.tempered_density_driver().triplet.levy_measure,
        "exponential": exponential.triplet.levy_measure,
    }


MEASURES = _measures()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn):
    """The value's bits, or the failure's message and achieved error."""
    try:
        return ("value", np.float64(fn()).tobytes())
    except sk.QuadratureFailure as exc:
        return ("error", str(exc), exc.achieved)


def test_dim_of_each_variant():
    dims = {name: m.dim for name, m in MEASURES.items()}
    assert dims == {"zero": None, "atoms_1d": 1, "atoms_2d": 2, "normal": 1, "uniform": 1,
                    "stable_07": 1, "stable_10": 1, "stable_15": 1, "tempered": 1,
                    "exponential": 1}
    sk.LevyTriplet([0.0, 0.0], np.eye(2), MEASURES["zero"])
    sk.LevyTriplet([0.0, 0.0], np.eye(2), MEASURES["atoms_2d"])
    for name, n in (("atoms_2d", 1), ("atoms_1d", 2), ("stable_15", 2), ("tempered", 2)):
        with pytest.raises(sk.DimensionMismatch):
            sk.LevyTriplet(np.zeros(n), np.eye(n), MEASURES[name])


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_image_matches_reference(name, phi):
    measure = MEASURES[name]
    got, want = measure.image(phi), ref._image_measure(measure, phi)
    assert type(got) is type(want)
    if isinstance(want, sk.ZeroMeasure):
        return
    if isinstance(want, sk.FiniteActivity):
        assert got.rate == want.rate
        if isinstance(want.law, sk.ContinuousLaw):
            assert (got.law.name, got.law.support) == (want.law.name, want.law.support)
    if isinstance(want, sk.DensityForm):
        assert ((got.name, got.window, got.cutoff, got.activity, got.small_jump_drift)
                == (want.name, want.window, want.cutoff, want.activity, want.small_jump_drift))
    assert same_bits(got.exponent_many(XI), want.exponent_many(XI))
    steps = [sample_step_ensemble(sk.LevyTriplet([0.0], [[0.0]], m), 0.05, 257, rng_at(3, 0))
             for m in (got, want)]
    for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
        assert same_bits(getattr(steps[0], field), getattr(steps[1], field))


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_truncation_shift_matches_reference(name, phi):
    measure = MEASURES[name]
    assert same_bits(np.float64(measure.truncation_shift(phi)),
                     np.float64(ref._drift_indicator_correction(measure, phi)))


@pytest.mark.parametrize("x", [0.0, 0.4, -1.3])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_generator_term_matches_reference(name, x):
    measure, u = MEASURES[name], gaussian_bump(0.2, 0.8)
    assert (outcome(lambda: measure.generator_term(u, x))
            == outcome(lambda: ref._jump_generator_term(measure, u, x)))


@pytest.mark.parametrize("name", sorted(set(MEASURES) - {"normal", "uniform", "stable_07",
                                                          "stable_15"}))
def test_mass_ratio_matches_reference(name):
    # stable_10 included: the closed form gives the old quad value bit for bit at alpha = 1
    measure = MEASURES[name]
    assert same_bits(np.float64(measure.mass_ratio()), np.float64(ref._jump_mass_ratio(measure)))


def _mp_normal_mass(mean, std):
    mpmath.mp.dps = 30
    m, s = mpmath.mpf(mean), mpmath.mpf(std)
    f = lambda y: y * y / (1 + y * y) * mpmath.npdf(y, m, s)
    return float(mpmath.quad(f, [-mpmath.inf, m - 5 * s, m, m + 5 * s, mpmath.inf]))


@pytest.mark.parametrize("mean, std", [(0.0, 1.0), (0.3, 0.5), (0.0, 0.1), (2.0, 0.3)])
def test_normal_law_mass_matches_mpmath(mean, std):
    # a quad without breakpoints gave 0.0 for each of these laws
    want = _mp_normal_mass(mean, std)
    assert sk.FiniteActivity(1.0, normal_law(mean, std)).mass_ratio() == pytest.approx(
        want, rel=1e-12, abs=0.0)
    assert sk.FiniteActivity(2.5, normal_law(mean, std)).mass_ratio() == pytest.approx(
        2.5 * want, rel=1e-12, abs=0.0)


def test_uniform_law_mass_matches_mpmath():
    mpmath.mp.dps = 30
    lo, hi = mpmath.mpf("-0.7"), mpmath.mpf("1.9")
    want = float(mpmath.quad(lambda y: y * y / (1 + y * y) / (hi - lo), [lo, 0, 1, hi]))
    got = sk.FiniteActivity(1.0, uniform_law(-0.7, 1.9)).mass_ratio()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, scale", [(0.3, 1.0), (0.7, 0.9), (1.0, 1.0), (1.5, 1.3),
                                          (1.9, 1.0)])
def test_stable_mass_matches_mpmath(alpha, scale):
    # 2 k int_0^inf y^{1-alpha} / (1 + y^2) dy, in y = e^t, where the integrand decays
    # exponentially both ways; quad once counted [0, 1e-10] twice (12% off at alpha = 1.9)
    mpmath.mp.dps = 30
    a = mpmath.mpf(alpha)
    inner = mpmath.quad(lambda t: mpmath.exp((2 - a) * t) / (1 + mpmath.exp(2 * t)),
                        [-mpmath.inf, 0, mpmath.inf])
    want = 2.0 * stable_density_coefficient(alpha, scale) * float(inner)
    got = sk.StableSymmetric(alpha, scale).mass_ratio()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
