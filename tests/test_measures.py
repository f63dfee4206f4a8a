"""The jump-measure methods against the dispatching functions they replaced.

``image``, ``truncation_shift``, ``generator_term`` and ``mass_ratio`` must
reproduce ``tests/reference_measures.py`` bit for bit on every variant; the
declared exceptions are checked against independent references at 1e-12
relative instead.  Those are the integrals now taken on fixed GK21 panel
tables, not by ``quad``:
- the mass of a continuous jump law, a stable measure with alpha != 1 and a
  density: mpmath;
- the truncation shift of a uniform and a normal law: closed forms;
- the generator term of a law: closed forms; of a stable measure: its
  Fourier form in closed form (Gradshteyn-Ryzhik 3.952.8); of a density:
  30-digit mpmath.
A normal law narrower than the old breakpoints -1, 0 and 1 could see has its
small-jump mean, mass, generator term and truncation shift checked against
closed forms too.
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
    exponential = sk.LevyTriplet.from_dict({"levy_measure": {
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
        "tempered": catalog.tempered_density_driver().levy_measure,
        "exponential": exponential.levy_measure,
    }


MEASURES = _measures()


def uniform_truncation_shift(rate, low, high, phi) -> float:
    """phi * rate * int y (1_{|y| < 1/|phi|} - 1_{|y| < 1}) dy / (high - low) on [low, high]."""
    def moment_below(r):
        a, b = max(low, -r), min(high, r)
        return (b * b - a * a) / (2.0 * (high - low)) if b > a else 0.0

    return phi * rate * (moment_below(1.0 / abs(phi)) - moment_below(1.0)) if phi else 0.0


def normal_partial_mean(mean, std, lo, hi) -> float:
    """int_lo^hi y N(mean, std^2)(dy) = m (F(hi) - F(lo)) - s^2 (f(hi) - f(lo)), 30 digits."""
    mpmath.mp.dps = 30
    m, s = mpmath.mpf(mean), mpmath.mpf(std)
    return float(m * (mpmath.ncdf(hi, m, s) - mpmath.ncdf(lo, m, s))
                 - s * s * (mpmath.npdf(hi, m, s) - mpmath.npdf(lo, m, s)))


def uniform_generator_term(rate, low, high, center, width, x) -> float:
    """rate E[u(x+Y) - u(x) - Y u'(x) 1_{|Y|<1}] for Y ~ U(low, high), u = gaussian_bump,
    in 30-digit mpmath: E u(x+Y) = w sqrt(pi/2) (erf((x+high-c)/(w sqrt 2)) -
    erf((x+low-c)/(w sqrt 2))) / (high - low)."""
    with mpmath.workdps(30):
        lo, hi, c, w, x = map(mpmath.mpf, (low, high, center, width, x))
        ux = mpmath.exp(-(x - c) ** 2 / (2 * w * w))
        mean_u = w * mpmath.sqrt(mpmath.pi / 2) * (
            mpmath.erf((x + hi - c) / (w * mpmath.sqrt(2)))
            - mpmath.erf((x + lo - c) / (w * mpmath.sqrt(2)))) / (hi - lo)
        a, b = max(lo, -1), min(hi, 1)
        small = (b * b - a * a) / (2 * (hi - lo)) if b > a else 0
        return float(rate * (mean_u - ux + (x - c) / w ** 2 * ux * small))


def stable_generator_term(alpha, scale, center, width, x) -> float:
    """-int e^{i x xi} scale |xi|^alpha hat-u(xi) dxi for u = gaussian_bump(center, width).

    -scale w sqrt(2/pi) int_0^inf xi^alpha e^{-a xi^2} cos(b xi) dxi, a = w^2/2,
    b = x - c, and the integral is (1/2) a^{-(alpha+1)/2} Gamma((alpha+1)/2)
    1F1((alpha+1)/2; 1/2; -b^2/(4a)) (Gradshteyn-Ryzhik 3.952.8); 30 digits.
    """
    with mpmath.workdps(30):
        al, c, w, x = map(mpmath.mpf, (alpha, center, width, x))
        a, b = w * w / 2, x - c
        h = (al + 1) / 2
        integral = a ** -h * mpmath.gamma(h) * mpmath.hyp1f1(h, 0.5, -b * b / (4 * a)) / 2
        return float(-mpmath.mpf(scale) * w * mpmath.sqrt(2 / mpmath.pi) * integral)


def density_generator_term(measure, center, width, x) -> float:
    """int_0^W (u(x+y) + u(x-y) - 2 u(x)) a y^{-1-alpha} e^{-b y} dy, 30-digit mpmath.

    Below d = 1e-12 the second difference is u''(x) y^2 to 1e-24 relative, so
    that piece is u''(x) a b^{alpha-2} gamma(2 - alpha, b d) (the lower
    incomplete gamma); above it mpmath's quad on the test function itself.
    """
    f = measure.family
    with mpmath.workdps(30):
        a, al, b, top = map(mpmath.mpf, (f.a, f.alpha, f.b, measure.window))
        c, w, x = map(mpmath.mpf, (center, width, x))
        u = lambda z: mpmath.exp(-(z - c) ** 2 / (2 * w * w))
        upp = ((x - c) ** 2 / w ** 4 - 1 / w ** 2) * u(x)
        d = mpmath.mpf("1e-12")
        head = upp * a * b ** (al - 2) * mpmath.gammainc(2 - al, 0, b * d)
        body = mpmath.quad(lambda y: (u(x + y) + u(x - y) - 2 * u(x)) * a * y ** (-1 - al)
                           * mpmath.exp(-b * y),
                           [d, mpmath.mpf("1e-6"), mpmath.mpf("1e-2"), 1, 2, 4, 8, 16, 32, top])
        return float(head + body)


def density_mass(measure) -> float:
    """2 a int_0^W y^{1-alpha} e^{-b y} / (1 + y^2) dy, 30-digit mpmath."""
    f = measure.family
    with mpmath.workdps(30):
        a, al, b, top = map(mpmath.mpf, (f.a, f.alpha, f.b, measure.window))
        return float(2 * a * mpmath.quad(lambda y: y ** (1 - al) * mpmath.exp(-b * y) / (1 + y * y),
                                         [0, 1, top]))


def normal_generator_term(rate, mean, std, center, width, x) -> float:
    """rate E[u(x+Y) - u(x) - Y u'(x) 1_{|Y|<1}] for u = gaussian_bump(center, width).

    E u(x+Y) = w / sqrt(w^2 + s^2) e^{-(x + m - c)^2 / (2 (w^2 + s^2))}.
    """
    v = width ** 2 + std ** 2
    ux = np.exp(-0.5 * ((x - center) / width) ** 2)
    mean_u = width / np.sqrt(v) * np.exp(-0.5 * (x + mean - center) ** 2 / v)
    grad = -(x - center) / width ** 2 * ux
    return rate * (mean_u - ux - grad * normal_partial_mean(mean, std, -1.0, 1.0))


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
            assert ((got.law.name, got.law.support, got.law.points)
                    == (want.law.name, want.law.support, want.law.points))
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
    if name == "uniform":
        # the reference integrates across the law's ends, which quad can miss (9.4e-4
        # off at 1/|phi| = 1.9016); the method stops at them: check the closed form
        assert measure.truncation_shift(phi) == pytest.approx(
            uniform_truncation_shift(1.5, -0.7, 1.9, phi), abs=1e-12)
        return
    if name == "normal" and phi not in (0.0, 1.0):
        # the method's fixed panel table rounds apart from the reference's quad: check
        # the closed form
        r = 1.0 / abs(phi)
        want = phi * 2.0 * (normal_partial_mean(0.3, 0.5, -r, r)
                            - normal_partial_mean(0.3, 0.5, -1.0, 1.0))
        assert measure.truncation_shift(phi) == pytest.approx(want, rel=1e-12, abs=0.0)
        return
    assert same_bits(np.float64(measure.truncation_shift(phi)),
                     np.float64(ref._drift_indicator_correction(measure, phi)))


# the generator terms on fixed panel tables, against independent references; the
# reference's quad raises at stable_15, x = 0
GENERATOR_REFERENCES = {
    "normal": lambda x: normal_generator_term(2.0, 0.3, 0.5, 0.2, 0.8, x),
    "uniform": lambda x: uniform_generator_term(1.5, -0.7, 1.9, 0.2, 0.8, x),
    "stable_07": lambda x: stable_generator_term(0.7, 0.9, 0.2, 0.8, x),
    "stable_10": lambda x: stable_generator_term(1.0, 1.0, 0.2, 0.8, x),
    "stable_15": lambda x: stable_generator_term(1.5, 1.3, 0.2, 0.8, x),
    "tempered": lambda x: density_generator_term(MEASURES["tempered"], 0.2, 0.8, x),
    "exponential": lambda x: density_generator_term(MEASURES["exponential"], 0.2, 0.8, x),
}


@pytest.mark.parametrize("x", [0.0, 0.4, -1.3])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_generator_term_matches_reference(name, x):
    measure, u = MEASURES[name], gaussian_bump(0.2, 0.8)
    if name in GENERATOR_REFERENCES:
        assert measure.generator_term(u, x) == pytest.approx(
            GENERATOR_REFERENCES[name](x), rel=1e-12, abs=0.0)
        return
    assert (outcome(lambda: measure.generator_term(u, x))
            == outcome(lambda: ref._jump_generator_term(measure, u, x)))


@pytest.mark.parametrize("name", sorted(set(MEASURES) - {"normal", "uniform", "stable_07",
                                                          "stable_15"}))
def test_mass_ratio_matches_reference(name):
    # stable_10 included: the closed form gives the old quad value bit for bit at alpha = 1;
    # a density's mass is a fixed panel table: check 30-digit mpmath
    measure = MEASURES[name]
    if isinstance(measure, sk.DensityForm):
        assert measure.mass_ratio() == pytest.approx(density_mass(measure), rel=1e-12, abs=0.0)
        return
    assert same_bits(np.float64(measure.mass_ratio()), np.float64(ref._jump_mass_ratio(measure)))


def _mp_normal_mass(mean, std):
    mpmath.mp.dps = 30
    m, s = mpmath.mpf(mean), mpmath.mpf(std)
    f = lambda y: y * y / (1 + y * y) * mpmath.npdf(y, m, s)
    return float(mpmath.quad(f, [-mpmath.inf, m - 5 * s, m, m + 5 * s, mpmath.inf]))


@pytest.mark.parametrize("mean, std", [(0.0, 1.0), (0.3, 0.5), (0.0, 0.1), (2.0, 0.3),
                                       (-5.0, 0.05), (0.5, 0.001), (1.5, 0.01)])
def test_normal_law_mass_matches_mpmath(mean, std):
    # a quad without breakpoints gave 0.0 for each of these laws
    want = _mp_normal_mass(mean, std)
    assert sk.FiniteActivity(1.0, normal_law(mean, std)).mass_ratio() == pytest.approx(
        want, rel=1e-12, abs=0.0)
    assert sk.FiniteActivity(2.5, normal_law(mean, std)).mass_ratio() == pytest.approx(
        2.5 * want, rel=1e-12, abs=0.0)


# narrow peaks away from -1, 0 and 1, where a quad over [-1000, 1000] with only those
# breakpoints returned about 0; each law's breakpoints are its mean and mean +- 8 std
NARROW = [(0.5, 0.001), (-5.0, 0.05), (1.5, 0.01), (1.3, 0.001), (0.999, 0.002), (0.3, 0.5),
          (0.0, 1.0)]


@pytest.mark.parametrize("mean, std", NARROW)
def test_normal_law_small_mean_is_the_truncated_mean(mean, std):
    want = normal_partial_mean(mean, std, -1.0, 1.0)
    assert normal_law(mean, std).mean_small()[0] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", [0.0, 0.4, -1.3])
@pytest.mark.parametrize("mean, std", NARROW)
def test_normal_law_generator_term_matches_closed_form(mean, std, x):
    got = sk.FiniteActivity(1.5, normal_law(mean, std)).generator_term(gaussian_bump(), x)
    assert got == pytest.approx(normal_generator_term(1.5, mean, std, 0.0, 1.0, x),
                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("phi", [0.5, -0.6, 1.7, -3.0])
@pytest.mark.parametrize("mean, std", NARROW)
def test_normal_law_truncation_shift_matches_closed_form(mean, std, phi):
    # phi * rate * int y (1_{|y| < 1/|phi|} - 1_{|y| < 1}) N(dy)
    r = 1.0 / abs(phi)
    want = phi * 1.5 * (normal_partial_mean(mean, std, -r, r)
                        - normal_partial_mean(mean, std, -1.0, 1.0))
    got = sk.FiniteActivity(1.5, normal_law(mean, std)).truncation_shift(phi)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


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
