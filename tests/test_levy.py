"""Exponent evaluation, samplers, and sector condition."""

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import symbolkit as sk
from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.levy import (AtomLaw, TemperedPower, eval_exponent_many, exponential,
                            normal_law, sample_step_ensemble, stable_density_coefficient,
                            uniform_law)
from symbolkit.quadrature import gk21_rule
from symbolkit.seeding import rng_at

from reference_quadrature import (_density_exponent_adaptive, _law_exponent_adaptive,
                                  integrate_checked)
from reference_tempered import mp_tempered_exponent


def cp_pm1_triplet(rate=1.0):
    return sk.LevyTriplet([0.0], [[0.0]],
                          sk.FiniteActivity(rate, AtomLaw.of([(1.0, 0.5), (-1.0, 0.5)])))


def catalog_triplets():
    """Named triplets covering every measure variant."""
    return {
        "bm": sk.LevyTriplet([0.0], [[1.0]]),
        "bm_drift": sk.LevyTriplet([1.0], [[1.0]]),
        "cp_pm1": cp_pm1_triplet(),
        "cp_normal": sk.LevyTriplet([0.0], [[0.0]],
                                    sk.FiniteActivity(2.0, normal_law(0.3, 0.5))),
        "cp_normal_narrow": sk.LevyTriplet([0.0], [[0.0]],
                                           sk.FiniteActivity(1.5, normal_law(-5.0, 0.05))),
        "cp_uniform_image": sk.LevyTriplet([0.0], [[0.0]], sk.FiniteActivity(
            1.5, uniform_law(-0.7, 1.9).image(-1.7))),
        "stable_07": sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(0.7)),
        "stable_15": sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.5, 2.0)),
        "tempered": catalog.tempered_density_driver(),
    }


class TestEvalExponent:
    def test_gaussian_half_xi_squared(self):
        trip = sk.LevyTriplet([0.0], [[1.0]])
        assert trip(2.0) == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_zero_frequency_vanishes(self):
        for trip in catalog_triplets().values():
            assert trip(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_atoms_one_minus_cos(self):
        # two unit atoms: psi(xi) = 1 - cos(xi); compensators cancel by symmetry
        val = cp_pm1_triplet()(np.pi)
        assert val == pytest.approx(2.0 + 0.0j, abs=1e-14)

    def test_stable_power_law(self):
        trip = sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.3, 0.7))
        assert trip(-2.0) == pytest.approx(0.7 * 2.0 ** 1.3, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        trip = sk.LevyTriplet([0.0, 0.0], np.eye(2))
        with pytest.raises(sk.DimensionMismatch):
            trip(np.array([1.0, 2.0, 3.0]))

    def test_density_form_matches_closed_form_stable(self):
        # nu(y) = k |y|^{-1-alpha} truncated far out approximates scale |xi|^alpha
        alpha = 0.8
        k = stable_density_coefficient(alpha, 1.0)
        trip = sk.LevyTriplet([0.0], [[0.0]], sk.DensityForm(
            TemperedPower(k, alpha, 0.0), window=4000.0, cutoff=1e-4))
        for xi in (0.7, 2.0):
            val = trip(xi)
            # truncation at the window removes ~2k W^-alpha / alpha of mass
            assert val.real == pytest.approx(abs(xi) ** alpha, rel=5e-3)
            assert abs(val.imag) < 1e-9


class TestExponentProperties:
    @pytest.mark.parametrize("name", sorted(catalog_triplets()))
    def test_hermitian_symmetry(self, name):
        trip = catalog_triplets()[name]
        rng = np.random.default_rng(11)
        xi = rng.uniform(-8, 8, size=(1000, 1))
        vals = eval_exponent_many(trip, xi)
        conj = eval_exponent_many(trip, -xi)
        assert np.abs(conj - vals.conj()).max() <= 1e-10

    @pytest.mark.parametrize("name", sorted(catalog_triplets()))
    def test_nonnegative_real_part(self, name):
        trip = catalog_triplets()[name]
        rng = np.random.default_rng(12)
        xi = rng.uniform(-20, 20, size=(500, 1))
        vals = eval_exponent_many(trip, xi)
        assert vals.real.min() >= -1e-12

    @pytest.mark.parametrize("name", sorted(catalog_triplets()))
    def test_sqrt_subadditive(self, name):
        trip = catalog_triplets()[name]
        rng = np.random.default_rng(13)
        xi = rng.uniform(-10, 10, size=(400, 1))
        eta = rng.uniform(-10, 10, size=(400, 1))
        lhs = np.sqrt(np.abs(eval_exponent_many(trip, xi + eta)))
        rhs = (np.sqrt(np.abs(eval_exponent_many(trip, xi)))
               + np.sqrt(np.abs(eval_exponent_many(trip, eta))))
        assert (lhs <= rhs + 1e-8).all()


class TestSampling:
    def test_pure_drift_deterministic(self):
        trip = sk.LevyTriplet([3.0], [[0.0]])
        step = sample_step_ensemble(trip, 0.5, 1, rng_at(0))
        assert step.smooth[0, 0] == pytest.approx(1.5, abs=1e-15)
        assert not step.jump_counts.any()

    def test_degenerate_process(self):
        trip = sk.LevyTriplet([0.0], [[0.0]])
        step = sample_step_ensemble(trip, 0.9, 1, rng_at(1))
        assert step.smooth[0, 0] == 0.0 and not step.jump_counts.any()

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            sample_step_ensemble(sk.LevyTriplet([0.0], [[1.0]]), 0.0, 1, rng_at(2))

    @pytest.mark.parametrize("name", ["bm", "stable_15", "cp_pm1"])
    def test_nan_dt_rejected(self, name):
        # a NaN dt passed a dt <= 0 test: NaN draws, or numpy's "lam < 0 or lam is NaN"
        trip = catalog_triplets()[name]
        with pytest.raises(ValueError, match="dt must be positive, got nan"):
            sample_step_ensemble(trip, float("nan"), 1, rng_at(2))

    def test_poisson_unit_jump_mean(self):
        # E[increment] = rate * dt * E[jump]; oracle is the Poisson mean formula
        trip = sk.LevyTriplet([0.0], [[0.0]],
                              sk.FiniteActivity(1.0, AtomLaw.of([(1.0, 1.0)])))
        m = 1_000_000
        step = sample_step_ensemble(trip, 0.1, m, rng_at(3))
        total = step.smooth[:, 0].copy()
        np.add.at(total, np.repeat(np.arange(m), step.jump_counts),
                  step.jump_values[:, 0])
        se = total.std(ddof=1) / np.sqrt(m)
        assert abs(total.mean() - 0.1) <= 3 * se

    @pytest.mark.parametrize("name", sorted(catalog_triplets()))
    def test_sampler_matches_exponent(self, name):
        # empirical characteristic function vs exp(-dt psi) at integer xi
        trip = catalog_triplets()[name]
        dt, m = 0.25, 100_000
        step = sample_step_ensemble(trip, dt, m, rng_at(4))
        total = step.smooth[:, 0].copy()
        if step.jump_counts.sum():
            np.add.at(total, np.repeat(np.arange(m), step.jump_counts),
                      step.jump_values[:, 0])
        for xi in range(-5, 6):
            if xi == 0:
                continue
            w = np.exp(1j * xi * total)
            emp = w.mean()
            se = np.sqrt((w.real.var(ddof=1) + w.imag.var(ddof=1)) / m)
            exact = np.exp(-dt * trip(float(xi)))
            assert abs(emp - exact) <= 4 * se, (name, xi, abs(emp - exact), se)


class TestTripletValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            sk.LevyTriplet([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_negative_covariance_rejected(self):
        with pytest.raises(ValueError):
            sk.LevyTriplet([0.0], [[-0.5]])

    def test_sigma_reproduces_covariance(self):
        q = np.array([[2.0, 0.6], [0.6, 1.0]])
        trip = sk.LevyTriplet([0.0, 0.0], q)
        assert np.abs(trip.sigma @ trip.sigma.T - q).max() <= 1e-12

    def test_alpha_two_rejected(self):
        with pytest.raises(ValueError, match="Gaussian"):
            sk.StableSymmetric(2.0)

    def test_atom_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AtomLaw.of([(1.0, 0.6), (-1.0, 0.5)])

    def test_density_auto_window(self):
        # a * e^{-2|y|} tail: [W, 4W] mass below 1e-10 near W ~ 12
        measure = sk.DensityForm(exponential(1.0, 2.0), window=None, cutoff=1e-3)
        assert 8.0 <= measure.window <= 64.0
        from scipy.integrate import quad

        tail = 2 * quad(measure.density, measure.window, 10 * measure.window)[0]
        assert tail < 1e-9

    def test_density_window_must_exceed_cutoff(self):
        with pytest.raises(ValueError, match="window"):
            sk.DensityForm(exponential(1.0, 1.0), window=0.5, cutoff=1.0)


def oracle_measures():
    """Density-on-the-line measures checked against the adaptive oracle (tempered_power 1.5
    apart)."""
    return {
        "tempered": catalog.tempered_density_driver().levy_measure,
        "exponential": sk.LevyTriplet.from_dict({"levy_measure": {
            "kind": "density", "name": "exponential",
            "params": {"a": 1.0, "b": 1.0}}}).levy_measure,
        "frozen_tempered": sk.frozen_triplet(catalog.tempered_density_driver(),
                                             co.constant(0.6), 0.0).levy_measure,
    }


def adaptive_jump_exponent(measure, x1):
    return -_density_exponent_adaptive(measure, x1)


class TestFixedNodeExponent:
    """The closed-form density exponent against the adaptive-quadrature oracle and the
    full-line closed form (the class name is the fixed-node table's it replaced)."""

    @pytest.mark.parametrize("name", sorted(oracle_measures()))
    def test_matches_adaptive_oracle(self, name):
        measure = oracle_measures()[name]
        xi = np.linspace(-20.0, 20.0, 41)
        got = measure.exponent_many(xi[:, None])
        checked = 0
        for x, value in zip(xi, got):
            try:
                want = adaptive_jump_exponent(measure, float(x))
            except sk.QuadratureFailure:
                continue                    # the mpmath tests cover the closed form there
            assert abs(value - want) <= 1e-9, x
            checked += 1
        assert checked >= 30

    def test_tempered_power_15_matches_closed_form(self):
        # nu = |y|^{-5/2} e^{-|y|} has psi(xi) = -2 Gamma(-a) ((1+xi^2)^{a/2} cos(a atan xi) - 1);
        # the window 32 drops mass ~1e-16.
        alpha = 1.5
        measure = sk.LevyTriplet.from_dict({"levy_measure": {
            "kind": "density", "name": "tempered_power",
            "params": {"alpha": alpha}}}).levy_measure
        xi = np.linspace(-20.0, 20.0, 41)
        exact = -2.0 * gamma_fn(-alpha) * (
            (1.0 + xi ** 2) ** (alpha / 2) * np.cos(alpha * np.arctan(np.abs(xi))) - 1.0)
        fixed = measure.exponent_many(xi[:, None])
        assert np.abs(fixed - exact).max() <= 1e-9

    @pytest.mark.parametrize("alpha, xis", [(0.5, (0.3, 2.5, -2.5, 30.0)),
                                            (1.5, (0.3, 2.5, -2.5, 30.0)),
                                            (1.9, (0.3, 2.5, -2.5))])
    def test_adaptive_oracle_matches_closed_form(self, alpha, xis):
        # the oracle once integrated [0, 1e-8] twice (off by 1.25e-3 at alpha = 1.5,
        # xi = 2.5), and one adaptive integral over [1e-8, 1] in y is still off by
        # 1.8e-5 at alpha = 1.5, xi = 0.3, and by 1.6e-4 at alpha = 1.9
        measure = sk.LevyTriplet.from_dict({"levy_measure": {
            "kind": "density", "name": "tempered_power",
            "params": {"alpha": alpha}}}).levy_measure
        for xi in xis:
            exact = -2.0 * gamma_fn(-alpha) * (
                (1.0 + xi ** 2) ** (alpha / 2) * np.cos(alpha * np.arctan(abs(xi))) - 1.0)
            assert abs(-_density_exponent_adaptive(measure, xi) - exact) <= 1e-8

    def test_quadrature_failure_still_raised(self):
        # at |xi| = 1e4 the tempered density's adaptive error estimate is far above 1e-8;
        # the closed form returns the mpmath value there
        trip = catalog.tempered_density_driver()
        with pytest.raises(sk.QuadratureFailure):
            _density_exponent_adaptive(trip.levy_measure, 1e4)
        want = mp_tempered_exponent(1.0, 0.5, 1.0, 40.0, 1e4)
        assert abs(trip(1e4) - complex(want)) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("name", ["tempered", "cp_normal"])
    def test_value_does_not_depend_on_the_batch(self, name):
        measure = {**oracle_measures(), **law_measures()}[name]
        xi = np.linspace(-12.0, 12.0, 97)
        batch = measure.exponent_many(xi[:, None])
        single = np.array([measure.exponent_many(np.array([[x]]))[0] for x in xi])
        assert np.array_equal(batch, single)

    def test_symmetric_density_has_zero_imaginary_part(self):
        measure = oracle_measures()["tempered"]
        vals = measure.exponent_many(np.linspace(-9.0, 9.0, 37)[:, None])
        assert (vals.imag == 0.0).all()


def law_measures():
    """Continuous jump laws, whose exponent is closed form."""
    normal = sk.FiniteActivity(2.0, normal_law(0.3, 0.5))
    return {
        "cp_normal": normal,
        # asymmetric support: the density jumps at -0.7 and 1.9
        "uniform_asym": sk.FiniteActivity(1.5, uniform_law(-0.7, 1.9)),
        "frozen_normal": sk.frozen_triplet(sk.LevyTriplet([0.0], [[0.0]], normal),
                                           co.constant(-1.7), 0.0).levy_measure,
    }


# name -> (law, its parameters, phi of the image, rate) of law_measures() and more
LAW_SPECS = {
    "cp_normal": ("normal", (0.3, 0.5), 1.0, 2.0),
    "uniform_asym": ("uniform", (-0.7, 1.9), 1.0, 1.5),
    "frozen_normal": ("normal", (0.3, 0.5), -1.7, 2.0),
    **{f"{kind}({params[0]:g},{params[1]:g})*{phi:g}": (kind, params, phi, 2.0)
       for kind, params in (("normal", (0.0, 1.0)), ("normal", (0.3, 0.5)),
                            ("normal", (-5.0, 0.05)), ("uniform", (-0.7, 1.9)))
       for phi in (1.0, 1.3, -1.7)},
}


def law_measure(name):
    kind, params, phi, rate = LAW_SPECS[name]
    law = (normal_law if kind == "normal" else uniform_law)(*params)
    return sk.FiniteActivity(rate, law if phi == 1.0 else law.image(phi))


def mp_law_exponent(name, xi):
    """-rate (cf(xi) - 1 - i xi E[Y 1_{|Y|<1}]) of a LAW_SPECS law, in 40-digit mpmath."""
    kind, params, phi, rate = LAW_SPECS[name]
    with mpmath.workdps(40):
        x, ph = mpmath.mpf(xi), mpmath.mpf(phi)
        if kind == "normal":
            m, s = ph * mpmath.mpf(params[0]), abs(ph) * mpmath.mpf(params[1])
            cf = mpmath.exp(1j * x * m - (x * s) ** 2 / 2)
            small = (m * (mpmath.ncdf(1, m, s) - mpmath.ncdf(-1, m, s))
                     - s * s * (mpmath.npdf(1, m, s) - mpmath.npdf(-1, m, s)))
        else:
            a, b = sorted((ph * mpmath.mpf(params[0]), ph * mpmath.mpf(params[1])))
            cf = mpmath.exp(1j * x * (a + b) / 2) * mpmath.sinc(x * (b - a) / 2)
            lo, hi = max(a, -1), min(b, 1)
            small = (hi * hi - lo * lo) / (2 * (b - a)) if hi > lo else 0
        return -rate * (cf - 1 - 1j * x * small)


class TestLawExponent:
    """The closed-form exponent of a continuous jump law against the adaptive oracle and
    mpmath."""

    @pytest.mark.parametrize("name", sorted(law_measures()))
    def test_matches_adaptive_oracle(self, name):
        measure = law_measures()[name]
        xi = np.linspace(-20.0, 20.0, 41)
        got = measure.exponent_many(xi[:, None])
        checked = 0
        for x, value in zip(xi, got):
            try:
                want = _law_exponent_adaptive(measure.law, measure.rate, float(x))
            except sk.QuadratureFailure:
                continue                    # the mpmath tests cover the closed form there
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), x
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("name", ["cp_normal", "uniform_asym"])
    def test_matches_mpmath_beyond_the_oracle(self, name):
        # the oracle fails its own tolerance out here; the closed form does not
        measure = law_measures()[name]
        xi = np.array([25.0, -60.0, 150.0, 400.0, -1000.0])
        failed = 0
        for x in xi:
            try:
                _law_exponent_adaptive(measure.law, measure.rate, float(x))
            except sk.QuadratureFailure:
                failed += 1
        assert failed >= 1
        got = measure.exponent_many(xi[:, None])
        for x, value in zip(xi, got):
            want = mp_law_exponent(name, x)
            assert abs(mpmath.mpc(value) - want) <= 1e-12 * abs(want), x

    @pytest.mark.parametrize("name", sorted(set(LAW_SPECS) - set(law_measures())))
    def test_matches_mpmath(self, name):
        xis = (1e-8, -1e-8, 1e-4, 0.3, 3.0, 30.0, 1e4, 1e8)
        got = law_measure(name).exponent_many(np.array(xis)[:, None])
        for x, value in zip(xis, got):
            want = mp_law_exponent(name, x)
            assert abs(mpmath.mpc(value) - want) <= 1e-12 * abs(want), x


def test_gk21_rule_exactness():
    x, kronrod, gauss = gk21_rule()
    for degree in range(32):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        assert abs(kronrod @ x ** degree - exact) <= 1e-14
        if degree < 20:
            assert abs(gauss @ x ** degree - exact) <= 1e-14
    assert abs(gauss @ x ** 20 - 2.0 / 21) > 1e-8


def test_quadrature_failure_reports_achieved_error():
    with pytest.raises(sk.QuadratureFailure) as err:
        integrate_checked(lambda y: np.exp(-y), 0.0, 50.0, tol=0.0)
    assert err.value.achieved is not None
    assert err.value.achieved > 0.0


class TestSectorConstant:
    def test_symmetric_symbol_hits_floor(self):
        psi = sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.5))
        grid = [np.array([v]) for v in (0.5, 1.0, 2.0, 4.0)]
        assert sk.sector_constant(psi, grid) == pytest.approx(1e-6)

    def test_bm_with_drift(self):
        psi = sk.LevyTriplet([1.0], [[1.0]])
        grid = [np.array([v]) for v in (1.0, 2.0, 4.0)]
        assert sk.sector_constant(psi, grid) == pytest.approx(2.0)

    def test_pure_drift_violates(self):
        psi = sk.LevyTriplet([1.0], [[0.0]])
        with pytest.raises(sk.SectorViolation):
            sk.sector_constant(psi, [np.array([1.0])])

    def test_kappa_floor_value(self):
        kappa = sk.kappa_from_c0(1e-6)
        assert kappa == pytest.approx(1.0 / (2 * np.pi), rel=1e-4)


class TestJson:
    def test_model_from_dict_atoms(self):
        driver = sk.LevyTriplet.from_dict({
            "drift": [0.5], "covariance": [[2.0]],
            "levy_measure": {"kind": "atoms", "rate": 1.0,
                             "atoms": [[1.0, 0.5], [-1.0, 0.5]]}})
        val = driver(np.pi)
        assert val == pytest.approx(0.5 * np.pi ** 2 * 2.0 + 2.0 - 0.5j * np.pi, abs=1e-12)

    def test_model_from_dict_stable_and_zero(self):
        stable = sk.LevyTriplet.from_dict(
            {"drift": [0.0], "levy_measure": {"kind": "stable", "alpha": 1.1}})
        assert stable(2.0) == pytest.approx(2.0 ** 1.1)
        zero = sk.LevyTriplet.from_dict({"drift": [0.0]})
        assert zero(5.0) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            sk.LevyTriplet.from_dict({"drift": [0.0], "levy_measure": {"kind": "bogus"}})
