"""Analytic symbol, Monte Carlo estimator, and generator cross-checks."""

import numpy as np
import pytest

import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.levy import CharacteristicExponent, normal_law, uniform_law
from symbolkit.symbols import (DEFAULT_LADDER, _extrapolate, empirical_field,
                               gaussian_bump, power_law_symbol, solution_symbol,
                               symbol_from_exponent, symbol_of_model)


def stable1_exponent():
    return CharacteristicExponent(
        sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.0)))


class TestAnalyticSymbol:
    def test_stable_with_sine_coefficient(self):
        # p(x, xi) = |sin(x)|^1 |xi|^1 at x = pi/2, xi = 3
        val = sk.analytic_symbol(stable1_exponent(), co.sine(0.0, 1.0),
                                 np.pi / 2, 3.0)
        assert val == pytest.approx(3.0 + 0.0j, abs=1e-12)

    def test_zero_frequency(self):
        val = sk.analytic_symbol(stable1_exponent(), co.bump(0.5, 1.0), 0.7, 0.0)
        assert val == 0.0

    def test_bm_with_drift_coefficient(self):
        psi = CharacteristicExponent(sk.LevyTriplet([0.0], [[1.0]]))
        c, m = 1.3, 0.4
        val = sk.analytic_symbol(psi, co.constant(c), 2.0, 1.5,
                                 drift_coefficient=co.constant(m))
        assert val == pytest.approx(0.5 * c ** 2 * 1.5 ** 2 - 1j * m * 1.5, abs=1e-12)

    def test_solution_symbol_hermitian_and_zero(self):
        p = symbol_of_model(catalog.bm_bump_drift())
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-3, 3)
            xi = rng.uniform(-5, 5)
            assert p(x, -xi) == pytest.approx(np.conj(p(x, xi)), abs=1e-12)
        assert p(0.3, 0.0) == 0.0

    def test_batch_matches_scalar(self):
        p = symbol_of_model(catalog.stable_sin())
        xs = np.array([[0.1], [0.5], [-2.0]])
        xis = np.array([[1.0], [-2.0], [0.3]])
        batch = p.many(xs, xis)
        for k in range(3):
            assert batch[k] == pytest.approx(p(xs[k], xis[k]), abs=1e-12)


class TestMultiDriverSymbol:
    def test_sums_per_driver_exponents(self):
        spec = sk.MultiDriverSpec([
            (co.constant(1.3), catalog.bm_driver()),
            (co.sine(2.0, 1.0), catalog.stable_driver(1.0)),
        ])
        from symbolkit.symbols import multi_driver_symbol

        p = multi_driver_symbol(spec)
        x, xi = 0.4, 2.0
        want = (0.5 * (1.3 * xi) ** 2
                + abs((2.0 + np.sin(x)) * xi))
        assert p(x, xi) == pytest.approx(want, abs=1e-12)
        assert p(x, 0.0) == 0.0

    def test_matches_exact_characteristic_function(self):
        # constant coefficients: X_t - x = c1 Z1_t + c2 Z2_t exactly, so the
        # ensemble ecf must match e^{-t p(x, xi)} within Monte Carlo error
        from symbolkit.sde import simulate_ensemble
        from symbolkit.symbols import multi_driver_symbol

        spec = sk.MultiDriverSpec([
            (co.constant(0.8), catalog.bm_driver()),
            (co.constant(1.5), catalog.poisson_unit()),
        ])
        p = multi_driver_symbol(spec)
        t, m = 0.25, 200_000
        res = simulate_ensemble(spec.blocks(), None, np.array([0.3]), t, 16, m,
                                seed=13)
        for xi in (0.7, 2.0):
            w = np.exp(1j * xi * (res.terminal[:, 0] - 0.3))
            se = np.sqrt((w.real.var(ddof=1) + w.imag.var(ddof=1)) / m)
            exact = np.exp(-t * p(0.3, xi))
            assert abs(w.mean() - exact) <= 4 * se


class TestExtrapolation:
    def test_affine_recovers_line(self):
        ladder = np.array(DEFAULT_LADDER)
        vals = 2.0 + 3.0 * ladder
        a, se, resid = _extrapolate(ladder, vals, np.zeros(4))
        assert a == pytest.approx(2.0, abs=1e-12)
        assert se == 0.0
        assert np.abs(resid).max() <= 1e-12

    def test_exact_rung_oracle_compound_poisson(self):
        # exact rung value for the CP driver: (1 - e^{-t psi}) / t, psi = 2 at xi = pi
        psi = 2.0
        ladder = np.array(DEFAULT_LADDER)
        vals = (1 - np.exp(-ladder * psi)) / ladder
        a, _, _ = _extrapolate(ladder, vals, np.zeros(4))
        assert a == pytest.approx(psi, abs=2e-3)


class TestEstimateSymbolMc:
    def test_zero_coefficient_exact_zero(self):
        model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver())
        est = sk.estimate_symbol_mc(model, 0.0, 1.0, paths_per_rung=1000, seed=1)
        assert est.estimate == 0.0
        assert est.se == 0.0
        assert est.r_check.consistent

    def test_compound_poisson_at_pi(self):
        # exact E e^{i xi X_t} = e^{-t(1-cos xi)}; p(0, pi) = 2
        model = sk.SdeModel(coefficient=co.constant(1.0),
                            driver=catalog.compound_poisson_pm1())
        est = sk.estimate_symbol_mc(model, 0.0, np.pi, paths_per_rung=40_000, seed=2)
        assert abs(est.estimate - 2.0) <= max(3 * est.se, 0.01)

    def test_bounded_bm_model_matches_analytic(self):
        # Phi = 0.5 + 1/(1+x^2), BM driver: p(0, 2) = 0.5 * 1.5^2 * 4 = 4.5
        model = catalog.bm_bump()
        est = sk.estimate_symbol_mc(model, 0.0, 2.0, paths_per_rung=40_000, seed=3)
        assert abs(est.estimate - 4.5) <= 3 * est.se

    def test_hermitian_estimates(self):
        model = catalog.bm_bump()
        a = sk.estimate_symbol_mc(model, 0.0, 1.5, paths_per_rung=20_000, seed=5,
                                  check_radius=False)
        b = sk.estimate_symbol_mc(model, 0.0, -1.5, paths_per_rung=20_000, seed=6,
                                  check_radius=False)
        joint = np.hypot(a.se, b.se)
        assert abs(b.estimate - np.conj(a.estimate)) <= 3 * joint

    def test_drift_model(self):
        model = catalog.bm_bump_drift()
        p = symbol_of_model(model)
        est = sk.estimate_symbol_mc(model, 1.0, 2.0, paths_per_rung=40_000, seed=7)
        exact = p(1.0, 2.0)
        assert abs(est.estimate - exact) <= max(3 * est.se, 0.05 * (1 + abs(exact)))

    def test_rung_metadata(self):
        model = catalog.bm_bump()
        est = sk.estimate_symbol_mc(model, 0.0, 1.0, paths_per_rung=1000, seed=8,
                                    check_radius=False)
        assert [r.t for r in est.rungs] == list(DEFAULT_LADDER)
        assert all(r.n_paths == 1000 for r in est.rungs)
        assert all(r.se > 0 for r in est.rungs)
        assert est.r_used == pytest.approx(10.0)

    def test_ladder_validation(self):
        model = catalog.bm_bump()
        with pytest.raises(ValueError, match="decreasing"):
            sk.estimate_symbol_mc(model, 0.0, 1.0, t_ladder=(0.01, 0.02),
                                  paths_per_rung=1000, seed=0)
        with pytest.raises(ValueError, match="paths_per_rung"):
            sk.estimate_symbol_mc(model, 0.0, 1.0, paths_per_rung=10, seed=0)

    def test_inconsistent_rungs_raise(self):
        from symbolkit.symbols import RungStat, _consistency_guard

        rungs = [RungStat(t=t, value=v, se=0.001, n_paths=1000, n_steps=10,
                          exited_fraction=0.0)
                 for t, v in zip((0.04, 0.02, 0.01, 0.005), (1.0, 1.0, 1.0, 25.0))]
        _, _, resid = _extrapolate((0.04, 0.02, 0.01, 0.005),
                                   [r.value for r in rungs], [r.se for r in rungs])
        with pytest.raises(sk.NonConvergence):
            _consistency_guard((0.04, 0.02, 0.01, 0.005), rungs, resid)

    def test_table_shares_grid(self):
        model = catalog.bm_bump()
        ests = sk.symbol_mc_table(model, [0.0, 1.0], [0.5, -0.5],
                                  paths_per_rung=1000, seed=9, check_radius=False)
        assert len(ests) == 4
        # shared rung paths: estimate at -xi is exactly the conjugate
        assert ests[1].estimate == pytest.approx(np.conj(ests[0].estimate), abs=1e-14)

    def test_empirical_field_lookup(self):
        model = catalog.bm_bump()
        ests = sk.symbol_mc_table(model, [0.0], [1.0], paths_per_rung=1000,
                                  seed=10, check_radius=False)
        fld = empirical_field(ests)
        assert fld.kind == "empirical"
        assert fld(np.array([0.0]), np.array([1.0])) == ests[0].estimate
        with pytest.raises(KeyError):
            fld(np.array([0.5]), np.array([1.0]))


class TestFrozenTriplet:
    @pytest.mark.parametrize("phi_val", [3.0, 0.25, -1.5, 1.0])
    def test_reproduces_scaled_exponent_atoms(self, phi_val):
        driver = sk.LevyTriplet([0.3], [[0.7]],
                                sk.FiniteActivity(1.3, sk.AtomLaw.of(
                                    [(0.5, 0.7), (-2.0, 0.3)])))
        frozen = sk.frozen_triplet(driver, co.constant(phi_val), 0.0)
        for xi in (0.3, -1.0, 2.2):
            want = sk.eval_exponent(driver, phi_val * xi)
            got = sk.eval_exponent(frozen, xi)
            assert got == pytest.approx(want, abs=1e-12)

    def test_reproduces_scaled_exponent_stable(self):
        driver = sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.3, 0.8))
        frozen = sk.frozen_triplet(driver, co.constant(2.0), 0.0)
        for xi in (0.5, 1.7):
            assert sk.eval_exponent(frozen, xi) == pytest.approx(
                sk.eval_exponent(driver, 2.0 * xi), abs=1e-12)

    @pytest.mark.parametrize("phi_val", [3.0, 0.25, -1.5, 1.0])
    @pytest.mark.parametrize("name", ["normal", "uniform", "tempered", "exponential"])
    def test_reproduces_scaled_exponent_densities(self, name, phi_val):
        # the truncation shift moves mass across |y| = 1 when |phi| != 1
        if name in ("normal", "uniform"):
            law = normal_law(0.3, 0.5) if name == "normal" else uniform_law(-0.7, 1.9)
            measure = sk.FiniteActivity(1.4, law)
        else:
            measure = sk.LevyModel.from_dict({"levy_measure": {
                "kind": "density", "name": "tempered_power" if name == "tempered" else name,
                "params": {"a": 1.0, "b": 1.0}}}).triplet.levy_measure
        driver = sk.LevyTriplet([0.3], [[0.0]], measure)
        frozen = sk.frozen_triplet(driver, co.constant(phi_val), 0.0)
        for xi in (0.3, -1.0, 2.2):
            want = sk.eval_exponent(driver, phi_val * xi)
            assert abs(sk.eval_exponent(frozen, xi) - want) <= 1e-10

    def test_zero_coefficient_freezes_to_origin(self):
        driver = catalog.compound_poisson_pm1().triplet
        frozen = sk.frozen_triplet(driver, co.zero(), 0.0)
        assert isinstance(frozen.levy_measure, sk.ZeroMeasure)
        assert sk.eval_exponent(frozen, 3.0) == 0.0


class TestGeneratorIntegro:
    def test_bm_half_second_derivative(self):
        trip = sk.LevyTriplet([0.0], [[1.0]])
        val = sk.generator_apply_integro(trip, gaussian_bump(), 0.0)
        assert val == pytest.approx(-0.5, abs=1e-12)

    def test_compound_poisson_two_atoms(self):
        trip = sk.LevyTriplet([0.0], [[0.0]],
                              sk.FiniteActivity(1.0, sk.AtomLaw.of(
                                  [(1.0, 0.5), (-1.0, 0.5)])))
        val = sk.generator_apply_integro(trip, gaussian_bump(), 0.0)
        assert val == pytest.approx(np.exp(-0.5) - 1.0, abs=1e-12)

    def test_pure_drift_first_order(self):
        trip = sk.LevyTriplet([2.0], [[0.0]])
        val = sk.generator_apply_integro(trip, gaussian_bump(), 1.0)
        assert val == pytest.approx(-2.0 * np.exp(-0.5), abs=1e-12)


class TestGeneratorFourier:
    def test_bm_matches_integro(self):
        p = symbol_from_exponent(CharacteristicExponent(sk.LevyTriplet([0.0], [[1.0]])))
        val = sk.generator_apply_fourier(p, gaussian_bump(), 0.0)
        assert val == pytest.approx(-0.5, abs=1e-9)

    def test_zero_symbol(self):
        p = sk.SymbolField(fn=lambda x, xi: 0.0 + 0.0j, d=1, x_independent=True)
        assert sk.generator_apply_fourier(p, gaussian_bump(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_stable_cross_representation(self):
        # |xi| symbol vs the Cauchy jump density 1/(pi y^2): two routes, one operator
        trip = sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.0))
        p = symbol_from_exponent(CharacteristicExponent(trip))
        u = gaussian_bump()
        for x in (-1.0, 0.0, 1.0):
            four = sk.generator_apply_fourier(p, u, x)
            intg = sk.generator_apply_integro(trip, u, x)
            assert abs(four - intg) <= 1e-3 * max(abs(four), abs(intg))

    def test_empirical_kind_rejected(self):
        p = sk.SymbolField(fn=lambda x, xi: 0.0j, d=1, kind="empirical")
        with pytest.raises(ValueError, match="analytic"):
            sk.generator_apply_fourier(p, gaussian_bump(), 0.0)


class TestTestFunction:
    def test_hat_matches_numeric_transform(self):
        u = gaussian_bump(0.3, 1.2)
        from scipy.integrate import quad

        for xi in (0.0, 0.7, -2.0):
            re, _ = quad(lambda y: np.cos(y * xi) * u.u(y), -20, 20)
            im, _ = quad(lambda y: -np.sin(y * xi) * u.u(y), -20, 20)
            want = complex(re, im) / (2 * np.pi)
            assert u.hat(xi) == pytest.approx(want, abs=1e-10)

    def test_hat_l1_is_one(self):
        u = gaussian_bump(0.0, 2.0)
        from scipy.integrate import quad

        val, _ = quad(lambda s: abs(u.hat(s)), -30, 30)
        assert val == pytest.approx(u.hat_l1, abs=1e-9)

    def test_derivatives(self):
        u = gaussian_bump(0.5, 0.8)
        h = 1e-5
        for x in (-0.3, 0.9):
            num_grad = (u.u(x + h) - u.u(x - h)) / (2 * h)
            num_hess = (u.u(x + h) - 2 * u.u(x) + u.u(x - h)) / h ** 2
            assert u.grad(x)[0] == pytest.approx(num_grad, abs=1e-8)
            assert u.hess(x)[0, 0] == pytest.approx(num_hess, abs=1e-5)
