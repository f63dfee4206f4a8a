"""Kernel, maximal-symbol functionals, indices, and the boundedness lemma."""

import numpy as np
import pytest
from scipy.special import gamma as G

import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.catalog import default_stable_like_alpha
from symbolkit.indices import (eval_g_quadrature, index_transfer_check,
                               symbol_bound_diagnostic, symbol_sector_constant)
from symbolkit.levy import kappa_from_c0
from symbolkit.quadrature import integrate_checked
from symbolkit.symbols import (mixed_power_symbol, power_law_symbol,
                               stable_like_symbol, symbol_from_exponent,
                               symbol_of_model)


class TestKernel:
    def test_value_at_zero_d1(self):
        assert sk.eval_g(1, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert eval_g_quadrature(1, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_value_at_one_d1(self):
        assert sk.eval_g(1, 1.0) == pytest.approx(np.exp(-1.0) / 2, abs=1e-12)

    def test_closed_form_vs_quadrature_d1(self):
        for rho in np.geomspace(0.01, 20.0, 25):
            assert abs(sk.eval_g(1, rho) - eval_g_quadrature(1, rho)) <= 1e-8

    def test_closed_form_vs_quadrature_d2(self):
        for rho in np.geomspace(0.05, 10.0, 12):
            assert sk.eval_g(2, rho) == pytest.approx(eval_g_quadrature(2, rho), abs=1e-9)

    def test_closed_form_vs_quadrature_d3(self):
        for rho in np.geomspace(0.05, 10.0, 8):
            assert sk.eval_g(3, rho) == pytest.approx(eval_g_quadrature(3, rho), abs=1e-9)

    def test_total_mass_d1(self):
        total = 2 * integrate_checked(lambda r: sk.eval_g(1, r), 0.0, np.inf, tol=1e-9)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            sk.eval_g(2, 0.0)

    def test_moments_are_factorials_d1(self):
        kern = sk.KernelG(1)
        for k in range(5):
            assert kern.moment(k) == pytest.approx(G(k + 1), abs=1e-6)

    def test_positive_and_radial(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(-5, 5, size=2)
            assert sk.eval_g(2, np.linalg.norm(v)) > 0
            assert sk.eval_g(2, v) == pytest.approx(sk.eval_g(2, np.linalg.norm(v)))


class TestIdentity:
    def test_zero_point(self):
        assert sk.g_identity_check(1, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_d1_unit_point(self):
        # identity value 1 - 1/(1+1) = 0.5
        assert sk.g_identity_check(1, [1.0]) <= 1e-6

    def test_d1_range(self):
        assert sk.g_identity_check(1, np.linspace(-10, 10, 21)) <= 1e-6

    def test_d2_pythagorean_point(self):
        # |y| = 5: identity value 25/26
        assert sk.g_identity_check(2, [np.array([3.0, 4.0])]) <= 1e-6


class TestBigH:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("radius", [0.1, 1.0, 10.0])
    def test_power_law_closed_form(self, alpha, radius):
        p = power_law_symbol(alpha)
        want = radius ** -alpha * (G(alpha + 1) + 1.0)
        assert abs(sk.big_H(p, 0.0, radius) - want) <= 1e-3 * radius ** -alpha

    def test_zero_symbol(self):
        p = sk.SymbolField(fn=lambda x, xi: 0.0j, d=1, x_independent=True,
                           batch_fn=lambda xs, xis: np.zeros(len(xs), dtype=complex))
        assert sk.big_H(p, 0.0, 1.0) == 0.0

    def test_comparable_to_sup_symbol(self):
        # H(x, R) within [1, C] times the edge sup, uniformly over R
        for p in (power_law_symbol(1.2),
                  stable_like_symbol(default_stable_like_alpha)):
            ratios = []
            for R in np.geomspace(1e-3, 1e3, 13):
                h_val = sk.big_H(p, 0.0, R)
                es = np.linspace(-1, 1, 41)
                ys = np.linspace(-2 * R, 2 * R, 41) if not p.x_independent else np.array([0.0])
                sup_p = max(abs(p(np.array([y]), np.array([e / R])))
                            for y in ys for e in es)
                ratios.append(h_val / sup_p)
            ratios = np.asarray(ratios)
            assert ratios.min() >= 1.0 - 1e-9
            assert ratios.max() <= 10.0
            assert ratios.max() / ratios.min() <= 5.0


class TestSmallH:
    def test_quadratic_symbol_floor_sector(self):
        p = power_law_symbol(2.0)
        c0 = 1e-6
        kappa = kappa_from_c0(c0)
        for R in (0.5, 1.0, 4.0):
            want = (4 * kappa * R) ** -2.0
            assert sk.small_h(p, 0.0, R, c0) == pytest.approx(want, rel=1e-9)

    def test_zero_symbol(self):
        p = sk.SymbolField(fn=lambda x, xi: 0.0j, d=1, x_independent=True,
                           batch_fn=lambda xs, xis: np.zeros(len(xs), dtype=complex))
        assert sk.small_h(p, 0.0, 1.0, 1e-6) == 0.0

    def test_stable_like_minimizing_exponent(self):
        # base 1/(4 kappa R) > 1: the infimum picks the smallest alpha on the ball
        p = stable_like_symbol(default_stable_like_alpha)
        c0 = 1e-6
        kappa = kappa_from_c0(c0)
        R = 0.5
        scale = 1.0 / (4 * kappa * R)
        ys = np.linspace(-2 * R, 2 * R, 4001)
        oracle = (scale ** default_stable_like_alpha(ys)).min()
        assert sk.small_h(p, 0.0, R, c0) == pytest.approx(oracle, rel=1e-6)


class TestBetaInf:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_power_law(self, alpha):
        res = sk.beta_inf(power_law_symbol(alpha), 0.0)
        assert abs(res.beta - alpha) <= 0.05

    def test_half_quadratic(self):
        res = sk.beta_inf(power_law_symbol(2.0, coeff=0.5), 0.0)
        assert abs(res.beta - 2.0) <= 0.05

    @pytest.mark.parametrize("x", [-2.0, 0.0, 2.0])
    def test_stable_like(self, x):
        res = sk.beta_inf(stable_like_symbol(default_stable_like_alpha), x)
        assert abs(res.beta - default_stable_like_alpha(x)) <= 0.1

    def test_degenerate_symbol_raises(self):
        p = sk.SymbolField(fn=lambda x, xi: 0.0j, d=1, x_independent=True,
                           batch_fn=lambda xs, xis: np.zeros(len(xs), dtype=complex))
        with pytest.raises(sk.DegenerateSymbol):
            sk.beta_inf(p, 0.0)

    def test_small_eta_max_rejected(self):
        with pytest.raises(ValueError):
            sk.beta_inf(power_law_symbol(1.0), 0.0, eta_max=100.0)

    def test_out_of_range_exponent_clamped_and_flagged(self):
        # |xi|^2.5 is not a symbol; the estimate must clamp to [0, 2] and say so
        res = sk.beta_inf(power_law_symbol(2.5), 0.0)
        assert res.beta == 2.0
        assert res.clamped

    def test_regression_points_recorded(self):
        res = sk.beta_inf(power_law_symbol(1.5), 0.0)
        assert len(res.points) > 20
        logs = np.array(res.points)
        slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
        assert slope == pytest.approx(1.5, abs=1e-6)


class TestBetaZero:
    @pytest.mark.parametrize("alpha", [0.5, 1.2, 1.8])
    def test_power_law(self, alpha):
        res = sk.beta_zero(power_law_symbol(alpha))
        assert abs(res.beta - alpha) <= 0.05
        assert not res.non_decaying

    def test_mixed_power_small_exponent_wins(self):
        res = sk.beta_zero(mixed_power_symbol([(1.0, 0.7), (1.0, 1.6)]))
        assert abs(res.beta - 0.7) <= 0.1

    def test_stable_like_lower_envelope(self):
        res = sk.beta_zero(stable_like_symbol(default_stable_like_alpha),
                           x_box=(-5.0, 5.0, 5))
        assert abs(res.beta - 1.0) <= 0.1
        assert res.x_box == (-5.0, 5.0, 5)

    def test_non_decaying_flagged(self):
        p = sk.SymbolField(fn=lambda x, xi: 1.0 + 0.0j, d=1, x_independent=True,
                           batch_fn=lambda xs, xis: np.ones(len(xs), dtype=complex))
        res = sk.beta_zero(p)
        assert res.beta == 0.0
        assert res.non_decaying


class TestIndexTransfer:
    def test_tanh_coefficient_preserves_index(self):
        driver = catalog.stable_driver(1.2)
        rep = index_transfer_check(symbol_from_exponent(driver.exponent),
                                   co.tanh_field(1.0, 0.5), [-2.0, 0.0, 2.0])
        assert rep.beta_driver == pytest.approx(1.2, abs=1e-9)
        assert rep.max_deviation <= 0.1

    def test_identity_coefficient_exact(self):
        driver = catalog.stable_driver(0.9)
        rep = index_transfer_check(symbol_from_exponent(driver.exponent),
                                   co.constant(1.0), [-1.0, 0.5])
        assert rep.max_deviation <= 1e-12

    def test_singular_coefficient_rejected(self):
        driver = catalog.stable_driver(1.2)
        with pytest.raises(sk.BijectivityViolation):
            index_transfer_check(symbol_from_exponent(driver.exponent),
                                 co.tanh_field(0.0, 1.0), [0.0])


def solution_triplet_field(model):
    def field(x):
        trip = sk.frozen_triplet(model.driver.triplet, model.coefficient, x)
        if model.drift_coefficient is not None:
            extra = float(model.drift_coefficient(np.atleast_1d(x))[0, 0])
            trip = sk.LevyTriplet([trip.drift[0] + extra], trip.covariance,
                                  trip.levy_measure)
        return trip
    return field


class TestBoundDiagnostic:
    def test_bm_quadratic_bound(self):
        model = catalog.bm_unit()
        diag = symbol_bound_diagnostic(symbol_of_model(model),
                                       solution_triplet_field(model), (-1.0, 1.0))
        assert diag.unit_sup == pytest.approx(0.5, abs=1e-12)
        assert diag.c_p <= 1.0
        assert diag.consistent
        assert diag.subadditivity_slack >= 0.0

    def test_compound_poisson_jump_mass(self):
        measure = catalog.compound_poisson_pm1().triplet.levy_measure
        assert measure.mass_ratio() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", list(catalog.AGREEMENT_MODELS))
    def test_catalog_models_consistent(self, name):
        model = catalog.MODEL_CATALOG[name]()
        diag = symbol_bound_diagnostic(symbol_of_model(model),
                                       solution_triplet_field(model), (-2.0, 2.0))
        assert np.isfinite(diag.c_p)
        assert np.isfinite(diag.triplet_norm)
        assert np.isfinite(diag.unit_sup)
        assert diag.subadditivity_slack >= 0.0
        assert diag.consistent


class TestReport:
    def test_build_and_serialize(self):
        p = stable_like_symbol(default_stable_like_alpha)
        report = sk.build_index_report(p, [0.0, 1.0], r_max=100.0,
                                       x_box=(-3.0, 3.0, 3),
                                       r_table=(0.5, 1.0, 2.0))
        as_dict = report.to_dict()
        assert len(as_dict["per_x"]) == 2
        assert as_dict["c0"] == pytest.approx(1e-6)
        assert as_dict["kappa"] == pytest.approx(kappa_from_c0(1e-6))
        assert len(as_dict["functional_table"]) == 3
        for _, h_up, h_low in report.functional_table:
            assert h_up > 0 and h_low > 0

    def test_sector_constant_over_symbol(self):
        model = catalog.bm_bump_drift()
        p = symbol_of_model(model)
        grid = [np.array([v]) for v in np.geomspace(0.1, 20.0, 15)]
        c0 = symbol_sector_constant(p, [0.0, 1.0], grid)
        assert c0 > 1e-6   # drift gives a genuine imaginary part
