"""Acceptance suite: one test per criterion, each printing a pass line.

Seeds are fixed, so every statistical check below is a deterministic
regression; tolerances come from the experiment definitions, not from
calibration against observed output.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.special import gamma as G

import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.catalog import default_stable_like_alpha
from symbolkit.cli import feller_demo, run_config
from symbolkit.indices import symbol_bound_diagnostic
from symbolkit.pathstats import variation_experiment
from symbolkit.symbols import (gaussian_bump, mixed_power_symbol,
                               power_law_symbol, stable_like_symbol,
                               symbol_from_exponent, symbol_mc_table,
                               symbol_of_model)

SEED = 2024
X_GRID = [-1.0, 0.0, 1.0]
XI_GRID = [-3.0, -1.0, 0.5, 1.5, 3.0]


def announce(num, label):
    print(f"\nACCEPTANCE {num} ({label}): PASS")


@pytest.fixture(scope="module")
def agreement_tables():
    """MC estimate tables for the four agreement models (shared by 1 and 2)."""
    tables = {}
    t0 = time.monotonic()
    for name in catalog.AGREEMENT_MODELS:
        model = catalog.MODEL_CATALOG[name]()
        tables[name] = (model, symbol_mc_table(model, X_GRID, XI_GRID,
                                               paths_per_rung=100_000,
                                               seed=SEED))
    return tables, time.monotonic() - t0


def test_criterion_1_symbol_agreement(agreement_tables):
    """MC estimate vs analytic symbol on a 3 x 5 grid for four catalog models."""
    tables, elapsed = agreement_tables
    assert len(tables) == 4
    for name, (model, estimates) in tables.items():
        p = symbol_of_model(model)
        assert len(estimates) == len(X_GRID) * len(XI_GRID)
        for e in estimates:
            exact = p(e.x, e.xi)
            err = abs(e.estimate - exact)
            tol = max(3.0 * e.se, 0.05 * (1.0 + abs(exact)))
            assert err <= tol, (name, float(e.x[0]), float(e.xi[0]), err, tol)
    assert elapsed < 600.0, f"agreement run took {elapsed:.1f}s"
    announce(1, "theorem agreement p(x,xi) = psi(Phi^T(x) xi)")


def test_criterion_2_radius_independence(agreement_tables):
    """Doubling the stopping radius moves every estimate by <= 3 joint SE."""
    tables, _ = agreement_tables
    for name, (_, estimates) in tables.items():
        for e in estimates:
            assert e.r_check is not None
            joint = np.hypot(e.se, e.r_check.se)
            shift = abs(e.estimate - e.r_check.estimate)
            assert shift <= 3.0 * joint + 1e-12, (name, float(e.x[0]),
                                                  float(e.xi[0]), shift, joint)
            assert e.r_check.consistent
    announce(2, "stopping-radius independence")


def test_criterion_3_index_recovery():
    t0 = time.monotonic()
    for alpha in (0.5, 1.0, 1.5, 2.0):
        res = sk.beta_inf(power_law_symbol(alpha), 0.0)
        assert abs(res.beta - alpha) <= 0.1, (alpha, res.beta)
    stable_like = stable_like_symbol(default_stable_like_alpha)
    for x in (-2.0, 0.0, 2.0):
        res = sk.beta_inf(stable_like, x)
        assert abs(res.beta - default_stable_like_alpha(x)) <= 0.1, (x, res.beta)
    mixed = mixed_power_symbol([(1.0, 0.7), (1.0, 1.6)])
    res0 = sk.beta_zero(mixed)
    assert abs(res0.beta - 0.7) <= 0.1, res0.beta
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"index recovery took {elapsed:.1f}s"
    announce(3, "upper-index recovery")


def test_criterion_4_index_transfer():
    driver = catalog.stable_driver(1.2)
    rep = sk.index_transfer_check(driver, co.tanh_field(1.0, 0.5), [-2.0, -0.5, 0.0, 0.5, 2.0])
    assert rep.max_deviation <= 0.1, rep.per_x
    announce(4, "index transfer beta^x = beta^psi")


def test_criterion_5_kernel_identity():
    t0 = time.monotonic()
    assert sk.g_identity_check(1, np.linspace(-10.0, 10.0, 41)) <= 1e-6
    side = np.linspace(-10.0, 10.0, 10)
    grid2 = [np.array([a, b]) for a in side for b in side]
    assert sk.g_identity_check(2, grid2) <= 1e-6
    from reference_quadrature import eval_g_quadrature

    for rho in np.geomspace(0.01, 20.0, 30):
        assert abs(eval_g_quadrature(1, rho) - 0.5 * np.exp(-rho)) <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"kernel checks took {elapsed:.1f}s"
    announce(5, "kernel identity and closed form")


def test_criterion_6_h_closed_form():
    for alpha, radius in itertools.product((0.5, 1.0, 1.5), (0.1, 1.0, 10.0)):
        p = power_law_symbol(alpha)
        want = radius ** -alpha * (G(alpha + 1) + 1.0)
        got = sk.big_H(p, 0.0, radius)
        assert abs(got - want) <= 1e-3 * radius ** -alpha, (alpha, radius, got, want)
    announce(6, "H functional closed form")


def _solution_triplet_field(model):
    def field(x):
        trip = sk.frozen_triplet(model.driver, model.coefficient, x)
        if model.drift_coefficient is not None:
            extra = float(model.drift_coefficient(np.atleast_1d(x))[0, 0])
            trip = sk.LevyTriplet([trip.drift[0] + extra], trip.covariance,
                                  trip.levy_measure)
        return trip
    return field


def test_criterion_7_boundedness_lemma():
    cases = []
    for name in catalog.AGREEMENT_MODELS:
        model = catalog.MODEL_CATALOG[name]()
        cases.append((name, symbol_of_model(model), _solution_triplet_field(model)))
    for driver in (catalog.bm_driver(), catalog.compound_poisson_pm1(),
                   catalog.stable_driver(1.0)):
        cases.append((driver.name, symbol_from_exponent(driver),
                      lambda x, driver=driver: driver))
    for name, p, field in cases:
        diag = symbol_bound_diagnostic(p, field, (-2.0, 2.0), xi_max=100.0)
        assert np.isfinite(diag.c_p) and np.isfinite(diag.triplet_norm), name
        assert np.isfinite(diag.unit_sup) and diag.unit_sup > 0, name
        assert diag.subadditivity_slack >= 0.0, (name, diag.subadditivity_slack)
        assert diag.consistent, (name, diag)
    announce(7, "boundedness equivalences and subadditivity")


def brute_force_variation(values, gamma):
    v = np.asarray(values, dtype=float)
    n = len(v)
    best = 0.0
    for r in range(n - 1):
        for mids in itertools.combinations(range(1, n - 1), r):
            pts = [0, *mids, n - 1]
            total = sum(abs(v[b] - v[a]) ** gamma for a, b in zip(pts, pts[1:]))
            best = max(best, total)
    return best


def test_criterion_8_gamma_variation():
    rng = np.random.default_rng(314)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        values = rng.normal(size=n)
        gamma = float(rng.choice([1.5, 2.0, 3.0]))
        res = sk.gamma_variation(values, gamma)
        assert abs(res.value - brute_force_variation(values, gamma)) <= 1e-12
    rows = variation_experiment(catalog.bm_unit(), [2.0], [14], trials=9, seed=12)
    assert abs(rows[0].median - 1.0) <= 0.20, rows[0].median
    announce(8, "gamma-variation DP exactness and quadratic variation")


def test_criterion_9_generator_consistency():
    u = gaussian_bump()
    triplets = {
        "bm": sk.LevyTriplet([0.0], [[1.0]]),
        "cp": sk.LevyTriplet([0.0], [[0.0]],
                             sk.FiniteActivity(1.0, sk.AtomLaw.of(
                                 [(1.0, 0.5), (-1.0, 0.5)]))),
        "stable1": sk.LevyTriplet([0.0], [[0.0]], sk.StableSymmetric(1.0)),
    }
    for name, trip in triplets.items():
        p = symbol_from_exponent(trip)
        for x in (-1.0, 0.0, 1.0):
            integro = sk.generator_apply_integro(trip, u, x)
            fourier = sk.generator_apply_fourier(p, u, x)
            # 1e-3 relative; x = +-1 sit exactly at Au = 0 for the Brownian
            # generator, where machine-level absolute agreement must count
            tol = max(1e-3 * max(abs(integro), abs(fourier)), 1e-9)
            assert abs(integro - fourier) <= tol, (name, x, integro, fourier)
    announce(9, "generator integro vs Fourier")


def test_criterion_10_feller_failure_demo():
    report = feller_demo(np.log(2.0), 100_000, seed=SEED)
    half = 1.96 * np.sqrt(0.25 / 100_000)
    assert abs(report["frequency"] - 0.5) <= half, report
    announce(10, "Feller-failure demo at the half-life")


DETERMINISM_CASES = [
    ("g-identity", {"d": 1}),
    ("feller-demo", {"trials": 20_000, "steps": 8}),
    ("symbol-compare", {"model": {"name": "bm_bump"}, "x_grid": [0.0],
                        "xi_grid": [1.0, -1.0], "estimator": {"paths": 2000}}),
    ("variation", {"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0],
                   "levels": [6, 8], "trials": 8}),
    ("simulate", {"model": {"name": "cp_tanh"}, "x0": 0.25, "horizon": 1.0,
                  "step": 0.05}),
]


def test_criterion_11_byte_determinism(tmp_path):
    for kind, cfg in DETERMINISM_CASES:
        blobs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / kind / tag
            run_config(kind, cfg, SEED, out, threads=threads)
            blobs.append(((out / "results.json").read_bytes(),
                          (out / "results.csv").read_bytes()))
        assert blobs[0] == blobs[1], f"{kind}: rerun with same seed differs"
        assert blobs[0] == blobs[2], f"{kind}: thread count changed output"
    announce(11, "byte-identical outputs across reruns and thread counts")
