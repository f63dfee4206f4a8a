"""Jump-measure integrals and the kernel identity on fixed GK21 panel tables.

The integrator (``quadrature.integrate_panels``): its value, its error check and
the ``achieved`` value it reports, the panel cap, batches and the mirror sum.
Then the three inputs the adaptive ``quad`` forms failed, each through the CLI
against an independent reference; the panel tables against the adaptive
oracles in ``tests/reference_quadrature.py`` wherever those pass; a subprocess
guard that the CLI kinds of the analytic benchmark load no ``scipy.integrate``;
and the |y| and radius checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

import symbolkit as sk
from symbolkit import catalog
from symbolkit.cli import main
from symbolkit.levy import TemperedPower, normal_law, uniform_law
from symbolkit.quadrature import (MAX_PANELS, RADIAL_FLOOR, gk21_panels, graded_edges,
                                  integrate_panels, radial_edges)
from symbolkit.symbols import gaussian_bump, symbol_mc_table

import reference_quadrature as rq

SRC = Path(sk.__file__).resolve().parent.parent
BUMP = {"name": "bump", "params": {"a": 0.5, "b": 1.0}}
TEMPERED_MODEL = {"coefficient": BUMP, "driver": {"name": "tempered"}}


def run_cli(kind, cfg, tmp_path, capfd):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([kind, "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
    return code, capfd.readouterr().err


def results(tmp_path):
    return json.loads((tmp_path / "out" / "results.json").read_text())["results"]


# --------------------------------------------------------------------------
# the integrator


def test_value_matches_closed_form():
    edges = graded_edges([0.0, 0.5, 2.0])
    assert integrate_panels(np.exp, edges, tol=1e-12, label="exp") == pytest.approx(
        np.expm1(2.0), rel=1e-15)


def test_error_check_reports_the_summed_gauss_kronrod_difference():
    edges = np.array([0.0, 1.0, 2.0])
    g = lambda y: np.sin(40.0 * y)
    nodes, kronrod, gauss = gk21_panels(edges)
    want = float(np.abs(np.sum(g(nodes) * (kronrod - gauss), axis=1)).sum())
    assert want > 1e-6
    with pytest.raises(sk.QuadratureFailure, match="sin40: error estimate") as err:
        integrate_panels(g, edges, tol=1e-9, label="sin40")
    assert err.value.achieved == want
    # the same integrand on finer panels passes and is right
    value = integrate_panels(g, np.linspace(0.0, 2.0, 41), tol=1e-9, label="sin40")
    assert value == pytest.approx((1.0 - np.cos(80.0)) / 40.0, rel=1e-13)


def test_table_beyond_the_cap_raises():
    with pytest.raises(sk.QuadratureFailure, match=f"more than {MAX_PANELS}"):
        integrate_panels(np.exp, np.linspace(0.0, 1.0, MAX_PANELS + 2), tol=1.0, label="cap")
    assert integrate_panels(np.exp, np.linspace(0.0, 1.0, MAX_PANELS + 1), tol=1e-12,
                            label="cap") == pytest.approx(np.e - 1.0, rel=1e-14)
    # the radial builder refuses before it builds, also where the count overflows
    for width in (1e-6, 1e-300):
        with pytest.raises(sk.QuadratureFailure, match="panels"):
            radial_edges(40.0, width, "radial")


def test_radial_edges_start_at_the_floor_and_keep_the_width():
    edges = radial_edges(40.0, 0.25, "radial")
    assert edges[0] <= RADIAL_FLOOR < 2.0 * edges[0]
    assert np.all(np.diff(edges) > 0.0) and edges[-1] == 40.0
    assert np.diff(edges).max() <= 0.25 * (1.0 + 1e-15)
    geometric = edges[:list(edges).index(0.25) + 1]
    assert geometric.size == 59 and np.all(geometric[1:] / geometric[:-1] == 2.0)


def test_graded_edges_hold_every_knot():
    knots = [-3.0, -1.0, 0.0, 0.25, 5.0]
    edges = graded_edges(knots)
    assert np.all(np.diff(edges) > 0.0)
    assert set(knots) <= set(edges.tolist())
    assert edges.size - 1 == (len(knots) - 1) * 2 * 9


def test_batches_are_checked_row_by_row():
    edges = np.linspace(0.0, 1.0, 5)
    k = np.array([1.0, 2.0, 3.0])[:, None, None]
    value = integrate_panels(lambda y: y ** k, edges, tol=1e-12, label="powers")
    assert value == pytest.approx(1.0 / (np.array([1.0, 2.0, 3.0]) + 1.0), rel=1e-15)
    freq = np.array([1.0, 300.0])[:, None, None]
    with pytest.raises(sk.QuadratureFailure) as err:
        integrate_panels(lambda y: np.cos(freq * y), edges, tol=1e-9, label="cos")
    nodes, kronrod, gauss = gk21_panels(edges)
    worst = np.abs(np.sum(np.cos(300.0 * nodes) * (kronrod - gauss), axis=1)).sum()
    assert err.value.achieved == worst


def test_odd_integrand_on_a_symmetric_table_sums_to_zero():
    edges = graded_edges([-1.0, -0.3, 0.0, 0.3, 1.0])
    value = integrate_panels(lambda y: y * np.exp(-y * y), edges, tol=1e-12, label="odd")
    assert value == 0.0


# --------------------------------------------------------------------------
# the three inputs the adaptive forms failed


def test_tempered_generator_at_half(tmp_path, capfd):
    # the adaptive density generator missed its 1e-9 tolerance here (2.2e-9)
    code, err = run_cli("generator-check", {"model": TEMPERED_MODEL, "x_grid": [0.5]},
                        tmp_path, capfd)
    assert (code, err) == (0, "")
    res = results(tmp_path)
    (rec,) = res["records"]
    assert res["all_agree"] is True
    assert abs(rec["integro"] - rec["fourier"]) <= 1e-12 * abs(rec["fourier"])


def test_stable_generator_at_zero(tmp_path, capfd):
    # the adaptive stable generator raised here (3.0e-6 against 1e-9); the reference is
    # the Fourier form in closed form, Gradshteyn-Ryzhik 3.952.8:
    # int_0^inf xi^alpha e^{-a xi^2} cos(b xi) dxi
    #   = (1/2) a^{-(alpha+1)/2} Gamma((alpha+1)/2) 1F1((alpha+1)/2; 1/2; -b^2/(4a))
    alpha = 1.5
    model = {"coefficient": BUMP, "driver": {"name": "stable", "params": {"alpha": alpha}}}
    code, err = run_cli("generator-check", {"model": model, "x_grid": [0.0]}, tmp_path, capfd)
    assert (code, err) == (0, "")
    res = results(tmp_path)
    (rec,) = res["records"]
    assert res["all_agree"] is True
    phi = float(catalog.resolve_model(model).coefficient(np.array([0.0]))[0, 0])
    h, a = (alpha + 1.0) / 2.0, 0.5                 # u = gaussian_bump(): width 1, x - c = 0
    integral = 0.5 * a ** -h * scipy.special.gamma(h) * scipy.special.hyp1f1(h, 0.5, 0.0)
    want = -abs(phi) ** alpha * np.sqrt(2.0 / np.pi) * integral
    assert rec["integro"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rec["fourier"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tempered_mass_at_alpha_1_9(tmp_path, capfd):
    # the adaptive density mass missed its 1e-9 tolerance here (1.3e-8); [0, 2^-60] holds
    # 0.16 of it, which the table's closed-form head takes.  The reference substitutes
    # y = t^10, which takes y^{-0.9} dy to 10 dt
    driver = {"drift": [0.0], "levy_measure": {"kind": "density", "name": "tempered_power",
                                               "params": {"alpha": 1.9}}}
    code, err = run_cli("bound-diagnostic", {"driver": driver}, tmp_path, capfd)
    assert (code, err) == (0, "")
    assert results(tmp_path)["consistent"] is True
    measure = sk.LevyTriplet.from_dict(driver).levy_measure
    with mpmath.workdps(30):
        top = mpmath.mpf(measure.window) ** mpmath.mpf("0.1")
        want = 20 * mpmath.quad(lambda t: mpmath.exp(-t ** 10) / (1 + t ** 20), [0, 1, top])
    assert measure.mass_ratio() == pytest.approx(float(want), rel=1e-12, abs=0.0)


# --------------------------------------------------------------------------
# the panel tables against the adaptive oracles, wherever those pass


# the last three have no mass in some of the truncation windows [-1/a, 1/a]
LAWS = [normal_law(0.3, 0.5), normal_law(0.0, 1.0), normal_law(1.3, 0.001),
        uniform_law(-0.7, 1.9), uniform_law(0.2, 3.0), uniform_law(2.0, 3.0),
        uniform_law(-3.0, -2.0), normal_law(50.0, 0.1)]


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
def test_law_integrals_match_the_adaptive_oracle(law):
    u = gaussian_bump(0.2, 0.8)
    g = sk.levy._compensated(u, 0.4)
    assert law.small_mean == pytest.approx(rq._law_small_mean_adaptive(law), abs=1e-9)
    assert law.mass_ratio() == pytest.approx(rq._law_mass_ratio_adaptive(law), abs=1e-9)
    assert law.generator_integral(g) == pytest.approx(
        rq._law_generator_integral_adaptive(law, rq._compensated(u, 0.4)), abs=1e-9)
    for a in (0.4, 0.6, 1.7, 3.0):
        assert law.truncation_integral(a) == pytest.approx(
            rq._law_truncation_integral_adaptive(law, a), abs=1e-9)


@pytest.mark.parametrize("x", [0.0, 0.4, -1.3, 2.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_stable_generator_matches_the_adaptive_oracle(alpha, x):
    # the oracle fails its own tolerance at -1.3 and 2.0 from alpha = 0.7 up
    measure, u = sk.StableSymmetric(alpha, 1.2), gaussian_bump(0.2, 0.8)
    assert measure.generator_term(u, x) == pytest.approx(
        rq._stable_generator_term_adaptive(measure, u, x), abs=1e-9)


@pytest.mark.parametrize("params", [(1.0, 0.5, 1.0), (1.0, -1.0, 1.0), (2.0, 0.2, 0.5),
                                    (1.0, 0.0, 1.0)])
def test_density_integrals_match_the_adaptive_oracle(params):
    measure, u = sk.DensityForm(TemperedPower(*params)), gaussian_bump(0.2, 0.8)
    assert measure.mass_ratio() == pytest.approx(
        rq._density_mass_ratio_adaptive(measure), abs=1e-9)
    for x in (0.4, 1.0, -1.3):
        assert measure.generator_term(u, x) == pytest.approx(
            rq._density_generator_term_adaptive(measure, u, x), abs=1e-9)


@pytest.mark.parametrize("d, ys", [(1, list(np.linspace(-10.0, 10.0, 41))),
                                   (2, [[3.0, 4.0], [0.1, -0.2], [7.0, 7.0], [0.0, 0.0]])])
def test_identity_check_beats_the_adaptive_oracle(d, ys):
    assert sk.g_identity_check(d, ys) <= 1e-14
    assert rq._g_identity_check_adaptive(d, ys) <= 1e-6


def test_narrow_bump_far_from_x():
    # the adaptive density generator read 2.0e-27 here; the bump sits at y = 2.9, where
    # its panels are a quarter of its width
    measure = catalog.tempered_density_driver().levy_measure
    with mpmath.workdps(30):
        f = lambda z: mpmath.exp(-(z - mpmath.mpf("0.1")) ** 2 / (2 * mpmath.mpf("0.05") ** 2))
        want = mpmath.quad(lambda y: (f(3 + y) + f(3 - y) - 2 * f(mpmath.mpf(3)))
                           * y ** -1.5 * mpmath.exp(-y), [2.5, 2.8, 2.9, 3.0, 3.3])
    got = measure.generator_term(gaussian_bump(0.1, 0.05), 3.0)
    assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_second_difference_is_free_of_cancellation():
    u = gaussian_bump(0.2, 0.8)
    y = np.array([1e-12, 1e-6, 1e-3, 0.5, 3.0, 40.0])
    with mpmath.workdps(40):
        f = lambda z: mpmath.exp(-(z - mpmath.mpf("0.2")) ** 2 / (2 * mpmath.mpf("0.8") ** 2))
        for x in (0.0, 1.3):
            got = u.second_difference(x, y)
            want = [f(mpmath.mpf(x) + mpmath.mpf(v)) + f(mpmath.mpf(x) - mpmath.mpf(v))
                    - 2 * f(mpmath.mpf(x)) for v in y]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w), (x, g, w)


@pytest.mark.parametrize("center, width", [(np.nan, 1.0), (0.0, 0.0), (0.0, -1.0),
                                           (0.0, np.inf), (0.0, 1e308), (0.0, 1e-308),
                                           (0.0, 1e-77), (0.0, 1e78)])
def test_gaussian_bump_takes_a_finite_center_and_positive_width(center, width):
    with pytest.raises(ValueError, match="gaussian bump"):
        gaussian_bump(center, width)


def test_density_mass_where_the_oracle_passes_wrong():
    # at alpha = 1.2 the oracle's quad meets its 1e-9 estimate 2.0e-6 off; the table is
    # within 1e-12 of mpmath (y = t^{1/0.8} takes y^{-0.2} dy to 1.25 dt)
    measure = sk.DensityForm(TemperedPower(2.0, 1.2, 0.5))
    with mpmath.workdps(30):
        top = mpmath.mpf(measure.window) ** mpmath.mpf("0.8")
        want = 2 * 2 * 1.25 * mpmath.quad(
            lambda t: mpmath.exp(-t ** 1.25 / 2) / (1 + t ** 2.5), [0, 1, top])
    assert measure.mass_ratio() == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert abs(rq._density_mass_ratio_adaptive(measure) - float(want)) > 1e-6


# --------------------------------------------------------------------------
# no adaptive integral on the analytic CLI kinds

_GUARD = """
import json, sys, tempfile
from symbolkit import cli
bump = {"name": "bump", "params": {"a": 0.5, "b": 1.0}}
tempered = {"coefficient": bump, "driver": {"name": "tempered"}}
normal = {"coefficient": bump, "driver": {"drift": [0.0], "covariance": [[0.0]],
          "levy_measure": {"kind": "atoms", "rate": 1.0,
                           "law": {"name": "normal", "mean": 0.0, "std": 1.0}}}}
runs = [("generator-check", {"model": tempered, "x_grid": [1.0, 0.5]}),
        ("generator-check", {"model": normal, "x_grid": [1.0]}),
        ("symbol-analytic", {"model": normal, "x_grid": [-1.0, 0.0, 1.0],
                             "xi_grid": [-3.0, 0.5, 3.0]}),
        ("bound-diagnostic", {"model": tempered, "box": [-1.0, 1.0]}),
        ("g-identity", {"d": 1}),
        ("g-identity", {"d": 2})]
with tempfile.TemporaryDirectory() as out:
    for i, (kind, cfg) in enumerate(runs):
        cli.run_config(kind, cfg, 1, f"{out}/{i}")
print(json.dumps({"runs": len(runs), "integrate": "scipy.integrate" in sys.modules}))
"""


def test_analytic_kinds_load_no_scipy_integrate():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _GUARD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"runs": 6, "integrate": False}


# --------------------------------------------------------------------------
# the |y| of the identity check and the estimator's radius


@pytest.mark.parametrize("y_grid", [[[1e308, 1e308]], [[1e6, 0.0]]])
def test_identity_check_y_it_cannot_take_exits_2(y_grid, tmp_path, capfd):
    code, err = run_cli("g-identity", {"d": 2, "y_grid": y_grid}, tmp_path, capfd)
    assert code == 2
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert (record["error"], record["field"]) == ("ConfigError", "y_grid")
    assert "too large" in record["message"]


def test_identity_check_takes_norms_without_overflow():
    # |(1e200, 1e200)| overflows a naive sum of squares; hypot keeps it finite
    with pytest.raises(ValueError, match="too large"):
        sk.g_identity_check(2, [[1e200, 1e200]])
    assert sk.g_identity_check(2, [[3e-200, 4e-200]]) == 0.0


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf, True, "2"])
def test_radius_must_be_positive_and_finite(radius):
    model = catalog.resolve_model({"name": "bm_bump"})
    with pytest.raises(ValueError, match="radius"):
        sk.estimate_symbol_mc(model, 0.0, 1.0, paths_per_rung=1000, radius=radius)
    with pytest.raises(ValueError, match="radius"):
        symbol_mc_table(model, [0.0], [1.0], paths_per_rung=1000, radius=radius)
