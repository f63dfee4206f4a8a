"""scipy loads at the first integral or special function, and quad is looked up per call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.special

import symbolkit
from symbolkit import catalog, indices, levy, quadrature, symbols

SRC = Path(symbolkit.__file__).resolve().parent.parent

# Imports symbolkit, resolves the catalog models that need no integral, runs tiny
# simulate and variation configs, and prints the scipy submodules loaded by then;
# then resolves the tempered density model and evaluates its exponent, whose set-up
# and closed form integrate nothing either.
_GUARD = """
import json, sys, tempfile
import symbolkit
from symbolkit import catalog, cli
names = ("bm_bump", "cp_tanh", "stable_sin", "bm_bump_drift", "bm_unit", "feller_demo")
for name in names:
    catalog.resolve_model({"name": name})
with tempfile.TemporaryDirectory() as out:
    cli.run_config("simulate", {"model": {"name": "cp_tanh"}, "horizon": 0.1, "step": 0.01,
                                "binary": True}, 1, out + "/sim")
    cli.run_config("variation", {"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0],
                                 "levels": [4], "trials": 4}, 1, out + "/var")
loaded = [m for m in ("scipy.integrate", "scipy.special") if m in sys.modules]
model = catalog.resolve_model({"coefficient": {"name": "bump", "params": {"a": 0.5, "b": 1.0}},
                               "driver": {"name": "tempered"}})
model.driver.many([[0.01], [0.5], [-3.0], [1e4]])
print(json.dumps({"loaded": loaded, "tempered": model.driver.levy_measure.name,
                  "after": [m for m in ("scipy.integrate", "scipy.special")
                            if m in sys.modules]}))
"""


def test_runs_that_integrate_nothing_load_no_scipy_submodule():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _GUARD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"loaded": [], "tempered": "tempered", "after": []}


def _counting(monkeypatch):
    calls = []
    real = scipy.integrate.quad

    def quad(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", quad)
    return calls


def test_quad_is_looked_up_at_call_time(monkeypatch):
    # integrate_checked, and through it the d >= 4 kernel, are the one adaptive integral;
    # the generator terms, masses and the identity check are fixed panel tables, each
    # against an independent reference
    calls = _counting(monkeypatch)

    assert abs(quadrature.integrate_checked(np.exp, 0.0, 1.0) - (np.e - 1.0)) <= 1e-12
    assert len(calls) == 1
    assert indices.eval_g_quadrature(4, 1.0) > 0.0
    assert len(calls) == 2
    driver, u = catalog.tempered_density_driver(), symbols.gaussian_bump()
    fourier = symbols.generator_apply_fourier(symbols.symbol_from_exponent(driver), u, 1.0)
    assert abs(driver.levy_measure.generator_term(u, 1.0) - fourier) <= 1e-12 * abs(fourier)
    assert indices.g_identity_check(2, [np.array([1.0, 0.5])]) <= 1e-14
    assert len(calls) == 2


def test_special_functions_equal_direct_scipy():
    alpha = 1.5
    i_alpha = scipy.special.gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (
        alpha * (1.0 - alpha))
    assert levy.stable_density_coefficient(alpha) == 1.0 / (2.0 * i_alpha)
    assert indices.eval_g(2, 0.7) == float(scipy.special.k0(0.7)) / (2 * np.pi)
