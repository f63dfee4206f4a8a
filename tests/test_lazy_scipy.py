"""scipy.special loads at the first special function, and scipy.integrate never loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import symbolkit
from symbolkit import indices, levy

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


# Takes one of each integral symbolkit evaluates: the d >= 4 kernel, the Fourier
# generator (on a retried table too) against the tempered measure's generator term
# within 1e-12 relative and against the integro form, a continuous law's
# and a stable measure's generator terms, and the d = 2 identity check; then prints
# whether scipy.integrate has loaded.
_INTEGRALS = """
import json, sys
import numpy as np
from symbolkit import catalog, coefficients as co, indices, symbols
from symbolkit.levy import AtomLaw, FiniteActivity, LevyTriplet, normal_law
u = symbols.gaussian_bump()
assert indices.eval_g(4, 1.0) > 0.0 and indices.eval_g(7, 0.3) > 0.0
far = LevyTriplet([0.0], [[0.0]], FiniteActivity(1.0, AtomLaw.of([(60.0, 0.5), (-60.0, 0.5)])))
law = LevyTriplet([0.0], [[0.0]], FiniteActivity(1.0, normal_law(0.0, 1.0)))
tempered = catalog.tempered_density_driver()
fourier = symbols.generator_apply_fourier(symbols.symbol_from_exponent(tempered), u, 1.0)
term = tempered.levy_measure.generator_term(u, 1.0)
assert abs(term - fourier) <= 1e-12 * abs(fourier), (fourier, term)
for driver in (catalog.stable_driver(1.5), far, law):
    fourier = symbols.generator_apply_fourier(symbols.symbol_from_exponent(driver), u, 1.0)
    integro = symbols.generator_apply_integro(driver, u, 1.0)
    assert abs(fourier - integro) <= 1e-9 * max(1.0, abs(fourier)), (fourier, integro)
assert indices.g_identity_check(2, [np.array([1.0, 0.5])]) <= 1e-14
print(json.dumps({"integrate": "scipy.integrate" in sys.modules}))
"""


def test_integrals_never_load_scipy_integrate():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _INTEGRALS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"integrate": False}


def test_special_functions_equal_direct_scipy():
    alpha = 1.5
    i_alpha = scipy.special.gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (
        alpha * (1.0 - alpha))
    assert levy.stable_density_coefficient(alpha) == 1.0 / (2.0 * i_alpha)
    assert indices.eval_g(2, 0.7) == float(scipy.special.k0(0.7)) / (2 * np.pi)
