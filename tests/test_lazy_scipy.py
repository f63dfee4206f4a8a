"""Start-up loads only what a run uses.

No run loads scipy, whose special functions the package takes from
``symbolkit.special`` and ``math``; the thread pool loads at threads > 1;
``indices`` and ``pathstats`` load at the first call into them; and the
package's names resolve on first access.  Each check runs in a fresh
interpreter, since the test process has loaded everything.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import symbolkit
from symbolkit import indices, levy

SRC = Path(symbolkit.__file__).resolve().parent.parent


def _fresh(script: str, *args: str):
    """The JSON that ``script`` prints, run in a fresh interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Runs every CLI kind through cli.main on the tiny config argv[1] holds for it, then
# replays the g-identity manifest, and prints each exit code, the manifest's version
# keys and the scipy modules loaded by then.
_EVERY_KIND = """
import json, sys, tempfile
from symbolkit import cli
codes = {}
with tempfile.TemporaryDirectory() as out:
    for kind, cfg in json.loads(sys.argv[1]).items():
        with open(f"{out}/{kind}.json", "w") as fh:
            json.dump(cfg, fh)
        codes[kind] = cli.main([kind, "--config", f"{out}/{kind}.json", "--seed", "1",
                                "--out", f"{out}/{kind}"])
    codes["rerun"] = cli.main(["rerun", "--manifest", f"{out}/g-identity/manifest.json",
                               "--out", f"{out}/rerun"])
    with open(f"{out}/rerun/manifest.json") as fh:
        versions = sorted(json.load(fh)["versions"])
print(json.dumps({"codes": codes, "versions": versions,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

STABLE = {"name": "stable", "params": {"alpha": 1.5}}
# each kind at its smallest, on the stable measures whose generator and mass take
# Gamma and with the d = 2 identity check, which takes K_0 and J_0
EVERY_KIND = {
    "simulate": {"model": {"name": "cp_tanh"}, "horizon": 0.1, "step": 0.01},
    "symbol-analytic": {"model": {"name": "stable_sin"}, "x_grid": [0.0], "xi_grid": [1.0]},
    "symbol-estimate": {"model": {"name": "bm_unit"}, "x_grid": [0.0], "xi_grid": [1.0],
                        "estimator": {"paths": 1000, "t_ladder": [0.02, 0.01]}},
    "symbol-compare": {"model": {"name": "bm_bump"}, "x_grid": [0.0], "xi_grid": [1.0],
                       "estimator": {"paths": 1000, "t_ladder": [0.02, 0.01]}},
    "generator-check": {"model": {"name": "stable_sin"}, "x_grid": [0.3]},
    "indices": {"symbol": {"name": "power_law", "params": {"alpha": 1.5}}, "x_grid": [0.0],
                "r_max": 100.0, "r_table": [1.0], "compute_beta0": False},
    "index-transfer": {"driver": STABLE, "coefficient": {"name": "constant"}, "x_grid": [0.0],
                       "eta_max": 1e3},
    "variation": {"model": {"name": "bm_unit"}, "gammas": [2.0], "levels": [4], "trials": 2},
    "growth": {"model": {"name": "bm_unit"}, "lambdas": [1.0], "t_small": [0.01, 0.1],
               "paths": 50, "steps_per_run": 8},
    "g-identity": {"d": 2},
    "bound-diagnostic": {"driver": STABLE},
    "feller-demo": {"trials": 1000, "steps": 4},
}


def test_every_kind_and_rerun_load_no_scipy():
    assert set(EVERY_KIND) == set(symbolkit.cli.KINDS)
    report = _fresh(_EVERY_KIND, json.dumps(EVERY_KIND))
    assert report == {"codes": {kind: 0 for kind in [*EVERY_KIND, "rerun"]},
                      "versions": ["numpy", "python", "symbolkit"], "scipy": []}


# Runs one CLI kind through cli.main on the config in argv[1], with the extra
# arguments after it, and prints the watched modules loaded by then.
_RUN = """
import json, sys, tempfile
from symbolkit import cli
kind, cfg = sys.argv[1], json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as out:
    with open(out + "/cfg.json", "w") as fh:
        json.dump(cfg, fh)
    code = cli.main([kind, "--config", out + "/cfg.json", "--seed", "1", "--out", out + "/o",
                     *sys.argv[3:]])
watched = ("scipy", "concurrent.futures", "symbolkit.indices", "symbolkit.pathstats")
print(json.dumps({"code": code, "loaded": [m for m in watched if m in sys.modules]}))
"""

SIMULATE = {"model": {"name": "cp_tanh"}, "horizon": 0.1, "step": 0.01, "binary": True}
COMPARE = {"model": {"name": "bm_bump"}, "x_grid": [0.0], "xi_grid": [-1.0, 1.0],
           "estimator": {"paths": 1000, "t_ladder": [0.02, 0.01]}}
INDICES = {"symbol": {"name": "power_law", "params": {"alpha": 1.5}}, "x_grid": [0.0],
           "r_max": 100.0, "r_table": [1.0], "compute_beta0": False}


def test_simulate_loads_no_scipy_pool_indices_or_pathstats():
    assert _fresh(_RUN, "simulate", json.dumps(SIMULATE)) == {"code": 0, "loaded": []}


def test_one_thread_symbol_compare_loads_no_scipy_pool_indices_or_pathstats():
    report = _fresh(_RUN, "symbol-compare", json.dumps(COMPARE), "--threads", "1")
    assert report == {"code": 0, "loaded": []}


def test_indices_loads_indices_but_not_pathstats():
    report = _fresh(_RUN, "indices", json.dumps(INDICES))
    assert report["code"] == 0
    assert "symbolkit.indices" in report["loaded"]
    assert "symbolkit.pathstats" not in report["loaded"]


PUBLIC = (
    "AtomLaw", "BijectivityViolation", "CoefficientField", "ConfigError", "ContinuousLaw",
    "DegenerateSymbol", "DensityForm", "DimensionMismatch", "FiniteActivity", "IndexReport",
    "LevyTriplet", "MultiDriverSpec", "NonConvergence", "QuadratureFailure", "SamplePath",
    "SdeModel", "SectorViolation", "SimulationOverflow", "StableSymmetric", "SymbolField",
    "SymbolkitError", "TestFunction", "VariationResult", "ZeroMeasure", "beta_inf", "beta_zero",
    "big_H", "build_index_report", "estimate_symbol_mc", "eval_g", "frozen_triplet",
    "g_identity_check", "gamma_variation", "gaussian_bump", "generator_apply_fourier",
    "generator_apply_integro", "growth_experiment", "index_transfer_check", "kappa_from_c0",
    "multi_driver_symbol", "sector_constant", "simulate_multi", "simulate_path", "small_h",
    "solution_symbol", "symbol_bound_diagnostic", "symbol_mc_table", "symbol_of_model",
    "variation_experiment")
SUBMODULES = ("catalog", "cli", "coefficients", "errors", "indices", "levy", "pathstats",
              "quadrature", "sde", "seeding", "special", "symbols")

# Imports symbolkit alone, records which submodules that loaded, then resolves
# every name in argv[1] as sk.<name> and reports where each one came from.
_NAMES = """
import json, sys, types
import symbolkit as sk
first = sorted(m for m in sys.modules if m.startswith("symbolkit."))
where = {}
for name in json.loads(sys.argv[1]):
    value = getattr(sk, name)
    where[name] = value.__name__ if isinstance(value, types.ModuleType) else value.__module__
missing = {}
for name in ("sample_increment", "first_exit_time", "stopped_path", "validate_field", "nope"):
    try:
        getattr(sk, name)
    except AttributeError as exc:
        missing[name] = str(exc)
print(json.dumps({"first": first, "where": where, "dir": dir(sk), "all": sk.__all__,
                  "missing": missing}))
"""


def test_every_public_name_and_submodule_resolves_on_first_access():
    names = list(PUBLIC) + list(SUBMODULES)
    report = _fresh(_NAMES, json.dumps(names))
    assert report["first"] == []
    for name in PUBLIC:
        assert report["where"][name] == getattr(symbolkit, name).__module__, name
    for name in SUBMODULES:
        assert report["where"][name] == f"symbolkit.{name}"
    assert sorted(report["all"]) == sorted(names)
    assert set(names) <= set(report["dir"])
    assert report["missing"] == {
        name: f"module 'symbolkit' has no attribute {name!r}"
        for name in ("sample_increment", "first_exit_time", "stopped_path", "validate_field",
                     "nope")}


# Replaces each of the six cli stand-ins with a recorder before anything calls it,
# runs the kind that calls it, and prints the names reached and whether indices
# or pathstats loaded.
_PATCHED = """
import json, sys, tempfile
from symbolkit import cli
class Reached(Exception):
    pass
def recorder(name):
    def record(*args, **kwargs):
        raise Reached(name)
    return record
cases = json.loads(sys.argv[1])
reached = []
with tempfile.TemporaryDirectory() as out:
    for name, (kind, cfg) in cases.items():
        setattr(cli, name, recorder(name))
        try:
            cli.run_config(kind, cfg, 1, out + "/" + kind)
        except Reached as exc:
            reached.append(str(exc))
print(json.dumps({"reached": reached, "loaded": [m for m in sys.modules
                                                 if m in ("symbolkit.indices",
                                                          "symbolkit.pathstats")]}))
"""

STAND_INS = {
    "build_index_report": ("indices", INDICES),
    "index_transfer_check": ("index-transfer", {"driver": {"name": "stable",
                                                           "params": {"alpha": 1.2}},
                                                "coefficient": {"name": "constant"},
                                                "x_grid": [0.0]}),
    "symbol_bound_diagnostic": ("bound-diagnostic", {"model": {"name": "cp_tanh"}}),
    "g_identity_check": ("g-identity", {"d": 1}),
    "variation_experiment": ("variation", {"model": {"name": "bm_unit"}, "gammas": [2.0],
                                           "levels": [4]}),
    "growth_experiment": ("growth", {"model": {"name": "bm_unit"}, "lambdas": [1.0],
                                     "t_small": [0.01, 0.1]}),
}


def test_patching_each_cli_stand_in_reaches_its_handler():
    report = _fresh(_PATCHED, json.dumps(STAND_INS))
    assert report == {"reached": list(STAND_INS), "loaded": []}


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
    assert _fresh(_INTEGRALS) == {"integrate": False}


def test_special_functions_equal_direct_scipy():
    # Gamma is math.gamma and K_0 symbolkit.special's, each within 2 ulp of scipy's here
    for alpha in (0.3, 0.7, 1.2, 1.5, 1.9):
        i_alpha = math.gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (alpha * (1.0 - alpha))
        assert levy.stable_density_coefficient(alpha) == 1.0 / (2.0 * i_alpha)
        assert math.gamma(2.0 - alpha) == pytest.approx(scipy.special.gamma(2.0 - alpha),
                                                        rel=4.5e-16, abs=0.0)
    for r in (0.01, 0.7, 1.0, 3.0, 20.0):
        assert indices.eval_g(2, r) == pytest.approx(float(scipy.special.k0(r)) / (2 * np.pi),
                                                     rel=4.5e-16, abs=0.0)
