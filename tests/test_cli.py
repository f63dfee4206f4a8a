"""CLI runner: schemas, exit codes, determinism, manifest replay."""

import inspect
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import symbolkit as sk
from symbolkit import cli, indices, sde, symbols
from symbolkit.cli import KINDS, _emit_error, feller_demo, main, run_config
from symbolkit.errors import ConfigError, NonConvergence

BM_MODEL = {"coefficient": {"name": "bump", "params": {"a": 0.5, "b": 1.0}},
            "driver": {"name": "bm"}}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunConfig:
    def test_g_identity(self, tmp_path):
        manifest = run_config("g-identity", {"d": 1}, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"]["max_residual"] <= 1e-6
        assert manifest["config_hash"]
        assert (tmp_path / "results.csv").exists()

    def test_simulate_writes_path(self, tmp_path):
        cfg = {"model": BM_MODEL, "x0": 0.5, "horizon": 1.0, "step": 0.05,
               "binary": True}
        run_config("simulate", cfg, 3, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_1"
        assert len(lines) == 22
        assert (tmp_path / "path.bin").exists()

    def test_symbol_compare_emits_pass_flags(self, tmp_path):
        cfg = {"model": {"name": "bm_bump"}, "x_grid": [0.0], "xi_grid": [1.0],
               "estimator": {"paths": 2000}}
        run_config("symbol-compare", cfg, 11, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        rec = payload["results"]["records"][0]
        assert set(rec) >= {"analytic_re", "mc_re", "se", "pass", "r_consistent"}
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == "x,xi,analytic_re,analytic_im,mc_re,mc_im,se,pass,r_consistent"

    def test_indices_kind(self, tmp_path):
        cfg = {"symbol": {"name": "power_law", "params": {"alpha": 1.5}},
               "x_grid": [0.0], "r_max": 100.0, "r_table": [1.0, 2.0]}
        run_config("indices", cfg, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert abs(payload["results"]["per_x"][0]["beta_inf"] - 1.5) < 0.05

    def test_generator_check_kind(self, tmp_path):
        cfg = {"model": {"name": "bm_unit"}, "x_grid": [0.0]}
        run_config("generator-check", cfg, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"]["all_agree"] is True
        assert payload["results"]["records"][0]["rel_diff"] <= 1e-3

    def test_symbol_analytic_kind(self, tmp_path):
        cfg = {"model": {"name": "bm_bump"}, "x_grid": [0.0, 1.0],
               "xi_grid": [1.0, 2.0]}
        run_config("symbol-analytic", cfg, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        recs = payload["results"]["records"]
        assert len(recs) == 4
        # Phi(0) = 1.5 under the BM driver: p(0, 2) = 0.5 * 1.5^2 * 4
        at = {(r["x"], r["xi"]): r for r in recs}
        assert at[(0.0, 2.0)]["re"] == pytest.approx(4.5, abs=1e-12)

    def test_index_transfer_kind(self, tmp_path):
        cfg = {"driver": {"name": "stable", "params": {"alpha": 1.2}},
               "coefficient": {"name": "tanh", "params": {"offset": 1.0, "gain": 0.5}},
               "x_grid": [0.0, 1.0]}
        run_config("index-transfer", cfg, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"]["beta_driver"] == pytest.approx(1.2, abs=1e-6)
        assert payload["results"]["max_deviation"] <= 0.1

    def test_growth_kind(self, tmp_path):
        cfg = {"model": {"name": "bm_unit"}, "lambdas": [1.0, 3.0],
               "t_small": [0.01, 0.1], "t_large": [10.0, 100.0],
               "paths": 500, "steps_per_run": 32}
        run_config("growth", cfg, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert len(payload["results"]["rows"]) == 8
        assert len(payload["results"]["trends"]) == 4

    def test_bound_diagnostic_kind(self, tmp_path):
        run_config("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                        "box": [-1.0, 1.0]}, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"]["consistent"] is True
        assert payload["results"]["subadditivity_slack"] >= 0.0

    def test_bound_diagnostic_counts_the_drift_field(self, tmp_path):
        # at x = 0: phi = bump(0) = 1.5, so |Q phi^2| = 2.25, and Psi(0) = cos(0) = 1
        run_config("bound-diagnostic", {"model": {"name": "bm_bump_drift"},
                                        "box": [-1.0, 1.0]}, 1, tmp_path)
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"]["triplet_norm"] == pytest.approx(3.25, abs=1e-12)
        assert payload["results"]["witnesses"]["triplet_x"] == 0.0

    def test_unknown_kind_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_config("nope", {}, 1, tmp_path)

    def test_missing_seed_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run_config("g-identity", {}, None, tmp_path)

    def test_missing_field_names_it(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            run_config("variation", {"model": {"name": "bm_unit"}}, 1, tmp_path)
        assert "gammas" in str(err.value)


class TestDeterminism:
    CASES = [
        ("feller-demo", {"trials": 20000, "steps": 8}),
        ("symbol-estimate", {"model": {"name": "bm_bump"}, "x_grid": [0.0],
                             "xi_grid": [1.0], "estimator": {"paths": 2000}}),
        ("variation", {"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0],
                       "levels": [6, 8], "trials": 8}),
    ]

    @pytest.mark.parametrize("kind,cfg", CASES, ids=[c[0] for c in CASES])
    def test_rerun_and_thread_invariance(self, kind, cfg, tmp_path):
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / tag
            run_config(kind, cfg, 77, out, threads=threads)
            outs.append((read_bytes(out / "results.json"),
                         read_bytes(out / "results.csv")))
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_manifest_rerun_reproduces(self, tmp_path):
        first = tmp_path / "first"
        run_config("feller-demo", {"trials": 5000, "steps": 8}, 9, first)
        manifest = json.loads((first / "manifest.json").read_text())
        second = tmp_path / "second"
        run_config(manifest["kind"], manifest["config"], manifest["seed"], second)
        assert read_bytes(first / "results.json") == read_bytes(second / "results.json")
        assert read_bytes(first / "results.csv") == read_bytes(second / "results.csv")


class TestMainExitCodes:
    def test_success(self, tmp_path):
        code = main(["g-identity", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "ConfigError"

    def test_malformed_config_names_field(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"name": "bm_unit"}}))
        code = main(["variation", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        err = json.loads((tmp_path / "error.json").read_text())
        assert "gammas" in err.get("field", "") or "gammas" in err["message"]

    def test_missing_seed_is_schema_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1}))
        code = main(["g-identity", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        cfg = {"model": {"coefficient": {"name": "constant", "params": {"value": 1.0}},
                         "driver": {"name": "drift", "params": {"rate": 1e14}}},
               "horizon": 1.0, "step": 0.5}
        code = main_with_config("simulate", cfg, tmp_path)
        assert code == 3

    def test_io_error_exit_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["g-identity", "--seed", "1",
                     "--out", str(blocker / "nested")])
        assert code == 4

    @pytest.mark.parametrize("horizon, step", [(1e9, 1e-9), (1.0, 1e-308)],
                             ids=["1e18-steps", "1e308-steps"])
    def test_oversized_grid_exit_2(self, horizon, step, tmp_path, capfd, monkeypatch):
        # 1e18 and 1e308 steps: more than MAX_PATH_STEPS in one path, a config error
        # naming horizon, raised before the time grid is built
        monkeypatch.setattr(sde, "_step_dense", lambda *a, **k: pytest.fail("the run started"))
        cfg = {"model": {"name": "cp_tanh"}, "horizon": horizon, "step": step}
        assert main_with_config("simulate", cfg, tmp_path) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
        assert (err["error"], err["field"], err["message"]) == (
            "ConfigError", "horizon",
            f"horizon {horizon!r} over step {step!r} is more than 4294967296 steps in one path")
        assert not (tmp_path / "out" / "results.json").exists()

    def test_infinite_step_count_exit_2(self, tmp_path, capfd, monkeypatch):
        # 1e308 / 1e-3 is inf: a config error naming horizon, raised before the run
        monkeypatch.setattr(sde, "_step_dense", lambda *a, **k: pytest.fail("the run started"))
        cfg = {"model": {"name": "cp_tanh"}, "horizon": 1e308, "step": 1e-3}
        assert main_with_config("simulate", cfg, tmp_path) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
        assert (err["error"], err["field"], err["message"]) == (
            "ConfigError", "horizon",
            "horizon 1e+308 over step 0.001 is not a finite number of steps")
        assert not (tmp_path / "out" / "results.json").exists()

    def test_path_past_its_bytes_exit_2(self, tmp_path, capfd, monkeypatch):
        # 2^32 steps are within MAX_PATH_STEPS, but their times and states take 64 GiB:
        # a config error naming horizon, from the config alone, before any array is built
        def arange(*args, **kwargs):
            pytest.fail("the time grid was built")
        monkeypatch.setattr(np, "arange", arange)
        cfg = {"model": {"name": "cp_tanh"}, "horizon": 2.0 ** 31, "step": 0.5}
        assert main_with_config("simulate", cfg, tmp_path) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
        assert (err["error"], err["field"]) == ("ConfigError", "horizon")
        assert err["message"] == (f"horizon 2147483648.0 over step 0.5 is 4294967296 steps, "
                                  f"whose times and states take 68719476752 bytes, more than "
                                  f"the {sde.MAX_PATH_BYTES} of one path")
        assert not (tmp_path / "out" / "results.json").exists()

    # one step of a group of two 16384-path chunks at rate 1 over 16 steps holds 2^28
    # jumps (16 bytes each, MAX_PATH_BYTES in all) at t0 = 2^17.  Past it, a config error
    # naming t0 comes before the ensemble: t0 = 1e308 is a per-step jump mean numpy's
    # Poisson sampler refuses ("lam value too large"), and t0 = 1e18 over 1000 trials
    # asked numpy for an array "too big"; both exited 2 without a field
    @pytest.mark.parametrize("cfg, refused", [
        ({"t0": 1e308}, True),
        ({"t0": 1e18, "trials": 1000}, True),
        ({"t0": math.nextafter(2.0 ** 17, math.inf)}, True),
        ({"t0": 2.0 ** 17}, False),
        ({"t0": 2.0 ** 28 * 16 / 1000, "trials": 1000}, False),
    ], ids=["1e308", "1e18", "past-the-group", "at-the-group", "at-1000-trials"])
    def test_feller_t0_past_the_jumps_of_one_chunk_exit_2(self, cfg, refused, tmp_path, capfd,
                                                         monkeypatch):
        class Reached(Exception):
            pass

        def ensemble(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(sde, "simulate_ensemble", ensemble)
        if not refused:
            with pytest.raises(Reached):
                main_with_config("feller-demo", cfg, tmp_path)
            return
        assert main_with_config("feller-demo", cfg, tmp_path) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
        assert (err["error"], err["field"]) == ("ConfigError", "t0")
        group = sde.GROUP_CHUNKS * sde.DEFAULT_CHUNK
        jumps = cfg["t0"] / 16 * min(cfg.get("trials", 100_000), group)
        assert err["message"] == (f"feller-demo: t0 {cfg['t0']!r} over 16 steps is {jumps:.6g} "
                                  f"jumps in a step of a group, past {2 ** 32} bytes at 16 each")
        assert not (tmp_path / "out" / "results.json").exists()

    def test_dense_overflow_exit_3(self, tmp_path):
        # the dense ensembles behind variation run the overflow guard every step; a
        # state beyond 1e154 still reports a finite norm, without a numpy warning
        cfg = {"model": {"coefficient": {"name": "constant"},
                         "driver": {"drift": [1e306], "covariance": [[0.0]]}},
               "gammas": [2.0], "levels": [3], "trials": 4}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main_with_config("variation", cfg, tmp_path) == 3
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "SimulationOverflow"
        norm = float(err["message"].split()[2])
        assert 1e154 < norm < np.inf
        assert not (tmp_path / "out" / "results.json").exists()

    def test_threads_env_not_integer_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYMBOLKIT_THREADS", "two")
        code = main(["g-identity", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert err["field"] == "SYMBOLKIT_THREADS"
        assert not (tmp_path / "results.json").exists()

    def test_rerun_subcommand(self, tmp_path):
        first = tmp_path / "first"
        assert main(["feller-demo", "--seed", "4", "--out", str(first)]) in (0,)
        code = main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out", str(tmp_path / "second")])
        assert code == 0
        assert read_bytes(first / "results.csv") == read_bytes(
            tmp_path / "second" / "results.csv")


    def test_rerun_manifest_not_json(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        assert_rerun_schema_error(manifest, tmp_path)

    def test_rerun_manifest_not_object(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(["g-identity", {"d": 1}, 1]))
        assert_rerun_schema_error(manifest, tmp_path)

    @pytest.mark.parametrize("key", ["kind", "config", "seed"])
    def test_rerun_manifest_missing_key(self, key, tmp_path):
        manifest = g_identity_manifest(tmp_path)
        del manifest[key]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert_rerun_schema_error(path, tmp_path)

    def test_rerun_manifest_config_not_object(self, tmp_path):
        manifest = g_identity_manifest(tmp_path)
        manifest["config"] = [1]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert_rerun_schema_error(path, tmp_path)


def g_identity_manifest(tmp_path):
    first = tmp_path / "first"
    assert main(["g-identity", "--seed", "1", "--out", str(first)]) == 0
    return json.loads((first / "manifest.json").read_text())


def assert_rerun_schema_error(manifest, tmp_path):
    out = tmp_path / "rerun"
    code = main(["rerun", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert err["field"] == "manifest"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_growth_zero_median_output_is_strict_json(tmp_path):
    # a driver with no motion: every scaled median is 0, so the trend slope is undefined
    cfg = {"model": {"coefficient": {"name": "constant", "params": {"value": 1.0}},
                     "driver": {"drift": [0.0], "covariance": [[0.0]]}},
           "lambdas": [1.0], "t_small": [0.01, 0.1], "t_large": [1.0, 2.0],
           "paths": 50, "steps_per_run": 8}
    run_config("growth", cfg, 1, tmp_path)
    for name in ("results.json", "manifest.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
    payload = json.loads((tmp_path / "results.json").read_text())
    assert all(t["slope"] is None for t in payload["results"]["trends"])


# one tiny config per CLI kind, for the strict-output test below
STRICT_CASES = {
    "simulate": {"model": BM_MODEL, "x0": 0.5, "horizon": 0.5, "step": 0.05},
    "symbol-analytic": {"model": {"name": "cp_tanh"}, "x_grid": [0.0], "xi_grid": [1.0]},
    "symbol-estimate": {"model": {"name": "bm_bump"}, "x_grid": [0.0], "xi_grid": [1.0],
                        "estimator": {"paths": 1000}},
    "symbol-compare": {"model": {"name": "cp_tanh"}, "x_grid": [0.0], "xi_grid": [1.0],
                       "estimator": {"paths": 1000}},
    "generator-check": {"model": {"name": "bm_unit"}, "x_grid": [0.0]},
    "indices": {"symbol": {"name": "power_law", "params": {"alpha": 1.5}},
                "x_grid": [0.0], "r_max": 100.0, "r_table": [1.0, 2.0]},
    "index-transfer": {"driver": {"name": "stable", "params": {"alpha": 1.2}},
                       "coefficient": {"name": "tanh", "params": {"offset": 1.0, "gain": 0.5}},
                       "x_grid": [0.0]},
    "variation": {"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0], "levels": [4],
                  "trials": 4},
    "growth": {"model": {"name": "bm_unit"}, "lambdas": [1.0], "t_small": [0.01, 0.1],
               "t_large": [1.0, 2.0], "paths": 100, "steps_per_run": 8},
    "g-identity": {"d": 1},
    "bound-diagnostic": {"model": {"name": "cp_tanh"}, "box": [-1.0, 1.0]},
    "feller-demo": {"trials": 1000, "steps": 8},
}


# the results.csv header of each STRICT_CASES run
STRICT_HEADERS = {
    "simulate": "t,x_1",
    "symbol-analytic": "x,xi,re,im",
    "symbol-estimate": "x,xi,re,im,se,r_consistent",
    "symbol-compare": "x,xi,analytic_re,analytic_im,mc_re,mc_im,se,pass,r_consistent",
    "generator-check": "x,integro,fourier,rel_diff,agree",
    "indices": "R,H,h",
    "index-transfer": "x,beta_inf,deviation",
    "variation": "gamma,level,median,q25,q75",
    "growth": "window,t,lambda,median_max,scaled",
    "g-identity": "d,max_residual",
    "bound-diagnostic": "c_p,triplet_norm,unit_sup,slack,consistent",
    "feller-demo": "t0,trials,frequency,ci_low,ci_high,expected",
}


def test_strict_cases_cover_every_kind():
    assert sorted(STRICT_CASES) == sorted(KINDS)
    assert sorted(STRICT_HEADERS) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_writes_strict_json(kind, tmp_path):
    run_config(kind, STRICT_CASES[kind], 3, tmp_path)
    for name in ("results.json", "manifest.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
    assert (tmp_path / "results.csv").read_text().splitlines()[0] == STRICT_HEADERS[kind]


def _far_atoms(position):
    return {"model": {"coefficient": {"name": "constant"},
                      "driver": {"drift": [0.0], "levy_measure": {
                          "kind": "atoms", "rate": 1.0,
                          "atoms": [[position, 0.5], [-position, 0.5]]}}},
            "x_grid": [0.0]}


def test_quadrature_failure_writes_achieved_error(tmp_path, capfd):
    # known failure: jumps at +-1e5 make the symbol oscillate faster in xi than the
    # narrowest Fourier panel table within MAX_PANELS resolves
    assert main_with_config("generator-check", _far_atoms(1e5), tmp_path) == 3
    assert capfd.readouterr().err == (tmp_path / "out" / "error.json").read_text()
    err = json.loads((tmp_path / "out" / "error.json").read_text(),
                     parse_constant=_reject_constant)
    assert err["error"] == "QuadratureFailure"
    assert err["achieved"] == pytest.approx(0.10, rel=0.1)


def test_far_atoms_agree_on_narrower_panels(tmp_path):
    # jumps at +-1000: the Fourier form's retry tables resolve the oscillation in xi
    assert main_with_config("generator-check", _far_atoms(1000.0), tmp_path) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())["results"]
    assert results["all_agree"] is True


def test_nonconvergence_writes_diagnostics(tmp_path, capsys):
    rungs = [(0.04, complex(0.5, -0.25), 0.01), (0.02, complex(0.75, float("nan")), 0.02)]
    _emit_error(NonConvergence("rungs disagree", diagnostics=rungs), 3, tmp_path)
    line = (tmp_path / "error.json").read_text()
    assert capsys.readouterr().err == line
    err = json.loads(line, parse_constant=_reject_constant)
    assert err["exit_code"] == 3
    assert err["diagnostics"] == [[0.04, {"re": 0.5, "im": -0.25}, 0.01],
                                  [0.02, {"re": 0.75, "im": None}, 0.02]]


@pytest.mark.parametrize("model", ["cp_tanh", "stable_sin"])
def test_overflowing_phase_exits_3_naming_x_and_xi(model, tmp_path, capfd):
    # a path's phase (X_t - x) xi overflows at xi = 1e308, so its value is NaN: this
    # wrote null estimates at exit 0 after six lines of numpy RuntimeWarnings
    cfg = {"model": {"name": model}, "x_grid": [0.0], "xi_grid": [1e308],
           "estimator": {"paths": 1000}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main_with_config("symbol-compare", cfg, tmp_path) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert err["error"] == "NonConvergence"
    assert err["message"].endswith("at x = [0.0], xi = [1e+308]: not finite")
    assert not (tmp_path / "out" / "results.json").exists()


def main_with_config(kind, cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([kind, "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")])


GROWTH_CFG = {"model": {"name": "bm_unit"}, "lambdas": [1.0], "t_small": [0.01, 0.1]}
VARIATION_CFG = {"model": {"name": "bm_unit"}, "gammas": [2.0], "levels": [4]}


@pytest.mark.parametrize("kind, cfg", [
    ("growth", {**GROWTH_CFG, "steps_per_run": 0}),
    ("growth", {**GROWTH_CFG, "paths": 0}),
    ("feller-demo", {"steps": 0}),
    ("feller-demo", {"trials": 0}),
    ("variation", {**VARIATION_CFG, "trials": 0}),
], ids=["growth-steps_per_run", "growth-paths", "feller-demo-steps", "feller-demo-trials",
        "variation-trials"])
def test_empty_ensemble_is_config_error(kind, cfg, tmp_path):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    assert "must be at least 1" in err["message"]
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("cfg, field, message", [
    ({**VARIATION_CFG, "levels": [4, 2.5]}, "levels", "level 2.5 is not a whole number"),
    ({**VARIATION_CFG, "levels": [True]}, "levels", "level True is not a whole number"),
    ({**VARIATION_CFG, "levels": ["4"]}, "levels", "level '4' is not a whole number"),
    ({**VARIATION_CFG, "levels": [-1]}, "levels", "level must be at least 0, got -1"),
    ({**VARIATION_CFG, "trials": 2.7}, "trials", "trials 2.7 is not a whole number"),
    ({**VARIATION_CFG, "trials": False}, "trials", "trials False is not a whole number"),
], ids=["fractional-level", "bool-level", "string-level", "negative-level",
        "fractional-trials", "bool-trials"])
def test_variation_counts_must_be_whole_numbers(cfg, field, message, tmp_path):
    assert main_with_config("variation", cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field, message)
    assert not (tmp_path / "out" / "results.json").exists()


def test_variation_takes_whole_floats_as_their_integers(tmp_path):
    outs = []
    for tag, levels, trials in (("int", [4, 0], 4), ("float", [4.0, 0.0], 4.0)):
        run_config("variation", {**VARIATION_CFG, "levels": levels, "trials": trials}, 1,
                   tmp_path / tag)
        outs.append((tmp_path / tag / "results.json").read_bytes())
    assert outs[0] == outs[1]


EST_CFG = {"model": {"name": "bm_unit"}, "x_grid": [0.0], "xi_grid": [1.0]}


@pytest.mark.parametrize("kind, cfg, field, message", [
    ("growth", {**GROWTH_CFG, "paths": 100.7}, "paths", "paths 100.7 is not a whole number"),
    ("growth", {**GROWTH_CFG, "steps_per_run": True}, "steps_per_run",
     "steps_per_run True is not a whole number"),
    ("feller-demo", {"trials": 1000.5}, "trials", "trials 1000.5 is not a whole number"),
    ("feller-demo", {"steps": 8.5}, "steps", "steps 8.5 is not a whole number"),
    ("g-identity", {"d": True}, "d", "d True is not a whole number"),
    ("symbol-estimate", {**EST_CFG, "estimator": {"paths": 2000.5}}, "paths",
     "paths 2000.5 is not a whole number"),
    ("symbol-estimate", {**EST_CFG, "estimator": {"paths": 2000, "steps_per_rung": 4.9}},
     "steps_per_rung", "steps_per_rung 4.9 is not a whole number"),
    ("symbol-compare", {**EST_CFG, "estimator": {"paths": 500}}, "paths",
     "paths must be at least 1000, got 500"),
    ("symbol-estimate", {**EST_CFG, "estimator": {"steps_per_rung": 1}}, "steps_per_rung",
     "steps_per_rung must be at least 2, got 1"),
    ("g-identity", {"d": 0}, "d", "d must be at least 1, got 0"),
], ids=["growth-paths", "growth-steps_per_run", "feller-demo-trials", "feller-demo-steps",
        "g-identity-d", "estimator-paths", "estimator-steps_per_rung", "estimator-few-paths",
        "estimator-one-step", "g-identity-d-zero"])
def test_counts_must_be_whole_numbers(kind, cfg, field, message, tmp_path):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field, message)
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("kind, ints, floats", [
    ("growth", {**GROWTH_CFG, "paths": 100, "steps_per_run": 8},
     {**GROWTH_CFG, "paths": 100.0, "steps_per_run": 8.0}),
    ("feller-demo", {"trials": 1000, "steps": 8}, {"trials": 1000.0, "steps": 8.0}),
    ("g-identity", {"d": 1}, {"d": 1.0}),
    ("symbol-estimate", {**EST_CFG, "estimator": {"paths": 1000, "steps_per_rung": 4}},
     {**EST_CFG, "estimator": {"paths": 1000.0, "steps_per_rung": 4.0}}),
], ids=["growth", "feller-demo", "g-identity", "estimator"])
def test_whole_float_counts_run_as_their_integers(kind, ints, floats, tmp_path):
    outs = []
    for tag, cfg in (("int", ints), ("float", floats)):
        run_config(kind, cfg, 1, tmp_path / tag)
        outs.append((tmp_path / tag / "results.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("gamma", [-1.0, 0.0, float("inf")])
def test_variation_rejects_gammas_that_are_not_positive(gamma, tmp_path, capsys):
    cfg = {"model": {"coefficient": {"name": "zero"}, "driver": {"name": "bm"}},
           "gammas": [1.0, gamma], "levels": [4]}
    assert main_with_config("variation", cfg, tmp_path) == 2
    line = capsys.readouterr().err
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert line == json.dumps(err, sort_keys=True) + "\n"      # no numpy warning beside it
    # an infinite gamma stops at the config's finiteness check, before the experiment
    assert (f"gammas {gamma} is not a finite number" if gamma == float("inf")
            else f"gamma must be positive and finite, got {gamma}") in err["message"]
    assert not (tmp_path / "out" / "results.json").exists()


def _triplet_model(measure=None, **driver):
    """BM_MODEL's coefficient with a full-triplet driver."""
    if measure is not None:
        driver["levy_measure"] = measure
    return {"coefficient": BM_MODEL["coefficient"],
            "driver": {"drift": [0.0], "covariance": [[0.0]], **driver}}


SIMULATE_CFG = {"model": BM_MODEL, "horizon": 0.1, "step": 0.05}
ESTIMATE_CFG = {"model": {"name": "bm_unit"}, "x_grid": [0.0], "xi_grid": [1.0]}
INDICES_CFG = {"symbol": {"name": "power_law", "params": {"alpha": 1.5}}, "x_grid": [0.0],
               "r_max": 100.0, "r_table": [1.0], "compute_beta0": False}
ATOMS = {"kind": "atoms", "rate": 1.0, "atoms": [[1.0, 1.0]]}
ANALYTIC_CFG = {"model": BM_MODEL, "x_grid": [0.0], "xi_grid": [1.0]}

# each config exits 2: a malformed value, or a key no kind or spec declares (the
# misspelled keys would otherwise be dropped and their defaults used)
MALFORMED = {
    "bound-diagnostic-short-box": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                        "box": [1.0]}),
    "bound-diagnostic-driver-string": ("bound-diagnostic", {"driver": "bm"}),
    "generator-check-test-function-number": (
        "generator-check", {"model": {"name": "bm_unit"}, "x_grid": [0.0], "test_function": 3}),
    "generator-check-test-function-typo": (
        "generator-check", {"model": {"name": "bm_unit"}, "x_grid": [0.0],
                            "test_function": {"centre": 2.0}}),
    "symbol-estimate-estimator-typo": ("symbol-estimate",
                                       {**ESTIMATE_CFG, "estimator": {"path": 500}}),
    "symbol-compare-estimator-typo": ("symbol-compare",
                                      {**ESTIMATE_CFG,
                                       "estimator": {"paths": 2000, "t_lader": [0.01]}}),
    # one misspelled top-level key per kind
    "simulate-binnary": ("simulate", {**SIMULATE_CFG, "binnary": True}),
    "symbol-analytic-xi_gird": ("symbol-analytic",
                                {"model": {"name": "bm_unit"}, "x_grid": [0.0],
                                 "xi_grid": [1.0], "xi_gird": [2.0]}),
    "symbol-estimate-estimater": ("symbol-estimate",
                                  {**ESTIMATE_CFG, "estimater": {"paths": 1000}}),
    "symbol-compare-estimatr": ("symbol-compare", {**ESTIMATE_CFG, "estimatr": {}}),
    "generator-check-test_functon": ("generator-check",
                                     {"model": {"name": "bm_unit"}, "x_grid": [0.0],
                                      "test_functon": {"center": 1.0}}),
    "indices-eta_mx": ("indices", {**INDICES_CFG, "eta_mx": 1e3}),
    "index-transfer-eta_mx": ("index-transfer",
                              {"driver": {"name": "stable", "params": {"alpha": 1.2}},
                               "coefficient": {"name": "constant"}, "x_grid": [0.0],
                               "eta_mx": 1e3}),
    "variation-trails": ("variation", {**VARIATION_CFG, "trails": 4}),
    "growth-path": ("growth", {**GROWTH_CFG, "path": 100}),
    "g-identity-dd": ("g-identity", {"dd": 2}),
    "bound-diagnostic-xi_mx": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                    "xi_mx": 10.0}),
    "feller-demo-trails": ("feller-demo", {"trails": 1000}),
    # misspelled keys of the model, the triplet and the measures
    "model-drift_coeficient": ("simulate", {**SIMULATE_CFG, "model": {
        **BM_MODEL, "drift_coeficient": {"name": "cosine"}}}),
    "triplet-covariances": ("simulate", {**SIMULATE_CFG,
                                         "model": _triplet_model(covariances=[[1.0]])}),
    "stable-scal": ("simulate", {**SIMULATE_CFG, "model": _triplet_model(
        {"kind": "stable", "alpha": 1.5, "scal": 2.0})}),
    "density-cutof": ("simulate", {**SIMULATE_CFG, "model": _triplet_model(
        {"kind": "density", "name": "exponential", "cutof": 0.1})}),
    # values the strict checks reject
    "indices-compute_beta0-string": ("indices", {**INDICES_CFG, "compute_beta0": "false"}),
    "estimator-check_radius-string": ("symbol-estimate",
                                      {**ESTIMATE_CFG, "estimator": {"check_radius": "false"}}),
    "simulate-binary-number": ("simulate", {**SIMULATE_CFG, "binary": 1}),
    "bound-diagnostic-model-and-driver": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                               "driver": {"name": "bm"}}),
    "bound-diagnostic-long-box": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                       "box": [-1.0, 1.0, 7.0]}),
    "atoms-and-law": ("simulate", {**SIMULATE_CFG, "model": _triplet_model(
        {**ATOMS, "law": {"name": "normal"}})}),
    "atom-three-numbers": ("symbol-analytic", {**ANALYTIC_CFG, "model": _triplet_model(
        {**ATOMS, "atoms": [[1.0, 0.5, 9.0], [-1.0, 0.5]]})}),
    # a catalog entry takes only "name" and "params"; a model or driver symbol only its key
    "coefficient-param": ("symbol-analytic", {**ANALYTIC_CFG, "model": {
        **BM_MODEL, "coefficient": {"name": "constant", "param": {"value": 3.0}}}}),
    "driver-param": ("symbol-analytic", {**ANALYTIC_CFG, "model": {
        **BM_MODEL, "driver": {"name": "bm", "param": {"variance": 4.0}}}}),
    "symbol-param": ("indices", {**INDICES_CFG, "symbol": {"name": "stable_like",
                                                           "param": {"alpha": 1.5}}}),
    "driver-symbol-x_box": ("indices", {**INDICES_CFG, "symbol": {"driver": {"name": "bm"},
                                                                  "x_box": [0, 1, 2]}}),
    "model-symbol-x_box": ("indices", {**INDICES_CFG, "symbol": {"model": {"name": "cp_tanh"},
                                                                 "x_box": [0, 1, 2]}}),
}


@pytest.mark.parametrize("kind, cfg", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_config_is_config_error(kind, cfg, tmp_path):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    assert not (tmp_path / "out" / "results.json").exists()

# a real-valued key or grid entry takes a number: a bool or a string exits 2 naming the key
REAL_KEYS = {
    "simulate-horizon": ("simulate", {**SIMULATE_CFG, "horizon": True}, "horizon", True),
    "simulate-step": ("simulate", {**SIMULATE_CFG, "step": False}, "step", False),
    "simulate-x0": ("simulate", {**SIMULATE_CFG, "x0": True}, "x0", True),
    "simulate-x0-entry": ("simulate", {**SIMULATE_CFG, "x0": [True]}, "x0", True),
    "feller-demo-t0": ("feller-demo", {"t0": True}, "t0", True),
    "feller-demo-x0": ("feller-demo", {"x0": True}, "x0", True),
    "indices-eta_max": ("indices", {**INDICES_CFG, "eta_max": True}, "eta_max", True),
    "indices-x_grid": ("indices", {**INDICES_CFG, "x_grid": [True]}, "x_grid", True),
    "index-transfer-eta_max": ("index-transfer", {
        "driver": {"name": "stable", "params": {"alpha": 1.2}},
        "coefficient": {"name": "constant"}, "x_grid": [0.0], "eta_max": True},
        "eta_max", True),
    "bound-diagnostic-xi_max": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                     "xi_max": True}, "xi_max", True),
    "bound-diagnostic-box": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                  "box": [True, 1.0]}, "box", True),
    "symbol-analytic-x_grid": ("symbol-analytic", {**ANALYTIC_CFG, "x_grid": [True]},
                               "x_grid", True),
    "symbol-analytic-xi_grid": ("symbol-analytic", {**ANALYTIC_CFG, "xi_grid": ["1.0"]},
                                "xi_grid", "1.0"),
    "symbol-estimate-xi_grid": ("symbol-estimate", {**ESTIMATE_CFG, "xi_grid": [False]},
                                "xi_grid", False),
    "generator-check-x_grid": ("generator-check", {"model": {"name": "bm_unit"},
                                                   "x_grid": [True]}, "x_grid", True),
    "variation-horizon": ("variation", {**VARIATION_CFG, "horizon": True}, "horizon", True),
    "variation-gammas": ("variation", {**VARIATION_CFG, "gammas": [True]}, "gammas", True),
    "growth-x": ("growth", {**GROWTH_CFG, "x": True}, "x", True),
    "growth-lambdas": ("growth", {**GROWTH_CFG, "lambdas": [True]}, "lambdas", True),
    "growth-t_small": ("growth", {**GROWTH_CFG, "t_small": [0.01, True]}, "t_small", True),
}


@pytest.mark.parametrize("kind, cfg, field, value", REAL_KEYS.values(), ids=list(REAL_KEYS))
def test_real_keys_reject_bools_and_strings(kind, cfg, field, value, tmp_path):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (err["error"], err["field"], err["message"]) == (
        "ConfigError", field, f"{field} {value!r} is not a number")
    assert not (tmp_path / "out" / "results.json").exists()


# a NaN or +-inf in a real-valued key exits 2 naming the key; each config holds the
# placeholder VALUE, replaced by the raw JSON token
NON_FINITE = {
    "simulate-horizon": ("simulate", {**SIMULATE_CFG, "horizon": "VALUE"}, "horizon"),
    "indices-eta_max": ("indices", {**INDICES_CFG, "eta_max": "VALUE"}, "eta_max"),
    "symbol-analytic-x_grid": ("symbol-analytic", {**ANALYTIC_CFG, "x_grid": ["VALUE"]},
                               "x_grid"),
    "generator-check-x_grid": ("generator-check", {"model": {"name": "bm_unit"},
                                                   "x_grid": ["VALUE"]}, "x_grid"),
    "growth-t_small": ("growth", {**GROWTH_CFG, "t_small": ["VALUE", 0.1]}, "t_small"),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("kind, cfg, field", NON_FINITE.values(), ids=list(NON_FINITE))
def test_real_keys_reject_non_finite_values(kind, cfg, field, token, tmp_path, capfd):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg).replace('"VALUE"', token))
    assert main([kind, "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
    captured = capfd.readouterr()
    err = json.loads((out / "error.json").read_text())
    assert captured.err == json.dumps(err, sort_keys=True) + "\n"
    value = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[token]
    assert (err["error"], err["field"], err["message"]) == (
        "ConfigError", field, f"{field} {value} is not a finite number")
    assert not (out / "results.json").exists()


# the indices ranges are checked before any search runs, each error naming its key
INDICES_RANGES = {
    "r_max-one": ({"r_max": 1}, "r_max", "r_max must be greater than 1, got 1.0"),
    "r_max-negative": ({"r_max": -5}, "r_max", "r_max must be greater than 1, got -5.0"),
    "x_box-fractional-count": ({"x_box": [-2.0, 2.0, 2.5]}, "x_box",
                               "x_box count 2.5 is not a whole number"),
    "x_box-bool-count": ({"x_box": [-2.0, 2.0, True]}, "x_box",
                         "x_box count True is not a whole number"),
    "x_box-zero-count": ({"x_box": [-2.0, 2.0, 0]}, "x_box",
                         "x_box count must be at least 1, got 0"),
    "x_box-reversed": ({"x_box": [1, -1, 0]}, "x_box",
                       "x_box needs lo < hi, got lo 1.0 and hi -1.0"),
    "x_box-short": ({"x_box": [-1]}, "x_box", "x_box [-1] is not [lo, hi, count]"),
    "x_box-non-finite": ({"x_box": [-2.0, float("inf"), 3]}, "x_box",
                         "x_box inf is not a finite number"),
    "r_table-negative": ({"r_table": [1.0, -1.0]}, "r_table",
                         "r_table entries must be positive, got [1.0, -1.0]"),
    **{f"r_table-{value}": ({"r_table": value}, "r_table", "field 'r_table' must be a list")
       for value in (1.0, True, None)},
}


@pytest.mark.parametrize("extra, field, message", INDICES_RANGES.values(),
                         ids=list(INDICES_RANGES))
def test_indices_ranges_exit_2_before_the_search(extra, field, message, tmp_path, capfd,
                                                  monkeypatch):
    # build_index_report refuses r_max and r_table before its first search
    for search in ("beta_inf", "big_H"):
        monkeypatch.setattr(indices, search, lambda *a, **k: pytest.fail("the search ran"))
    cfg = {"symbol": {"model": {"name": "cp_tanh"}}, "x_grid": [0.0], **extra}
    assert main_with_config("indices", cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field, message)
    assert not (tmp_path / "out" / "results.json").exists()


def test_indices_x_box_count_runs_as_its_integer(tmp_path):
    outs = []
    for tag, count in (("int", 2), ("float", 2.0)):
        run_config("indices", {**INDICES_CFG, "symbol": {"model": {"name": "cp_tanh"}},
                               "r_max": 10.0, "x_box": [-1, 1, count], "compute_beta0": True},
                   1, tmp_path / tag)
        outs.append((tmp_path / tag / "results.json").read_bytes())
    assert outs[0] == outs[1]
    beta0 = json.loads(outs[0])["results"]["beta0"]
    assert beta0["x_box"] == [-1.0, 1.0, 2]


# a density parameter out of the tempered-power family's range exits 2 naming it
def _density_model(params, **extra):
    return {"coefficient": {"name": "constant"},
            "driver": {"drift": [0.0], "levy_measure": {"kind": "density",
                                                        "name": "tempered_power",
                                                        "params": params, **extra}}}


@pytest.mark.parametrize("params, extra, key", [
    ({"a": -1.0}, {}, "a"),
    ({"alpha": 2.0}, {}, "alpha"),
    ({"alpha": 2.5}, {"window": 10.0}, "alpha"),
    ({"b": -0.5}, {"window": 10.0}, "b"),
    ({"b": -0.5}, {}, "b"),
    ({"alpha": True}, {}, "alpha"),
    ({"b": 0.0, "alpha": -0.5}, {"window": 10.0}, "alpha"),
    ({"b": 0.0}, {}, "b"),
], ids=["a-negative", "alpha-two", "alpha-above-two", "b-negative-window", "b-negative",
        "alpha-bool", "b-zero-alpha-negative", "b-zero-no-window"])
def test_bad_density_parameter_exits_2(params, extra, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": _density_model(params, **extra),
                               "x_grid": [0.0], "xi_grid": [0.3]}))
    out = tmp_path / "out"
    assert main(["symbol-analytic", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    line = capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())
    assert line == json.dumps(err, sort_keys=True) + "\n"      # no numpy warning beside it
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    assert f"'{key}'" in err["message"]
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_density_parameter_exits_2(value, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": _density_model({"b": 1.0}), "x_grid": [0.0],
                               "xi_grid": [0.3]}).replace('"b": 1.0', f'"b": {value}'))
    out = tmp_path / "out"
    assert main(["symbol-analytic", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert "'b'" in json.loads((out / "error.json").read_text())["message"]


@pytest.mark.parametrize("eta_max, beta", [(1e4, 0.721), (1e8, 0.598)])
def test_tempered_driver_indices_run(eta_max, beta, tmp_path, capsys):
    # the search's finite-eta bias shrinks toward alpha = 0.5 as eta_max grows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": {"driver": {"name": "tempered"}}, "x_grid": [0.0],
                               "eta_max": eta_max, "compute_beta0": False}))
    out = tmp_path / "out"
    assert main(["indices", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    got = json.loads((out / "results.json").read_text())["results"]["per_x"][0]["beta_inf"]
    assert got == pytest.approx(beta, abs=1e-3)
    if eta_max == 1e8:
        assert abs(got - 0.5) <= 0.1


class TestFellerDemo:
    def test_tiny_horizon_never_jumps(self):
        report = feller_demo(1e-9, 2000, seed=1)
        assert report["frequency"] == 1.0

    def test_long_horizon_always_jumps(self):
        report = feller_demo(25.0, 2000, seed=2)
        assert report["frequency"] == 0.0
        assert report["frequency_at_zero"] == 1.0

    def test_half_life(self):
        report = feller_demo(np.log(2.0), 50_000, seed=3)
        assert report["expected"] == pytest.approx(0.5, abs=1e-12)
        assert abs(report["frequency"] - 0.5) <= 1.96 * np.sqrt(0.25 / 50_000) * 1.5

    def test_zero_start_rejected(self):
        with pytest.raises(ConfigError):
            feller_demo(0.5, 1000, seed=1, x0=0.0)


class TestModelReferences:
    def test_model_from_file_path(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(BM_MODEL))
        cfg = {"model": str(model_file), "x0": 0.0, "horizon": 0.5, "step": 0.1}
        run_config("simulate", cfg, 2, tmp_path / "out")
        assert (tmp_path / "out" / "results.csv").exists()

    def test_missing_model_file_is_schema_error(self, tmp_path):
        cfg = {"model": str(tmp_path / "absent.json"), "horizon": 1.0, "step": 0.1}
        with pytest.raises(ConfigError, match="does not exist"):
            run_config("simulate", cfg, 2, tmp_path)

    @pytest.mark.parametrize("content", [b'[{"name": "bm_unit"}]', b'{"name": "\xff"}'],
                             ids=["json-list", "invalid-utf8"])
    def test_bad_model_file_exits_2_naming_model(self, tmp_path, content):
        model_file = tmp_path / "model.json"
        model_file.write_bytes(content)
        cfg = {"model": str(model_file), "horizon": 0.5, "step": 0.1}
        assert main_with_config("simulate", cfg, tmp_path) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert err["field"] == "model"


def test_env_threads_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMBOLKIT_THREADS", "4")
    out1 = tmp_path / "env"
    assert main(["feller-demo", "--seed", "5", "--out", str(out1)]) == 0
    monkeypatch.delenv("SYMBOLKIT_THREADS")
    out2 = tmp_path / "plain"
    assert main(["feller-demo", "--seed", "5", "--out", str(out2)]) == 0
    assert read_bytes(out1 / "results.csv") == read_bytes(out2 / "results.csv")


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symbolkit.cli", "g-identity", "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.json").exists()


def _readme_kind_keys():
    """{name: (required keys, [(optional key, default)])}, read off the README's kind keys."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| kind | required keys | optional keys = default |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, required, optional = (cell.strip() for cell in line.strip("|").split("|"))
        defaults = re.findall(r"`(\w+)` = `([^`]*)`", optional)
        table[re.match(r"`([\w-]+)`", name).group(1)] = (
            re.findall(r"`(\w+)`", required),
            [(key, json.loads(text)) for key, text in defaults])
    return table


def test_readme_kind_keys_match_the_signatures():
    # the README table and each kind's keyword-only signature declare the same keys,
    # required ones and defaults, in the same order
    table = _readme_kind_keys()
    schemas = {**cli._HANDLERS, "estimator": cli._estimator}
    assert sorted(table) == sorted(schemas)
    for name, fn in schemas.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.KEYWORD_ONLY]
        required = [p.name for p in params if p.default is p.empty]
        optional = [(p.name, json.dumps(cli._jsonable(p.default)))
                    for p in params if p.default is not p.empty]
        readme_required, readme_optional = table[name]
        assert readme_required == required, name
        assert [(key, json.dumps(value)) for key, value in readme_optional] == optional, name


# --------------------------------------------------------------------------
# each bound is checked once, by the library function that takes the argument; the
# config key has the argument's name, so the error names the key, before any work

ETA_SYMBOL = {"name": "stable_like"}
TRANSFER_CFG = {"driver": {"name": "stable", "params": {"alpha": 1.2}},
                "coefficient": {"name": "constant"}, "x_grid": [0.0]}
KEYED_ERRORS = {
    "simulate-step-zero": ("simulate", {**SIMULATE_CFG, "step": 0}, "step"),
    "simulate-step-negative": ("simulate", {**SIMULATE_CFG, "step": -0.01}, "step"),
    "simulate-horizon-below-step": ("simulate", {**SIMULATE_CFG, "horizon": 0.01}, "horizon"),
    "variation-horizon": ("variation", {**VARIATION_CFG, "horizon": -1}, "horizon"),
    "growth-t_small": ("growth", {**GROWTH_CFG, "t_small": [0, 0.1]}, "t_small"),
    "growth-lambdas": ("growth", {**GROWTH_CFG, "lambdas": [0]}, "lambdas"),
    "feller-demo-t0": ("feller-demo", {"t0": -1}, "t0"),
    "indices-eta_max": ("indices", {"symbol": ETA_SYMBOL, "eta_max": 0.5}, "eta_max"),
    "index-transfer-eta_max": ("index-transfer", {**TRANSFER_CFG, "eta_max": 0.5}, "eta_max"),
    "estimator-t_ladder": ("symbol-estimate",
                           {**ESTIMATE_CFG, "estimator": {"t_ladder": [0.02, 0.04]}},
                           "t_ladder"),
    "bound-diagnostic-xi_max": ("bound-diagnostic", {"model": {"name": "cp_tanh"},
                                                     "xi_max": -5}, "xi_max"),
    "g-identity-d": ("g-identity", {"d": 3}, "d"),
    # a key that names a catalog object: any error while resolving it names the key
    "model-unknown": ("simulate", {**SIMULATE_CFG, "model": {"name": "nope"}}, "model"),
    "model-bad-param": ("simulate", {**SIMULATE_CFG, "model": {
        "coefficient": {"name": "bump", "params": {"a": "x"}}, "driver": {"name": "bm"}}},
        "model"),
    "model-covariance-not-psd": ("simulate", {**SIMULATE_CFG, "model": {
        "coefficient": {"name": "constant"},
        "driver": {"drift": [0.0], "covariance": [[-1.0]]}}}, "model"),
    "driver-unknown": ("bound-diagnostic", {"driver": {"name": "nope"}}, "driver"),
    "driver-not-an-object": ("bound-diagnostic", {"driver": [1.0]}, "driver"),
    "coefficient-unknown": ("index-transfer", {**TRANSFER_CFG, "coefficient": {"name": "nope"}},
                            "coefficient"),
    "symbol-unknown": ("indices", {"symbol": {"name": "nope"}}, "symbol"),
    "test_function-unknown-key": ("generator-check", {"model": {"name": "bm_unit"},
                                                      "x_grid": [0.0],
                                                      "test_function": {"wide": 1.0}},
                                  "test_function"),
    # a bump so wide that width^4 overflows
    "wide-test-function": ("generator-check", {"model": {"name": "cp_tanh"}, "x_grid": [0.3],
                                               "test_function": {"width": 1e308}},
                           "test_function"),
    # a levy_measure without its kind, a continuous law without its name
    "model-measure-without-kind": ("simulate", {**SIMULATE_CFG, "model": {
        "coefficient": {"name": "constant"},
        "driver": {"drift": [0.0], "levy_measure": {"rate": 1.0}}}}, "model"),
    "driver-law-without-name": ("bound-diagnostic", {"driver": {
        "drift": [0.0], "levy_measure": {"kind": "atoms", "rate": 1.0, "law": {"mean": 0.0}}}},
        "driver"),
    # an x0 of another dimension than the model's
    "simulate-x0-dimension": ("simulate", {**SIMULATE_CFG, "x0": [0.0, 1.0]}, "x0"),
    "variation-x0-empty": ("variation", {**VARIATION_CFG, "x0": []}, "x0"),
}
# growth's time lists must be lists (empty ones are allowed)
KEYED_ERRORS.update({f"growth-{key}-{value}": ("growth", {**GROWTH_CFG, key: value}, key)
                     for key in ("t_small", "t_large") for value in (1.0, True, None)})


@pytest.fixture
def no_work(monkeypatch):
    """Stepping, symbol evaluation and the identity integral all fail if reached."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the bound was checked")

    monkeypatch.setattr(sde, "_step_dense", refuse)
    monkeypatch.setattr(sde, "_run_group", refuse)
    monkeypatch.setattr(symbols.SymbolField, "many", refuse)
    monkeypatch.setattr(symbols.SymbolField, "__call__", refuse)
    monkeypatch.setattr(indices, "integrate_panels", refuse)


def test_no_work_stops_every_stepping_run(no_work):
    # a valid run reaches the patched steppers, so the fixture cannot pass vacuously
    model = sk.catalog.bm_unit()
    runs = [lambda: sde.simulate_ensemble(model.blocks(), None, [0.0], 1.0, 2, 3, 1),
            lambda: sde.simulate_paths_dense(model.blocks(), None, [0.0], 1.0, 2, 3, 1),
            lambda: feller_demo(0.5, 10, 1),
            lambda: symbols.symbol_mc_table(model, [0.0], [1.0], paths_per_rung=1000)]
    for run in runs:
        with pytest.raises(AssertionError, match="work started before the bound was checked"):
            run()


@pytest.mark.parametrize("kind, cfg, field", KEYED_ERRORS.values(), ids=list(KEYED_ERRORS))
def test_bound_exits_2_naming_the_key(kind, cfg, field, tmp_path, capfd, no_work):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"]) == ("ConfigError", field)
    assert not (tmp_path / "out" / "results.json").exists()


def _planar_model():
    """A d = 2 model, which no catalog config builds."""
    phi = np.array([[1.0, 0.2], [0.1, 0.8]])
    field = sk.CoefficientField(batch_fn=lambda xs: np.broadcast_to(phi, (len(xs), 2, 2)),
                                d=2, n=2, bound=2.0, lipschitz=0.0)
    return sk.SdeModel(coefficient=field, driver=sk.LevyTriplet([0.0, 0.0], np.eye(2)))


# a scalar start on a 2-d model exits 2 naming the kind's key, before any step
@pytest.mark.parametrize("kind, cfg, field", [
    ("growth", GROWTH_CFG, "x"),
    ("symbol-compare", {**ESTIMATE_CFG, "estimator": {"paths": 1000}}, "x_grid"),
    ("symbol-estimate", {**ESTIMATE_CFG, "estimator": {"paths": 1000}}, "x_grid")])
def test_start_of_another_dimension_exits_2(kind, cfg, field, tmp_path, capfd, no_work,
                                           monkeypatch):
    monkeypatch.setattr(cli, "resolve_model", lambda spec: _planar_model())
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"]) == ("ConfigError", field)
    assert err["message"] == f"{field} shape (1,), expected (2,)"


@pytest.mark.parametrize("x0", [0.0, [0.0], [0.0, 0.0, 0.0]])
def test_ensemble_refuses_a_start_of_another_dimension(x0, no_work):
    # without the check, ufunc broadcasting would run a (1,) start on a 2-d model, every
    # coordinate of the dense ensemble following the first
    model = _planar_model()
    with pytest.raises(sk.DimensionMismatch, match=r"x0 shape \("):
        sde.simulate_ensemble(model.blocks(), None, x0, 0.1, 4, 8, 1)
    with pytest.raises(sk.DimensionMismatch, match=r"x0 shape \("):
        sde.simulate_paths_dense(model.blocks(), None, x0, 0.1, 4, 8, 1)


# a frequency of another shape than (d,) is refused, whichever entry of the grid it is
@pytest.mark.parametrize("xi", [1.0, [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_mc_table_refuses_a_frequency_of_another_shape(xi, no_work):
    message = re.escape(f"xi shape {np.atleast_1d(xi).shape}, expected (2,)")
    with pytest.raises(sk.DimensionMismatch, match=message):
        symbols.symbol_mc_table(_planar_model(), [[0.0, 0.0]], [[1.0, 0.5], xi],
                                paths_per_rung=1000)
    with pytest.raises(sk.DimensionMismatch, match=message):
        symbols.estimate_symbol_mc(_planar_model(), [0.0, 0.0], xi, paths_per_rung=1000)


# a float overflow inside a computation is a numerical failure: exit 3, one line
# the frozen image of atoms at +-1e300 under phi ~ 1e10 overflows where it is formed; it
# went on to a NaN quadrature estimate, exit 3 after four numpy warnings
OVERFLOWS = {
    "huge-bump": ({"model": {"coefficient": {"name": "bump", "params": {"a": 1e308, "b": 1.0}},
                             "driver": {"name": "cp_pm1"}}, "x_grid": [0.3]}, "OverflowError"),
    "huge-atom-image": ({"model": {
        "coefficient": {"name": "bump", "params": {"a": 1e10, "b": 1.0}},
        "driver": {"drift": [0.0], "levy_measure": {"kind": "atoms", "rate": 1.0,
                                                    "atoms": [[1e300, 0.5], [-1e300, 0.5]]}}},
        "x_grid": [0.0]}, "FloatingPointError"),
}


@pytest.mark.parametrize("cfg, error", OVERFLOWS.values(), ids=list(OVERFLOWS))
def test_float_overflow_exits_3(cfg, error, tmp_path, capfd):
    assert main_with_config("generator-check", cfg, tmp_path) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["exit_code"]) == (error, 3)
    assert not (tmp_path / "out" / "results.json").exists()


# an atom phase xi.y that overflows is a numerical failure: exit 3, one line, no numpy
# warning; each exited 0 with re and im null (or a quiet index record) after four warnings
def _atoms_driver(atoms):
    return {"drift": [0.0], "covariance": [[0.0]],
            "levy_measure": {"kind": "atoms", "rate": 1.0, "atoms": atoms}}


ATOM_PHASE_OVERFLOWS = {
    "huge-atoms": ("symbol-analytic", {"model": {
        "coefficient": {"name": "bump", "params": {"a": 1e10}},
        "driver": _atoms_driver([[1e300, 0.5], [-1e300, 0.5]])},
        "x_grid": [0.0], "xi_grid": [1.0]}),
    "huge-xi": ("symbol-analytic", {"model": {"name": "cp_tanh"}, "x_grid": [0.0],
                                    "xi_grid": [1e308]}),
    "huge-eta-max": ("indices", {"symbol": {"model": {"name": "cp_tanh"}}, "x_grid": [0.0],
                                 "eta_max": 1e308, "x_box": [-2.0, 2.0, 3],
                                 "compute_beta0": False}),
}


@pytest.mark.parametrize("kind, cfg", ATOM_PHASE_OVERFLOWS.values(),
                         ids=list(ATOM_PHASE_OVERFLOWS))
def test_an_atom_phase_that_overflows_exits_3(kind, cfg, tmp_path, capfd):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main_with_config(kind, cfg, tmp_path) == 3
    assert not caught
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["exit_code"]) == ("FloatingPointError", 3)
    assert not (tmp_path / "out" / "results.json").exists()


def test_bound_diagnostic_on_atoms_past_2_to_the_512_exits_0(tmp_path, capfd):
    # y^2 overflowed in the mass ratio: exit 3 with an OverflowError, after a numpy warning
    cfg = {"driver": _atoms_driver([[1e200, 0.5], [-1e200, 0.5]])}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main_with_config("bound-diagnostic", cfg, tmp_path) == 0
    assert not caught and capfd.readouterr().err == ""
    results = json.loads((tmp_path / "out" / "results.json").read_text())["results"]
    assert results["triplet_norm"] == 1.0


# a NaN or infinite catalog parameter exits 2 naming the key that holds it, before any
# symbol is evaluated; each config holds the placeholder VALUE, replaced by the raw JSON
# token.  symbol-analytic exited 0 with re and im null on the first three, and the NaN
# bump parameter under the tempered driver was blamed on the density
def _normal_law_driver(drift=(0.0,), covariance=((0.0,),), rate=1.0, mean=0.0):
    return {"drift": list(drift), "covariance": [list(row) for row in covariance],
            "levy_measure": {"kind": "atoms", "rate": rate,
                             "law": {"name": "normal", "mean": mean, "std": 1.0}}}


def _bump_model(driver, a=0.5):
    return {**ANALYTIC_CFG, "model": {"coefficient": {"name": "bump", "params": {"a": a, "b": 1.0}},
                                      "driver": driver}}


CATALOG_NON_FINITE = {
    "drift-nan": ("symbol-analytic", "NaN", _bump_model(_normal_law_driver(drift=["VALUE"])),
                  "model", "model: drift [nan] and covariance [[0.0]] must be finite"),
    "covariance-inf": ("symbol-analytic", "Infinity",
                       _bump_model(_normal_law_driver(covariance=[["VALUE"]])), "model",
                       "model: drift [0.0] and covariance [[inf]] must be finite"),
    "rate-nan": ("symbol-analytic", "NaN", _bump_model(_normal_law_driver(rate="VALUE")), "model",
                 "model: levy_measure kind 'atoms' parameter 'rate' must be finite, got nan"),
    "bump-a-nan": ("symbol-analytic", "NaN", _bump_model(_normal_law_driver(), a="VALUE"),
                   "model", "model: coefficient 'bump' parameter 'a' must be finite, got nan"),
    "law-mean-inf": ("symbol-analytic", "-Infinity",
                     _bump_model(_normal_law_driver(mean="VALUE")), "model",
                     "model: continuous jump law 'normal' parameter 'mean' must be finite, "
                     "got -inf"),
    "tempered-bump-a-nan": ("symbol-analytic", "NaN", _bump_model({"name": "tempered"}, a="VALUE"),
                            "model",
                            "model: coefficient 'bump' parameter 'a' must be finite, got nan"),
    "driver-drift-nan": ("bound-diagnostic", "NaN", {"driver": _normal_law_driver(drift=["VALUE"])},
                         "driver", "driver: drift [nan] and covariance [[0.0]] must be finite"),
    "driver-rate-nan": ("bound-diagnostic", "NaN",
                        {"driver": {"name": "poisson", "params": {"rate": "VALUE"}}}, "driver",
                        "driver: driver 'poisson' parameter 'rate' must be finite, got nan"),
}


# a drift that is not a nonempty flat list exits 2 naming the key that holds the
# driver, before any work: a drift of [[]] took symbol-analytic to the zero-drift
# symbol at exit 0, and simulate and symbol-compare to a numpy broadcast error with
# no field
FLAT_DRIFT = {
    "symbol-analytic": ("symbol-analytic", _bump_model(_normal_law_driver(drift=[[]])),
                        "model", [[]]),
    "simulate": ("simulate", {**SIMULATE_CFG, "model": _bump_model(
        _normal_law_driver(drift=[[]]))["model"]}, "model", [[]]),
    "symbol-compare": ("symbol-compare", _bump_model(_normal_law_driver(drift=[[]])),
                       "model", [[]]),
    "symbol-compare-empty": ("symbol-compare", _bump_model(_normal_law_driver(drift=[])),
                             "model", []),
    "bound-diagnostic": ("bound-diagnostic", {"driver": _normal_law_driver(drift=[[0.0]])},
                         "driver", [[0.0]]),
}


@pytest.mark.parametrize("kind, cfg, field, drift", FLAT_DRIFT.values(), ids=list(FLAT_DRIFT))
def test_drift_of_another_shape_exits_2(kind, cfg, field, drift, tmp_path, capfd, no_work):
    assert main_with_config(kind, cfg, tmp_path) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"], err["message"]) == (
        "ConfigError", field, f"{field}: drift {drift} must be a nonempty list of numbers")
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("kind, token, cfg, field, message", CATALOG_NON_FINITE.values(),
                         ids=list(CATALOG_NON_FINITE))
def test_non_finite_catalog_parameter_exits_2(kind, token, cfg, field, message, tmp_path,
                                              capfd, no_work):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg).replace('"VALUE"', token))
    assert main([kind, "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field, message)
    assert not (out / "results.json").exists()


# a jump law or atom no measure can hold is refused where it is built, so each kind exits 2
# naming the key that holds it, with the one error line on stderr.  A normal std of 0
# exited 3 after numpy warnings, std -1 and a reversed uniform exited 0 with wrong values
# (or 2 without a field on simulate), an empty uniform exited 3, and an overflowing
# uniform width or a NaN atom wrote null re and im at exit 0
BAD_LAWS = {
    "normal-std-zero": ({"law": {"name": "normal", "std": 0.0}},
                        "normal law std must be > 0, got 0.0"),
    "normal-std-negative": ({"law": {"name": "normal", "std": -1.0}},
                            "normal law std must be > 0, got -1.0"),
    "uniform-empty": ({"law": {"name": "uniform", "low": 1.0, "high": 1.0}},
                      "uniform law needs low < high with a finite high - low, got 1.0 and 1.0"),
    "uniform-reversed": ({"law": {"name": "uniform", "low": 2.0, "high": -1.0}},
                         "uniform law needs low < high with a finite high - low, "
                         "got 2.0 and -1.0"),
    "uniform-overflowing-width": ({"law": {"name": "uniform", "low": -1e308, "high": 1e308}},
                                  "uniform law needs low < high with a finite high - low, "
                                  "got -1e+308 and 1e+308"),
    "atom-position-nan": ({"atoms": [[float("nan"), 0.5], [-1.0, 0.5]]},
                          "atom positions and probabilities must be finite"),
    "atom-probability-nan": ({"atoms": [[1.0, float("nan")], [-1.0, 0.5]]},
                             "atom positions and probabilities must be finite"),
}
LAW_KINDS = {
    "symbol-analytic": lambda model: {"model": model, "x_grid": [0.3], "xi_grid": [1.0]},
    "generator-check": lambda model: {"model": model, "x_grid": [0.3]},
    "simulate": lambda model: {"model": model, "horizon": 0.1, "step": 0.01},
    "bound-diagnostic": lambda model: {"driver": model["driver"]},
}


@pytest.mark.parametrize("kind", sorted(LAW_KINDS))
@pytest.mark.parametrize("measure, message", BAD_LAWS.values(), ids=list(BAD_LAWS))
def test_bad_jump_law_exits_2(kind, measure, message, tmp_path, capfd, no_work):
    driver = {"drift": [0.0], "levy_measure": {"kind": "atoms", "rate": 1.0, **measure}}
    model = {"coefficient": {"name": "bump", "params": {"a": 0.5, "b": 1.0}}, "driver": driver}
    assert main_with_config(kind, LAW_KINDS[kind](model), tmp_path) == 2
    field = "driver" if kind == "bound-diagnostic" else "model"
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field,
                                                            f"{field}: {message}")
    assert not (tmp_path / "out" / "results.json").exists()
