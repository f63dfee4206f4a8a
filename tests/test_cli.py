"""CLI runner: schemas, exit codes, determinism, manifest replay."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

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

    def test_oversized_grid_exit_4(self, tmp_path):
        # 1e18 steps: numpy refuses the grid at once, without allocating it
        cfg = {"model": {"name": "cp_tanh"}, "horizon": 1e9, "step": 1e-9}
        assert main_with_config("simulate", cfg, tmp_path) == 4
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["exit_code"] == 4
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


def test_strict_cases_cover_every_kind():
    assert sorted(STRICT_CASES) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_writes_strict_json(kind, tmp_path):
    run_config(kind, STRICT_CASES[kind], 3, tmp_path)
    for name in ("results.json", "manifest.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


def test_quadrature_failure_writes_achieved_error(tmp_path):
    # known failure: the tempered density generator misses its 1e-9 tolerance at x = 0.5
    cfg = {"model": {"coefficient": {"name": "bump", "params": {"a": 0.5, "b": 1.0}},
                     "driver": {"name": "tempered"}},
           "x_grid": [0.5]}
    assert main_with_config("generator-check", cfg, tmp_path) == 3
    err = json.loads((tmp_path / "out" / "error.json").read_text(),
                     parse_constant=_reject_constant)
    assert err["error"] == "QuadratureFailure"
    assert err["achieved"] == pytest.approx(2.2e-9, rel=0.1)


def test_nonconvergence_writes_diagnostics(tmp_path, capsys):
    rungs = [(0.04, complex(0.5, -0.25), 0.01), (0.02, complex(0.75, float("nan")), 0.02)]
    _emit_error(NonConvergence("rungs disagree", diagnostics=rungs), 3, tmp_path)
    line = (tmp_path / "error.json").read_text()
    assert capsys.readouterr().err == line
    err = json.loads(line, parse_constant=_reject_constant)
    assert err["exit_code"] == 3
    assert err["diagnostics"] == [[0.04, {"re": 0.5, "im": -0.25}, 0.01],
                                  [0.02, {"re": 0.75, "im": None}, 0.02]]


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
