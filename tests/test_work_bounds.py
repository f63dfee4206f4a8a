"""Work bounds checked from the config alone, before any path is stepped.

One ensemble holds at most ``sde.MAX_PATH_STEPS`` path-steps (paths x steps):
the library's ensemble runners raise ConfigError (a ValueError) past it, naming
the argument, and each CLI kind that runs one (``feller-demo``,
``symbol-estimate``, ``symbol-compare``, ``growth``) exits 2 naming the key.
``growth`` also takes only positive lambdas whose scalings t^{-1/lambda} are
finite at every configured t.
"""

import json

import pytest

from symbolkit import catalog, cli, pathstats, sde
from symbolkit.errors import ConfigError
from symbolkit.pathstats import growth_experiment


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no ensemble may be stepped")

    monkeypatch.setattr(sde, "_run_group", refuse)
    monkeypatch.setattr(sde, "_step_dense", refuse)


def test_no_simulation_stops_every_ensemble(no_simulation):
    # a valid ensemble reaches the patched steppers, so the fixture cannot pass vacuously
    model = catalog.bm_unit()
    for run in (sde.simulate_ensemble, sde.simulate_paths_dense):
        with pytest.raises(AssertionError, match="no ensemble may be stepped"):
            run(model.blocks(), None, [0.0], 1.0, 2, 3, 1)
    with pytest.raises(AssertionError, match="no ensemble may be stepped"):
        growth_experiment(model, 0.0, [1.0], [0.1], [], 4, 1, steps_per_run=2)


def test_one_bound_for_ensembles_and_variation():
    assert sde.MAX_PATH_STEPS == 1 << 32
    assert pathstats.MAX_PATH_STEPS is sde.MAX_PATH_STEPS


@pytest.mark.parametrize("n_paths, n_steps", [
    (2 ** 12 + 1, 2 ** 20), (2 ** 20, 2 ** 12 + 1), (10 ** 308, 16), (1, 2 ** 32 + 1)])
def test_library_ensembles_refuse_past_the_bound(n_paths, n_steps, no_simulation):
    model = catalog.bm_unit()
    with pytest.raises(ValueError, match="exceeds 4294967296 path-steps"):
        sde.simulate_ensemble(model.blocks(), None, [0.0], 1.0, n_steps, n_paths, 1)
    with pytest.raises(ValueError, match="exceeds 4294967296 path-steps"):
        sde.simulate_paths_dense(model.blocks(), None, [0.0], 1.0, n_steps, n_paths, 1)


@pytest.mark.parametrize("n_paths, n_steps", [(2 ** 12, 2 ** 20), (1, 2 ** 32), (2 ** 32, 1)])
def test_library_bound_admits_up_to_it(n_paths, n_steps):
    sde._ensemble_start(catalog.bm_unit().blocks(), 0.0, n_steps, n_paths)
    sde.check_ensemble_size(n_paths, n_steps, "paths", "steps")


@pytest.mark.parametrize("n_paths, n_steps, which", [
    (2 ** 12 + 1, 2 ** 20, "paths"), (10 ** 308, 16, "paths"), (1, 2 ** 32 + 1, "steps")])
def test_size_error_names_the_factor_past_the_bound(n_paths, n_steps, which, no_simulation):
    # each caller's own argument names: n_paths/n_steps, and growth's paths/steps_per_run
    model = catalog.bm_unit()
    with pytest.raises(ConfigError) as exc:
        sde.simulate_ensemble(model.blocks(), None, [0.0], 1.0, n_steps, n_paths, 1)
    assert exc.value.field == f"n_{which}"
    assert str(exc.value) == "n_paths x n_steps exceeds 4294967296 path-steps in one ensemble"
    with pytest.raises(ConfigError) as exc:
        growth_experiment(model, 0.0, [1.0], [0.1], [], n_paths, 1, steps_per_run=n_steps)
    assert exc.value.field == {"paths": "paths", "steps": "steps_per_run"}[which]
    assert str(exc.value) == "paths x steps_per_run exceeds 4294967296 path-steps in one ensemble"


GROWTH = {"model": {"name": "bm_unit"}, "lambdas": [1.0], "t_small": [0.01, 0.1]}
ESTIMATE = {"model": {"name": "bm_unit"}, "x_grid": [0.0], "xi_grid": [1.0]}


def _run(kind, config, tmp_path, capsys) -> dict:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([kind, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out" / "results.json").exists()
    return json.loads((tmp_path / "out" / "error.json").read_text())


@pytest.mark.parametrize("kind, config, key", [
    ("feller-demo", {"trials": 1e308}, "trials"),
    ("feller-demo", {"steps": 1e308}, "steps"),
    ("feller-demo", {"trials": 2 ** 16, "steps": 2 ** 16 + 1}, "trials"),
    ("symbol-estimate", {**ESTIMATE, "estimator": {"paths": 1e308}}, "paths"),
    ("symbol-estimate", {**ESTIMATE, "estimator": {"steps_per_rung": 1e308}}, "steps_per_rung"),
    ("symbol-compare", {**ESTIMATE, "estimator": {"paths": 2 ** 22, "steps_per_rung": 2 ** 11}},
     "paths"),
    ("growth", {**GROWTH, "paths": 1e308}, "paths"),
    ("growth", {**GROWTH, "steps_per_run": 1e308}, "steps_per_run"),
], ids=["feller-trials", "feller-steps", "feller-product", "estimate-paths",
        "estimate-steps", "compare-product", "growth-paths", "growth-steps"])
def test_cli_ensemble_bound_exits_2(kind, config, key, tmp_path, capsys, no_simulation):
    record = _run(kind, config, tmp_path, capsys)
    assert (record["error"], record["field"]) == ("ConfigError", key)
    assert "exceeds 4294967296 path-steps in one ensemble" in record["message"]


BAD_LAMBDAS = [[0], [-1.0], [1e-308], [1.0, 0.0]]


@pytest.mark.parametrize("lambdas", BAD_LAMBDAS)
def test_cli_growth_refuses_bad_lambdas(lambdas, tmp_path, capsys, no_simulation):
    record = _run("growth", {**GROWTH, "lambdas": lambdas}, tmp_path, capsys)
    assert (record["error"], record["field"]) == ("ConfigError", "lambdas")
    assert record["message"].startswith("growth: ")


@pytest.mark.parametrize("lambdas", BAD_LAMBDAS)
def test_growth_experiment_refuses_bad_lambdas(lambdas, no_simulation):
    with pytest.raises(ValueError, match="not positive|overflows") as exc:
        growth_experiment(catalog.bm_unit(), 0.0, lambdas, [0.01, 0.1], [], 100, 1)
    assert exc.value.field == "lambdas"


@pytest.mark.parametrize("lambdas, times", [
    ([1.0, 0.5], [0.01, 0.1, 10.0]),
    ([1e-308], [2.0, 10.0]),          # t > 1: the scaling underflows to 0, a finite value
    ([1e308], [1e-300]),
])
def test_growth_lambda_bound_admits(lambdas, times, no_simulation):
    # the checks pass, so the first ensemble is stepped
    with pytest.raises(AssertionError, match="no ensemble may be stepped"):
        growth_experiment(catalog.bm_unit(), 0.0, lambdas, times, [], 100, 1)
