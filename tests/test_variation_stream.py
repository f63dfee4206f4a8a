"""Streamed dense runs: ``variation_experiment`` and ``simulate``'s CSV against their whole-path forms.

``reference_pathstats.variation_experiment`` simulates each level's whole
dense path and sums it in one ``np.sum``; the streamed experiment must give
its rows bit for bit.  The dense sink must hand on exactly the states of the
full array, window by window, and the work bound must refuse a run before any
path is stepped.
"""

import json
import tracemalloc

import numpy as np
import pytest

import reference_pathstats as ref
import symbolkit as sk
from symbolkit import catalog, cli, pathstats, sde
from symbolkit import coefficients as co
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import AtomLaw, FiniteActivity, LevyTriplet
from symbolkit.errors import ConfigError
from symbolkit.pathstats import MAX_PATH_STEPS, variation_experiment
from symbolkit.sde import DENSE_WINDOW, MultiDriverSpec, simulate_paths_dense


def _planar_model():
    """d = 2: a two-dimensional jump-diffusion under a state-dependent 2x2 field."""
    law = AtomLaw.of([((0.5, -0.2), 0.5), ((-1.5, 0.3), 0.5)])
    driver = LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]], FiniteActivity(3.0, law))
    phi = CoefficientField(
        batch_fn=lambda xs: np.stack([
            np.stack([1.0 + 0.5 * np.sin(xs[:, 1]), np.full(len(xs), 0.2)], axis=1),
            np.stack([np.full(len(xs), 0.1), 0.8 + 0.3 * np.cos(xs[:, 0])], axis=1)], axis=1),
        d=2, n=2, bound=2.0, lipschitz=1.0)
    return sk.SdeModel(coefficient=phi, driver=driver)


MODELS = {
    "bm_unit": lambda: (catalog.bm_unit(), 0.0),            # constant-field runs
    "bm_unit_negative_zero": lambda: (catalog.bm_unit(), -0.0),
    "bm_bump_drift": lambda: (catalog.bm_bump_drift(), 0.0),  # one step at a time
    "cp_tanh": lambda: (catalog.cp_tanh(), 0.0),             # zero-draw runs and jumps
    "cp_tanh_negative_zero": lambda: (catalog.cp_tanh(), -0.0),
    "planar": lambda: (_planar_model(), [0.3, -0.0]),
}
TRIALS = [1, 2, 3, 16, 17]
# one level below one window, one at it and one above it
LEVELS = [DENSE_WINDOW.bit_length() - 2, DENSE_WINDOW.bit_length() - 1,
          DENSE_WINDOW.bit_length()]


def _bits(rows):
    return [np.array([r.gamma, r.median, r.q25, r.q75]).view(np.int64).tolist()
            + [r.level, r.n_points] for r in rows]


def test_levels_straddle_one_window():
    assert [2 ** k for k in LEVELS] == [DENSE_WINDOW // 2, DENSE_WINDOW, 2 * DENSE_WINDOW]


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("case", sorted(MODELS))
def test_variation_matches_whole_path_oracle(case, trials):
    model, x0 = MODELS[case]()
    gammas = [0.5, 1.0, 2.0, 3.0]
    got = variation_experiment(model, gammas, LEVELS, trials, 11, x0=x0)
    want = ref.variation_experiment(model, gammas, LEVELS, trials, 11, x0=x0)
    assert _bits(got) == _bits(want)


def test_variation_matches_oracle_on_a_longer_horizon():
    model = catalog.stable_sin()
    got = variation_experiment(model, [1.0, 1.5], [11], 5, 3, horizon=2.5, x0=0.4)
    want = ref.variation_experiment(model, [1.0, 1.5], [11], 5, 3, horizon=2.5, x0=0.4)
    assert _bits(got) == _bits(want)


def _windows(blocks, drift, x0, n_steps, trials, seed):
    got = []

    def sink(states):
        got.append(states.copy())

    assert simulate_paths_dense(blocks, drift, x0, 1.0, n_steps, trials, seed,
                                sink=sink) is None
    return got


SINK_MODELS = {
    "bm_unit": lambda: (catalog.bm_unit().blocks(), None, 0.0),
    "cp_tanh": lambda: (catalog.cp_tanh().blocks(), None, -0.0),
    "bm_bump_drift": lambda: (catalog.bm_bump_drift().blocks(),
                              catalog.bm_bump_drift().drift_coefficient, 0.0),
    "stable_sin": lambda: (catalog.stable_sin().blocks(), None, 0.0),
    "planar": lambda: (_planar_model().blocks(), None, [0.3, -0.0]),
    "multi": lambda: (MultiDriverSpec([(co.constant(0.8), catalog.bm_driver()),
                                       (co.constant(-1.2), catalog.compound_poisson_pm1(3.0))]
                                      ).blocks(), None, 0.0),
}


@pytest.mark.parametrize("window", [1, 2, 7, 100, DENSE_WINDOW])
@pytest.mark.parametrize("trials", [1, 3, 16])
@pytest.mark.parametrize("case", sorted(SINK_MODELS))
def test_sink_windows_are_the_dense_states(case, trials, window, monkeypatch):
    blocks, drift, x0 = SINK_MODELS[case]()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_steps = 700
    full = simulate_paths_dense(blocks, drift, x0, 1.0, n_steps, trials, 4)
    monkeypatch.setattr(sde, "DENSE_WINDOW", window)
    got = _windows(blocks, drift, x0, n_steps, trials, 4)
    assert [len(w) - 1 for w in got] == [window] * (n_steps // window) + (
        [n_steps % window] if n_steps % window else [])
    for a, b in zip(got, got[1:]):
        assert np.array_equal(a[-1].view(np.int64), b[0].view(np.int64))
    joined = np.concatenate([got[0]] + [w[1:] for w in got[1:]])
    assert np.array_equal(joined.view(np.int64), full.view(np.int64))


def test_sink_overflow_names_the_same_step(monkeypatch):
    model = sk.SdeModel(coefficient=co.constant(3e12), driver=catalog.bm_driver())
    x0 = np.zeros(1)
    with pytest.raises(sk.SimulationOverflow) as whole:
        simulate_paths_dense(model.blocks(), None, x0, 1.0, 3000, 3, 2)
    monkeypatch.setattr(sde, "DENSE_WINDOW", 7)
    with pytest.raises(sk.SimulationOverflow) as streamed:
        simulate_paths_dense(model.blocks(), None, x0, 1.0, 3000, 3, 2, sink=lambda s: None)
    assert str(streamed.value) == str(whole.value)


def test_variation_peak_memory_is_one_window():
    # level 16 with 16 trials: a whole dense path would be 65537 x 16 doubles, 8 MiB
    model = catalog.bm_unit()
    variation_experiment(model, [1.0], [4], 16, 1)       # imports and caches first
    tracemalloc.start()
    try:
        rows = variation_experiment(model, [1.0, 2.0, 3.0], [16], 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rows[1].median - 1.0) < 0.2
    assert peak < 2 * 2 ** 20, peak


# --------------------------------------------------------------------------
# the work bound


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the work bound must be checked before any simulation")

    monkeypatch.setattr(pathstats, "simulate_paths_dense", refuse)
    monkeypatch.setattr(pathstats, "_PowerSums", refuse)    # one trial at level 32 holds 32 GiB
    monkeypatch.setattr(sde, "_step_dense", refuse)


@pytest.mark.parametrize("levels, trials, key", [
    ([33], 1, "levels"),
    ([8, 10 ** 308], 16, "levels"),
    ([32, 32], 1, "levels"),
    ([31, 31, 0], 1, "levels"),
    ([32], 2, "trials"),
    ([30, 30, 30, 30], 2, "trials"),
    ([8], 10 ** 308, "trials"),
    ([20], 2 ** 12 + 1, "trials"),
])
def test_work_bound_refuses(levels, trials, key, no_simulation):
    with pytest.raises(ConfigError, match="a level is above 32|exceed 4294967296 path-steps") as exc:
        variation_experiment(catalog.bm_unit(), [1.0], levels, trials, 1)
    assert exc.value.field == key


@pytest.mark.parametrize("x0", [[], [0.0, 1.0], [[0.0]]])
def test_x0_of_another_dimension_refused(x0, no_simulation):
    with pytest.raises(ConfigError, match="x0 shape") as exc:
        variation_experiment(catalog.bm_unit(), [1.0], [4], 2, 1, x0=x0)
    assert exc.value.field == "x0"


@pytest.mark.parametrize("levels, trials", [
    ([32], 1), ([30, 30, 30, 30], 1), ([20], 2 ** 12), ([0], 1), ([], 1)])
def test_work_bound_admits(levels, trials, no_simulation):
    assert trials * sum(2 ** k for k in levels) <= MAX_PATH_STEPS
    if not levels:
        assert variation_experiment(catalog.bm_unit(), [1.0], levels, trials, 1) == []
        return
    # the bound passes, so the first level's sums and run are set up
    with pytest.raises(AssertionError, match="before any simulation"):
        variation_experiment(catalog.bm_unit(), [1.0], levels, trials, 1)


@pytest.mark.parametrize("config, key", [
    ({"levels": [1e308, 8]}, "levels"),
    ({"levels": [33]}, "levels"),
    ({"levels": [8], "trials": 1e308}, "trials"),
    ({"levels": [30, 31], "trials": 2}, "trials"),
])
def test_cli_work_bound_exits_2(config, key, tmp_path, capsys, no_simulation):
    cfg = tmp_path / "variation.json"
    cfg.write_text(json.dumps({"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0], **config}))
    code = cli.main(["variation", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["field"] == key and record["exit_code"] == 2
    assert record["message"].startswith("variation: ")


# --------------------------------------------------------------------------
# a horizon beyond the float range of steps


@pytest.mark.parametrize("horizon, step", [(1e308, 1e-3), (1e300, 1e-300), (np.nan, 1e-3)])
def test_library_paths_refuse_an_infinite_step_count(horizon, step, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no step may run")

    monkeypatch.setattr(sde, "_step_dense", refuse)
    with pytest.raises(ValueError, match="horizon"):
        sk.simulate_path(catalog.cp_tanh(), 0.0, horizon, step, 1)
    spec = MultiDriverSpec([(co.constant(1.0), catalog.bm_driver())])
    with pytest.raises(ValueError, match="horizon"):
        sk.simulate_multi(spec, 0.0, horizon, step, 1)


# --------------------------------------------------------------------------
# simulate's CSV, written in row blocks


def _old_csv(header, rows) -> str:
    """The text the whole-path writer produced: every row at once, as lists."""
    return ",".join(header) + "\n" + "".join(",".join(map(cli._fmt, row)) + "\n"
                                              for row in rows)


@pytest.mark.parametrize("name", ["cp_tanh", "bm_bump_drift"])
def test_simulate_csv_bytes_unchanged(name, tmp_path):
    cli.run_config("simulate", {"model": {"name": name}, "horizon": 10.0, "step": 1e-3,
                                "x0": -0.0}, 5, tmp_path)
    path = sk.simulate_path(catalog.MODEL_CATALOG[name](), -0.0, 10.0, 1e-3, 5)
    assert path.times.shape == (10_001,)
    rows = np.column_stack((path.times, path.states)).tolist()
    want = _old_csv(["t", "x_1"], rows)
    assert (tmp_path / "results.csv").read_text() == want


def test_two_dimensional_path_csv_bytes_unchanged(tmp_path):
    path = sk.simulate_path(_planar_model(), [0.3, -0.0], 10.0, 1e-3, 2)
    rows = np.column_stack((path.times, path.states))
    assert rows.shape == (10_001, 3)
    cli._write_csv(tmp_path / "path.csv", ["t", "x_1", "x_2"], rows)
    assert (tmp_path / "path.csv").read_text() == _old_csv(["t", "x_1", "x_2"],
                                                           rows.tolist())


def test_list_rows_written_unchanged(tmp_path):
    rows = [[i, float(i) / 7, np.float64(-0.0), i % 2 == 0, np.bool_(i % 3 == 0),
             np.int64(-i), f"s{i}", np.inf, np.nan] for i in range(2 * cli._CSV_BLOCK + 5)]
    header = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
    for n in (0, 1, cli._CSV_BLOCK, len(rows)):
        cli._write_csv(tmp_path / "rows.csv", header, rows[:n])
        assert (tmp_path / "rows.csv").read_text() == _old_csv(header, rows[:n])


@pytest.mark.parametrize("kind", ["variation", "g-identity"])
def test_other_kinds_csv_unchanged(kind, tmp_path, monkeypatch):
    captured = {}
    write = cli._write_csv

    def spy(path, header, rows):
        captured["text"] = _old_csv(header, rows)
        write(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", spy)
    config = ({"model": {"name": "bm_unit"}, "gammas": [1.0, 2.0], "levels": [4, 6], "trials": 3}
              if kind == "variation" else {"d": 2})
    cli.run_config(kind, config, 1, tmp_path)
    assert (tmp_path / "results.csv").read_text() == captured["text"]
