"""Path simulation: scheme conventions, determinism; declared field constants."""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbolkit as sk
from symbolkit import catalog, coefficients as co, levy, sde
from symbolkit.cli import run_config
from symbolkit.sde import (path_from_binary, path_to_binary,
                           simulate_ensemble, simulate_paths_dense)
from symbolkit.seeding import TAG_PATH, rng_at


def zero_model():
    return sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver())


class TestSimulatePath:
    def test_zero_coefficients_constant_path(self):
        path = sk.simulate_path(zero_model(), 7.0, 1.0, 0.1, seed=5)
        assert np.all(path.states == 7.0)
        assert path.jumps == []

    def test_pure_ode_drift(self):
        model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver(),
                            drift_coefficient=co.constant(1.0))
        path = sk.simulate_path(model, 0.5, 2.0, 0.25, seed=5)
        assert np.abs(path.states[:, 0] - (0.5 + path.times)).max() <= 1e-12

    def test_poisson_absorbs_at_zero(self):
        # dX = -X_- dN: the first jump sends the path to zero, forever
        model = catalog.feller_demo_model()
        for seed in range(12):
            path = sk.simulate_path(model, 5.0, 6.0, 0.05, seed=seed)
            if not path.jumps:
                assert np.all(path.states == 5.0)
                continue
            t_first = path.jumps[0][0]
            idx = int(np.searchsorted(path.times, t_first))
            assert np.all(path.states[:idx] == 5.0)
            assert np.all(path.states[idx:] == 0.0)

    def test_jumps_snap_to_grid_and_enter_states(self):
        model = sk.SdeModel(coefficient=co.constant(1.0),
                            driver=catalog.poisson_unit(rate=5.0))
        path = sk.simulate_path(model, 0.0, 2.0, 0.125, seed=3)
        assert path.jumps
        grid = set(np.round(path.times, 12))
        jump_total = {}
        for t, v in path.jumps:
            assert round(t, 12) in grid
            jump_total[t] = jump_total.get(t, 0.0) + v[0]
        for t, total in jump_total.items():
            k = int(np.searchsorted(path.times, t))
            delta = path.states[k, 0] - path.states[k - 1, 0]
            assert delta == pytest.approx(total, abs=1e-12)

    def test_grid_invariants(self):
        path = sk.simulate_path(catalog.cp_tanh(), 0.0, 1.0, 0.01, seed=2)
        assert path.times[0] == 0.0
        assert np.all(np.diff(path.times) > 0)
        assert len(path.states) == len(path.times)
        assert path.states[0, 0] == 0.0

    def test_determinism_bit_identical(self):
        model = catalog.cp_tanh()
        a = sk.simulate_path(model, 0.3, 1.0, 0.01, seed=42)
        b = sk.simulate_path(model, 0.3, 1.0, 0.01, seed=42)
        assert np.array_equal(a.states, b.states)
        assert a.jumps == b.jumps
        c = sk.simulate_path(model, 0.3, 1.0, 0.01, seed=43)
        assert not np.array_equal(a.states, c.states)

    def test_overflow_guard(self):
        model = sk.SdeModel(coefficient=co.constant(1.0),
                            driver=catalog.drift_driver(rate=1e14))
        with pytest.raises(sk.SimulationOverflow):
            sk.simulate_path(model, 0.0, 1.0, 0.5, seed=0)

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            sk.simulate_path(zero_model(), 0.0, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            sk.simulate_path(zero_model(), 0.0, 0.05, 0.1, seed=0)


class TestMultiDriver:
    def test_single_driver_equals_simulate_path(self):
        phi = co.tanh_field(1.0, 0.5)
        driver = catalog.compound_poisson_pm1()
        single = sk.simulate_path(sk.SdeModel(coefficient=phi, driver=driver),
                                  0.2, 1.0, 0.02, seed=9)
        multi = sk.simulate_multi(sk.MultiDriverSpec([(phi, driver)]),
                                  0.2, 1.0, 0.02, seed=9)
        assert np.array_equal(single.states, multi.states)

    def test_zero_second_coefficient_is_inert(self):
        phi = co.bump(0.5, 1.0)
        bm = catalog.bm_driver()
        base = sk.simulate_multi(sk.MultiDriverSpec([(phi, bm)]), 0.0, 1.0, 0.02, seed=4)
        padded = sk.simulate_multi(
            sk.MultiDriverSpec([(phi, bm), (co.zero(), catalog.poisson_unit())]),
            0.0, 1.0, 0.02, seed=4)
        assert np.array_equal(base.states, padded.states)

    def test_bm_plus_poisson_terminal_mean(self):
        # E X_T = E Z^1_T + E Z^2_T = 0 + rate * T
        spec = sk.MultiDriverSpec([(co.constant(1.0), catalog.bm_driver()),
                                   (co.constant(1.0), catalog.poisson_unit())])
        horizon, n = 1.0, 100_000
        res = simulate_ensemble(spec.blocks(), None, np.array([0.0]), horizon,
                                20, n, seed=11)
        mean = res.terminal[:, 0].mean()
        se = res.terminal[:, 0].std(ddof=1) / np.sqrt(n)
        assert abs(mean - 1.0) <= 3 * se

    @pytest.mark.parametrize("sizes", [(0, 10), (4, 0)])
    def test_ensemble_sizes_below_one_rejected(self, sizes):
        n_steps, n_paths = sizes
        blocks = catalog.bm_bump().blocks()
        with pytest.raises(ValueError, match="must be at least 1"):
            simulate_ensemble(blocks, None, np.zeros(1), 1.0, n_steps, n_paths, 0)
        with pytest.raises(ValueError, match="must be at least 1"):
            simulate_paths_dense(blocks, None, np.zeros(1), 1.0, n_steps, n_paths, 0)

    def test_empty_driver_list_rejected(self):
        with pytest.raises(ValueError):
            sk.MultiDriverSpec([])


@pytest.mark.parametrize("x0, step, field", [
    (0.0, float("nan"), "step"), ([0.0, 1.0], 0.1, "x0"), ([], 0.1, "x0")])
def test_path_argument_refused_naming_it(x0, step, field):
    with pytest.raises(sk.ConfigError) as exc:
        sk.simulate_path(catalog.cp_tanh(), x0, 1.0, step, 1)
    assert exc.value.field == field


class _Reached(Exception):
    pass


def _no_grid(monkeypatch):
    """Make the time grid raise _Reached: a refused path never builds it, and an
    accepted one stops there without allocating its steps."""
    def arange(*args, **kwargs):
        raise _Reached
    monkeypatch.setattr(np, "arange", arange)


# finite step counts past MAX_PATH_STEPS: 1e308 (beyond numpy's array size), 1e13 (a
# 72.8 TiB grid) and one step past the bound
@pytest.mark.parametrize("horizon, step", [(1.0, 1e-308), (1e10, 1e-3),
                                           ((sde.MAX_PATH_STEPS + 1) * 0.5, 0.5)])
def test_path_past_max_steps_refused_naming_horizon(horizon, step, monkeypatch):
    _no_grid(monkeypatch)
    for run in (lambda: sk.simulate_path(catalog.cp_tanh(), 0.0, horizon, step, 1),
                lambda: sk.simulate_multi(sk.MultiDriverSpec(catalog.cp_tanh().blocks()),
                                          0.0, horizon, step, 1)):
        with pytest.raises(sk.ConfigError) as exc:
            run()
        assert exc.value.field == "horizon"
        assert str(exc.value) == (f"horizon {horizon} over step {step} is more than "
                                  f"{sde.MAX_PATH_STEPS} steps in one path")


_ONE_PATH = {"path": lambda horizon: sk.simulate_path(catalog.cp_tanh(), 0.0, horizon, 0.5, 1),
             "multi": lambda horizon: sk.simulate_multi(
                 sk.MultiDriverSpec(catalog.cp_tanh().blocks() * 2), 0.0, horizon, 0.5, 1)}


# 2^32 steps, 64 GiB of times and states, is within MAX_PATH_STEPS but past
# MAX_PATH_BYTES; so is 2^28 steps, the fewest past it in d = 1
@pytest.mark.parametrize("n_steps", [1 << 32, 1 << 28])
@pytest.mark.parametrize("run", list(_ONE_PATH))
def test_path_past_max_bytes_refused_naming_horizon(run, n_steps, monkeypatch):
    _no_grid(monkeypatch)
    with pytest.raises(sk.ConfigError) as exc:
        _ONE_PATH[run](n_steps * 0.5)
    size = 16 * (n_steps + 1)
    assert size > sde.MAX_PATH_BYTES
    assert exc.value.field == "horizon"
    assert str(exc.value) == (f"horizon {n_steps * 0.5} over step 0.5 is {n_steps} steps, "
                              f"whose times and states take {size} bytes, more than the "
                              f"{sde.MAX_PATH_BYTES} of one path")


@pytest.mark.parametrize("run", list(_ONE_PATH))
def test_path_of_max_bytes_reaches_the_grid(run, monkeypatch):
    _no_grid(monkeypatch)
    with pytest.raises(_Reached):
        _ONE_PATH[run](((1 << 28) - 1) * 0.5)


class TestEnsemble:
    def test_matches_weak_order_variance(self):
        # X_T = c W_T exactly for constant coefficient
        c, horizon, n = 1.7, 1.0, 100_000
        model = sk.SdeModel(coefficient=co.constant(c), driver=catalog.bm_driver())
        res = simulate_ensemble(model.blocks(), None, np.array([0.0]), horizon,
                                32, n, seed=17)
        var = res.terminal[:, 0].var(ddof=1)
        se = var * np.sqrt(2.0 / n)
        assert abs(var - c ** 2 * horizon) <= 4 * se

    def test_step_halving_stable_mean(self):
        model = catalog.bm_bump()
        n = 40_000
        means = []
        for steps in (16, 32):
            res = simulate_ensemble(model.blocks(), None, np.array([0.5]), 0.5,
                                    steps, n, seed=23)
            means.append(res.terminal[:, 0].mean())
        scatter = 4 * 1.5 * np.sqrt(0.5 / n)   # |Phi| <= 1.5
        assert abs(means[0] - means[1]) <= scatter

    def test_thread_count_invariance(self, monkeypatch):
        monkeypatch.setattr(sde, "DEFAULT_CHUNK", 8192)
        model = catalog.cp_tanh()
        runs = []
        for threads in (1, 4):
            res = simulate_ensemble(model.blocks(), None, np.array([0.0]), 0.5,
                                    10, 40_000, seed=31, threads=threads)
            runs.append(res.terminal.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_stopping_freezes_terminal(self):
        model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver(),
                            drift_coefficient=co.constant(1.0))
        res = simulate_ensemble(model.blocks(), model.drift_coefficient,
                                np.array([0.0]), 2.0, 20, 16, seed=0,
                                stop_radius=1.0)
        # drift 1: exit strictly beyond radius 1 at t=1.1, state frozen there
        assert np.all(res.exited)
        assert np.abs(res.terminal[:, 0] - 1.1).max() <= 1e-12

    def test_running_max_nondecreasing(self):
        # at a fixed step 1/64 the runs to 16, 32, 48 and 64 steps share their first
        # steps' draws, so each path's maximum can only grow with the horizon, and it
        # is at least the terminal distance
        model = catalog.bm_unit()
        maxima = []
        for n in (16, 32, 48, 64):
            res = simulate_ensemble(model.blocks(), None, np.array([0.0]), n / 64,
                                    n, 256, seed=3, record_max=True)
            assert res.running_max.shape == (256,)
            assert np.all(res.running_max >= np.abs(res.terminal[:, 0]))
            maxima.append(res.running_max)
        assert np.diff(maxima, axis=0).min() >= 0.0


def test_sampler_and_exponent_are_looked_up_in_levy_at_call_time(monkeypatch):
    # bench/tracing.py wraps these two module globals: every step draw and every
    # exponent batch of an ensemble, a path and a solution symbol must reach them
    calls, rows = Counter(), []
    for name in ("sample_step_ensemble", "eval_exponent_many"):
        def counted(*args, _f=getattr(levy, name), _name=name):
            calls[_name] += 1
            if _name == "sample_step_ensemble":
                rows.append(args[2])
            return _f(*args)
        monkeypatch.setattr(levy, name, counted)
    model = catalog.cp_tanh()           # compound Poisson, rate 1
    # 100 paths at dt = 0.025 expect 2.5 jumps per step: no look-ahead, one call per step
    simulate_ensemble(model.blocks(), None, np.array([0.0]), 0.1, 4, 100, seed=1)
    assert calls == {"sample_step_ensemble": 4}
    # the path's two steps (dt = 0.05) draw no jump, so they are one call of two rows
    assert not rng_at(2, TAG_PATH, 0).poisson(0.05, size=2).any()
    sk.simulate_path(model, 0.0, 0.1, 0.05, seed=2)
    assert calls == {"sample_step_ensemble": 5}
    assert sum(rows) == 4 * 100 + 2         # every path-step drawn once, through the global
    sk.symbol_of_model(model).many(np.zeros((3, 1)), np.ones((3, 1)))
    model.driver(1.0)
    assert calls == {"sample_step_ensemble": 5, "eval_exponent_many": 2}


def validate_field(fld, box_halfwidth=5.0, n_pairs=1000, seed=0):
    """Spot-check a field's declared bound / Lipschitz / growth constants.

    Raises ValueError with a witness pair on the first violation.
    """
    rng = np.random.default_rng(seed)
    slack = 1.0 + 1e-9
    xs = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_pairs, fld.d))
    ys = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_pairs, fld.d))
    px = fld.many(xs)
    py = fld.many(ys)
    norms = np.linalg.norm(px.reshape(n_pairs, -1), axis=1)
    if fld.bound < np.inf:
        bad = norms > fld.bound * slack
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{fld.name}: |Phi({xs[i]})| = {norms[i]} exceeds bound {fld.bound}")
    else:
        k = fld.growth_constant if fld.growth_constant is not None else fld.bound ** 2
        lhs = norms ** 2
        rhs = k * (1.0 + np.linalg.norm(xs, axis=1) ** 2) * slack
        if (lhs > rhs).any():
            i = int(np.argmax(lhs > rhs))
            raise ValueError(f"{fld.name}: growth condition fails at {xs[i]}")
    diff = np.linalg.norm((px - py).reshape(n_pairs, -1), axis=1)
    dist = np.linalg.norm(xs - ys, axis=1)
    bad = diff > fld.lipschitz * dist * slack + 1e-15
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{fld.name}: Lipschitz violation between {xs[i]} and {ys[i]} "
            f"(|dPhi| = {diff[i]}, L|dx| = {fld.lipschitz * dist[i]})")


class TestCoefficientValidation:
    def test_catalog_fields_pass_spot_checks(self):
        for fld in (co.constant(2.0), co.bump(0.5, 1.0), co.sine(2.0, 1.0),
                    co.tanh_field(2.0, 1.0), co.cosine(0.0, 1.0)):
            validate_field(fld)
        validate_field(co.negative_identity())   # growth condition branch

    def test_understated_bound_caught(self):
        bad = co.scalar_field(lambda x: 2.0 + 0.0 * x, bound=1.0, lipschitz=0.0,
                              name="liar")
        with pytest.raises(ValueError, match="bound"):
            validate_field(bad)

    def test_understated_lipschitz_caught(self):
        # 0.0 declares a constant field, which dense runs sum in one pass
        for lipschitz in (0.1, 0.0):
            bad = co.scalar_field(np.sin, bound=1.0, lipschitz=lipschitz, name="steep")
            with pytest.raises(ValueError, match="Lipschitz"):
                validate_field(bad)


class TestExport:
    def test_csv_layout(self, tmp_path):
        # simulate's results.csv: a t,x_1..x_d header, then one row per time
        # whose values read back as path.bin's floats
        cfg = {"model": {"name": "cp_tanh"}, "x0": 0.3, "horizon": 1.5, "step": 0.1,
               "binary": True}
        run_config("simulate", cfg, 0, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        with open(tmp_path / "path.bin", "rb") as fh:
            path = path_from_binary(fh)
        assert lines[0] == "t," + ",".join(f"x_{j + 1}" for j in range(path.d))
        assert len(lines) == len(path.times) + 1
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(values, np.column_stack((path.times, path.states)))

    def test_binary_roundtrip(self):
        model = catalog.bm_bump()
        path = sk.simulate_path(model, 0.25, 1.0, 0.05, seed=8)
        buf = io.BytesIO()
        path_to_binary(path, buf)
        buf.seek(0)
        back = path_from_binary(buf)
        assert np.array_equal(back.times, path.times)
        assert np.array_equal(back.states, path.states)

    @pytest.mark.parametrize("cut, message", [
        (lambda rec: rec[:13], "expected 20 bytes, got 13"),
        (lambda rec: rec[:-5], "expected 92 bytes, got 87"),
        (lambda rec: rec + b"\0", "expected 92 bytes, got 93"),
        (lambda rec: rec[:20], "expected 92 bytes, got 20"),
    ], ids=["short_header", "short_body", "trailing_byte", "no_body"])
    def test_bad_record_raises_value_error_with_byte_counts(self, cut, message):
        # d = 2, length 3: a 20-byte header and 3 * (1 + 2) float64 values
        buf = io.BytesIO()
        path_to_binary(sk.SamplePath(times=np.arange(3.0), states=np.ones((3, 2)), jumps=[],
                                     seed=0), buf)
        with pytest.raises(ValueError, match=message):
            path_from_binary(io.BytesIO(cut(buf.getvalue())))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, 1e300, -1e300])
            | st.floats(allow_nan=False), min_size=d + 1, max_size=d + 1), min_size=1))))
    def test_binary_roundtrip_keeps_every_bit(self, case):
        d, rows = case
        values = np.array(rows)
        path = sk.SamplePath(times=values[:, 0].copy(), states=values[:, 1:].copy(), jumps=[],
                             seed=3)
        buf = io.BytesIO()
        path_to_binary(path, buf)
        assert len(buf.getvalue()) == 20 + 8 * values.size
        back = path_from_binary(io.BytesIO(buf.getvalue()))
        assert back.states.shape == (len(rows), d)
        assert back.times.tobytes() == path.times.tobytes()
        assert back.states.tobytes() == path.states.tobytes()
