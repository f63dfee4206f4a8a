"""H's weighted sum on the folded |e| grid, beta_inf's eta ladder in one symbol call.

``_h_values`` forms the quadrature sum and the edge term once per distinct |e|
and gathers only the (ny, ne) result, except when the fold leaves one |e|,
where numpy would send the one-row product to a BLAS dot.  ``beta_inf``
evaluates every eta's ball in one paired-row ``p.many`` call.  Both must
reproduce the unfolded oracles of ``reference_indices`` bit for bit, compared
on int64 views so that signed zeros count.  The CLI part covers the
``g-identity`` and estimator keys that a NaN, a bool or a bad range used to
pass.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

import reference_indices as ref
from symbolkit import catalog, indices
from symbolkit import coefficients as co
from symbolkit.cli import main
from symbolkit.indices import _h_integral_weights, _h_values, _window_grid, g_identity_check
from symbolkit.symbols import (SymbolField, _check_ladder, solution_symbol,
                               symbol_from_exponent, symbol_of_model)


def bits(a) -> list:
    return np.ascontiguousarray(a, dtype=float).view(np.int64).ravel().tolist()


def _transfer_driver():
    return catalog.resolve_driver({"name": "stable", "params": {"alpha": 1.2}})


SYMBOLS = {
    "stable1.2": lambda: symbol_from_exponent(_transfer_driver()),    # x-independent
    "stable_like": catalog.stable_like,
    "cp_tanh": lambda: symbol_of_model(catalog.cp_tanh()),
    "transfer": lambda: solution_symbol(_transfer_driver(), co.tanh_field(1.0, 0.5)),
}


@lru_cache(maxsize=None)
def symbol(name) -> SymbolField:
    return SYMBOLS[name]()


def test_symbols_cover_both_kinds():
    assert {symbol(name).x_independent for name in SYMBOLS} == {True, False}


# --------------------------------------------------------------------------
# _h_values


N_DIRECTIONS = (1, 2, 16, 17)


def direction_grids(n):
    """The first grid of a search with n directions, and refinement windows around
    its nodes as big_H draws them: one of them straddles e = 0 when n > 1."""
    es = np.linspace(-1.0, 1.0, n)
    hw = 2.0 / max(n - 1, 1)
    centres = sorted({float(es[0]), float(es[n // 2]), float(es[-1]), 0.1})
    return [es] + [_window_grid(c, hw, -1.0, 1.0, 21) for c in centres]


def test_direction_grids_straddle_zero():
    for n in N_DIRECTIONS:
        assert any(g.min() < 0.0 < g.max() and np.unique(np.abs(g)).size > 1
                   for g in direction_grids(n)[1:]), n


@pytest.mark.parametrize("n", N_DIRECTIONS)
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_h_values_equal_the_unfolded_grid(name, n):
    p = symbol(name)
    rho, weights = _h_integral_weights()
    for R in (0.1, 1.0, 20.0, 50.0):
        ys = np.array([0.3]) if p.x_independent else np.linspace(0.3 - 2 * R, 0.3 + 2 * R, 7)
        for es in direction_grids(n):
            got = _h_values(p, ys, es, R, rho, weights)
            assert got.shape == (ys.size, es.size)
            assert bits(got) == bits(ref.h_values(p, ys, es, R, rho, weights)), (R, es)


def test_cp_tanh_balls_reach_the_saturated_field():
    """At R >= 20 the H ball holds states where 2 + tanh(y) is exactly 1 or 3."""
    ys = np.linspace(-40.0, 40.0, 65)
    field = 2.0 + np.tanh(ys)
    assert (field == 1.0).any() and (field == 3.0).any()


@pytest.mark.parametrize("n", N_DIRECTIONS)
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_big_H_equals_the_unfolded_search(name, n, monkeypatch):
    monkeypatch.setattr(indices, "_SEARCH_DIRECTIONS", n)
    p, cfg = symbol(name), ref.SearchConfig(n_direction=n)
    for x, R in ((0.3, 0.1), (-1.0, 1.0), (0.0, 20.0), (1.5, 50.0)):
        assert bits(indices.big_H(p, x, R)) == bits(ref.big_H(p, x, R, cfg)), (x, R)


# --------------------------------------------------------------------------
# beta_inf


@pytest.mark.parametrize("eta_max", [1e3, 1e8])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_beta_inf_equals_the_per_eta_search(name, eta_max):
    p = symbol(name)
    for x in (0.0, -0.5, 2.0):
        got, want = indices.beta_inf(p, x, eta_max=eta_max), ref.beta_inf(p, x, eta_max=eta_max)
        assert bits(got.beta) == bits(want.beta) and got.clamped == want.clamped, x
        assert bits(got.points) == bits(want.points), x
        assert got.window == want.window


@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_beta_inf_makes_one_symbol_call(name):
    inner = symbol(name)
    calls = []

    def batch(xs, xis):
        calls.append((xs.copy(), xis.copy()))
        return inner.batch_fn(xs, xis)

    p = SymbolField(batch_fn=batch, d=1, x_independent=inner.x_independent)
    got = indices.beta_inf(p, 0.5, eta_max=1e8)
    assert len(calls) == 1
    states, freqs = calls[0]
    per_eta = 1 if inner.x_independent else 21
    assert freqs.shape == (56 * per_eta, 1, 1) and states.shape == (56 * per_eta, 1)
    assert bits(got.points) == bits(ref.beta_inf(inner, 0.5, eta_max=1e8).points)


def test_beta_inf_reads_a_nan_ball_as_zero():
    """A NaN anywhere in an eta's ball reads as sup 0 (log -inf), as the per-eta max did."""
    inner, eta = symbol("stable_like"), np.geomspace(10.0, 1e3, 16)[5]

    def batch(xs, xis):
        vals = inner.batch_fn(xs, xis)
        return np.where((np.abs(xis[:, :, 0]) == eta) & (xs[:, :1] > 0.0), np.nan, vals)

    p = SymbolField(batch_fn=batch, d=1)
    got = indices.beta_inf(p, 0.0, eta_max=1e3)
    assert bits(got.points) == bits(ref.beta_inf(p, 0.0, eta_max=1e3).points)
    assert got.points[5] == (float(np.log(eta)), -np.inf)
    assert all(np.isfinite(pt[1]) for i, pt in enumerate(got.points) if i != 5)


# --------------------------------------------------------------------------
# bad keys exit 2


def run_cli(kind, text, tmp_path, capfd):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(text)
    code = main([kind, "--config", str(path), "--seed", "1", "--out", str(out)])
    err = json.loads((out / "error.json").read_text()) if code else None
    if code:
        assert capfd.readouterr().err == json.dumps(err, sort_keys=True) + "\n"
        assert not (out / "results.json").exists()
    return code, err


ESTIMATE = ('{"model": {"name": "bm_unit"}, "x_grid": [0.0], "xi_grid": [1.0], '
            '"estimator": {"paths": 1000, ESTIMATOR}}')
BAD_KEYS = {
    "y_grid-nan": ("g-identity", '{"d": 1, "y_grid": [NaN]}', "y_grid",
                   "y_grid nan is not a finite number"),
    "y_grid-inf-d2": ("g-identity", '{"d": 2, "y_grid": [[1.0, -Infinity]]}', "y_grid",
                      "y_grid -inf is not a finite number"),
    "y_grid-bool": ("g-identity", '{"d": 1, "y_grid": [true]}', "y_grid",
                    "y_grid True is not a number"),
    "y_grid-empty": ("g-identity", '{"d": 1, "y_grid": []}', "y_grid",
                     "field 'y_grid' must be a nonempty list"),
    "R-negative": ("symbol-estimate", ESTIMATE.replace("ESTIMATOR", '"R": -1.0'), "R",
                   "R must be positive, got -1.0"),
    "R-zero": ("symbol-estimate", ESTIMATE.replace("ESTIMATOR", '"R": 0'), "R",
               "R must be positive, got 0"),
    "R-nan": ("symbol-estimate", ESTIMATE.replace("ESTIMATOR", '"R": NaN'), "R",
              "R nan is not a finite number"),
    "R-bool": ("symbol-estimate", ESTIMATE.replace("ESTIMATOR", '"R": true'), "R",
               "R True is not a number"),
    "t_ladder-nan": ("symbol-estimate", ESTIMATE.replace("ESTIMATOR", '"t_ladder": [NaN, 0.02]'),
                     "t_ladder", "t_ladder nan is not a finite number"),
    "t_ladder-string": ("symbol-compare",
                        ESTIMATE.replace("ESTIMATOR", '"t_ladder": [0.04, "0.02"]'),
                        "t_ladder", "t_ladder '0.02' is not a number"),
    "check_radius-string": ("symbol-estimate",
                            ESTIMATE.replace("ESTIMATOR", '"check_radius": "no"'),
                            "check_radius",
                            "estimator: key(s) ['check_radius'] must be true or false"),
}


@pytest.mark.parametrize("kind, text, field, message", BAD_KEYS.values(), ids=list(BAD_KEYS))
def test_bad_key_exits_2(kind, text, field, message, tmp_path, capfd):
    code, err = run_cli(kind, text, tmp_path, capfd)
    assert code == 2
    assert (err["error"], err["field"], err["message"]) == ("ConfigError", field, message)


@pytest.mark.parametrize("text", ['{"d": 1, "y_grid": [0.0, 2.5]}',
                                  '{"d": 2, "y_grid": [[1.0, 2.0], [0, 0]]}'])
def test_finite_y_grid_runs(text, tmp_path, capfd):
    code, _ = run_cli("g-identity", text, tmp_path, capfd)
    assert code == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())["results"]
    assert 0.0 <= results["max_residual"] <= 1e-6


def test_positive_radius_and_ladder_run(tmp_path, capfd):
    text = ESTIMATE.replace("ESTIMATOR", '"R": 2, "t_ladder": [0.04, 0.02], '
                                         '"check_radius": false')
    code, _ = run_cli("symbol-estimate", text, tmp_path, capfd)
    assert code == 0
    (record,) = json.loads((tmp_path / "out" / "results.json").read_text())["results"]["records"]
    assert record["r_used"] == 2.0


@pytest.mark.parametrize("y", [np.nan, np.inf, [0.5, np.nan]])
def test_g_identity_check_rejects_non_finite_y(y):
    with pytest.raises(ValueError, match="not finite"):
        g_identity_check(2 if isinstance(y, list) else 1, [0.5, y])


@pytest.mark.parametrize("ladder", [(np.nan, 0.02), (np.inf, 0.02), (0.04, -0.02)])
def test_ladder_rejects_non_finite_and_negative_times(ladder):
    with pytest.raises(ValueError, match="positive and finite"):
        _check_ladder(ladder, 10, 1000)
