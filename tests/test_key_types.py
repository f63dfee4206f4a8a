"""Each config key's type is its parameter's annotation: every value the type refuses
exits 2 naming the key, whatever kind or block the key belongs to."""

import inspect
import json
import math

import pytest

from symbolkit import cli
from symbolkit.cli import main
from symbolkit.errors import ConfigError

BM = {"name": "bm_unit"}
# a tiny valid config per kind; each of the kind's keys is replaced in turn
BASE = {
    "simulate": {"model": BM, "horizon": 0.1, "step": 0.05},
    "symbol-analytic": {"model": BM, "x_grid": [0.0], "xi_grid": [1.0]},
    "symbol-estimate": {"model": BM, "x_grid": [0.0], "xi_grid": [1.0]},
    "symbol-compare": {"model": BM, "x_grid": [0.0], "xi_grid": [1.0]},
    "generator-check": {"model": BM, "x_grid": [0.0]},
    "indices": {"symbol": {"name": "stable_like"}},
    "index-transfer": {"driver": {"name": "bm"}, "coefficient": {"name": "constant"},
                       "x_grid": [0.0]},
    "variation": {"model": BM, "gammas": [2.0], "levels": [4]},
    "growth": {"model": BM, "lambdas": [1.0]},
    "g-identity": {},
    # a driver and no model, so that the exactly-one-of rule does not fire first
    "bound-diagnostic": {"driver": {"name": "bm"}},
    "feller-demo": {},
}
WRONG = [True, "x", math.nan, math.inf, -math.inf, [], {}, [True], ["x"], [math.nan], 2.5]


def _params(fn) -> list:
    return [p for p in inspect.signature(fn, eval_str=True).parameters.values()
            if p.kind is p.KEYWORD_ONLY]


KEYS = {(kind, p.name): p for kind, fn in [*cli._HANDLERS.items(), ("estimator", cli._estimator)]
        for p in _params(fn)}


def _refuses(param, value) -> bool:
    """Whether the key's declared type refuses ``value``."""
    if param.annotation is bool:
        return not isinstance(value, bool)
    try:
        param.annotation(value, param.name)
    except ConfigError:
        return True
    return False


def _run(kind, key, value, out):
    if kind == "estimator":
        kind, cfg = "symbol-estimate", {**BASE["symbol-estimate"], "estimator": {key: value}}
    else:
        cfg = {**BASE[kind], key: value}
    path = out.with_suffix(".json")
    path.write_text(json.dumps(cfg))
    return main([kind, "--config", str(path), "--seed", "1", "--out", str(out)])


def test_every_kind_has_a_base_config():
    assert sorted(BASE) == sorted(cli.KINDS)


@pytest.mark.parametrize("kind, key", list(KEYS), ids=[f"{k}-{key}" for k, key in KEYS])
def test_each_refused_value_exits_2_naming_the_key(kind, key, tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)             # "x" is then the path of no file
    param = KEYS[kind, key]
    values = [v for v in WRONG if _refuses(param, v)]
    assert values, "the key's type refuses none of the wrong values"
    faults = []
    for i, value in enumerate(values):
        out = tmp_path / f"out{i}"
        code = _run(kind, key, value, out)
        err = capfd.readouterr().err
        record = json.loads((out / "error.json").read_text()) if code else {}
        one_line = err == json.dumps(record, sort_keys=True) + "\n"
        if (code, record.get("field"), one_line) != (2, key, True):
            faults.append((value, code, err))
    assert not faults


def test_symbol_analytic_writes_integer_entries_as_floats(tmp_path):
    # every grid entry is converted to a float, so 0 and 0.0 give the same bytes
    outs = []
    for tag, x_grid, xi_grid in (("int", [0, 1], [2]), ("float", [0.0, 1.0], [2.0])):
        cli.run_config("symbol-analytic", {"model": BM, "x_grid": x_grid, "xi_grid": xi_grid},
                       1, tmp_path / tag)
        outs.append([(tmp_path / tag / name).read_bytes()
                     for name in ("results.json", "results.csv")])
    assert outs[0] == outs[1]
    records = json.loads(outs[0][0])["results"]["records"]
    assert [(r["x"], r["xi"]) for r in records] == [(0.0, 2.0), (1.0, 2.0)]
    assert all(type(r["x"]) is float and type(r["xi"]) is float for r in records)
    assert outs[0][1].decode().splitlines()[1].startswith("0.0,2.0,")
