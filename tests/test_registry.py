"""Catalog registries: a name maps to its constructor, and params are its keywords."""

import json

import numpy as np
import pytest

from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.cli import main
from symbolkit.levy import (DensityForm, FiniteActivity, LevyTriplet, exponential,
                            normal_law, tempered_power, uniform_law)
from symbolkit.symbols import mixed_power_symbol, power_law_symbol, stable_like_symbol

XS = np.linspace(-3.0, 3.0, 13)
XIS = np.array([-7.5, -1.0, -0.25, 0.0, 0.5, 2.0, 30.0])


def _triplet_driver(measure):
    return {"drift": [0.0], "covariance": [[0.0]], "levy_measure": measure}


MISSPELLED = {
    "coefficient": {"coefficient": {"name": "bump", "params": {"A": 2}},
                    "driver": {"name": "bm"}},
    "driver": {"coefficient": {"name": "constant"},
               "driver": {"name": "tempered", "params": {"aplha": 1.5}}},
    "continuous-law": {"coefficient": {"name": "constant"},
                       "driver": _triplet_driver({"kind": "atoms", "rate": 1.0,
                                                  "law": {"name": "normal", "sd": 3.0}})},
    "named-density": {"coefficient": {"name": "constant"},
                      "driver": _triplet_driver({"kind": "density", "name": "tempered_power",
                                                 "params": {"alhpa": 1.5}})},
    "params-not-object": {"coefficient": {"name": "sine", "params": [0.0, 1.0]},
                          "driver": {"name": "bm"}},
}


@pytest.mark.parametrize("which", sorted(MISSPELLED))
def test_misspelled_parameter_exits_2(which, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": MISSPELLED[which], "horizon": 0.1, "step": 0.05}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    assert not (out / "results.json").exists()


COEFFICIENTS = [
    ("constant", {"value": -0.75}, co.constant(-0.75)),
    ("zero", {}, co.zero()),
    ("bump", {"a": 0.25, "b": 2.0}, co.bump(0.25, 2.0)),
    ("sine", {"offset": 1.5, "amplitude": -0.5}, co.sine(1.5, -0.5)),
    ("cosine", {"offset": 0.5, "amplitude": 2.0}, co.cosine(0.5, 2.0)),
    ("tanh", {"offset": 2.0, "gain": 0.5}, co.tanh_field(2.0, 0.5)),
    ("neg_identity", {}, co.negative_identity()),
]


@pytest.mark.parametrize("name,params,direct", COEFFICIENTS, ids=[c[0] for c in COEFFICIENTS])
def test_coefficient_from_dict_is_the_constructor(name, params, direct):
    built = co.from_dict({"name": name, "params": params})
    np.testing.assert_array_equal(built.many(XS), direct.many(XS))
    assert (built.bound, built.lipschitz, built.name) == (direct.bound, direct.lipschitz,
                                                          direct.name)


def test_coefficient_catalog_is_covered():
    assert sorted(name for name, _, _ in COEFFICIENTS) == sorted(co._CATALOG)


DRIVERS = [
    ("bm", {"variance": 2.5}, lambda: catalog.bm_driver(2.5)),
    ("drift", {"rate": -0.5}, lambda: catalog.drift_driver(-0.5)),
    ("cp_pm1", {"rate": 3.0}, lambda: catalog.compound_poisson_pm1(3.0)),
    ("poisson", {"rate": 0.5}, lambda: catalog.poisson_unit(0.5)),
    ("stable", {"alpha": 1.3, "scale": 0.5}, lambda: catalog.stable_driver(1.3, 0.5)),
    ("tempered", {"alpha": 0.8, "decay": 2.0, "cutoff": 1e-2, "window": 20.0},
     lambda: catalog.tempered_density_driver(0.8, 2.0, 1e-2, 20.0)),
]


@pytest.mark.parametrize("name,params,direct", DRIVERS, ids=[d[0] for d in DRIVERS])
def test_driver_spec_is_the_constructor(name, params, direct):
    built = catalog.resolve_driver({"name": name, "params": params})
    np.testing.assert_array_equal(built.many(XIS[:, None]),
                                  direct().many(XIS[:, None]))
    assert built.name == direct().name


def test_driver_catalog_is_covered():
    assert sorted(name for name, _, _ in DRIVERS) == sorted(catalog._DRIVERS)


MEASURES = [
    ({"kind": "atoms", "rate": 2.0, "law": {"name": "normal", "mean": 0.3, "std": 0.5}},
     lambda: FiniteActivity(2.0, normal_law(0.3, 0.5))),
    ({"kind": "atoms", "rate": 1.5, "law": {"name": "uniform", "low": -0.7, "high": 1.9}},
     lambda: FiniteActivity(1.5, uniform_law(-0.7, 1.9))),
    ({"kind": "density", "name": "tempered_power", "cutoff": 1e-2, "window": 30.0,
      "params": {"a": 2.0, "alpha": 1.2, "b": 0.5}},
     lambda: DensityForm(tempered_power(2.0, 1.2, 0.5), window=30.0, cutoff=1e-2)),
    ({"kind": "density", "name": "exponential", "cutoff": 1e-2, "window": 30.0,
      "params": {"a": 0.5, "b": 1.5}},
     lambda: DensityForm(exponential(0.5, 1.5), window=30.0, cutoff=1e-2)),
]


@pytest.mark.parametrize("spec,direct", MEASURES, ids=["normal", "uniform", "tempered_power",
                                                       "exponential"])
def test_measure_spec_is_the_constructor(spec, direct):
    built = LevyTriplet.from_dict(_triplet_driver(spec))
    ref = LevyTriplet([0.0], [[0.0]], direct())
    np.testing.assert_array_equal(built.many(XIS[:, None]),
                                  ref.many(XIS[:, None]))


def _parent_tempered(alpha, decay):
    # the catalog driver's density formula before it was built through tempered_power
    return lambda y: abs(y) ** (-1.0 - alpha) * np.exp(-decay * abs(y)) if y != 0 else 0.0


@pytest.mark.parametrize("alpha,decay", [(0.5, 1.0), (1.5, 0.25), (1, 2)])
def test_tempered_driver_density_is_bit_identical(alpha, decay):
    density = catalog.tempered_density_driver(alpha, decay).levy_measure.density
    parent = _parent_tempered(alpha, decay)
    for y in (0.0, 1e-9, 0.5, 1.0, 40.0):
        for v in (y, -y, np.float64(y)):
            got, want = density(v), parent(v)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (v, got, want)


SYMBOLS = [
    ("power_law", {"alpha": 1.5, "coeff": 3.0}, lambda: power_law_symbol(1.5, 3.0)),
    ("mixed_power", {"terms": [[1.0, 0.7], [2.0, 1.6]]},
     lambda: mixed_power_symbol([(1.0, 0.7), (2.0, 1.6)])),
    ("stable_like", {}, lambda: stable_like_symbol(catalog.default_stable_like_alpha)),
]


@pytest.mark.parametrize("name,params,direct", SYMBOLS, ids=[s[0] for s in SYMBOLS])
def test_symbol_spec_is_the_constructor(name, params, direct):
    built = catalog.resolve_symbol({"name": name, "params": params})
    xs, xis = np.repeat(XS, XIS.size)[:, None], np.tile(XIS, XS.size)[:, None]
    np.testing.assert_array_equal(built.many(xs, xis), direct().many(xs, xis))


def test_symbol_catalog_is_covered():
    assert sorted(name for name, _, _ in SYMBOLS) == sorted(catalog._SYMBOLS)


MISSPELLED_SYMBOLS = {
    "power_law-coef": {"name": "power_law", "params": {"alpha": 1.5, "coef": 3.0}},
    "power_law-d": {"name": "power_law", "params": {"alpha": 1.5, "d": 2}},
    "mixed_power-term": {"name": "mixed_power", "params": {"term": [[1.0, 0.7]]}},
    "stable_like-params": {"name": "stable_like", "params": {"alpha": 1.5}},
    "unknown-name": {"name": "powerlaw", "params": {"alpha": 1.5}},
}


@pytest.mark.parametrize("which", sorted(MISSPELLED_SYMBOLS))
def test_misspelled_symbol_exits_2(which, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": MISSPELLED_SYMBOLS[which], "x_grid": [0.0]}))
    out = tmp_path / "out"
    assert main(["indices", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("ConfigError", 2)
    assert not (out / "results.json").exists()
