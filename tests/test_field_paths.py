"""A point call of a field is row 0 of its one-row batch, bit for bit.

Each ``CoefficientField`` and ``SymbolField`` has one evaluation function, on
batches; ``fld(x)`` and ``p(x, xi)`` evaluate the one-row batch.  So every
point value equals the matching row of ``many`` over a larger batch.
Equality is on the int64 view, so signed zeros count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.levy import FiniteActivity, LevyTriplet, normal_law
from symbolkit.sde import MultiDriverSpec
from symbolkit.symbols import (mixed_power_symbol, multi_driver_symbol, power_law_symbol,
                               solution_symbol, stable_like_symbol, symbol_from_exponent,
                               symbol_of_model)

VALUES = (0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 3.0, -3.0, 25.0)
BUMP_X = -1.523386358242358     # numpy's scalar x ** 2 rounds one ulp away from x * x here
STABLE_LIKE_AT = (-2.0, 0.5)    # a point formula once gave one ulp more than the batch here
XS = VALUES + (BUMP_X, STABLE_LIKE_AT[0])
XIS = VALUES + (STABLE_LIKE_AT[1],)


def bits(a) -> list:
    return np.ascontiguousarray(a).view(np.int64).ravel().tolist()


def grid():
    """Every (x, xi) pair of XS x XIS, as two (m, 1) columns."""
    xs = np.repeat(XS, len(XIS)).reshape(-1, 1)
    xis = np.tile(XIS, len(XS)).reshape(-1, 1)
    return xs, xis


# --------------------------------------------------------------------------
# coefficients


def assert_coefficient_rows(fld, xs):
    rows = fld.many(xs)
    for x, row in zip(xs, rows):
        point = fld(x)
        assert point.shape == (fld.d, fld.n) and point.dtype == np.float64
        assert bits(point) == bits(row), (fld.name, x)


@pytest.mark.parametrize("name", sorted(co._CATALOG))
def test_catalog_coefficient_point_is_batch_row(name):
    fld = co.from_dict({"name": name})
    assert_coefficient_rows(fld, np.array(XS).reshape(-1, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_bump_point_is_batch_row_property(xs):
    with np.errstate(over="ignore"):        # x^2 overflows to inf for |x| > 1.3e154
        assert_coefficient_rows(co.bump(0.5, 1.0), np.array(xs).reshape(-1, 1))


# --------------------------------------------------------------------------
# symbols


def assert_symbol_rows(p, xs, xis):
    rows = p.many(xs, xis)
    for x, xi, row in zip(xs, xis, rows):
        point = p(x, xi)
        assert type(point) is complex
        assert bits(np.array([point])) == bits(row), (p.name, x, xi)


def _driver(name, **params):
    return catalog.resolve_driver({"name": name, "params": params})


DRIVERS = {
    "bm": lambda: _driver("bm"),
    "drift": lambda: _driver("drift", rate=-0.7),
    "cp_pm1": lambda: _driver("cp_pm1", rate=2.0),
    "poisson": lambda: _driver("poisson"),
    "stable0.7": lambda: _driver("stable", alpha=0.7),
    "cauchy": lambda: _driver("stable", alpha=1.0),
    "stable1.5": lambda: _driver("stable", alpha=1.5, scale=0.5),
    "tempered": lambda: _driver("tempered"),
    "normal-law": lambda: LevyTriplet([0.1], [[0.5]], FiniteActivity(3.0, normal_law(0.2, 0.8))),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_symbol_point_is_batch_row(name):
    p = symbol_from_exponent(DRIVERS[name](), name=name)
    assert_symbol_rows(p, *grid())


@pytest.mark.parametrize("name", sorted(catalog.MODEL_CATALOG))
def test_model_symbol_point_is_batch_row(name):
    assert_symbol_rows(symbol_of_model(catalog.MODEL_CATALOG[name]()), *grid())


def test_solution_symbol_with_drift_point_is_batch_row():
    p = solution_symbol(DRIVERS["normal-law"](), co.bump(0.5, 1.0),
                        drift_coefficient=co.tanh_field(-0.5, 2.0))
    assert_symbol_rows(p, *grid())


def test_multi_driver_symbol_point_is_batch_row():
    spec = MultiDriverSpec([(co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=6.0)),
                            (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=4.0)),
                            (co.sine(0.5, 1.0), catalog.bm_driver())])
    assert_symbol_rows(multi_driver_symbol(spec), *grid())


@pytest.mark.parametrize("make", [
    lambda: power_law_symbol(0.7),
    lambda: power_law_symbol(2.0, coeff=3.0),
    lambda: mixed_power_symbol([(1.0, 0.5), (2.0, 1.5)]),
    lambda: stable_like_symbol(catalog.default_stable_like_alpha),
], ids=["power0.7", "power2", "mixed", "stable_like"])
def test_synthetic_symbol_point_is_batch_row(make):
    assert_symbol_rows(make(), *grid())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8))
def test_stable_like_point_is_batch_row_property(pairs):
    xs, xis = (np.array(col).reshape(-1, 1) for col in zip(*pairs))
    with np.errstate(over="ignore"):        # |xi|^alpha overflows to inf for huge |xi|
        assert_symbol_rows(stable_like_symbol(catalog.default_stable_like_alpha), xs, xis)

