"""The index searches evaluate p on |e| only; the unfolded searches are the oracle.

A negative definite symbol has p(y, -xi) = conj p(y, xi), and numpy's cos,
sin, products and sums keep that bit for bit: Re p and |p| are even in xi.
``big_H``, ``small_h`` and ``beta_inf`` rely on this to evaluate each
direction grid once on |e|, and ``big_H`` reads its edge term |p(y, e/R)| off
the rho = 1 node of its quadrature grid.  The first part pins the evenness on
every measure variant; the second requires the folded searches to reproduce
``reference_indices`` bit for bit.  Equality is on the int64 view, so signed
zeros count.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_indices as ref
from symbolkit import catalog, indices
from symbolkit import coefficients as co
from symbolkit.indices import _h_integral_weights, _h_values
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, ZeroMeasure, normal_law,
                            uniform_law)
from symbolkit.quadrature import halfline_nodes
from symbolkit.sde import MultiDriverSpec
from symbolkit.symbols import (SymbolField, mixed_power_symbol, multi_driver_symbol,
                               power_law_symbol, symbol_from_exponent, symbol_of_model)


def bits(a) -> list:
    return np.ascontiguousarray(a, dtype=float).view(np.int64).ravel().tolist()


def _driver(name, **params):
    return catalog.resolve_driver({"name": name, "params": params})


def _triplet_symbol(drift, variance, measure=ZeroMeasure()):
    return symbol_from_exponent(LevyTriplet([drift], [[variance]], measure))


def _multi_driver():
    return multi_driver_symbol(MultiDriverSpec([
        (co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=6.0)),
        (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=4.0)),
        (co.sine(0.5, 1.0), catalog.bm_driver())]))


# name -> (symbol factory, largest |xi| drawn)
EVEN_SYMBOLS = {
    "zero": (lambda: _triplet_symbol(0.0, 0.0), 1e8),
    "drift": (lambda: symbol_from_exponent(_driver("drift", rate=-0.7)), 1e8),
    "gaussian": (lambda: symbol_from_exponent(_driver("bm")), 1e8),
    "cp_pm1": (lambda: symbol_from_exponent(_driver("cp_pm1", rate=2.0)), 1e8),
    "poisson": (lambda: symbol_from_exponent(_driver("poisson")), 1e8),
    "atoms+drift+gaussian": (lambda: _triplet_symbol(
        0.3, 0.5, FiniteActivity(1.5, AtomLaw.of([(0.5, 0.25), (-2.0, 0.75)]))), 1e8),
    "normal-law": (lambda: _triplet_symbol(
        0.1, 0.5, FiniteActivity(3.0, normal_law(0.2, 0.8))), 1e8),
    "narrow-normal-law": (lambda: _triplet_symbol(
        0.0, 0.0, FiniteActivity(1.5, normal_law(-5.0, 0.05))), 1e8),
    "uniform-law-image": (lambda: _triplet_symbol(
        0.2, 0.0, FiniteActivity(1.5, uniform_law(-0.7, 1.9).image(-1.7))), 1e8),
    "cauchy": (lambda: symbol_from_exponent(_driver("stable", alpha=1.0)), 1e8),
    "stable1.5": (lambda: symbol_from_exponent(
        _driver("stable", alpha=1.5, scale=0.5)), 1e8),
    "tempered": (lambda: symbol_from_exponent(_driver("tempered")), 1e8),
    "cp_tanh": (lambda: symbol_of_model(catalog.cp_tanh()), 1e8),
    "stable_sin": (lambda: symbol_of_model(catalog.stable_sin()), 1e8),
    "bm_bump_drift": (lambda: symbol_of_model(catalog.bm_bump_drift()), 1e8),
    "stable_like": (catalog.stable_like, 1e8),
    "power_law": (lambda: power_law_symbol(0.7, 2.0), 1e8),
    "mixed_power": (lambda: mixed_power_symbol([(1.0, 0.5), (0.3, 1.7)]), 1e8),
    "multi-driver": (_multi_driver, 1e8),
}


@lru_cache(maxsize=None)
def even_symbol(name) -> SymbolField:
    return EVEN_SYMBOLS[name][0]()


# --------------------------------------------------------------------------
# the evenness the fold relies on


def assert_even(p, ys, xis):
    ys, xis = ys.reshape(-1, 1), xis.reshape(-1, 1)
    plus, minus = p.many(ys, xis), p.many(ys, -xis)
    assert bits(minus.real) == bits(plus.real), (p.name, xis.ravel())
    assert bits(np.abs(minus)) == bits(np.abs(plus)), (p.name, xis.ravel())


@pytest.mark.parametrize("name", sorted(EVEN_SYMBOLS))
def test_re_and_abs_even_on_grid(name):
    xi_max = EVEN_SYMBOLS[name][1]
    mags = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 19.5],
                           np.geomspace(25.0, 1e8, 12)])
    xis = np.concatenate([mags, -mags])
    xis = xis[np.abs(xis) <= xi_max]
    ys = np.resize([0.0, -0.0, -1.523386358242358, 2.0, -5.0], xis.size)
    assert_even(even_symbol(name), ys, xis)


@pytest.mark.parametrize("name", sorted(EVEN_SYMBOLS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_re_and_abs_even_property(name, data):
    xi_max = EVEN_SYMBOLS[name][1]
    ys = data.draw(arrays(np.float64, 64, elements=st.floats(-5.0, 5.0)))
    xis = data.draw(arrays(np.float64, 64, elements=st.floats(-xi_max, xi_max)))
    assert_even(even_symbol(name), ys, xis)


# --------------------------------------------------------------------------
# the folded searches against the unfolded oracle


SEARCH_SYMBOLS = ("cp_tanh", "stable_like", "stable_sin", "bm_bump_drift", "multi-driver",
                  "atoms+drift+gaussian")
DIRECTIONS = {
    "default": 17,
    "even": 16,             # no e = 0 node
    "straddle": 2,          # the first refinement window is [-1, 1]
}


def test_search_symbols_cover_both_kinds():
    kinds = {even_symbol(name).x_independent for name in SEARCH_SYMBOLS}
    assert kinds == {True, False}


def test_rho_one_is_a_single_node():
    rho, _ = halfline_nodes()
    assert np.count_nonzero(rho == 1.0) == 1


@pytest.fixture
def cfg(request, monkeypatch):
    """The oracle's search plan, with the searches' direction count set to match."""
    monkeypatch.setattr(indices, "_SEARCH_DIRECTIONS", DIRECTIONS[request.param])
    return ref.SearchConfig(n_direction=DIRECTIONS[request.param])


def test_oracle_plan_is_the_searches_constants():
    assert ref.SearchConfig() == ref.SearchConfig(
        indices._SEARCH_STATES, indices._SEARCH_DIRECTIONS, indices._REFINE_ROUNDS,
        indices._REFINE_POINTS)


@pytest.mark.parametrize("cfg", sorted(DIRECTIONS), indirect=True)
@pytest.mark.parametrize("name", SEARCH_SYMBOLS)
def test_big_H_equals_the_unfolded_search(name, cfg):
    p = even_symbol(name)
    for x, R in ((0.3, 0.1), (-1.0, 1.0), (0.0, 10.0)):
        assert bits(indices.big_H(p, x, R)) == bits(ref.big_H(p, x, R, cfg)), (x, R)


@pytest.mark.parametrize("cfg", sorted(DIRECTIONS), indirect=True)
@pytest.mark.parametrize("name", SEARCH_SYMBOLS)
def test_small_h_equals_the_unfolded_search(name, cfg):
    p = even_symbol(name)
    for x, R, c0 in ((0.3, 0.1, 1.0), (-1.0, 1.0, 2.5), (0.0, 10.0, 0.5)):
        got = indices.small_h(p, x, R, c0)
        assert bits(got) == bits(ref.small_h(p, x, R, c0, cfg)), (x, R, c0)


@pytest.mark.parametrize("name", SEARCH_SYMBOLS)
def test_beta_inf_equals_the_unfolded_search(name):
    p = even_symbol(name)
    for x, eta_max in ((0.0, 1e4), (-2.0, 1e8)):
        got, want = indices.beta_inf(p, x, eta_max=eta_max), ref.beta_inf(p, x, eta_max=eta_max)
        assert bits(got.beta) == bits(want.beta) and got.clamped == want.clamped
        assert bits(got.points) == bits(want.points)


@pytest.mark.parametrize("es", [
    np.linspace(-1.0, 1.0, 17),
    np.linspace(-1.0, 1.0, 16),
    np.linspace(-0.25, 0.35, 21),                   # a refinement window across e = 0
    np.array([0.5, -0.0, 0.0, -0.5, 1.0, 0.5]),     # signed zeros and repeats
    np.array([-0.75]),
])
@pytest.mark.parametrize("name", SEARCH_SYMBOLS)
def test_h_values_equal_the_unfolded_grid(name, es):
    p = even_symbol(name)
    rho, weights = _h_integral_weights()
    ys = np.linspace(-1.0, 1.5, 5)
    got = _h_values(p, ys, es, 0.7, rho, weights)
    assert got.shape == (5, es.size)
    assert bits(got) == bits(ref.h_values(p, ys, es, 0.7, rho, weights))


def test_h_values_evaluate_nonnegative_directions_once():
    inner = even_symbol("cp_tanh")
    calls = []

    def batch(xs, xis):
        calls.append(xis.copy())
        return inner.batch_fn(xs, xis)

    p = SymbolField(batch_fn=batch, d=1)
    rho, weights = _h_integral_weights()
    es = np.linspace(-1.0, 1.0, 17)
    _h_values(p, np.array([0.0, 1.0]), es, 2.0, rho, weights)
    assert len(calls) == 1
    assert calls[0].shape == (2, 9 * rho.size, 1)
    assert not np.signbit(calls[0]).any()
