"""Symbols on state x frequency grids equal the paired-row evaluation bit for bit.

``SymbolField.many(xs (m,k,d), xis (m,k,d))``, each state repeated along k,
lets a symbol do its per-state work (Phi(x), Psi(x), alpha(x)) once per
state; ``indices._eval_symbol_grid`` passes states and frequencies as
broadcast views.  The first part
pins the arithmetic that makes the grid values the paired rows' values:

- in d = n = 1 ``einsum`` adds the single product Phi * xi to +0.0, so the
  frequency map of the grid rounds as the paired rows' did;
- sqrt(xi * xi) == |xi|, so the d = 1 radius is the absolute value;
- ``pow`` gives the same bits on a broadcast exponent as on a repeated one.

The second part compares ``_eval_symbol_grid`` with the paired-row oracle
``reference_indices.eval_symbol_grid`` for every symbol kind and every
measure variant, and solution symbols with the pre-grid formula as well.
Equality is on the int64 view, so signed zeros count.
"""

from functools import lru_cache

import numpy as np
import pytest

import reference_indices as ref
from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.indices import _eval_symbol_grid
from symbolkit.errors import DimensionMismatch
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, StableSymmetric,
                            ZeroMeasure, normal_law)
from symbolkit.quadrature import halfline_nodes
from symbolkit.sde import MultiDriverSpec
from symbolkit.symbols import (mixed_power_symbol, multi_driver_symbol, power_law_symbol,
                               solution_symbol, stable_like_symbol, symbol_from_exponent)


def bits(a) -> list:
    return np.ascontiguousarray(a).view(np.int64).ravel().tolist()


# the smallest frequency of the index searches: the first exp-sinh node over
# the largest beta_0 radius
TINY = float(halfline_nodes()[0][0]) / 1e4


# --------------------------------------------------------------------------
# arithmetic facts


def test_einsum_adds_the_single_product_to_positive_zero():
    phi = np.array([-2.0, -1.0, 0.0, -0.0, 0.5, 3.0]).reshape(-1, 1, 1)
    xis = np.array([0.0, -0.0, TINY, -TINY, 1.7, -1e8]).reshape(1, -1, 1)
    grid = np.broadcast_to(xis, (phi.shape[0], xis.shape[1], 1))
    got = np.einsum("mdn,mkd->mkn", phi, grid)[:, :, 0]
    want = 0.0 + phi[:, :, 0] * xis[:, :, 0]
    assert bits(got) == bits(want)
    paired = np.einsum("mdn,md->mn", np.repeat(phi, xis.shape[1], axis=0),
                       np.tile(xis[0], (phi.shape[0], 1)))
    assert bits(got.ravel()) == bits(paired.ravel())


def test_sqrt_of_square_is_the_absolute_value():
    rng = np.random.default_rng(5)
    xi = np.concatenate([[0.0, -0.0, TINY, -TINY, 1e-150, 1e150],
                         rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-150, 150, 4000),
                         halfline_nodes()[0] / 1e4, halfline_nodes()[0] * 1e8])
    assert bits(np.linalg.norm(xi[:, None], axis=1)) == bits(np.abs(xi))


def test_pow_on_a_broadcast_exponent_matches_a_repeated_one():
    rng = np.random.default_rng(6)
    r = np.abs(rng.standard_normal((13, 700))) * 10.0 ** rng.uniform(-23, 8, (13, 700))
    a = rng.uniform(0.1, 1.99, 13)
    want = r ** np.repeat(a, 700).reshape(13, 700)
    got = np.zeros(r.shape, dtype=complex)
    np.power(r, a[:, None], out=got.real, where=r > 0)
    assert bits(got.real) == bits(want)


# --------------------------------------------------------------------------
# grid path against paired rows


MEASURES = {
    "zero": ZeroMeasure(),
    "atoms": FiniteActivity(1.5, AtomLaw.of([(0.5, 0.25), (-2.0, 0.75)])),
    "law": FiniteActivity(3.0, normal_law(0.2, 0.8)),
    "stable": StableSymmetric(1.5, 0.5),
    "density": catalog.tempered_density_driver().levy_measure,
}
# the continuous law stays below |xi| ~ 20; the density's closed form takes every |xi|
XI_MAX = {"law": 12.0}


def _driver(measure, full):
    return LevyTriplet([0.3 if full else 0.0], [[0.5 if full else 0.0]], MEASURES[measure])


def _multi_driver():
    return multi_driver_symbol(MultiDriverSpec([
        (co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=6.0)),
        (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=4.0)),
        (co.sine(0.5, 1.0), catalog.bm_driver())]))


# name -> (symbol factory, largest |xi|); sine and tanh vanish at 0 and change
# sign, so Phi(y) xi and Psi(y) xi meet every signed zero
GRID_SYMBOLS = {}
for _m in MEASURES:
    for _full in (False, True):
        for _drift in (None, co.tanh_field(0.0, 1.0)):
            _name = (f"solution-{_m}" + ("-gauss-drift" if _full else "")
                     + ("-Psi" if _drift is not None else ""))
            GRID_SYMBOLS[_name] = (
                lambda m=_m, f=_full, dr=_drift: solution_symbol(
                    _driver(m, f), co.sine(0.0, 1.0), dr),
                XI_MAX.get(_m, 1e8))
    GRID_SYMBOLS[f"exponent-{_m}"] = (
        lambda m=_m: symbol_from_exponent(_driver(m, True)), XI_MAX.get(_m, 1e8))
GRID_SYMBOLS.update({
    "multi-driver": (_multi_driver, 1e8),
    "stable_like": (catalog.stable_like, 1e8),
    "stable_like-steep": (lambda: stable_like_symbol(lambda y: 1.0 + 0.9 * np.tanh(y)), 1e8),
    "power_law": (lambda: power_law_symbol(0.7, 2.0), 1e8),
    "mixed_power": (lambda: mixed_power_symbol([(1.0, 0.5), (0.3, 1.7)]), 1e8),
})


@lru_cache(maxsize=None)
def grid_symbol(name):
    return GRID_SYMBOLS[name][0]()


def _frequencies(xi_max):
    pos = np.array([TINY, 3.0 * TINY, 1e-8, 0.25, 1.0, 2.5, xi_max / 3.0, xi_max])
    return np.concatenate([[0.0, -0.0], pos, -pos])


YS = np.array([-2.0, -0.3, -0.0, 0.0, 0.45, 1.0, 3.0])


@pytest.mark.parametrize("name", GRID_SYMBOLS)
def test_grid_equals_paired_rows(name):
    p = grid_symbol(name)
    xis = _frequencies(GRID_SYMBOLS[name][1])
    got = _eval_symbol_grid(p, YS, xis)
    assert got.shape == (YS.size, xis.size)
    assert bits(got) == bits(ref.eval_symbol_grid(p, YS, xis))


@pytest.mark.parametrize("name", [n for n in GRID_SYMBOLS if n.startswith("solution-")])
def test_solution_grid_equals_the_per_row_formula(name):
    # psi(Phi(y) xi) - i Psi(y) xi on repeated rows, as the symbol formed it
    # before it took grids
    measure = name.split("-")[1]
    full, with_psi = "-gauss-drift" in name, name.endswith("-Psi")
    driver, phi = _driver(measure, full), co.sine(0.0, 1.0)
    xis = _frequencies(XI_MAX.get(measure, 1e8))
    xs = np.repeat(YS, xis.size)[:, None]
    rows = np.tile(xis, YS.size)[:, None]
    want = driver.many(np.einsum("mdn,md->mn", phi.many(xs), rows))
    if with_psi:
        want = want - 1j * np.einsum("md,md->m", co.tanh_field(0.0, 1.0).many(xs)[:, :, 0], rows)
    got = _eval_symbol_grid(grid_symbol(name), YS, xis)
    assert bits(got.ravel()) == bits(want)


@pytest.mark.parametrize("name", GRID_SYMBOLS)
def test_real_part_and_modulus_even_on_the_grid(name):
    p = grid_symbol(name)
    pos = _frequencies(GRID_SYMBOLS[name][1])
    pos = np.abs(pos[pos >= 0])
    plus, minus = _eval_symbol_grid(p, YS, pos), _eval_symbol_grid(p, YS, -pos)
    assert bits(plus.real) == bits(minus.real)
    assert bits(np.abs(plus)) == bits(np.abs(minus))


def test_point_call_is_the_one_by_one_grid():
    p = grid_symbol("solution-atoms-gauss-drift-Psi")
    for y, xi in [(0.45, 2.5), (-0.0, -0.0), (-2.0, TINY)]:
        assert bits(np.array([p(y, xi)])) == bits(_eval_symbol_grid(
            p, np.array([y]), np.array([xi]))[0])


def test_grid_evaluates_the_coefficient_once_per_state():
    rows = []
    phi = co.sine(0.0, 1.0)
    batch = phi.batch_fn
    phi.batch_fn = lambda xs: rows.append(xs.shape[0]) or batch(xs)
    p = solution_symbol(_driver("atoms", True), phi)
    _eval_symbol_grid(p, YS, _frequencies(1e8))
    assert rows == [YS.size]


def test_grid_arguments_name_every_point():
    shapes = []
    p = grid_symbol("stable_like")
    many = p.many

    class Recorder:
        batch_fn, d = p.batch_fn, p.d

        def many(self, xs, xis):
            shapes.append((np.asarray(xs).shape, np.asarray(xis).shape))
            return many(xs, xis)

    xis = _frequencies(1e8)
    _eval_symbol_grid(Recorder(), YS, xis)
    assert shapes == [((YS.size, xis.size, 1), (YS.size, xis.size, 1))]


def test_grid_states_must_repeat_along_the_frequencies():
    p = grid_symbol("solution-atoms-gauss-drift-Psi")
    xis = np.broadcast_to(_frequencies(1e8).reshape(1, -1, 1), (YS.size, 18, 1))
    states = np.broadcast_to(YS.reshape(-1, 1, 1), xis.shape)
    copied = np.ascontiguousarray(states)
    assert bits(p.many(copied, xis)) == bits(p.many(states, xis))
    with pytest.raises(DimensionMismatch):
        p.many(YS.reshape(-1, 1), xis)
    copied[2, 5, 0] = 0.5
    with pytest.raises(DimensionMismatch):
        p.many(copied, xis)
