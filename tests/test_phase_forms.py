"""d = 1 phases as elementwise products against the matmul forms they replaced, bit for bit.

``AtomLaw.exponent_many`` forms a d = 1 phase as xi * y, and
``symbols._values_for_pm_xi`` as (X_t - x) * xi.  The matmul forms xi @ y and
(X_t - x) @ xi, kept here as oracles, start their sum from +0.0: they differ
from the products only where the phase is zero, +0 against -0, and every use
of the phase removes that sign.  Equality is on the int64 view, so signed
zeros count.
"""

import numpy as np
import pytest

from symbolkit import catalog, symbols
from symbolkit import coefficients as co
from symbolkit.levy import CHUNK_ROWS, AtomLaw, FiniteActivity, LevyTriplet, expi
from symbolkit.sde import SdeModel
from symbolkit.symbols import _values_for_pm_xi, symbol_of_model

TINY = np.finfo(float).tiny
SIGNED_EDGES = np.array([0.0, 5e-324, 1e-320, TINY / 2.0, TINY, 1e-8, 0.3, 1.0, 3.0, 1e3, 1e8])
EDGES = np.concatenate([SIGNED_EDGES, -SIGNED_EDGES])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64).ravel() != want.view(np.int64).ravel())
    assert bad.size == 0, (bad[:5], got.ravel()[bad[:5]], want.ravel()[bad[:5]])


# --------------------------------------------------------------------------
# oracles: the matmul phases


def matmul_atom_exponent(self, rate, xi):
    """``AtomLaw.exponent_many`` with the phase xi @ y in every dimension."""
    pos = self.positions
    partner = {}
    for k, y in enumerate(pos):
        taken = set(partner) | set(partner.values())
        i = next((i for i in range(k) if i not in taken and np.array_equal(pos[i], -y)), None)
        if i is not None:
            partner[k] = i
    lenders = set(partner.values())
    small = [np.linalg.norm(y) < 1.0 for y in pos]
    out = np.zeros(xi.shape[0], dtype=complex)
    for c0 in range(0, xi.shape[0], CHUNK_ROWS):
        rows = slice(c0, c0 + CHUNK_ROWS)
        conjugates = {}
        for k, (y, p) in enumerate(zip(pos, self.probabilities)):
            phase = xi[rows] @ y if small[k] or k not in partner else None
            if k in partner:
                term = conjugates.pop(partner[k])
            else:
                term = expi(phase)
                if k in lenders:
                    conjugates[k] = np.conj(term)
            term -= 1.0
            if small[k]:
                term -= 1j * phase
            term *= rate * p
            out[rows] -= term
    return out


def matmul_values(terminal, x, xi, t):
    """``_values_for_pm_xi`` at +xi alone, with the phase (X_t - x) @ xi in every dimension."""
    e = expi((terminal - x) @ xi)
    e -= 1.0
    np.negative(e, out=e)
    e /= t
    return e


# --------------------------------------------------------------------------
# atom exponents and the analytic symbols built on them


def xi_column():
    """Signed zeros, subnormals and |xi| up to 1e8, across a row-chunk boundary."""
    rng = np.random.default_rng(12)
    wide = 10.0 ** rng.uniform(-12.0, 8.0, 2 * CHUNK_ROWS)
    wide[::2] *= -1.0
    wide[CHUNK_ROWS - 3:CHUNK_ROWS + 3] = [0.0, -0.0, 5e-324, -5e-324, 1e8, -1e8]
    return np.concatenate([EDGES, np.logspace(-320, 8, 400), -np.logspace(-320, 8, 400), wide])


ATOM_LAWS = {
    "pm1": [(1.0, 0.5), (-1.0, 0.5)],
    "unit": [(1.0, 1.0)],
    "compensated": [(0.4, 0.25), (-0.4, 0.25), (-2.0, 0.5)],
    "zero_and_repeats": [(0.0, 0.2), (1.0, 0.2), (-1.0, 0.2), (1.0, 0.2), (-0.5, 0.2)],
    "asymmetric_small": [(0.7, 0.6), (-0.05, 0.4)],
}


@pytest.mark.parametrize("name", sorted(ATOM_LAWS))
def test_atom_exponent_d1_is_the_matmul_form(name):
    law = AtomLaw.of(ATOM_LAWS[name])
    xi = xi_column()[:, None]
    assert_same_bits(law.exponent_many(1.7, xi), matmul_atom_exponent(law, 1.7, xi))


def test_atom_exponent_planar_keeps_the_matmul():
    law = AtomLaw.of([((1.0, -0.5), 0.3), ((-1.0, 0.5), 0.3), ((0.2, 0.1), 0.4)])
    col = xi_column()
    xi = np.stack([col, np.roll(col, 7)], axis=1)
    assert_same_bits(law.exponent_many(2.0, xi), matmul_atom_exponent(law, 2.0, xi))


def _atom_model(atoms, phi):
    return SdeModel(coefficient=phi, driver=LevyTriplet(
        [0.2], [[0.5]], FiniteActivity(1.5, AtomLaw.of(atoms))))


SYMBOL_MODELS = {
    "cp_tanh": catalog.cp_tanh,
    "feller_demo": catalog.feller_demo_model,       # Phi(+-0) = -+0: zero arguments
    "compensated_bump": lambda: _atom_model(ATOM_LAWS["compensated"], co.bump(0.5, 1.0)),
    "small_sine": lambda: _atom_model(ATOM_LAWS["asymmetric_small"], co.sine(0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(SYMBOL_MODELS))
def test_analytic_symbol_is_the_matmul_form(name, monkeypatch):
    p = symbol_of_model(SYMBOL_MODELS[name]())
    xs, xis = np.meshgrid(np.array([0.0, -0.0, 5e-324, 0.5, -2.0, 1e3]), xi_column()[::7])
    got = p.many(xs.ravel(), xis.ravel())
    monkeypatch.setattr(AtomLaw, "exponent_many", matmul_atom_exponent)
    assert_same_bits(got, p.many(xs.ravel(), xis.ravel()))


# --------------------------------------------------------------------------
# MC values


def _terminals(x, d):
    """States equal to x (phase +-0), at subnormal distances, and up to 1e8 away."""
    steps = np.concatenate([SIGNED_EDGES, np.logspace(-12, 8, 2 * CHUNK_ROWS)])
    steps = np.concatenate([steps, -steps])[:, None] * np.ones(d)
    steps[::3, 0] *= 0.5
    return np.concatenate([np.repeat(x[None], 5, axis=0), x + steps])


@pytest.mark.parametrize("t", [0.04, 0.005])
def test_values_for_xi_d1_is_the_matmul_form(t):
    x = np.array([0.25])
    terminal = _terminals(x, 1)
    for xi in (0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0, 1e-8, 1e3, -1e8):
        xi = np.array([xi])
        assert_same_bits(_values_for_pm_xi(terminal, x, xi, t, False)[0],
                         matmul_values(terminal, x, xi, t))


def _seen_phases(monkeypatch):
    seen = []

    def spy(phase, out=None):
        seen.append(np.array(phase))
        return expi(phase, out=out)

    monkeypatch.setattr(symbols, "expi", spy)
    return seen


def test_values_for_xi_phase_is_elementwise_in_d1(monkeypatch):
    # states equal to x and a negative xi: the product is -0, the matmul +0
    seen = _seen_phases(monkeypatch)
    x, xi = np.array([1.0]), np.array([-2.0])
    terminal = np.full((6, 1), 1.0)
    got = _values_for_pm_xi(terminal, x, xi, 0.01, False)[0]
    assert np.signbit(seen[0]).all()
    assert not np.signbit((terminal - x) @ xi).any()
    assert_same_bits(got, matmul_values(terminal, x, xi, 0.01))


@pytest.mark.parametrize("xi", [[-2.0, -1.0], [-0.0, 0.0], [3.0, -1e8]])
def test_values_for_xi_d2_goes_through_matmul(xi, monkeypatch):
    seen = _seen_phases(monkeypatch)
    x, xi = np.array([0.5, -1.0]), np.array(xi)
    terminal = _terminals(x, 2)
    got = _values_for_pm_xi(terminal, x, xi, 0.02, False)[0]
    phase = np.concatenate(seen)
    assert_same_bits(phase, (terminal - x) @ xi)
    assert not np.signbit(phase[:5]).any()      # the matmul sum of two -0 products is +0
    assert_same_bits(got, matmul_values(terminal, x, xi, 0.02))
