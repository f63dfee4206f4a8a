"""e^{i phase} from real cos/sin against the complex exp it replaces, bit for bit.

The old formulas stay here as the slow oracles: ``np.exp(1j * phase)``, the
atom-by-atom exponent loop, the three-part sum of ``eval_exponent_many`` and
the MC values at +xi alone of ``_values_for_pm_xi``.  Equality is on the
int64 view, so signed zeros count.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import symbolkit as sk
from symbolkit import catalog, levy
from symbolkit.levy import (CHUNK_ROWS, AtomLaw, FiniteActivity, LevyTriplet,
                            StableSymmetric, ZeroMeasure, eval_exponent_many, expi)
from symbolkit.symbols import _values_for_pm_xi


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64).ravel() != want.view(np.int64).ravel())
    assert bad.size == 0, (bad[:5], got.ravel().view(np.int64)[bad[:5]],
                           want.ravel().view(np.int64)[bad[:5]])


# --------------------------------------------------------------------------
# oracles: the formulas before e^{i phase} was built from cos/sin


def old_atom_exponent(measure, xi):
    law = measure.law
    out = np.zeros(xi.shape[0], dtype=complex)
    for y, p in zip(law.positions, law.probabilities):
        phase = xi @ y
        term = np.exp(1j * phase) - 1.0
        if np.linalg.norm(y) < 1.0:
            term = term - 1j * phase
        out -= measure.rate * p * term
    return out


def old_eval_exponent_many(triplet, xi):
    xi = np.asarray(xi, dtype=float)
    measure = triplet.levy_measure
    if isinstance(measure, FiniteActivity) and isinstance(measure.law, AtomLaw):
        jump = old_atom_exponent(measure, xi)
    else:
        jump = measure.exponent_many(xi)
    drift_part = -1j * (xi @ triplet.drift)
    gaussian_part = 0.5 * np.einsum("mi,ij,mj->m", xi, triplet.covariance, xi)
    return drift_part + gaussian_part + jump


def old_values_for_xi(terminal, x, xi, t):
    phase = (terminal - x) @ xi
    return -(np.exp(1j * phase) - 1.0) / t


# --------------------------------------------------------------------------
# the helper

TINY = np.finfo(float).tiny
SUBNORMALS = [5e-324, 1e-320, TINY / 2.0, np.nextafter(TINY, 0.0)]


def phase_grid():
    mags = np.concatenate([np.logspace(-300, 16, 4001), SUBNORMALS, [TINY, 1e300],
                           np.linspace(0.0, 50.0, 2001)[1:]])
    rng = np.random.default_rng(5)
    wide = 10.0 ** rng.uniform(-20, 16, 20000)
    return np.concatenate([[0.0, -0.0], mags, -mags, wide, -wide])


def test_expi_matches_complex_exp_on_grid():
    phase = phase_grid()
    assert_same_bits(expi(phase), np.exp(1j * phase))


def test_expi_negative_zero_phase_gives_positive_zero_sine():
    e = expi(np.array([-0.0, 0.0]))
    assert_same_bits(e, np.array([1.0 + 0.0j, 1.0 + 0.0j]))
    assert not np.signbit(e.imag).any()


def test_expi_keeps_shape_and_fills_out():
    phase = phase_grid()[:3000].reshape(30, 100)
    assert_same_bits(expi(phase), np.exp(1j * phase))
    out = np.full(phase.shape, np.nan + 1j, dtype=complex)
    assert expi(phase, out=out) is out
    assert_same_bits(out, np.exp(1j * phase))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_expi_matches_complex_exp_on_any_finite_phase(phase):
    assert_same_bits(expi(phase), np.exp(1j * phase))


# --------------------------------------------------------------------------
# psi.many

XI_1D = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-8, -1e-8, 1.0, -1.0,
                  1e3, -1e3, 1e8, -1e8, 0.3, -2.5, 17.0])


def atom_triplet(atoms, rate=1.5, drift=0.0, variance=0.0):
    return LevyTriplet([drift], [[variance]], FiniteActivity(rate, AtomLaw.of(atoms)))


def planar_triplet():
    law = AtomLaw.of([((1.0, -0.5), 0.3), ((-1.0, 0.5), 0.3), ((0.2, 0.1), 0.2),
                      ((-0.2, -0.1), 0.2)])
    return LevyTriplet([0.0, 0.0], np.zeros((2, 2)), FiniteActivity(2.0, law))


TRIPLETS = {
    "cp_pm1": catalog.compound_poisson_pm1(2.0),
    "poisson": catalog.poisson_unit(3.0),
    "asymmetric": atom_triplet([(1.5, 0.2), (-0.7, 0.5), (3.0, 0.3)]),
    "compensated": atom_triplet([(0.4, 0.25), (-0.4, 0.25), (-2.0, 0.5)]),
    "zero_and_repeats": atom_triplet([(0.0, 0.2), (1.0, 0.2), (-1.0, 0.2), (1.0, 0.2),
                                      (-0.5, 0.2)]),
    "one_lender_two_mirrors": atom_triplet([(1.0, 0.4), (-1.0, 0.3), (-1.0, 0.3)]),
    "drift_only": LevyTriplet([0.7], [[0.0]]),
    "gaussian_only": LevyTriplet([0.0], [[2.0]]),
    "drift_and_jumps": atom_triplet([(1.0, 0.5), (-1.0, 0.5)], drift=-0.3),
    "gaussian_and_jumps": atom_triplet([(0.5, 0.5), (-0.5, 0.5)], variance=0.5),
    "stable": LevyTriplet([0.0], [[0.0]], StableSymmetric(1.3, 0.5)),
    "zero": LevyTriplet([0.0], [[0.0]], ZeroMeasure()),
}


@pytest.mark.parametrize("name", sorted(TRIPLETS))
def test_psi_many_is_the_old_sum_bit_for_bit(name):
    triplet = TRIPLETS[name]
    xi = XI_1D[:, None]
    assert_same_bits(eval_exponent_many(triplet, xi), old_eval_exponent_many(triplet, xi))


def test_psi_many_planar_atoms_bit_for_bit():
    rng = np.random.default_rng(2)
    pairs = np.array([[1.0, 2.0], [0.5, 1.0], [1.0, -1.0], [-0.0, 0.0], [0.0, -0.0]])
    xi = np.concatenate([pairs, -pairs, np.stack(np.meshgrid(XI_1D, XI_1D), -1).reshape(-1, 2),
                         rng.normal(size=(500, 2)) * 40.0])
    triplet = planar_triplet()
    assert_same_bits(eval_exponent_many(triplet, xi), old_eval_exponent_many(triplet, xi))


@pytest.mark.parametrize("name", ["cp_pm1", "compensated", "zero_and_repeats", "planar"])
def test_psi_many_across_row_chunks_bit_for_bit(name):
    triplet = planar_triplet() if name == "planar" else TRIPLETS[name]
    rng = np.random.default_rng(6)
    xi = rng.normal(size=(2 * CHUNK_ROWS + 7, triplet.dim)) * 300.0
    xi[CHUNK_ROWS - 2:CHUNK_ROWS + 2] = 0.0
    assert_same_bits(eval_exponent_many(triplet, xi), old_eval_exponent_many(triplet, xi))


def test_mirrored_atoms_share_at_signed_zeros():
    # y and -y at xi = +-0: the even path's real part and +0 imaginary part
    measure = FiniteActivity(1.0, AtomLaw.of([(1.0, 0.5), (-1.0, 0.5)]))
    xi = np.array([[0.0], [-0.0]])
    got = measure.exponent_many(xi)
    assert_same_bits(got, old_atom_exponent(measure, xi))
    assert_same_bits(got, np.zeros(2, dtype=complex))


# --------------------------------------------------------------------------
# even atom laws: one cos per mirror pair, against the complex sum

XI_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-320, -TINY / 2.0, TINY, 1e-9, -1e-9,
                     1e8, -1e8])
SMALL_Y = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)     # compensated
LARGE_Y = st.floats(1.0, 1e150) | st.floats(-1e150, -1.0)
RATES = st.floats(1e-300, 1e6)


def even_atoms(d):
    """1-3 adjacent mirror pairs (y, -y) of equal probability in dimension d."""
    pair = st.tuples(st.lists(SMALL_Y | LARGE_Y, min_size=d, max_size=d), st.floats(0.01, 1.0))

    def atoms(pairs):
        total = 2.0 * sum(w for _, w in pairs)
        return [(s * np.array(y), w / total) for y, w in pairs for s in (1.0, -1.0)]
    return st.lists(pair, min_size=1, max_size=3).map(atoms)


def edge_rows(d):
    """The edge frequencies (+-0, subnormals, 1e-9, 1e8) in every coordinate."""
    return np.stack([np.roll(XI_EDGES, j) for j in range(d)], axis=1)


def xi_rows(d):
    """The edge rows and drawn rows of d frequencies."""
    entry = st.sampled_from(XI_EDGES.tolist()) | st.floats(-1e8, 1e8)
    return arrays(np.float64, st.tuples(st.integers(1, 40), st.just(d)),
                  elements=entry).map(lambda drawn: np.concatenate([edge_rows(d), drawn]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(even_atoms(d), RATES, xi_rows(d))))
def test_even_law_is_the_complex_sum_bit_for_bit(case):
    atoms, rate, xi = case
    measure = FiniteActivity(rate, AtomLaw.of(atoms))
    assert measure.law.even
    got = measure.exponent_many(xi)
    assert_same_bits(got, old_atom_exponent(measure, xi))
    assert not got.imag.any() and not np.signbit(got.imag).any()


def test_even_law_stays_real_where_the_compensator_overflows():
    # each complex term's -i xi.y rate p overflows, and the pair's infinities sum to NaN
    measure = FiniteActivity(10.0, AtomLaw.of([(0.5, 0.5), (-0.5, 0.5)]))
    xi = np.array([[1e308], [-1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = old_atom_exponent(measure, xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure.exponent_many(xi)
    assert_same_bits(got.real, want.real)
    assert np.isnan(want.imag).all()
    assert not got.imag.any() and not np.signbit(got.imag).any()


UNEVEN_LAWS = {
    "unequal_mirror_probabilities": [(1.0, 0.4), (-1.0, 0.6)],
    "non_adjacent_mirrors": [(1.0, 0.25), (2.0, 0.25), (-1.0, 0.25), (-2.0, 0.25)],
    "odd_count": [(0.5, 0.3), (-0.5, 0.3), (2.0, 0.4)],
    "lone_zero": [(0.0, 1.0)],
    "same_side_pair": [(0.5, 0.5), (0.5, 0.5)],
    "planar_unequal": [((1.0, -0.5), 0.3), ((-1.0, 0.5), 0.7)],
}


@pytest.mark.parametrize("name", sorted(UNEVEN_LAWS))
def test_uneven_law_is_the_complex_sum_bit_for_bit(name):
    law = AtomLaw.of(UNEVEN_LAWS[name])
    assert not law.even
    rng = np.random.default_rng(8)
    xi = np.concatenate([edge_rows(law.dim),
                         rng.normal(size=(2 * CHUNK_ROWS + 5, law.dim)) * 300.0])
    for rate in (1e-300, 1.7, 1e6):
        measure = FiniteActivity(rate, law)
        assert_same_bits(measure.exponent_many(xi), old_atom_exponent(measure, xi))


@pytest.mark.parametrize("phi", [-3.7, -1.0, 1e-300, 0.3, 1e100])
def test_image_of_an_even_law_is_even(phi):
    law = catalog.compound_poisson_pm1(2.0).levy_measure.law
    wide = AtomLaw.of([(0.4, 0.1), (-0.4, 0.1), (1e150, 0.4), (-1e150, 0.4)])
    assert law.even and wide.even
    assert law.image(phi).even and wide.image(phi).even


@pytest.mark.parametrize("y", [[0.0], [5e-324], [np.nextafter(1.0, 0.0)], [1.0], [-1e300],
                               [0.6, 0.8], [0.6, np.nextafter(0.8, 0.0)], [1e-300, -0.3],
                               [1e300, 0.0], [-1e200, 1e200]])
def test_small_atoms_are_decided_as_the_norm_without_a_warning(y):
    law = AtomLaw.of([(y, 1.0)])
    with np.errstate(over="ignore"):
        want = bool(np.linalg.norm(np.array(y)) < 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.small == (want,)
        assert_same_bits(law.mean_small(), np.array(y) if want else np.zeros(len(y)))


@pytest.mark.parametrize("atoms, xi", [
    ([(1e300, 0.5), (-1e300, 0.5)], [1e10]),          # even: the product overflows
    ([(1.0, 0.5), (-1.0, 0.5)], [np.inf]),
    ([(1e300, 0.4), (-1e300, 0.6)], [1e10]),          # the complex loop
    ([((1e300, 1.0), 1.0)], [1e10, 0.0]),             # the planar matmul
])
def test_an_infinite_phase_raises_without_a_warning(atoms, xi):
    measure = FiniteActivity(1.0, AtomLaw.of(atoms))
    xi = np.array([[0.5] * len(xi), xi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflows"):
            measure.exponent_many(xi)


@pytest.mark.parametrize("atoms", [[(1.0, 0.5), (-1.0, 0.5)], [(0.5, 0.4), (-1.0, 0.6)]])
def test_a_nan_phase_gives_nan_without_a_warning(atoms):
    measure = FiniteActivity(1.0, AtomLaw.of(atoms))
    xi = np.array([[0.5], [np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure.exponent_many(xi)
    assert_same_bits(got[:1], old_atom_exponent(measure, xi[:1]))
    assert np.isnan(got[1].real)


def old_mass_ratio(law):
    return sum(p * float(y[0]) ** 2 / (1.0 + float(y[0]) ** 2)
               for y, p in zip(law.positions, law.probabilities))


def test_mass_ratio_keeps_the_old_bits_wherever_they_compute():
    # p y^2 / (1 + y^2) is not p for every p past |y| = 2^27 (the product comes first),
    # so the old expression stays up to 2^512, where y^2 first overflows
    rng = np.random.default_rng(3)
    ys = np.concatenate([2.0 ** np.linspace(26.9, 28.0, 4001), 2.0 ** rng.uniform(0, 512, 4000),
                         [np.nextafter(2.0 ** 512, 0.0)], rng.normal(size=1000)])
    for y, p in zip(ys, rng.uniform(0.0, 1.0, ys.size)):
        law = AtomLaw.of([(y, p), (-y, 1.0 - p)])
        assert law.mass_ratio() == old_mass_ratio(law)
    for y in (2.0 ** 512, 1e200, 1.7e308):
        law = AtomLaw.of([(y, 0.3), (-y, 0.7)])
        with pytest.raises(OverflowError):
            old_mass_ratio(law)
        assert law.mass_ratio() == 0.3 + 0.7


def test_fixed_node_panels_bit_for_bit(monkeypatch):
    # the density's closed form takes the tail's e^{i xi W} from expi too
    triplet = LevyTriplet([0.0], [[0.0]], catalog.tempered_density_driver().levy_measure)
    xi = np.linspace(-20.0, 20.0, 81)[:, None]
    got = eval_exponent_many(triplet, xi)
    monkeypatch.setattr(levy, "expi", lambda phase: np.exp(1j * phase))
    assert_same_bits(got, old_eval_exponent_many(triplet, xi))


# --------------------------------------------------------------------------
# MC values


@pytest.mark.parametrize("t", [0.04, 0.005, 3.0])
def test_values_for_xi_bit_for_bit(t):
    rng = np.random.default_rng(9)
    x = np.array([0.25])
    terminal = np.concatenate([x + rng.normal(size=(2 * CHUNK_ROWS + 3, 1)) * 0.3,
                               np.repeat(x[None, :], 8, axis=0),        # phase +-0
                               x + np.array([[5e-324], [-5e-324], [1e8], [-1e8]])])
    for xi in ([-3.0], [-0.0], [0.0], [1.5], [1e-8], [1e3]):
        xi = np.array(xi)
        assert_same_bits(_values_for_pm_xi(terminal, x, xi, t, False)[0],
                         old_values_for_xi(terminal, x, xi, t))


def test_values_for_xi_negative_zero_phase():
    # terminals equal to x and a negative xi: every product in the phase is -0.0
    x = np.array([1.0])
    terminal = np.full((16, 1), 1.0)
    got = _values_for_pm_xi(terminal, x, np.array([-2.0]), 0.01, False)[0]
    assert_same_bits(got, old_values_for_xi(terminal, x, np.array([-2.0]), 0.01))


def test_values_for_xi_planar_bit_for_bit():
    rng = np.random.default_rng(4)
    x = np.array([0.5, -1.0])
    terminal = np.concatenate([x + rng.normal(size=(CHUNK_ROWS + 9, 2)), np.repeat(x[None], 4, 0)])
    for xi in ([1.0, -2.0], [-0.0, 0.0], [3.0, 3.0]):
        xi = np.array(xi)
        assert_same_bits(_values_for_pm_xi(terminal, x, xi, 0.02, False)[0],
                         old_values_for_xi(terminal, x, xi, 0.02))


def test_symbol_mc_values_unchanged_end_to_end(monkeypatch):
    # the table's workers form the values at xi and -xi through _values_for_pm_xi
    model = catalog.resolve_model({"name": "cp_tanh"})
    kwargs = dict(seed=5, paths_per_rung=1000, check_radius=False)
    got = sk.estimate_symbol_mc(model, 0.0, 1.5, **kwargs)
    # the stand-in forms every path, so it also checks the moved-paths subset
    monkeypatch.setattr(sk.symbols, "_values_for_pm_xi",
                        lambda terminal, x, xi, t, minus, moved=None: np.array(
        [old_values_for_xi(terminal, x, s * xi, t) for s in ((1.0, -1.0) if minus else (1.0,))]))
    want = sk.estimate_symbol_mc(model, 0.0, 1.5, **kwargs)
    assert (got.estimate, got.se) == (want.estimate, want.se)
    assert [(r.value, r.se) for r in got.rungs] == [(r.value, r.se) for r in want.rungs]
