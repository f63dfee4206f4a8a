"""A solution symbol evaluates each distinct (Phi, Psi) state once, bit for bit.

``solution_symbol`` keys every state of a call by the bits of its Phi and
Psi rows, plus its frequency row unless all states share one stride-0 row,
and runs the frequency map, the driver exponent and the drift term on one
state per key.  These tests hold it to the oracle
``reference_symbols.solution_batch``, which evaluates every state, on grids
and paired rows where keys repeat and where they must stay apart.  Equality
is on the int64 view, so signed zeros and NaN payloads count.
"""

import numpy as np
import pytest

import reference_symbols as ref
from symbolkit import catalog
from symbolkit import coefficients as co
from symbolkit.levy import (AtomLaw, FiniteActivity, LevyTriplet, StableSymmetric,
                            ZeroMeasure, normal_law)
from symbolkit.quadrature import halfline_nodes
from symbolkit.sde import MultiDriverSpec
from symbolkit.symbols import multi_driver_symbol, solution_symbol


def bits(a) -> list:
    return np.ascontiguousarray(a).view(np.int64).ravel().tolist()


# states where 2 + tanh(y) is exactly 1.0 or 3.0 (|y| >= 19.1), on both sides,
# mixed with unsaturated ones and repeats
SATURATED = np.array([-1e4, -0.3, -50.0, -19.5, 1e4, 0.0, 25.0, -0.0, 0.45,
                      19.5, -1e4, 0.45, 3e3, -25.0])
TINY = float(halfline_nodes()[0][0]) / 1e4
FREQS = np.concatenate([[0.0, -0.0], np.array([TINY, 1e-8, 0.25, 1.0, 2.5, 40.0, 1e8]),
                        -np.array([TINY, 0.25, 3.0, 1e8])])

MEASURES = {
    "zero": ZeroMeasure(),
    "atoms-unmirrored": FiniteActivity(1.5, AtomLaw.of([(0.5, 0.25), (-2.0, 0.75)])),
    "atoms-mirrored": FiniteActivity(2.0, AtomLaw.of([(1.0, 0.4), (0.3, 0.2), (-1.0, 0.4)])),
    "law": FiniteActivity(3.0, normal_law(0.2, 0.8)),
    "stable": StableSymmetric(1.5, 0.5),
    "density": catalog.tempered_density_driver().levy_measure,
}


def _driver(measure, full=False):
    return LevyTriplet([0.3 if full else 0.0], [[0.5 if full else 0.0]], MEASURES[measure])


def _grid(states, freqs):
    """(m, d) states and the (m, k, d) stride-0 frequency view a grid call passes."""
    states = np.asarray(states, dtype=float).reshape(len(states), -1)
    freqs = np.asarray(freqs, dtype=float).reshape(len(freqs), -1)
    return states, np.broadcast_to(freqs[None], (len(states),) + freqs.shape)


def _assert_matches(driver, coefficient, drift, xs, xis):
    p = solution_symbol(driver, coefficient, drift)
    want = ref.solution_batch(driver, coefficient, drift)(xs, xis)
    got = p.batch_fn(xs, xis)
    assert got.shape == want.shape
    assert bits(got) == bits(want)


def _freqs_for(measure):
    # the continuous law's closed form is checked below |xi| ~ 20
    return FREQS[np.abs(FREQS) <= 12.0] if measure == "law" else FREQS


@pytest.mark.parametrize("drift", [None, co.tanh_field(0.0, 1.0)], ids=["no-Psi", "Psi"])
@pytest.mark.parametrize("full", [False, True], ids=["jumps", "gauss-drift"])
@pytest.mark.parametrize("measure", MEASURES)
def test_saturated_tanh_grid_matches_every_state(measure, full, drift):
    xs, xis = _grid(SATURATED, _freqs_for(measure))
    _assert_matches(_driver(measure, full), co.tanh_field(2.0, 1.0), drift, xs, xis)


@pytest.mark.parametrize("measure", MEASURES)
def test_paired_rows_with_repeated_states_match_every_state(measure):
    # each state repeats with several xi, +-0 among them: the keys carry the
    # frequency rows, so only equal (Phi, xi) pairs merge
    freqs = _freqs_for(measure)
    xs = np.repeat(SATURATED, freqs.size)[:, None]
    xis = np.tile(freqs, SATURATED.size).reshape(-1, 1, 1)
    _assert_matches(_driver(measure, True), co.tanh_field(2.0, 1.0),
                    co.tanh_field(0.0, 1.0), xs, xis)


@pytest.mark.parametrize("field", [co.constant(1.5), co.zero()], ids=["constant", "zero"])
def test_one_key_for_every_state(field):
    for measure in ("atoms-mirrored", "stable", "density"):
        xs, xis = _grid(SATURATED, FREQS)
        _assert_matches(_driver(measure, True), field, None, xs, xis)
        _assert_matches(_driver(measure, True), field, field, xs, xis)


def test_signed_zero_and_nan_states_stay_apart():
    # -0.0 + sin(+-0.0) is +-0.0: Phi rows +0.0 and -0.0 are two keys, and the
    # NaN state a third; the frequency map adds both zeros to +0.0, so only the
    # count tells a merge
    ys = np.array([0.0, -0.0, np.nan, 0.0, -0.0, np.nan, 1.0])
    driver, phi = _driver("atoms-unmirrored", True), co.sine(-0.0, 1.0)
    assert bits(phi.many(ys[:2, None])) == bits(np.array([0.0, -0.0]))
    rows = _recording(driver)
    xs, xis = _grid(ys, FREQS)
    with np.errstate(invalid="ignore"):
        got = solution_symbol(driver, phi).batch_fn(xs, xis)
        want = ref.solution_batch(driver, phi)(xs, xis)
    assert bits(got) == bits(want)
    assert rows[0] == 4 * FREQS.size
    assert np.isnan(got[[2, 5]]).all() and not np.isnan(got[[0, 1, 3, 4, 6]]).any()


def test_equal_phi_with_different_drift_stays_apart():
    ys = np.array([0.3, 0.8, 0.3, -0.8])
    xs, xis = _grid(ys, FREQS)
    drift = co.tanh_field(0.0, 1.0)
    p = solution_symbol(_driver("stable"), co.constant(1.5), drift)
    got = p.batch_fn(xs, xis)
    assert bits(got) == bits(ref.solution_batch(_driver("stable"), co.constant(1.5), drift)(xs, xis))
    assert bits(got[0]) == bits(got[2]) and bits(got[0]) != bits(got[1])
    assert bits(got[1].imag) != bits(got[3].imag)


def _tanh_matrix():
    """Phi(y) = [[2 + tanh y1, tanh y2 / 2], [-tanh y1 / 4, 1 + tanh y2]], d = n = 2."""

    def batch_fn(xs):
        t = np.tanh(xs)
        out = np.empty((xs.shape[0], 2, 2))
        out[:, 0, 0], out[:, 0, 1] = 2.0 + t[:, 0], 0.5 * t[:, 1]
        out[:, 1, 0], out[:, 1, 1] = -0.25 * t[:, 0], 1.0 + t[:, 1]
        return out

    return co.CoefficientField(batch_fn=batch_fn, d=2, n=2, bound=4.0, lipschitz=2.0,
                               name="tanh-matrix")


def _tanh_drift2():
    return co.CoefficientField(batch_fn=lambda xs: np.tanh(xs)[:, :, None], d=2, n=1,
                               bound=1.0, lipschitz=1.0, name="tanh-drift")


def test_two_dimensional_coefficient_with_repeated_rows():
    driver = LevyTriplet([0.3, -0.2], [[1.0, 0.3], [0.3, 0.5]], FiniteActivity(
        2.0, AtomLaw.of([((1.0, 0.5), 0.5), ((-1.0, -0.5), 0.3), ((0.2, 2.0), 0.2)])))
    states = np.array([[-50.0, 30.0], [0.2, -0.7], [-1e4, 1e3], [0.2, -0.7], [-0.0, 0.0],
                       [0.0, -0.0], [60.0, -60.0], [40.0, -25.0], [1.5, 30.0]])
    rng = np.random.default_rng(3)
    freqs = np.concatenate([[[0.0, -0.0], [-0.0, 0.0], [TINY, -TINY]],
                            rng.standard_normal((24, 2)) * 10.0 ** rng.uniform(-3, 4, (24, 1))])
    xs, xis = _grid(states, freqs)
    for drift in (None, _tanh_drift2()):
        _assert_matches(driver, _tanh_matrix(), drift, xs, xis)
        # the same points as paired rows
        _assert_matches(driver, _tanh_matrix(), drift, np.repeat(states, len(freqs), axis=0),
                        np.tile(freqs, (len(states), 1)).reshape(-1, 1, 2))


def test_multi_driver_symbol_matches_every_state():
    spec = MultiDriverSpec([
        (co.bump(0.5, 1.0), catalog.compound_poisson_pm1(rate=6.0)),
        (co.tanh_field(2.0, 1.0), catalog.poisson_unit(rate=4.0)),
        (co.sine(0.5, 1.0), catalog.bm_driver())])
    xs, xis = _grid(SATURATED, FREQS)
    parts = [ref.solution_batch(drv, fld)(xs, xis) for fld, drv in spec.blocks()]
    want = np.array(parts[0], dtype=complex)
    for part in parts[1:]:
        want += part
    assert bits(multi_driver_symbol(spec).batch_fn(xs, xis)) == bits(want)


def _recording(driver):
    rows = []
    many = driver.many
    driver.many = lambda xi: rows.append(xi.shape[0]) or many(xi)
    return rows


def test_the_exponent_runs_once_per_distinct_key():
    # 2 + tanh: +-1e4 and +-100 saturate to 1.0 and 3.0, tanh(+-0.0) adds to 2.0
    # both ways, and 0.5 repeats: four keys for eight states
    ys = np.array([-1e4, -100.0, 100.0, 1e4, 0.5, 0.5, -0.0, 0.0])
    driver = _driver("atoms-unmirrored")
    rows = _recording(driver)
    phi_rows = []
    phi = co.tanh_field(2.0, 1.0)
    batch = phi.batch_fn
    phi.batch_fn = lambda xs: phi_rows.append(xs.shape[0]) or batch(xs)
    xs, xis = _grid(ys, FREQS)
    solution_symbol(driver, phi).batch_fn(xs, xis)
    assert rows == [4 * FREQS.size]
    assert phi_rows == [ys.size]
    # paired rows key on the frequency too: ys x {1.0, -1.0} has eight keys
    rows.clear()
    solution_symbol(driver, phi).many(np.repeat(ys, 2)[:, None], np.tile([1.0, -1.0], ys.size))
    assert rows == [8]
    # a drift field -0.0 + sin y tells the saturated states and the signed zeros apart
    rows.clear()
    solution_symbol(driver, phi, co.sine(-0.0, 1.0)).batch_fn(xs, xis)
    assert rows == [7 * FREQS.size]
