"""Block-drawn steps: the step-draw helper against one sampler call per step.

A driver whose step draws from at most one distribution, with n = 1, draws K
steps in one ``sample_step_ensemble`` call of K*m rows (``sde.BLOCK_ROWS``
bounds K*m).  These tests pin that the slices it hands out are, bit for bit,
what successive m-row calls on the same generator return, for every measure
variant, that the predicate blocks exactly the drivers it may, and that dense
runs still reproduce the reference engine across block boundaries.
"""

import warnings

import numpy as np
import pytest

import reference_engine as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.coefficients import CoefficientField
from symbolkit.levy import (FiniteActivity, LevyTriplet, StableSymmetric, ZeroMeasure, normal_law,
                            sample_step_ensemble)
from symbolkit.sde import BLOCK_ROWS, _check_overflow, _driver_steps, simulate_paths_dense
from symbolkit.seeding import rng_at

BLOCKED = {
    "gaussian": lambda: catalog.bm_driver(),
    "gaussian_drift": lambda: LevyTriplet([0.3], [[2.0]], ZeroMeasure()),
    "zero_triplet": lambda: LevyTriplet([0.0], [[0.0]], ZeroMeasure()),
    "drift_only": lambda: catalog.drift_driver(-1.5),
    "cauchy": lambda: catalog.stable_driver(1.0),
    "cauchy_drift": lambda: LevyTriplet([0.3], [[0.0]], StableSymmetric(1.0, 0.5)),
}
PER_STEP = {
    "gaussian_cauchy": lambda: LevyTriplet([0.1], [[0.5]], StableSymmetric(1.0)),
    "stable_0.7": lambda: catalog.stable_driver(0.7),
    "stable_1.5": lambda: catalog.stable_driver(1.5, 0.7),
    "compound_poisson": lambda: catalog.compound_poisson_pm1(rate=30.0),
    "gaussian_poisson": lambda: LevyTriplet([0.0], [[1.0]],
                                            FiniteActivity(20.0, normal_law(0.1, 0.6))),
    "density": lambda: catalog.tempered_density_driver(),
    "gaussian_n2": lambda: LevyTriplet([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]]),
    "zero_triplet_n2": lambda: LevyTriplet([0.5, 0.0], np.zeros((2, 2))),
}
DRIVERS = {**BLOCKED, **PER_STEP}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _steps_for(m):
    """Two full blocks and a ragged third, or three steps when K = 1."""
    k = BLOCK_ROWS // m
    return 2 * k + 5 if k > 1 else 3


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_predicate_blocks_one_distribution_drivers_with_n_1(name):
    assert DRIVERS[name]().blockable == (name in BLOCKED)


@pytest.mark.parametrize("m", [1, 3, BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_helper_steps_are_successive_sampler_calls(name, m):
    driver = DRIVERS[name]()
    n_steps = _steps_for(m)
    got = list(_driver_steps(driver, 0.01, n_steps, m, rng_at(4, 2)))
    rng = rng_at(4, 2)
    assert len(got) == n_steps
    for s in got:
        want = sample_step_ensemble(driver, 0.01, m, rng)
        for field in ("smooth", "jump_counts", "jump_values", "jump_positions"):
            assert _same_bits(getattr(s, field), getattr(want, field)), field


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_blocked_driver_leaves_the_stream_where_per_step_draws_do(name):
    driver, m = DRIVERS[name](), 3
    n_steps = _steps_for(m)
    blocked, plain = rng_at(6), rng_at(6)
    for _ in _driver_steps(driver, 0.02, n_steps, m, blocked):
        pass
    for _ in range(n_steps):
        sample_step_ensemble(driver, 0.02, m, plain)
    assert blocked.random() == plain.random()


DENSE_MODELS = {
    "bm_unit": catalog.bm_unit,
    "stable_sin": catalog.stable_sin,
    "drift_only": lambda: sk.SdeModel(coefficient=co.constant(-1.5),
                                      driver=catalog.drift_driver(2.0)),
}
DENSE_SIZES = [
    (BLOCK_ROWS + 9, 1),            # one path: a full block and a ragged one
    (3 * (BLOCK_ROWS // 16) + 17, 16),  # several blocks and a ragged last block
    (100, 16),                      # fewer steps than one block
    (4, BLOCK_ROWS + 3),            # more rows than the budget: K = 1
]


@pytest.mark.parametrize("n_steps, n_paths", DENSE_SIZES)
@pytest.mark.parametrize("name", sorted(DENSE_MODELS))
def test_dense_matches_reference_across_blocks(name, n_steps, n_paths):
    model = DENSE_MODELS[name]()
    args = (model.blocks(), model.drift_coefficient, np.array([0.2]), 1.0, n_steps, n_paths, 8)
    got = simulate_paths_dense(*args, base_key=(5, 1))
    want = ref.simulate_paths_dense(*args, base_key=(5, 1))
    assert _same_bits(got, want)


# --------------------------------------------------------------------------
# the one-row step: overflow guard and coefficient batches


def test_planar_overflow_beyond_square_range_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sk.SimulationOverflow, match=r"state norm 1\.000e\+200 .* step 1 of 5"):
            _check_overflow(np.array([[1e200, 1.0], [0.0, 0.0]]), None, 0, 5)


@pytest.mark.parametrize("v", [0.0, -0.0, 1e12, -1e12, np.nextafter(1e12, 2e12), -2e12,
                               np.inf, -np.inf, np.nan, 1e300])
def test_one_row_guard_decides_as_the_array_guard(v):
    def raises(x):
        try:
            _check_overflow(x, None, 2, 9)
        except sk.SimulationOverflow as err:
            return str(err)
        return None

    # the two-row array takes the max/min reduction; its zero row cannot raise
    assert raises(np.array([[v]])) == raises(np.array([[v], [0.0]]))


def test_many_passes_a_float64_batch_through_and_rewraps_others():
    kept = np.arange(3.0).reshape(3, 1, 1)
    fld = CoefficientField(batch_fn=lambda xs: kept, d=1, n=1,
                           bound=1.0, lipschitz=1.0)
    assert fld.many(np.zeros((3, 1))) is kept
    for other in ([0.0, 1.0, 2.0], np.arange(3), np.arange(3.0), np.arange(3.0, dtype=np.float32)):
        fld.batch_fn = lambda xs, other=other: other
        out = fld.many(np.zeros((3, 1)))
        assert out.dtype == np.float64 and out.shape == (3, 1, 1)
        assert out[:, 0, 0].tolist() == [0.0, 1.0, 2.0]
