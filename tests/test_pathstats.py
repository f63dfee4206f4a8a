"""gamma-variation exactness and the path experiments."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pathstats as ref
import symbolkit as sk
from symbolkit import catalog, coefficients as co
from symbolkit.pathstats import _turning_points, growth_experiment, variation_experiment


def brute_force_variation(values, gamma):
    """Enumerate all subpartitions containing both endpoints."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    best = 0.0
    for r in range(n - 1):
        for mids in itertools.combinations(range(1, n - 1), r):
            pts = [0, *mids, n - 1]
            total = sum(abs(v[b] - v[a]) ** gamma for a, b in zip(pts, pts[1:]))
            best = max(best, total)
    return best


def full_grid_dp(values, gamma):
    """O(m^2) DP over every grid point, without the turning-point reduction."""
    v = np.asarray(values, dtype=float)
    best = np.zeros(v.size)
    for i in range(1, v.size):
        best[i] = np.max(best[:i] + np.abs(v[i] - v[:i]) ** gamma)
    return best[-1]


class TestGammaVariation:
    def test_monotone_telescopes_at_gamma_one(self):
        res = sk.gamma_variation([0.0, 0.3, 1.0], 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_updown_beats_endpoints(self):
        res = sk.gamma_variation([0.0, 1.0, 0.0], 2.0)
        assert res.value == pytest.approx(2.0, abs=1e-15)
        assert list(res.partition) == [0, 1, 2]

    def test_sign_change_sums_squares(self):
        res = sk.gamma_variation([0.0, 1.0, -1.0], 2.0)
        assert res.value == pytest.approx(5.0, abs=1e-15)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            sk.gamma_variation([0.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            sk.gamma_variation([0.0, 1.0], -1.0)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            sk.gamma_variation([1.0], 2.0)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("values", [
        [0.0, 1.0, np.nan, 0.5, 2.0],         # the reduction used to step over the NaN
        [0.0, np.nan, 1.0],
        [0.0, np.inf, 1.0],
        [-np.inf, 0.0],
        [[0.0, 0.0], [1.0, np.nan], [0.5, 2.0]],
        [[0.0, 0.0], [1.0, 1.0], [-np.inf, 2.0], [0.5, 0.5]],
    ])
    def test_nonfinite_sample_rejected(self, values, gamma):
        with pytest.raises(ValueError, match="finite"):
            sk.gamma_variation(values, gamma)
        if np.ndim(values) == 1:
            with pytest.raises(ValueError, match="finite"):
                sk.gamma_variation(np.asarray(values)[:, None], gamma)

    def test_dp_equals_brute_force(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(2, 13))
            values = rng.normal(size=n)
            gamma = float(rng.choice([1.5, 2.0, 3.0]))
            res = sk.gamma_variation(values, gamma)
            want = brute_force_variation(values, gamma)
            assert abs(res.value - want) <= 1e-12, (trial, values, gamma)

    def test_dp_handles_plateaus_and_monotone_runs(self):
        for values in ([0.0, 1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0],
                       [5.0, 5.0, 5.0], [1.0, -1.0, 1.0, -1.0]):
            for gamma in (1.5, 2.0, 3.0):
                res = sk.gamma_variation(values, gamma)
                assert abs(res.value - brute_force_variation(values, gamma)) <= 1e-12

    def test_partition_invariants(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=40)
        res = sk.gamma_variation(values, 2.5)
        assert res.partition[0] == 0
        assert res.partition[-1] == len(values) - 1
        assert res.reevaluate(values) == pytest.approx(res.value, abs=1e-12)

    def test_vector_valued_paths(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(9, 2))
        res = sk.gamma_variation(values, 2.0)
        # brute force with euclidean increments
        best = 0.0
        n = len(values)
        for r in range(n - 1):
            for mids in itertools.combinations(range(1, n - 1), r):
                pts = [0, *mids, n - 1]
                best = max(best, sum(np.linalg.norm(values[b] - values[a]) ** 2.0
                                     for a, b in zip(pts, pts[1:])))
        assert res.value == pytest.approx(best, abs=1e-12)

    def test_column_path_takes_the_scalar_reduction(self, monkeypatch):
        # a d = 1 path as (m, 1), e.g. ``path.states``, gives the (m,) call's result
        reduced = []
        turning_points = sk.pathstats._turning_points
        monkeypatch.setattr(sk.pathstats, "_turning_points",
                            lambda v: reduced.append(v.shape) or turning_points(v))
        rng = np.random.default_rng(12)
        for trial in range(18):
            values = np.cumsum(rng.normal(size=int(rng.integers(2, 300))))
            gamma = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
            reduced.clear()
            flat = sk.gamma_variation(values, gamma)
            col = sk.gamma_variation(values[:, None], gamma)
            assert col.value == flat.value, (trial, gamma)
            np.testing.assert_array_equal(col.partition, flat.partition)
            if gamma > 1.0:
                assert reduced == [values.shape] * 2
                assert col.value == pytest.approx(full_grid_dp(values, gamma), rel=1e-12)

    def test_nonincreasing_in_gamma_for_small_increments(self):
        rng = np.random.default_rng(10)
        raw = np.cumsum(rng.normal(size=60))
        values = raw / (2 * np.ptp(raw))       # every increment is <= 1
        gammas = [0.5, 1.0, 1.5, 2.0, 3.0]
        vals = [sk.gamma_variation(values, g).value for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_refinement_monotone_below_one(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=30)
        for gamma in (0.5, 0.8, 1.0):
            full = sk.gamma_variation(values, gamma).value
            keep = sorted({0, len(values) - 1, *rng.choice(len(values), 10).tolist()})
            coarse = sk.gamma_variation(values[keep], gamma).value
            assert coarse <= full + 1e-12


def assert_same_as_oracle(values, gamma):
    got, want = sk.gamma_variation(values, gamma), ref.gamma_variation(values, gamma)
    assert got.value == want.value, (gamma, got.value, want.value)
    np.testing.assert_array_equal(got.partition, want.partition)


class TestTurningPoints:
    @pytest.mark.parametrize("values", [
        [0.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 2.0, 2.0, 1.0, 1.0], [0.0, 0.0, 1.0],
        [0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 1.0], [5.0, 5.0, 5.0], [2.0], [0.0, 1.0],
        [1.0, 1.0], [-0.0, 0.0, 1.0, -0.0], [1.0, -1.0, 1.0, -1.0],
    ], ids=lambda v: str(v))
    def test_plateaus_runs_and_short_inputs(self, values):
        v = np.asarray(values)
        np.testing.assert_array_equal(_turning_points(v), ref.turning_points(v))
        assert _turning_points(v).dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_matches_the_scan(self, values):
        v = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(_turning_points(v), ref.turning_points(v))


def _path(seed, n, d, drift, jump_rate):
    """Random walk with drift, jumps and runs of zero steps (plateaus)."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.1, size=(n, d)) + drift
    steps += (rng.random((n, 1)) < jump_rate) * rng.normal(scale=3.0, size=(n, d))
    steps[rng.random(n) < 0.1] = 0.0
    values = np.cumsum(steps, axis=0)
    return values[:, 0] if d == 1 else values


class TestPrunedProgram:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=9),
           st.sampled_from([1.25, 1.5, 2.0, 3.0]))
    def test_small_grids_equal_brute_force(self, values, gamma):
        v = np.asarray(values, dtype=float)
        res = sk.gamma_variation(v, gamma)
        assert abs(res.value - brute_force_variation(v, gamma)) <= 1e-12 * (1.0 + res.value)
        assert_same_as_oracle(v, gamma)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400), st.sampled_from([1, 2, 3, 8]),
           st.floats(-0.05, 0.05), st.sampled_from([0.0, 0.02, 0.2]),
           st.sampled_from([1.1, 1.5, 2.0, 2.5, 3.0]))
    def test_bit_identical_to_the_full_program(self, seed, n, d, drift, jump_rate, gamma):
        assert_same_as_oracle(_path(seed, n, d, drift, jump_rate), gamma)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_long_random_walk(self, gamma):
        # 4,855 turning points, about as many as a 10k-step benchmark path has
        assert_same_as_oracle(_path(3, 11000, 1, 0.01, 0.01), gamma)

    def test_damped_oscillation_keeps_every_extremum(self):
        # every turning point stays a suffix extremum: the O(k^2) case, with the
        # block height cut so that a block matrix stays within its cell budget
        k = 3000
        values = (-1.0) ** np.arange(k) / np.arange(1.0, k + 1)
        assert_same_as_oracle(values, 2.0)

    def test_vector_path_with_capped_blocks(self):
        assert_same_as_oracle(_path(4, 1500, 2, 0.0, 0.05), 1.5)

    def test_rounding_tie_goes_to_a_kept_candidate(self):
        # the first swing puts V near 1e18, where one ulp is 128, so the last
        # row's candidates tie after rounding; the full program takes point 3
        # (u = 1), the earliest, but it is not a suffix extremum of the points
        # before the last, and the pruned program takes point 4 (u = -1)
        v = [-999998.0, 2.0, -3.0, 1.0, -1.0, -1.0, 2.0, -1.0]
        got, want = sk.gamma_variation(v, 3.0), ref.gamma_variation(v, 3.0)
        assert got.value == want.value
        np.testing.assert_array_equal(want.partition, [0, 1, 2, 3, 7])
        np.testing.assert_array_equal(got.partition, [0, 1, 2, 3, 4, 7])
        assert got.reevaluate(v) == want.reevaluate(v) == got.value


class TestVariationExperiment:
    def test_zero_coefficient_vanishes(self):
        model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver())
        rows = variation_experiment(model, [1.0, 2.0], [4, 6], trials=4, seed=0)
        assert all(r.median == 0.0 for r in rows)

    def test_bm_quadratic_variation_stabilizes(self):
        rows = variation_experiment(catalog.bm_unit(), [2.0], [10, 12],
                                    trials=12, seed=5)
        for r in rows:
            assert abs(r.median - 1.0) <= 0.25

    def test_bm_absolute_variation_grows_sqrt2(self):
        rows = variation_experiment(catalog.bm_unit(), [1.0], [8, 9, 10],
                                    trials=32, seed=6)
        meds = [r.median for r in rows]
        for a, b in zip(meds, meds[1:]):
            assert b / a == pytest.approx(np.sqrt(2.0), rel=0.1)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, np.inf, np.nan])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            variation_experiment(catalog.bm_unit(), [2.0, gamma], [4], trials=4, seed=0)

    def test_quartiles_ordered(self):
        rows = variation_experiment(catalog.bm_unit(), [1.5], [6], trials=16, seed=7)
        for r in rows:
            assert r.q25 <= r.median <= r.q75


class TestGrowthExperiment:
    def test_zero_coefficient_profile(self):
        model = sk.SdeModel(coefficient=co.zero(), driver=catalog.bm_driver())
        profile = growth_experiment(model, 0.0, [1.0, 3.0], [0.01, 0.1],
                                    [10.0, 100.0], paths=64, seed=0,
                                    steps_per_run=16)
        assert all(r.median_max == 0.0 for r in profile.rows)
        assert all(v["toward_zero"] for v in profile.trends.values())

    def test_bm_small_time_threshold(self):
        profile = growth_experiment(catalog.bm_unit(), 0.0, [1.0, 3.0],
                                    [1e-4, 1e-3, 1e-2, 1e-1], [],
                                    paths=2000, seed=1, steps_per_run=128)
        # above the index (lambda=3 > 2): scaled max shrinks toward t=0
        assert profile.trends[("small", 3.0)]["toward_zero"]
        # below it (lambda=1 < 2): it blows up instead
        assert not profile.trends[("small", 1.0)]["toward_zero"]

    def test_bm_large_time_threshold(self):
        profile = growth_experiment(catalog.bm_unit(), 0.0, [1.0, 3.0], [],
                                    [10.0, 100.0, 1000.0], paths=2000, seed=2,
                                    steps_per_run=128)
        # beta_0 = 2 for BM: lambda = 1 < 2 decays at infinity
        assert profile.trends[("large", 1.0)]["toward_zero"]
        assert not profile.trends[("large", 3.0)]["toward_zero"]
