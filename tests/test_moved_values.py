"""MC values formed on the paths that moved, against the dense formation, bit for bit.

A rung task forms -(e^{i (X_t - x).xi} - 1) / t on the paths whose terminal state
differs from x (NaN among them) when they are at most half of the paths, and fills
every other path with the value at x itself (``symbols._moved_rows`` and
``symbols._values_for_pm_xi``).  Each case compares the rows with the dense
formation and with ``tests/reference_mc.py``: every path moved, none, exactly
half, one path, an x of -0.0, NaN terminals, and the mirror row of -xi.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mc as ref
import symbolkit as sk
from symbolkit import catalog, symbols

XI = [1.0, -1.0, 0.5, 3.0, 0.0, -0.0, 1e-300, 1e308]


def _same_bits(a, b):
    return a.shape == b.shape and a.view(np.int64).tolist() == b.view(np.int64).tolist()


def _check(terminal, x, xi, t=0.02):
    """The subset formation on every moved set has the dense one's bits, and the oracle's
    but for the sign of a NaN, which the mirror row's conjugate flips."""
    x, xi = np.array([x]), np.array([xi])
    moved = np.flatnonzero(terminal[:, 0] != x[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for minus in (False, True):
            dense = symbols._values_for_pm_xi(terminal, x, xi, t, minus)
            subset = symbols._values_for_pm_xi(terminal, x, xi, t, minus, moved)
            assert _same_bits(subset, dense)
            for row, sign in zip(subset, (1.0, -1.0)):
                want = ref.values_for_xi(terminal, x, sign * xi, t)
                nan = np.isnan(want.real) | np.isnan(want.imag)
                assert (np.isnan(row.real) | np.isnan(row.imag)).tolist() == nan.tolist()
                assert _same_bits(row[~nan], want[~nan])


def _terminal(values):
    return np.array(values, dtype=float)[:, None]


@pytest.mark.parametrize("xi", XI)
@pytest.mark.parametrize("x", [0.0, -0.0, 1.5])
@pytest.mark.parametrize("case", ["all", "none", "half", "one", "nan", "signed_zero"])
def test_subset_matches_the_dense_values(case, x, xi):
    other = -x if x else 0.0                   # the same number, as it compares equal
    values = {"all": [x + 1.0, x - 0.5, x + 2.0, x + 1e-3],
              "none": [x, other, x, x],
              "half": [x, x + 0.25, other, x - 3.0],
              "one": [x + 0.75],
              "nan": [np.nan, x, x, other],
              "signed_zero": [0.0, -0.0, x, -x]}[case]
    _check(_terminal(values), x, xi)


def test_unmoved_selection():
    x = np.array([0.0])
    assert symbols._moved_rows(_terminal([0.0, -0.0, 1.0, 2.0]), x).tolist() == [2, 3]
    assert symbols._moved_rows(_terminal([np.nan, 0.0, 0.0, 0.0]), x).tolist() == [0]
    assert symbols._moved_rows(_terminal([1.0, 2.0, 3.0, 0.0]), x) is None
    assert symbols._moved_rows(_terminal([1.0]), x) is None
    assert symbols._moved_rows(_terminal([0.0]), x).tolist() == []
    # d > 1: a matmul forms the phases, whose rounding may depend on the row count
    assert symbols._moved_rows(np.zeros((4, 2)), np.zeros(2)) is None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, -0.0, 0.3, -2.0]),
       st.lists(st.sampled_from(["x", "other", "nan", "near"]) | st.floats(-1e3, 1e3),
                min_size=1, max_size=40),
       st.sampled_from(XI) | st.floats(-50.0, 50.0), st.sampled_from([0.04, 0.005, 1e-300]))
def test_any_terminals_match_the_dense_values(x, picks, xi, t):
    named = {"x": x, "other": -x if x == 0.0 else x, "nan": np.nan,
             "near": np.nextafter(x, np.inf)}
    _check(_terminal([named.get(p, p) if isinstance(p, str) else p for p in picks]), x, xi, t)


def test_rung_table_takes_the_subset_and_keeps_the_oracle(monkeypatch):
    # a compound-Poisson rung leaves most paths at x, so its values take the subset
    taken = []
    moved_rows = symbols._moved_rows

    def spy(terminal, x):
        out = moved_rows(terminal, x)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(symbols, "_moved_rows", spy)
    model = catalog.cp_tanh()
    kwargs = dict(seed=3, paths_per_rung=1500)
    got = sk.symbol_mc_table(model, [0.0, -0.0], [1.0, -1.0, 2.5], **kwargs)
    want = ref.symbol_mc_table(model, [0.0, -0.0], [1.0, -1.0, 2.5], **kwargs)
    assert taken and all(taken)
    for g, w in zip(got, want):
        assert (g.estimate, g.se, g.r_check) == (w.estimate, w.se, w.r_check)
        assert [vars(r) for r in g.rungs] == [vars(r) for r in w.rungs]
