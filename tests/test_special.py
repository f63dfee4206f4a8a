"""K_nu, K_0 and J_0 of ``symbolkit.special`` against mpmath and scipy.

mpmath at 30 digits is the reference; scipy's ``kv``, ``k0`` and ``j0`` are a
second, independent oracle on denser grids.  The grids reach r -> 0, every seam
between the forms (the series and the trapezoid rule of K_0 at 1, J_0's
polynomial intervals at each even x and its Hankel expansion at 26), and x up
to 600, past the largest |y| r of the identity check's default grid (566).
The J_0 table is regenerated here from mpmath, and the array functions are
checked to keep their temporaries to ``CHUNK_ROWS`` values.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from symbolkit import special
from symbolkit.indices import eval_g
from symbolkit.levy import CHUNK_ROWS


def _mp(fn, xs, *args):
    with mpmath.workdps(30):
        return np.array([float(fn(*args, mpmath.mpf(float(x)))) for x in xs])


def _seams(points, width=1e-6, n=5):
    """Points on both sides of each seam: the seam itself, its neighbours in
    floating point, and n points each side within ``width``."""
    out = []
    for p in points:
        out += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
        out += list(p + width * np.linspace(-1.0, 1.0, 2 * n + 1))
    return np.asarray(out)


def _j0_seams():
    return _seams([*np.arange(2.0, special._J0_SWITCH + 1.0, 2.0)])


# --------------------------------------------------------------------------
# J_0


def test_j0_table_is_the_mpmath_fit():
    # each row: mpmath.chebyfit of J_0(c + u) on |u| <= 1 at 40 digits, degree 14,
    # as ascending powers of u; the fit is within 1e-17 of J_0
    with mpmath.workdps(40):
        for i, row in enumerate(special._J0_TABLE):
            c = 2 * i + 1
            poly, err = mpmath.chebyfit(lambda u: mpmath.besselj(0, c + u), [-1, 1], 15,
                                        error=True)
            assert err < 1e-17
            assert row == tuple(float(p) for p in poly[::-1]), i
    assert len(special._J0_TABLE) * 2 == special._J0_SWITCH


@pytest.mark.parametrize("xs", [np.linspace(0.0, 30.0, 3001), np.linspace(30.0, 600.0, 1141),
                                _j0_seams(), np.geomspace(1e-300, 1e-2, 60)],
                         ids=["table", "hankel", "seams", "small"])
def test_j0_matches_mpmath(xs):
    got = special.j0(xs)
    want = _mp(mpmath.besselj, xs, 0)
    assert np.max(np.abs(got - want)) <= 2.5e-16


def test_j0_matches_scipy_on_a_dense_grid():
    xs = np.concatenate([np.linspace(0.0, 600.0, 600_001), _j0_seams()])
    # scipy's j0 is itself about 1.3e-15 off mpmath beyond 25
    assert np.max(np.abs(special.j0(xs) - scipy.special.j0(xs))) <= 2e-15


def test_j0_is_even_and_keeps_the_shape():
    xs = np.linspace(-40.0, 40.0, 3 * (CHUNK_ROWS + 5)).reshape(3, -1)
    got = special.j0(xs)
    assert got.shape == xs.shape
    np.testing.assert_array_equal(got, special.j0(-xs))
    np.testing.assert_array_equal(got.reshape(-1), [special.j0(np.array([x]))[0]
                                                    for x in xs.reshape(-1)])


def test_j0_far_decays_like_its_envelope():
    xs = np.array([1e4, 1e8, 1e12, 1e300])
    assert np.all(np.abs(special.j0(xs)) <= np.sqrt(2.0 / (np.pi * xs)) * (1.0 + 1e-12))


# --------------------------------------------------------------------------
# K_0


@pytest.mark.parametrize("rs", [np.geomspace(1e-300, 1e-3, 100), np.linspace(1e-3, 3.0, 1500),
                                np.linspace(3.0, 700.0, 600), _seams([special._K0_SWITCH])],
                         ids=["small", "body", "large", "seam"])
def test_k0_matches_mpmath(rs):
    got = special.k0(rs)
    want = _mp(mpmath.besselk, rs, 0)
    assert np.max(np.abs(got - want) / want) <= 1.5e-15


def test_k0_matches_scipy_on_a_dense_grid():
    rs = np.concatenate([np.geomspace(1e-300, 1.0, 10_000), np.linspace(1.0, 700.0, 200_001)])
    assert np.max(np.abs(special.k0(rs) / scipy.special.k0(rs) - 1.0)) <= 2.5e-15


def test_k0_underflows_to_zero():
    assert np.all(special.k0(np.array([746.0, 1e4, 1e300])) == 0.0)


# --------------------------------------------------------------------------
# K_nu at one point


NUS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.3, 7.25)


@pytest.mark.parametrize("nu", NUS)
def test_bessel_k_matches_mpmath(nu):
    rs = np.concatenate([np.geomspace(1e-12, 1e-3, 10), np.geomspace(1e-3, 50.0, 120),
                         np.linspace(50.0, 700.0, 14)])
    want = _mp(lambda r: mpmath.besselk(nu, r), rs)
    got = np.array([special.bessel_k(nu, r) for r in rs])
    assert np.max(np.abs(got - want) / want) <= 1e-15
    assert special.bessel_k(-nu, 0.7) == special.bessel_k(nu, 0.7)


@pytest.mark.parametrize("nu", NUS)
def test_bessel_k_matches_scipy(nu):
    # scipy's kv is itself up to 5e-14 off mpmath here (nu = 0.3 near r = 2, and every nu
    # near r = 690), so it is the coarse oracle and mpmath the fine one
    rs = np.geomspace(1e-6, 690.0, 600)          # scipy's kv reads 0 from 700 on
    got = np.array([special.bessel_k(nu, r) for r in rs])
    assert np.max(np.abs(got / scipy.special.kv(nu, rs) - 1.0)) <= 1e-13


def test_bessel_k_edges():
    assert special.bessel_k(0.0, 800.0) == 0.0                # e^{-r} underflows
    assert special.bessel_k(0.0, 1e-300) == pytest.approx(float(mpmath.besselk(0, 1e-300)),
                                                          rel=1e-15)
    with pytest.raises(OverflowError):
        special.bessel_k(200.0, 1e-3)                         # K_200(1e-3) ~ 1e970


@pytest.mark.parametrize("d", range(2, 13))
def test_eval_g_matches_mpmath_on_a_dense_grid(d):
    half = mpmath.mpf(d) / 2
    rs = np.geomspace(1e-6, 100.0, 200)
    with mpmath.workdps(30):
        want = [(2 * mpmath.pi) ** -half * mpmath.mpf(float(r)) ** (1 - half)
                * mpmath.besselk(half - 1, mpmath.mpf(float(r))) for r in rs]
    for r, w in zip(rs, want):
        assert abs(eval_g(d, r) - w) <= 2e-15 * abs(w), (d, r)


# --------------------------------------------------------------------------
# temporaries


@pytest.mark.parametrize("fn, top", [(special.j0, 600.0), (special.k0, 40.0)],
                         ids=["j0", "k0"])
def test_array_functions_work_in_chunks(fn, top):
    # the peak beyond the output stays a few chunks, whatever the input's length
    for chunks in (4, 32):
        x = np.linspace(1e-3, top, chunks * CHUNK_ROWS)
        tracemalloc.start()
        try:
            fn(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes <= 24 * 8 * CHUNK_ROWS, (chunks, peak)
