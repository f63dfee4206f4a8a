"""Bessel functions for the kernel g_d, from numpy and the math module.

The kernel g_d(r) = (2 pi)^{-d/2} r^{1-d/2} K_{d/2-1}(r) of
:mod:`symbolkit.indices` takes K_nu at single points, and its d = 2 identity
check takes K_0 and J_0 on whole panel tables:

- :func:`bessel_k`: K_nu(r) at one point by the trapezoid rule on DLMF 10.32.9,
  K_nu(r) = e^{-r} int_0^inf e^{-2 r sinh^2(t/2)} cosh(nu t) dt, each sum
  taken with ``math.fsum``.  The step starts at 1/2 and halves until two sums
  agree to ``_K_AGREE``: the rule converges geometrically on this analytic
  integrand, so the finer sum's error is about the square of the coarser one's.
  The steps are powers of 2, so each node t is exact, and so is nu t for a
  half-integer nu.
- :func:`k0`: K_0 on an array.  Below ``_K0_SWITCH`` its power series (DLMF
  10.31.2); from there on, v = sqrt(2 r) sinh(t/2) turns DLMF 10.32.9 into
  K_0(r) = e^{-r} int_0^inf 2 e^{-v^2} / sqrt(2 r + v^2) dv, whose integrand
  is analytic within |Im v| < sqrt(2), and the trapezoid rule on 36 fixed
  nodes v = k ``_K0_STEP`` takes it to rounding.
- :func:`j0`: J_0 on an array.  Below ``_J0_SWITCH``, a degree-14 polynomial in
  x - c on each interval [c - 1, c + 1) of odd centre c (``_J0_TABLE``, fitted
  to J_0 by ``mpmath.chebyfit`` within 1e-17; ``tests/test_special.py``
  regenerates it).  From there on, the Hankel expansion (DLMF 10.17.3) to
  its ``_HANKEL_TERMS``-th term, with cos x and sin x formed from
  t = tan(x / 2): numpy's float64 tan is vectorised, and costs about a
  tenth of its sin or cos (2.3 against 19-32 ns per value, numpy 2.4 on a
  2-CPU Intel Xeon).

The array functions work ``CHUNK_ROWS`` values at a time, so no temporary
grows with the input.  Against mpmath, over the ranges ``tests/test_special.py``
covers, K_0 is within 1.5e-15 relative, K_nu within 1e-15, and J_0 within
2.5e-16 absolute.
"""

from __future__ import annotations

import math

import numpy as np

from .levy import CHUNK_ROWS

_K_AGREE = 1e-10            # bessel_k: relative change of the sum that stops the halving
_K_REACH = 2.0 ** -80       # bessel_k: the integrand is cut where it falls below this of its peak
_K0_SWITCH = 1.0            # k0: the power series below, the trapezoid rule from here
_K0_STEP = 0.1875           # k0: trapezoid step in v; nodes up to e^{-v^2} < 1e-19
_J0_SWITCH = 26.0           # j0: the table below, the Hankel expansion from here
_HANKEL_TERMS = 20          # j0: the Hankel expansion's last term is below 2e-18 at the switch

_SERIES = range(10)         # k0: terms of the power series; the first left out is < 1e-19
_I0_COEF = tuple(1.0 / math.factorial(k) ** 2 for k in _SERIES)
_K0_COEF = tuple(math.fsum(1.0 / j for j in range(1, k + 1)) / math.factorial(k) ** 2
                 for k in _SERIES)
_K0_SQUARES = (_K0_STEP * np.arange(36)) ** 2      # v^2 at the nodes
_K0_WEIGHTS = 2.0 * _K0_STEP * np.exp(-_K0_SQUARES)
_K0_WEIGHTS[0] *= 0.5


def _hankel_coefficients():
    """(P, Q): P(x) = sum_k P[k] x^{-2k}, Q(x) = sum_k Q[k] x^{-2k-1}, the even and odd terms
    of DLMF 10.17.3 at nu = 0 with their signs, a_k(0) = (-1)^k 1^2 3^2 ... (2k-1)^2 / (k! 8^k)."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(-a[-1] * (2 * k - 1) ** 2 / (8.0 * k))
    return (tuple((-1) ** k * a[2 * k] for k in range(_HANKEL_TERMS // 2)),
            tuple((-1) ** k * a[2 * k + 1] for k in range(_HANKEL_TERMS // 2)))


_HANKEL_P, _HANKEL_Q = _hankel_coefficients()
_SQRT_PI = math.sqrt(math.pi)

# J_0(c + u) = sum_k _J0_TABLE[i][k] u^k for |u| <= 1, c = 2 i + 1: row i covers [2 i, 2 i + 2)
_J0_TABLE = (
    # [0, 2): J_0(1 + u)
    (0.7651976865579666, -0.4400505857449334, -0.16257355040651653, 0.05419118346883453,
     0.009575290410991527, -0.0022411139818629606, -0.00025795414440118477,
     4.648030381242843e-05, 3.955950502300517e-06, -5.792632407683046e-07,
     -3.9065401179602806e-08, 4.816158913425761e-09, 2.6881899382500625e-10,
     -2.8150918836903188e-11, -1.3426626045401813e-12),
    # [2, 4): J_0(3 + u)
    (-0.26005195490193345, -0.3390589585259364, 0.18653580387195612, 0.02950475638843871,
     -0.013502535016274445, -0.0009834918796017143, 0.00039544606278280715,
     1.7594860214649042e-05, -6.339252735902997e-06, -1.968446060853497e-07,
     6.432338098867778e-08, 1.5072115153171936e-09, -4.507625831107302e-10,
     -8.262167031146628e-12, 2.2806012210242385e-12),
    # [4, 6): J_0(5 + u)
    (-0.1775967713143383, 0.32757913759146506, 0.05604047189802263, -0.05614869347449754,
     -0.0017073875968509598, 0.0025202119701862686, 1.1202214685360808e-05,
     -5.379500918192993e-05, 2.1333006566399454e-07, 6.781096621183096e-07,
     -4.885717062571271e-09, -5.663361994639403e-09, 4.800218033490853e-11,
     3.315015219195541e-11, -2.9473004594794765e-13),
    # [6, 8): J_0(7 + u)
    (0.3000792705195556, 0.0046828234823458985, -0.15037412265137393, 0.006396129897843241,
     0.011790129357102835, -0.0005931489738820095, -0.0003528491002345345,
     1.722612595797642e-05, 5.660746153281901e-06, -2.5797893098118467e-07,
     -5.7071444079138035e-08, 2.4051223569033863e-09, 3.9650467361728056e-10,
     -1.5177999748494732e-11, -1.9884326917613213e-12),
    # [8, 10): J_0(9 + u)
    (-0.09033361118287614, -0.2453117865733252, 0.05879523817884502, 0.03820293958568993,
     -0.005811776049143443, -0.0017201848758764985, 0.0002115098768654171,
     3.6188053716734084e-05, -3.8821798605709875e-06, -4.4559042843647743e-07,
     4.301777440192789e-08, 3.6264764430164807e-09, -3.2019256978874296e-10,
     -2.0704113395157762e-11, 1.6906644924795087e-12),
    # [10, 12): J_0(11 + u)
    (-0.1711903004071961, 0.17678529895672138, 0.07755945479647433, -0.03157099708033844,
     -0.005650002484809405, 0.0016369161492427978, 0.00015999430509288872,
     -3.9211839896937116e-05, -2.3952489225211076e-06, 5.361507741426436e-07,
     2.2354857470341264e-08, -4.741316071794001e-09, -1.4341938737402468e-10,
     2.8904071006573875e-11, 6.653059428203088e-13),
    # [12, 14): J_0(13 + u)
    (0.20692610237706782, 0.07031805212177838, -0.10616759165475614, -0.008928082222322994,
     0.008911624226864813, 0.0003063333573701536, -0.00029379837605096907,
     -4.243985981682074e-06, 5.111264880267186e-06, 2.3343256165592914e-08,
     -5.4780526229346837e-08, 4.4219908307723947e-11, 3.982316046311296e-10,
     -1.5073737942008234e-12, -2.0650569313528747e-12),
    # [14, 16): J_0(15 + u)
    (-0.014224472826780772, -0.20510403861352267, 0.013949037700507809, 0.033722098902524804,
     -0.0017090578723157218, -0.0016414519842282659, 7.322237508523025e-05,
     3.761084445103315e-05, -1.547398838692752e-06, -4.984731272108629e-07,
     1.9241836777441232e-08, 4.302565902556466e-09, -1.569703590039284e-10,
     -2.570753917446269e-11, 8.904678690789719e-13),
    # [16, 18): J_0(17 + u)
    (-0.16985425215118355, 0.09766849275778056, 0.08205452334742175, -0.017830668805102298,
     -0.006529996913813557, 0.0009574905792592452, 0.00020569284677770657,
     -2.4022808537414793e-05, -3.4423858608853153e-06, 3.455940220487915e-07,
     3.5653716537229295e-08, -3.206986203899616e-09, -2.5112914196061103e-10,
     2.0386603900458143e-11, 1.2644897445478565e-12),
    # [18, 20): J_0(19 + u)
    (0.1466294396596512, 0.10570143114240924, -0.07609633643883637, -0.01623308145271879,
     0.006518538132762741, 0.0007374428260823199, -0.00022114949775548748,
     -1.5750087542596995e-05, 3.981345780368249e-06, 1.9414826068666999e-07,
     -4.422307036016494e-08, -1.55379581623375e-09, 3.325442335574211e-10,
     8.588598565147927e-12, -1.7768125857863813e-12),
    # [20, 22): J_0(21 + u)
    (0.036579071000862745, -0.1711202727639, -0.014215243291767083, 0.028681012938155535,
     0.0008393304184427797, -0.0014321793216340204, -1.6670585212262884e-05,
     3.382831771037002e-05, 1.060153358824426e-07, -4.6329914114360415e-07,
     7.791663275783704e-10, 4.1315221704434695e-09, -1.9135526500100865e-11,
     -2.543809026792797e-11, 1.6512820324020784e-13),
    # [22, 24): J_0(23 + u)
    (-0.16241278131348655, 0.03951932188370146, 0.08034727496361932, -0.007738555955549687,
     -0.006586447979880156, 0.00044135365148365567, 0.0002147724901501597,
     -1.1694094775824763e-05, -3.733004861879721e-06, 1.7699492635144715e-07,
     4.02012285442086e-08, -1.7222121973214145e-09, -2.9416726515688736e-10,
     1.1430203521458029e-11, 1.5345964214132113e-12),
    # [24, 26): J_0(25 + u)
    (0.09626678327595811, 0.12535024958028984, -0.050640396629584854, -0.020183076241763468,
     0.004407691174450553, 0.0009693884877401114, -0.0001523252204160983,
     -2.205590029414805e-05, 2.7996293779234404e-06, 2.914144039696428e-07,
     -3.1795275631482325e-08, -2.510698155595363e-09, 2.446072272396191e-10,
     1.4962050348057426e-11, -1.336308080386339e-12),
)
# the table by powers of u, each a column over the intervals, for gathers by interval
_J0_COLUMNS = tuple(np.array(column) for column in zip(*_J0_TABLE))


def bessel_k(nu: float, r: float) -> float:
    """K_nu(r) for real nu and r > 0 (a float; 0.0 once e^{-r} underflows).

    Raises OverflowError where cosh(nu t) overflows on the way, for a large nu
    at a small r.
    """
    nu, r = abs(float(nu)), float(r)

    def f(t):
        s = math.sinh(0.5 * t)
        return math.exp(-2.0 * r * (s * s)) * math.cosh(nu * t)

    # the integrand rises to its peak at sinh t = nu / r, then falls faster than exponentially
    top = math.asinh(nu / r)
    cut = _K_REACH * f(top)
    while f(top) > cut:
        top += 1.0
    h = 0.5
    n = math.ceil(top / h)
    terms = [0.5 * f(0.0)] + [f(k * h) for k in range(1, n + 1)]
    total = h * math.fsum(terms)
    while True:
        h *= 0.5
        terms += [f((2 * k + 1) * h) for k in range(n)]
        n *= 2
        finer = h * math.fsum(terms)
        if abs(finer - total) <= _K_AGREE * finer:
            return math.exp(-r) * finer
        total = finer


def _horner(coefs, z):
    """sum_k coefs[k] z^k on the array z."""
    out = np.full_like(z, coefs[-1])
    for c in coefs[-2::-1]:
        out *= z
        out += c
    return out


def _k0_series(r):
    q = 0.25 * r * r
    return _horner(_K0_COEF, q) - (np.log(0.5 * r) + np.euler_gamma) * _horner(_I0_COEF, q)


def _k0_trapezoid(r):
    two_r = 2.0 * r
    total = np.zeros_like(r)
    for v2, w in zip(_K0_SQUARES, _K0_WEIGHTS):
        total += w / np.sqrt(two_r + v2)
    return total * np.exp(-r)


def _j0_table(x):
    i = x.astype(np.intp) >> 1
    u = x - (2 * i + 1)
    out = _J0_COLUMNS[-1].take(i)
    for column in _J0_COLUMNS[-2::-1]:
        out *= u
        out += column.take(i)
    return out


def _j0_hankel(x):
    w = 1.0 / x
    z = w * w
    t = np.tan(0.5 * x)
    t2 = t * t
    return ((_horner(_HANKEL_P, z) * (1.0 + 2.0 * t - t2)
             + _horner(_HANKEL_Q, z) * w * (1.0 - 2.0 * t - t2))
            / ((1.0 + t2) * (_SQRT_PI * np.sqrt(x))))


def _piecewise(x, switch, below, above, even=False):
    """below(x) where x < switch, above(x) elsewhere, ``CHUNK_ROWS`` values at a time;
    of |x| when ``even``."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for c0 in range(0, flat_x.size, CHUNK_ROWS):
        part = flat_x[c0:c0 + CHUNK_ROWS]
        if even:
            part = np.abs(part)
        low = part < switch
        dest = flat_out[c0:c0 + CHUNK_ROWS]
        dest[low] = below(part[low])
        high = ~low
        dest[high] = above(part[high])
    return out


def k0(r) -> np.ndarray:
    """K_0 on an array of r > 0, as an array of its shape."""
    return _piecewise(r, _K0_SWITCH, _k0_series, _k0_trapezoid)


def j0(x) -> np.ndarray:
    """J_0 on an array of finite x, as an array of its shape."""
    return _piecewise(x, _J0_SWITCH, _j0_table, _j0_hankel, even=True)
