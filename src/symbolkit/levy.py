"""Levy processes as triplets: exponent evaluation and increment sampling.

A driving process is its triplet (drift l, covariance Q, jump measure N):
``LevyTriplet`` is the driver object, and it evaluates the characteristic
exponent

    psi(xi) = -i l.xi + (1/2) xi.Q.xi
              - integral( e^{i xi.y} - 1 - i xi.y 1_{|y|<1}(y) ) N(dy)

itself.  The jump part is closed form for every measure: atomic,
symmetric-stable, continuous-law (a law through its characteristic function)
and a density on the line (DensityForm), whose density is one tempered-power
family with a closed-form windowed exponent (an xi-series over incomplete-gamma
moments, or the full line less a continued-fraction tail), so building and
evaluating it integrates nothing.  Increments are sampled from the pathwise
decomposition: drift + Gaussian + jumps, with the small-jump compensator
removed as a deterministic drift for every jump that is actually simulated.

Every integral over a measure (a law's small-jump mean, truncation integral,
generator integral and mass; a stable or density generator term; a density's
mass) is one :func:`~symbolkit.quadrature.integrate_panels` call of a
vectorised integrand on a fixed GK21 panel table.  A law's table is graded
toward its breakpoints.  A stable or density table is graded toward 0, where
the measure is singular, and the piece on [0, eps] (eps <= 2^-60) is the
integrand's leading term in closed form: u''(x) y^2 for the generator, and
y^{1-alpha} for the mass, which at alpha = 1.9 still holds 0.16 of it there.
The generator integrand of an even measure is the second difference
u(x + y) + u(x - y) - 2 u(x) of the test function, taken free of cancellation
(``TestFunction.second_difference``).  So no integral is adaptive, and every
Gamma value, :func:`stable_density_coefficient`'s among them, is ``math.gamma``.

Every e^{i phase} of real phase, here and in the Monte Carlo estimator, comes
from :func:`expi`: cos into the real part, sin(phase + 0.0) into the
imaginary part, bit for bit what ``np.exp(1j * phase)`` returns, without the
cost of the complex exp.  An even atom law, its atoms in adjacent pairs
(y, -y) of equal probability, has a real exponent and takes one cos and no
sine per pair: (cos - 1) rate p subtracted twice, which rounds as the pair's
complex terms do.  Any other atom law sums e^{i phase} terms atom by atom.
The atom terms are formed ``CHUNK_ROWS`` frequencies at a time, each row's
arithmetic unchanged.  A triplet without drift and Gaussian
part returns its jump part plus 0.0, which rounds as adding the two zero
parts did.

Jump measures are a closed set of variants: ZeroMeasure, FiniteActivity (a
rate times an AtomLaw or a ContinuousLaw, whose formulas it scales),
StableSymmetric and DensityForm.  Each holds its own formulas, and the
exponent, the sampler, the frozen triplet, the generator and the index bounds
reach a measure only through ``dim`` (None for the zero measure),
``exponent_many(xi)``, ``sample_step(smooth, dt, rng)`` (adds its part to a
step's increments in place, see :func:`sample_step_ensemble`; FiniteActivity
and DensityForm share one compound-Poisson step),
``image(phi)`` (the measure under y -> phi y), ``truncation_shift(phi)``,
``generator_term(u, x)``, ``mass_ratio()`` (int y^2/(1+y^2) N(dy)) and
``step_distributions``, the number of distributions one sampled step draws
from (0 for zero, 1 for Cauchy, 2 for other stable, 3 for compound Poisson),
and, for the compound-Poisson variants, ``activity`` (simulated jumps per unit
time, the rate of :func:`poisson_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, gamma, isfinite
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, QuadratureFailure, SectorViolation
from .quadrature import graded_edges, integrate_panels, radial_edges

_ATOL = 1e-12

# --------------------------------------------------------------------------
# jump laws for finite-activity measures


@dataclass(frozen=True)
class AtomLaw:
    """Discrete jump distribution: positions (each shape (n,)) and probabilities."""

    positions: tuple
    probabilities: tuple

    def __post_init__(self):
        if not (all(np.isfinite(y).all() for y in self.positions)
                and all(isfinite(p) for p in self.probabilities)):
            raise ValueError("atom positions and probabilities must be finite")
        total = float(sum(self.probabilities))
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"atom probabilities sum to {total}, expected 1 +- {_ATOL}")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("atom probabilities must be nonnegative")

    @staticmethod
    def of(atoms: Sequence[tuple]) -> "AtomLaw":
        """Build from [(position, probability), ...]; scalar positions become 1-d."""
        pos = tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p, _ in atoms)
        prob = tuple(float(q) for _, q in atoms)
        return AtomLaw(positions=pos, probabilities=prob)

    @property
    def dim(self) -> int:
        return self.positions[0].shape[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.choice(len(self.positions), size=size, p=np.asarray(self.probabilities))
        stacked = np.stack(self.positions)
        return stacked[idx]

    @cached_property
    def small(self) -> tuple:
        """Per atom, whether |y| < 1 (the compensated atoms): np.linalg.norm's verdict,
        from |y| in d = 1 and from a norm that may overflow, quietly, in d > 1."""
        if self.dim == 1:
            return tuple(abs(float(y[0])) < 1.0 for y in self.positions)
        with np.errstate(over="ignore"):
            return tuple(bool(np.linalg.norm(y) < 1.0) for y in self.positions)

    @cached_property
    def even(self) -> bool:
        """Whether the atoms come in adjacent pairs (y, -y) of equal probability."""
        pos, prob = self.positions, self.probabilities
        return len(pos) % 2 == 0 and all(
            np.array_equal(pos[k + 1], -pos[k]) and prob[k + 1] == prob[k]
            for k in range(0, len(pos), 2))

    def mean_small(self) -> np.ndarray:
        """E[Y 1_{|Y|<1}], the compensated part of the jump mean."""
        out = np.zeros(self.dim)
        for y, p, small in zip(self.positions, self.probabilities, self.small):
            if small:
                out += p * y
        return out

    def exponent_many(self, rate: float, xi: np.ndarray) -> np.ndarray:
        """-rate * sum_k p_k (e^{i xi.y_k} - 1 - i xi.y_k 1_{|y_k|<1}), atom by atom.

        An even law (``even``) takes one cos per pair: r = (cos(xi.y) - 1) rate p
        is subtracted twice from the real part, and the imaginary part stays +0.
        That is the complex sum bit for bit: each atom's real part is that r
        (the compensator and the products with +-0 leave it alone), and the
        pair's imaginary parts cancel exactly (cos is even, sin odd), back to
        the +0 the sum started from.  Any other law sums the complex terms.
        An infinite phase xi.y raises FloatingPointError; a NaN one (a NaN
        state or frequency) gives NaN, in the real part only for an even law.
        """
        pos, prob, small, even = self.positions, self.probabilities, self.small, self.even
        out = np.zeros(xi.shape[0], dtype=complex)
        for c0 in range(0, xi.shape[0], CHUNK_ROWS):
            rows = slice(c0, c0 + CHUNK_ROWS)
            for k in range(0, len(pos), 2 if even else 1):
                with np.errstate(over="ignore", invalid="ignore"):
                    phase = row_dot(xi[rows], pos[k])
                if np.isinf(phase).any():
                    raise FloatingPointError(
                        f"atom phase xi.y overflows at the atom y = {pos[k].tolist()}")
                if even:
                    r = np.cos(phase, out=phase)
                    r -= 1.0
                    r *= rate * prob[k]
                    out.real[rows] -= r
                    out.real[rows] -= r
                    continue
                term = expi(phase)
                term -= 1.0
                if small[k]:
                    term -= 1j * phase
                term *= rate * prob[k]
                out[rows] -= term
        return out

    def image(self, phi: float) -> "AtomLaw":
        with np.errstate(over="raise"):         # an overflowing position is numerical, not config
            return AtomLaw.of([(phi * y[0], p)
                               for y, p in zip(self.positions, self.probabilities)])

    def truncation_integral(self, a: float) -> float:
        """int y (1_{|y| < 1/a} - 1_{|y| < 1}) against the law, one-dimensional."""
        total = 0.0
        for y, p in zip(self.positions, self.probabilities):
            yv = float(y[0])
            total += p * yv * (float(abs(yv) < 1.0 / a) - float(abs(yv) < 1.0))
        return total

    def generator_integral(self, g: Callable[[float], float]) -> float:
        return sum(p * g(float(y[0])) for y, p in zip(self.positions, self.probabilities))

    def mass_ratio(self) -> float:
        # from |y| = 2^512 on y^2 overflows, and p y^2 / (1 + y^2) is p to 2^-1024
        return sum(p if abs(float(y[0])) >= 2.0 ** 512
                   else p * float(y[0]) ** 2 / (1.0 + float(y[0]) ** 2)
                   for y, p in zip(self.positions, self.probabilities))


@dataclass(frozen=True)
class ContinuousLaw:
    """One-dimensional continuous jump distribution: sampler, density (on an array),
    ``cf_m1(xi)`` = E e^{i xi Y} - 1 on an array (free of cancellation near 0), and
    ``points``, where the density peaks or jumps, toward which every panel table over
    the law is graded."""

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    density: Callable[[float], float]
    cf_m1: Callable[[np.ndarray], np.ndarray]
    support: tuple = (-np.inf, np.inf)
    points: tuple = ()

    @property
    def dim(self) -> int:
        return 1

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.asarray(self.sampler(rng, size), dtype=float).reshape(size, 1)

    @property
    def clipped_support(self) -> tuple:
        """The support with infinite ends replaced by -+1e3."""
        lo, hi = self.support
        return (lo if np.isfinite(lo) else max(lo, -1e3),
                hi if np.isfinite(hi) else min(hi, 1e3))

    @property
    def breakpoints(self) -> list:
        """The law's points, -1, 0 and 1 where they lie inside the clipped support."""
        lo, hi = self.clipped_support
        return sorted({p for p in (*self.points, -1.0, 0.0, 1.0) if lo < p < hi})

    def _integral(self, g, lo: float, hi: float, *, tol: float, label: str,
                  knots: tuple = ()) -> float:
        """int_lo^hi g(y) density(y) dy for a vectorised g, on panels graded toward lo, hi
        and the breakpoints and ``knots`` between them."""
        inner = (p for p in (*self.breakpoints, *knots) if lo < p < hi)
        return integrate_panels(lambda y: g(y) * self.density(y),
                                graded_edges(sorted({lo, hi, *inner})), tol=tol, label=label)

    @cached_property
    def small_mean(self) -> float:
        """E[Y 1_{|Y|<1}], computed once for the exponent and the sampler's compensator."""
        lo = max(self.support[0], -1.0)
        hi = min(self.support[1], 1.0)
        if hi <= lo:
            return 0.0
        return self._integral(lambda y: y, lo, hi, tol=1e-9,
                              label=f"{self.name} small-jump mean")

    def mean_small(self) -> np.ndarray:
        return np.array([self.small_mean])

    def exponent_many(self, rate: float, xi: np.ndarray) -> np.ndarray:
        out = self.cf_m1(xi[:, 0])                   # -rate (cf - 1 - i xi E[Y 1_{|Y|<1}])
        out.imag -= xi[:, 0] * self.small_mean
        out.real *= -rate                           # part by part: Re stays even bit for bit
        out.imag *= -rate
        return out

    def image(self, phi: float) -> "ContinuousLaw":
        a = abs(phi)
        lo, hi = self.support
        return ContinuousLaw(
            name=f"{self.name}*{phi}",
            sampler=lambda rng, size: phi * np.asarray(self.sampler(rng, size)),
            density=lambda z: self.density(z / phi) / a,
            cf_m1=lambda xi: self.cf_m1(phi * xi),
            support=tuple(sorted((phi * lo, phi * hi))),
            points=tuple(sorted(phi * p for p in self.points)))

    def truncation_integral(self, a: float) -> float:
        """int y (1_{|y| < 1/a} - 1_{|y| < 1}) against the law, a not 0 or 1.

        One integral of y 1_{lo < |y|} over [-hi, hi] within the clipped
        support, (lo, hi) = sorted((1, 1/a)): the table stops at the support's
        ends (quad once missed the uniform(-0.7, 1.9) density's drop to 0 just
        inside [1, 1.9016] by 1.2e-3) and is graded toward -lo and lo too, where
        the indicator jumps.
        """
        lo, hi = sorted((1.0, 1.0 / a))
        left, right = self.clipped_support
        left, right = max(-hi, left), min(hi, right)
        val = 0.0 if right <= left else self._integral(
            lambda y: y * (np.abs(y) > lo), left, right, tol=1e-10,
            label="indicator correction", knots=(-lo, lo))
        return (1.0 if 1.0 / a > 1.0 else -1.0) * val

    def generator_integral(self, g: Callable) -> float:
        lo, hi = self.clipped_support
        return self._integral(g, lo, hi, tol=1e-9, label="jump generator")

    def mass_ratio(self) -> float:
        lo, hi = self.clipped_support
        return self._integral(lambda y: y * y / (1 + y * y), lo, hi, tol=1e-9,
                              label="jump mass")


def normal_law(mean: float = 0.0, std: float = 1.0) -> ContinuousLaw:
    m, s = float(mean), float(std)
    if not s > 0:
        raise ValueError(f"normal law std must be > 0, got {s}")
    return ContinuousLaw(
        name="normal",
        sampler=lambda rng, size: rng.normal(m, s, size=size),
        density=lambda y: np.exp(-0.5 * ((y - m) / s) ** 2) / (s * np.sqrt(2 * np.pi)),
        cf_m1=lambda xi: np.expm1(_complex(-0.5 * (xi * s) ** 2, xi * m)),
        points=(m - 8.0 * s, m, m + 8.0 * s),
    )


def uniform_law(low: float = -1.0, high: float = 1.0) -> ContinuousLaw:
    a, b = float(low), float(high)
    if not (a < b and isfinite(b - a)):
        raise ValueError(f"uniform law needs low < high with a finite high - low, got {a} and {b}")
    series = [(-1.0) ** k / factorial(2 * k + 1) for k in range(6, 0, -1)]   # of t^12 .. t^2

    def cf_m1(xi):
        # e^{i xi c} sinc(xi h) - 1 = (e^{i xi c} - 1)(1 + d) + d for the centre c, the half
        # width h and d = sinc(xi h) - 1, which near 0 is its Taylor series through (xi h)^12
        t = xi * (0.5 * (b - a))
        with np.errstate(all="ignore"):
            d = np.where(np.abs(t) < 0.5, t * t * np.polyval(series, t * t),
                         np.sin(t) / t - 1.0)
        e = np.expm1(_complex(np.zeros_like(xi), xi * (0.5 * (a + b))))
        return _complex(e.real * (1.0 + d) + d, e.imag * (1.0 + d))

    return ContinuousLaw(
        name="uniform",
        sampler=lambda rng, size: rng.uniform(a, b, size=size),
        density=lambda y: np.where((a <= y) & (y <= b), 1.0 / (b - a), 0.0),
        cf_m1=cf_m1,
        support=(a, b),
    )


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im from two float arrays of one shape, each part kept to the bit."""
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


_SERIES_TERMS = 13        # xi^2 .. xi^26: at |xi| W <= 2 the next term is below 1e-17 of the first
_SERIES_REACH = 2.0       # |xi| * window up to which the exponent is its xi-series
_CF_STEPS = 500           # continued-fraction steps; |z| >= 1 converges in about 100


def _gamma_cf(s, z: np.ndarray) -> np.ndarray:
    """F(s, z) with Gamma(s, z) = e^{-z} z^s F(s, z), for a 1-d array z with |z| >= 1, Re z >= 0.

    The modified Lentz method on the continued fraction of DLMF 8.9.2; s is a
    number or an array like z.  Each entry stops at its own convergence, so its
    value does not depend on the batch it comes in.
    """
    out, idx, s = np.empty_like(z), np.arange(z.size), np.broadcast_to(s, z.shape)
    bn = z + (1.0 - s)
    h = d = 1.0 / bn
    c = np.full_like(d, np.inf)
    for n in range(1, _CF_STEPS):
        if not idx.size:
            return out
        an = -n * (n - s)
        bn = bn + 2.0
        d = 1.0 / (an * d + bn)
        c = bn + an / c
        step = d * c
        h = h * step
        done = np.abs(step - 1.0) <= np.finfo(float).eps
        if done.any():
            out[idx[done]] = h[done]
            idx, bn, c, d, h, s = (v[~done] for v in (idx, bn, c, d, h, s))
    raise QuadratureFailure(f"incomplete gamma continued fraction at s = {s[0]} did not converge")


@dataclass(frozen=True)
class TemperedPower:
    """The density y -> a |y|^{-1-alpha} e^{-b |y|} on the line, zero at the origin.

    The one family of the named densities: ``tempered_power(a, alpha, b)``,
    and ``exponential(a, b)`` at alpha = -1.  Each parameter is a finite
    number, not a bool: a > 0, -1 <= alpha < 2 (below, the exponent's
    full-line-minus-tail form cancels: 1e-3 relative at alpha = -10) and
    b >= 0; b = 0 needs alpha > 0 and an explicit window.  The image under
    y -> phi y is the family at (a |phi|^alpha, alpha, b / |phi|).
    """

    a: float
    alpha: float
    b: float

    def __post_init__(self):
        for key in ("a", "alpha", "b"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
                raise ValueError(f"density parameter {key!r} must be a number, got {value!r}")
            object.__setattr__(self, key, float(value))
        for key, ok, rule in (("a", 0.0 < self.a < np.inf, "finite and > 0"),
                              ("alpha", -1.0 <= self.alpha < 2.0, "in [-1, 2)"),
                              ("b", 0.0 <= self.b < np.inf, "finite and >= 0"),
                              ("alpha", self.b > 0.0 or self.alpha > 0.0, "in (0, 2) at b = 0")):
            if not ok:
                raise ValueError(f"density parameter {key!r} must be {rule}, "
                                 f"got {getattr(self, key)}")

    def density(self, y: float) -> float:
        return (self.a * abs(y) ** (-1.0 - self.alpha) * np.exp(-self.b * abs(y))
                if y != 0 else 0.0)

    def image(self, phi: float) -> "TemperedPower":
        return TemperedPower(self.a * abs(phi) ** self.alpha, self.alpha, self.b / abs(phi))

    def beyond(self, w: float) -> float:
        """int_w^inf y^{-1-alpha} e^{-b y} dy = w^{-alpha} E_{1+alpha}(b w), for w > 0.

        The continued fraction where b w > 1; below, the series of E_p (DLMF
        8.19.8 and 8.19.10, with E_2 = e^{-x} - x E_1 at alpha = 1).
        """
        alpha, x = self.alpha, self.b * w
        if x > 1.0:
            return float(w ** -alpha * np.exp(-x) * _gamma_cf(-alpha, np.array([x]))[0])
        if self.b == 0.0:
            return w ** -alpha / alpha
        terms = np.cumprod(np.concatenate([[1.0], -x / np.arange(1.0, 40.0)]))   # (-x)^k / k!
        if alpha in (0.0, 1.0):
            e1 = -np.euler_gamma - np.log(x) - float(terms[1:] @ (1.0 / np.arange(1.0, 40.0)))
            return e1 if alpha == 0.0 else (np.exp(-x) - x * e1) / w
        series = x ** alpha * gamma(-alpha) - float(terms @ (1.0 / (np.arange(40.0) - alpha)))
        return w ** -alpha * series

    def auto_window(self) -> float:
        """The first w = 2^k with [w, 4w] mass (a proxy for the tail) below 1e-10."""
        if self.b == 0.0:
            raise ValueError("a density with 'b' = 0 needs an explicit window")
        for k in range(60):
            if 2.0 * self.a * (self.beyond(2.0 ** k) - self.beyond(2.0 ** (k + 2))) < 1e-10:
                return 2.0 ** k
        raise ValueError("could not find truncation window with tail mass < 1e-10")

    def series(self, w: float) -> np.ndarray:
        """The xi^2, xi^4, ... coefficients of int_0^w (1 - cos xi y) y^{-1-alpha} e^{-b y} dy.

        (-1)^{j+1} m_j / (2j)! over the moments m_j = int_0^w y^{s-1} e^{-b y} dy
        = b^{-s} gamma(s, b w), s = 2j - alpha: the lower incomplete gamma by
        its series where b w <= s + 1 (DLMF 8.7.1), else Gamma(s) less the
        continued fraction.
        """
        j = np.arange(1, _SERIES_TERMS + 1)
        x, s, m = self.b * w, 2.0 * j - self.alpha, np.empty(_SERIES_TERMS)
        near, far = x <= s + 1.0, x > s + 1.0
        terms = np.cumprod(x / (s[near, None] + 1.0 + np.arange(200.0)), axis=1)   # x^k / (s+1)_k
        m[near] = w ** s[near] * np.exp(-x) * (1.0 + terms.sum(axis=1)) / s[near]
        m[far] = (self.b ** -s[far] * np.array([gamma(v) for v in s[far]])
                  - w ** s[far] * np.exp(-x) * _gamma_cf(s[far], np.full(far.sum(), x)))
        return (-1.0) ** (j + 1) * m / np.array([float(factorial(2 * k)) for k in j])

    def windowed_exponent(self, x: np.ndarray, w: float, series: np.ndarray,
                          beyond: float) -> np.ndarray:
        """2 a int_0^w (1 - cos x y) y^{-1-alpha} e^{-b y} dy at x >= 0.

        ``series`` and ``beyond`` are the family's at w.  For x w <= 2 the
        xi-series; elsewhere the full-line form -Gamma(-alpha) Re(c^alpha -
        b^alpha), c = b - i x, less the tail past w,
        b^alpha Gamma(-alpha, b w) - Re(c^alpha Gamma(-alpha, c w)).
        """
        alpha, b = self.alpha, self.b
        out, small = np.empty(x.shape[0]), x * w <= _SERIES_REACH
        u = x[small] * x[small]
        out[small] = u * np.polyval(series[::-1], u)
        x = x[~small]
        if b == 0.0:
            full = (0.5 * np.pi * x if alpha == 1.0
                    else -gamma(-alpha) * np.cos(0.5 * np.pi * alpha) * x ** alpha)
        elif alpha == 0.0:
            full = 0.5 * np.log1p((x / b) ** 2)
        elif alpha == 1.0:
            full = x * np.arctan(x / b) - 0.5 * b * np.log1p((x / b) ** 2)
        else:
            # Re((1 - i t)^alpha) - 1 = expm1(p) cos q - 2 sin^2(q / 2), free of cancellation
            p, q = 0.5 * alpha * np.log1p((x / b) ** 2), alpha * np.arctan(x / b)
            full = -gamma(-alpha) * b ** alpha * (np.expm1(p) * np.cos(q)
                                                  - 2.0 * np.sin(0.5 * q) ** 2)
        cf = _gamma_cf(-alpha, _complex(np.full(x.shape, b * w), -x * w))
        past = w ** -alpha * np.exp(-b * w) * (expi(x * w) * cf).real
        out[~small] = full - (beyond - past)
        return 2.0 * self.a * out


def tempered_power(a: float = 1.0, alpha: float = 0.5, b: float = 1.0) -> TemperedPower:
    """Tempered power tail y -> a |y|^{-1-alpha} e^{-b |y|}, zero at the origin."""
    return TemperedPower(a, alpha, b)


def exponential(a: float = 1.0, b: float = 1.0) -> TemperedPower:
    """Two-sided exponential y -> a e^{-b |y|}: the tempered power at alpha = -1."""
    return TemperedPower(a, -1.0, b)


def _compensated(u, x: float) -> Callable:
    """y -> u(x + y) - u(x) - y u'(x) 1_{|y|<1}, the generator's jump integrand, on arrays."""
    gx = u.u(x)
    gpx = float(u.grad(x)[0])
    return lambda y: u.u(x + y) - gx - y * gpx * (np.abs(y) < 1.0)


def _even_generator_term(family: TemperedPower, window: float, u, x: float) -> float:
    """int (u(x + y) - u(x) - y u'(x) 1_{|y|<1}) nu(dy) for nu = ``family`` on |y| <= window.

    Folded onto y > 0 (nu is even), the integrand is the second difference
    D(y) = u(x + y) + u(x - y) - 2 u(x) against a y^{-1-alpha} e^{-b y}, on
    one table graded toward 0 up to reach = min(window, |x| + u.spatial_scale),
    its panels at most ``u.panel_width`` wide.  On [0, eps] D is u''(x) y^2 to
    O(eps^2) relative, so that piece is u''(x) a eps^{2-alpha} / (2 - alpha).
    Beyond reach u(x +- y) is below e^{-50}, so D = -2 u(x) against the
    family's mass from reach to the window (``TemperedPower.beyond``).
    """
    a, alpha, b = family.a, family.alpha, family.b
    reach = min(window, abs(x) + u.spatial_scale)
    edges = radial_edges(reach, u.panel_width, "jump generator")
    body = integrate_panels(
        lambda y: u.second_difference(x, y) * (a * y ** (-1.0 - alpha) * np.exp(-b * y)),
        edges, tol=1e-9, label="jump generator")
    head = float(u.hess(x)[0, 0]) * a * edges[0] ** (2.0 - alpha) / (2.0 - alpha)
    tail = -2.0 * u.u(x) * a * (family.beyond(reach) - family.beyond(window))
    return float(head + body + tail)


# --------------------------------------------------------------------------
# measure variants


@dataclass(frozen=True)
class ZeroMeasure:
    """No jumps."""

    dim = None
    step_distributions = 0

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros(xi.shape[0], dtype=complex)

    def sample_step(self, smooth, dt, rng):
        return None, None

    def image(self, phi: float) -> "ZeroMeasure":
        return self

    def truncation_shift(self, phi: float) -> float:
        return 0.0

    def generator_term(self, u, x: float) -> float:
        return 0.0

    def mass_ratio(self) -> float:
        return 0.0


def poisson_counts(rng, activity, dt, size):
    """Jump counts of ``size`` path-steps of length dt at ``activity`` jumps per unit time.

    The one count draw of a compound-Poisson step: ``sde._driver_steps``
    also draws its look-ahead with it, then rewinds the generator.  A mean
    ``activity * dt`` past numpy's POISSON_LAM_MAX, about 9.2e18, is its ValueError.
    """
    return rng.poisson(activity * dt, size=size)


def _compound_poisson_step(smooth, dt, rng, activity, draw, comp):
    """``sample_step`` of a measure whose jumps are simulated one by one.

    Poisson counts at ``activity`` jumps per unit time, values from
    ``draw(rng, k)``, positions uniform on (0, dt); ``comp``, the compensator
    of the simulated jumps over dt, is subtracted from ``smooth``.
    """
    counts = poisson_counts(rng, activity, dt, smooth.shape[0])
    total = int(counts.sum())
    jumps = None
    if total:
        jumps = (draw(rng, total), rng.uniform(0.0, dt, size=total))
    smooth -= comp
    return counts, jumps


@dataclass(frozen=True)
class FiniteActivity:
    """Compound-Poisson jump measure N = rate * law."""

    rate: float
    law: AtomLaw | ContinuousLaw
    step_distributions = 3          # Poisson counts, jump values, positions

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"finite-activity rate must be > 0, got {self.rate}")

    @cached_property
    def small_jump_mean(self) -> np.ndarray:
        """E[Y 1_{|Y|<1}] of the law, computed once."""
        return self.law.mean_small()

    @property
    def dim(self) -> int:
        return self.law.dim

    @property
    def activity(self) -> float:
        """Simulated jumps per unit time."""
        return self.rate

    def sample_step(self, smooth, dt, rng):
        return _compound_poisson_step(smooth, dt, rng, self.rate, self.law.sample,
                                      dt * self.rate * self.small_jump_mean)

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return self.law.exponent_many(self.rate, xi)

    def image(self, phi: float) -> LevyMeasureSpec:
        if phi == 0.0:
            return ZeroMeasure()
        return FiniteActivity(rate=self.rate, law=self.law.image(phi))

    def truncation_shift(self, phi: float) -> float:
        a = abs(phi)
        if a == 0.0 or a == 1.0:
            return 0.0
        return phi * self.rate * self.law.truncation_integral(a)

    def generator_term(self, u, x: float) -> float:
        return self.rate * self.law.generator_integral(_compensated(u, x))

    def mass_ratio(self) -> float:
        return self.rate * self.law.mass_ratio()


@dataclass(frozen=True)
class StableSymmetric:
    """Symmetric (isotropic) alpha-stable jump part with exponent scale*|xi|^alpha."""

    alpha: float
    scale: float = 1.0
    dim = 1

    def __post_init__(self):
        if self.alpha == 2.0:
            raise ValueError("alpha=2 is the Gaussian case; express it through the covariance Q")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"stable index must lie in (0, 2), got {self.alpha}")
        if self.scale <= 0:
            raise ValueError(f"stable scale must be > 0, got {self.scale}")

    @property
    def step_distributions(self) -> int:
        """Uniform angles, plus exponential radii unless alpha = 1 (see sample_standard_stable)."""
        return 1 if _is_cauchy(self.alpha) else 2

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return self.scale * np.linalg.norm(xi, axis=-1) ** self.alpha + 0j

    def sample_step(self, smooth, dt, rng):
        draw = sample_standard_stable(self.alpha, rng, smooth.shape[0]).reshape(smooth.shape)
        draw *= (self.scale * dt) ** (1.0 / self.alpha)
        smooth += draw
        return None, None

    def image(self, phi: float) -> LevyMeasureSpec:
        if phi == 0.0:
            return ZeroMeasure()
        return StableSymmetric(alpha=self.alpha, scale=self.scale * abs(phi) ** self.alpha)

    def truncation_shift(self, phi: float) -> float:
        return 0.0                  # the measure is symmetric

    def generator_term(self, u, x: float) -> float:
        """The even-measure generator term of the density k |y|^{-1-alpha} on the line."""
        k = stable_density_coefficient(self.alpha, self.scale)
        return _even_generator_term(TemperedPower(k, self.alpha, 0.0), np.inf, u, x)

    def mass_ratio(self) -> float:
        """k pi / sin(pi alpha/2): int_0^inf y^{1-alpha}/(1+y^2) dy = (pi/2) / sin(pi alpha/2)."""
        k = stable_density_coefficient(self.alpha, self.scale)
        return k * np.pi / np.sin(np.pi * self.alpha / 2.0)


class DensityForm:
    """Jump measure of a :class:`TemperedPower` density, truncated to |y| <= window.

    Jumps with |y| >= cutoff are simulated as compound Poisson (inverse CDF
    tabulated at the first draw); smaller jumps are dropped together with their
    compensator, exactly 0 for the even density.  The exponent is the closed
    form of the whole compensated integral (:meth:`TemperedPower.windowed_exponent`).
    """

    dim = 1
    step_distributions = 3          # Poisson counts, jump values, positions
    small_jump_drift = 0.0          # the compensator of a symmetric density

    def __init__(self, family: TemperedPower, window: Optional[float] = None,
                 cutoff: float = 1e-3, name: str = "density"):
        if not isinstance(family, TemperedPower):
            raise TypeError(f"a density measure takes a TemperedPower family, got {family!r}")
        if not cutoff > 0:
            raise ValueError("cutoff must be positive")
        self.family, self.density = family, family.density
        self.cutoff = float(cutoff)
        self.name = name
        self.window = float(window) if window is not None else family.auto_window()
        if not self.cutoff < self.window < np.inf:
            raise ValueError("window must exceed cutoff and be finite")

    @cached_property
    def _table(self):
        """Inverse-CDF table of one side (the density is even), geometric from cutoff to window.

        One scalar density call per knot: the array expression differs from it
        in the last bit at 179 of the catalog driver's 4096 knots.
        """
        y = np.geomspace(self.cutoff, self.window, _KNOTS_PER_SIDE)
        dens = np.array([self.density(t) for t in y])
        return y, np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(y))])

    @property
    def activity(self) -> float:
        """Simulated jumps per unit time, the mass of both sides."""
        return 2.0 * float(self._table[1][-1])

    @cached_property
    def _window_terms(self):
        """The family's xi-series and one-side mass beyond the window, computed once."""
        return self.family.series(self.window), self.family.beyond(self.window)

    def sample_jumps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` jump magnitudes-with-sign from the truncated density, shape (size, 1)."""
        knots, cdf = self._table
        u = rng.uniform(size=size)
        negative = rng.uniform(size=size) * self.activity >= cdf[-1]
        out = np.interp(u * cdf[-1], cdf, knots)
        np.negative(out, out=out, where=negative)
        return out.reshape(size, 1)

    def sample_step(self, smooth, dt, rng):
        return _compound_poisson_step(smooth, dt, rng, self.activity,
                                      self.sample_jumps, dt * self.small_jump_drift)

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        jump = -self.family.windowed_exponent(np.abs(xi[:, 0]), self.window,
                                              *self._window_terms) + 0j
        return -1.0 * jump                          # not -jump: keeps the outputs' signed zeros

    def image(self, phi: float) -> LevyMeasureSpec:
        if phi == 0.0:
            return ZeroMeasure()
        a = abs(phi)
        return DensityForm(self.family.image(phi), window=self.window * a,
                           cutoff=self.cutoff * a, name=f"{self.name}*{phi}")

    def truncation_shift(self, phi: float) -> float:
        # the two sides' integrals cancel: a zero signed as phi times the side of 1 |phi| is on
        a = abs(phi)
        return 0.0 if a in (0.0, 1.0) else phi * ((1.0 if a < 1.0 else -1.0) * 0.0)

    def generator_term(self, u, x: float) -> float:
        return _even_generator_term(self.family, self.window, u, x)

    def mass_ratio(self) -> float:
        """2 a int_0^W y^{1-alpha} e^{-b y} / (1 + y^2) dy on a table graded toward 0.

        The piece on [0, eps] is a eps^{2-alpha} / (2 - alpha) per side, to
        O(eps) relative; no geometric table reaches it, as at alpha = 1.9
        [0, 2^-60] still holds 0.16 a.
        """
        a, alpha, b = self.family.a, self.family.alpha, self.family.b
        edges = radial_edges(self.window, self.window, "density mass")
        body = integrate_panels(lambda y: a * y ** (1.0 - alpha) * np.exp(-b * y) / (1.0 + y * y),
                                edges, tol=1e-9, label="density mass")
        return 2.0 * (a * edges[0] ** (2.0 - alpha) / (2.0 - alpha) + body)


LevyMeasureSpec = ZeroMeasure | FiniteActivity | StableSymmetric | DensityForm


def stable_density_coefficient(alpha: float, scale: float = 1.0) -> float:
    """Coefficient k with nu(y) = k |y|^{-1-alpha} matching exponent scale*|xi|^alpha.

    Uses int_0^inf (1-cos u) u^{-1-alpha} du = Gamma(2-alpha) cos(pi alpha/2) / (alpha (1-alpha))
    with the value pi/2 at alpha = 1.
    """
    if abs(alpha - 1.0) < 1e-12:
        i_alpha = np.pi / 2.0
    else:
        i_alpha = gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (alpha * (1.0 - alpha))
    return scale / (2.0 * i_alpha)


# --------------------------------------------------------------------------
# triplet


class LevyTriplet:
    """A driving Levy process: its triplet (drift, covariance, jump measure) in dimension n.

    The triplet fixes the exponent psi: ``driver(xi)`` evaluates it at one
    frequency and ``driver.many(xi)`` on a batch (both through
    :func:`eval_exponent_many`); :func:`sample_step_ensemble` samples its
    increments.  Validates at construction: the drift a nonempty flat vector,
    Q symmetric positive semidefinite with its stored square root reproducing
    Q to 1e-12 per entry, and the jump measure integrating (1 ^ |y|^2)
    finitely.
    """

    def __init__(self, drift, covariance, levy_measure: LevyMeasureSpec = ZeroMeasure(),
                 name: str = "levy"):
        self.drift = np.atleast_1d(np.asarray(drift, dtype=float))
        self.covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
        self.levy_measure = levy_measure
        self.name = name
        if self.drift.ndim != 1 or self.drift.size == 0:
            raise ValueError(f"drift {self.drift.tolist()} must be a nonempty list of numbers")
        n = self.drift.shape[0]
        if self.covariance.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {self.covariance.shape} does not match drift length {n}")
        if not (np.isfinite(self.drift).all() and np.isfinite(self.covariance).all()):
            raise ValueError(f"drift {self.drift.tolist()} and covariance "
                             f"{self.covariance.tolist()} must be finite")
        if not np.allclose(self.covariance, self.covariance.T, atol=_ATOL, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        w, v = np.linalg.eigh(self.covariance)
        if w.min(initial=0.0) < -1e-10:
            raise ValueError(f"covariance must be positive semidefinite (eigenvalue {w.min()})")
        self.sigma = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        self.gaussian = bool(np.any(self.covariance))
        self._no_jump_values = np.empty((0, n))
        if np.abs(self.sigma @ self.sigma.T - self.covariance).max() > 1e-12 * max(1.0, np.abs(w).max()):
            raise ValueError("square root does not reproduce covariance to tolerance")
        if levy_measure.dim not in (None, n):
            raise DimensionMismatch(f"{type(levy_measure).__name__} jump dimension "
                                    f"{levy_measure.dim} does not match triplet dimension {n}")
        # one sample_step_ensemble call of K*m rows is K calls of m rows, bit for
        # bit, when a step draws from at most one distribution (the generator's
        # stream does not depend on the call size) and n = 1 (n > 1 goes through
        # a matmul, whose rounding may depend on the row count)
        self.blockable = n == 1 and self.gaussian + levy_measure.step_distributions <= 1

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @cached_property
    def jump_activity(self) -> Optional[float]:
        """The activity of a compound-Poisson step with n = 1 and no Gaussian part, else None.

        sde._driver_steps draws such a step's counts K = min(BLOCK_ROWS // m,
        floor(1 / (activity dt m))) steps ahead and its jump-free run in one
        call (K <= 1: step by step).  Read at the first simulation, so a frozen
        triplet builds no sampler table.
        """
        return (self.levy_measure.activity if self.dim == 1 and not self.gaussian
                and self.levy_measure.step_distributions == 3 else None)

    def __call__(self, xi) -> complex:
        """psi(xi) at a single frequency of shape (n,)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.dim,):
            raise DimensionMismatch(f"xi shape {xi.shape} does not match dimension {self.dim}")
        return complex(eval_exponent_many(self, xi[None, :])[0])

    def many(self, xi: np.ndarray) -> np.ndarray:
        """psi on a batch of frequencies, shape (m, n) -> complex (m,)."""
        return eval_exponent_many(self, xi)

    @staticmethod
    def from_dict(spec: dict, name: str = "levy") -> "LevyTriplet":
        """Build from the JSON object layout documented in the README.

        {"drift": [...], "covariance": [[...]],
         "levy_measure": {"kind": "zero"|"atoms"|"stable"|"density", ...}}
        """
        return _triplet(name, **spec)

    def __repr__(self):
        return (f"LevyTriplet(drift={self.drift.tolist()}, "
                f"covariance={self.covariance.tolist()}, measure={type(self.levy_measure).__name__})")


# --------------------------------------------------------------------------
# exponent evaluation

_KNOTS_PER_SIDE = 4096    # inverse-CDF table of a density, geometric from cutoff to window

# Rows per pass of the elementwise complex steps (atom exponent, MC values): a
# 128 KiB complex temporary stays in cache, and whole 85k-row batches ran about
# 1.6x slower per row.
CHUNK_ROWS = 1 << 13


def expi(phase, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^{i phase} for real ``phase``, bit for bit what ``np.exp(1j * phase)`` returns.

    Writes cos(phase) into the real part and sin(phase + 0.0) into the
    imaginary part: ``1j * phase`` adds +0.0 to the phase, so a phase of -0.0
    gives +0.0.  ``out``, if given, is a complex array of the phase's shape.
    """
    phase = np.asarray(phase, dtype=float)
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.add(phase, 0.0, out=out.imag)
    np.sin(out.imag, out=out.imag)
    return out


def row_dot(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The phases rows @ v of rows (k, d) and v (d,); in d = 1 the elementwise product.

    The product costs a fifth of the matmul.  The two differ only where the
    phase is zero: the matmul adds the product to +0.0, so it returns +0
    where the product is -0.  Callers feed the phase to ``expi`` (cos is
    even, and the sine is taken of phase + 0.0) or subtract 1j * phase from
    cos(phase) - 1, whose +0 absorbs the real part's +-0, so the sign never
    reaches a result.
    """
    return rows[:, 0] * v[0] if v.shape[0] == 1 else rows @ v


def eval_exponent_many(triplet: LevyTriplet, xi: np.ndarray) -> np.ndarray:
    """Evaluate psi on a batch of frequencies, shape (m, n) -> complex (m,)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None] if triplet.dim == 1 else xi[None, :]
    if xi.shape[-1] != triplet.dim:
        raise DimensionMismatch(
            f"xi has dimension {xi.shape[-1]}, triplet has dimension {triplet.dim}")
    jump = triplet.levy_measure.exponent_many(xi)
    if not triplet.gaussian and not triplet.drift.any():
        jump += 0.0                 # the zero drift and Gaussian parts sum to (+0, +0)
        return jump
    drift_part = -1j * (xi @ triplet.drift)
    gaussian_part = 0.5 * np.einsum("mi,ij,mj->m", xi, triplet.covariance, xi)
    return drift_part + gaussian_part + jump


# --------------------------------------------------------------------------
# sampling


def _is_cauchy(alpha: float) -> bool:
    return abs(alpha - 1.0) < 1e-12


def sample_standard_stable(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf E e^{i xi X} = e^{-|xi|^alpha}.

    Polar (Chambers-Mallows-Stuck) construction, symmetric case.
    """
    v = rng.uniform(size=size)
    v -= 0.5
    v *= np.pi
    if _is_cauchy(alpha):
        return np.tan(v, out=v)
    w = rng.exponential(size=size)
    return (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))


@dataclass
class StepSample:
    """One ensemble step of driver increments.

    ``smooth`` has shape (m, n): drift + Gaussian + aggregate-stable +
    compensator contributions.  Individually simulated (finite-activity)
    jumps are stored flat: ``jump_counts`` (m,), ``jump_values``
    (total, n), ``jump_positions`` (total,) with positions in (0, dt],
    grouped by path in order.  A driver that simulates no jumps hands a
    read-only zero view as its counts (``no_jumps``).
    """

    smooth: np.ndarray
    jump_counts: np.ndarray
    jump_values: np.ndarray
    jump_positions: np.ndarray


_NO_POSITIONS = np.empty(0)
_NO_COUNT = bytes(8)                # one int64 zero, read-only


def no_jumps(m: int) -> np.ndarray:
    """The jump counts of m paths none of which jumps: a read-only (m,) view of one zero.

    The ndarray constructor builds it in 0.5 us at any m; ``np.broadcast_to``
    takes 3-5 us, as long as zero-filling 16384 counts.
    """
    return np.ndarray((m,), np.int64, _NO_COUNT, 0, (0,))


def sample_step_ensemble(triplet: LevyTriplet, dt: float, m: int,
                         rng: np.random.Generator, out: Optional[np.ndarray] = None) -> StepSample:
    """Draw m independent one-step increments, keeping discrete jumps separate.

    Draws, in this order: the Gaussian normals, then the jump part (stable
    variates, or Poisson counts followed by jump values and positions).
    ``smooth`` starts as drift * dt plus the Gaussian part; the measure's
    ``sample_step(smooth, dt, rng)`` adds the jump part to it in place (the
    stable part, or minus the compensator of the simulated jumps) and returns
    ``counts`` and ``(values, positions)``, each None when it simulates no
    jumps.  Given ``out``, a C-contiguous (m, n) float array, ``smooth`` is
    formed in it and is ``out``, the same values bit for bit as without it.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = triplet.dim
    if triplet.gaussian:
        smooth = rng.standard_normal(size=(m, n), out=out if n == 1 else None)
        smooth += 0.0               # rng.normal's 0 + 1 * z: -0.0 becomes +0.0
        smooth *= np.sqrt(dt)
        if n == 1:
            smooth *= triplet.sigma[0, 0]       # what z @ sigma.T rounds to when n = 1
        else:
            smooth = np.matmul(smooth, triplet.sigma.T, out=out)
        smooth += triplet.drift * dt
    else:
        smooth = np.empty((m, n)) if out is None else out
        smooth[...] = triplet.drift * dt

    counts, jumps = triplet.levy_measure.sample_step(smooth, dt, rng)
    if counts is None:
        counts = no_jumps(m)
    values, positions = jumps or (triplet._no_jump_values, _NO_POSITIONS)
    return StepSample(smooth=smooth, jump_counts=counts,
                      jump_values=values, jump_positions=positions)


# --------------------------------------------------------------------------
# sector condition

C0_FLOOR = 1e-6


def sector_constant(exponent, xi_grid) -> float:
    """Sector constant c0 = max |Im psi| / Re psi over the grid, floored at ``C0_FLOOR``.

    ``exponent`` is any callable xi -> complex (a LevyTriplet or a frozen
    symbol slice).  Raises SectorViolation where Re psi = 0 with
    Im psi != 0.
    """
    c0 = 0.0
    for xi in xi_grid:
        val = exponent(xi)
        re, im = val.real, abs(val.imag)
        scale = max(abs(val), 1.0)
        if re <= 1e-14 * scale:
            if im > 1e-14 * scale:
                raise SectorViolation(
                    f"Re psi = {re:.3e} with |Im psi| = {im:.3e} at xi = {xi}")
            continue
        c0 = max(c0, im / re)
    return max(c0, C0_FLOOR)


def kappa_from_c0(c0: float) -> float:
    """kappa = (4 arctan(1/(2 c0)))^{-1}, the radius factor of the lower functional."""
    return 1.0 / (4.0 * np.arctan(1.0 / (2.0 * c0)))


# --------------------------------------------------------------------------
# JSON construction


def _triplet(name, /, *, drift=(0.0,), covariance=None, levy_measure=None) -> LevyTriplet:
    drift = np.asarray(drift, dtype=float)
    n = np.atleast_1d(drift).shape[0]
    cov = np.zeros((n, n)) if covariance is None else np.asarray(covariance, dtype=float)
    measure = ZeroMeasure() if levy_measure is None else _measure_from_dict(levy_measure)
    return LevyTriplet(drift, cov, measure, name=name)


def named(table: dict, what: str, name, params: dict):
    """table[name](**params) with finite float params: the one lookup in a constructor table."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; catalog: {sorted(table)}")
    for key, value in params.items() if isinstance(params, dict) else ():
        if isinstance(value, float) and not isfinite(value):
            raise ValueError(f"{what} {name!r} parameter {key!r} must be finite, got {value!r}")
    return table[name](**params)


def catalog_entry(table: dict, what: str, spec: dict):
    """The catalog entry {"name": ..., "params": {...}}: "params" is optional, no other key."""
    if not isinstance(spec, dict):
        raise ValueError(f"a {what} entry must be a JSON object, got {spec!r}")
    extra = sorted(set(spec) - {"name", "params"})
    if extra:
        raise ValueError(f"a {what} entry takes only 'name' and 'params', got {extra}")
    return named(table, what, spec.get("name"), spec.get("params", {}))


_NAMED_LAWS = {"normal": normal_law, "uniform": uniform_law}
_NAMED_DENSITIES = {"tempered_power": tempered_power, "exponential": exponential}


def _atoms_measure(*, rate, atoms=None, law=None) -> FiniteActivity:
    if (atoms is None) == (law is None):
        raise ValueError("an atoms measure takes exactly one of 'atoms' and 'law'")
    if atoms is not None:
        if any(len(entry) != 2 for entry in atoms):
            raise ValueError("each atom must be [position, probability]")
        law = AtomLaw.of(atoms)
    else:
        params = dict(law)
        law = named(_NAMED_LAWS, "continuous jump law", params.pop("name", None), params)
    return FiniteActivity(rate=float(rate), law=law)


def _stable_measure(*, alpha, scale=1.0) -> StableSymmetric:
    return StableSymmetric(alpha=float(alpha), scale=float(scale))


def _density_measure(*, name, params={}, window=None, cutoff=1e-3) -> DensityForm:
    return DensityForm(named(_NAMED_DENSITIES, "named density", name, params),
                       window=window, cutoff=float(cutoff), name=name)


# one constructor per levy_measure kind; its keyword-only parameters are the kind's keys
_MEASURES = {"zero": ZeroMeasure, "atoms": _atoms_measure, "stable": _stable_measure,
             "density": _density_measure}


def _measure_from_dict(spec: dict) -> LevyMeasureSpec:
    params = dict(spec)
    return named(_MEASURES, "levy_measure kind", params.pop("kind", None), params)
