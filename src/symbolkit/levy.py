"""Levy processes as triplets: exponent evaluation and increment sampling.

A driving process is described by a triplet (drift l, covariance Q, jump
measure N).  The characteristic exponent

    psi(xi) = -i l.xi + (1/2) xi.Q.xi
              - integral( e^{i xi.y} - 1 - i xi.y 1_{|y|<1}(y) ) N(dy)

is evaluated in closed form for atomic and symmetric-stable jump measures.
For a density on the line (DensityForm, or a continuous jump law) it is a
batched sum over fixed Gauss-Kronrod nodes, built once per measure on first
use: the density is evaluated once per node, and each frequency then costs
one pass over the panels (Taylor moments where |xi y| is small, angle
addition elsewhere).  The embedded Gauss-vs-Kronrod error estimate is
checked per frequency against the adaptive tolerance; a frequency that fails
it is recomputed by compensated adaptive quadrature, which stays in the tree
as the oracle.  Increments are
sampled from the pathwise decomposition: drift + Gaussian + jumps, with the
small-jump compensator removed as a deterministic drift for every jump that
is actually simulated.

Every e^{i phase} of real phase, here and in the Monte Carlo estimator, comes
from :func:`expi`: cos into the real part, sin(phase + 0.0) into the
imaginary part, bit for bit what ``np.exp(1j * phase)`` returns, without the
cost of the complex exp.  An atom at the exact negation of an earlier atom's
position reuses that atom's cos/sin, which halves the trigonometry of a
symmetric atom law; the atom terms are formed ``CHUNK_ROWS`` frequencies at a
time, each row's arithmetic unchanged.  A triplet without drift and Gaussian
part returns its jump part plus 0.0, which rounds as adding the two zero
parts did.

Jump measures are a closed set of variants: ZeroMeasure, FiniteActivity (a
rate times an AtomLaw or a ContinuousLaw, whose formulas it scales),
StableSymmetric and DensityForm.  Each holds its own formulas, and the
exponent, the sampler, the frozen triplet, the generator and the index bounds
reach a measure only through ``dim`` (None for the zero measure),
``exponent_many(xi)``, ``sample_step`` (see :func:`sample_step_ensemble`;
FiniteActivity and DensityForm share one compound-Poisson step),
``image(phi)`` (the measure under y -> phi y), ``truncation_shift(phi)``,
``generator_term(u, x)`` and ``mass_ratio()`` (int y^2/(1+y^2) N(dy)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .errors import DimensionMismatch, SectorViolation
from .quadrature import check_error, gk21_rule, integrate_checked

_ATOL = 1e-12

# --------------------------------------------------------------------------
# jump laws for finite-activity measures


@dataclass(frozen=True)
class AtomLaw:
    """Discrete jump distribution: positions (each shape (n,)) and probabilities."""

    positions: tuple
    probabilities: tuple

    def __post_init__(self):
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

    def mean_small(self) -> np.ndarray:
        """E[Y 1_{|Y|<1}], the compensated part of the jump mean."""
        out = np.zeros(self.dim)
        for y, p in zip(self.positions, self.probabilities):
            if np.linalg.norm(y) < 1.0:
                out += p * y
        return out

    def exponent_many(self, rate: float, xi: np.ndarray) -> np.ndarray:
        """-rate * sum_k p_k (e^{i xi.y_k} - 1 - i xi.y_k 1_{|y_k|<1}), atom by atom.

        An atom at the exact negation of an earlier atom's position takes that
        atom's e^{i phase} conjugated (cos is even, sin is odd); each atom lends
        its e^{i phase} at most once.  At a zero phase the conjugate's imaginary
        part is -0 where sin(+-0 + 0.0) is +0; the product with rate * p rounds
        both to +0.
        """
        pos = self.positions
        partner = {}                # atom k -> the earlier atom at -y_k whose e^{i phase} it takes
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

    def image(self, phi: float) -> "AtomLaw":
        return AtomLaw.of([(phi * y[0], p) for y, p in zip(self.positions, self.probabilities)])

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
        return sum(p * float(y[0]) ** 2 / (1.0 + float(y[0]) ** 2)
                   for y, p in zip(self.positions, self.probabilities))


@dataclass(frozen=True)
class ContinuousLaw:
    """One-dimensional continuous jump distribution with sampler and density."""

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    density: Callable[[float], float]
    support: tuple = (-np.inf, np.inf)

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
        """-1, 0 and 1 where they lie inside the clipped support."""
        lo, hi = self.clipped_support
        return [p for p in (-1.0, 0.0, 1.0) if lo < p < hi]

    @cached_property
    def jump_nodes(self) -> Optional["JumpNodes"]:
        """Fixed-node table of the jump integral, built on the first exponent call."""
        return JumpNodes.build(self.density, *self.clipped_support)

    def mean_small(self) -> np.ndarray:
        lo = max(self.support[0], -1.0)
        hi = min(self.support[1], 1.0)
        if hi <= lo:
            return np.zeros(1)
        val = integrate_checked(lambda y: y * self.density(y), lo, hi,
                                tol=1e-9, label=f"{self.name} small-jump mean")
        return np.array([val])

    def exponent_many(self, rate: float, xi: np.ndarray) -> np.ndarray:
        return _fixed_node_exponent(self.jump_nodes, rate, xi[:, 0], _LAW_TOL,
                                    lambda x1: _law_exponent_adaptive(self, rate, x1))

    def image(self, phi: float) -> "ContinuousLaw":
        a = abs(phi)
        lo, hi = self.support
        return ContinuousLaw(
            name=f"{self.name}*{phi}",
            sampler=lambda rng, size: phi * np.asarray(self.sampler(rng, size)),
            density=lambda z: self.density(z / phi) / a,
            support=tuple(sorted((phi * lo, phi * hi))))

    def truncation_integral(self, a: float) -> float:
        """int y (1_{|y| < 1/a} - 1_{|y| < 1}) against the law."""
        return _truncation_integral(self.density, a)

    def generator_integral(self, g: Callable[[float], float]) -> float:
        lo, hi = self.clipped_support
        return integrate_checked(
            lambda y: g(y) * self.density(y), lo, hi, tol=1e-9,
            points=[p for p in (-1.0, 1.0) if lo < p < hi], label="jump generator")

    def mass_ratio(self) -> float:
        # without breakpoints quad never sees the peak of a normal law and returns 0
        lo, hi = self.clipped_support
        return integrate_checked(lambda y: y * y / (1 + y * y) * self.density(y), lo, hi,
                                 tol=1e-9, points=self.breakpoints, label="jump mass")


def normal_law(mean: float = 0.0, std: float = 1.0) -> ContinuousLaw:
    m, s = float(mean), float(std)
    return ContinuousLaw(
        name="normal",
        sampler=lambda rng, size: rng.normal(m, s, size=size),
        density=lambda y: np.exp(-0.5 * ((y - m) / s) ** 2) / (s * np.sqrt(2 * np.pi)),
    )


def uniform_law(low: float = -1.0, high: float = 1.0) -> ContinuousLaw:
    a, b = float(low), float(high)
    return ContinuousLaw(
        name="uniform",
        sampler=lambda rng, size: rng.uniform(a, b, size=size),
        density=lambda y: (1.0 / (b - a)) if a <= y <= b else 0.0,
        support=(a, b),
    )


def _truncation_integral(density: Callable[[float], float], a: float,
                         window: float = np.inf) -> float:
    """int y (1_{|y| < 1/a} - 1_{|y| < 1}) nu(y) dy over |y| <= window, a not 0 or 1."""
    lo, hi = sorted((1.0, 1.0 / a))
    sign = 1.0 if 1.0 / a > 1.0 else -1.0
    top = min(hi, window)
    val = 0.0
    if top > lo:
        for sgn in (1.0, -1.0):
            val += sgn * integrate_checked(lambda y: y * density(sgn * y), lo, top,
                                           tol=1e-10, label="indicator correction")
    return sign * val


def _compensated(u, x: float) -> Callable[[float], float]:
    """y -> u(x + y) - u(x) - y u'(x) 1_{|y|<1}, the generator's jump integrand."""
    gx = u.u(x)
    gpx = float(u.grad(x)[0])
    return lambda y: u.u(x + y) - gx - y * gpx * (abs(y) < 1.0)


# --------------------------------------------------------------------------
# measure variants


@dataclass(frozen=True)
class ZeroMeasure:
    """No jumps."""

    dim = None

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros(xi.shape[0], dtype=complex)

    def sample_step(self, smooth, shift, dt, m, rng):
        return smooth, shift, None, None

    def image(self, phi: float) -> "ZeroMeasure":
        return self

    def truncation_shift(self, phi: float) -> float:
        return 0.0

    def generator_term(self, u, x: float) -> float:
        return 0.0

    def mass_ratio(self) -> float:
        return 0.0


def _compound_poisson_step(smooth, shift, dt, m, rng, activity, draw, comp):
    """``sample_step`` of a measure whose jumps are simulated one by one.

    Poisson counts at ``activity`` jumps per unit time, values from
    ``draw(rng, k)``, positions uniform on (0, dt); ``comp`` is the
    compensator of the simulated jumps over dt.
    """
    counts = rng.poisson(activity * dt, size=m)
    total = int(counts.sum())
    jumps = None
    if total:
        jumps = (draw(rng, total), rng.uniform(0.0, dt, size=total))
    if smooth is None:
        return None, shift - comp, counts, jumps
    smooth -= comp
    return smooth, shift, counts, jumps


@dataclass(frozen=True)
class FiniteActivity:
    """Compound-Poisson jump measure N = rate * law."""

    rate: float
    law: AtomLaw | ContinuousLaw

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

    def sample_step(self, smooth, shift, dt, m, rng):
        return _compound_poisson_step(smooth, shift, dt, m, rng, self.rate, self.law.sample,
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

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return self.scale * np.linalg.norm(xi, axis=-1) ** self.alpha + 0j

    def sample_step(self, smooth, shift, dt, m, rng):
        draw = sample_standard_stable(self.alpha, rng, m).reshape(m, 1)
        draw *= (self.scale * dt) ** (1.0 / self.alpha)
        if smooth is None:
            draw += shift
            return draw, shift, None, None
        smooth += draw
        return smooth, shift, None, None

    def image(self, phi: float) -> LevyMeasureSpec:
        if phi == 0.0:
            return ZeroMeasure()
        return StableSymmetric(alpha=self.alpha, scale=self.scale * abs(phi) ** self.alpha)

    def truncation_shift(self, phi: float) -> float:
        return 0.0                  # the measure is symmetric

    def generator_term(self, u, x: float) -> float:
        k = stable_density_coefficient(self.alpha, self.scale)
        gx = u.u(x)
        w = max(50.0, abs(x) + u.spatial_scale)

        def sym(y):
            return (u.u(x + y) + u.u(x - y) - 2.0 * gx) * y ** (-1.0 - self.alpha)

        body = integrate_checked(sym, 0.0, w, tol=1e-9, points=[1e-8, 1.0],
                                 label="stable generator")
        # beyond w the test function is numerically zero; -2 u(x) tail remains
        tail = -2.0 * gx * w ** (-self.alpha) / self.alpha
        return k * (body + tail)

    def mass_ratio(self) -> float:
        """k pi / sin(pi alpha/2): int_0^inf y^{1-alpha}/(1+y^2) dy = (pi/2) / sin(pi alpha/2)."""
        k = stable_density_coefficient(self.alpha, self.scale)
        return k * np.pi / np.sin(np.pi * self.alpha / 2.0)


class DensityForm:
    """Jump measure given by a density nu(y) on the line, truncated to |y| <= window.

    Jumps with |y| >= cutoff are simulated as compound Poisson (tabulated
    inverse CDF); smaller jumps are dropped together with their compensator.
    The exponent integrates the full compensated integrand down to 0.
    """

    dim = 1

    def __init__(self, density: Callable[[float], float], window: Optional[float] = None,
                 cutoff: float = 1e-3, name: str = "density"):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.density = density
        self.cutoff = float(cutoff)
        self.name = name
        self.window = float(window) if window is not None else self._auto_window()
        if self.window <= self.cutoff:
            raise ValueError("window must exceed cutoff")
        self._validate()
        self._build_tables()

    def _auto_window(self) -> float:
        # grow W until the [W, 4W] mass (a proxy for the tail) is negligible
        w = 1.0
        for _ in range(60):
            tail = 0.0
            for sgn in (1.0, -1.0):
                tail += abs(integrate_checked(
                    lambda y: self.density(sgn * y), w, 4 * w,
                    tol=np.inf, label="tail probe"))
            if tail < 1e-10:
                return w
            w *= 2.0
        raise ValueError("could not find truncation window with tail mass < 1e-10")

    def _validate(self):
        # integral (1 ^ y^2) nu(dy) must be finite; the y^2 part absorbs any
        # singularity at 0 for an admissible measure
        val = 0.0
        for sgn in (1.0, -1.0):
            val += integrate_checked(lambda y: y * y * self.density(sgn * y),
                                     0.0, 1.0, tol=1e-6, points=[1e-8],
                                     label=f"{self.name} small-jump mass")
            val += integrate_checked(lambda y: self.density(sgn * y),
                                     1.0, self.window, tol=1e-6,
                                     label=f"{self.name} large-jump mass")
        if not np.isfinite(val):
            raise ValueError("density does not integrate (1 ^ y^2) finitely")

    def _build_tables(self, knots_per_side: int = 4096):
        grids, cdfs, masses = [], [], []
        for sgn in (1.0, -1.0):
            y = np.geomspace(self.cutoff, self.window, knots_per_side)
            dens = np.array([max(self.density(sgn * t), 0.0) for t in y])
            seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(y)
            cdf = np.concatenate([[0.0], np.cumsum(seg)])
            grids.append(y)
            cdfs.append(cdf)
            masses.append(cdf[-1])
        self._grids = grids
        self._cdfs = cdfs
        self._side_mass = np.array(masses)
        self.activity = float(self._side_mass.sum())
        # compensator for simulated jumps in [cutoff, 1)
        comp = 0.0
        if self.cutoff < 1.0:
            for sgn in (1.0, -1.0):
                comp += sgn * integrate_checked(
                    lambda y: y * self.density(sgn * y), self.cutoff, 1.0,
                    tol=1e-9, label=f"{self.name} compensator")
        self.small_jump_drift = comp

    @cached_property
    def jump_nodes(self) -> Optional["JumpNodes"]:
        """Fixed-node table of the jump integral, built on the first exponent call."""
        return JumpNodes.build(self.density, -self.window, self.window)

    def sample_jumps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` jump magnitudes-with-sign from the truncated density, shape (size, 1)."""
        u = rng.uniform(size=size)
        side = rng.uniform(size=size) * self.activity >= self._side_mass[0]
        out = np.empty(size)
        for s, idx in ((0, ~side), (1, side)):
            k = int(np.count_nonzero(idx))
            if k == 0:
                continue
            target = u[idx] * self._side_mass[s]
            y = np.interp(target, self._cdfs[s], self._grids[s])
            out[idx] = y if s == 0 else -y
        return out.reshape(size, 1)

    def sample_step(self, smooth, shift, dt, m, rng):
        return _compound_poisson_step(smooth, shift, dt, m, rng, self.activity,
                                      self.sample_jumps, dt * self.small_jump_drift)

    def exponent_many(self, xi: np.ndarray) -> np.ndarray:
        return _fixed_node_exponent(self.jump_nodes, 1.0, xi[:, 0], _DENSITY_TOL,
                                    lambda x1: -_density_exponent_adaptive(self, x1))

    def image(self, phi: float) -> LevyMeasureSpec:
        if phi == 0.0:
            return ZeroMeasure()
        a = abs(phi)
        return DensityForm(lambda z: self.density(z / phi) / a, window=self.window * a,
                           cutoff=self.cutoff * a, name=f"{self.name}*{phi}")

    def truncation_shift(self, phi: float) -> float:
        a = abs(phi)
        if a == 0.0 or a == 1.0:
            return 0.0
        return phi * _truncation_integral(self.density, a, self.window)

    def generator_term(self, u, x: float) -> float:
        g = _compensated(u, x)
        total = 0.0
        for sgn in (1.0, -1.0):
            total += integrate_checked(
                lambda y: g(sgn * y) * self.density(sgn * y),
                0.0, self.window, tol=1e-9, points=[1e-8, min(1.0, self.window)],
                label="density generator")
        return total

    def mass_ratio(self) -> float:
        total = 0.0
        for sgn in (1.0, -1.0):
            total += integrate_checked(
                lambda y: y * y / (1 + y * y) * self.density(sgn * y),
                0.0, self.window, tol=1e-9, points=[1e-8], label="density mass")
        return total


LevyMeasureSpec = ZeroMeasure | FiniteActivity | StableSymmetric | DensityForm


def stable_density_coefficient(alpha: float, scale: float = 1.0) -> float:
    """Coefficient k with nu(y) = k |y|^{-1-alpha} matching exponent scale*|xi|^alpha.

    Uses int_0^inf (1-cos u) u^{-1-alpha} du = Gamma(2-alpha) cos(pi alpha/2) / (alpha (1-alpha))
    with the value pi/2 at alpha = 1.
    """
    if abs(alpha - 1.0) < 1e-12:
        i_alpha = np.pi / 2.0
    else:
        i_alpha = gamma_fn(2.0 - alpha) * np.cos(np.pi * alpha / 2.0) / (alpha * (1.0 - alpha))
    return scale / (2.0 * i_alpha)


# --------------------------------------------------------------------------
# triplet


class LevyTriplet:
    """Levy triplet (drift, covariance, jump measure) in dimension n.

    Validates at construction: Q symmetric positive semidefinite with its
    stored square root reproducing Q to 1e-12 per entry, and the jump measure
    integrating (1 ^ |y|^2) finitely.
    """

    def __init__(self, drift, covariance, levy_measure: LevyMeasureSpec = ZeroMeasure()):
        self.drift = np.atleast_1d(np.asarray(drift, dtype=float))
        self.covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
        self.levy_measure = levy_measure
        n = self.drift.shape[0]
        if self.covariance.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {self.covariance.shape} does not match drift length {n}")
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

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def __repr__(self):
        return (f"LevyTriplet(drift={self.drift.tolist()}, "
                f"covariance={self.covariance.tolist()}, measure={type(self.levy_measure).__name__})")


# --------------------------------------------------------------------------
# exponent evaluation

_DENSITY_TOL = 1e-8       # per-frequency error tolerance, as in the adaptive oracle
_LAW_TOL = 1e-9           # ... and in the continuous-law oracle
_TAIL_MASS = 1e-14        # mass left beyond the effective support
_GEOM_RATIO = 0.5         # panels toward 0 shrink by this factor ...
_GEOM_LEVELS = 80         # ... this many times, down to ~1e-24
_PANEL_WIDTH = 0.5        # widest panel
_MAX_NODES = 1 << 15      # per side; wider supports stay on the adaptive path
_CHUNK_ELEMS = 1 << 16    # frequency x node elements per temporary array
_SERIES_CUT = 0.5         # |xi| * panel end below which a panel uses its moments
_GROUP_MIN = 8            # panels of one width that share cos/sin of their offsets
_NEAR_SPLIT = 1e-8        # the adaptive oracle integrates below this in y, above in log y

# Taylor coefficients of cos(u) - 1 and sin(u) - u in the powers u^1 .. u^16
_POWERS = np.arange(1, 17)
_FACT = np.cumprod(_POWERS.astype(float))
_COS_M1 = np.where(_POWERS % 2 == 0, (-1.0) ** (_POWERS // 2), 0.0) / _FACT
_SIN_MU = np.where((_POWERS % 2 == 1) & (_POWERS > 1), (-1.0) ** (_POWERS // 2), 0.0) / _FACT


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


def _fixed_node_exponent(nodes: Optional["JumpNodes"], rate: float, x1: np.ndarray,
                         tol: float, oracle: Callable[[float], complex]) -> np.ndarray:
    """-rate * J(x1) on the fixed nodes; frequencies failing the error check go to ``oracle``."""
    out = np.empty(x1.shape[0], dtype=complex)
    ok = np.zeros(x1.shape[0], dtype=bool)
    if nodes is not None:
        vals, err = nodes.integrate(x1)
        ok = err <= tol                      # False on NaN
        out[ok] = -rate * vals[ok]
    for k in np.flatnonzero(~ok):
        out[k] = oracle(float(x1[k]))
    return out


def _law_exponent_adaptive(law: ContinuousLaw, rate: float, x1: float) -> complex:
    """Jump exponent of rate * law at one frequency by adaptive quadrature.

    The oracle for the fixed nodes and their fallback.
    """
    lo, hi = law.clipped_support
    points = law.breakpoints
    re = integrate_checked(
        lambda y: (np.cos(x1 * y) - 1.0) * law.density(y), lo, hi,
        tol=_LAW_TOL, points=points, label="jump integral (re)")
    im = integrate_checked(
        lambda y: (np.sin(x1 * y) - x1 * y * (abs(y) < 1.0)) * law.density(y), lo, hi,
        tol=_LAW_TOL, points=points, label="jump integral (im)")
    return -rate * complex(re, im)


def _density_exponent_adaptive(measure: DensityForm, x1: float) -> complex:
    """int (e^{i x1 y} - 1 - i x1 y 1_{|y|<1}) nu(y) dy by adaptive quadrature, split at |y| = 1.

    The oracle for the fixed nodes and their fallback.  The inner piece uses
    the compensated integrand (O(y^2) kills the density singularity) in two
    separate integrals: over [0, 1e-8], and above 1e-8 in u = log y, where a
    density singular like |y|^{-1-alpha} is smooth.  (One adaptive integral
    over [1e-8, 1] in y is off by 1.8e-5 for alpha = 1.5 at x1 = 0.3, with an
    error estimate of 6e-12.)  The tail uses cos/sin-weighted quadrature so
    wide windows with oscillatory integrands stay cheap and accurate.
    """
    if x1 == 0.0:
        return 0.0 + 0.0j

    w = measure.window
    near_top = min(1.0, w)

    def near(g, label):
        pieces = [(g, 0.0, min(_NEAR_SPLIT, near_top))]
        if near_top > _NEAR_SPLIT:
            pieces.append((lambda u: g(np.exp(u)) * np.exp(u),
                           np.log(_NEAR_SPLIT), np.log(near_top)))
        total = 0.0
        for h, lo, hi in pieces:
            val, err = quad(h, lo, hi, limit=400, epsabs=1e-11, epsrel=1e-11)
            check_error(err, label)
            total += val
        return total

    re = im = 0.0
    for sgn in (1.0, -1.0):
        f = (lambda y, s=sgn: measure.density(s * y))
        # cos(u) - 1 written cancellation-free as -2 sin^2(u/2)
        re += near(lambda y: -2.0 * np.sin(0.5 * x1 * y) ** 2 * f(y),
                   "density jump integral (near, re)")
        im += sgn * near(lambda y: (np.sin(x1 * y) - x1 * y) * f(y),
                         "density jump integral (near, im)")
        if w > 1.0:
            cos_part, err = quad(f, 1.0, w, weight="cos", wvar=x1,
                                 limit=400, epsabs=1e-11, epsrel=1e-11)
            check_error(err, "density jump integral (tail, cos)")
            mass, err = quad(f, 1.0, w, limit=400, epsabs=1e-11, epsrel=1e-11)
            check_error(err, "density jump integral (tail mass)")
            re += cos_part - mass
            sin_part, err = quad(f, 1.0, w, weight="sin", wvar=x1,
                                 limit=400, epsabs=1e-11, epsrel=1e-11)
            check_error(err, "density jump integral (tail, sin)")
            im += sgn * sin_part
    return complex(re, im)


# --------------------------------------------------------------------------
# fixed-node jump integral for a density on the line


def _powers(t: np.ndarray) -> np.ndarray:
    """t^1 .. t^16 along a new last axis."""
    return np.cumprod(np.repeat(t[..., None], _POWERS.size, axis=-1), axis=-1)


def _effective_extent(f: Callable[[float], float], a: float, b: float):
    """(E, mass beyond E): the first E = 2^k > a with int_E^b f <= _TAIL_MASS, else (b, 0)."""
    e = 1.0
    while e < b:
        if e > a:
            octaves = [e * 2.0 ** k for k in range(1, 64) if e * 2.0 ** k < b]
            mass = abs(integrate_checked(f, e, b, tol=np.inf, points=octaves,
                                         label="effective support probe"))
            if mass <= _TAIL_MASS:
                return e, mass
        e *= 2.0
    return b, 0.0


def _panel_segments(a: float, b: float) -> list:
    """(lo, hi, n) segments of n equal panels covering [a, b], 0 <= a < b.

    Breakpoints at 0 and 1, geometric toward 0 when a = 0; no panel is wider
    than ``_PANEL_WIDTH``.
    """
    cuts = {a, b}
    if a < 1.0 < b:
        cuts.add(1.0)
    if a == 0.0:
        cuts.update(min(1.0, b) * _GEOM_RATIO ** np.arange(_GEOM_LEVELS + 1))
    ends = sorted(cuts)
    return [(lo, hi, int(np.ceil((hi - lo) / _PANEL_WIDTH)))
            for lo, hi in zip(ends[:-1], ends[1:])]


class _HalfLine:
    """GK21 panels on one half-line of the support, in |y|, ascending.

    ``weights`` (2, P, 21) holds the Kronrod and the Kronrod-minus-Gauss
    weights times nu.  With u = xi |y|, each frequency needs per panel the
    sums of weight * (cos(u) - 1) and weight * (sin(u) - u 1_{|y|<1}).  The
    panels with |xi| * end < ``_SERIES_CUT`` form a prefix; their sums come
    from prefix tables of Taylor moments, in powers of y / (the prefix's last
    end) so no power overflows, and stay free of cancellation.  The other
    panels are summed over their nodes by angle addition,
    e^{i xi (centre + offset)}: a block of panels of one width shares the
    exponentials of its 21 offsets.
    """

    def __init__(self, sign: float, segments: list, density: Callable[[float], float]):
        x, wk, wg = gk21_rule()
        center, half, self.blocks = [], [], []
        start = 0
        for lo, hi, n in segments:
            h = 0.5 * (hi - lo) / n
            center.append(lo + h * (2 * np.arange(n) + 1))
            half.append(np.full(n, h))
            if n >= _GROUP_MIN:
                self.blocks.append((slice(start, start + n), h))
            elif self.blocks and self.blocks[-1][1] is None:
                self.blocks[-1] = (slice(self.blocks[-1][0].start, start + n), None)
            else:
                self.blocks.append((slice(start, start + n), None))
            start += n
        self.sign = sign
        self.center, self.half = np.concatenate(center), np.concatenate(half)
        self.top = self.center + self.half
        self.offsets = x
        y = self.center[:, None] + self.half[:, None] * x
        self.nu = np.array([density(sign * t) for t in y.ravel()], dtype=float).reshape(y.shape)
        w = np.stack([wk * self.nu, (wk - wg) * self.nu]) * self.half[:, None]
        self.weights = w
        self.mass = w.sum(axis=2)
        inner = self.top <= 1.0
        self.compensator = np.einsum("wpk,pk->wp", w, y) * inner

        # prefix tables (cos, sin) x (Kronrod sum, bound on the |Kronrod - Gauss|
        # sum) x L x power: row L covers panels p < L, in powers of y / top[L-1]
        own = np.einsum("wpk,pkq->wpq", w, _powers(y / self.top[:, None]))
        sin_coef = np.where(_POWERS == 1, ~inner[:, None], _SIN_MU)
        terms = np.stack([own[0] * _COS_M1, np.abs(own[1] * _COS_M1),
                          own[0] * sin_coef, np.abs(own[1] * sin_coef)])
        rescale = _powers(self.top[:-1] / self.top[1:])
        tables = np.zeros((4, self.top.size + 1, _POWERS.size))
        for p in range(self.top.size):
            tables[:, p + 1] = terms[:, p] + (tables[:, p] * rescale[p - 1] if p else 0.0)
        self.tables = tables.reshape(2, 2, *tables.shape[1:])
        self.scale = np.concatenate([[1.0], self.top])

    def sums(self, xc: np.ndarray):
        """Values and error estimates of this half-line's part of J, each (2, c).

        Row 0 is the real part, row 1 the imaginary part without the sign.
        """
        c, p = xc.shape[0], self.top.size
        prefix = (np.abs(xc)[:, None] * self.top < _SERIES_CUT).sum(axis=1)
        pw = _powers(xc * self.scale[prefix])
        rows = self.tables[:, :, prefix]                             # (2, 2, c, Q)
        vals = np.einsum("cq,fcq->fc", pw, rows[:, 0])
        errs = np.einsum("cq,fcq->fc", np.abs(pw), rows[:, 1])
        direct = np.zeros((2, 2, c, p))               # (cos, sin) x (Kronrod, diff)
        p0 = int(prefix.min())
        for block, h in self.blocks:
            part = slice(max(block.start, p0), block.stop)
            if part.start >= part.stop:
                continue
            if h is None:
                ang = xc[:, None, None] * (self.half[part, None] * self.offsets)
                spec = "cpk,wpk->wcp"
            else:
                ang = np.multiply.outer(xc, h * self.offsets)
                spec = "ck,wpk->wcp"
            z = (expi(np.multiply.outer(xc, self.center[part]))
                 * np.einsum(spec, expi(ang), self.weights[:, part]))
            direct[0, :, :, part] = z.real - self.mass[:, None, part]
            direct[1, :, :, part] = z.imag - xc[:, None] * self.compensator[:, None, part]
        direct = np.where(np.arange(p) >= prefix[:, None], direct, 0.0)
        return vals + direct[:, 0].sum(axis=-1), errs + np.abs(direct[:, 1]).sum(axis=-1)


class JumpNodes:
    """Fixed nodes for J(xi) = int (e^{i xi y} - 1 - i xi y 1_{|y|<1}) nu(y) dy.

    Each half-line of the support is cut into GK21 panels with breakpoints at
    0 and 1: geometric toward 0, where nu may be singular like
    |y|^{-1-alpha}, and at most ``_PANEL_WIDTH`` wide, out to the support or
    to where the remaining mass drops below ``_TAIL_MASS``.  nu is evaluated
    once per node, at build; a frequency then costs one pass over the panels
    (see :class:`_HalfLine`).  The error estimate of a frequency is the sum
    over panels of |Kronrod - Gauss| plus the bound from the mass beyond the
    effective support, taken separately for the real and imaginary parts.
    When the negative half-line mirrors the positive one node for node, only
    the positive one is summed: the real part doubles and the imaginary part
    is exactly 0.
    """

    def __init__(self, sides: list, tail_mass: float):
        self.mirrored = (len(sides) == 2 and np.array_equal(sides[0].top, sides[1].top)
                         and np.array_equal(sides[0].nu, sides[1].nu))
        self.sides = sides[:1] if self.mirrored else sides
        self.tail_mass = tail_mass

    @staticmethod
    def build(density: Callable[[float], float], lo: float, hi: float) -> Optional["JumpNodes"]:
        """Node table for nu on [lo, hi]; None when a half-line would exceed ``_MAX_NODES``."""
        plans, tail_mass = [], 0.0
        for sgn, a, b in ((1.0, max(lo, 0.0), hi), (-1.0, max(-hi, 0.0), -lo)):
            if b <= a:
                continue
            top, mass = _effective_extent(lambda y, s=sgn: density(s * y), a, b)
            segments = _panel_segments(a, top)
            if 21 * sum(n for _, _, n in segments) > _MAX_NODES:
                return None
            plans.append((sgn, segments))
            tail_mass += mass
        return JumpNodes([_HalfLine(sgn, segs, density) for sgn, segs in plans], tail_mass)

    def integrate(self, x1: np.ndarray):
        """J at each frequency of x1 (m,) and its error estimate, the larger of re and im."""
        m = x1.shape[0]
        vals, errs = np.zeros((2, m)), np.zeros((2, m))
        step = max(1, _CHUNK_ELEMS // (21 * max(side.top.size for side in self.sides)))
        for c0 in range(0, m, step):
            c = slice(c0, min(m, c0 + step))
            for side in self.sides:
                v, e = side.sums(x1[c])
                vals[0, c] += v[0]
                vals[1, c] += side.sign * v[1]
                errs[:, c] += e
        if self.mirrored:
            return 2.0 * vals[0] + 0j, 2.0 * (errs[0] + self.tail_mass)
        return (vals[0] + 1j * vals[1],
                np.maximum(errs[0] + 2.0 * self.tail_mass, errs[1] + self.tail_mass))


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


def eval_exponent(triplet: LevyTriplet, xi) -> complex:
    """Levy-Khintchine exponent psi(xi) for a single frequency."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (triplet.dim,):
        raise DimensionMismatch(f"xi shape {xi.shape} does not match dimension {triplet.dim}")
    return complex(eval_exponent_many(triplet, xi[None, :])[0])


class CharacteristicExponent:
    """Evaluable psi of a triplet, pointwise and on batches."""

    def __init__(self, triplet: LevyTriplet):
        self.triplet = triplet

    @property
    def dim(self) -> int:
        return self.triplet.dim

    def __call__(self, xi) -> complex:
        return eval_exponent(self.triplet, xi)

    def many(self, xi: np.ndarray) -> np.ndarray:
        return eval_exponent_many(self.triplet, xi)


# --------------------------------------------------------------------------
# sampling


def sample_standard_stable(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard symmetric alpha-stable variates, cf E e^{i xi X} = e^{-|xi|^alpha}.

    Polar (Chambers-Mallows-Stuck) construction, symmetric case.
    """
    v = rng.uniform(size=size)
    v -= 0.5
    v *= np.pi
    if abs(alpha - 1.0) < 1e-12:
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
    grouped by path in order.
    """

    smooth: np.ndarray
    jump_counts: np.ndarray
    jump_values: np.ndarray
    jump_positions: np.ndarray


_NO_POSITIONS = np.empty(0)


def sample_step_ensemble(triplet: LevyTriplet, dt: float, m: int,
                         rng: np.random.Generator) -> StepSample:
    """Draw m independent one-step increments, keeping discrete jumps separate.

    Draws, in this order: the Gaussian normals, then the jump part (stable
    variates, or Poisson counts followed by jump values and positions).
    ``smooth`` sums, in this order, drift * dt, the Gaussian part, the stable
    part, and minus the compensator of the simulated jumps.

    The jump part is the measure's ``sample_step(smooth, shift, dt, m, rng)``:
    it adds its part to ``smooth`` (None without a Gaussian part) or to
    ``shift``, and returns both with ``counts`` and ``(values, positions)``,
    each None when it simulates no jumps.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = triplet.dim
    shift = triplet.drift * dt
    smooth = None
    if triplet.gaussian:
        smooth = rng.normal(size=(m, n))
        smooth *= np.sqrt(dt)
        if n == 1:
            smooth *= triplet.sigma[0, 0]       # what z @ sigma.T rounds to when n = 1
        else:
            smooth = smooth @ triplet.sigma.T
        smooth += shift

    smooth, shift, counts, jumps = triplet.levy_measure.sample_step(smooth, shift, dt, m, rng)
    if smooth is None:
        smooth = np.full((m, n), shift)
    if counts is None:
        counts = np.zeros(m, dtype=np.int64)
    values, positions = jumps or (triplet._no_jump_values, _NO_POSITIONS)
    return StepSample(smooth=smooth, jump_counts=counts,
                      jump_values=values, jump_positions=positions)


def sample_increment(triplet: LevyTriplet, dt: float, rng: np.random.Generator) -> np.ndarray:
    """One increment of the driver over a window of length dt.

    The smooth part of a one-path ``sample_step_ensemble`` draw, plus its
    jumps added in position order.
    """
    step = sample_step_ensemble(triplet, dt, 1, rng)
    out = step.smooth[0].copy()
    for k in np.argsort(step.jump_positions, kind="stable"):
        out += step.jump_values[k]
    return out


# --------------------------------------------------------------------------
# sector condition

C0_FLOOR = 1e-6


def sector_constant(exponent, xi_grid, *, floor: float = C0_FLOOR) -> float:
    """Sector constant c0 = max |Im psi| / Re psi over the grid, floored.

    ``exponent`` is any callable xi -> complex (a CharacteristicExponent or a
    frozen symbol slice).  Raises SectorViolation where Re psi = 0 with
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
    return max(c0, floor)


def kappa_from_c0(c0: float) -> float:
    """kappa = (4 arctan(1/(2 c0)))^{-1}, the radius factor of the lower functional."""
    return 1.0 / (4.0 * np.arctan(1.0 / (2.0 * c0)))


# --------------------------------------------------------------------------
# model wrapper and JSON construction


class LevyModel:
    """A driving Levy process: triplet + exponent + samplers."""

    def __init__(self, triplet: LevyTriplet, name: str = "levy"):
        self.triplet = triplet
        self.exponent = CharacteristicExponent(triplet)
        self.name = name

    @property
    def dim(self) -> int:
        return self.triplet.dim

    def psi(self, xi) -> complex:
        return self.exponent(xi)

    def sample_step_ensemble(self, dt: float, m: int, rng: np.random.Generator) -> StepSample:
        return sample_step_ensemble(self.triplet, dt, m, rng)

    @staticmethod
    def from_dict(spec: dict, name: str = "levy") -> "LevyModel":
        """Build from the JSON object layout documented in the README.

        {"drift": [...], "covariance": [[...]],
         "levy_measure": {"kind": "zero"|"atoms"|"stable"|"density", ...}}
        """
        drift = np.asarray(spec.get("drift", [0.0]), dtype=float)
        n = np.atleast_1d(drift).shape[0]
        cov = np.asarray(spec.get("covariance", np.zeros((n, n))), dtype=float)
        measure = _measure_from_dict(spec.get("levy_measure", {"kind": "zero"}))
        return LevyModel(LevyTriplet(drift, cov, measure), name=name)


_NAMED_DENSITIES = {
    # tempered power tail: a * |y|^{-1-alpha} * exp(-b |y|)
    "tempered_power": lambda params: (
        lambda y, a=float(params.get("a", 1.0)), alpha=float(params.get("alpha", 0.5)),
               b=float(params.get("b", 1.0)): a * abs(y) ** (-1.0 - alpha) * np.exp(-b * abs(y))
        if y != 0 else 0.0),
    # two-sided exponential: a * exp(-b |y|)
    "exponential": lambda params: (
        lambda y, a=float(params.get("a", 1.0)), b=float(params.get("b", 1.0)):
        a * np.exp(-b * abs(y))),
}


def _measure_from_dict(spec: dict) -> LevyMeasureSpec:
    kind = spec.get("kind")
    if kind == "zero":
        return ZeroMeasure()
    if kind == "atoms":
        rate = float(spec["rate"])
        if "atoms" in spec:
            law = AtomLaw.of([(entry[0], entry[1]) for entry in spec["atoms"]])
        else:
            law_spec = spec["law"]
            lname = law_spec["name"]
            if lname == "normal":
                law = normal_law(law_spec.get("mean", 0.0), law_spec.get("std", 1.0))
            elif lname == "uniform":
                law = uniform_law(law_spec.get("low", -1.0), law_spec.get("high", 1.0))
            else:
                raise ValueError(f"unknown continuous jump law {lname!r}")
        return FiniteActivity(rate=rate, law=law)
    if kind == "stable":
        return StableSymmetric(alpha=float(spec["alpha"]), scale=float(spec.get("scale", 1.0)))
    if kind == "density":
        dname = spec["name"]
        if dname not in _NAMED_DENSITIES:
            raise ValueError(f"unknown named density {dname!r}")
        density = _NAMED_DENSITIES[dname](spec.get("params", {}))
        return DensityForm(density, window=spec.get("window"),
                           cutoff=float(spec.get("cutoff", 1e-3)), name=dname)
    raise ValueError(f"unknown levy_measure kind {kind!r}")
