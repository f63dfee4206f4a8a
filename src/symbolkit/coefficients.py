"""Coefficient fields for the SDE layer.

A field wraps Phi: R^d -> R^{d x n} together with declared bound and
Lipschitz constants.  The declared constants are analytic, not derived at run
time; the test suite spot-checks each catalog field's on random pairs in a box.
Each field has one evaluation function, on batches of states; a point call
is the one-row batch.  The shipped catalog covers the bounded Lipschitz
coefficients used by the experiments; all catalog entries are
one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch
from .levy import catalog_entry

_FLOAT = np.dtype(float)


@dataclass
class CoefficientField:
    """Evaluable coefficient Phi: R^d -> R^{d x n} with declared constants.

    ``batch_fn`` maps states (m, d) to matrices (m, d, n).  A point call
    ``fld(x)`` on a state (d,) is row 0 of the one-row batch.
    """

    batch_fn: Callable[[np.ndarray], np.ndarray]
    d: int
    n: int
    bound: float
    lipschitz: float
    growth_constant: Optional[float] = None
    name: str = "coefficient"

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise DimensionMismatch(f"{self.name}: state shape {x.shape}, expected ({self.d},)")
        return np.asarray(self.batch_fn(x[None, :]), dtype=float).reshape(1, self.d, self.n)[0]

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Phi at the states xs (m, d), or m states of a 1-d xs, as an (m, d, n) float64
        array; float64 arrays of these shapes pass to and from ``batch_fn`` unconverted."""
        if type(xs) is not np.ndarray or xs.dtype is not _FLOAT or xs.ndim != 2:
            xs = np.asarray(xs, dtype=float)
            if xs.ndim == 1:
                xs = xs[:, None]
        out = self.batch_fn(xs)
        shape = (len(xs), self.d, self.n)
        if type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape:
            return out
        return np.asarray(out, dtype=float).reshape(shape)


def scalar_field(f: Callable[[np.ndarray], np.ndarray], *, bound: float, lipschitz: float,
                 growth_constant: Optional[float] = None,
                 name: str = "coefficient") -> CoefficientField:
    """One-dimensional field from a numpy-vectorized scalar function."""
    return CoefficientField(
        batch_fn=lambda xs: np.asarray(f(xs[:, 0]), dtype=float).reshape(-1, 1, 1),
        d=1, n=1, bound=bound, lipschitz=lipschitz, growth_constant=growth_constant,
        name=name)


# --------------------------------------------------------------------------
# catalog; sup / Lipschitz constants are analytic for each family

def constant(value: float = 1.0) -> CoefficientField:
    def batch_fn(xs):
        out = np.empty((xs.shape[0], 1, 1))
        out.fill(value)
        return out

    return CoefficientField(batch_fn=batch_fn, d=1, n=1, bound=abs(value), lipschitz=0.0,
                            name=f"constant({value})")


def zero() -> CoefficientField:
    return constant(0.0)


def bump(a: float = 0.5, b: float = 1.0) -> CoefficientField:
    """x -> a + b / (1 + x^2); sup-slope of b/(1+x^2) is 3*sqrt(3)/8 * b."""
    return scalar_field(lambda x: a + b / (1.0 + x ** 2),
                        bound=abs(a) + abs(b), lipschitz=abs(b) * 3.0 * np.sqrt(3.0) / 8.0,
                        name=f"bump({a},{b})")


def sine(offset: float = 0.0, amplitude: float = 1.0) -> CoefficientField:
    return scalar_field(lambda x: offset + amplitude * np.sin(x),
                        bound=abs(offset) + abs(amplitude), lipschitz=abs(amplitude),
                        name=f"sine({offset},{amplitude})")


def cosine(offset: float = 0.0, amplitude: float = 1.0) -> CoefficientField:
    return scalar_field(lambda x: offset + amplitude * np.cos(x),
                        bound=abs(offset) + abs(amplitude), lipschitz=abs(amplitude),
                        name=f"cosine({offset},{amplitude})")


def tanh_field(offset: float = 0.0, gain: float = 1.0) -> CoefficientField:
    return scalar_field(lambda x: offset + gain * np.tanh(x),
                        bound=abs(offset) + abs(gain), lipschitz=abs(gain),
                        name=f"tanh({offset},{gain})")


def negative_identity() -> CoefficientField:
    """x -> -x, the unbounded coefficient of the Feller-failure demo."""
    return scalar_field(lambda x: -np.asarray(x, dtype=float),
                        bound=np.inf, lipschitz=1.0, growth_constant=1.0, name="neg_identity")


_CATALOG = {
    "constant": constant,
    "zero": zero,
    "bump": bump,
    "sine": sine,
    "cosine": cosine,
    "tanh": tanh_field,
    "neg_identity": negative_identity,
}


def from_dict(spec: dict) -> CoefficientField:
    """{"name": ..., "params": {constructor keyword arguments}} -> catalog coefficient."""
    return catalog_entry(_CATALOG, "coefficient", spec)
