"""The per-state solution symbol, kept as the oracle for ``symbols.solution_symbol``.

``solution_batch`` is the batch function that evaluates the frequency map,
the driver exponent and the drift term on every state of the call, repeated
states included.  Its body is unchanged.  The tests require the symbol that
evaluates each distinct (Phi, Psi) state once to reproduce it bit for bit.
"""

from typing import Optional

import numpy as np

from symbolkit.coefficients import CoefficientField
from symbolkit.levy import LevyTriplet


def solution_batch(driver: LevyTriplet, coefficient: CoefficientField,
                   drift_coefficient: Optional[CoefficientField] = None):
    """``batch_fn`` of psi(Phi^T(x) xi) - i Psi(x).xi, every state evaluated."""

    def batch(xs, xis):
        phi = coefficient.many(xs)                       # (m, d, n)
        args = np.einsum("mdn,mkd->mkn", phi, xis)
        vals = driver.many(args.reshape(-1, driver.dim)).reshape(xis.shape[:2])
        if drift_coefficient is not None:
            psi_vals = drift_coefficient.many(xs)[:, :, 0]
            vals = vals - 1j * np.einsum("md,mkd->mk", psi_vals, xis)
        return vals

    return batch
