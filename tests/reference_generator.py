"""The adaptive Fourier form of the generator, kept as the oracle for ``symbols``.

``generator_apply_fourier`` integrates -e^{i x xi} p(x, xi) hat-u(xi) with two
adaptive ``quad`` runs, one for the real part and one for the imaginary part,
each evaluating the symbol at one frequency per call.  It is unchanged except
for its docstring.  The tests require the fixed-panel form in
``symbolkit.symbols`` to reproduce it to 1e-11 relative wherever it passes.
"""

import numpy as np

from reference_quadrature import integrate_checked

from symbolkit.errors import DimensionMismatch, QuadratureFailure
from symbolkit.symbols import SymbolField, TestFunction


def generator_apply_fourier(p: SymbolField, u: TestFunction, x, *,
                            window_tol: float = 1e-14,
                            imag_tol: float = 1e-8) -> float:
    """A u(x) = - int e^{i x xi} p(x, xi) hat-u(xi) d xi by adaptive quadrature."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if p.d != 1:
        raise DimensionMismatch("Fourier form is implemented in one dimension")
    x0 = float(x[0])
    try:
        half = float(u.hat_halfwidth(window_tol))
    except Exception as exc:
        raise QuadratureFailure(f"window detection failed: {exc}") from exc

    def integrand(xi):
        return np.exp(1j * x0 * xi) * p(x, xi) * u.hat(xi)

    re = integrate_checked(lambda s: integrand(s).real, -half, half,
                           tol=1e-9, points=[0.0], label="fourier generator (re)")
    im = integrate_checked(lambda s: integrand(s).imag, -half, half,
                           tol=1e-9, points=[0.0], label="fourier generator (im)")
    scale = max(1.0, abs(re))
    if abs(im) > imag_tol * scale:
        raise QuadratureFailure(
            f"imaginary residual {im:.3e} exceeds {imag_tol:.0e} * scale", achieved=abs(im))
    return -re
