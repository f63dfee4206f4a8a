"""mpmath references for the windowed exponent of the tempered-power density family.

``mp_tempered_exponent(a, alpha, b, w, xi)`` is
2 a int_0^w (1 - cos xi y) y^{-1-alpha} e^{-b y} dy, the jump exponent of
a |y|^{-1-alpha} e^{-b |y|} truncated to |y| <= w.  Where |xi| w <= 40 it sums
the xi-power series over the moments b^{alpha-2j} gamma(2j - alpha, b w) at 60
digits; elsewhere it takes the full line less the tail,
Gamma(-alpha) Re(b^alpha - c^alpha) - [b^alpha Gamma(-alpha, b w)
- Re(c^alpha Gamma(-alpha, c w))] with c = b - i xi, at 80 digits, moving an
integer alpha by 1e-35 off the poles of Gamma(-alpha).  (``mpmath.quad`` on the
singular integrand is no reference: it was off by up to 26% on small windows.)
"""

import mpmath


def _series(a, alpha, b, w, xi):
    with mpmath.workdps(60):
        al, b, w, x = (mpmath.mpf(v) for v in (alpha, b, w, xi))
        total, j = mpmath.mpf(0), 1
        while True:
            s = 2 * j - al
            m = w ** s / s if b == 0 else b ** -s * mpmath.gammainc(s, 0, b * w)
            term = (-1) ** (j + 1) * x ** (2 * j) / mpmath.factorial(2 * j) * m
            total += term
            if j > 3 and abs(term) < mpmath.mpf(10) ** -55 * abs(total):
                return 2 * a * total
            j += 1


def _closed(a, alpha, b, w, xi):
    with mpmath.workdps(80):
        al = mpmath.mpf(alpha)
        if al == int(al):
            al += mpmath.mpf(10) ** -35
        b, w, x = (mpmath.mpf(v) for v in (b, w, xi))
        c = b - 1j * x
        if b == 0:
            full, beyond = -mpmath.gamma(-al) * mpmath.re(c ** al), w ** -al / al
        else:
            full = mpmath.gamma(-al) * (b ** al - mpmath.re(c ** al))
            beyond = b ** al * mpmath.gammainc(-al, b * w)
        return 2 * a * (full - beyond + mpmath.re(c ** al * mpmath.gammainc(-al, c * w)))


def mp_tempered_exponent(a, alpha, b, w, xi):
    """2 a int_0^w (1 - cos xi y) y^{-1-alpha} e^{-b y} dy as an mpmath number."""
    if abs(xi) * w <= 40:
        return _series(a, alpha, b, w, xi)
    return _closed(a, alpha, b, w, xi)
