"""Rational functions analytic on the closed unit disk.

A RationalFn is a quotient p/q of polynomials in z with complex
coefficients, stored as ascending coefficient arrays.  Functions built
here are used in two regimes:

* disk-analytic quotients (all poles strictly outside the closed disk),
  which model analytic symbol entries and interpolation data;
* circle reflections f*(z) = conj(f(1/conj(z))), whose poles sit inside
  the disk and encode the inner parts of co-analytic entries.

Arithmetic is `np.convolve` on the ascending arrays, whose convolution
is that of the reversed ones reversed; degrees in this problem domain
stay in the single digits.  Every root comes from one finder, `_roots`:
it returns np.roots' output bit for bit, and solves degree 1, most of
the calls, by the one division LAPACK makes for a 1 x 1 companion
matrix.  `fourier_coeffs` runs its recurrence on Python complex numbers
at a fraction of numpy scalars' cost per term; they multiply alike, and
divide alike by the exact q(0) = 1 the constructor sets.
"""

from __future__ import annotations

import numpy as np

DROP_TOL = 1e-12


def _trim(c):
    """Strip trailing (top-degree) coefficients below DROP_TOL."""
    c = np.array(c, dtype=complex, ndmin=1)
    nz = np.nonzero(np.abs(c) > DROP_TOL)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def mul_ascending(a, b):
    """Product of two ascending-coefficient polynomials, ascending out."""
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def reflected_product(zeros):
    """Ascending coefficients of prod (1 - conj(a) z) over `zeros`, multiplied in listed order."""
    out = np.array([1.0 + 0.0j])
    for a in zeros:
        out = mul_ascending(out, np.array([1.0, -np.conj(a)]))
    return out


def polyval_ascending(c, z):
    """Evaluate an ascending-coefficient polynomial at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for ck in c[::-1]:
        out = out * z + ck
    return out


class RationalFn:
    """Quotient of two complex polynomials, reduced on construction.

    Common numerator/denominator roots are cancelled by root clustering
    with absolute tolerance 1e-9; the denominator is normalized
    to constant term 1 when possible (leading coefficient 1 otherwise).
    """

    def __init__(self, num, den=(1.0,)):
        p = _trim(num)
        q = _trim(den)
        # trimmed, a polynomial is [0] or ends in a coefficient above DROP_TOL
        if abs(q[-1]) <= DROP_TOL:
            raise ZeroDivisionError("rational function with zero denominator")
        if len(q) > 1 and len(p) > 1:
            p, q = _cancel_common_roots(p, q, 1e-9)
        # normalize: prefer q(0) = 1 so analytic quotients read off nicely
        k = 0 if abs(q[0]) > DROP_TOL else -1
        self.num, self.den = p / q[k], q / q[k]
        self.den[k] = 1  # exactly: x / x can round to 0.9999999999999999

    # -- basic structure ------------------------------------------------
    @property
    def is_poly(self):
        return len(self.den) == 1

    def poly_coeffs(self):
        if not self.is_poly:
            raise ValueError("not a polynomial")
        return self.num / self.den[0]

    def degree_num(self):
        return len(self.num) - 1

    def is_zero(self, tol=DROP_TOL):
        return bool(np.all(np.abs(self.num) <= tol))

    def poles(self):
        """Roots of the denominator, with numpy multiplicity semantics."""
        if self.is_poly:
            return np.array([], dtype=complex)
        return _roots(self.den)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _as_rational(other)
        a = np.convolve(self.num, other.den)
        b = np.convolve(other.num, self.den)
        num = np.zeros(max(len(a), len(b)), dtype=complex)
        num[: len(a)] += a
        num[: len(b)] += b
        return RationalFn(num, np.convolve(self.den, other.den))

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalFn(np.convolve(self.num, other.num), np.convolve(self.den, other.den))

    __rmul__ = __mul__

    # -- analysis ----------------------------------------------------------
    def __call__(self, z):
        return polyval_ascending(self.num, z) / polyval_ascending(self.den, z)

    def taylor_jets(self, z0, order):
        """Return [f(z0), f'(z0)/1!, ..., f^(k)(z0)/k!] up to k = order-1.

        Computed by Taylor-shifting numerator and denominator to z0 and
        dividing the resulting power series; requires q(z0) != 0.
        """
        p = _taylor_shift(self.num, z0)
        q = _taylor_shift(self.den, z0)
        if abs(q[0]) <= DROP_TOL:
            raise ZeroDivisionError("pole at expansion point")
        jets = np.zeros(order, dtype=complex)
        for j in range(order):
            s = p[j] if j < len(p) else 0.0
            for l in range(1, j + 1):
                ql = q[l] if l < len(q) else 0.0
                s -= ql * jets[j - l]
            jets[j] = s / q[0]
        return jets

    def reflect(self):
        """The circle reflection f*(z) = conj(f(1/conj(z))).

        On |z| = 1 this equals conj(f(z)).  Poles outside the disk map to
        poles inside, and vice versa.
        """
        dp = len(self.num) - 1
        dq = len(self.den) - 1
        rp = np.conj(self.num)[::-1]
        rq = np.conj(self.den)[::-1]
        if dq >= dp:
            num = np.concatenate([np.zeros(dq - dp, dtype=complex), rp])
            return RationalFn(num, rq)
        den = np.concatenate([np.zeros(dp - dq, dtype=complex), rq])
        return RationalFn(rp, den)

    def min_pole_radius(self):
        if self.is_poly:
            return np.inf
        return float(np.min(np.abs(self.poles())))

    def fourier_coeffs(self, tail_tol=1e-14):
        """Taylor coefficients at 0, truncated with a certified geometric tail.

        Valid only for disk-analytic quotients (all poles of modulus > 1):
        the series is the sum of the geometric expansions of the partial
        fractions, so |c_j| <= A rho^j with rho = 1/min|pole|.  Terms are
        emitted until the geometric tail estimate drops below tail_tol, at
        most 100000 of them.
        """
        r = self.min_pole_radius()
        if r <= 1.0 + 1e-12:
            raise ValueError("pole in the closed unit disk; no analytic Fourier expansion")
        if self.is_poly:
            return self.poly_coeffs()
        rho = 1.0 / r
        p, q = self.num.tolist(), self.den.tolist()
        lp, lq, q0 = len(p), len(q), q[0]
        coeffs = []
        j = 0
        recent = 0.0
        while j < 100000:
            s = p[j] if j < lp else 0.0
            for l in range(1, min(j, lq - 1) + 1):
                s -= q[l] * coeffs[j - l]
            c = s / q0
            coeffs.append(c)
            recent = max(abs(c), recent * rho)
            j += 1
            if j > lp and recent * rho / (1.0 - rho) < tail_tol:
                break
        return _trim(np.array(coeffs, dtype=complex))

    def __repr__(self):
        return f"RationalFn(num={self.num!r}, den={self.den!r})"


def _as_rational(x):
    if isinstance(x, RationalFn):
        return x
    if np.isscalar(x):
        return RationalFn([complex(x)])
    return RationalFn(x)


def _taylor_shift(c, z0):
    """Coefficients of p(z0 + w) as a polynomial in w (ascending)."""
    c = np.asarray(c, dtype=complex)
    n = len(c)
    out = np.zeros(n, dtype=complex)
    for ck in c[::-1]:
        # out <- out*(w + z0) + ck, via Horner in the shifted variable
        shifted = np.concatenate([[0.0], out[:-1]]) if n > 1 else np.zeros(1, complex)
        out = shifted + z0 * out
        out[0] += ck
    return out


def _roots(c):
    """`np.roots(c[::-1])` for ascending coefficients c, bit for bit (see the module docstring)."""
    nz = np.flatnonzero(c)
    if len(nz) == 2 and nz[1] - nz[0] == 1:
        return np.concatenate([[-c[nz[0]] / c[nz[1]]], np.zeros(nz[0])])
    return np.roots(c[::-1])


def _cancel_common_roots(p, q, tol):
    """Divide out numerator/denominator roots that agree within tol."""
    rp = list(_roots(p))
    rq = list(_roots(q))
    changed = False
    i = 0
    while i < len(rp):
        hit = None
        for j, r in enumerate(rq):
            if abs(rp[i] - r) < tol:
                hit = j
                break
        if hit is not None:
            rp.pop(i)
            rq.pop(hit)
            changed = True
        else:
            i += 1
    if not changed:
        return p, q
    return poly_from_roots(rp, p[-1]), poly_from_roots(rq, q[-1])


def poly_from_roots(roots, lead=1.0):
    """Ascending coefficients of lead * prod (z - r)."""
    if len(roots) == 0:
        return np.array([complex(lead)])
    return _trim(complex(lead) * np.poly(list(roots))[::-1])
