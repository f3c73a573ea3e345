"""Matrix Laurent symbols with exact finite Fourier support.

A Symbol stores the coefficient matrices A_j of Phi(z) = sum_j A_j z^j
as one dense array: `c[k]` is A_{lo+k}, trimmed so that c[0] and c[-1]
are nonzero (the zero symbol has lo = 0 and no rows).  Arithmetic is
Cauchy product / coefficientwise work on that array, with a global drop
tolerance: a coefficient whose largest entry is at most DROP_TOL counts
as zero.

Rational (non-polynomial) symbols enter as `RationalSymbol`: an n x n
grid of (plus, minus) RationalFn pairs.  Their Fourier side, from
`to_symbol`, is a truncated Symbol with a certified geometric tail below
TAIL_TOL.  Coefficients, the split, the tilde involution and products
are methods and operators of `Symbol` (`coeff`, `split`, `tilde`, `*`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .rational import RationalFn

DROP_TOL = 1e-12
TAIL_TOL = 1e-14
EQ_TOL = 1e-10


class Symbol:
    """A matrix-valued trigonometric polynomial sum_j A_j z^j."""

    def __init__(self, n, coeffs=None):
        self.n = int(n)
        degs = [int(j) for j in coeffs] if coeffs else [0]
        lo = min(degs)
        c = np.zeros((max(degs) - lo + 1, self.n, self.n), dtype=complex)
        if coeffs:
            vals = np.asarray(list(coeffs.values()), dtype=complex)
            if vals.shape[1:] != (self.n, self.n):
                raise ValueError(f"coefficients have shape {vals.shape[1:]}, expected {(self.n, self.n)}")
            c[np.array(degs) - lo] = vals
        self._store(lo, c)

    def _store(self, lo, c):
        """Keep c from its first to its last coefficient above DROP_TOL, zeroing those at or below it."""
        mags = np.abs(c).max(axis=(1, 2))
        if not np.isfinite(mags).all():
            raise ValueError("non-finite coefficient")
        keep = mags > DROP_TOL
        nz = np.flatnonzero(keep)
        if not len(nz):
            self.lo, self.c = 0, np.zeros((0, self.n, self.n), dtype=complex)
            return
        a, b = nz[0], nz[-1] + 1
        self.lo, self.c = lo + int(a), np.where(keep[a:b, None, None], c[a:b], 0)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_coeffs(cls, lo, c):
        """Symbol with A_{lo+k} = c[k] for a coefficient stack c of shape (L, n, n)."""
        c = np.asarray(c, dtype=complex)
        out = cls.__new__(cls)
        out.n = c.shape[1]
        out._store(int(lo), c)
        return out

    def _derived(self, lo, c):
        """Symbol holding c unchecked: c must be a conjugate, transpose or negation of
        a stack `_store` already trimmed, pruned and found finite, which keep all three."""
        out = Symbol.__new__(Symbol)
        out.n = self.n
        out.lo, out.c = (lo, c) if len(c) else (0, c)
        return out

    @classmethod
    def scalar(cls, coeffs):
        """Scalar symbol from a {degree: complex} dict."""
        return cls(1, {j: [[v]] for j, v in coeffs.items()})

    @classmethod
    def identity(cls, n):
        return cls(n, {0: np.eye(n)})

    # -- accessors ---------------------------------------------------------
    @property
    def hi(self):
        """Highest degree of the support (lo - 1 for the zero symbol)."""
        return self.lo + len(self.c) - 1

    def coeffs(self, a, b):
        """Dense stack [A_a, ..., A_b], zero outside the support."""
        out = np.zeros((max(b - a + 1, 0), self.n, self.n), dtype=complex)
        s, e = max(a, self.lo), min(b, self.hi)
        if s <= e:
            out[s - a : e - a + 1] = self.c[s - self.lo : e - self.lo + 1]
        return out

    def coeff(self, j):
        """Fourier coefficient A_j; zero matrix outside the support."""
        return self.coeffs(j, j)[0]

    def scalar_coeff(self, j):
        if self.n != 1:
            raise ValueError("scalar_coeff on a matrix symbol")
        return complex(self.coeff(j)[0, 0])

    def support(self):
        return [self.lo + int(k) for k in np.flatnonzero(np.any(self.c != 0, axis=(1, 2)))]

    def degree_bounds(self):
        """(m, N) with support inside [-m, N]; (0, 0) for the zero symbol."""
        if not len(self.c):
            return 0, 0
        return max(0, -self.lo), max(0, self.hi)

    def bandwidth(self):
        m, N = self.degree_bounds()
        return max(m, N)

    def is_zero(self, tol=DROP_TOL):
        return not len(self.c) or float(np.abs(self.c).max()) <= tol

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def _combine(self, other, sign):
        other = self._coerce(other)
        lo = min(self.lo, other.lo)
        c = np.zeros((max(self.hi, other.hi) - lo + 1, self.n, self.n), dtype=complex)
        c[self.lo - lo : self.hi - lo + 1] = self.c
        c[other.lo - lo : other.hi - lo + 1] += sign * other.c
        return Symbol.from_coeffs(lo, c)

    def __neg__(self):
        return self._derived(self.lo, -self.c)

    def __mul__(self, other):
        if np.isscalar(other):
            return Symbol.from_coeffs(self.lo, other * self.c)
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        a, b = self.c, other.c
        if not len(a) or not len(b):
            return Symbol(self.n)
        # entry (i, k) of the Cauchy product is sum_j conv(a_ij, b_jk); n^3 direct
        # 1-D convolutions beat one batched n x n matmul per shift of the shorter
        # factor for n <= 3, the sizes in use; the shift loop wins only from n = 4
        c = np.zeros((len(a) + len(b) - 1, self.n, self.n), dtype=complex)
        for i, j, k in itertools.product(range(self.n), repeat=3):
            c[:, i, k] += np.convolve(a[:, i, j], b[:, j, k])
        return Symbol.from_coeffs(self.lo + other.lo, c)

    def __rmul__(self, scalar):
        return self * scalar

    def _coerce(self, other):
        if isinstance(other, Symbol):
            if other.n != self.n:
                raise ValueError("size mismatch")
            return other
        if np.isscalar(other):
            return Symbol(self.n, {0: complex(other) * np.eye(self.n)})
        raise TypeError(f"cannot combine Symbol with {type(other)}")

    def star(self):
        """Adjoint symbol Phi*(z), with coefficient (A_{-j})^* at degree j."""
        return self._derived(-self.hi, self.c[::-1].conj().transpose(0, 2, 1))

    def tilde(self):
        """The involution Phi~(z) = Phi*(conj(z)); adjoints each coefficient in place."""
        return self._derived(self.lo, self.c.conj().transpose(0, 2, 1))

    def split(self):
        """Analytic/co-analytic split (Phi_plus, Phi_minus).

        Phi_plus keeps degrees >= 0; Phi_minus is the analytic representative
        of the co-analytic part, with coefficient (A_{-j})^* at degree j >= 1,
        so that Phi = Phi_minus^* + Phi_plus coefficientwise.
        """
        neg = max(-self.lo, 0)  # number of rows at negative degrees
        plus = Symbol.from_coeffs(self.lo + neg, self.c[neg:])
        minus = Symbol.from_coeffs(self.lo, self.c[:neg]).star()
        return plus, minus

    # -- analysis ------------------------------------------------------------
    def eval_circle(self, t):
        """Values Phi(e^{it}) for an array of angles t; shape (len(t), n, n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        zp = np.exp(1j * t)[:, None] ** np.arange(self.lo, self.hi + 1)
        vals = zp @ self.c.reshape(len(self.c), self.n * self.n)
        return vals.reshape(len(t), self.n, self.n)

    def equals(self, other, tol=EQ_TOL):
        return (self - other).is_zero(tol)

    def to_json_dict(self):
        return {
            "n": self.n,
            "coeffs": [
                {
                    "deg": j,
                    "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.c[j - self.lo]],
                }
                for j in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        n = int(d["n"])
        coeffs = {}
        for item in d.get("coeffs", []):
            A = np.array(
                [[complex(v[0], v[1]) for v in row] for row in item["matrix"]],
                dtype=complex,
            )
            coeffs[int(item["deg"])] = A
        return cls(n, coeffs)

    def __repr__(self):
        return f"Symbol(n={self.n}, support={self.support()})"


def is_normal_symbol(phi: Symbol):
    """Whether Phi* Phi = Phi Phi* coefficientwise within 1e-9."""
    if phi.n == 1:
        return True
    diff = phi.star() * phi - phi * phi.star()
    return diff.is_zero(1e-9)


def sup_norm(phi: Symbol, grid=None):
    """Max spectral norm of Phi over an equispaced circle grid.

    A lower bound for the essential sup norm; for the smooth symbols in
    scope, doubling the grid changes the value below tolerance.  The grid
    must resolve the bandwidth (grid >= 2*bandwidth + 1).
    """
    bw = phi.bandwidth()
    if grid is None:
        grid = max(256, 2 * bw + 1)
    if grid < 2 * bw + 1:
        raise ValueError(f"grid {grid} too coarse for bandwidth {bw}")
    t = 2 * np.pi * np.arange(grid) / grid
    vals = phi.eval_circle(t)
    return float(np.max(np.linalg.norm(vals, ord=2, axis=(1, 2))))


def _prune(v):
    """Entries at or below DROP_TOL set to zero: each matrix entry is its own function."""
    return np.where(np.abs(v) > DROP_TOL, v, 0)


class RationalSymbol:
    """Matrix symbol with exact rational analytic/co-analytic parts.

    entry (i, j) of the symbol is conj(minus[i][j](z)) + plus[i][j](z) on
    the circle, both parts disk-analytic RationalFn with minus in zH^2.
    Trigonometric polynomials embed exactly (denominators 1).
    """

    def __init__(self, n, plus, minus):
        self.n = int(n)
        self.plus = plus
        self.minus = minus

    @classmethod
    def from_symbol(cls, phi: Symbol):
        n = phi.n
        P, M = (_prune(s.coeffs(0, s.hi)) for s in phi.split())
        # minus[i][j] is conj of the co-analytic entry (i, j): the (j, i) entry of the split's minus
        return cls(n, [[RationalFn(P[:, i, j]) for j in range(n)] for i in range(n)],
                   [[RationalFn(M[:, j, i]) for j in range(n)] for i in range(n)])

    def to_symbol(self):
        n = self.n
        pairs = [(i, j, self.plus[i][j].fourier_coeffs(TAIL_TOL),
                  self.minus[i][j].fourier_coeffs(TAIL_TOL)[1:]) for i in range(n) for j in range(n)]
        m = max(len(cm) for *_, cm in pairs)  # co-analytic degree
        c = np.zeros((m + max(len(cp) for _, _, cp, _ in pairs), n, n), dtype=complex)
        for i, j, cp, cm in pairs:
            c[m : m + len(cp), i, j] = _prune(cp)
            c[m - len(cm) : m, i, j] = _prune(cm[::-1].conj())
        return Symbol.from_coeffs(-m, c)

    def is_analytic(self):
        return all(self.minus[i][j].is_zero(DROP_TOL) for i in range(self.n) for j in range(self.n))

    def __repr__(self):
        return f"RationalSymbol(n={self.n})"
