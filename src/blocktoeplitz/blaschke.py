"""Finite Blaschke products and coprime decompositions of rational parts.

Only scalar Blaschke products appear: the diagonal inner matrices used
downstream are theta * I_n, so zero-multiset arithmetic (GCD/LCM,
divisibility) is all that is needed.  Zero matching across products uses
an absolute distance tolerance; degrees in scope stay small enough that
clustering is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rational import RationalFn, mul_ascending, poly_from_roots

MATCH_TOL = 1e-9
COPRIME_CUTOFF = 1e-9


@dataclass
class BlaschkeProduct:
    """unimodular * prod ((z - a_i)/(1 - conj(a_i) z))^{m_i}, |a_i| < 1."""

    unimodular: complex = 1.0 + 0.0j
    zeros: list = field(default_factory=list)  # [(alpha, mult)]

    def __post_init__(self):
        u = complex(self.unimodular)
        if abs(abs(u) - 1.0) > 1e-9:
            raise ValueError(f"constant factor not unimodular: |u| = {abs(u)}")
        self.unimodular = u / abs(u)
        merged = []
        for a, m in self.zeros:
            a = complex(a)
            m = int(m)
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero outside the open disk: {a}")
            if m < 1:
                raise ValueError("multiplicity must be >= 1")
            for k, (b, mb) in enumerate(merged):
                if abs(a - b) < MATCH_TOL:
                    merged[k] = (b, mb + m)
                    break
            else:
                merged.append((a, m))
        self.zeros = merged

    # -- structure ---------------------------------------------------------
    def degree(self):
        return sum(m for _, m in self.zeros)

    def zero_list(self):
        """Zeros repeated by multiplicity, grouped in listed order."""
        out = []
        for a, m in self.zeros:
            out.extend([a] * m)
        return out

    def multiplicity_at(self, a):
        for b, m in self.zeros:
            if abs(a - b) < MATCH_TOL:
                return m
        return 0

    # -- evaluation ----------------------------------------------------------
    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.unimodular, dtype=complex)
        for a, m in self.zeros:
            out = out * ((z - a) / (1.0 - np.conj(a) * z)) ** m
        return out if out.shape else complex(out)

    def as_rational(self) -> RationalFn:
        """The quotient u prod (z - a) / prod (1 - conj(a) z) over the zeros with multiplicity."""
        roots = self.zero_list()
        num = poly_from_roots(roots, lead=self.unimodular)
        den = np.array([1.0 + 0j])
        for a in roots:
            den = mul_ascending(den, np.array([1.0, -np.conj(a)]))
        return RationalFn(num, den)

    # -- multiset arithmetic ---------------------------------------------------
    def __mul__(self, other):
        return BlaschkeProduct(
            self.unimodular * other.unimodular,
            self.zeros + other.zeros,
        )

    def quotient(self, other):
        """self / other, requiring other to divide self."""
        if not divides(other, self):
            raise ValueError("quotient of non-divisible Blaschke products")
        zs = []
        for a, m in self.zeros:
            m2 = m - other.multiplicity_at(a)
            if m2 > 0:
                zs.append((a, m2))
        return BlaschkeProduct(self.unimodular / other.unimodular, zs)

    @classmethod
    def one(cls):
        return cls(1.0, [])

    @classmethod
    def monomial(cls, k):
        return cls(1.0, [(0.0, k)]) if k > 0 else cls.one()


def _pair_zeros(t1: BlaschkeProduct, t2: BlaschkeProduct):
    """Greedy nearest pairing of the two zero sets within MATCH_TOL."""
    pairs = []
    used = set()
    for a, m in t1.zeros:
        best = None
        for k, (b, mb) in enumerate(t2.zeros):
            if k in used:
                continue
            d = abs(a - b)
            if d < MATCH_TOL and (best is None or d < best[0]):
                best = (d, k)
        if best is not None:
            used.add(best[1])
            pairs.append((a, m, t2.zeros[best[1]][1]))
        else:
            pairs.append((a, m, 0))
    for k, (b, mb) in enumerate(t2.zeros):
        if k not in used:
            pairs.append((b, 0, mb))
    return pairs


def gcd_lcm(t1: BlaschkeProduct, t2: BlaschkeProduct):
    """Greatest common divisor and least common multiple by multiplicity min/max."""
    g = []
    l = []
    for a, m1, m2 in _pair_zeros(t1, t2):
        if min(m1, m2) > 0:
            g.append((a, min(m1, m2)))
        l.append((a, max(m1, m2)))
    return BlaschkeProduct(1.0, g), BlaschkeProduct(1.0, l)


def divides(t2: BlaschkeProduct, t1: BlaschkeProduct):
    """True iff every zero of t2 appears in t1 with at least its multiplicity."""
    for a, m in t2.zeros:
        if t1.multiplicity_at(a) < m:
            return False
    return True


def coanalytic_decompose(f: RationalFn) -> tuple[BlaschkeProduct, RationalFn]:
    """Factor a rational co-analytic part f = theta * conj(b) on the circle.

    `f` is the analytic representative of the co-analytic part (an element
    of zH^2 when nonzero), with poles outside the closed disk.  Returns
    (theta, b) with theta a finite Blaschke product, b disk-analytic, and b
    nonvanishing at every zero of theta (coprime by construction).

    theta collects the reflected poles 1/conj(beta) of f plus a zero at the
    origin of order max(deg num - deg den, 0); b = reflect(f) * theta with
    the interior poles cancelled exactly.  The reflection's denominator is
    root-found and its roots clustered.
    """
    if f.is_zero():
        return BlaschkeProduct.one(), RationalFn([0.0])
    r = f.min_pole_radius()
    if r <= 1.0 + 1e-12:
        raise ValueError("co-analytic part is not rational-representable: pole in the closed disk")
    # the reflection's interior poles are exactly the Blaschke zeros;
    # reflect() already folds the degree mismatch into a pole at 0
    refl = f.reflect()
    if len(refl.den) == 1:
        # no interior pole: f is constant, with trivial inner part
        if f.degree_num() > 0 or not f.is_poly:
            raise ValueError("reflection without interior poles on a nonconstant input")
        return BlaschkeProduct.one(), RationalFn([np.conj(f.num[0] / f.den[0])])
    lead = refl.den[-1]
    clusters = _cluster_roots(np.roots(refl.den[::-1]))
    for g, _ in clusters:
        if abs(g) >= 1.0:
            raise ValueError("reflection produced a pole outside the disk")
    theta = BlaschkeProduct(1.0, clusters)
    # With den(z) = lead * prod (z - g), theta/den = 1/(lead * prod (1 - conj(g) z)),
    # so b = refl * theta has the closed form below; no inexact cancellation.
    bden = np.array([1.0 + 0.0j])
    for g, m in clusters:
        for _ in range(m):
            bden = mul_ascending(bden, np.array([1.0, -np.conj(g)]))
    b = RationalFn(refl.num / lead, bden)
    for g, _ in clusters:
        if abs(b(g)) <= 1e-12:
            raise ValueError("coprimality reduction failure: common interior root survived")
    return theta, b


def _cluster_roots(roots):
    """Merge numerically split repeated roots, closer than 5e-8, into (center, multiplicity)."""
    out = []
    for r in roots:
        for k, (c, m) in enumerate(out):
            if abs(r - c) < 5e-8:
                out[k] = ((c * m + r) / (m + 1), m + 1)
                break
        else:
            out.append((complex(r), 1))
    return out


def coprime_matrix_check(B, theta: BlaschkeProduct):
    """Whether B(alpha) is invertible at every zero alpha of theta.

    B is an analytic matrix function given as a grid of RationalFn
    entries or as a callable returning an n x n matrix.  Returns (ok,
    marginal): ok is false when some B(alpha) has minimum singular value
    at most COPRIME_CUTOFF; marginal flags one within a decade above it.
    """
    evalB = _matrix_evaluator(B)
    ok = True
    marginal = False
    for a, _ in theta.zeros:
        s = np.linalg.svd(evalB(a), compute_uv=False)
        smin = float(s[-1]) if len(s) else 0.0
        if smin <= COPRIME_CUTOFF:
            ok = False
        elif smin <= 10 * COPRIME_CUTOFF:
            marginal = True
    return ok, marginal


def _matrix_evaluator(B):
    if callable(B):
        return B
    if isinstance(B, list):  # grid of RationalFn
        n = len(B)

        def ev(a):
            return np.array([[B[i][j](a) for j in range(n)] for i in range(n)], dtype=complex)

        return ev
    raise TypeError(f"cannot evaluate matrix function of type {type(B)}")
