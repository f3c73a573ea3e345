"""Finite Blaschke products and coprime decompositions of rational parts.

Only scalar Blaschke products appear: the diagonal inner matrices used
downstream are theta * I_n, so zero-multiset arithmetic (LCM,
divisibility, quotient) is all that is needed.  Zeros match by one rule,
`multiplicity_at`: the first listed zero within MATCH_TOL, the rule
`__post_init__` merges by; degrees in scope stay small enough that
clustering is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rational import RationalFn, poly_from_roots, reflected_product

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
            if not abs(a) < 1.0:  # a NaN zero fails this too
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
        return RationalFn(poly_from_roots(roots, lead=self.unimodular), reflected_product(roots))

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


def lcm(t1: BlaschkeProduct, t2: BlaschkeProduct):
    """Least common multiple: t1's zeros, plus each zero a of t2 with the multiplicity
    m - t1.multiplicity_at(a) wherever that is positive."""
    extra = [(a, k) for a, m in t2.zeros if (k := m - t1.multiplicity_at(a)) > 0]
    return BlaschkeProduct(1.0, t1.zeros + extra)


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
    clusters = _cluster_roots(refl.poles())
    for g, _ in clusters:
        if abs(g) >= 1.0:
            raise ValueError("reflection produced a pole outside the disk")
    theta = BlaschkeProduct(1.0, clusters)
    # With den(z) = lead * prod (z - g), theta/den = 1/(lead * prod (1 - conj(g) z)),
    # so b = refl * theta has the closed form below; no inexact cancellation.
    b = RationalFn(refl.num / lead, reflected_product(theta.zero_list()))
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


def coprime_matrix_check(values):
    """Whether each matrix B(alpha) in `values`, one per zero alpha of theta, is invertible.

    Returns (ok, marginal): ok is false when some B(alpha) has minimum
    singular value at most COPRIME_CUTOFF; marginal flags one within a
    decade above it.
    """
    smin = [min(np.linalg.svd(v, compute_uv=False), default=0.0) for v in values]
    return all(s > COPRIME_CUTOFF for s in smin), any(COPRIME_CUTOFF < s <= 10 * COPRIME_CUTOFF for s in smin)
