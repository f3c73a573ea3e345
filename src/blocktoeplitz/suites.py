"""Randomized cross-validation sweeps and their case generators.

Each suite pits two independent routes at the same question against each
other (interpolation pipeline vs exact finite windows, closed-form model
vs quadrature compression, family parametrization vs commutator tests)
and reports per-case rows suitable for CSV emission.  All randomness is
drawn from a seeded generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import blaschke as bl
from . import decide as dc
from . import modelspace as ms
from . import operators as op
from .rational import RationalFn, reflected_product
from .symbols import Symbol, RationalSymbol


def _fmt_complex(v):
    return f"{v.real:+.6g}{v.imag:+.6g}i"


def random_scalar_trig(rng, max_deg):
    """Random scalar trigonometric polynomial with complex Gaussian coefficients."""
    N = int(rng.integers(1, max_deg + 1))
    m = int(rng.integers(0, N + 1))  # keep co-analytic degree <= analytic degree half the time
    if rng.random() < 0.35:
        m = int(rng.integers(0, max_deg + 1))  # allow divisibility failures too
    coeffs = {}
    for j in range(-m, N + 1):
        if j == 0:
            continue
        coeffs[j] = complex(rng.normal(), rng.normal())
    # force the declared outer degrees to be present
    if N >= 1:
        coeffs[N] = coeffs.get(N, 0) + complex(rng.normal() + 1.5)
    if m >= 1:
        coeffs[-m] = coeffs.get(-m, 0) + complex(rng.normal() + 1.5)
    return Symbol.scalar(coeffs)


def scalar_symbol_str(phi: Symbol):
    parts = []
    for j in phi.support():
        parts.append(f"{_fmt_complex(phi.scalar_coeff(j))}@z^{j}")
    return " ".join(parts) if parts else "0"


def oracle_equivalence(cases, seed):
    """decide_hyponormal vs the sign of the exact self-commutator minimum."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for c in range(cases):
        phi = random_scalar_trig(rng, max_deg=4)
        verdict = dc.decide_hyponormal(phi)
        com = op.selfcommutator_exact(phi)
        rep = op.positivity_report(com.block, com.window, exact=com.exact)
        agree = (verdict.tag == "Hyponormal") == (rep.verdict == "PSD")
        if verdict.tag == "Hyponormal" and agree:
            # ranks must match as well
            vals = np.linalg.eigvalsh(0.5 * (com.block + com.block.conj().T))
            agree = int(np.sum(vals > dc.RANK_TOL)) == verdict.rank_defect
        ok = ok and agree
        rows.append([c, scalar_symbol_str(phi), verdict.tag, f"{rep.min_eigenvalue:.12e}", agree])
    return rows, ok


def random_blaschke(rng, max_degree=5, rad=0.8):
    d = int(rng.integers(1, max_degree + 1))
    zeros = []
    while sum(m for _, m in zeros) < d:
        a = complex(rng.normal(), rng.normal()) * 0.35
        if abs(a) > rad:
            continue
        m = int(rng.integers(1, 3))
        m = min(m, d - sum(mm for _, mm in zeros))
        zeros.append((a, m))
    return bl.BlaschkeProduct(1.0, zeros)


def random_analytic_poly_symbol(rng, n, deg):
    coeffs = {}
    for j in range(deg + 1):
        coeffs[j] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Symbol(n, coeffs)


def model_identity(cases, seed):
    """Closed-form functional calculus vs quadrature compression."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for c in range(cases):
        n = int(rng.integers(1, 3))
        degP = int(rng.integers(0, 4))
        theta = random_blaschke(rng, max_degree=5)
        P = random_analytic_poly_symbol(rng, n, degP)
        model = ms.build_M(theta.zero_list())
        lhs = ms.poly_of_M(P, model)
        rhs = ms.compression_oracle(P, theta)
        dev = float(np.max(np.abs(lhs - rhs)))
        good = dev <= 1e-8
        ok = ok and good
        rows.append([c, n, theta.degree(), degP, f"{dev:.3e}", good])
    return rows, ok


def family_pair(family, theta=0.0, omega=0.0, alpha=0.0, beta=0.0):
    """(phi, psi) built from the normal-completion family parameters."""
    if family == 1:
        phi = Symbol.scalar({1: np.exp(1j * theta), 0: beta})
        psi = phi * np.exp(1j * omega)
        return phi, psi
    if family == 2:
        if alpha == 0:
            raise ValueError("family 2 needs alpha != 0")
        c1 = np.exp(1j * theta) * np.sqrt(1.0 + abs(alpha) ** 2)
        phi = Symbol.scalar({-1: alpha, 1: c1, 0: beta})
        om = np.exp(1j * (np.pi - 2 * np.angle(alpha)))
        psi = phi * om
        return phi, psi
    raise ValueError("family must be 1 or 2")


def completion_grid():
    """All family pairs on the parameter grid must give normal completions."""
    thetas = [0.0, np.pi / 3, np.pi]
    betas = [0.0, 1.0 + 1.0j]
    grid = [(1, f"theta={th:.4f};omega={om:.4f};beta={beta}", dict(theta=th, omega=om, beta=beta))
            for th in thetas for om in thetas for beta in betas]
    grid += [(2, f"|alpha|={mod};theta={th:.4f};beta={beta}",
              dict(theta=th, alpha=mod * np.exp(1j * np.pi / 7), beta=beta))
             for mod in (0.5, 1.0, 2.0) for th in thetas for beta in betas]
    rows = []
    for case, (family, params, kwargs) in enumerate(grid):
        phi, psi = family_pair(family, **kwargs)
        v = dc.complete_ustar(phi, psi)
        worst, vanishes = dc.commutator_max_entry(dc.double_conjugate_shift_symbol(phi, psi))
        rows.append([case, family, params, f"{worst:.3e}", v.tag == "Normal" and vanishes])
    return rows, all(row[-1] for row in rows)


def nonfamily_pair(rng):
    """Random (phi, psi) with |phi| = |psi| that avoids both families.

    psi is a unimodular multiple of phi, so the completion symbol stays
    normal; the family shape is broken either by a genuine degree-2 term
    or by an off-manifold modulus of the z coefficient.
    """
    mode = rng.integers(0, 3)
    alpha = (rng.normal() + 1j * rng.normal()) * 0.7
    if mode == 0:
        coeffs = {-1: alpha, 1: np.sqrt(1 + abs(alpha) ** 2) + 0.4 + rng.random(),
                  0: complex(rng.normal(), rng.normal())}
    elif mode == 1:
        coeffs = {1: 1.0, 2: 0.5 + rng.random(), 0: complex(rng.normal(), rng.normal())}
    else:
        coeffs = {-1: alpha, 1: np.sqrt(1 + abs(alpha) ** 2),
                  -2: 0.4 + 0.5 * rng.random()}
    phi = Symbol.scalar(coeffs)
    u = np.exp(2j * np.pi * rng.random())
    psi = phi * u
    return phi, psi


def random_coprime_rational_symbol(rng):
    """Random 2 x 2 rational symbol whose co-analytic part is certified coprime.

    Draws mix purely analytic symbols, normal-by-construction symbols
    (diagonal g*beta + conj(g*beta) blocks), and generic ones; generic
    draws are re-sampled until the matrix coprimality certificate passes,
    so the classifier hypothesis holds for every emitted case.
    """
    n, max_deg = 2, 2
    kind = rng.integers(0, 4)
    if kind == 0:
        plus = [[_random_analytic_fn(rng, max_deg) for _ in range(n)] for _ in range(n)]
        minus = [[RationalFn([0.0]) for _ in range(n)] for _ in range(n)]
        return RationalSymbol(n, plus, minus)
    if kind == 1:
        # real-type diagonal: beta*g + conj(beta*g) entrywise gives a normal operator
        g = _random_analytic_fn(rng, max_deg, force_zero_constant=True)
        beta = complex(rng.normal(), rng.normal())
        plus = [[RationalFn([0.0]) for _ in range(n)] for _ in range(n)]
        minus = [[RationalFn([0.0]) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            plus[i][i] = g * beta
            minus[i][i] = g * beta
        return RationalSymbol(n, plus, minus)
    for _ in range(50):
        # all entries share one inner product so the outer matrix can be
        # invertible at its zeros: entry f_ij = z^(d-deg p) p*_ij / D with
        # D the inner denominator, which equals theta * conj(p_ij/D)
        theta = random_blaschke(rng, max_degree=2, rad=0.6)
        d = theta.degree()
        D = reflected_product(theta.zero_list())
        minus = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                degp = int(rng.integers(0, d))
                p = rng.normal(size=degp + 1) + 1j * rng.normal(size=degp + 1)
                num = np.concatenate([np.zeros(d - degp, dtype=complex), np.conj(p)[::-1]])
                minus[i][j] = RationalFn(num, D)
        plus = [[_random_analytic_fn(rng, max_deg) for _ in range(n)] for _ in range(n)]
        R = RationalSymbol(n, plus, minus)
        theta_minus, ok, _ = dc._coanalytic_coprime(R)
        if ok and theta_minus.degree():
            return R
    raise RuntimeError("could not draw a certified-coprime symbol")


def _random_analytic_fn(rng, max_deg, force_zero_constant=False):
    deg = int(rng.integers(0, max_deg + 1))
    num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    if force_zero_constant:
        num[0] = 0.0
    if rng.random() < 0.5:
        pole = (2.5 + 2.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        den = np.array([1.0, -1.0 / pole])
    else:
        den = np.array([1.0])
    return RationalFn(num, den)



def classifier_harness(cases, seed):
    """Zero tolerance for classification contradictions on random symbols."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for c in range(cases):
        R = random_coprime_rational_symbol(rng)
        v = dc.classify_normal_or_analytic(R)
        violation = any("THEOREM-VIOLATION" in note for note in v.notes)
        ok = ok and not violation
        rows.append([c, v.tag, violation])
    return rows, ok
