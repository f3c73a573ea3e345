"""Independent oracles that the tests check the library against.

The decision routes, the CLI and the benchmark call none of these, so
they live with the tests rather than in the package.
"""

from math import comb

import numpy as np

from blocktoeplitz.blaschke import BlaschkeProduct
from blocktoeplitz.operators import WindowedOperator, _hankel_view
from blocktoeplitz.rational import RationalFn, _trim
from blocktoeplitz.symbols import Symbol


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


def blaschke_values(theta: BlaschkeProduct, z):
    """The product form prod ((z - a)/(1 - conj(a) z))^m of theta at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape, dtype=complex)
    for a, m in theta.zeros:
        out = out * ((z - a) / (1.0 - np.conj(a) * z)) ** m
    return out if out.shape else complex(out)


def hankel_window(phi: Symbol, W: int) -> WindowedOperator:
    """Block (i, j) = A_{-i-j-1}; exact once W exceeds the co-analytic bandwidth."""
    if W < 1:
        raise ValueError("window must be >= 1")
    n = phi.n
    m, _ = phi.degree_bounds()
    k = min(W, m)  # A_{-i-j-1} vanishes for i + j >= m: only the leading k x k blocks are nonzero
    H = np.zeros((W, n, W, n), dtype=complex)
    if k:
        H[:k, :, :k] = _hankel_view(phi.coeffs(-(2 * k - 1), -1)[::-1], k)  # h[s] = A_{-s-1}
    return WindowedOperator(W, n, H.reshape(n * W, n * W), exact=(W >= m))


def fourier_coeffs(f: RationalFn, tail_tol=1e-14):
    """`RationalFn.fourier_coeffs` as a recurrence on numpy scalars, term for term."""
    r = f.min_pole_radius()
    if r <= 1.0 + 1e-12:
        raise ValueError("pole in the closed unit disk; no analytic Fourier expansion")
    if f.is_poly:
        return f.poly_coeffs()
    rho = 1.0 / r
    p, q = f.num, f.den
    coeffs = []
    j = 0
    recent = 0.0
    while j < 100000:
        s = p[j] if j < len(p) else 0.0
        for l in range(1, min(j, len(q) - 1) + 1):
            s -= q[l] * coeffs[j - l]
        c = s / q[0]
        coeffs.append(c)
        recent = max(abs(c), recent * rho)
        j += 1
        if j > len(p) and recent * rho / (1.0 - rho) < tail_tol:
            break
    return _trim(np.array(coeffs, dtype=complex))


def tilde(phi: Symbol):
    """The involution Phi~(z) = Phi*(conj(z)): each coefficient adjointed in place."""
    return Symbol.from_coeffs(phi.lo, phi.c.conj().transpose(0, 2, 1))


def to_json_dict(phi: Symbol):
    """The symbol file form that `Symbol.from_json_dict` reads."""
    return {
        "n": phi.n,
        "coeffs": [
            {
                "deg": j,
                "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in phi.coeff(j)],
            }
            for j in phi.support()
        ],
    }


def is_constant_diagonal(A, tol=1e-12):
    """Toeplitz test: every diagonal of the window is constant."""
    W = A.shape[0]
    for d in range(-W + 1, W):
        diag = np.diagonal(A, offset=d)
        if len(diag) > 1 and np.max(np.abs(diag - diag[0])) > tol:
            return False
    return True


def interpolation_residual(K: Symbol, nodes, A_data, B_data):
    """Max entrywise deviation of sum_l K^{(l)}(alpha)/l! A_{j-l} from B_j over the node equations.

    The jets K^{(l)}(alpha)/l! = sum_k binom(k, l) alpha^{k-l} K_k come
    straight from the coefficients, not from the solver's jet routine.
    """
    C = K.coeffs(0, max(K.hi, 0))
    worst = 0.0
    for (alpha, m), A, B in zip(nodes, A_data, B_data):
        jets = [sum((comb(k, l) * alpha ** (k - l) * C[k] for k in range(l, len(C))),
                    np.zeros((K.n, K.n), dtype=complex)) for l in range(m)]
        for j in range(m):
            lhs = sum(jets[l] @ A[j - l] for l in range(j + 1))
            worst = max(worst, float(np.max(np.abs(lhs - B[j]))))
    return worst


def kernel_inclusion_holds(phi: Symbol, tol=1e-9):
    """ker H_{Phi_+^*} inside ker H_{Phi_-^*}, by column spaces of the adjoint Hankel windows.

    A necessary condition for a nonempty candidate set (Gu-Hendricks-Rutherford
    2006): the ranks of H_+^* and [H_+^*, H_-^*] must agree, both counted above
    tol times the larger window norm (at least 1).
    """
    plus, minus = phi.split()
    W = max(*phi.degree_bounds(), 1) + 1
    HpA = hankel_window(plus.star(), W).block.conj().T
    HmA = hankel_window(minus.star(), W).block.conj().T
    scale = max(np.linalg.norm(HpA, 2), np.linalg.norm(HmA, 2), 1.0)
    r1 = np.linalg.matrix_rank(HpA, tol=tol * scale)
    return np.linalg.matrix_rank(np.hstack([HpA, HmA]), tol=tol * scale) == r1
