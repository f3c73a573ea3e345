"""Finite model of the compressed shift and the interpolation solver.

The compressed shift on the model space of a finite Blaschke product
theta (degree d) is represented by a d x d lower-triangular matrix whose
entries follow a closed-form product rule; an independent quadrature
compression of multiplication operators onto the model-space basis
arbitrates that rule and the matrix functional calculus.  Its circle
grid starts at GRID_START points and doubles up to the constant GRID_CAP.

The interpolation solver works node by node on the block lower-triangular
jet systems sum_l K_l A_{j-l} = B_j: forward substitution when A_0 is
invertible, else least squares on the row-major vec of the K_l, where
vec(K A) = (I kron A^T) vec(K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .rational import RationalFn, mul_ascending, poly_from_roots
from .symbols import Symbol

GRID_START = 512
GRID_CAP = 16384
QUAD_TOL = 1e-9


@dataclass
class TriangularModel:
    """Lower-triangular model of the compressed shift on d nodes."""

    zeros: list  # alpha_1..alpha_d in grouped order, repeats allowed
    matrix: np.ndarray  # d x d complex lower-triangular

    @property
    def d(self):
        return len(self.zeros)


def build_M(zeros) -> TriangularModel:
    """Model matrix for the listed contraction eigenvalues (|alpha| < 1).

    Diagonal alpha_j; strictly lower entries q_k q_j prod_{l=k+1}^{j-1}
    (-conj(alpha_l)).  Norm is at most 1 (it models a contraction), and
    the matrix agrees with the quadrature compression of multiplication
    by z on the model space.
    """
    zeros = [complex(a) for a in zeros]
    for a in zeros:
        if abs(a) >= 1.0:
            raise ValueError(f"model zero outside the open disk: {a}")
    d = len(zeros)
    q = np.array([np.sqrt(1.0 - abs(a) ** 2) for a in zeros])
    M = np.zeros((d, d), dtype=complex)
    for j in range(d):
        M[j, j] = zeros[j]
        for k in range(j):
            prod = 1.0 + 0.0j
            for l in range(k + 1, j):
                prod *= -np.conj(zeros[l])
            M[j, k] = q[k] * q[j] * prod
    return TriangularModel(zeros, M)


def tm_basis(theta: BlaschkeProduct):
    """Orthonormal model-space basis functions as rational functions.

    phi_j = q_j / (1 - conj(a_j) z) * b_{j-1} ... b_1 over the grouped
    zero list; the Gram matrix on a circle grid is the identity.
    """
    zeros = theta.zero_list()
    if len(zeros) < 1:
        raise ValueError("basis needs degree >= 1")
    out = []
    for j, a in enumerate(zeros):
        qj = np.sqrt(1.0 - abs(a) ** 2)
        num = poly_from_roots(zeros[:j], lead=qj)
        den = np.array([1.0 + 0.0j])
        for b in zeros[: j + 1]:
            den = mul_ascending(den, np.array([1.0, -np.conj(b)]))
        out.append(RationalFn(num, den))
    return out


def poly_of_M(P, model: TriangularModel):
    """Matrix polynomial evaluated at the model: sum_i kron(M^i, P_i).

    P is an analytic Symbol (support >= 0); the block layout places the
    model index outside and the matrix-coefficient index inside, matching
    the basis ordering (phi_j e_s) <-> index j*n + s.
    """
    if P.lo < 0:
        raise ValueError("functional calculus needs an analytic polynomial")
    n = P.n
    d = model.d
    out = np.zeros((n * d, n * d), dtype=complex)
    Mi = np.eye(d, dtype=complex)
    for Ai in P.coeffs(0, P.hi):
        if np.max(np.abs(Ai)) > 0:
            out += np.kron(Mi, Ai)
        Mi = Mi @ model.matrix
    return out


def eval_poly_at_contraction(P, M, tail_tol=1e-12, max_terms=2000):
    """sum_i kron(M^i, P_i) for a possibly long analytic expansion.

    Convergence at a strict contraction M is geometric; terms stop once
    the running power norm falls below tail_tol relative to the
    coefficient scale.  Used for rational calculus via truncated series.
    """
    if P.lo < 0:
        raise ValueError("needs analytic expansion")
    n = P.n
    d = M.shape[0]
    out = np.zeros((n * d, n * d), dtype=complex)
    Mi = np.eye(d, dtype=complex)
    for Ai in P.coeffs(0, min(P.hi, max_terms)):
        if np.max(np.abs(Ai)) > 0:
            out += np.kron(Mi, Ai)
        Mi = Mi @ M
        if np.linalg.norm(Mi, 2) < tail_tol:
            break
    return out


def compression_oracle(P, theta: BlaschkeProduct):
    """Quadrature matrix of the compressed multiplication operator.

    Entries <P phi_j e_s, phi_k e_r> on an equispaced circle grid of
    GRID_START points, doubled until the entrywise change is below
    QUAD_TOL; ArithmeticError when the grid would pass GRID_CAP first.
    This is the independent arbiter for build_M and poly_of_M.
    """
    prev = _compress_on_grid(P, theta, GRID_START)
    g = GRID_START * 2
    while g <= GRID_CAP:
        cur = _compress_on_grid(P, theta, g)
        if np.max(np.abs(cur - prev)) < QUAD_TOL:
            return cur
        prev = cur
        g *= 2
    raise ArithmeticError(f"quadrature did not converge below {QUAD_TOL} within grid cap {GRID_CAP}")


def _compress_on_grid(P, theta, g):
    t = 2 * np.pi * np.arange(g) / g
    basis = tm_basis(theta)
    d = len(basis)
    n = P.n
    V = np.stack([b(np.exp(1j * t)) for b in basis], axis=1)  # (g, d)
    Pv = P.eval_circle(t)  # (g, n, n)
    # out[(k,r),(j,s)] = mean_t conj(V[t,k]) V[t,j] Pv[t,r,s]
    out = np.einsum("tk,tj,trs->kjrs", np.conj(V), V, Pv) / g
    return out.transpose(0, 2, 1, 3).reshape(n * d, n * d)


@dataclass
class InterpolantK:
    """Matrix polynomial solving the per-node triangular data systems."""

    poly: Symbol  # analytic matrix polynomial, degree <= d-1
    nodes: list  # [(alpha_i, m_i)]
    data: list  # K_{i,j} matrices per node, data[i][j]
    lsq_nodes: list  # node indices where the leading data matrix was singular

    def degree(self):
        return max(self.poly.hi, 0)


class InterpolationInconsistent(ValueError):
    """Raised when a singular node system has no solution: the candidate
    set for the symbol is empty at that node, certifying non-hyponormality."""

    def __init__(self, node, residual):
        self.node = node
        self.residual = residual
        super().__init__(f"no interpolant exists at node {node} (residual {residual:.3e})")


def hermite_fejer_solve(nodes, A_data, B_data, n=None) -> InterpolantK:
    """Solve the block lower-triangular node systems and interpolate.

    nodes: [(alpha_i, m_i)] with distinct alpha_i.
    A_data[i][j], B_data[i][j]: n x n Taylor data A^{(j)}(alpha_i)/j! and
    (analytic target)^{(j)}(alpha_i)/j! for 0 <= j < m_i.

    Per node, forward substitution yields K_{i,j} with
    sum_l K_{i,l} A_{i,j-l} = B_{i,j}; a singular leading matrix A_{i,0}
    falls back to a least-squares solve over the whole node system and
    flags the node (the caller must verify membership explicitly).  An
    inconsistent singular system raises InterpolationInconsistent.

    The returned matrix polynomial has degree <= d-1 and matches the
    prescribed jets at every node.
    """
    nodes = [(complex(a), int(m)) for a, m in nodes]
    if n is None:
        n = np.asarray(A_data[0][0]).shape[0]
    Kdata = []
    lsq_nodes = []
    for i, (alpha, m) in enumerate(nodes):
        A = [np.asarray(A_data[i][j], dtype=complex) for j in range(m)]
        B = [np.asarray(B_data[i][j], dtype=complex) for j in range(m)]
        Ks, lsq = solve_node(alpha, A, B, n)
        if lsq:
            lsq_nodes.append(i)
        Kdata.append(Ks)
    poly = _assemble_interpolant(nodes, Kdata, n)
    return InterpolantK(poly, nodes, Kdata, lsq_nodes)


def solve_node(alpha, A, B, n):
    """(K_0, ..., K_{m-1}, least squares used) with sum_l K_l A_{j-l} = B_j at the node alpha:
    forward substitution when s_min(A_0) > 1e-9, else `_solve_node_lsq`, inconsistent above 1e-7."""
    smin = np.linalg.svd(A[0], compute_uv=False)[-1] if n > 0 else 0.0
    if smin > 1e-9:
        A0inv = np.linalg.inv(A[0])
        Ks = []
        for j in range(len(A)):
            S = B[j].copy()
            for l in range(1, j + 1):
                S -= Ks[j - l] @ A[l]
            Ks.append(S @ A0inv)
        return Ks, False
    Ks, residual = _solve_node_lsq(A, B, n)
    if residual > 1e-7:
        raise InterpolationInconsistent(alpha, residual)
    return Ks, True


def _solve_node_lsq(A, B, n):
    """Least-squares solve of the stacked node system for the K_{i,j}."""
    m = len(A)
    # unknown x = [vec(K_0); ...; vec(K_{m-1})], vec row-major
    # equation j: sum_l K_l A_{j-l} = B_j  ->  (I_n kron A_{j-l}^T) vec(K_l)
    rows = []
    for j in range(m):
        blocks = []
        for l in range(m):
            if 0 <= j - l < m:
                blocks.append(np.kron(np.eye(n), A[j - l].T))
            else:
                blocks.append(np.zeros((n * n, n * n), dtype=complex))
        rows.append(np.hstack(blocks))
    G = np.vstack(rows)
    rhs = np.concatenate([B[j].reshape(-1) for j in range(m)])
    x, *_ = np.linalg.lstsq(G, rhs, rcond=1e-12)
    residual = float(np.linalg.norm(G @ x - rhs))
    Ks = [x[l * n * n : (l + 1) * n * n].reshape(n, n) for l in range(m)]
    return Ks, residual


def _assemble_interpolant(nodes, Kdata, n):
    """Build the degree <= d-1 matrix polynomial from per-node jets.

    Standard osculating construction: per node i a polynomial weight
    p_i(z) = prod_{k != i} ((z - a_k)/(a_i - a_k))^{m_k}, corrected jet
    coefficients K'_{i,j} = K_{i,j} - sum_{k<j} K'_{i,k} p_i^{(j-k)}(a_i)/(j-k)!.
    """
    d = sum(m for _, m in nodes)
    acc = np.zeros((d, n, n), dtype=complex)  # ascending matrix coefficients
    for i, (alpha, m) in enumerate(nodes):
        # p_i as ascending scalar coefficients
        p = np.array([1.0 + 0.0j])
        for k, (beta, mk) in enumerate(nodes):
            if k == i:
                continue
            factor = np.array([-beta, 1.0]) / (alpha - beta)
            for _ in range(mk):
                p = mul_ascending(p, factor)
        pjets = _scalar_jets(p, alpha, m)
        Kprime = []
        for j in range(m):
            Kp = Kdata[i][j].copy()
            for k in range(j):
                Kp -= Kprime[k] * pjets[j - k]
            Kprime.append(Kp)
        # term_i(z) = (sum_j K'_{i,j} (z - alpha)^j) * p_i(z)
        shift_pow = np.array([1.0 + 0.0j])
        for j in range(m):
            term = mul_ascending(shift_pow, p)
            L = min(len(term), d)
            acc[:L] += Kprime[j] * term[:L, None, None]  # this operand order keeps the loop's bits
            shift_pow = mul_ascending(shift_pow, np.array([-alpha, 1.0]))
    return Symbol.from_coeffs(0, acc)


def _scalar_jets(p, z0, order):
    """[p(z0), p'(z0)/1!, ...] for an ascending-coefficient polynomial."""
    jets = np.zeros(order, dtype=complex)
    dp = p.copy()
    fact = 1.0
    for j in range(order):
        if j > 0:
            dp = np.polyder(dp[::-1])[::-1] if len(dp) > 1 else np.zeros(1, complex)
            fact *= j
        jets[j] = (np.polyval(dp[::-1], z0) if len(dp) else 0.0) / fact
    return jets


def interpolation_residual(K: InterpolantK):
    """Max deviation of the polynomial's jets from the prescribed data."""
    worst = 0.0
    n = K.poly.n
    C = K.poly.coeffs(0, max(K.poly.hi, 0))
    for i, (alpha, m) in enumerate(K.nodes):
        entry_jets = np.zeros((m, n, n), dtype=complex)
        for r in range(n):
            for s in range(n):
                entry_jets[:, r, s] = _scalar_jets(C[:, r, s], alpha, m)
        for j in range(m):
            worst = max(worst, float(np.max(np.abs(entry_jets[j] - K.data[i][j]))))
    return worst
