"""Decision engine for hyponormality, classification, and completions.

The main pipeline reduces a symbol to a finite contractivity test: solve
the node interpolation systems for a polynomial member K of the
candidate set, evaluate it at the triangular model of the compressed
shift, and compare the largest singular value against 1.  A
trigonometric polynomial (`Symbol`) is decided on its coefficient stack:
its one node is 0 and its model the nilpotent shift.  A rational symbol
is factored through diagonal Blaschke products and interpolated on their
Taylor jets; that general route is also the first one's test oracle.
Exact finite-window operators serve as the independent fallback oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blaschke as bl
from . import modelspace as ms
from . import operators as op
from .rational import RationalFn
from .symbols import Symbol, RationalSymbol, is_normal_symbol

CONTRACT_TOL = 1e-9
MARGINAL_TOL = 1e-6
RANK_TOL = 1e-8
MEMBERSHIP_TOL = 1e-9
NORMAL_TOL = 1e-9  # the exact self-commutator vanishes when no entry exceeds this


@dataclass
class HypoFactorization:
    """Inner/outer data of the two symbol parts.

    Phi_plus = (theta1 theta0) I_n A^* and Phi_minus = theta1 I_n B^* on
    the circle; theta1*theta0 is the least common inner multiple of the
    analytic entries' inner parts, theta1 that of the co-analytic side.
    A and B are grids of disk-analytic rational functions.
    """

    theta1: bl.BlaschkeProduct
    theta0: bl.BlaschkeProduct
    A: list
    B: list

    @property
    def theta_full(self):
        return bl.BlaschkeProduct(self.theta1.zeros + self.theta0.zeros)


@dataclass
class Verdict:
    """Tagged decision with its numeric certificate."""

    tag: str
    sigma_max: float | None = None
    defect: np.ndarray | None = None
    rank_defect: int | None = None
    witness: np.ndarray | None = None
    family: int | None = None
    notes: list = field(default_factory=list)


def _as_rational_symbol(phi):
    if isinstance(phi, RationalSymbol):
        return phi
    if isinstance(phi, Symbol):
        return RationalSymbol.from_symbol(phi)
    raise TypeError(f"expected a (rational) matrix symbol, got {type(phi)}")


def factorize(phi) -> HypoFactorization:
    """Decompose both symbol parts through diagonal inner functions.

    Entrywise coprime decompositions give the per-entry inner parts; the
    co-analytic inner part must divide the analytic one (a necessary
    condition for a nonempty candidate set), otherwise DivisibilityError
    is raised and the caller reports NotHyponormal.
    """
    R = _as_rational_symbol(phi)
    theta_plus, tau = _side_inner_lcm(R.plus)
    theta_minus, B = _coanalytic_factor(R)
    if not bl.divides(theta_minus, theta_plus):
        raise DivisibilityError(theta_minus.degree(), theta_plus.degree())
    theta0 = theta_plus.quotient(theta_minus)
    return HypoFactorization(theta_minus, theta0, _outer_grid(tau, theta_plus), B)


class DivisibilityError(ValueError):
    """Co-analytic inner part (degree m) does not divide the analytic one (degree N)."""

    def __init__(self, m, N):
        super().__init__(f"inner divisibility fails: degree {m} part does not divide degree {N} part")


def _side_inner_lcm(entries):
    """Per-entry coprime decompositions and their least common inner multiple."""
    parts = [[bl.coanalytic_decompose(f) for f in row] for row in entries]
    lcm = bl.BlaschkeProduct([])
    for row in parts:
        for theta, _ in row:
            lcm = bl.lcm(lcm, theta)
    return lcm, parts


def _outer_grid(parts, theta_side):
    """A with Phi_side = Theta_side A^*: entry (i, j) = b_{ji} * theta_side/theta_{ji}."""
    return [[RationalFn([0.0]) if b.is_zero() else b * theta_side.quotient(theta).as_rational()
             for theta, b in column] for column in zip(*parts)]


def _at_zeros(grid, theta):
    """The matrices grid(alpha), one per zero alpha of theta, of a grid of RationalFn."""
    return [np.array([[f(a) for f in row] for row in grid], dtype=complex) for a, _ in theta.zeros]


def _coanalytic_factor(R):
    """(Theta_minus, B) with Phi_minus = Theta_minus B^*, where Phi = Phi_minus^* + Phi_plus:
    conj(R.minus[i][j]) is Phi's co-analytic entry (i, j), so Phi_minus's (j, i) is R.minus[i][j]."""
    minus = [[R.minus[j][i] for j in range(R.n)] for i in range(R.n)]
    theta_minus, parts = _side_inner_lcm(minus)
    return theta_minus, _outer_grid(parts, theta_minus)


def _coanalytic_coprime(R):
    """(Theta_minus, ok, marginal): the coprimality certificate of R's co-analytic factorization."""
    theta_minus, B = _coanalytic_factor(R)
    return (theta_minus, *bl.coprime_matrix_check(_at_zeros(B, theta_minus)))


def verify_in_C(phi: Symbol, K: Symbol):
    """Membership of K in the candidate set: Phi - K Phi* is analytic.

    Checked on exact Fourier coefficients: every negative-degree
    coefficient of Phi - K Phi* has entrywise modulus <= MEMBERSHIP_TOL.
    """
    diff = phi - K * phi.star()
    neg = diff.coeffs(diff.lo, -1)
    return not neg.size or float(np.max(np.abs(neg))) <= MEMBERSHIP_TOL


def _interpolation_data(fact: HypoFactorization):
    """Node list plus the (m, n, n) Taylor jet stacks of A and theta0*B at each node."""
    t0 = fact.theta0.as_rational()
    target = [[t0 * f for f in row] for row in fact.B]

    def jets(grid, alpha, m):  # a contiguous stack, like the coefficient route's
        return np.array([[f.taylor_jets(alpha, m) for f in row] for row in grid],
                        dtype=complex).transpose(2, 0, 1).copy()

    nodes = fact.theta_full.zeros
    return nodes, [jets(fact.A, *node) for node in nodes], [jets(target, *node) for node in nodes]


class _ShiftRoute:
    """A trigonometric polynomial sum_{j=-m}^{N} A_j z^j, decided on its coefficient stack.

    Every inner factor is z^N, so the one node is 0 and the model is the
    nilpotent shift S on C^N.  Both routes read the entries `Symbol`
    pruned, so they solve the same numbers.
    """

    def __init__(self, S):
        self.S = S
        self.m, self.N = S.degree_bounds()
        self.analytic = self.m == 0

    def coanalytic_coprime(self):
        """(ok, marginal) for the inner part z^m, whose outer factor is A_{-m} at 0."""
        return bl.coprime_matrix_check([self.S.coeff(-self.m)])

    def factor(self):
        """The model degree N, or DivisibilityError when z^m does not divide z^N."""
        if self.m > self.N:
            raise DivisibilityError(self.m, self.N)
        return self.N

    def solve(self):
        """(K, least-squares nodes) from sum_{i=0}^{N-j} K_i A_{i+j}^* = A_{-j}, j = N..1: the node
        system at 0 with jets A_N^*, ..., A_1^* and A_{-N}, ..., A_{-1}, whose jets are K's coefficients."""
        N = self.N
        C = self.S.coeffs(-N, N)
        self.outer = C[:N:-1].transpose(0, 2, 1).conj()
        Ks, lsq = ms.solve_node(0j, self.outer, C[:N], self.S.n)
        return Symbol.from_coeffs(0, Ks), [0] if lsq else []

    def at_model(self, K):
        """sum_i kron(S^i, K_i): block (r, c) is K_{r-c}, zero above the diagonal."""
        N, n = self.N, self.S.n
        T = K.coeffs(1 - N, N - 1)[np.arange(N)[:, None] - np.arange(N) + N - 1]
        return T.transpose(0, 2, 1, 3).reshape(N * n, N * n)

    def outer_invertible(self):
        return bl.coprime_matrix_check([self.outer[0]])[0]


class _BlaschkeRoute:
    """A rational symbol: Blaschke factorization, Taylor jets at its zeros, product-rule model."""

    def __init__(self, R):
        self.R, self.S, self.analytic = R, R.to_symbol(), R.is_analytic()

    def coanalytic_coprime(self):
        return _coanalytic_coprime(self.R)[1:]

    def factor(self):
        self.fact = factorize(self.R)
        self.theta = self.fact.theta_full
        return self.theta.degree()

    def solve(self):
        return ms.hermite_fejer_solve(*_interpolation_data(self.fact))

    def at_model(self, K):
        return ms.poly_of_M(K, ms.build_M(self.theta.zero_list()))

    def outer_invertible(self):
        return bl.coprime_matrix_check(_at_zeros(self.fact.A, self.theta))[0]


def _route(phi):
    return _ShiftRoute(phi) if isinstance(phi, Symbol) else _BlaschkeRoute(_as_rational_symbol(phi))


def decide_hyponormal(phi, contract_tol=CONTRACT_TOL) -> Verdict:
    """Full decision pipeline for a matrix symbol.

    A trigonometric polynomial (`Symbol`) is decided on its coefficient
    stack at the nilpotent shift model, a `RationalSymbol` through its
    Blaschke factorization.  Order of gates, on both routes: symbol
    normality, inner divisibility, solvability of the node systems (an
    inconsistent one certifies an empty candidate set), candidate
    membership, contractivity of the interpolant at the shift model.  A
    sigma_max within 1 + contract_tol certifies Hyponormal with the
    defect matrix and its rank above RANK_TOL.  A sigma_max within 1 +
    max(MARGINAL_TOL, 10 contract_tol) is re-decided by the exact
    self-commutator window: NotHyponormal with its witness when it is
    not PSD, Hyponormal when it is certified PSD, Marginal otherwise.  A
    larger sigma_max is NotHyponormal whenever the compressed outer
    factor is invertible (always, for scalar symbols); otherwise the
    same window gives NotHyponormal with its witness, or Inconclusive.
    """
    return _decide_hyponormal(_route(phi), contract_tol)


def _decide_hyponormal(route, contract_tol=CONTRACT_TOL) -> Verdict:
    """`decide_hyponormal` along a `_ShiftRoute` or a `_BlaschkeRoute`."""
    S = route.S
    if not is_normal_symbol(S):
        return Verdict("NotHyponormal", notes=["symbol is not normal"])
    try:
        d = route.factor()
    except DivisibilityError as e:
        return Verdict("NotHyponormal", notes=[str(e)])
    if d == 0:
        # constant-inner symbol: the operator is a (shifted) analytic/constant one
        return Verdict("Hyponormal", sigma_max=0.0, defect=np.zeros((0, 0)), rank_defect=0,
                       notes=["trivial model space"])
    try:
        K, lsq_nodes = route.solve()
    except ms.InterpolationInconsistent as e:
        return Verdict("NotHyponormal", notes=[f"candidate set is empty: {e}"])
    notes = []
    if lsq_nodes:
        notes.append(f"least-squares fallback at nodes {lsq_nodes}")
    if not verify_in_C(S, K):
        notes.append("interpolant failed membership verification")
        return Verdict("Inconclusive", notes=notes)
    KM = route.at_model(K)
    sigma = float(np.linalg.svd(KM, compute_uv=False)[0]) if KM.size else 0.0
    if sigma <= 1.0 + contract_tol:
        defect = np.eye(KM.shape[0]) - KM.conj().T @ KM
        vals = np.linalg.eigvalsh(0.5 * (defect + defect.conj().T))
        rank = int(np.sum(vals > RANK_TOL))
        return Verdict("Hyponormal", sigma_max=sigma, defect=defect, rank_defect=rank, notes=notes)
    if sigma <= 1.0 + max(MARGINAL_TOL, contract_tol * 10):
        notes.append(f"contractivity marginal: sigma_max = {sigma:.12g}")
        rep = _window_oracle(S)
        if rep.verdict == "NotPSD":
            return Verdict("NotHyponormal", sigma_max=sigma, witness=rep.witness,
                           notes=notes + ["window oracle found a negative direction"])
        if rep.verdict == "PSD" and rep.exact:
            return Verdict("Hyponormal", sigma_max=sigma, notes=notes + ["window oracle exact PSD"])
        return Verdict("Marginal", sigma_max=sigma, notes=notes)
    # strict expansion: decide via the converse direction when available
    if S.n == 1:
        return Verdict("NotHyponormal", sigma_max=sigma,
                       notes=notes + ["interpolant is expansive at the model"])
    if route.outer_invertible():
        return Verdict("NotHyponormal", sigma_max=sigma,
                       notes=notes + ["interpolant is expansive; compressed outer factor invertible"])
    notes.append("outer factor singular at a model zero; converse unavailable")
    rep = _window_oracle(S)
    if rep.verdict == "NotPSD":
        return Verdict("NotHyponormal", sigma_max=sigma, witness=rep.witness,
                       notes=notes + ["window oracle found a negative direction"])
    notes.append(f"window oracle: {rep.verdict}")
    return Verdict("Inconclusive", sigma_max=sigma, notes=notes)


def _window_oracle(S: Symbol):
    m, N = S.degree_bounds()
    return op.k_hypo_window(S, 1, m + N + 1)


def commutator_max_entry(S: Symbol):
    """(figure, vanishes) of the exact self-commutator of S against NORMAL_TOL: its largest entry
    to four digits, or the cutoff when it vanishes, since below that the figure is rounding noise."""
    worst = float(np.max(np.abs(op.selfcommutator_exact(S).block)))
    vanishes = worst <= NORMAL_TOL
    return f"<= {NORMAL_TOL:.3e}" if vanishes else f"{worst:.3e}", vanishes


def classify_normal_or_analytic(phi) -> Verdict:
    """Normal-or-analytic classification under the coprimality hypothesis.

    Refuses (HypothesisNotMet) when the co-analytic factorization is not
    coprime.  Otherwise returns Analytic for vanishing co-analytic part,
    Normal for vanishing exact self-commutator (no entry above
    NORMAL_TOL), and Neither else.  In the Neither case a Hyponormal
    verdict together with an exact PSD squared-window test, on the window
    max(16, 4 bw + 4) for bandwidth bw, contradicts the classification
    guarantee and is flagged THEOREM-VIOLATION for the harness to count;
    a PSD window that is not exact certifies nothing.
    """
    route = _route(phi)
    if route.analytic:
        return Verdict("Analytic", notes=["co-analytic part vanishes"])
    ok, marginal = route.coanalytic_coprime()
    if not ok:
        return Verdict("HypothesisNotMet",
                       notes=["co-analytic factorization is not coprime; hypothesis not met"])
    notes = ["coprime factorization certified"]
    if marginal:
        notes.append("coprimality is marginal near the cutoff")
    S = route.S
    if is_normal_symbol(S) and commutator_max_entry(S)[1]:  # T_S normal needs S normal
        return Verdict("Normal", notes=notes)
    hypo = _decide_hyponormal(route)
    if hypo.tag == "Hyponormal":
        sq = op.square_hypo_window(S, max(16, 4 * S.bandwidth() + 4))
        if sq.verdict == "PSD" and sq.exact:
            return Verdict("Neither", notes=notes + [
                "THEOREM-VIOLATION: hyponormal with hyponormal square but neither normal nor analytic"
            ])
    return Verdict("Neither", notes=notes)


# -- completion problems -------------------------------------------------------


def _corner_symbol(phi: Symbol, psi: Symbol, d00, d11) -> Symbol:
    """2x2 symbol [[z^d00, phi], [psi, z^d11]] from scalar phi and psi."""
    lo, hi = min(phi.lo, psi.lo, d00, d11), max(phi.hi, psi.hi, d00, d11)
    c = np.zeros((hi - lo + 1, 2, 2), dtype=complex)
    c[:, 0, 1] = phi.coeffs(lo, hi)[:, 0, 0]
    c[:, 1, 0] = psi.coeffs(lo, hi)[:, 0, 0]
    c[d00 - lo, 0, 0] = c[d11 - lo, 1, 1] = 1.0
    return Symbol.from_coeffs(lo, c)


def double_conjugate_shift_symbol(phi: Symbol, psi: Symbol) -> Symbol:
    """2x2 symbol [[zbar, phi],[psi, zbar]] of the completion candidate."""
    return _corner_symbol(phi, psi, -1, -1)


def complete_ustar(phi: Symbol, psi: Symbol, window=24) -> Verdict:
    """Membership of (phi, psi) in the two normal-completion families.

    Both families are phi = alpha zbar + c z + beta with |c|^2 = 1 +
    |alpha|^2 and psi = omega phi with |omega| = 1, each equation held to
    1e-9 coefficientwise.  Family 1 has alpha = 0 and any such omega;
    family 2 has omega = exp(i(pi - 2 arg alpha)).  Members give a normal
    completion (exact self-commutator vanishes); non-members are
    cross-checked against the k = 2 window test, which must fail.
    """
    if phi.n != 1 or psi.n != 1:
        raise ValueError("completion entries must be scalar symbols")
    member, family = _family_membership(phi, psi, 1e-9)
    big = double_conjugate_shift_symbol(phi, psi)
    if member:
        figure, vanishes = commutator_max_entry(big)
        notes = [f"family {family} parameters; commutator max entry {figure}"]
        if vanishes:
            return Verdict("Normal", family=family, notes=notes)
        return Verdict("Inconclusive", family=family,
                       notes=notes + ["family parameters but nonzero commutator"])
    rep = op.k_hypo_window(big, 2, window)
    if rep.verdict == "NotPSD":
        return Verdict("NotKHyponormal", witness=rep.witness, family=None,
                       notes=["outside both families; k = 2 window is not PSD",
                              f"min eigenvalue {rep.min_eigenvalue:.6e}"])
    return Verdict("ConsistentUpToWindow", family=None,
                   notes=[f"outside both families; k = 2 window verdict {rep.verdict}"])


def _family_membership(phi: Symbol, psi: Symbol, tol):
    """(member, family) by the one rule of `complete_ustar`; family 1 reads omega as psi_1 / c."""
    if phi.lo < -1 or phi.hi > 1:
        return False, None
    alpha, c = phi.scalar_coeff(-1), phi.scalar_coeff(1)
    if abs(abs(c) - np.sqrt(1.0 + abs(alpha) ** 2)) > tol:
        return False, None
    family = 1 if abs(alpha) < 1e-6 else 2
    omega = psi.scalar_coeff(1) / c if family == 1 else np.exp(1j * (np.pi - 2.0 * np.angle(alpha)))
    if abs(abs(omega) - 1.0) > tol or not (psi - phi * omega).is_zero(tol):
        return False, None
    return True, family


def no_hypo_completion_shift_pair(phi: Symbol, psi: Symbol, window=16) -> Verdict:
    """No hyponormal completion exists for [[T_z, ?],[?, T_zbar]].

    Normality of [[z, phi],[psi, zbar]] forces phi = -conj(psi) on the
    circle; when that holds, the lower-right block of the self-commutator
    is the rank-one negative T_z T_zbar - 1, so the verdict is always
    NotHyponormal (with its witness) or NotNormalSymbol.
    """
    if phi.n != 1 or psi.n != 1:
        raise ValueError("completion entries must be scalar symbols")
    big = _corner_symbol(phi, psi, 1, -1)
    if not is_normal_symbol(big):
        return Verdict("NotNormalSymbol", notes=["completion symbol is not normal"])
    bw = big.bandwidth()
    W = max(window, bw + 2)
    com = op.selfcommutator_exact(big, W)
    block = com.block[1::2, 1::2]  # lower-right scalar component
    rep = op.positivity_report(block, W)
    return Verdict("NotHyponormal", witness=rep.witness,
                   notes=["lower-right commutator block is negative",
                          f"min eigenvalue {rep.min_eigenvalue:.6e}"])
