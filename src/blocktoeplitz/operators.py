"""Exact finite windows of Toeplitz/Hankel operators and positivity tests.

For trigonometric-polynomial symbols, Hankel operators have finite
support and Toeplitz operators are banded, so every commutator window
below is assembled so that the returned top-left block equals the
corresponding block of the infinite operator exactly: products are
computed on an inflated window and then compressed.  Hankel products
are formed on the nonzero leading corners of the Hankel windows only.

For a normal symbol (always for n = 1; for n > 1 when no coefficient of
Phi* Phi - Phi Phi* exceeds EXACT_TOL) the k-hyponormality block matrix
and the squared self-commutator are supported in a corner of
W* = k(bw + m + N) modes (k = 2 for the square test), whatever window
the caller asks for.  Exactness is read from that rule, and each window
test assembles one window: the W*-window of a normal symbol, decided
above W* and read as its W-corner below; for a non-normal symbol, never
exact, the W-window up to W* and above it the (W* + 1)-window, from
which the W-window is gathered and decided in band form, with no
product or dense eigensolve at W.  `k_hypo_window` gives the proofs.
A self-commutator window below bw is refused with a ValueError, and so
is, before anything is allocated, any window whose dense assembly would
exceed MAX_WINDOW_BYTES: self-commutator, k-step, squared (also when
non-normal) and the normal non-Toeplitz completion; a normal symbol's
window below W* whose W*-window would exceed it is decided alone, not
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .symbols import Symbol, is_normal_symbol

PSD_TOL = 1e-9
NOT_PSD_TOL = 1e-6
EXACT_TOL = 1e-11
MAX_WINDOW_BYTES = 1 << 30  # dense window budget: larger windows are refused up front


@dataclass
class WindowedOperator:
    """Finite section of an operator on vector Hardy space."""

    window: int  # number of scalar Fourier modes per component
    n: int  # matrix size of the symbol
    block: np.ndarray  # (n*window) x (n*window)
    exact: bool = False  # quadratic form supported inside the window


@dataclass
class PositivityReport:
    """Eigenvalue certificate for a windowed positivity test."""

    min_eigenvalue: float
    witness: np.ndarray | None
    verdict: str  # "PSD" | "NotPSD" | "Marginal"
    exact: bool = False
    window: int = 0
    notes: list = field(default_factory=list)


def toeplitz_window(phi: Symbol, W: int) -> WindowedOperator:
    """Block (i, j) = A_{i-j} for 0 <= i, j < W."""
    if W < 1:
        raise ValueError("window must be >= 1")
    n = phi.n
    r = phi.coeffs(-(W - 1), W - 1)[::-1]  # r[s] = A_{W-1-s}, so A_{i-j} = r[(W-1-i) + j]
    T = np.empty((W, n, W, n), dtype=complex)
    T[...] = _hankel_view(r, W)[::-1]
    return WindowedOperator(W, n, T.reshape(n * W, n * W), exact=False)


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


def _hankel_view(h, W):
    """(W, n, W, n) array whose block (i, j) is h[i + j], for a stack h of 2W - 1 blocks."""
    i = np.arange(W)
    return h[i[:, None] + i].transpose(0, 2, 1, 3)


def positivity_report(matrix, window, exact=False, psd_tol=PSD_TOL) -> PositivityReport:
    """Classify a Hermitian window by its minimum eigenvalue; see `_verdict`."""
    Hm = 0.5 * (matrix + matrix.conj().T)
    vals, vecs = scipy.linalg.eigh(Hm)
    lam = float(vals[0])
    verdict = _verdict(lam, max(abs(lam), abs(float(vals[-1]))), psd_tol)
    witness = None if verdict == "PSD" else _canonical_witness(vecs[:, 0])
    return PositivityReport(lam, witness, verdict, exact=exact, window=window)


def _verdict(lam, scale, psd_tol):
    """The PSD rule, for lambda_min and the 2-norm `scale` of a Hermitian window.

    PSD if lambda_min >= -psd_tol * (1 + scale); NotPSD below -NOT_PSD_TOL;
    Marginal in the dead zone between the two.
    """
    if lam >= -psd_tol * (1.0 + scale):
        return "PSD"
    return "NotPSD" if lam < -NOT_PSD_TOL else "Marginal"


def _canonical_witness(v):
    """Unit-norm eigenvector with its largest entry rotated to the positive axis."""
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def selfcommutator_exact(phi: Symbol, W: int | None = None) -> WindowedOperator:
    """Window of [T*, T] = H_{Phi*}* H_{Phi*} - H_Phi* H_Phi + T_{Phi*Phi - Phi Phi*}.

    For W >= bw the Hankel quadratic forms are fully inside the window,
    so the window is exact when the Toeplitz term vanishes: always for a
    scalar symbol, which commutes with its adjoint (no product is
    formed), and for n > 1 when no coefficient of Phi*Phi - Phi Phi*
    exceeds EXACT_TOL.  It is assembled once, at W.  A window below bw,
    or one whose dense assembly would exceed MAX_WINDOW_BYTES, is refused
    with a ValueError.
    """
    m, N = phi.degree_bounds()
    if W is None:
        W = m + N + 1
    if W < max(m, N):
        raise ValueError(f"window {W} too small for bandwidth {max(m, N)}")
    # the count of a k = 1 window at B = W: the Hankel difference and the Toeplitz window,
    # then eight of order nW (the positivity test's temporaries)
    _refuse_over_budget(phi.n, 1, W, W)
    star = phi.star()
    block = _hankel_difference(phi, star, W)
    exact = True
    if phi.n > 1:  # scalar symbols commute with their adjoint
        delta = star * phi - phi * star
        exact = delta.is_zero(EXACT_TOL)
        if not delta.is_zero():
            block += toeplitz_window(delta, W).block
    return WindowedOperator(W, phi.n, block, exact=exact)


def _hankel_difference(phi: Symbol, star: Symbol, W: int):
    """H_{Phi*}* H_{Phi*} - H_Phi* H_Phi on the W-window, from the nonzero Hankel corners."""
    Hs = _hankel_corner(star, W)
    H = _hankel_corner(phi, W)
    out = np.zeros((phi.n * W, phi.n * W), dtype=complex)
    out[: len(Hs), : len(Hs)] = Hs.conj().T @ Hs
    out[: len(H), : len(H)] -= H.conj().T @ H
    return out


def _hankel_corner(phi: Symbol, W: int):
    """The leading n*min(W, m) rows and columns of the Hankel W-window, outside which it is zero."""
    k = min(W, phi.degree_bounds()[0])
    return hankel_window(phi, k).block if k else np.zeros((0, 0), dtype=complex)


def _corner(window, k, nV, nW):
    """The leading nW corners of the k x k blocks of order nV, and whether nothing outside them
    exceeds EXACT_TOL."""
    blocks = window.reshape(k, nV, k, nV)
    outside = 0.0
    for i in range(k):  # block rows, so no temporary grows with k
        outside = max(outside, float(np.max(np.abs(blocks[i, nW:]))),
                      float(np.max(np.abs(blocks[i, :nW, :, nW:]))))
    # the corner must not keep `window` alive
    return np.ascontiguousarray(blocks[:, :nW, :, :nW].reshape(k * nW, k * nW)), outside <= EXACT_TOL


def _power_commutators(phi: Symbol, k: int, W: int):
    """k x k block matrix whose block (i, j) is the exact W-window of [T^{*(j+1)}, T^{i+1}].

    Computed from one inflated Toeplitz window: with bandwidth bw, a
    product of up to 2k factors spreads at most 2k*bw modes, so the
    inflated window W + 2k*bw + 1 makes the top-left W block exact.
    """
    B = W + 2 * k * phi.bandwidth() + 1
    _refuse_over_budget(phi.n, k, W, B)
    T = toeplitz_window(phi, B).block
    Ts = T.conj().T
    powT = [T]
    powTs = [Ts]
    for _ in range(k - 1):
        powT.append(powT[-1] @ T)
        powTs.append(powTs[-1] @ Ts)
    nW = phi.n * W
    out = np.empty((k * nW, k * nW), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i * nW : (i + 1) * nW, j * nW : (j + 1) * nW] = (
                powTs[j][:nW] @ powT[i][:, :nW] - powT[i][:nW] @ powTs[j][:, :nW])
    return out


def _window_bytes(n, k, W, B):
    """Bytes for a k x k block window of order n*W, from products on the inflated window B.

    16 bytes per complex entry of the 2k powers of T and T* on B and of
    eight matrices of order k*n*W: the products, the Hermitian part, and
    the copy and eigenvectors that `eigh` allocates.  On the band path
    the same estimate caps the order to be decided, not the bytes.
    """
    return 16 * (2 * k * (n * B) ** 2 + 8 * (k * n * W) ** 2)


def _refuse_over_budget(n, k, W, B):
    """Raise ValueError when `_window_bytes` exceeds MAX_WINDOW_BYTES."""
    nbytes = _window_bytes(n, k, W, B)
    if nbytes > MAX_WINDOW_BYTES:
        raise ValueError(f"window {W} (k={k}, n={n}, dense order {k * n * W}) needs about "
                         f"{nbytes / 2**30:.3g} GiB, over the {MAX_WINDOW_BYTES / 2**30:.3g} GiB budget")


def _support(phi: Symbol, k: int):
    """(L, D) = (k*bw, k(m + N)); the support corner is W* = L + D (see `k_hypo_window`)."""
    m, N = phi.degree_bounds()
    return k * max(m, N), k * (m + N)


def k_hypo_window(phi: Symbol, k: int, W: int, psd_tol=PSD_TOL) -> PositivityReport:
    """Positivity of the k x k block matrix of power commutators.

    Block (i, j) holds the W-window of [T^{*j}, T^i].  A NotPSD verdict
    certifies failure of k-hyponormality (compressions of PSD operators
    are PSD); a PSD verdict is exact only when the quadratic form is
    supported inside the window (see Certificate).

    Support corner.  Let Phi have support [-m, N] and bw = max(m, N),
    and write e_b for mode b.  Three facts:
      (1) T_Phi e_b = Phi z^b once b >= m (no mode of Phi z^b is cut), and
          likewise T_Phi* e_b = Phi* z^b once b >= N;
      (2) T_Phi raises the top mode of a vector by at most N, and T_Phi*
          by at most m;
      (3) for a pointwise-normal Phi, (Phi^j)* Phi^i = Phi^i (Phi^j)*.
    Take entry (a, b) of C = [T^{*j}, T^i] with i, j <= k.  By (2) the
    top mode of both products applied to e_b is at most b + iN + jm, so
    the entry vanishes for a - b > k(m + N); C* = [T^{*i}, T^j] gives the
    same for b - a.  If min(a, b) >= k*bw, (1) applied i (resp. j) times
    turns the entry into the L^2 pairings <Phi^i z^b, Phi^j z^a> -
    <(Phi^j)* z^b, (Phi^i)* z^a>, the coefficient of degree a - b of
    (Phi^j)* Phi^i - Phi^i (Phi^j)*, which is zero by (3).  So the entry
    vanishes unless min(a, b) < k*bw and |a - b| <= k(m + N), and every
    block lives in its leading W* = k(bw + m + N) modes.
    Certificate.  Exactness is read from the symbol: it is normal when
    n = 1, or when no coefficient of Phi* Phi - Phi Phi* exceeds
    EXACT_TOL (`is_normal_symbol`).  A normal symbol's W*-window is
    assembled once.  For W >= W* the W-window is that corner padded with
    zeros, so its lambda_min is min(lambda_corner, 0) and the witness is
    zero-padded in each block.  For W < W* its W-corner is decided, exact
    when nothing outside that corner exceeds EXACT_TOL (when the W*-window
    is over budget, the W-window is decided alone, not exact).  A
    non-normal symbol's Toeplitz term has unbounded support, so no window
    is exact: up to W* it is assembled at W, above W* gathered.
    Gather.  Facts (1) and (2) hold for every symbol, normal or not.  By
    (1) an entry with min(a, b) >= L = k*bw is the coefficient of degree
    a - b above, and by (2) it vanishes for |a - b| > D = k(m + N).  So
    entry (a, b) of the W-window is entry (a - s, b - s) of the
    (W* + 1)-window, s = max(0, min(a, b) - L): both modes are at most
    L + D = W*.  Ordered mode by mode, the W-window is Hermitian-banded
    with half-bandwidth k*n*(D + 1) - 1, and is decided in that form
    (`_band_report`) with no product or dense eigensolve at W.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bw = phi.bandwidth()
    if W < bw + 1:
        raise ValueError(f"window {W} too small for bandwidth {bw}")
    return _decide_window(lambda V: _power_commutators(phi, k, V), is_normal_symbol(phi, EXACT_TOL),
                          k, phi.n, W, *_support(phi, k), 2 * k * bw + 1, psd_tol)


def _decide_window(assemble, normal, k, n, W, L, D, pad, psd_tol):
    """Positivity of a k x k block window of order n*W, decided on its support corner W* = L + D.

    `assemble(V)` returns the exact V-window from products on a window
    inflated to V + pad.  It is called once, at W*, at W or, to gather a
    non-normal window above W*, at W* + 1; see `k_hypo_window`.
    """
    Ws = max(1, L + D)
    if W < Ws and _window_bytes(n, k, Ws, Ws + pad) > MAX_WINDOW_BYTES:
        normal = False  # the support corner is over budget: the W-window alone, not exact
    if not normal and W > Ws:  # no window is exact: gather the band from the support
        _refuse_over_budget(n, k, W, W + pad)  # the cap the dense W-window was held to
        rep = _band_report(assemble(L + D + 1), k, n, W, L, D, psd_tol)
    else:
        V = Ws if normal else W
        window, exact = assemble(V), normal
        if V > W:  # the W-corner of the support corner
            window, exact = _corner(window, k, n * V, n * W)
        rep = positivity_report(window, W, exact=exact, psd_tol=psd_tol)
        if W > V:  # the W-window is the support corner padded with zeros
            rep.min_eigenvalue = min(rep.min_eigenvalue, 0.0)
            if rep.witness is not None:
                padded = np.zeros((k, n * W), dtype=complex)
                padded[:, : n * V] = rep.witness.reshape(k, n * V)
                rep.witness = padded.ravel()
    if rep.verdict == "PSD" and not rep.exact:
        rep.notes.append("consistent up to window; support not certified")
    return rep


def _band_report(support, k, n, W, L, D, psd_tol):
    """Positivity of the W-window gathered from the exact (W* + 1)-window `support`, in band form.

    Every eigenvalue comes from `eigvals_banded`, so the PSD rule reads
    the same lambda_min and scale as on the dense window.  A witness is
    needed only when the verdict is not PSD: two steps of inverse
    iteration with `solve_banded`, shifted just below lambda_min, from
    a fixed seeded start, mapped back to block order.
    """
    ab, u = _band_gather(0.5 * (support + support.conj().T), k, n, W, L, D)
    vals = scipy.linalg.eigvals_banded(ab[u:], lower=True)
    lam = float(vals[0])
    scale = max(abs(lam), abs(float(vals[-1])))
    verdict = _verdict(lam, scale, psd_tol)
    witness = None
    if verdict != "PSD":
        order = ab.shape[1]
        # shifted below lambda_min by more than its rounding error, so the band LU stays regular
        ab[u] -= lam - order * np.finfo(float).eps * (1.0 + scale)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        for _ in range(2):
            v = scipy.linalg.solve_banded((u, u), ab, v)
            v /= np.linalg.norm(v)
        witness = _canonical_witness(v.reshape(W, k, n).transpose(1, 0, 2).ravel())
    return PositivityReport(lam, witness, verdict, exact=False, window=W)


def _band_gather(support, k, n, W, L, D):
    """The W-window gathered from the (W* + 1)-window `support`, as (ab, u) in LAPACK's band storage.

    Indices run mode by mode, (mode, block, component), so entry (I, J)
    sits at ab[u + I - J, J] with half-bandwidth u = k*n*(D + 1) - 1, and
    entry (a, b) of each block is entry (a - s, b - s) of `support`'s, with
    s = max(0, min(a, b) - L), whose largest mode is W* = L + D; any
    exact window of at least W* + 1 modes serves.  See `k_hypo_window`.
    """
    kn = k * n
    order, u = kn * W, kn * (D + 1) - 1
    V = support.shape[0] // kn  # W* + 1, or more
    blocks = support.reshape(k, V, n, k, V, n)
    J = np.arange(order)
    I = J + np.arange(-u, u + 1)[:, None]
    a, b = I // kn, J // kn
    s = np.maximum(0, np.minimum(a, b) - L)
    inside = (I >= 0) & (I < order) & (np.abs(a - b) <= D)
    ab = np.where(inside, blocks[I // n % k, np.where(inside, a - s, 0), I % n,
                                 J // n % k, np.where(inside, b - s, 0), J % n], 0)
    return ab, u


def square_window(phi: Symbol, W: int):
    """Exact W-window of T_Phi^2 via T_{Phi^2} - H_{Phi*}* H_Phi."""
    S = toeplitz_window(phi * phi, W).block
    Hs = _hankel_corner(phi.star(), W)
    H = _hankel_corner(phi, W)
    c = min(len(Hs), len(H))  # Hs* H sums over the rows where both corners are nonzero
    S[: len(Hs), : len(H)] -= Hs[:c].conj().T @ H[:c]
    return S


def square_hypo_window(phi: Symbol, W: int, psd_tol=PSD_TOL) -> PositivityReport:
    """Positivity of the self-commutator of T_Phi^2 on the window.

    T^2 is banded-plus-finite-rank, so the commutator window is exact
    after inflation; the verdict contract matches k_hypo_window.
    [T^{*2}, T^2] is block (2, 2) of the k = 2 matrix there, so the same
    support corner W* (with k = 2) and the same decision apply.  A
    non-normal W-window above W* is gathered with L = 2*bw and
    D = 2(m + N): one block, half-bandwidth n*(D + 1) - 1.
    """
    bw = phi.bandwidth()
    if W < 2 * bw + 1:
        raise ValueError(f"window {W} too small for squared bandwidth {2 * bw}")
    return _decide_window(lambda V: _square_commutator(phi, V), is_normal_symbol(phi, EXACT_TOL),
                          1, phi.n, W, *_support(phi, 2), 4 * bw + 4, psd_tol)


def _square_commutator(phi: Symbol, W: int):
    """Exact W-window of [T^2*, T^2]: products on a window inflated past the squared bandwidth."""
    B = W + 4 * phi.bandwidth() + 4
    _refuse_over_budget(phi.n, 1, W, B)
    S = square_window(phi, B)
    nW = phi.n * W
    return S[:, :nW].conj().T @ S[:, :nW] - S[:nW] @ S[:nW].conj().T


# -- normal non-Toeplitz completion of the double conjugate-shift corner ------

def _alpha_formula(m):
    return -(2.0 / 3.0) * (1.0 - (-0.5) ** m)


def completion_selfadjoint_part(W: int):
    """The self-adjoint B = D + C + C* making [[T_zbar, T_z+B], ...] normal.

    D = diag(0, a_1, a_2, ...) and C_{i, i+2n} = -a_{i+1} / 2^{n-1} with
    a_m = -(2/3)(1 - (-1/2)^m); these entries satisfy the commutation
    identity [T_z, B] = [T_zbar, B] exactly, entry by entry.  Refused
    with a ValueError when its four W x W arrays (D, C, D + C and the
    result) would exceed MAX_WINDOW_BYTES.
    """
    _refuse_completion_over_budget(W, 4)
    a = np.array([_alpha_formula(m) for m in range(1, W + 1)])
    B = np.diag(np.r_[0.0, a[:-1]])
    C = np.zeros((W, W))
    for nshift in range(1, W // 2 + 1):
        off = 2 * nshift
        i = np.arange(W - off)
        C[i, i + off] = np.ldexp(-a[: W - off], 1 - nshift)  # exact; 2.0**n overflows past n = 1023
    return B + C + C.T, C


def _refuse_completion_over_budget(W, arrays):
    """Raise ValueError when `arrays` real W x W arrays would exceed MAX_WINDOW_BYTES."""
    nbytes = 8 * arrays * W * W
    if nbytes > MAX_WINDOW_BYTES:
        raise ValueError(f"completion window {W} needs about {nbytes / 2**30:.3g} GiB, "
                         f"over the {MAX_WINDOW_BYTES / 2**30:.3g} GiB budget")


def normal_nontoeplitz_completion(W: int):
    """Assemble the normal non-Toeplitz completion on a window.

    Returns (T, residual): T is the 2x2 operator matrix window
    [[T_zbar, T_z + B], [T_z + B, T_zbar]] and residual is the largest
    entry of T_zbar B + B T_z - T_z B - B T_zbar over the interior
    sub-window [0, W - 2*log2(W)), where windowing effects cannot reach.
    Refused with a ValueError when the ten W x W arrays it holds at once
    (B, the shift, T_z + B, the 2W x 2W T, three products) would exceed
    MAX_WINDOW_BYTES.
    """
    if W < 8:
        raise ValueError("window must be >= 8")
    _refuse_completion_over_budget(W, 10)
    B, _ = completion_selfadjoint_part(W)
    S = np.diag(np.ones(W - 1), -1)  # forward shift window
    St = S.T
    E = S + B
    T = np.block([[St, E], [E, St]])
    R = St @ B + B @ S - S @ B - B @ St
    margin = 2 * int(np.ceil(np.log2(W)))
    k = max(1, W - margin)
    residual = float(np.max(np.abs(R[:k, :k])))
    return WindowedOperator(W, 2, T, exact=False), residual
