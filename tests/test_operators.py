import numpy as np
import pytest

from blocktoeplitz import operators as op, suites
from blocktoeplitz.operators import (
    completion_selfadjoint_part,
    hankel_window,
    k_hypo_window,
    normal_nontoeplitz_completion,
    positivity_report,
    selfcommutator_exact,
    square_hypo_window,
    toeplitz_window,
)
from blocktoeplitz.symbols import Symbol
from reference import is_constant_diagonal, tilde

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_symbol(rng, n=1, m=2, N=2):
    coeffs = {}
    for j in range(-m, N + 1):
        coeffs[j] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Symbol(n, coeffs)


def hankel_difference(phi, W):
    """H_{Phi*}* H_{Phi*} - H_Phi* H_Phi on the W-window, as the library forms it."""
    return op._hankel_difference(phi, phi.star(), W)


def test_toeplitz_window_examples():
    T = toeplitz_window(Symbol.scalar({1: 1}), 2).block
    np.testing.assert_allclose(T, [[0, 0], [1, 0]])
    T = toeplitz_window(Symbol.scalar({-1: 1, 1: 2}), 3).block
    np.testing.assert_allclose(T, [[0, 1, 0], [2, 0, 1], [0, 2, 0]])
    T = toeplitz_window(Symbol(2, {-1: np.eye(2)}), 2).block
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = 1
    np.testing.assert_allclose(T, expect)


def test_hankel_window_examples():
    H = hankel_window(Symbol.scalar({-1: 1}), 3).block
    E = np.zeros((3, 3))
    E[0, 0] = 1
    np.testing.assert_allclose(H, E)
    # analytic part is invisible to the Hankel operator
    H2 = hankel_window(Symbol.scalar({-1: 1, 1: 2}), 3).block
    np.testing.assert_allclose(H2, E)
    assert hankel_window(Symbol.scalar({1: 5, 3: 2}), 4).block.max() == 0


def test_hankel_adjoint_is_tilde_hankel():
    rng = np.random.default_rng(0)
    phi = random_symbol(rng, n=2)
    W = 5
    H = hankel_window(phi, W).block
    Ht = hankel_window(tilde(phi), W).block
    np.testing.assert_allclose(H.conj().T, Ht, atol=1e-14)


def test_product_identity_on_interior_window():
    # T_{Phi Psi} - T_Phi T_Psi = H_{Phi*}* H_Psi on the interior
    rng = np.random.default_rng(1)
    phi = random_symbol(rng, n=2, m=1, N=2)
    psi = random_symbol(rng, n=2, m=2, N=1)
    W, pad = 6, 4
    B = W + pad
    lhs = toeplitz_window(phi * psi, B).block - (
        toeplitz_window(phi, B).block @ toeplitz_window(psi, B).block
    )
    rhs = hankel_window(phi.star(), B).block.conj().T @ hankel_window(psi, B).block
    n = 2
    np.testing.assert_allclose(lhs[: n * W, : n * W], rhs[: n * W, : n * W], atol=1e-12)


def test_selfcommutator_shift_and_trig():
    com = selfcommutator_exact(Symbol.scalar({1: 1}))
    assert com.exact
    E = np.zeros_like(com.block)
    E[0, 0] = 1
    np.testing.assert_allclose(com.block, E, atol=1e-14)
    com = selfcommutator_exact(Symbol.scalar({-1: 1, 1: 2}))
    E = np.zeros_like(com.block)
    E[0, 0] = 3
    np.testing.assert_allclose(com.block, E, atol=1e-14)


def test_selfcommutator_degree2_rank_one():
    phi = Symbol.scalar({-2: 1, -1: 2, 1: 1, 2: 2})
    com = selfcommutator_exact(phi)
    vals = np.linalg.eigvalsh(com.block)
    assert np.sum(np.abs(vals) > 1e-10) == 1
    assert vals[0] > -1e-12  # PSD


def test_selfcommutator_constant_shift_invariant():
    rng = np.random.default_rng(2)
    phi = random_symbol(rng, n=2)
    shifted = phi + Symbol(2, {0: (0.7 + 0.2j) * np.eye(2)})
    a = selfcommutator_exact(phi, 8).block
    b = selfcommutator_exact(shifted, 8).block
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pseudo_selfcommutator_identities():
    rng = np.random.default_rng(3)
    phi = random_symbol(rng, n=2)
    W = 8
    p1 = hankel_difference(phi, W)
    p2 = hankel_difference(phi.star(), W)
    np.testing.assert_allclose(p1, -p2, atol=1e-12)
    # normal symbol: pseudo commutator equals the true one
    good = Symbol(2, {-1: np.array([[1, -1], [0, 1]]), 1: np.array([[0, 0], [1, 0]])})
    np.testing.assert_allclose(
        hankel_difference(good, W), selfcommutator_exact(good, W).block, atol=1e-12
    )


def test_k_hypo_isometry_psd_all_k():
    phi = Symbol.scalar({1: 1})
    for k in (1, 2, 3):
        rep = k_hypo_window(phi, k, 8)
        assert rep.verdict == "PSD"
        assert rep.exact


def test_k_hypo_k1_matches_selfcommutator():
    phi = Symbol.scalar({-1: 1, 1: 2})
    rep = k_hypo_window(phi, 1, 8)
    assert rep.verdict == "PSD"
    assert rep.exact
    assert rep.min_eigenvalue > -1e-12


def test_k_hypo_matrix_gap_example():
    # hyponormal but not 2-hyponormal
    Phi = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})
    rep1 = k_hypo_window(Phi, 1, 10)
    assert rep1.verdict == "PSD"
    rep2 = k_hypo_window(Phi, 2, 10)
    assert rep2.verdict == "NotPSD"
    assert rep2.witness is not None


def test_k_hypo_monotone_in_window():
    Phi = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})
    r1 = k_hypo_window(Phi, 2, 8)
    r2 = k_hypo_window(Phi, 2, 12)
    assert r1.verdict == "NotPSD" and r2.verdict == "NotPSD"
    assert r2.min_eigenvalue <= r1.min_eigenvalue + 1e-9


def test_k_hypo_window_too_small():
    with pytest.raises(ValueError):
        k_hypo_window(Symbol.scalar({-2: 1, 2: 1}), 2, 2)


def test_square_hypo_gap_symbol():
    rep = square_hypo_window(Symbol.scalar({-1: 1, 1: 2}), 24)
    assert rep.verdict == "NotPSD"
    assert rep.min_eigenvalue < -1e-3
    assert rep.witness is not None


def test_square_hypo_analytic_psd():
    rep = square_hypo_window(Symbol.scalar({1: 2, 2: 1}), 12)
    assert rep.verdict == "PSD"


def test_square_hypo_direct_sum_normal_analytic():
    # diag(b + conj(b), b) with b = z: both the operator and its square hyponormal
    phi = Symbol(2, {1: np.eye(2), -1: np.diag([1.0, 0.0])})
    rep = square_hypo_window(phi, 16)
    assert rep.verdict == "PSD"
    rep1 = k_hypo_window(phi, 1, 16)
    assert rep1.verdict == "PSD"


def test_positivity_dead_zone():
    rep = positivity_report(np.diag([1.0, -1e-8]), 2)
    assert rep.verdict == "Marginal"
    rep = positivity_report(np.diag([1.0, -1e-3]), 2)
    assert rep.verdict == "NotPSD"
    np.testing.assert_allclose(rep.witness, [0, 1], atol=1e-12)
    rep = positivity_report(np.eye(2), 2)
    assert rep.verdict == "PSD"


def test_witness_quadratic_form_matches_eigenvalue():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 6))
    A = 0.5 * (A + A.T) - 0.8 * np.eye(6)
    rep = positivity_report(A, 6)
    assert rep.verdict == "NotPSD"
    form = float(np.real(rep.witness.conj() @ A @ rep.witness))
    assert abs(form - rep.min_eigenvalue) < 1e-9


def test_completion_construction():
    T, res = normal_nontoeplitz_completion(64)
    assert res <= 1e-6
    _, res128 = normal_nontoeplitz_completion(128)
    assert res128 <= res + 1e-12
    B, C = completion_selfadjoint_part(64)
    assert np.linalg.norm(C, 2) <= 2.0
    S = np.diag(np.ones(63), -1)
    assert not is_constant_diagonal(S + B)
    assert is_constant_diagonal(S)


def test_completion_rejects_small_window():
    with pytest.raises(ValueError):
        normal_nontoeplitz_completion(4)


def test_pseudo_selfcommutator_balanced_offdiagonal():
    # [[zbar, z],[z, zbar]]: both Hankel squares coincide, pseudo form is zero
    phi = Symbol(2, {-1: np.eye(2), 1: X})
    p = hankel_difference(phi, 6)
    np.testing.assert_allclose(p, 0.0, atol=1e-13)
    rep = positivity_report(p, 6)
    assert rep.verdict == "PSD"


def test_windows_match_block_definitions_on_gap_symbols():
    rng = np.random.default_rng(12)
    n = 2
    for degrees, W in (([-4, -1, 0, 3], 5), ([-3, 2, 5], 7), ([-6, -2], 3)):
        phi = Symbol(n, {j: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for j in degrees})
        T = toeplitz_window(phi, W).block
        H = hankel_window(phi, W).block
        for i in range(W):
            for j in range(W):
                np.testing.assert_array_equal(T[i * n : (i + 1) * n, j * n : (j + 1) * n], phi.coeff(i - j))
                np.testing.assert_array_equal(H[i * n : (i + 1) * n, j * n : (j + 1) * n], phi.coeff(-i - j - 1))


# -- windows decided on their support corner W* = k(bw + m + N) ---------------------------

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
GAP = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})  # hyponormal, not 2-hyponormal
NONNORMAL = Symbol(2, {-1: E12, 1: 2 * np.eye(2)})  # E12 zbar + 2z I


def normal_symbol(rng, kind):
    """Seeded normal symbols with m != N: scalar, U diag U*, analytic-only, co-analytic-only."""
    degrees = {"scalar": (1, 2), "unitary": (2, 1), "analytic": (0, 3), "coanalytic": (3, 0)}[kind]
    m, N = degrees
    if kind == "scalar":
        return Symbol.scalar({j: complex(*rng.normal(size=2)) for j in range(-m, N + 1)})
    U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return Symbol(2, {j: U @ np.diag(rng.normal(size=2) + 1j * rng.normal(size=2)) @ U.conj().T
                      for j in range(-m, N + 1)})


def support_corner(phi, k):
    m, N = phi.degree_bounds()
    return k * (max(m, N) + m + N)


def assert_matches_full_window(rep, full, W):
    """Verdict and lambda_min of the full W-window, and a witness of that window's order."""
    ref = positivity_report(full, W)
    assert rep.verdict == ref.verdict and rep.window == W
    assert abs(rep.min_eigenvalue - ref.min_eigenvalue) <= 1e-9 * max(1.0, abs(ref.min_eigenvalue))
    if rep.witness is not None:
        assert rep.witness.shape == (full.shape[0],)
        Hm = 0.5 * (full + full.conj().T)
        assert np.linalg.norm(Hm @ rep.witness - rep.min_eigenvalue * rep.witness) <= 1e-8


@pytest.mark.parametrize("kind", ["scalar", "unitary", "analytic", "coanalytic"])
def test_k_hypo_above_support_corner_matches_full_window(kind):
    rng = np.random.default_rng(40)
    for k in (1, 2, 3, 4):
        phi = normal_symbol(rng, kind)
        W = support_corner(phi, k) + 3
        rep = k_hypo_window(phi, k, W)
        assert rep.exact
        assert_matches_full_window(rep, op._power_commutators(phi, k, W), W)


@pytest.mark.parametrize("kind", ["scalar", "unitary", "analytic", "coanalytic"])
def test_square_hypo_above_support_corner_matches_full_window(kind):
    phi = normal_symbol(np.random.default_rng(41), kind)
    W = support_corner(phi, 2) + 5
    rep = square_hypo_window(phi, W)
    assert rep.exact
    assert_matches_full_window(rep, op._square_commutator(phi, W), W)


def test_exactness_survives_exact_scaling():
    # scaling by 2^e is exact in floating point, so it cannot change whether a window is exact
    for i in range(100):
        phi = suites.random_scalar_trig(np.random.default_rng([1, i]), max_deg=4)
        for k in (1, 2):
            W = support_corner(phi, k) + 2
            for scale in (1.0, 2.0**10, 2.0**20):
                assert k_hypo_window(scale * phi, k, W).exact


def test_nonnormal_symbol_is_assembled_at_the_window_and_not_exact():
    for k, W in ((1, 9), (2, 12)):
        rep = k_hypo_window(NONNORMAL, k, W)
        assert not rep.exact
        assert_matches_full_window(rep, op._power_commutators(NONNORMAL, k, W), W)
    rep = square_hypo_window(NONNORMAL, 14)
    assert not rep.exact
    assert_matches_full_window(rep, op._square_commutator(NONNORMAL, 14), 14)


def test_certified_path_solves_only_the_support_corner(monkeypatch):
    orders = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        orders.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for k in (1, 2, 3, 4):
        orders.clear()
        rep = k_hypo_window(GAP, k, 64)
        assert rep.exact and orders
        assert max(orders) <= k * 2 * support_corner(GAP, k)
    orders.clear()
    rep = square_hypo_window(Symbol.scalar({-1: 1, 1: 2}), 256)
    assert rep.exact and rep.verdict == "NotPSD"
    assert max(orders) <= support_corner(Symbol.scalar({-1: 1, 1: 2}), 2)


def test_huge_window_refused_unless_decided_on_the_corner():
    with pytest.raises(ValueError, match="budget"):
        k_hypo_window(NONNORMAL, 2, 10**5)
    with pytest.raises(ValueError, match="budget"):
        square_hypo_window(NONNORMAL, 10**5)
    rep = k_hypo_window(GAP, 2, 10**5)
    assert rep.verdict == "NotPSD" and rep.exact
    assert rep.witness.shape == (2 * 2 * 10**5,)
    assert abs(rep.min_eigenvalue - k_hypo_window(GAP, 2, 10).min_eigenvalue) <= 1e-9


def test_corner_hankel_products_match_dense_products():
    rng = np.random.default_rng(42)
    for m, N, W in ((3, 1, 6), (1, 3, 6), (4, 2, 3), (0, 2, 4)):
        phi = random_symbol(rng, n=2, m=m, N=N)
        Hs = hankel_window(phi.star(), W).block
        H = hankel_window(phi, W).block
        np.testing.assert_allclose(hankel_difference(phi, W),
                                   Hs.conj().T @ Hs - H.conj().T @ H, atol=1e-12)
        np.testing.assert_allclose(op.square_window(phi, W),
                                   toeplitz_window(phi * phi, W).block - Hs.conj().T @ H, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_selfcommutator_is_hankel_difference_plus_toeplitz_term(n, monkeypatch):
    rng = np.random.default_rng(30 + n)
    mul = Symbol.__mul__
    calls = []

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    for m, N in ((1, 2), (2, 1), (3, 3), (0, 2)):
        phi = random_symbol(rng, n=n, m=m, N=N)
        star = phi.star()
        delta = star * phi - phi * star
        W = m + N + 1
        monkeypatch.setattr(Symbol, "__mul__", counting_mul)
        calls.clear()
        com = selfcommutator_exact(phi)
        monkeypatch.setattr(Symbol, "__mul__", mul)
        assert len(calls) == (0 if n == 1 else 2)  # a scalar symbol commutes with its adjoint
        np.testing.assert_allclose(
            com.block, hankel_difference(phi, W) + toeplitz_window(delta, W).block,
            rtol=0, atol=1e-12)


def test_selfcommutator_huge_window_refused_up_front():
    phi = Symbol.scalar({-1: 1, 1: 2})
    with pytest.raises(ValueError, match=r"window 100000 .*n=1.*GiB.*budget"):
        selfcommutator_exact(phi, 10**5)
    com = selfcommutator_exact(phi)
    assert com.window == 3 and com.exact
    np.testing.assert_allclose(com.block, np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_selfcommutator_assembles_once_at_the_window(monkeypatch):
    built = []
    hankel_difference, toeplitz = op._hankel_difference, op.toeplitz_window

    def recording_hankel_difference(phi, star, W):
        built.append(("hankel", W))
        return hankel_difference(phi, star, W)

    def recording_toeplitz(phi, W):
        built.append(("toeplitz", W))
        return toeplitz(phi, W)

    monkeypatch.setattr(op, "_hankel_difference", recording_hankel_difference)
    monkeypatch.setattr(op, "toeplitz_window", recording_toeplitz)
    com = selfcommutator_exact(NONNORMAL, 5)
    assert built == [("hankel", 5), ("toeplitz", 5)]
    assert com.window == 5 and not com.exact and com.block.flags.c_contiguous
    monkeypatch.undo()
    star = NONNORMAL.star()
    np.testing.assert_array_equal(com.block, op._hankel_difference(NONNORMAL, star, 5)
                                  + toeplitz_window(star * NONNORMAL - NONNORMAL * star, 5).block)


def test_selfcommutator_window_below_bandwidth_refused():
    with pytest.raises(ValueError, match=r"window 1 too small for bandwidth 2"):
        selfcommutator_exact(Symbol.scalar({-2: 1, 1: 2}), 1)
    assert selfcommutator_exact(Symbol.scalar({-2: 1, 1: 2}), 2).exact


def _strided_view(h, W):
    # the sliding-window form the index gather in `_hankel_view` replaced
    return np.lib.stride_tricks.sliding_window_view(h, W, axis=0).transpose(0, 1, 3, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_windows_match_sliding_window_form(n):
    rng = np.random.default_rng(70 + n)
    for W in range(1, 7):
        for m, N in ((0, 2), (2, 1), (3, 3), (5, 4)):
            phi = random_symbol(rng, n=n, m=m, N=N)
            T = _strided_view(phi.coeffs(-(W - 1), W - 1)[::-1], W)[::-1]
            assert np.array_equal(toeplitz_window(phi, W).block, T.reshape(n * W, n * W))
            H = np.zeros((W, n, W, n), dtype=complex)
            k = min(W, m)
            if k:
                H[:k, :, :k] = _strided_view(phi.coeffs(-(2 * k - 1), -1)[::-1], k)
            assert np.array_equal(hankel_window(phi, W).block, H.reshape(n * W, n * W))


# -- non-normal windows above W*: gathered from the (W* + 1)-window, in band form --------

NONNORMAL_GRID = [(n, m, N) for n in (1, 2) for m in (0, 1, 2) for N in (1, 2)]
K_OR_SQUARE = [1, 2, 3, 4, None]  # k, or None for the square test


def seeded_symbol(n, m, N):
    return 0.5 * random_symbol(np.random.default_rng(100 + 9 * n + 3 * m + N), n=n, m=m, N=N)


def dense_window(phi, k, W):
    """The dense W-window of the k-test, or of the square test for k None."""
    return op._square_commutator(phi, W) if k is None else op._power_commutators(phi, k, W)


def decide_and_assemble(phi, k, W, **tols):
    rep = square_hypo_window(phi, W, **tols) if k is None else k_hypo_window(phi, k, W, **tols)
    return rep, dense_window(phi, k, W)


def dense_from_band(ab, u, k, n, W):
    """The block-ordered dense window of a gathered band, for comparison."""
    order = ab.shape[1]
    dense = np.zeros((order, order), dtype=complex)
    J = np.arange(order)
    for d in range(-u, u + 1):
        I = J + d
        ok = (I >= 0) & (I < order)
        dense[I[ok], J[ok]] = ab[u + d, J[ok]]
    perm = np.arange(order).reshape(W, k, n).transpose(1, 0, 2).ravel()  # block order -> mode order
    return dense[np.ix_(perm, perm)]


@pytest.mark.parametrize("n, m, N", NONNORMAL_GRID)
def test_gathered_window_equals_dense_window(n, m, N):
    phi = seeded_symbol(n, m, N)
    for k in K_OR_SQUARE:
        L, D = op._support(phi, k or 2)
        Ws = L + D
        blocks = k or 1
        big = dense_window(phi, k, 2 * Ws)
        for W in (Ws + 1, Ws + 17, 3 * Ws):
            full = dense_window(phi, k, W)
            ab, u = op._band_gather(big, blocks, n, W, L, D)
            assert u == blocks * n * (D + 1) - 1
            gathered = dense_from_band(ab, u, blocks, n, W)
            assert np.max(np.abs(gathered - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("n, m, N", NONNORMAL_GRID)
def test_band_path_matches_full_window(n, m, N):
    phi = seeded_symbol(n, m, N)
    for k in K_OR_SQUARE:
        L, D = op._support(phi, k or 2)
        for W in (L + D + 1, L + D + 17, 3 * (L + D)):
            rep, full = decide_and_assemble(phi, k, W)
            assert rep.exact == (n == 1)  # scalar symbols are normal; these 2x2 ones are not
            assert_matches_full_window(rep, full, W)


def test_constant_nonnormal_symbol_is_decided_in_band_form():
    # L = D = 0 while W* = 1: the band is block diagonal in the modes
    phi = Symbol(2, {0: E12})
    for k in (1, 2, 3):
        rep, full = decide_and_assemble(phi, k, 7)
        assert not rep.exact
        assert_matches_full_window(rep, full, 7)


def scaled_nonnormal(eps):
    return Symbol(2, {-1: eps * E12, 1: 2 * eps * np.eye(2)})


def test_band_path_reaches_every_verdict_as_the_dense_rule_does():
    W = 20
    seen = set()
    # scaled down, lambda_min lands between -NOT_PSD_TOL and the PSD bound: about -9.0e-8 for
    # the k = 2 window at eps = 3e-4 and -1.6e-7 for the square window at eps = 1e-2
    cases = [(NONNORMAL, k, tols) for k in (2, None) for tols in ({}, {"psd_tol": 1.0})]
    cases += [(scaled_nonnormal(3e-4), 2, {}), (scaled_nonnormal(1e-2), None, {})]
    for phi, k, tols in cases:
        rep, full = decide_and_assemble(phi, k, W, **tols)
        ref = positivity_report(full, W, **tols)
        assert not rep.exact and rep.verdict == ref.verdict
        assert abs(rep.min_eigenvalue - ref.min_eigenvalue) <= 1e-9 * max(1.0, abs(ref.min_eigenvalue))
        assert (rep.witness is None) == (ref.witness is None)
        if rep.witness is not None:
            Hm = 0.5 * (full + full.conj().T)
            assert np.linalg.norm(Hm @ rep.witness - rep.min_eigenvalue * rep.witness) <= 1e-8
        else:
            assert rep.notes == ["consistent up to window; support not certified"]
        seen.add(rep.verdict)
    assert seen == {"PSD", "Marginal", "NotPSD"}


def test_band_witness_is_bitwise_repeatable():
    for k in (1, 3, None):
        a, _ = decide_and_assemble(NONNORMAL, k, 40)
        b, _ = decide_and_assemble(NONNORMAL, k, 40)
        assert a.verdict == "NotPSD" and np.array_equal(a.witness, b.witness)


def recording_assemblies(monkeypatch):
    """The windows at which the k-test and the square test assemble, in call order."""
    windows = []
    power, square = op._power_commutators, op._square_commutator

    def recording_power(phi, k, W):
        windows.append(W)
        return power(phi, k, W)

    def recording_square(phi, W):
        windows.append(W)
        return square(phi, W)

    monkeypatch.setattr(op, "_power_commutators", recording_power)
    monkeypatch.setattr(op, "_square_commutator", recording_square)
    return windows


def test_nonnormal_branch_assembles_once_past_the_support_corner(monkeypatch):
    windows = recording_assemblies(monkeypatch)

    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh on the non-normal branch")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for k in (1, 2, 3, None):
        windows.clear()
        rep = k_hypo_window(NONNORMAL, k, 128) if k else square_hypo_window(NONNORMAL, 128)
        L, D = op._support(NONNORMAL, k or 2)
        assert not rep.exact and rep.verdict == "NotPSD"
        assert windows == [L + D + 1]


def test_normal_symbol_assembles_once_at_the_support_corner(monkeypatch):
    windows = recording_assemblies(monkeypatch)
    for k in (1, 2, 3):
        Ws = support_corner(GAP, k)
        for W in (Ws - 2, Ws + 5):
            windows.clear()
            rep = k_hypo_window(GAP, k, W)
            assert rep.exact and rep.window == W
            assert windows == [Ws]
    # a support corner over budget (W* = 300, dense order 3000) is not assembled: the
    # W-window is decided alone and is not exact
    windows.clear()
    rep = k_hypo_window(Symbol.scalar({-10: 1, 10: 1}), 10, 12)
    assert windows == [12] and not rep.exact and rep.verdict == "PSD"
