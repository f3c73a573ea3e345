import numpy as np
import pytest

from blocktoeplitz.blaschke import BlaschkeProduct
from blocktoeplitz.modelspace import (
    InterpolationInconsistent,
    build_M,
    compression_oracle,
    hermite_fejer_solve,
    poly_of_M,
    tm_basis,
)
from blocktoeplitz.symbols import Symbol
from reference import interpolation_residual


def random_blaschke(rng, dmax=5):
    d = int(rng.integers(1, dmax + 1))
    zeros = []
    left = d
    while left:
        a = complex(rng.normal(), rng.normal()) * 0.3
        if abs(a) >= 0.8:
            continue
        m = min(int(rng.integers(1, 3)), left)
        zeros.append((a, m))
        left -= m
    return BlaschkeProduct(1.0, zeros)


def gram_on_grid(funcs, grid=1024):
    t = 2 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * t)
    V = np.stack([f(z) for f in funcs], axis=1)
    return V.conj().T @ V / grid


def test_tm_basis_monomials():
    basis = tm_basis(BlaschkeProduct(1.0, [(0.0, 1)]))
    z = np.array([0.3 + 0.1j, -0.5j])
    np.testing.assert_allclose(basis[0](z), np.ones(2), atol=1e-14)
    basis = tm_basis(BlaschkeProduct(1.0, [(0.0, 2)]))
    np.testing.assert_allclose(basis[1](z), z, atol=1e-14)


def test_tm_basis_orthonormal():
    theta = BlaschkeProduct(1.0, [(0.5, 2)])
    G = gram_on_grid(tm_basis(theta))
    np.testing.assert_allclose(G, np.eye(2), atol=1e-8)
    rng = np.random.default_rng(0)
    for _ in range(4):
        theta = random_blaschke(rng)
        G = gram_on_grid(tm_basis(theta))
        np.testing.assert_allclose(G, np.eye(theta.degree()), atol=1e-8)


def test_build_M_examples():
    np.testing.assert_allclose(build_M([0.0, 0.0]), [[0, 0], [1, 0]], atol=1e-14)
    a = 0.3 - 0.4j
    np.testing.assert_allclose(build_M([a]), [[a]])
    np.testing.assert_allclose(build_M([a, a]), [[a, 0], [1 - abs(a) ** 2, a]], atol=1e-14)


def test_build_M_contraction_and_nilpotent():
    rng = np.random.default_rng(1)
    for _ in range(6):
        theta = random_blaschke(rng)
        M = build_M(theta.zero_list())
        assert np.linalg.norm(M, 2) <= 1.0 + 1e-10
    d = 4
    M = build_M([0.0] * d)
    np.testing.assert_allclose(np.linalg.matrix_power(M, d), np.zeros((d, d)))


def test_build_M_rejects_outside_zero():
    with pytest.raises(ValueError):
        build_M([1.1])
    with pytest.raises(ValueError):
        build_M([0.2, float("nan")])  # NaN fails every comparison, `abs(a) >= 1` too


def test_poly_of_M_examples():
    M = build_M([0.0, 0.0])
    K = Symbol.scalar({0: 0.5, 1: 0.75})
    np.testing.assert_allclose(poly_of_M(K, M), [[0.5, 0], [0.75, 0.5]], atol=1e-14)
    I2 = Symbol(2, {0: np.eye(2)})
    np.testing.assert_allclose(poly_of_M(I2, M), np.eye(4), atol=1e-14)
    zsym = Symbol.scalar({1: 1.0})
    np.testing.assert_allclose(poly_of_M(zsym, M), M, atol=1e-14)


def test_compression_oracle_examples():
    theta = BlaschkeProduct(1.0, [(0.0, 2)])
    C = compression_oracle(Symbol.scalar({1: 1.0}), theta)
    np.testing.assert_allclose(C, [[0, 0], [1, 0]], atol=1e-10)
    c = 1.3 - 0.2j
    C = compression_oracle(Symbol.scalar({0: c}), theta)
    np.testing.assert_allclose(C, c * np.eye(2), atol=1e-10)


def test_model_identity_random_sweep():
    # master invariant: functional calculus == quadrature compression
    rng = np.random.default_rng(2)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        theta = random_blaschke(rng)
        degP = int(rng.integers(0, 4))
        P = Symbol(n, {j: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                       for j in range(degP + 1)})
        M = build_M(theta.zero_list())
        np.testing.assert_allclose(
            poly_of_M(P, M), compression_oracle(P, theta), atol=1e-8
        )


def scalar_jets(*values):
    """(m, 1, 1) stack of scalar node data."""
    return np.array(values, dtype=complex).reshape(len(values), 1, 1)


def test_hermite_fejer_single_node_pair():
    # the worked degree-2 instance: A-data (2, 1), B-data (1, 2) at 0
    K, lsq_nodes = hermite_fejer_solve([(0.0, 2)], [scalar_jets(2, 1)], [scalar_jets(1, 2)])
    assert K.scalar_coeff(0) == pytest.approx(0.5)
    assert K.scalar_coeff(1) == pytest.approx(0.75)
    assert not lsq_nodes


def test_hermite_fejer_trivial_zero():
    K, _ = hermite_fejer_solve([(0.2, 1)], [scalar_jets(1)], [scalar_jets(0)])
    assert K.is_zero()


def test_hermite_fejer_random_residual():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        nnodes = int(rng.integers(1, 4))
        nodes = []
        total = 0
        while len(nodes) < nnodes and total < 6:
            a = complex(rng.normal(), rng.normal()) * 0.3
            if abs(a) > 0.8 or any(abs(a - b) < 0.2 for b, _ in nodes):
                continue
            m = int(rng.integers(1, 3))
            nodes.append((a, m))
            total += m
        A_data = []
        B_data = []
        for a, m in nodes:
            A_data.append(np.array([np.eye(n) * (2 + rng.normal()) + rng.normal(size=(n, n)) * 0.3
                                    for _ in range(m)]))
            B_data.append(np.array([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                                    for _ in range(m)]))
        K, _ = hermite_fejer_solve(nodes, A_data, B_data)
        d = sum(m for _, m in nodes)
        assert max(K.hi, 0) <= d - 1
        assert interpolation_residual(K, nodes, A_data, B_data) < 1e-9


def test_hermite_fejer_inconsistent_raises():
    # singular leading data with incompatible right side has no solution
    with pytest.raises(InterpolationInconsistent):
        hermite_fejer_solve([(0.0, 1)], [scalar_jets(0)], [scalar_jets(1)])


def test_hermite_fejer_lsq_flagged():
    # singular but consistent: solved in least squares, node flagged
    A0 = np.diag([1.0, 0.0])
    B0 = np.diag([1.0, 0.0])
    _, lsq_nodes = hermite_fejer_solve([(0.0, 1)], [A0[None]], [B0[None]])
    assert lsq_nodes == [0]


def test_hermite_fejer_singular_node_recovers_known_jets():
    # B from known K_0..K_2 with a singular, non-diagonal A_0: the least-squares
    # route must solve sum_l K_l A_{j-l} = B_j with K multiplying from the left
    rng = np.random.default_rng(3)
    cplx = lambda: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    A = np.array([np.outer(u, v), cplx(), cplx()])
    K_true = [cplx() for _ in range(3)]
    B = np.array([sum(K_true[l] @ A[j - l] for l in range(j + 1)) for j in range(3)])
    K, lsq_nodes = hermite_fejer_solve([(0.0, 3)], [A], [B])
    assert lsq_nodes == [0]
    assert interpolation_residual(K, [(0.0, 3)], [A], [B]) < 1e-9


def test_defect_unchanged_across_candidate_members():
    # two members differing by theta * h give identical defect at the model
    rng = np.random.default_rng(4)
    for _ in range(5):
        theta = random_blaschke(rng, dmax=3)
        M = build_M(theta.zero_list())
        d = theta.degree()
        K = Symbol.scalar({j: complex(rng.normal(), rng.normal()) * 0.4 for j in range(d)})
        h = Symbol.scalar({j: complex(rng.normal(), rng.normal()) for j in range(2)})
        # expand theta * h as a long analytic series
        trat = theta.as_rational()
        coeffs = trat.fourier_coeffs(1e-16)
        tsym = Symbol.scalar(dict(enumerate(coeffs)))
        K2 = K + tsym * h
        KM = poly_of_M(K, M)
        KM2 = poly_of_M(K2, M)
        D1 = np.eye(d) - KM.conj().T @ KM
        D2 = np.eye(d) - KM2.conj().T @ KM2
        np.testing.assert_allclose(D1, D2, atol=1e-8)


def test_defect_spectrum_invariant_under_zero_reordering():
    zeros = [0.2, -0.3 + 0.1j, 0.5j]
    K = Symbol.scalar({0: 0.3, 1: 0.2, 2: -0.1j})
    def spectrum(order):
        KM = poly_of_M(K, build_M(order))
        return np.sort(np.linalg.eigvalsh(np.eye(3) - KM.conj().T @ KM))
    s1 = spectrum(zeros)
    s2 = spectrum(zeros[::-1])
    np.testing.assert_allclose(s1, s2, atol=1e-10)


def test_vandermonde_interpolant_meets_unseparated_nodes():
    # identity A-stacks make the node jets K_{i,j} = B_{i,j}; nodes are drawn with no minimum
    # separation, so the confluent Vandermonde system can be ill-conditioned
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        count = int(rng.integers(1, 4))
        nodes = [(complex(rng.normal(), rng.normal()) * 0.3, int(rng.integers(1, 4))) for _ in range(count)]
        Kdata = [np.array([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(m)])
                 for _, m in nodes]
        A_data = [np.array([np.eye(n)] + [np.zeros((n, n))] * (m - 1)) for _, m in nodes]
        K, lsq_nodes = hermite_fejer_solve(nodes, A_data, Kdata)
        assert not lsq_nodes
        assert max(K.hi, 0) <= sum(m for _, m in nodes) - 1
        assert interpolation_residual(K, nodes, A_data, Kdata) < 1e-9
