import json

import numpy as np
import pytest

from blocktoeplitz.rational import RationalFn
from blocktoeplitz.symbols import (
    Symbol,
    RationalSymbol,
    is_normal_symbol,
)
from reference import sup_norm, tilde, to_json_dict

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_symbol(rng, n=2, m=2, N=2):
    coeffs = {}
    for j in range(-m, N + 1):
        coeffs[j] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Symbol(n, coeffs)


def test_fourier_coeff_scalar():
    phi = Symbol.scalar({-1: 1, 1: 2})
    assert phi.coeff(1)[0, 0] == 2
    assert phi.coeff(0)[0, 0] == 0


def test_fourier_coeff_matrix_offdiag():
    phi = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})
    np.testing.assert_allclose(phi.coeff(-2), X)


def test_split_example():
    phi = Symbol.scalar({-2: 1, -1: 2, 1: 1, 2: 2})
    plus, minus = phi.split()
    assert plus.support() == [1, 2]
    assert minus.scalar_coeff(1) == 2
    assert minus.scalar_coeff(2) == 1


def test_split_trivials():
    plus, minus = Symbol.scalar({1: 1}).split()
    assert minus.is_zero()
    phi = Symbol(2, {-1: np.eye(2)})
    plus, minus = phi.split()
    assert plus.is_zero()
    np.testing.assert_allclose(minus.coeff(1), np.eye(2))


def test_split_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(5):
        phi = random_symbol(rng)
        plus, minus = phi.split()
        assert (minus.star() + plus - phi).is_zero(1e-14)


def test_tilde_involution_and_antihomomorphism():
    rng = np.random.default_rng(1)
    phi = random_symbol(rng)
    psi = random_symbol(rng)
    assert (tilde(tilde(phi)) - phi).is_zero(1e-14)
    assert (tilde(phi * psi) - tilde(psi) * tilde(phi)).is_zero(1e-12)


def test_multiply_examples():
    z = Symbol.scalar({1: 1})
    zbar = Symbol.scalar({-1: 1})
    assert (z * zbar).scalar_coeff(0) == 1
    sq = Symbol.scalar({-1: 1, 1: 2}) * Symbol.scalar({-1: 1, 1: 2})
    assert sq.scalar_coeff(-2) == 1
    assert sq.scalar_coeff(0) == 4
    assert sq.scalar_coeff(2) == 4


def test_multiply_distributes():
    rng = np.random.default_rng(2)
    a, b, c = (random_symbol(rng) for _ in range(3))
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert (lhs - rhs).is_zero(1e-10)


def test_normality_scalar_always():
    assert is_normal_symbol(Symbol.scalar({-3: 1j, 2: 5}))


def test_normality_matrix_cases():
    # [[zbar, -conj(psi)],[psi, zbar]] with psi = z is normal
    good = Symbol(2, {-1: np.array([[1, -1], [0, 1]]), 1: np.array([[0, 0], [1, 0]])})
    assert is_normal_symbol(good)
    # mixed-shift diagonal [[z, z],[z, zbar]]: needs phi = -conj(psi), violated
    bad = Symbol(2, {1: np.array([[1, 1], [1, 0]]), -1: np.array([[0, 0], [0, 1]])})
    assert not is_normal_symbol(bad)
    # [[zbar, z],[z, zbar]] has equal moduli off the diagonal: normal
    assert is_normal_symbol(Symbol(2, {-1: np.eye(2), 1: X}))


def test_normality_constant_shift_invariant():
    rng = np.random.default_rng(3)
    phi = random_symbol(rng)
    shifted = phi + Symbol(2, {0: (1.7 - 0.3j) * np.eye(2)})
    assert is_normal_symbol(phi) == is_normal_symbol(shifted)
    d1 = phi.star() * phi - phi * phi.star()
    d2 = shifted.star() * shifted - shifted * shifted.star()
    assert (d1 - d2).is_zero(1e-10)


def test_sup_norm_values():
    assert abs(sup_norm(Symbol.scalar({1: 1})) - 1.0) < 1e-12
    k = Symbol.scalar({0: 0.5, 1: 0.75})
    assert abs(sup_norm(k) - 1.25) < 1e-12
    K = Symbol(2, {0: 0.5 * np.eye(2), 1: 0.5 * X})
    assert abs(sup_norm(K) - 1.0) < 1e-12


def test_sup_norm_grid_refinement():
    phi = Symbol.scalar({-2: 0.3, 1: 1, 3: 0.2j})
    a = sup_norm(phi, grid=4096)
    b = sup_norm(phi, grid=8192)
    assert b >= a - 1e-15
    assert abs(b - a) < 1e-6


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    phi = random_symbol(rng)
    back = Symbol.from_json_dict(json.loads(json.dumps(to_json_dict(phi))))
    assert back.n == phi.n
    assert (phi - back).is_zero(0.0)


def test_rational_symbol_roundtrip():
    # symbol with a genuine rational entry: conj(minus) + plus on the circle
    plus = RationalFn([0.5, 1.0], [1.0, 0.5])
    minus = RationalFn([0.0, 1.0])
    sym = RationalSymbol(1, [[plus]], [[minus]]).to_symbol()
    t = 2 * np.pi * np.arange(257) / 257
    z = np.exp(1j * t)
    direct = np.conj(minus(z)) + plus(z)
    vals = sym.eval_circle(t)[:, 0, 0]
    np.testing.assert_allclose(vals, direct, atol=1e-12)


def test_rational_symbol_matrix_embedding():
    phi = Symbol(2, {-1: np.eye(2), 2: X})
    R = RationalSymbol.from_symbol(phi)
    assert (phi - R.to_symbol()).is_zero(1e-13)


def test_rational_symbol_embedding_keeps_nonsymmetric_coanalytic_entries():
    # conj(minus[i][j]) is entry (i, j) of the co-analytic part, in both directions
    phi = Symbol(2, {-2: np.array([[1, 2j], [0, 0]]), -1: np.array([[0, 3], [-1, 1j]]), 1: X})
    assert (phi - RationalSymbol.from_symbol(phi).to_symbol()).is_zero(1e-13)


def test_multiply_associative():
    rng = np.random.default_rng(9)
    a, b, c = (random_symbol(rng) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).is_zero(1e-9)


def test_sup_norm_rejects_coarse_grid():
    phi = Symbol.scalar({-4: 1, 4: 1})
    with pytest.raises(ValueError):
        sup_norm(phi, grid=5)


def gap_symbol(rng, degrees, n=2):
    """Random symbol supported exactly on `degrees` (interior gaps allowed)."""
    return Symbol(n, {j: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for j in degrees})


def test_pruning_and_support():
    phi = Symbol.scalar({-3: 1, 0: 1e-13, 2: 1})
    assert phi.support() == [-3, 2]
    assert phi.degree_bounds() == (3, 2)
    assert phi.coeff(0)[0, 0] == 0
    assert Symbol.scalar({-1: 1e-13, 4: 1e-14}).is_zero()
    assert Symbol.scalar({-1: 1e-13, 4: 1e-14}).support() == []


def test_dense_algebra_matches_coefficient_reference():
    rng = np.random.default_rng(11)
    for _ in range(5):
        da = sorted(rng.choice(np.arange(-5, 6), size=4, replace=False).tolist())
        db = sorted(rng.choice(np.arange(-6, 4), size=3, replace=False).tolist())
        a, b = gap_symbol(rng, da), gap_symbol(rng, db)
        assert a.support() == da and b.support() == db
        # Cauchy product, one pair of coefficients at a time
        prod = {}
        for j in da:
            for k in db:
                prod[j + k] = prod.get(j + k, 0) + a.coeff(j) @ b.coeff(k)
        ab = a * b
        for d in range(da[0] + db[0] - 1, da[-1] + db[-1] + 2):
            np.testing.assert_allclose(ab.coeff(d), prod.get(d, np.zeros((2, 2))), atol=1e-12)
        # adjoint: (A_{-j})^* at degree j
        st = a.star()
        assert st.support() == sorted(-j for j in da)
        for j in range(-6, 7):
            np.testing.assert_array_equal(st.coeff(j), a.coeff(-j).conj().T)
        # split: degrees >= 0, and (A_{-j})^* at degree j >= 1
        plus, minus = a.split()
        for j in range(-6, 7):
            np.testing.assert_array_equal(plus.coeff(j), a.coeff(j) if j >= 0 else np.zeros((2, 2)))
            np.testing.assert_array_equal(minus.coeff(j), a.coeff(-j).conj().T if j >= 1 else np.zeros((2, 2)))


def test_derived_symbols_equal_a_checked_rebuild():
    rng = np.random.default_rng(12)
    holed = random_symbol(rng, n=2, m=2, N=3)
    holed = holed - Symbol(2, {0: holed.coeff(0)})  # an interior zero coefficient
    assert not np.any(holed.c[2])
    for phi in (holed, random_symbol(rng, n=1, m=0, N=3), Symbol(2), Symbol(1)):
        adj = phi.c.conj().transpose(0, 2, 1)
        for got, want in ((phi.star(), Symbol.from_coeffs(-phi.hi, adj[::-1])),
                          (-phi, Symbol.from_coeffs(phi.lo, -phi.c))):
            assert got.n == want.n and got.lo == want.lo
            assert np.array_equal(got.c, want.c)
    for zero in (Symbol(2).star(), -Symbol(2)):
        assert zero.lo == 0 and zero.c.shape == (0, 2, 2)


@pytest.mark.parametrize("n", [0, -2])
def test_json_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        Symbol.from_json_dict({"n": n, "coeffs": []})
