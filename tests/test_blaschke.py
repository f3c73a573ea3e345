import numpy as np
import pytest

from blocktoeplitz.blaschke import (
    MATCH_TOL,
    BlaschkeProduct,
    coanalytic_decompose,
    coprime_matrix_check,
    divides,
    lcm,
)
from blocktoeplitz.decide import _at_zeros
from blocktoeplitz.rational import RationalFn
from reference import blaschke_values


def random_blaschke(rng, dmax=5):
    d = int(rng.integers(1, dmax + 1))
    zeros = []
    left = d
    while left:
        a = complex(rng.normal(), rng.normal()) * 0.3
        if abs(a) >= 0.85:
            continue
        m = min(int(rng.integers(1, 3)), left)
        zeros.append((a, m))
        left -= m
    rng.random()  # discarded: the draws after it keep their place in the seeded stream
    return BlaschkeProduct(zeros)


def test_eval_basic():
    theta = BlaschkeProduct([(0.0, 2)])
    assert abs(blaschke_values(theta, 1j) - (-1.0)) < 1e-14
    half = BlaschkeProduct([(0.5, 1)])
    assert abs(blaschke_values(half, 0.5)) < 1e-14


def test_unimodular_on_circle():
    rng = np.random.default_rng(0)
    t = 2 * np.pi * np.arange(256) / 256
    for _ in range(6):
        theta = random_blaschke(rng)
        vals = blaschke_values(theta, np.exp(1j * t))
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)


def test_rejects_bad_zero():
    with pytest.raises(ValueError):
        BlaschkeProduct([(1.2, 1)])
    with pytest.raises(ValueError):
        BlaschkeProduct([(complex("nan"), 1)])


def common_degree(t1, t2):
    """Degree of the greatest common divisor: the sum of the smaller multiplicities."""
    return sum(min(m, t2.multiplicity_at(a)) for a, m in t1.zeros)


def test_gcd_lcm_monomials():
    z2 = BlaschkeProduct([(0.0, 2)])
    z3 = BlaschkeProduct([(0.0, 3)])
    l = lcm(z2, z3)
    assert common_degree(z2, z3) == 2 and l.degree() == 3
    assert divides(z2, l) and divides(z3, l)
    t1 = BlaschkeProduct([(0.0, 1), (0.5, 1)])
    l = lcm(t1, z2)
    assert common_degree(t1, z2) == 1
    assert l.degree() == 3 and l.multiplicity_at(0.5) == 1 and l.multiplicity_at(0) == 2
    assert divides(t1, l) and divides(z2, l)


def test_gcd_idempotent_and_product_identity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        t1 = random_blaschke(rng)
        t2 = random_blaschke(rng)
        assert lcm(t1, t1).degree() == t1.degree()
        l = lcm(t1, t2)
        assert divides(t1, l) and divides(t2, l)
        # deg lcm + deg gcd = deg t1 + deg t2
        assert l.degree() == t1.degree() + t2.degree() - common_degree(t1, t2)


def test_lcm_keeps_the_first_center_of_near_coincident_zeros():
    a = 0.3 + 0.2j
    near = a + 0.3 * MATCH_TOL
    t1 = BlaschkeProduct([(a, 1), (0.5, 2)])
    t2 = BlaschkeProduct([(near, 2), (-0.4, 1)])
    assert lcm(t1, t2).zeros == [(a, 2), (0.5, 2), (-0.4, 1)]
    assert lcm(t2, t1).zeros == [(near, 2), (-0.4, 1), (0.5, 2)]
    # a zero just outside the tolerance is a different zero
    far = BlaschkeProduct([(a + 2 * MATCH_TOL, 1)])
    assert lcm(t1, far).zeros == [(a, 1), (0.5, 2), (a + 2 * MATCH_TOL, 1)]


def test_divides():
    z1 = BlaschkeProduct([(0.0, 1)])
    z2 = BlaschkeProduct([(0.0, 2)])
    assert divides(z1, z2)
    assert not divides(z2, z1)


def test_degree_additivity():
    rng = np.random.default_rng(2)
    t1, t2 = random_blaschke(rng), random_blaschke(rng)
    assert BlaschkeProduct(t1.zeros + t2.zeros).degree() == t1.degree() + t2.degree()


def circle_identity_error(f, theta, b, grid=512):
    t = 2 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * t)
    return float(np.max(np.abs(blaschke_values(theta, z) * np.conj(b(z)) - f(z))))


def test_decompose_polynomial_part():
    f = RationalFn([0, 2, 1])  # 2z + z^2
    theta, b = coanalytic_decompose(f)
    assert theta.degree() == 2 and theta.multiplicity_at(0) == 2
    np.testing.assert_allclose(b.poly_coeffs(), [1, 2], atol=1e-12)
    assert circle_identity_error(f, theta, b) < 1e-10


def test_decompose_trivial():
    theta, b = coanalytic_decompose(RationalFn([0, 1]))
    assert theta.degree() == 1
    np.testing.assert_allclose(b.poly_coeffs(), [1.0], atol=1e-14)


def test_decompose_pole_reflection():
    # pole at beta = 2.5 outside: inner part gains a zero at 1/conj(beta)
    beta = 2.5
    f = RationalFn([0.0, 1.0], [1.0, -1.0 / beta])
    theta, b = coanalytic_decompose(f)
    zs = theta.zero_list()
    assert any(abs(z - 1 / np.conj(beta)) < 1e-9 for z in zs)
    assert circle_identity_error(f, theta, b) < 1e-10
    # coprime: b does not vanish at the zeros of theta
    for z in zs:
        assert abs(b(z)) > 1e-9


def test_decompose_random_rational_circle_identity():
    rng = np.random.default_rng(3)
    for _ in range(8):
        num = rng.normal(size=3) + 1j * rng.normal(size=3)
        num[0] = 0.0
        pole = (1.8 + rng.random()) * np.exp(2j * np.pi * rng.random())
        f = RationalFn(num, [1.0, -1.0 / pole])
        if f.is_zero():
            continue
        theta, b = coanalytic_decompose(f)
        assert circle_identity_error(f, theta, b) < 1e-10


def test_decompose_reexpansion_reproduces_symbol():
    f = RationalFn([0, 2, 1])
    theta, b = coanalytic_decompose(f)
    grid = 512
    t = 2 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * t)
    np.testing.assert_allclose(blaschke_values(theta, z) * np.conj(b(z)), f(z), atol=1e-10)


def test_coprime_check_identity_and_rank_deficient():
    ok, _ = coprime_matrix_check([np.eye(2)])
    assert ok
    ok, _ = coprime_matrix_check([np.ones((2, 2))])
    assert not ok
    ok, _ = coprime_matrix_check([np.diag([1.0, 0.0])])
    assert not ok


def test_coprime_check_rational_grid():
    B = [[RationalFn([1.0]), RationalFn([0.0, 1.0])],
         [RationalFn([0.0]), RationalFn([1.0])]]
    ok, _ = coprime_matrix_check(_at_zeros(B, BlaschkeProduct([(0.0, 2)])))
    assert ok


def test_coprime_false_for_singular_det():
    # det B identically zero and theta nonconstant -> never coprime
    rng = np.random.default_rng(4)
    col = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    rank_one = col @ col.conj().T
    theta = random_blaschke(rng)
    ok, _ = coprime_matrix_check([rank_one for _ in theta.zeros])
    assert not ok


def test_decompose_constant_input():
    theta, b = coanalytic_decompose(RationalFn([2.0 - 1.0j]))
    assert theta.degree() == 0
    np.testing.assert_allclose(b.poly_coeffs(), [2.0 + 1.0j], atol=1e-14)


def _decompose_by_roots(f):
    # the root-finding formula of `coanalytic_decompose`, written out as the reference
    from blocktoeplitz.blaschke import _cluster_roots
    from blocktoeplitz.rational import mul_ascending

    refl = f.reflect()
    clusters = _cluster_roots(np.roots(refl.den[::-1]))
    bden = np.array([1.0 + 0.0j])
    for g, m in clusters:
        for _ in range(m):
            bden = mul_ascending(bden, np.array([1.0, -np.conj(g)]))
    return BlaschkeProduct(clusters), RationalFn(refl.num / refl.den[-1], bden)


def test_polynomial_decomposition_matches_root_finding():
    rng = np.random.default_rng(23)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        c = np.r_[0.0, rng.normal(size=d) + 1j * rng.normal(size=d)]
        theta, b = coanalytic_decompose(RationalFn(c))
        theta_ref, b_ref = _decompose_by_roots(RationalFn(c))
        assert theta.zeros == theta_ref.zeros == [(0j, d)]
        assert np.array_equal(b.num, b_ref.num) and np.array_equal(b.den, b_ref.den)


def test_as_rational_shift_matches_root_product():
    from blocktoeplitz.rational import mul_ascending, poly_from_roots

    rng = np.random.default_rng(24)
    for _ in range(40):
        zs = [(0.0, int(rng.integers(1, 4)))]
        zs += [(complex(rng.normal(), rng.normal()) * 0.3, int(rng.integers(1, 3)))
               for _ in range(int(rng.integers(0, 3)))]
        rng.normal()  # discarded, as in `random_blaschke`
        theta = BlaschkeProduct([zs[i] for i in rng.permutation(len(zs))])
        roots = theta.zero_list()
        den = np.array([1.0 + 0j])
        for a in roots:
            den = mul_ascending(den, np.array([1.0, -np.conj(a)]))
        want = RationalFn(poly_from_roots(roots), den)
        got = theta.as_rational()
        assert np.array_equal(got.num, want.num) and np.array_equal(got.den, want.den)
