import numpy as np
import pytest

from blocktoeplitz import suites
from blocktoeplitz.rational import (RationalFn, _roots, mul_ascending, poly_from_roots, polyval_ascending,
                                    reflected_product)
from blocktoeplitz.symbols import TAIL_TOL, RationalSymbol
from reference import fourier_coeffs


def cauchy_jets(f, z0, order, radius=0.3, grid=4096):
    """Independent jet oracle: Taylor coefficients by Cauchy integrals."""
    t = 2 * np.pi * np.arange(grid) / grid
    ring = z0 + radius * np.exp(1j * t)
    vals = f(ring)
    out = []
    for j in range(order):
        out.append(np.mean(vals * np.exp(-1j * j * t)) / radius ** j)
    return np.array(out)


def test_arithmetic_roundtrip():
    f = RationalFn([1, 2], [1, 0.25])
    g = RationalFn([0, 1])
    h = (f + g) * g + (-1) * (g * g)
    z = 0.3 + 0.1j
    assert abs(h(z) - f(z) * g(z)) < 1e-12


def test_division_and_reduction():
    # (z + 2z^2) / z: the common root at 0 cancels on construction
    q = RationalFn([0, 1, 2], [0, 1])
    assert q.is_poly
    np.testing.assert_allclose(q.poly_coeffs(), [1, 2], atol=1e-12)


def test_common_root_cancellation():
    # (z - 0.5)(z + 2) / (z - 0.5) reduces to z + 2
    num = mul_ascending([-0.5, 1.0], [2.0, 1.0])
    f = RationalFn(num, [-0.5, 1.0])
    assert f.is_poly
    assert abs(f(0.1) - 2.1) < 1e-10


def test_taylor_jets_against_cauchy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        num = rng.normal(size=3) + 1j * rng.normal(size=3)
        pole = 2.0 + rng.random() * 2
        f = RationalFn(num, [1.0, -1.0 / pole])
        z0 = (rng.normal() + 1j * rng.normal()) * 0.2
        jets = f.taylor_jets(z0, 4)
        oracle = cauchy_jets(f, z0, 4)
        np.testing.assert_allclose(jets, oracle, atol=1e-9)


def test_jets_raise_at_pole():
    f = RationalFn([1.0], [1.0, -1.0])  # pole at z = 1
    with pytest.raises(ZeroDivisionError):
        f.taylor_jets(1.0, 2)


def test_reflect_is_circle_conjugate():
    rng = np.random.default_rng(4)
    num = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = RationalFn(num, [1.0, 0.3 - 0.2j])
    t = 2 * np.pi * np.arange(64) / 64
    z = np.exp(1j * t)
    np.testing.assert_allclose(f.reflect()(z), np.conj(f(z)), atol=1e-12)


def test_reflect_involution():
    f = RationalFn([1, 2, 0.5], [1.0, 0.1j])
    g = f.reflect().reflect()
    z = 0.7 * np.exp(1j * np.linspace(0, 2, 5))
    np.testing.assert_allclose(f(z), g(z), atol=1e-12)


def test_fourier_coeffs_match_fft():
    # geometric expansion vs plain FFT sampling on the circle
    f = RationalFn([0.5, 1.0], [1.0, 0.5])
    c = f.fourier_coeffs()
    G = 1 << 10
    t = 2 * np.pi * np.arange(G) / G
    vals = f(np.exp(1j * t))
    fft = np.fft.fft(vals) / G
    np.testing.assert_allclose(c[:20], fft[:20], atol=1e-12)
    # reconstruction error sits at the coefficient drop tolerance
    recon = sum(ck * np.exp(1j * k * t) for k, ck in enumerate(c))
    assert np.max(np.abs(recon - vals)) < 5e-12


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_roots_matches_numpy_bitwise():
    rng = np.random.default_rng(7)
    polys = [np.zeros(k, dtype=complex) for k in range(1, 4)]
    for _ in range(3000):
        c = rng.standard_normal(int(rng.integers(1, 8))) * np.exp(rng.uniform(-8, 8))
        if rng.random() < 0.7:
            c = c + 1j * rng.standard_normal(len(c))
        c[rng.random(len(c)) < 0.3] = 0  # zero leading, trailing and inner coefficients
        polys.append(c)
    degrees = set()
    for c in polys:
        nz = np.flatnonzero(c)
        degrees.add(int(nz[-1] - nz[0]) if len(nz) else -1)
        assert _same(_roots(c), np.roots(c[::-1])), c
    assert degrees == set(range(-1, 7))


def _pole_family(m):
    """Co-analytic part z/(1 - z/2)^m, analytic part 3 z^3/(1 - z/2)^m: the bench's repeated poles."""
    den = np.array([1.0 + 0j])
    for _ in range(m):
        den = np.convolve(den, [1.0, -0.5])
    return RationalSymbol(1, [[RationalFn([0, 0, 0, 3.0], den)]], [[RationalFn([0, 1.0], den)]])


def test_fourier_coeffs_matches_reference_recurrence():
    # the recurrence on Python scalars emits numpy's bytes, on every entry of the classifier draws
    # and of the repeated-pole family, and on a denominator whose q(0) / q(0) rounds to 0.9999999999999999
    symbols = [suites.random_coprime_rational_symbol(np.random.default_rng([4, i])) for i in range(100)]
    symbols += [_pole_family(m) for m in range(1, 6)]
    fns = [f for R in symbols for side in (R.plus, R.minus) for row in side for f in row]
    inexact = RationalFn([1.0, 2.0, 0.5j], [49.0, -1.0])
    assert inexact.den[0] == 1
    for f in fns + [inexact]:
        assert _same(f.fourier_coeffs(TAIL_TOL), fourier_coeffs(f, TAIL_TOL))
    assert sum(not f.is_poly for f in fns) > 100


def test_denominator_normalized_to_exactly_one():
    # q / q(0) alone leaves 0.9999999999999999 for some q(0); the constructor sets the exact 1
    rng = np.random.default_rng(29)
    for _ in range(500):
        q = rng.normal(size=3) + 1j * rng.normal(size=3) * rng.integers(0, 2)
        assert RationalFn([1.0, 2.0], q).den[0] == 1
        assert RationalFn([1.0], np.r_[0.0, q]).den[-1] == 1
    assert RationalFn([1], [49, -1]).den[0] == 1


def test_fourier_rejects_interior_pole():
    f = RationalFn([1.0], [1.0, -2.0])  # pole at 1/2
    with pytest.raises(ValueError):
        f.fourier_coeffs()


def test_poly_from_roots():
    c = poly_from_roots([1.0, -1.0], lead=2.0)
    np.testing.assert_allclose(c, [-2.0, 0.0, 2.0], atol=1e-12)


def _random_fn(rng, roots_outside=False):
    """Degree 0-5 numerator over a degree 0-5 denominator, poles (and roots) outside |z| = 1.5."""

    def roots(deg):
        return 1.5 + 1.5 * rng.random(deg) * np.exp(2j * np.pi * rng.random(deg))

    dp, dq = (int(d) for d in rng.integers(0, 6, size=2))
    lead = complex(rng.normal(), rng.normal())
    if roots_outside:
        num = poly_from_roots(roots(dp), lead=lead)
    else:
        num = rng.normal(size=dp + 1) + 1j * rng.normal(size=dp + 1)
    return RationalFn(num, poly_from_roots(roots(dq)))


def test_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(11)
    z = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    for _ in range(50):
        f = _random_fn(rng)
        g = _random_fn(rng, roots_outside=True)
        fz, gz = f(z), g(z)
        minus_g, one_over_g = (-1) * g, RationalFn(g.den, g.num)
        for got, want in ((f + g, fz + gz), (f + minus_g, fz - gz), (f * g, fz * gz),
                          (f * one_over_g, fz / gz)):
            np.testing.assert_allclose(got(z), want, rtol=1e-10, atol=0)


def test_mul_ascending_is_the_cauchy_product():
    rng = np.random.default_rng(12)
    for _ in range(20):
        la, lb = (int(d) for d in rng.integers(1, 7, size=2))
        a = rng.normal(size=la) + 1j * rng.normal(size=la)
        b = rng.normal(size=lb) + 1j * rng.normal(size=lb)
        want = np.zeros(la + lb - 1, dtype=complex)
        for i in range(la):
            for j in range(lb):
                want[i + j] += a[i] * b[j]
        np.testing.assert_allclose(mul_ascending(a, b), want, rtol=0, atol=1e-13)


def test_reflected_product_is_the_product_of_the_reflected_factors():
    rng = np.random.default_rng(14)
    z = np.exp(2j * np.pi * rng.random(5))
    for d in range(5):
        zeros = list(rng.normal(size=d) + 1j * rng.normal(size=d))
        want = np.prod([1.0 - np.conj(a) * z for a in zeros], axis=0)
        np.testing.assert_allclose(polyval_ascending(reflected_product(zeros), z), want, atol=1e-12)
        assert len(reflected_product(zeros)) == d + 1


def test_common_root_cancels_to_degree_one_over_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = RationalFn(mul_ascending([-a, 1.0], [-b, 1.0]), [-a, 1.0])
        assert f.degree_num() == 1 and len(f.den) == 1
        np.testing.assert_allclose(f.num / f.den[0], [-b, 1.0], atol=1e-10)


@pytest.mark.parametrize("root", [0.0, 3e-10, 5e-9, 1e-3])
def test_monomial_denominator_reduces_by_root_cancellation(root):
    from blocktoeplitz.rational import _cancel_common_roots, _trim

    rng = np.random.default_rng(int(root * 1e12) % 1000)
    for d in (1, 2, 4):
        rest = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = _trim(mul_ascending([-root, 1.0], rest))
        q = np.zeros(d + 1, dtype=complex)
        q[-1] = 2.0 - 1.0j
        cp, cq = _cancel_common_roots(p, q, 1e-9)
        f = RationalFn(p, q)
        scale = cq[0] if abs(cq[0]) > 1e-12 else cq[-1]
        assert np.array_equal(f.num, cp / scale)
        assert np.array_equal(f.den, cq / scale)
        assert len(f.den) == (d if root < 1e-9 else d + 1)


def test_taylor_shift_to_origin_is_the_identity():
    from blocktoeplitz.rational import _taylor_shift

    def horner_shift(c, z0):
        # the Horner loop written out, as the reference
        out = np.zeros(len(c), dtype=complex)
        for ck in c[::-1]:
            out = np.concatenate([[0.0], out[:-1]]) + z0 * out
            out[0] += ck
        return out

    rng = np.random.default_rng(5)
    for n in range(1, 7):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.array_equal(_taylor_shift(c, 0j), horner_shift(c, 0j))
        assert np.array_equal(_taylor_shift(c, 0j), c)
        assert np.array_equal(_taylor_shift(c, 0.3 - 0.2j), horner_shift(c, 0.3 - 0.2j))
        f = RationalFn(c, [1.0, 0.5])
        np.testing.assert_allclose(f.taylor_jets(0j, 4), cauchy_jets(f, 0j, 4), atol=1e-10)
