import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from blocktoeplitz import blaschke as bl
from blocktoeplitz import decide as dc
from blocktoeplitz import operators as op
from blocktoeplitz import suites
from blocktoeplitz.decide import (
    classify_normal_or_analytic,
    complete_ustar,
    decide_hyponormal,
    factorize,
    no_hypo_completion_shift_pair,
    verify_in_C,
)
from blocktoeplitz.rational import RationalFn
from blocktoeplitz.symbols import Symbol, RationalSymbol
from reference import kernel_inclusion_holds, sup_norm

X = np.array([[0, 1], [1, 0]], dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)

PHI_QUARTIC = Symbol.scalar({-2: 1, -1: 2, 1: 1, 2: 2})  # zbar^2 + 2zbar + z + 2z^2
PHI_MATRIX_GAP = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})


def test_factorize_quartic():
    f = factorize(PHI_QUARTIC)
    assert f.theta1.degree() == 2 and f.theta1.multiplicity_at(0) == 2
    assert f.theta0.degree() == 0
    np.testing.assert_allclose(f.A[0][0].poly_coeffs(), [2, 1], atol=1e-12)
    np.testing.assert_allclose(f.B[0][0].poly_coeffs(), [1, 2], atol=1e-12)


def test_factorize_reconstructs_parts_on_circle():
    f = factorize(PHI_MATRIX_GAP)
    t = 2 * np.pi * np.arange(128) / 128
    z = np.exp(1j * t)
    plus, minus = PHI_MATRIX_GAP.split()
    tf = f.theta_full
    for i in range(2):
        for j in range(2):
            # Phi_plus = theta I A*: entry (i,j) = theta * conj(A[j][i])
            lhs = plus.eval_circle(t)[:, i, j]
            rhs = tf(z) * np.conj(f.A[j][i](z))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
            lhs = minus.eval_circle(t)[:, i, j]
            rhs = f.theta1(z) * np.conj(f.B[j][i](z))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_factorize_divisibility_failure():
    with pytest.raises(dc.DivisibilityError):
        factorize(Symbol.scalar({-3: 1, 1: 1}))
    v = decide_hyponormal(Symbol.scalar({-3: 1, 1: 1}))
    assert v.tag == "NotHyponormal"
    # cross-check: the exact self-commutator indeed has a negative eigenvalue
    com = op.selfcommutator_exact(Symbol.scalar({-3: 1, 1: 1}))
    assert np.linalg.eigvalsh(com.block)[0] < -1e-6


def test_factorize_analytic():
    f = factorize(Symbol.scalar({1: 2, 3: 1}))
    assert f.theta1.degree() == 0
    assert all(fn.is_zero() for row in f.B for fn in row)


def test_verify_in_C_quartic_members():
    K = Symbol.scalar({0: 0.5, 1: 0.75})
    assert verify_in_C(PHI_QUARTIC, K)
    # the unit-norm rational member
    b = RationalFn([0.5, 1.0], [1.0, 0.5])
    bsym = RationalSymbol(1, [[b]], [[RationalFn([0.0])]]).to_symbol()
    assert verify_in_C(PHI_QUARTIC, bsym)
    assert abs(sup_norm(bsym) - 1.0) <= 1e-9
    assert not verify_in_C(PHI_QUARTIC, Symbol.scalar({0: 0.0}))


def test_decide_quartic_full_chain():
    v = decide_hyponormal(PHI_QUARTIC)
    assert v.tag == "Hyponormal"
    np.testing.assert_allclose(
        v.defect, [[3 / 16, -3 / 8], [-3 / 8, 3 / 4]], atol=1e-10
    )
    assert v.rank_defect == 1


def test_decide_trig_shift_plus_double():
    v = decide_hyponormal(Symbol.scalar({-1: 1, 1: 2}))
    assert v.tag == "Hyponormal"
    np.testing.assert_allclose(v.defect, [[0.75]], atol=1e-12)
    assert v.rank_defect == 1


def test_decide_matrix_gap_symbol():
    v = decide_hyponormal(PHI_MATRIX_GAP)
    assert v.tag == "Hyponormal"
    assert v.sigma_max <= 1 + 1e-9


def test_decide_translation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = suites.random_scalar_trig(rng, max_deg=3)
        v1 = decide_hyponormal(phi)
        v2 = decide_hyponormal(phi + Symbol.scalar({0: 2.3 - 1.1j}))
        assert v1.tag == v2.tag
        if v1.tag == "Hyponormal":
            assert v1.rank_defect == v2.rank_defect
            np.testing.assert_allclose(v1.defect, v2.defect, atol=1e-8)


def test_decide_oracle_equivalence_sample():
    rows, ok = suites.oracle_equivalence(cases=40, seed=11)
    assert ok


def test_decide_rational_scalar_symbol():
    # rational co-analytic part: conj(minus) with minus = z/(1 - z/4) under 2*z analytic
    minus = RationalFn([0.0, 0.5], [1.0, -0.25])
    plus = RationalFn([0.0, 0.0, 2.0])
    R = RationalSymbol(1, [[plus]], [[minus]])
    v = decide_hyponormal(R)
    assert v.tag in ("Hyponormal", "NotHyponormal")
    # agreement with the window oracle on the truncated symbol
    com = op.selfcommutator_exact(R.to_symbol())
    lam = np.linalg.eigvalsh(0.5 * (com.block + com.block.conj().T))[0]
    assert (v.tag == "Hyponormal") == (lam >= -1e-9 * (1 + np.linalg.norm(com.block, 2)))


def test_classify_analytic():
    v = classify_normal_or_analytic(Symbol.scalar({1: 2}))
    assert v.tag == "Analytic"


def test_classify_hypothesis_not_met():
    # diag(z + zbar, z): co-analytic part diag(z, 0) is not coprime with its inner part
    phi = Symbol(2, {1: np.eye(2), -1: np.diag([1.0, 0.0])})
    v = classify_normal_or_analytic(phi)
    assert v.tag == "HypothesisNotMet"


def test_classify_neither_without_violation():
    v = classify_normal_or_analytic(Symbol.scalar({-1: 1, 1: 2}))
    assert v.tag == "Neither"
    assert not any("THEOREM-VIOLATION" in s for s in v.notes)


def test_classify_violation_needs_an_exact_psd_square(monkeypatch):
    # a PSD square window that is not exact certifies nothing, so it flags no violation
    phi = Symbol.scalar({-1: 1, 1: 2})

    def psd_square(exact):
        return lambda S, W, psd_tol=op.PSD_TOL: op.PositivityReport(0.0, None, "PSD", exact=exact,
                                                                    window=W)

    monkeypatch.setattr(op, "square_hypo_window", psd_square(False))
    v = classify_normal_or_analytic(phi)
    assert v.tag == "Neither"
    assert not any("THEOREM-VIOLATION" in s for s in v.notes)
    monkeypatch.setattr(op, "square_hypo_window", psd_square(True))
    assert any("THEOREM-VIOLATION" in s for s in classify_normal_or_analytic(phi).notes)


def test_classify_normal():
    # c*g + conj(c*g) with g = z is real-valued: the operator is self-adjoint
    c = 2 - 1j
    phi = Symbol.scalar({-1: np.conj(c), 1: c})
    v = classify_normal_or_analytic(phi)
    assert v.tag == "Normal"


def test_classifier_harness_sample():
    rows, ok = suites.classifier_harness(cases=25, seed=3)
    assert ok


def test_complete_ustar_families():
    v = complete_ustar(Symbol.scalar({1: 1}), Symbol.scalar({1: 1}))
    assert v.tag == "Normal" and v.family == 1
    phi = Symbol.scalar({-1: 1, 1: np.sqrt(2)})
    psi = Symbol.scalar({-1: -1, 1: -np.sqrt(2)})
    v = complete_ustar(phi, psi)
    assert v.tag == "Normal" and v.family == 2


@pytest.mark.parametrize("phi, psi", [
    ({1: 1}, {1: 2}),  # psi = 2 phi: |omega| = 2
    ({1: 1}, {1: 1, 0: 1}),  # |omega| = 1 but psi != omega phi
    ({-1: 1, 1: np.sqrt(2)}, {-1: 1, 1: np.sqrt(2)}),  # family 2 shape, omega = 1 instead of -1
], ids=["omega-not-unimodular", "psi-not-a-multiple", "family-2-wrong-phase"])
def test_complete_ustar_family_rule_rejects(phi, psi):
    v = complete_ustar(Symbol.scalar(phi), Symbol.scalar(psi), window=16)
    assert (v.tag, v.family) == ("NotKHyponormal", None), v.notes


def test_completions_refuse_matrix_entries():
    z, big = Symbol.scalar({1: 1}), Symbol(2, {1: np.eye(2)})
    for complete in (complete_ustar, no_hypo_completion_shift_pair):
        for phi, psi in ((big, z), (z, big)):
            with pytest.raises(ValueError, match="completion entries must be scalar symbols"):
                complete(phi, psi)


def test_complete_ustar_family_grid():
    rows, ok = suites.completion_grid()
    assert ok


def test_normality_cutoff_has_one_owner(monkeypatch):
    # classification, completion verdicts and the family grid read the same cutoff
    c = 2 - 1j
    normal = Symbol.scalar({-1: np.conj(c), 1: c})
    z = Symbol.scalar({1: 1})
    assert dc.commutator_max_entry(normal)[1]
    monkeypatch.setattr(dc, "NORMAL_TOL", -1.0)
    assert not dc.commutator_max_entry(normal)[1]
    assert classify_normal_or_analytic(normal).tag != "Normal"
    assert complete_ustar(z, z).tag == "Inconclusive"
    rows, ok = suites.completion_grid()
    assert not ok and not any(row[-1] for row in rows)


def test_complete_ustar_outside_family():
    phi = Symbol.scalar({-2: 1, 2: 2})
    v = complete_ustar(phi, phi, window=16)
    assert v.tag == "NotKHyponormal"


def test_no_completion_normal_pair():
    v = no_hypo_completion_shift_pair(Symbol.scalar({1: 1}), Symbol.scalar({-1: -1}))
    assert v.tag == "NotHyponormal"
    # witness is the first basis vector with quadratic form -1
    assert abs(v.witness[0] - 1.0) < 1e-9
    assert "min eigenvalue -1.0" in v.notes[1]


def test_no_completion_phase_violation():
    v = no_hypo_completion_shift_pair(Symbol.scalar({0: 1}), Symbol.scalar({0: 1}))
    assert v.tag == "NotNormalSymbol"


def test_no_completion_zero_pair():
    v = no_hypo_completion_shift_pair(Symbol.scalar({}), Symbol.scalar({}))
    assert v.tag == "NotHyponormal"


def test_no_completion_never_hyponormal_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = suites.random_scalar_trig(rng, max_deg=2)
        if rng.random() < 0.5:
            # enforce the normality constraint phi = -conj(psi)
            psi = Symbol.scalar(
                {-j: -np.conj(phi.scalar_coeff(j)) for j in phi.support()}
            )
        else:
            psi = suites.random_scalar_trig(rng, max_deg=2)
        v = no_hypo_completion_shift_pair(phi, psi)
        assert v.tag in ("NotHyponormal", "NotNormalSymbol")


def test_defect_agrees_with_rational_member():
    # truncating the unit-norm rational member to the model degree gives
    # the same defect matrix as the interpolated polynomial
    from blocktoeplitz import modelspace as ms

    fact = factorize(PHI_QUARTIC)
    M = ms.build_M(fact.theta_full.zero_list())
    b = RationalFn([0.5, 1.0], [1.0, 0.5])
    coeffs = b.fourier_coeffs()
    bsym = Symbol.scalar(dict(enumerate(coeffs)))
    BM = ms.poly_of_M(bsym, M)
    defect_b = np.eye(2) - BM.conj().T @ BM
    v = decide_hyponormal(PHI_QUARTIC)
    np.testing.assert_allclose(defect_b, v.defect, atol=1e-8)


def test_decide_degenerate_symbols():
    assert decide_hyponormal(Symbol.scalar({})).tag == "Hyponormal"
    assert decide_hyponormal(Symbol.scalar({0: 3 + 1j})).tag == "Hyponormal"
    # constant matrix symbol: hyponormal exactly when the matrix is normal
    assert decide_hyponormal(Symbol(2, {0: np.array([[1, 2], [0, 1]])})).tag == "NotHyponormal"
    assert decide_hyponormal(Symbol(2, {0: np.array([[1, 0], [0, 2]])})).tag == "Hyponormal"
    # purely co-analytic: the divisibility gate rejects immediately
    assert decide_hyponormal(Symbol.scalar({-1: 2})).tag == "NotHyponormal"


def test_decide_rational_nonzero_nodes_closed_form():
    # scaled-pair construction: plus = minus / lam with lam real in (0, 1]
    # gives a constant interpolant lam, so sigma_max = lam and the defect
    # is (1 - lam^2) I at every node configuration
    from blocktoeplitz.rational import mul_ascending

    zeros = [0.3, -0.4]
    D = np.array([1.0 + 0j])
    for a in zeros:
        D = mul_ascending(D, np.array([1.0, -np.conj(a)]))
    p = np.array([1.0, 0.7])
    num = np.concatenate([np.zeros(1, complex), np.conj(p)[::-1]])
    minus = RationalFn(num, D)
    lam = 0.8
    R = RationalSymbol(1, [[minus * (1.0 / lam)]], [[minus]])
    v = decide_hyponormal(R)
    assert v.tag == "Hyponormal"
    assert abs(v.sigma_max - lam) < 1e-10
    np.testing.assert_allclose(v.defect, (1 - lam**2) * np.eye(2), atol=1e-10)
    com = op.selfcommutator_exact(R.to_symbol())
    assert np.linalg.eigvalsh(com.block)[0] > -1e-9


def test_decide_singular_outer_factor_lsq_path():
    # analytic symbol with rank-one coefficient: the leading node matrix is
    # singular, the consistent system is solved in least squares, and the
    # verdict is still Hyponormal (analytic symbols always are)
    phi = Symbol(2, {1: np.ones((2, 2))})
    v = decide_hyponormal(phi)
    assert v.tag == "Hyponormal"
    assert any("least-squares" in s for s in v.notes)


def _diagonal(p1, p2):
    """(lo, c): the coefficient stack of diag(p1, p2) from degree lo."""
    lo, hi = min(p1.lo, p2.lo), max(p1.hi, p2.hi)
    c = np.zeros((hi - lo + 1, 2, 2), dtype=complex)
    c[:, 0, 0] = p1.coeffs(lo, hi)[:, 0, 0]
    c[:, 1, 1] = p2.coeffs(lo, hi)[:, 0, 0]
    return lo, c


def _unitary_diagonal_cases():
    """The 150 seeded ((p1, p2), U diag(p1, p2) U*) cases."""
    rng = np.random.default_rng(7)
    for _ in range(150):
        p1 = suites.random_scalar_trig(rng, max_deg=3)
        p2 = suites.random_scalar_trig(rng, max_deg=3)
        U = scipy.stats.unitary_group.rvs(2, random_state=int(rng.integers(1 << 30)))
        lo, c = _diagonal(p1, p2)
        yield (p1, p2), Symbol.from_coeffs(lo, U @ c @ U.conj().T)


def _normal_polynomial_cases():
    """150 seeded ((p + lam q for each eigenvalue lam of X), p I + q X) cases, X a fixed
    random normal 3 x 3 matrix: T of p I + q X is unitarily equivalent to the direct sum."""
    rng = np.random.default_rng(11)
    Q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    lam = rng.normal(size=3) + 1j * rng.normal(size=3)
    X = Q @ np.diag(lam) @ Q.conj().T
    for _ in range(150):
        p, q = (suites.random_scalar_trig(rng, max_deg=3) for _ in range(2))
        lo, hi = min(p.lo, q.lo), max(p.hi, q.hi)
        P, Qc = p.coeffs(lo, hi), q.coeffs(lo, hi)
        yield (tuple(Symbol.from_coeffs(lo, P + l * Qc) for l in lam),
               Symbol.from_coeffs(lo, P * np.eye(3) + Qc * X))


def test_unitary_conjugated_diagonal_sweep():
    # T of U diag(p1, p2) U* (of p I + q X) is unitarily equivalent to the direct sum of
    # the scalar parts' operators, so their verdicts are ground truth, on both routes;
    # the U diag U* symbols reach the singular-node least squares
    tags = []
    for case, (parts, phi) in enumerate([*_unitary_diagonal_cases(), *_normal_polynomial_cases()]):
        v = _both_routes(phi)
        truth = all(decide_hyponormal(p).tag == "Hyponormal" for p in parts)
        assert v.tag == ("Hyponormal" if truth else "NotHyponormal"), (case, v.notes)
        tags.append(v.tag)
    assert tags[:150].count("Hyponormal") == 53


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), angle=st.floats(0.0, 2 * np.pi),
       shift=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_diagonal_verdict_invariant_under_equivalences(seed, angle, shift):
    # conjugation by a constant unitary, adding a constant and z -> lambda z with
    # |lambda| = 1 all leave T's self-commutator unitarily equivalent
    rng = np.random.default_rng(seed)
    lo, c = _diagonal(suites.random_scalar_trig(rng, max_deg=3),
                      suites.random_scalar_trig(rng, max_deg=3))
    U = scipy.stats.unitary_group.rvs(2, random_state=int(rng.integers(1 << 30)))
    phi = Symbol.from_coeffs(lo, c)
    rotation = np.exp(1j * angle) ** np.arange(lo, lo + len(c))
    base = decide_hyponormal(phi)
    for other in (Symbol.from_coeffs(lo, U @ c @ U.conj().T), phi + shift,
                  Symbol.from_coeffs(lo, c * rotation[:, None, None])):
        v = decide_hyponormal(other)
        assert (v.tag, v.rank_defect) == (base.tag, base.rank_defect)


def test_scalar_trig_decisions_find_no_roots(monkeypatch):
    # every pole of a scalar trigonometric polynomial sits at 0 with a known order
    calls = []
    roots = np.roots

    def counting_roots(p):
        calls.append(len(p))
        return roots(p)

    monkeypatch.setattr(np, "roots", counting_roots)
    rng = np.random.default_rng(41)
    tags = set()
    for _ in range(60):
        phi = suites.random_scalar_trig(rng, max_deg=4)
        tags.add(decide_hyponormal(phi).tag)
        op.selfcommutator_exact(phi)
    assert tags == {"Hyponormal", "NotHyponormal"}
    assert calls == []


# -- trigonometric polynomials: the coefficient-stack route against the Blaschke route ------


def _both_routes(phi):
    """decide_hyponormal on phi and on its RationalSymbol, asserted identical; the first."""
    a, b = decide_hyponormal(phi), decide_hyponormal(RationalSymbol.from_symbol(phi))
    assert (a.tag, a.notes, a.rank_defect) == (b.tag, b.notes, b.rank_defect), phi
    for x, y in ((a.sigma_max, b.sigma_max), (a.defect, b.defect)):
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
    return a


GATE_CASES = {  # name: (symbol, tag, a note the deciding gate writes)
    "divisibility": (Symbol.scalar({-3: 1, 1: 1}), "NotHyponormal",
                     "inner divisibility fails: degree 3 part does not divide degree 1 part"),
    "trivial-model": (Symbol.scalar({0: 2 - 1j}), "Hyponormal", "trivial model space"),
    "symbol-normality": (Symbol(2, {0: E12}), "NotHyponormal", "symbol is not normal"),
    "least-squares": (Symbol(2, {1: np.ones((2, 2))}), "Hyponormal",
                      "least-squares fallback at nodes [0]"),
    "matrix-gap": (PHI_MATRIX_GAP, "Hyponormal", None),
    "marginal-window-oracle": (Symbol.scalar({-1: 1 + 1e-7, 1: 1}), "Marginal",
                               "contractivity marginal: sigma_max = 1.0000001"),
    "expansive": (Symbol.scalar({-1: 2, 1: 1}), "NotHyponormal",
                  "interpolant is expansive at the model"),
    "kernel-inclusion": (Symbol(2, {-1: E22, 1: E11}), "NotHyponormal",
                         "candidate set is empty: no interpolant exists at node 0j (residual 1.000e+00)"),
    "matrix-converse": (Symbol(2, {-1: 2 * np.eye(2), 1: np.eye(2)}), "NotHyponormal",
                        "interpolant is expansive; compressed outer factor invertible"),
    "matrix-converse-unavailable": (Symbol(2, {-1: 2 * E11, 1: E11, 2: E22}), "NotHyponormal",
                                    "outer factor singular at a model zero; converse unavailable"),
}


@pytest.mark.parametrize("name", list(GATE_CASES))
def test_routes_agree_gate_for_gate(name):
    phi, tag, note = GATE_CASES[name]
    v = _both_routes(phi)
    assert v.tag == tag
    assert note is None or note in v.notes, v.notes


def test_trig_polynomials_construct_no_rational_machinery(monkeypatch):
    built = []
    for cls, name in ((RationalFn, "__init__"), (bl.BlaschkeProduct, "__post_init__")):
        def counting(self, *args, _orig=getattr(cls, name), **kwargs):
            built.append(type(self).__name__)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    for name in GATE_CASES:
        decide_hyponormal(GATE_CASES[name][0])
    tags = [classify_normal_or_analytic(phi).tag for phi in (
        Symbol.scalar({-1: 1, 1: 2}), Symbol.scalar({1: 2}), PHI_MATRIX_GAP,
        Symbol(2, {-1: E11, 1: np.eye(2)}))]
    assert tags == ["Neither", "Analytic", "Neither", "HypothesisNotMet"]
    assert built == []
    RationalFn([1.0])  # the patch itself counts
    assert built == ["RationalFn"]


def _pool_symbol(i):
    """Scalar pool case i, as the benchmark draws it."""
    return suites.random_scalar_trig(np.random.default_rng([1, i]), max_deg=4)


def test_symbol_coprimality_matches_the_blaschke_route():
    symbols = [_pool_symbol(i) for i in range(500)]
    symbols += [phi for _, phi in _unitary_diagonal_cases()] + [phi for _, phi in _normal_polynomial_cases()]
    refused = 0
    for phi in symbols:
        if phi.lo < 0:
            ok, marginal = dc._route(phi).coanalytic_coprime()
            assert (ok, marginal) == dc._coanalytic_coprime(RationalSymbol.from_symbol(phi))[1:]
            refused += not ok
    assert refused > 0  # singular A_{-m}, as in U diag(p1, p2) U* with deg p1 != deg p2 on the co-analytic side


def test_routes_agree_on_the_scalar_pool():
    for i in range(1000):
        _both_routes(_pool_symbol(i))


def test_node_solve_refuses_every_kernel_inclusion_failure():
    # ker H_{Phi_+^*} inside ker H_{Phi_-^*} is necessary for a nonempty candidate set; where it
    # fails, divisibility or the node solve must already refuse the symbol
    symbols = [phi for _, phi in _unitary_diagonal_cases()] + [phi for _, phi in _normal_polynomial_cases()]
    gates = []
    for phi in symbols:
        if not kernel_inclusion_holds(phi):
            v = _both_routes(phi)
            assert v.tag == "NotHyponormal", v.notes
            assert v.notes[0].startswith(("inner divisibility fails", "candidate set is empty")), v.notes
            gates.append(v.notes[0].split(":")[0])
    assert gates.count("candidate set is empty") == 8 and "inner divisibility fails" in gates
