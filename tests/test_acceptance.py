"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions hold, so a
verbose run reads as a checklist.  Runtime bounds are asserted with
time.monotonic around the computational core.
"""

import time

import numpy as np

from blocktoeplitz import decide as dc
from blocktoeplitz import modelspace as ms
from blocktoeplitz import operators as op
from blocktoeplitz import suites
from blocktoeplitz.rational import RationalFn
from blocktoeplitz.symbols import RationalSymbol, Symbol
from reference import sup_norm

X = np.array([[0, 1], [1, 0]], dtype=complex)
PHI_QUARTIC = Symbol.scalar({-2: 1, -1: 2, 1: 1, 2: 2})
PHI_MATRIX_GAP = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})


def _report(k, msg):
    print(f"[acceptance] criterion {k}: PASS - {msg}")


def test_criterion_1_quartic_chain_exact():
    t0 = time.monotonic()
    fact = dc.factorize(PHI_QUARTIC)
    nodes, A_data, B_data = dc._interpolation_data(fact)
    K, _ = ms.hermite_fejer_solve(nodes, A_data, B_data)
    assert abs(K.scalar_coeff(0) - 0.5) <= 1e-10
    assert abs(K.scalar_coeff(1) - 0.75) <= 1e-10
    M = ms.build_M(fact.theta_full.zero_list())
    np.testing.assert_allclose(M, [[0, 0], [1, 0]], atol=1e-10)
    KM = ms.poly_of_M(K, M)
    np.testing.assert_allclose(KM, [[0.5, 0], [0.75, 0.5]], atol=1e-10)
    v = dc.decide_hyponormal(PHI_QUARTIC)
    assert v.tag == "Hyponormal"
    np.testing.assert_allclose(v.defect, [[3 / 16, -3 / 8], [-3 / 8, 3 / 4]], atol=1e-10)
    assert v.rank_defect == 1
    com = op.selfcommutator_exact(PHI_QUARTIC)
    exact_rank = int(np.sum(np.linalg.eigvalsh(com.block) > 1e-8))
    assert exact_rank == v.rank_defect == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"full chain reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_membership_cross_check():
    t0 = time.monotonic()
    b = RationalFn([0.5, 1.0], [1.0, 0.5])
    bsym = RationalSymbol(1, [[b]], [[RationalFn([0.0])]]).to_symbol()
    assert dc.verify_in_C(PHI_QUARTIC, bsym)
    assert abs(sup_norm(bsym) - 1.0) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"unit-norm rational member verified in {elapsed:.3f}s")


def test_criterion_3_model_identity_sweep():
    t0 = time.monotonic()
    rows, ok = suites.model_identity(cases=100, seed=0)
    assert ok
    worst = max(float(r[4]) for r in rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"100 cases, max deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_shift_plus_double():
    t0 = time.monotonic()
    phi = Symbol.scalar({-1: 1, 1: 2})
    v = dc.decide_hyponormal(phi)
    assert v.tag == "Hyponormal"
    com = op.selfcommutator_exact(phi)
    expect = np.zeros_like(com.block)
    expect[0, 0] = 3.0
    np.testing.assert_allclose(com.block, expect, atol=1e-12)
    rep = op.square_hypo_window(phi, 64)
    assert rep.verdict == "NotPSD"
    assert rep.min_eigenvalue < -1e-3
    rep2 = op.square_hypo_window(phi, 64)
    np.testing.assert_allclose(rep.witness, rep2.witness, atol=0.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(4, f"square fails with reproducible witness, min eig {rep.min_eigenvalue:.3e}, {elapsed:.1f}s")


def test_criterion_5_completion_family_grid():
    t0 = time.monotonic()
    rows, ok = suites.completion_grid()
    assert ok and len(rows) == 36
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi, psi = suites.nonfamily_pair(rng)
        v = dc.complete_ustar(phi, psi, window=24)
        assert v.tag == "NotKHyponormal"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, f"36 family cases normal, 20 non-family rejected at k=2, {elapsed:.1f}s")


def test_criterion_6_matrix_gap_example():
    t0 = time.monotonic()
    v = dc.decide_hyponormal(PHI_MATRIX_GAP)
    assert v.tag == "Hyponormal"
    K = Symbol(2, {0: 0.5 * np.eye(2), 1: 0.5 * X})
    assert dc.verify_in_C(PHI_MATRIX_GAP, K)
    assert sup_norm(K) <= 1.0 + 1e-9
    rep = op.k_hypo_window(PHI_MATRIX_GAP, 2, 12)
    assert rep.verdict == "NotPSD"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, f"hyponormal yet not 2-hyponormal reproduced in {elapsed:.1f}s")


def test_criterion_7_no_hyponormal_completion():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for c in range(50):
        phi = suites.random_scalar_trig(rng, max_deg=3)
        if c % 2 == 0:
            psi = Symbol.scalar(
                {-j: -np.conj(phi.scalar_coeff(j)) for j in phi.support()}
            )
        else:
            psi = suites.random_scalar_trig(rng, max_deg=3)
        v = dc.no_hypo_completion_shift_pair(phi, psi)
        assert v.tag in ("NotHyponormal", "NotNormalSymbol")
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(7, f"50 candidate pairs, none hyponormal, {elapsed:.1f}s")


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    rows, ok = suites.oracle_equivalence(cases=200, seed=0)
    assert ok, "pipeline disagrees with the exact self-commutator oracle"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(8, f"200 random scalar symbols agree with the exact oracle, {elapsed:.1f}s")


def test_criterion_9_classifier_harness():
    t0 = time.monotonic()
    rows, ok = suites.classifier_harness(cases=100, seed=0)
    assert ok, "classification contradiction observed"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(9, f"100 coprime rational symbols, zero contradictions, {elapsed:.1f}s")


def test_criterion_10_completion_construction():
    t0 = time.monotonic()
    _, res64 = op.normal_nontoeplitz_completion(64)
    assert res64 <= 1e-6
    _, res128 = op.normal_nontoeplitz_completion(128)
    assert res128 <= res64 + 1e-12
    _, C = op.completion_selfadjoint_part(64)
    assert np.linalg.norm(C, 2) <= 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(10, f"residual {res64:.2e} at W=64, decreasing, bounded part, {elapsed:.1f}s")
