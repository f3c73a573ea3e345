"""The benchmark's three workloads: their inputs, library calls and output checks.

A workload runs in passes. One pass is a fixed list of cases; each case
is one question put to the library (`call`, the timed part) and the
untimed `observe` step that turns its result into the fields the output
check compares. Randomized inputs are drawn from the seeded generators
in `blocktoeplitz.suites`, one generator per pool index, so case `i` of
a pool is the same input on every run and the reference recorded for it
in `reference.json` applies. The run seed only picks which pool indices
each pass uses and the order of the cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blocktoeplitz import cli
from blocktoeplitz import decide as dc
from blocktoeplitz import modelspace as ms
from blocktoeplitz import operators as op
from blocktoeplitz import suites
from blocktoeplitz.rational import RationalFn
from blocktoeplitz.symbols import RationalSymbol, Symbol

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
GAP_JSON = os.path.join(HERE, "data", "gap.json")

UNDECIDED = {"Inconclusive", "Marginal", "ConsistentUpToWindow", "HypothesisNotMet"}
EIG_REL_TOL = 1e-9  # minimum eigenvalues agree within this share of max(1, |reference|)
MODEL_TOL = 1e-8  # build_M/poly_of_M against compression_oracle, as in the acceptance suite
RANK_TOL = 1e-8  # eigenvalue cutoff for the rank of an exact self-commutator window

# Pool sizes are large enough that a run of the stated length draws each
# input at most once; a longer run wraps around and repeats inputs.
POOL = {"scalar": 10000, "model": 500, "nonfamily": 100, "classify": 1000}
STREAM = {"scalar": 1, "model": 2, "nonfamily": 3, "classify": 4}

X = np.array([[0, 1], [1, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
PHI_GAP = Symbol(2, {-1: np.eye(2), -2: X, 2: 2 * X})  # hyponormal, not 2-hyponormal
PHI_ANALYTIC = Symbol(2, {1: np.eye(2), 2: 0.5 * X})  # z I + X z^2 / 2
PHI_NONNORMAL = Symbol(2, {-1: E12, 1: 2 * np.eye(2)})  # E12 zbar + 2 z I
PHI_SHIFT_DOUBLE = Symbol.scalar({-1: 1, 1: 2})  # zbar + 2z


@dataclass
class Case:
    kind: str
    key: str  # reference key within its kind
    call: Callable[[], object]  # the timed library calls
    observe: Callable[[object], dict]  # untimed: result -> compared fields


# -- output check -----------------------------------------------------------------

# Fields stored in the reference, per case kind, in this order.
FIELDS = {
    "scalar": ("tag", "rank", "window_verdict", "lam", "agree"),
    "family": ("tag", "family"),
    "nonfamily": ("tag",),
    "cli": ("exit", "tag", "exact"),
    "classify": ("tag",),
    "pole": ("tag",),
    "window": ("verdict", "exact", "lam"),
}


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def expected_fields(reference, case):
    """Reference values for a case as a field dict, or None for check-only kinds."""
    if case.kind not in FIELDS:
        return None
    rows = reference[case.kind]
    row = rows[int(case.key)] if isinstance(rows, list) else rows[case.key]
    return dict(zip(FIELDS[case.kind], row))


def reference_row(case, obs):
    return [obs[f] for f in FIELDS[case.kind]]


def check(case, obs, expected):
    """Mismatch messages for one observed case (empty when it is correct)."""
    bad = []
    if obs.get("violation"):
        bad.append("THEOREM-VIOLATION note")
    if case.kind == "model" and not obs["deviation"] <= MODEL_TOL:
        bad.append(f"model identity deviation {obs['deviation']:.3e}")
    for field, want in (expected or {}).items():
        got = obs[field]
        if isinstance(want, float):
            if not abs(got - want) <= EIG_REL_TOL * max(1.0, abs(want)):
                bad.append(f"{field} {got!r} vs reference {want!r}")
        elif got != want:
            bad.append(f"{field} {got!r} vs reference {want!r}")
    return [f"{case.kind}/{case.key}: {b}" for b in bad]


def routes_disagree(obs):
    """The model-space and window routes differ in verdict or defect rank."""
    return obs.get("agree") is False


def is_undecided(obs):
    return obs.get("tag", obs.get("verdict")) in UNDECIDED


def _has_violation(verdict):
    return any("THEOREM-VIOLATION" in note for note in verdict.notes)


# -- pools ----------------------------------------------------------------------------


def _pool_rng(kind, index):
    return np.random.default_rng([STREAM[kind], index])


def pool_indices(kind, reference):
    """The pool indices a workload draws from.

    Analytic classifier draws (a third of them) are left out: they return
    before any symbol work, and their ~0.5 ms times would put the median
    case time in the gap between them and the 30-500 ms cases.
    """
    if kind == "classify":
        return [i for i, row in enumerate(reference["classify"]) if row[0] != "Analytic"]
    return list(range(POOL[kind]))


# -- sweep-scalar -------------------------------------------------------------------


def scalar_case(index):
    phi = suites.random_scalar_trig(_pool_rng("scalar", index), max_deg=4)

    def call():
        v = dc.decide_hyponormal(phi)
        com = op.selfcommutator_exact(phi)
        return v, com, op.positivity_report(com.block, com.window, exact=com.exact)

    def observe(res):
        v, com, rep = res
        h = 0.5 * (com.block + com.block.conj().T)
        window_rank = int(np.sum(np.linalg.eigvalsh(h) > RANK_TOL))
        agree = (v.tag == "Hyponormal") == (rep.verdict == "PSD")
        if v.tag == "Hyponormal":
            agree = agree and v.rank_defect == window_rank
        return {"tag": v.tag, "rank": v.rank_defect, "window_verdict": rep.verdict,
                "lam": rep.min_eigenvalue, "agree": agree, "violation": _has_violation(v)}

    return Case("scalar", str(index), call, observe)


def model_case(index):
    rng = _pool_rng("model", index)
    n = int(rng.integers(1, 3))
    deg = int(rng.integers(0, 4))
    theta = suites.random_blaschke(rng, max_degree=5)
    P = suites.random_analytic_poly_symbol(rng, n, deg)

    def call():
        model = ms.build_M(theta.zero_list())
        return ms.poly_of_M(P, model), ms.compression_oracle(P, theta)

    def observe(res):
        lhs, rhs = res
        return {"deviation": float(np.max(np.abs(lhs - rhs)))}

    return Case("model", str(index), call, observe)


def family_pairs():
    """The family grid of `suites.completion_grid`, as (phi, psi) pairs."""
    thetas = [0.0, np.pi / 3, np.pi]
    betas = [0.0, 1.0 + 1.0j]
    pairs = [suites.family_pair(1, theta=th, omega=om, beta=b)
             for th in thetas for om in thetas for b in betas]
    pairs += [suites.family_pair(2, theta=th, alpha=mod * np.exp(1j * np.pi / 7), beta=b)
              for mod in (0.5, 1.0, 2.0) for th in thetas for b in betas]
    return pairs


def completion_case(kind, key, phi, psi):
    def call():
        return dc.complete_ustar(phi, psi)

    def observe(v):
        return {"tag": v.tag, "family": v.family, "violation": _has_violation(v)}

    return Case(kind, key, call, observe)


def nonfamily_case(index):
    phi, psi = suites.nonfamily_pair(_pool_rng("nonfamily", index))
    return completion_case("nonfamily", str(index), phi, psi)


def cli_commands():
    """The README's verdict commands, keyed by subcommand."""
    return {
        "check-hyponormal": ["check-hyponormal", "--phi", "zbar^2 + 2zbar + z + 2z^2"],
        "check-k": ["check-k", "--k", "2", "--window", "12", GAP_JSON],
        "check-square": ["check-square", "--phi", "zbar+2z", "--window", "64"],
        "classify": ["classify", "--phi", "2z"],
        "complete-ustar": ["complete-ustar", "--phi", "z", "--psi", "z"],
        "no-completion": ["no-completion", "--phi=z", "--psi=-zbar"],
    }


def cli_case(key, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def observe(res):
        code, text = res
        payload = json.loads(text)
        return {"exit": code, "tag": payload.get("tag", payload.get("verdict")),
                "exact": payload.get("exact"),
                "violation": any("THEOREM-VIOLATION" in n for n in payload.get("notes", []))}

    return Case("cli", key, call, observe)


# -- rational-classify ------------------------------------------------------------------


def classify_case(index):
    R = suites.random_coprime_rational_symbol(_pool_rng("classify", index))

    def call():
        return dc.classify_normal_or_analytic(R)

    def observe(v):
        return {"tag": v.tag, "violation": _has_violation(v)}

    return Case("classify", str(index), call, observe)


def repeated_pole_symbol(m):
    """Co-analytic part z/(1 - z/2)^m, analytic part 3 z^3/(1 - z/2)^m."""
    den = np.array([1.0 + 0j])
    for _ in range(m):
        den = np.convolve(den, [1.0, -0.5])
    return RationalSymbol(1, [[RationalFn([0, 0, 0, 3.0], den)]], [[RationalFn([0, 1.0], den)]])


def pole_case(m):
    R = repeated_pole_symbol(m)

    def call():
        return dc.decide_hyponormal(R)

    def observe(v):
        return {"tag": v.tag, "violation": _has_violation(v)}

    return Case("pole", str(m), call, observe)


# -- window-grid --------------------------------------------------------------------------

# (key, symbol, k, W); k = None is the square test. The smoke grid keeps
# the symbols and outcomes at windows an eighth of the size.
WINDOW_GRID = [
    ("gap-k2-W256", PHI_GAP, 2, 256),
    ("gap-k4-W128", PHI_GAP, 4, 128),
    ("analytic-k3-W128", PHI_ANALYTIC, 3, 128),
    ("nonnormal-k2-W128", PHI_NONNORMAL, 2, 128),
    ("shiftdouble-square-W512", PHI_SHIFT_DOUBLE, None, 512),
    ("nonnormal-square-W128", PHI_NONNORMAL, None, 128),
]
WINDOW_GRID_SMOKE = [
    ("gap-k2-W32", PHI_GAP, 2, 32),
    ("gap-k4-W16", PHI_GAP, 4, 16),
    ("analytic-k3-W16", PHI_ANALYTIC, 3, 16),
    ("nonnormal-k2-W16", PHI_NONNORMAL, 2, 16),
    ("shiftdouble-square-W64", PHI_SHIFT_DOUBLE, None, 64),
    ("nonnormal-square-W16", PHI_NONNORMAL, None, 16),
]


def window_case(key, phi, k, W):
    def call():
        if k is None:
            return op.square_hypo_window(phi, W)
        return op.k_hypo_window(phi, k, W)

    def observe(rep):
        verdict = rep.verdict
        if verdict == "PSD" and not rep.exact:
            verdict = "ConsistentUpToWindow"
        return {"verdict": verdict, "exact": rep.exact, "lam": rep.min_eigenvalue}

    return Case("window", key, call, observe)


# -- workloads ----------------------------------------------------------------------------


class Workload:
    """Pass composition of one workload; `pass_cases(p)` builds pass p."""

    # per-pass case counts of each pooled kind
    counts: dict = {}
    # tail percentile of case times, fixed per workload so that it means
    # the same at every speed; each has at least ten samples beyond it in
    # a 30 s run
    tail_pct: float

    def __init__(self, seed, reference, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self._perm = {kind: np.random.default_rng([seed, STREAM[kind]]).permutation(
                          pool_indices(kind, reference)) for kind in self.counts}

    def _draw(self, kind, p):
        count = self.counts[kind]
        perm = self._perm[kind]
        return [int(perm[(p * count + i) % len(perm)]) for i in range(count)]

    def fixed_cases(self):
        return []

    def pass_cases(self, p):
        makers = {"scalar": scalar_case, "model": model_case, "nonfamily": nonfamily_case,
                  "classify": classify_case}
        cases = list(self.fixed_cases())
        for kind in self.counts:
            cases += [makers[kind](i) for i in self._draw(kind, p)]
        order = np.random.default_rng([self.seed, 1000 + p]).permutation(len(cases))
        return [cases[i] for i in order]


class SweepScalar(Workload):
    """Many ~3 ms cases: per-call overhead in rational, blaschke, modelspace, decide."""

    # ~650 samples beyond. On a shared 2-vCPU machine, interference spikes
    # of a few ms reach the top percent of these ~3 ms cases: p99 moved by
    # 60% between runs where p90 stays with the median
    tail_pct = 90.0

    def __init__(self, seed, reference, smoke=False):
        self.counts = ({"scalar": 20, "model": 2, "nonfamily": 1} if smoke
                       else {"scalar": 1000, "model": 40, "nonfamily": 5})
        super().__init__(seed, reference, smoke)
        pairs = family_pairs()
        self._family = [completion_case("family", str(i), phi, psi)
                        for i, (phi, psi) in enumerate(pairs[:4] if smoke else pairs)]

    def fixed_cases(self):
        return self._family + [cli_case(k, argv) for k, argv in cli_commands().items()]


class RationalClassify(Workload):
    """Symbol algebra and window assembly on long truncated rational symbols.

    Classifier draws come from the non-analytic part of the pool (see
    `pool_indices`).
    """

    # ~20 samples beyond, inside the heavy tail of the Neither cases
    tail_pct = 95.0

    def __init__(self, seed, reference, smoke=False):
        self.counts = {"classify": 2 if smoke else 100}
        super().__init__(seed, reference, smoke)

    def fixed_cases(self):
        return [pole_case(m) for m in range(1, 6)]


class WindowGrid(Workload):
    """Dense window assembly, commutator products, eigh and the 2-norm."""

    # 24 samples (6 cases x 4 passes) in a 30 s run; p58 has ten beyond it
    # and lands inside one case's samples instead of between two cases
    tail_pct = 58.0

    def fixed_cases(self):
        grid = WINDOW_GRID_SMOKE if self.smoke else WINDOW_GRID
        return [window_case(*row) for row in grid]


WORKLOADS = {"sweep-scalar": SweepScalar, "rational-classify": RationalClassify,
             "window-grid": WindowGrid}


def warm_up(name):
    """The one warm-up call of each workload's set-up."""
    if name == "sweep-scalar":
        dc.decide_hyponormal(Symbol.scalar({-2: 1, -1: 2, 1: 1, 2: 2}))
    elif name == "rational-classify":
        dc.classify_normal_or_analytic(repeated_pole_symbol(1))
    else:
        op.k_hypo_window(PHI_GAP, 2, 12)
