"""Command-line front end: verdict commands, sweeps, and exports.

Scalar symbols can be typed as expressions over {z, zbar, +, -, *, ^,
complex literals}; matrix symbols are read from the JSON coefficient
format.  All randomized sweeps are seeded, and identical configurations
reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import decide as dc
from . import modelspace as ms
from . import operators as op
from .symbols import Symbol
from . import suites


class ExprError(ValueError):
    pass


def _tokenize(s):
    tokens = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(s) and (s[j].isdigit() or s[j] == "."):
                j += 1
            tokens.append(float(s[i:j]))
            i = j
        elif s[i:].startswith("zbar"):
            tokens.append("zbar")
            i += 4
        elif ch == "z":
            tokens.append("z")
            i += 1
        elif ch in ("i", "j"):
            tokens.append("i")
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r} in symbol expression")
    return tokens


def parse_scalar_symbol(text) -> Symbol:
    """Parse an expression like 'zbar^2 + 2zbar + z + 2z^2' into a scalar symbol."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_expr():
        sign = 1.0
        if peek() in ("+", "-"):
            sign = -1.0 if take() == "-" else 1.0
        acc = parse_term() * sign
        while peek() in ("+", "-"):
            neg = take() == "-"
            t = parse_term()
            acc = acc - t if neg else acc + t
        return acc

    def parse_term():
        acc = parse_factor()
        while True:
            nxt = peek()
            if nxt == "*":
                take()
                acc = acc * parse_factor()
            elif nxt in ("z", "zbar", "i", "(") or isinstance(nxt, float):
                acc = acc * parse_factor()  # implicit multiplication
            else:
                return acc

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() in ("+", "-"):
                sign = -1 if take() == "-" else 1
            e = take()
            if not isinstance(e, float) or e != int(e):
                raise ExprError("exponent must be an integer")
            k = sign * int(e)
            return _sym_pow(base, k)
        return base

    def parse_atom():
        t = take()
        if t is None:
            raise ExprError("unexpected end of expression")
        if isinstance(t, float):
            return Symbol.scalar({0: complex(t)})
        if t == "i":
            return Symbol.scalar({0: 1j})
        if t == "z":
            return Symbol.scalar({1: 1.0})
        if t == "zbar":
            return Symbol.scalar({-1: 1.0})
        if t == "(":
            inner = parse_expr()
            if take() != ")":
                raise ExprError("unbalanced parentheses")
            return inner
        if t == "-":
            return -parse_atom()
        raise ExprError(f"unexpected token {t!r}")

    out = parse_expr()
    if pos[0] != len(tokens):
        raise ExprError(f"trailing tokens at position {pos[0]}")
    return out


def _sym_pow(s: Symbol, k: int) -> Symbol:
    if k == 0:
        return Symbol.scalar({0: 1.0})
    sup = s.support()
    if k < 0:
        if sup not in ([1], [-1]):
            raise ExprError("negative exponent only on z or zbar")
        v = s.scalar_coeff(sup[0])
        return Symbol.scalar({k * sup[0]: v ** k})
    out = s
    for _ in range(k - 1):
        out = out * s
    return out


def load_symbol(args) -> Symbol:
    if getattr(args, "phi", None) and getattr(args, "symbol", None):
        raise ExprError("give either a symbol file or --phi, not both")
    if getattr(args, "phi", None):
        return parse_scalar_symbol(args.phi)
    if getattr(args, "symbol", None):
        with open(args.symbol, "r", encoding="utf-8") as f:
            data = json.load(f)
        try:
            return Symbol.from_json_dict(data)
        except (KeyError, TypeError, IndexError, ValueError) as e:
            raise ExprError(f"malformed symbol file {args.symbol}: {type(e).__name__}: {e}") from e
    raise ExprError("no symbol given (file argument or --phi)")


def _emit(payload, args):
    if getattr(args, "format", "json") == "csv":
        keys = sorted(payload)
        text = _csv([keys, [json.dumps(payload[k]) for k in keys]])
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args)


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write(text, args):
    """Write `text` to the --out file, or to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


EXIT_DECIDED = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2

_DECIDED_TAGS = {
    "Hyponormal",
    "NotHyponormal",
    "Normal",
    "Analytic",
    "Neither",
    "NotKHyponormal",
    "NotNormalSymbol",
    "PSD",
    "NotPSD",
}


def _pairs(values):
    """Complex numbers, nested to any depth, as [re, im] pairs."""
    a = np.asarray(values)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _payload(result):
    """JSON fields of a `Verdict` or `PositivityReport`, complex arrays as [re, im] pairs.

    A PSD window without exact support is only consistent up to it.
    """
    payload = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            payload[key] = _pairs(value)
    if payload.get("verdict") == "PSD" and not payload["exact"]:
        payload["verdict"] = "ConsistentUpToWindow"
    return payload


def _exit_for(payload):
    """The exit code of a payload: 0 when its tag (or window verdict) is decided, else 2."""
    tag = payload["tag"] if "tag" in payload else payload["verdict"]
    return EXIT_DECIDED if tag in _DECIDED_TAGS else EXIT_UNDECIDED


def _report(result, args):
    """Emit a verdict or window report and return its exit code."""
    payload = _payload(result)
    _emit(payload, args)
    return _exit_for(payload)


# suite name -> (runner, default --cases or None when it takes no cases, CSV header)
_SUITES = {
    "oracle-equivalence": (suites.oracle_equivalence, 200,
                           ["case", "symbol", "verdict", "min_commutator_eig", "agree"]),
    "model-identity": (suites.model_identity, 100,
                       ["case", "n", "d", "deg_p", "max_deviation", "pass"]),
    "completion-grid": (suites.completion_grid, None,
                        ["case", "family", "params", "max_commutator_entry", "normal"]),
    "classifier-harness": (suites.classifier_harness, 100, ["case", "tag", "violation"]),
}


def _suite(args):
    run, default, header = _SUITES[args.name]
    if default is None:  # a fixed grid: a count or a seed would name a sweep that does not run
        if args.cases is not None or args.seed is not None:
            raise ExprError(f"suite {args.name} takes no --cases or --seed")
        rows, ok = run()
    else:
        cases = default if args.cases is None else args.cases  # only a missing flag means the default
        if cases < 1:
            raise ExprError(f"--cases must be at least 1, not {cases}")
        rows, ok = run(cases=cases, seed=0 if args.seed is None else args.seed)
    _write(_csv([header, *rows]), args)
    return EXIT_DECIDED if ok else EXIT_UNDECIDED


def _export_model(args):
    zeros = json.loads(args.zeros)
    if not isinstance(zeros, list):
        raise ExprError(f"--zeros must be a JSON list, not {type(zeros).__name__}")
    if any(isinstance(x, bool) for x in zeros):
        raise ExprError(f"--zeros entries must be numbers or complex strings, not booleans: {zeros}")
    try:
        zeros = [complex(x) for x in zeros]
    except (TypeError, ValueError) as e:
        raise ExprError(f"--zeros entries must be numbers or complex strings: {e}") from e
    _emit({"zeros": _pairs(zeros), "matrix": _pairs(ms.build_M(zeros))}, args)
    return EXIT_DECIDED


def _export_completion_residual(args):
    rows = []
    for W in [int(w) for w in args.windows.split(",")]:
        res, norm = op.normal_nontoeplitz_completion(W)
        rows.append([W, f"{res:.16e}", f"{norm:.16e}"])
    _write(_csv([["window", "interior_residual", "offdiag_norm"], *rows]), args)
    return EXIT_DECIDED


def _export_eig_sweep(args):
    """One `check-k` verdict per window; the command exits with the worst row's code."""
    phi = load_symbol(args)
    windows = [int(w) for w in args.windows.split(",")]
    payloads = [_payload(op.k_hypo_window(phi, args.k, W)) for W in windows]
    rows = [[W, args.k, f"{p['min_eigenvalue']:.16e}", p["verdict"], p["exact"]]
            for W, p in zip(windows, payloads)]
    _write(_csv([["window", "k", "min_eigenvalue", "verdict", "exact"], *rows]), args)
    return max(map(_exit_for, payloads))


def _checked_tolerances(args):
    """The parsed args, once each --tol-* value among them is finite and non-negative."""
    for name in ("tol_contract", "tol_psd"):
        tol = getattr(args, name, 0.0)
        if not 0.0 <= tol < np.inf:
            raise ExprError(f"--{name.replace('_', '-')} must be a finite non-negative number, not {tol}")
    return args


class _Parser(argparse.ArgumentParser):
    """Matches flags in full: `--win` is an unknown flag, not `--window`.

    `add_subparsers` gives every subcommand and `export` target this class too.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser():
    p = _Parser(
        prog="blocktoeplitz",
        description="Hyponormality / k-hyponormality / completion verdicts for "
        "block Toeplitz operators with rational symbols",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, symbol=True, fmt=True):
        if symbol:
            sp.add_argument("symbol", nargs="?", help="path to a symbol JSON file")
            sp.add_argument("--phi", help="scalar symbol expression, e.g. 'zbar+2z'")
        if fmt:
            sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", help="write output to this file")

    sp = sub.add_parser("check-hyponormal", help="full hyponormality decision")
    add_common(sp)
    sp.add_argument("--tol-contract", type=float, default=dc.CONTRACT_TOL)
    sp.set_defaults(func=lambda a: _report(
        dc.decide_hyponormal(load_symbol(a), contract_tol=a.tol_contract), a))

    sp = sub.add_parser("check-k", help="k-hyponormality window test")
    add_common(sp)
    sp.add_argument("--window", type=int, default=16)
    sp.add_argument("--tol-psd", type=float, default=op.PSD_TOL)
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(func=lambda a: _report(
        op.k_hypo_window(load_symbol(a), a.k, a.window, psd_tol=a.tol_psd), a))

    sp = sub.add_parser("check-square", help="hyponormality of the square, windowed")
    add_common(sp)
    sp.add_argument("--window", type=int, default=16)
    sp.add_argument("--tol-psd", type=float, default=op.PSD_TOL)
    sp.set_defaults(func=lambda a: _report(
        op.square_hypo_window(load_symbol(a), a.window, psd_tol=a.tol_psd), a))

    sp = sub.add_parser("classify", help="normal-or-analytic classification")
    add_common(sp)
    sp.set_defaults(func=lambda a: _report(dc.classify_normal_or_analytic(load_symbol(a)), a))

    sp = sub.add_parser("complete-ustar", help="normal completion families for the "
                        "double conjugate-shift corner")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--psi", required=True)
    sp.add_argument("--window", type=int, default=24)
    add_common(sp, symbol=False)
    sp.set_defaults(func=lambda a: _report(dc.complete_ustar(
        parse_scalar_symbol(a.phi), parse_scalar_symbol(a.psi), window=a.window), a))

    sp = sub.add_parser("no-completion", help="hyponormal completion impossibility "
                        "for the mixed shift corner")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--psi", required=True)
    sp.add_argument("--window", type=int, default=16)
    add_common(sp, symbol=False)
    sp.set_defaults(func=lambda a: _report(dc.no_hypo_completion_shift_pair(
        parse_scalar_symbol(a.phi), parse_scalar_symbol(a.psi), window=a.window), a))

    sp = sub.add_parser("suite", help="randomized/cross-validation sweeps")
    sp.add_argument("name", choices=list(_SUITES))
    sp.add_argument("--cases", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_suite)

    sp = sub.add_parser("export", help="write matrices, witnesses, and sweeps")
    targets = sp.add_subparsers(dest="what", required=True)
    tp = targets.add_parser("model", help="shift model matrix on the given zeros (JSON)")
    tp.add_argument("--zeros", required=True, help="JSON list of model zeros, e.g. '[0, 0]'")
    add_common(tp, symbol=False)
    tp.set_defaults(func=_export_model)
    tp = targets.add_parser("defect", help="hyponormality verdict with its defect (JSON)")
    add_common(tp)
    tp.set_defaults(func=lambda a: _report(dc.decide_hyponormal(load_symbol(a)), a))
    tp = targets.add_parser("witness", help="k-hyponormality window report (JSON)")
    add_common(tp)
    tp.add_argument("--window", type=int, default=16)
    tp.add_argument("--k", type=int, default=2)
    tp.set_defaults(func=lambda a: _report(op.k_hypo_window(load_symbol(a), a.k, a.window), a))
    tp = targets.add_parser("completion-residual", help="completion residual per window (CSV)")
    add_common(tp, symbol=False, fmt=False)
    tp.add_argument("--windows", default="8,16,32,64")
    tp.set_defaults(func=_export_completion_residual)
    tp = targets.add_parser("eig-sweep", help="k-window minimum eigenvalue per window (CSV)")
    add_common(tp, fmt=False)
    tp.add_argument("--k", type=int, default=2)
    tp.add_argument("--windows", default="8,16,32,64")
    tp.set_defaults(func=_export_eig_sweep)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # --help exits 0; argparse's usage-error code 2 would read as "undecided" here
        return EXIT_INPUT if e.code else EXIT_DECIDED
    try:
        return args.func(_checked_tolerances(args))
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        # quadrature or a solver failed: undecided, not an input error
        # (LinAlgError subclasses ValueError, so it must be caught first)
        print(f"undecided: {e}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ExprError, FileNotFoundError, json.JSONDecodeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
