import argparse
import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from blocktoeplitz.cli import ExprError, build_parser, main, parse_scalar_symbol


def test_parse_simple_terms():
    phi = parse_scalar_symbol("zbar + 2z")
    assert phi.scalar_coeff(-1) == 1
    assert phi.scalar_coeff(1) == 2


def test_parse_powers_and_implicit_multiplication():
    phi = parse_scalar_symbol("zbar^2 + 2zbar + z + 2z^2")
    assert phi.scalar_coeff(-2) == 1
    assert phi.scalar_coeff(-1) == 2
    assert phi.scalar_coeff(1) == 1
    assert phi.scalar_coeff(2) == 2


def test_parse_complex_literals_and_parens():
    phi = parse_scalar_symbol("(1+2i)*z - 3i")
    assert phi.scalar_coeff(1) == 1 + 2j
    assert phi.scalar_coeff(0) == -3j


def test_parse_negative_exponent():
    phi = parse_scalar_symbol("z^-2 + z^2")
    assert phi.scalar_coeff(-2) == 1
    assert phi.scalar_coeff(2) == 1


def test_parse_rejects_garbage():
    with pytest.raises(ExprError):
        parse_scalar_symbol("z + @")
    with pytest.raises(ExprError):
        parse_scalar_symbol("z^(1")


def test_check_hyponormal_exit_and_json(capsys):
    code = main(["check-hyponormal", "--phi", "zbar^2 + 2zbar + z + 2z^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tag"] == "Hyponormal"
    assert out["rank_defect"] == 1
    np.testing.assert_allclose(
        [[c[0] for c in row] for row in out["defect"]],
        [[3 / 16, -3 / 8], [-3 / 8, 3 / 4]],
        atol=1e-10,
    )


def test_check_k_from_file(tmp_path, capsys):
    X = [[0.0, 1.0], [1.0, 0.0]]
    mat = lambda s: [[[s * v, 0.0] for v in row] for row in X]
    payload = {
        "n": 2,
        "coeffs": [
            {"deg": -1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            {"deg": -2, "matrix": mat(1.0)},
            {"deg": 2, "matrix": mat(2.0)},
        ],
    }
    f = tmp_path / "sym.json"
    f.write_text(json.dumps(payload))
    code = main(["check-k", "--k", "2", "--window", "10", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "NotPSD"
    assert out["witness"] is not None


def test_export_witness_matches_check_k(capsys):
    argv = ["--phi", "2z+z^2", "--k", "2", "--window", "3"]
    code = main(["export", "witness", *argv])
    exported = json.loads(capsys.readouterr().out)
    assert main(["check-k", *argv]) == code == 2
    assert json.loads(capsys.readouterr().out) == exported
    assert exported["verdict"] == "ConsistentUpToWindow" and not exported["exact"]


def test_check_k_selfadjoint_symbol_is_exact_psd(capsys):
    # T is self-adjoint, so k-hyponormal for every k: the window above W* = 9 is exact
    code = main(["check-k", "--phi", "7.3zbar + 7.3z", "--k", "3", "--window", "24"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "PSD" and out["exact"] is True


def test_check_square_notpsd(capsys):
    code = main(["check-square", "--phi", "zbar+2z", "--window", "32"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "NotPSD"
    assert out["min_eigenvalue"] < -1e-3


def test_complete_ustar_cli(capsys):
    code = main(["complete-ustar", "--phi", "z", "--psi", "z"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tag"] == "Normal" and out["family"] == 1


def test_no_completion_cli(capsys):
    code = main(["no-completion", "--phi=z", "--psi=-zbar"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tag"] == "NotHyponormal"


def test_input_error_exit(capsys):
    code = main(["check-hyponormal", "--phi", "z + @@"])
    assert code == 1
    code = main(["check-hyponormal", "/nonexistent/file.json"])
    assert code == 1


@pytest.mark.parametrize("argv, symbol_file", [
    (["check-hyponormal"], '{"coeffs": []}'),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": 1, "matrix": 5}]}'),
    (["export", "model", "--zeros", "1"], None),
    (["export", "model", "--zeros", "[[1,2]]"], None),
    (["export", "model", "--zeros", '{"0.5": 1}'], None),
    (["export", "model", "--zeros", '"0"'], None),
    (["export", "model", "--zeros", '"05"'], None),
    (["export", "model", "--zeros", '"00"'], None),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": 1.5, "matrix": [[[1, 0]]]}]}'),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": "1", "matrix": [[[1, 0]]]}]}'),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": true, "matrix": [[[1, 0]]]}]}'),
    (["check-hyponormal"], '{"n": 1.7, "coeffs": [{"deg": 1, "matrix": [[[1, 0]]]}]}'),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": 1, "matrix": [[[1, 0]]]}, '
                           '{"deg": 1, "matrix": [[[2, 0]]]}]}'),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": 1, "matrix": [[[1, 0, 5]]]}]}'),
    (["check-hyponormal"], '{"n": 0, "coeffs": []}'),
    (["suite", "classifier-harness", "--cases=0"], None),
    (["suite", "classifier-harness", "--cases=-3"], None),
    (["suite", "completion-grid", "--cases", "3", "--seed", "9"], None),
    (["suite", "completion-grid", "--seed", "0"], None),
    (["export", "model", "--zeros", "[NaN]"], None),
    (["export", "model", "--zeros", "[false, 0.5]"], None),
    (["check-hyponormal"], '{"n": 1, "coeffs": [{"deg": 1, "matrix": [[[true, false]]]}]}'),
    (["check-hyponormal", "--phi", "2zbar+z", "--tol-contract=inf"], None),
    (["check-hyponormal", "--phi", "zbar+2z", "--tol-contract=nan"], None),
    (["check-hyponormal", "--phi", "zbar+2z", "--tol-contract=-1"], None),
    (["check-k", "--phi", "zbar^2 + 2zbar + z + 2z^2", "--k", "1", "--window", "12",
      "--tol-psd=nan"], None),
    (["check-square", "--phi", "zbar+2z", "--tol-psd=-inf"], None),
], ids=["file-without-n", "file-matrix-not-a-list", "zeros-not-a-list", "zeros-nested",
        "zeros-object", "zeros-string", "zeros-digit-string",
        "zeros-in-disk-digit-string", "file-deg-float", "file-deg-string",
        "file-deg-bool", "file-n-float", "file-deg-repeated", "file-entry-three-values",
        "file-n-zero", "suite-cases-zero", "suite-cases-negative", "suite-grid-cases-seed",
        "suite-grid-seed", "zeros-nan", "zeros-bool", "file-entry-bool", "tol-contract-inf",
        "tol-contract-nan", "tol-contract-negative", "tol-psd-nan", "tol-psd-negative-inf"])
def test_malformed_input_is_an_input_error(argv, symbol_file, tmp_path, capsys):
    if symbol_file is not None:
        path = tmp_path / "symbol.json"
        path.write_text(symbol_file)
        argv = argv + [str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_export_model(capsys):
    code = main(["export", "model", "--zeros", "[0, 0]"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["matrix"][1][0] == [1.0, 0.0]
    code = main(["export", "model", "--zeros", '["0.3+0.2j", "0.3+0.2j"]'])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["zeros"] == [[0.3, 0.2], [0.3, 0.2]]


def test_export_completion_residual(capsys):
    code = main(["export", "completion-residual", "--windows", "8,16,32,64"])
    text = capsys.readouterr().out
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "window,interior_residual,offdiag_norm"
    residuals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(r <= 1e-6 for r in residuals)
    assert all(b <= r + 1e-12 for r, b in zip(residuals, residuals[1:]))


def test_suite_reproducible_bytes(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert main(["suite", "oracle-equivalence", "--cases", "15", "--seed", "9",
                 "--out", str(f1)]) == 0
    assert main(["suite", "oracle-equivalence", "--cases", "15", "--seed", "9",
                 "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_suite_seed_changes_output(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    main(["suite", "oracle-equivalence", "--cases", "15", "--seed", "1", "--out", str(f1)])
    main(["suite", "oracle-equivalence", "--cases", "15", "--seed", "2", "--out", str(f2)])
    assert f1.read_bytes() != f2.read_bytes()


def test_marginal_exit_code(capsys, tmp_path):
    # an Inconclusive/Marginal-style verdict must not exit 0: use a symbol
    # that is consistent-up-to-window on the k test
    code = main(["check-k", "--k", "2", "--window", "8", "--phi", "zbar+2z"])
    out = json.loads(capsys.readouterr().out)
    if out["verdict"] == "ConsistentUpToWindow":
        assert code == 2
    else:
        assert code == 0


def test_export_eig_sweep(capsys):
    code = main(["export", "eig-sweep", "--phi", "zbar+2z", "--k", "2",
                 "--windows", "6,8,10"])
    text = capsys.readouterr().out
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "window,k,min_eigenvalue,verdict,exact"
    eigs = [float(l.split(",")[2]) for l in lines[1:]]
    # compressions nest: the minimum eigenvalue cannot increase with the window
    assert all(b <= a + 1e-9 for a, b in zip(eigs, eigs[1:]))


def test_export_eig_sweep_rows_read_as_check_k(capsys):
    # a PSD row without exact support is only consistent up to its window, and
    # the command exits with its worst row's code, as check-k does on that window
    code = main(["export", "eig-sweep", "--phi", "2z+z^2", "--k", "2", "--windows", "3,16"])
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert code == 2
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == [
        ("3", "2", "ConsistentUpToWindow", "False"), ("16", "2", "PSD", "True")]
    assert main(["check-k", "--phi", "2z+z^2", "--k", "2", "--window", "3"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "ConsistentUpToWindow"


RESULT_KEYS = {
    "verdict": {"tag", "sigma_max", "defect", "rank_defect", "witness", "family", "notes"},
    "window": {"min_eigenvalue", "witness", "verdict", "exact", "window", "notes"},
}


@pytest.mark.parametrize("command, result", [
    ("check-hyponormal --phi zbar+2z", "verdict"),
    ("classify --phi 2z", "verdict"),
    ("complete-ustar --phi z --psi z", "verdict"),
    ("no-completion --phi=z --psi=-zbar", "verdict"),
    ("export defect --phi zbar+2z", "verdict"),
    ("check-k --phi zbar+2z --k 2 --window 8", "window"),
    ("check-square --phi zbar+2z", "window"),
    ("export witness --phi zbar+2z", "window"),
])
def test_json_keys_per_command(command, result, capsys):
    # a field added to a result type must not reach the CLI output unnoticed
    main(shlex.split(command))
    assert set(json.loads(capsys.readouterr().out)) == RESULT_KEYS[result]


def test_verdict_csv_format(capsys):
    code = main(["check-hyponormal", "--phi", "zbar+2z", "--format", "csv"])
    text = capsys.readouterr().out
    assert code == 0
    header, row = text.strip().splitlines()
    assert header.split(",")[-2:] == ["tag", "witness"]
    assert '"Hyponormal"' in row


def test_nonconvergent_quadrature_exits_undecided(capsys, monkeypatch):
    # an impossible grid cap forces the compression oracle to give up;
    # the CLI reports undecided (2) rather than crashing or claiming input error
    import blocktoeplitz.modelspace as ms

    monkeypatch.setattr(ms, "GRID_CAP", 4)
    code = main(["suite", "model-identity", "--cases", "1", "--seed", "0"])
    assert code == 2
    assert "undecided" in capsys.readouterr().err


def test_solver_failure_exits_undecided(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet a failed solve is not an input error
    from blocktoeplitz import operators as op

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue solver did not converge")

    monkeypatch.setattr(op, "k_hypo_window", fail)
    code = main(["check-k", "--k", "2", "--window", "8", "--phi", "zbar+2z"])
    assert code == 2
    assert "undecided" in capsys.readouterr().err


# every option each subcommand accepts, positionals by dest: a flag its handler
# does not read must not come back unnoticed
PARSER_OPTIONS = {
    "check-hyponormal": ["symbol", "--phi", "--format", "--out", "--tol-contract"],
    "check-k": ["symbol", "--phi", "--format", "--out", "--window", "--tol-psd", "--k"],
    "check-square": ["symbol", "--phi", "--format", "--out", "--window", "--tol-psd"],
    "classify": ["symbol", "--phi", "--format", "--out"],
    "complete-ustar": ["--phi", "--psi", "--window", "--format", "--out"],
    "no-completion": ["--phi", "--psi", "--window", "--format", "--out"],
    "suite": ["name", "--cases", "--seed", "--out"],
    "export": ["what"],
    "export model": ["--zeros", "--format", "--out"],
    "export defect": ["symbol", "--phi", "--format", "--out"],
    "export witness": ["symbol", "--phi", "--format", "--out", "--window", "--k"],
    "export completion-residual": ["--windows", "--out"],
    "export eig-sweep": ["symbol", "--phi", "--out", "--k", "--windows"],
}


def _subparsers(parser, prefix=""):
    """{"command": parser} for every subcommand, nested ones as "command target"."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                out[prefix + name] = sp
                out.update(_subparsers(sp, prefix + name + " "))
    return out


def test_parser_options_per_command():
    parsers = _subparsers(build_parser())
    found = {name: sorted(a.option_strings[0] if a.option_strings else a.dest
                          for a in sp._actions if not isinstance(a, argparse._HelpAction))
             for name, sp in parsers.items()}
    assert found == {name: sorted(opts) for name, opts in PARSER_OPTIONS.items()}
    assert sum(map(len, found.values())) == 57
    windows = {name: sp.get_default("window") for name, sp in parsers.items()
               if "--window" in PARSER_OPTIONS[name]}
    assert windows == {"check-k": 16, "check-square": 16, "complete-ustar": 24,
                       "no-completion": 16, "export witness": 16}
    defaults = {name: (sp.get_default("k"), sp.get_default("windows")) for name, sp in parsers.items()
                if name.startswith("export ")}
    assert defaults == {"export model": (None, None), "export defect": (None, None),
                        "export witness": (2, None),
                        "export completion-residual": (None, "8,16,32,64"),
                        "export eig-sweep": (2, "8,16,32,64")}


def test_export_rejects_flags_its_target_does_not_read(capsys):
    assert main(["export", "completion-residual", "--windows", "8", "--format", "json"]) == 1
    assert main(["export", "model", "--zeros", "[0]", "--phi", "z", "--k", "5",
                 "--windows", "3"]) == 1
    assert main(["export", "model"]) == 1  # --zeros is required
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_usage_errors_exit_input(capsys):
    # argparse exits 2 on a usage error, which here would read as "undecided"
    assert main(["classify", "--phi", "2z", "--window", "8"]) == 1
    assert main(["complete-ustar", "--phi", "z"]) == 1
    assert main(["--help"]) == 0


def test_flag_prefixes_are_unknown_flags(capsys):
    # a prefix of a flag the command reads is not that flag
    assert main(["check-k", "--k", "1", "--win", "8", "--phi", "zbar+2z"]) == 1
    assert main(["export", "eig-sweep", "--phi", "z", "--window", "8"]) == 1
    assert "unrecognized arguments: --window\n" in capsys.readouterr().err
    parser = build_parser()
    assert not parser.allow_abbrev
    assert not any(sp.allow_abbrev for sp in _subparsers(parser).values())


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [ln for ln in readme.splitlines() if ln.startswith("blocktoeplitz ")]
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_completion_residual_window_over_budget(capsys):
    t0 = time.monotonic()
    code = main(["export", "completion-residual", "--windows", "100000"])
    assert code == 1
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert "100000" in err and "GiB" in err
