import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetfactor
from jetfactor import (ControlSystem, RatFn, U, X, battery, builtin_fixtures,
                       elkin_forms_32, parse_document, pullback_matrix,
                       random_nonaut_static_pair, random_static_transform,
                       serialize)
from jetfactor.cli import main, numeric_crosscheck
from jetfactor.errors import SingularTrajectory, UsageError

PHI, PHI_INV = builtin_fixtures()[0]
GOLDEN = Path(__file__).with_name("golden") / "cli.json"
SRC = Path(jetfactor.__file__).resolve().parents[1]


def _golden_battery(fmt):
    """The recorded `fixtures --format <fmt>` run (see tests/test_golden.py)."""
    return json.loads(GOLDEN.read_text())["fixtures"][fmt]


@pytest.fixture
def files(tmp_path):
    def put(name, obj):
        p = tmp_path / name
        p.write_text(serialize(obj) if not isinstance(obj, str) else obj)
        return str(p)

    return {
        "src": put("src.sys", PHI.src),
        "tgt": put("tgt.sys", PHI.tgt),
        "map": put("phi.map", PHI),
        "inv": put("phi_inv.map", PHI_INV),
        "elkin5": put("elkin5.sys", elkin_forms_32()[4]),
        "put": put,
    }


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -------------------------------------------------------------------
# verify

def test_verify_pair(files, capsys):
    code, out, _ = run(capsys, "verify", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"],
                       "--inv", files["inv"])
    assert code == 0
    assert out.splitlines()[0] == \
        "forward: 0 residuals; inverse: identity to order 4; J=0 K=0"
    assert out.splitlines()[1].startswith("assuming nonzero: x2")


def test_verify_forward_only(files, capsys):
    code, out, _ = run(capsys, "verify", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"])
    assert code == 0
    assert out.splitlines()[0] == "forward: 0 residuals"


def test_verify_machine_format_reparses_and_repeats(files, capsys):
    args = ("verify", "--src", files["src"], "--tgt", files["tgt"],
            "--map", files["map"], "--inv", files["inv"],
            "--format", "machine")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = parse_document(out1)
    assert doc.kind == "report"
    got = dict(doc.body)
    assert got["forward_ok"] == "true"
    assert got["detected_J"] == "0" and got["detected_K"] == "0"
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_catches_a_broken_map(files, capsys):
    bad = serialize(PHI).replace("y1 = x1*x2 - x3", "y1 = x1*x2 + x3")
    path = files["put"]("bad.map", bad)
    code, out, _ = run(capsys, "verify", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", path)
    assert code == 1
    assert out.splitlines()[0] == "forward: 1 residuals"


# -------------------------------------------------------------------
# exit code 2: unusable input

def test_unreadable_file_is_usage_error(files, capsys):
    code, _, err = run(capsys, "verify", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", "/no/such/file.map")
    assert code == 2
    assert "cannot read" in err


def test_parse_error_is_usage_error(files, capsys):
    path = files["put"]("mangled.sys",
                        "system { states = 3 controls = 2 f1 = @ }")
    code, _, err = run(capsys, "classify", "--sys", path)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("rhs, msg", [
    ("u1/(x1-x1)", "col 10: division by zero"),
    ("1/0", "col 9: division by zero"),
    ("0^-1", "col 9: zero to a negative power"),
])
def test_division_by_zero_in_input_exits_2(files, capsys, rhs, msg):
    path = files["put"]("div.sys", "system {\n  states = 1\n  controls = 1"
                                   "\n  f1 = %s\n}\n" % rhs)
    code, out, err = run(capsys, "classify", "--sys", path)
    assert (code, out, err) == (2, "", "error: line 4, %s\n" % msg)


def test_non_ascii_inside_a_number_or_name_exits_2(files, capsys):
    path = files["put"]("sq.sys", "system {\n  states = 1\n  controls = 1"
                                  "\n  f1 = u1^2²\n}\n")
    code, out, err = run(capsys, "classify", "--sys", path)
    assert (code, out, err) == (
        2, "", "error: line 4, col 12: non-ascii character '²'\n")
    path = files["put"]("x13.map", serialize(PHI).replace(
        "y1 = x1*", "y1 = x1٣*"))
    code, out, err = run(capsys, "verify", "--src", files["src"],
                         "--tgt", files["tgt"], "--map", path)
    assert (code, out, err) == (
        2, "", "error: line 2, col 10: non-ascii character '٣'\n")


def test_map_path_a_report_cannot_name_exits_2(files, capsys):
    for name in ['we"ird.map', "two\nlines.map", "cr\rpath.map"]:
        path = files["put"](name, serialize(PHI))
        code, out, err = run(capsys, "pullback", "--src", files["src"],
                             "--tgt", files["tgt"], "--map", path,
                             "--format", "machine")
        assert (code, out) == (2, "")
        assert err.startswith("error: map path ") \
            and err.endswith("holds a quote or a line break, which a "
                             "report cannot name\n")


def test_oversized_power_in_input_exits_2(files, capsys):
    path = files["put"]("pow.sys", "system {\n  states = 1\n  controls = 1"
                                   "\n  f1 = (x1 + u1)^1000\n}\n")
    code, out, err = run(capsys, "classify", "--sys", path)
    assert (code, out, err) == (
        2, "", "error: line 4, col 17: power may expand past 1000 terms\n")


@pytest.mark.parametrize("rhs, msg", [
    (b"u1 \xff", "col 11: invalid UTF-8 byte 0xff"),
    (b"(" * 300 + b"u1" + b")" * 300,
     "col 108: expression nests deeper than 100 levels"),
    (b"-" * 600 + b"u1", "col 108: expression nests deeper than 100 levels"),
], ids=["not-utf-8", "300-parentheses", "600-minus-signs"])
def test_undecodable_or_deeply_nested_input_exits_2(files, capsys, rhs, msg):
    path = Path(files["src"]).with_name("deep.sys")
    path.write_bytes(b"system {\n  states = 1\n  controls = 1\n  f1 = %s\n}\n"
                     % rhs)
    code, out, err = run(capsys, "classify", "--sys", str(path))
    assert (code, out, err) == (2, "", "error: line 4, %s\n" % msg)


def test_bad_arguments_exit_2(files, capsys):
    assert run(capsys, "verify", "--src", files["src"])[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    code, _, err = run(capsys, "prolong", "--sys", files["elkin5"],
                       "--promote", "1,zap")
    assert code == 2
    assert "comma-separated" in err


def test_parser_is_built_once_and_survives_a_usage_error(files, capsys,
                                                         monkeypatch):
    import argparse
    import jetfactor.cli as cli_mod
    builds = []
    real = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: builds.append(self) or real(self, **kw))
    cli_mod._build_parser.cache_clear()
    assert run(capsys, "verify", "--src", files["src"])[0] == 2
    argv = ["classify", "--sys", files["elkin5"], "--format", "machine"]
    got = run(capsys, *argv)
    assert len(builds) == 1
    # the reused parser answers like the one a fresh process builds
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from jetfactor.cli import main; sys.exit(main())"] + argv,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert got == (fresh.returncode, fresh.stdout, fresh.stderr)


PAIR = ["--src", "src", "--tgt", "tgt", "--map", "map"]


@pytest.mark.parametrize("argv", [
    ["pullback", "-N", "0"] + PAIR,
    ["factor", "-N", "0"] + PAIR,
    ["structure-check", "-N", "0", "--sys", "src"],
    ["fixtures", "-N", "0"],
    ["verify", "-N", "-1"] + PAIR,
    ["verify", "-N", "0"] + PAIR,
    ["pullback", "-N", "101"] + PAIR,
    ["crosscheck", "--steps", "0"] + PAIR,
    ["crosscheck", "--steps", "-3"] + PAIR,
    ["crosscheck", "--steps", "100001"] + PAIR,
    ["crosscheck", "--T", "0"] + PAIR,
    ["crosscheck", "--T", "nan"] + PAIR,
    ["crosscheck", "--tol", "nan"] + PAIR,
    ["crosscheck", "--tol", "0"] + PAIR,
    ["crosscheck", "--tol", "-1"] + PAIR,
    ["crosscheck", "--tol", "inf"] + PAIR,
], ids=" ".join)
def test_out_of_range_numbers_exit_2(files, capsys, argv):
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2, (out, err)


def test_an_oversized_order_is_a_usage_error(files, capsys):
    # -N 10^9 used to run structure-check out of memory (exit 3); 101, the
    # smallest level refused, takes under a second where nothing refuses it
    code, out, err = run(capsys, "structure-check", "-N", "101",
                         "--sys", files["src"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: jetfactor structure-check")
    assert err.endswith("argument -N/--order: truncation level must be "
                        "from 1 to 100\n")


# every flag a command does not read, with a value where it takes one:
# pullback alone reads --strict, and each command takes only those of the
# shared -N, --seed and --format that its cmd_* reads
_UNREAD = {
    "verify": [["--strict"], ["--seed", "1"]],
    "pullback": [["--seed", "1"]],
    "factor": [["--strict"], ["--seed", "1"]],
    "crosscheck": [["--strict"], ["-N", "2"]],
    "classify": [["--strict"], ["-N", "2"]],
    "structure-check": [["--strict"], ["--seed", "1"]],
    "prolong": [["--strict"], ["-N", "2"], ["--seed", "1"],
                ["--format", "machine"]],
    "fixtures": [["--strict"]],
}


@pytest.mark.parametrize("argv", [
    ["verify"] + PAIR,
    ["pullback"] + PAIR,
    ["factor"] + PAIR,
    ["crosscheck"] + PAIR,
    ["classify", "--sys", "src"],
    ["structure-check", "--sys", "src"],
    ["prolong", "--sys", "src"],
    ["fixtures"],
], ids=lambda argv: argv[0])
def test_only_pullback_takes_strict(files, capsys, argv):
    for flag in _UNREAD[argv[0]]:
        code, out, err = run(capsys, *[files.get(a, a) for a in argv], *flag)
        assert (code, out) == (2, ""), flag
        assert err.endswith("error: unrecognized arguments: %s\n"
                            % " ".join(flag))


@pytest.mark.parametrize("argv", [
    ["verify"] + PAIR,
    ["pullback"] + PAIR,
    ["factor"] + PAIR,
    ["crosscheck"] + PAIR,
    ["classify", "--sys", "src"],
    ["structure-check", "--sys", "src"],
    ["prolong", "--sys", "src"],
], ids=lambda argv: argv[0])
def test_a_count_past_the_bound_exits_2(files, capsys, argv):
    # these 44 bytes kept classify busy past 300 s before counts were
    # bounded; every command that reads a system refuses them (fixtures
    # reads none)
    wide = files["put"]("wide.sys",
                        "system { states = 1 controls = 500 f1 = u1 }")
    code, out, err = run(capsys, *[wide if a in ("src", "tgt") else
                                   files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err == "error: line 1, col 21: controls must be at most 32\n"


def test_internal_errors_exit_3(files, capsys, monkeypatch):
    import jetfactor.cli as cli_mod
    monkeypatch.setattr(cli_mod, "classify_static",
                        lambda s, seed=0: 1 / 0)
    code, _, err = run(capsys, "classify", "--sys", files["elkin5"])
    assert code == 3
    assert "internal invariant violation" in err


# -------------------------------------------------------------------
# pullback

def test_pullback_text_and_machine(files, capsys):
    code, out, _ = run(capsys, "pullback", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"])
    assert code == 0
    assert "dt-column: zero" in out
    # a strict dynamic map shifts levels, so the matrix is not block-lower
    assert "block-lower: no" in out

    code, out, _ = run(capsys, "pullback", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"],
                       "--format", "machine")
    assert code == 0
    doc = parse_document(out)
    assert doc.kind == "matrix-report"
    assert doc.body == pullback_matrix(PHI, N=4)


def test_pullback_strict_keeps_its_bytes(files, capsys):
    # phi's dt-columns are zero, so --strict has nothing to refuse
    args = ["pullback", "--src", files["src"], "--tgt", files["tgt"],
            "--map", files["map"]]
    for fmt in ("text", "machine"):
        plain = run(capsys, *args, "--format", fmt)
        assert plain[0] == 0
        assert run(capsys, *args, "--format", fmt, "--strict") == plain


def test_pullback_imposter_nonstrict_vs_strict(files, capsys):
    imposter = files["put"]("imposter.map",
                            "map { y1 = x1 y2 = x2 y3 = x3"
                            " v1 = u1 v2 = u2 }")
    code, out, _ = run(capsys, "pullback", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", imposter)
    assert code == 1
    assert "dt-column: NONZERO" in out

    code, _, err = run(capsys, "pullback", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", imposter, "--strict")
    assert code == 1
    assert "DtResidue" in err


# -------------------------------------------------------------------
# factor

def test_factor_phi(files, capsys):
    code, out, _ = run(capsys, "factor", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"])
    assert code == 0
    assert "G: identity" in out
    assert "assumptions (nonzero along trajectories): u2" in out
    assert "product reconstructs the pullback matrix exactly" in out


def test_factor_below_order_2_is_a_truncation_error(files, capsys):
    # -N 1 passes the option's range, but a factorization needs levels
    # 0..N with N >= 2: a JetError (exit 1), not an internal one (exit 3)
    code, out, err = run(capsys, "factor", "--src", files["src"],
                         "--tgt", files["tgt"], "--map", files["map"],
                         "-N", "1")
    assert (code, out) == (1, "")
    assert err == ("TruncationExceeded: need levels 0..N with N >= 2 and "
                   "columns to N+1\n")


def test_factor_machine_reparses(files, capsys):
    code, out, _ = run(capsys, "factor", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"],
                       "--format", "machine")
    assert code == 0
    doc = parse_document(out)
    keys = [k for k, _ in doc.body]
    assert {"assumptions", "g", "S", "G"} <= set(keys)


def test_factor_names_a_static_map(files, capsys):
    fwd = random_static_transform(elkin_forms_32()[0], 0)[0]
    put = files["put"]
    code, out, err = run(capsys, "factor", "--src", put("a.sys", fwd.src),
                         "--tgt", put("b.sys", fwd.tgt),
                         "--map", put("static.map", fwd))
    assert (code, out, err) == (1, "", "RankMismatch: matrix comes from a "
                                       "static map, not a strict one\n")


# -------------------------------------------------------------------
# classify

def test_classify_text(files, capsys):
    code, out, _ = run(capsys, "classify", "--sys", files["elkin5"])
    assert code == 0
    assert out.rstrip() == "static: u1, u2, 1+x2*u1 ; dynamic: Class1"


def test_classify_machine(files, capsys):
    code, out, _ = run(capsys, "classify", "--sys", files["elkin5"],
                       "--format", "machine")
    assert code == 0
    got = dict(parse_document(out).body)
    assert got["tag"] == '"u1, u2, 1+x2*u1"'
    assert got["dynamic"] == '"Class1"'


def test_classify_no_dynamic_outside_32(files, capsys):
    path = files["put"]("chain.sys",
                        "system { states = 2 controls = 1"
                        " f1 = u1 f2 = x1 }")
    code, out, _ = run(capsys, "classify", "--sys", path)
    assert code == 0
    assert out.rstrip() == "static: u1, x1"


def test_classify_names_the_control_of_a_non_affine_rhs(files, capsys):
    path = files["put"]("bilinear.sys",
                        "system { states = 2 controls = 2"
                        " f1 = u1*u2 f2 = u2 }")
    code, out, err = run(capsys, "classify", "--sys", path)
    assert (code, out, err) == (1, "", "NotAffine: rhs is not affine in u1\n")


def test_classify_rational_nonautonomous_move(files, capsys):
    # the nonautonomous seed-0 move of (u1*x1, u2, x3*u1/(x2-3)); the
    # oracle, `python3 tests/oracles/oracle_invariants.py rational.sys`,
    # reads (2, False, False, 3, True, True) on it: the 1+x2*u1 row
    x1, x2, x3 = (RatFn.var(X(i)) for i in (1, 2, 3))
    u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))
    base = ControlSystem(3, 2, (u1 * x1, u2, x3 * u1 / (x2 - 3)))
    path = files["put"]("rational.sys", random_nonaut_static_pair(base, 0)[2])
    code, out, _ = run(capsys, "classify", "--sys", path)
    assert code == 0
    assert out.rstrip() == "static: u1, u2, 1+x2*u1 ; dynamic: Class1"


# -------------------------------------------------------------------
# structure-check

def test_structure_check_both_frames(files, capsys):
    code, out, _ = run(capsys, "structure-check", "--sys", files["elkin5"])
    assert code == 0
    lines = out.splitlines()
    assert "contact: structure equations hold at N=4" in lines
    assert "adapted: structure equations hold at N=4" in lines


def test_structure_check_adapted_needs_the_shape(files, capsys):
    path = files["put"]("chain.sys",
                        "system { states = 2 controls = 1"
                        " f1 = u1 f2 = x1 }")
    code, _, err = run(capsys, "structure-check", "--sys", path,
                       "--frame", "adapted")
    assert code == 2
    assert "normalized shape" in err
    # with both, the adapted frame is skipped rather than fatal
    code, out, _ = run(capsys, "structure-check", "--sys", path,
                       "--frame", "both")
    assert code == 0
    assert "contact:" in out and "adapted:" not in out


# -------------------------------------------------------------------
# prolong

def test_prolong_total(files, capsys):
    code, out, _ = run(capsys, "prolong", "--sys", files["elkin5"])
    assert code == 0
    s = parse_document(out).body
    assert (s.n, s.s) == (5, 2)
    assert s.f[2].to_text() == "x2*x4 + 1"


def test_prolong_partial(files, capsys):
    code, out, _ = run(capsys, "prolong", "--sys", files["elkin5"],
                       "--promote", "1")
    assert code == 0
    s = parse_document(out).body
    assert (s.n, s.s) == (4, 2)


@pytest.mark.parametrize("promote", ["3", "0", "-1", ",", "", "1,3"])
def test_bad_promote_indices_exit_2(files, capsys, promote):
    code, out, err = run(capsys, "prolong", "--sys", files["elkin5"],
                         "--promote", promote)
    assert (code, out, err) == (2, "", "error: --promote wants a "
                                "comma-separated list of control indices "
                                "from 1 to 2\n")


# -------------------------------------------------------------------
# crosscheck

def test_crosscheck_passes_on_phi(files, capsys):
    code, out, _ = run(capsys, "crosscheck", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"])
    assert code == 0
    assert out.rstrip().endswith("pass")
    assert "T=1" in out


def test_crosscheck_machine(files, capsys):
    code, out, _ = run(capsys, "crosscheck", "--src", files["src"],
                       "--tgt", files["tgt"], "--map", files["map"],
                       "--format", "machine", "--steps", "400")
    assert code == 0
    got = dict(parse_document(out).body)
    assert got["passed"] == "true"


@pytest.mark.parametrize("field", ["u1 + x1^400", "u1 + 10^400*x1"])
def test_crosscheck_overflow_in_the_target_field_fails(files, capsys, field):
    # y1 = x1 + 100 is near 100, so y1^400 overflows a float, and so does
    # the coefficient 10^400; the residual is then infinite and fails
    args = ["crosscheck",
            "--src", files["put"]("one.sys", "system { states = 1 controls = 1 "
                                             "f1 = u1 }"),
            "--tgt", files["put"]("big.sys", "system { states = 1 controls = 1 "
                                             "f1 = %s }" % field),
            "--map", files["put"]("shift.map", "map { y1 = x1 + 100 v1 = u1 }")]
    code, out, err = run(capsys, *args)
    assert (code, err) == (1, "")
    assert out == "max residual inf over T=1 (seed 0, 1 draw): FAIL\n"
    code, out, _ = run(capsys, *args, "--format", "machine")
    assert code == 1
    assert dict(parse_document(out).body)["max_residual"] == '"inf"'


@pytest.mark.parametrize("kw", [{"steps": 3}, {"steps": 100001},
                                {"T": float("nan")},
                                {"T": float("inf")}, {"T": -1.0},
                                {"tol": float("nan")}, {"tol": 0.0},
                                {"tol": -1e-6}, {"tol": float("inf")}])
def test_crosscheck_rejects_unusable_grids(kw):
    with pytest.raises(UsageError):
        numeric_crosscheck(PHI, **kw)


def test_crosscheck_singular_controls_raise():
    theta = builtin_fixtures()[2][0]
    with pytest.raises(SingularTrajectory) as exc:
        numeric_crosscheck(theta, controls=[[0.3, 0.1, 0.0, 0.0],
                                            [0.0, 0.0, 0.0, 0.0]])
    assert str(exc.value) == (
        "no nonsingular trajectory after 1 draws (assumption vanishes on the "
        "trajectory); the map is only defined off its recorded singular set")


# repr(max_residual) and attempts of the 15 crosschecks in `fixtures --all`,
# recorded with term-by-term float evaluation (RatFn.eval_float point by
# point); the compiled evaluation must reproduce every bit of them
_FROZEN_RESIDUALS = {
    ("phi", 0): ("5.220468154987223e-13", 1),
    ("phi", 1): ("8.356093594841241e-13", 1),
    ("phi", 2): ("1.0387246618392965e-12", 1),
    ("phi", 3): ("7.510658761589184e-13", 1),
    ("phi", 4): ("6.767586491207567e-12", 1),
    ("psi", 0): ("8.070211166000263e-13", 1),
    ("psi", 1): ("9.534595335480844e-13", 1),
    ("psi", 2): ("1.0587641874337805e-12", 1),
    ("psi", 3): ("8.192890810221343e-13", 1),
    ("psi", 4): ("6.850298106542141e-12", 1),
    ("theta", 0): ("5.096529918091619e-07", 6),
    ("theta", 1): ("5.915348211260607e-10", 2),
    ("theta", 2): ("3.9995784462121264e-12", 1),
    ("theta", 3): ("2.041744551206648e-11", 3),
    ("theta", 4): ("7.499334486738007e-12", 2),
}


def test_crosscheck_residuals_are_frozen():
    got = {}
    for fwd, _ in builtin_fixtures()[:3]:
        for seed in range(5):
            res = numeric_crosscheck(fwd, seed=seed)
            got[fwd.name, seed] = (repr(res.max_residual), res.attempts)
    assert got == _FROZEN_RESIDUALS


# the same for the seed-0 crosscheck of the seed-0 static and nonautonomous
# moves of the five Elkin forms, whose target fields have 16 to 50 terms in
# all, so powers repeat across terms (the fixtures' have 6 or 7)
_FROZEN_MOVED_RESIDUALS = {
    ("x3'=0", "static"): ("8.837375276016246e-13", 1),
    ("x3'=0", "nonaut"): ("1.101729818486774e-12", 1),
    ("x3'=1", "static"): ("2.022382261657185e-12", 1),
    ("x3'=1", "nonaut"): ("1.7394974349826953e-12", 1),
    ("x3'=x2", "static"): ("1.6817658377021871e-12", 1),
    ("x3'=x2", "nonaut"): ("1.8534063173092363e-12", 1),
    ("x3'=x2*u1", "static"): ("1.8318679906315083e-12", 1),
    ("x3'=x2*u1", "nonaut"): ("1.6608936448392342e-12", 1),
    ("x3'=1+x2*u1", "static"): ("2.6894042548519792e-12", 1),
    ("x3'=1+x2*u1", "nonaut"): ("2.859046333014703e-12", 1),
}


def test_moved_form_residuals_are_frozen():
    got = {}
    for form in elkin_forms_32():
        for kind, move in (("static", random_static_transform),
                           ("nonaut", random_nonaut_static_pair)):
            res = numeric_crosscheck(move(form, 0)[0], seed=0)
            got[form.name, kind] = (repr(res.max_residual), res.attempts)
    assert got == _FROZEN_MOVED_RESIDUALS


# -------------------------------------------------------------------
# fixtures battery

@pytest.fixture(scope="module")
def battery_run():
    """The default battery, run once and rendered by both format tests."""
    return battery.run(4, 0, False)


def run_fixtures(capsys, monkeypatch, battery_run, *argv):
    calls = []
    monkeypatch.setattr(battery, "run",
                        lambda *args: calls.append(args) or battery_run)
    got = run(capsys, "fixtures", *argv)
    assert calls == [(4, 0, False)]
    return got


def test_fixture_battery(capsys, monkeypatch, battery_run):
    code, out, err = run_fixtures(capsys, monkeypatch, battery_run)
    assert code == 0
    assert out.splitlines()[-1] == "17/17 checks passed"
    assert "FAIL" not in out
    assert "theta:raw(recorded)" in out
    assert {"exit": code, "stdout": out, "stderr": err} == \
        _golden_battery("text")


def test_fixture_battery_machine(capsys, monkeypatch, battery_run):
    code, out, err = run_fixtures(capsys, monkeypatch, battery_run,
                                  "--format", "machine")
    assert code == 0
    doc = parse_document(out)
    assert doc.kind == "report"
    assert all(k == "check" for k, _ in doc.body)
    assert len(doc.body) == 17
    assert {"exit": code, "stdout": out, "stderr": err} == \
        _golden_battery("machine")


def test_crosscheck_result_fields():
    res = numeric_crosscheck(PHI, seed=3, steps=600)
    assert res.passed and res.max_residual < 1e-6
    assert res.attempts >= 1
    # the bound is strict: a residual equal to tol fails
    tight = numeric_crosscheck(PHI, seed=3, steps=600, tol=res.max_residual)
    assert not tight.passed
    nan = numeric_crosscheck(PHI, steps=10, controls=[[float("nan"), 0, 0, 0],
                                                      [0.5, 0.2, 0.0, 0.1]])
    assert not nan.passed  # a NaN residual must not vanish in the max


def test_crosscheck_explicit_good_controls():
    res = numeric_crosscheck(PHI, controls=[[0.5, 0.2, 0.0, 0.1],
                                            [1.0, 0.3, 0.2, 0.0]])
    assert res.passed and res.attempts == 1


# -------------------------------------------------------------------
# exit-code contract: no input reaches exit 3 (an internal error)

_F = ["0", "1", "u1", "u2", "x1", "x3", "x2*u1", "u1 + u2", "x1*u2 - u1"]
_Y = ["0", "1", "x1", "x2", "x3", "x1*x2 - x3", "u2", "x1 + x2", "1/x2",
      "u1'"]
_V = ["0", "u1", "u2", "x1*u2", "u2'", "u1 - u2", "u1/x1"]
_PIECES = ["/0", "^-1", "=", "{", "}", "(", ")", "'", " x9", " u3",
           " f4 = u1", " y1 = x1", "\n", " states = 1", " controls = 3",
           "²", "٣"]
_COMMANDS = [["verify"], ["verify", "--inv", "map"], ["pullback"],
             ["factor"], ["crosscheck", "--steps", "40"], ["classify"],
             ["structure-check"], ["prolong"], ["prolong", "--promote", "2"]]


def _rows(prefix, exprs):
    return "".join("  %s%d = %s\n" % (prefix, i + 1, e)
                   for i, e in enumerate(exprs))


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from(_F), min_size=3, max_size=3),
                min_size=2, max_size=2),
       st.lists(st.sampled_from(_Y), min_size=3, max_size=3),
       st.lists(st.sampled_from(_V), min_size=2, max_size=2),
       st.lists(st.tuples(st.sampled_from(["src", "map"]), st.booleans(),
                          st.integers(0, 99), st.sampled_from(_PIECES)),
                max_size=2))
def test_inputs_never_exit_3(doc_dir, fs, ys, vs, edits):
    """Degenerate systems (zero rows, rank-deficient df/du), singular or
    constant maps and mutated document text, through every command."""
    docs = {name: "system {\n  states = 3\n  controls = 2\n%s}\n"
                  % _rows("f", rows) for name, rows in zip(("src", "tgt"), fs)}
    docs["map"] = "map {\n%s%s}\n" % (_rows("y", ys), _rows("v", vs))
    for name, insert, share, piece in edits:
        text = docs[name]
        at = len(text) * share // 100
        docs[name] = text[:at] + (piece if insert else "") \
            + text[at + (0 if insert else len(piece)):]
    _every_command_exits_0_1_or_2(doc_dir, docs)


def _every_command_exits_0_1_or_2(doc_dir, docs):
    """Run every command on the documents src, tgt and map (text or bytes)."""
    paths = {}
    for name, text in docs.items():
        paths[name] = str(doc_dir / name)
        (doc_dir / name).write_bytes(
            text if isinstance(text, bytes) else text.encode())
    pair = ["--src", paths["src"], "--tgt", paths["tgt"], "--map", paths["map"]]
    for cmd in _COMMANDS:
        if cmd[0] in ("classify", "structure-check", "prolong"):
            argv = cmd + ["--sys", paths["src"]]
        else:
            argv = [paths.get(a, a) for a in cmd] + pair
        if ["-N", "2"] not in _UNREAD[cmd[0]]:
            argv += ["-N", "2"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, docs, err.getvalue())
        assert "unrecognized arguments" not in err.getvalue(), argv


_VALID = {"src": serialize(PHI.src), "tgt": serialize(PHI.tgt),
          "map": serialize(PHI)}


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_VALID)), st.booleans(), st.integers(0, 99),
       st.binary(max_size=40))
def test_byte_documents_never_exit_3(doc_dir, name, whole, share, junk):
    """Raw bytes as a whole document, or spliced into a valid one."""
    docs = {k: v.encode() for k, v in _VALID.items()}
    at = len(docs[name]) * share // 100
    docs[name] = junk if whole else docs[name][:at] + junk + docs[name][at:]
    _every_command_exits_0_1_or_2(doc_dir, docs)


# sums, products and quotients of small expressions under runs of up to
# 1,000 parentheses or 2,000 unary minus signs: past the parser's 100 levels,
# and past the depth at which a parser without that bound overflows the
# stack even under hypothesis, which raises the recursion limit by 2,000
_NESTED = st.recursive(
    st.sampled_from(["u1", "u2", "x1", "x2", "2", "t"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from(["+", "-", "*", "/"]), e).map("".join),
        st.tuples(st.integers(1, 1000), e).map(
            lambda p: "(" * p[0] + p[1] + ")" * p[0]),
        st.tuples(st.integers(1, 2000), e).map(lambda p: "-" * p[0] + p[1])),
    max_leaves=4)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_NESTED, _NESTED)
def test_nested_expressions_never_exit_3(doc_dir, f3, v1):
    docs = dict(_VALID, src=_VALID["src"].replace("x2*u1", f3),
                map=_VALID["map"].replace("x1*u2", v1))
    _every_command_exits_0_1_or_2(doc_dir, docs)
