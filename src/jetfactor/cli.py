"""Command-line front end.

Commands: verify, pullback, factor, classify, structure-check, prolong,
fixtures, crosscheck.  Reports go to standard output, diagnostics to
standard error.  Exit codes: 0 every requested check passed; 1 a check
failed (including deliberate mathematical failures raised while checking);
2 unusable input (bad arguments, unreadable files, parse or binding
errors); 3 an internal invariant broke.

All randomness flows through --seed, so identical invocations print
identical bytes.  --format machine swaps the human summary for keyed
blocks that re-parse through sysio.parse_document.  Each command takes
only those of the shared -N, --seed and --format that it reads.
pullback alone takes --strict, which raises on a nonzero dt-column
instead of reporting it.
"""

import argparse
import functools
import sys

from . import battery, sysio
from .jets import prolong_partial
from .coframes import Coframe, CONTACT, ADAPTED
from .equivalence import verify_forward, verify_pair, pullback_matrix
from .factorize import factor_JK0, check_gnice
from .classify import classify_static, dynamic_class
from .errors import (JetError, ParseError, SemanticError, ArityMismatch,
                     UsageError, NotNormalizedForm, PatternViolation)
from .crosscheck import numeric_crosscheck


# ---------------------------------------------------------------------------
# input loading (failures here exit 2)

def _read(path):
    """The file's text, decoded as strict UTF-8; a bad byte is a ParseError
    at its line and column, counted as the tokenizer counts them."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        lines = head.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        raise ParseError("invalid UTF-8 byte 0x%02x" % data[exc.start],
                         len(lines), len(lines[-1]) + 1)


def _load_system(path):
    return sysio.parse_system(_read(path), name=path)


def _load_map(path, src, tgt):
    # the path names the map in reports, as a string without escapes
    if any(c in path for c in '"\r\n'):
        raise UsageError("map path %r holds a quote or a line break, which a "
                         "report cannot name" % path)
    return sysio.parse_map(_read(path), src, tgt, name=path)


def _load_pair(a):
    """The map named by --map, from the --src system to the --tgt one."""
    src = _load_system(a.src)
    return _load_map(a.map, src, _load_system(a.tgt))


def _out(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# verify

def cmd_verify(a):
    m = _load_pair(a)
    minv = _load_map(a.inv, m.tgt, m.src) if a.inv else None

    rep = verify_pair(m, minv, N=a.order) if minv else verify_forward(m)
    if a.format == "machine":
        _out(sysio.serialize(rep))
    else:
        bad_fwd = sum(1 for lab, e in rep.residuals
                      if lab.startswith("forward") and not e.is_zero())
        parts = ["forward: %d residuals" % bad_fwd]
        if rep.inverse_ok is not None:
            parts.append("inverse: identity to order %d" % a.order
                         if rep.inverse_ok else "inverse: fails")
            parts.append("J=%d K=%d" % (rep.detected_J, rep.detected_K))
        _out("; ".join(parts))
        if rep.assumptions:
            _out("assuming nonzero: " + ", ".join(rep.assumptions))
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# pullback

def cmd_pullback(a):
    A = pullback_matrix(_load_pair(a), N=a.order, strict=a.strict)
    clean = A.dt_column_clean()
    if a.format == "machine":
        _out(sysio.serialize(A))
    else:
        _out("pullback matrix, rows %s, cols %s"
             % (list(A.row_sizes), list(A.col_sizes)))
        _out("dt-column: %s" % ("zero" if clean else "NONZERO"))
        _out("block-lower: %s" % ("yes" if A.is_block_lower() else "no"))
        _out(sysio.serialize(A))
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# factor

def cmd_factor(a):
    A = pullback_matrix(_load_pair(a), N=a.order, strict=True)
    fac = factor_JK0(A)
    if not fac.matches(A):
        raise AssertionError("factor product does not reconstruct the input")
    try:
        pat = check_gnice(fac.G)
        gnice = "pass (p0=%s, p1=%s, q=%s)" % (
            pat.p0.to_text(), pat.p1.to_text(), pat.q.to_text())
    except PatternViolation as exc:
        gnice = "fail: %s" % exc
    if a.format == "machine":
        _out(sysio.serialize(fac))
    else:
        _out("assumptions (nonzero along trajectories): %s"
             % (", ".join(fac.assumptions) if fac.assumptions else "none"))
        _out("G: %s" % ("identity" if fac.G.mat.is_identity()
                        else "narrow pattern " + gnice))
        _out("product reconstructs the pullback matrix exactly")
        _out("g = " + sysio.serialize(fac.g))
        _out("S = " + sysio.serialize(fac.S))
        _out("G = " + sysio.serialize(fac.G))
    return 0


# ---------------------------------------------------------------------------
# classify

def cmd_classify(a):
    s = _load_system(a.sys)
    c = classify_static(s, seed=a.seed)
    dyn = dynamic_class(c) if (c.n, c.s) == (3, 2) else None
    if a.format == "machine":
        items = [("states", c.n), ("rank", c.s), ("tag", c.tag),
                 ("dynamic", dyn.name if dyn else None)]
        _out(sysio.serialize_report("classification", items))
    else:
        line = "static: %s" % c.tag
        if dyn is not None:
            line += " ; dynamic: %s" % dyn.name
        _out(line)
    return 0


# ---------------------------------------------------------------------------
# structure-check

def cmd_structure(a):
    s = _load_system(a.sys)
    frames = []
    if a.frame in ("contact", "both"):
        frames.append(("contact", Coframe(s, a.order, CONTACT)))
    if a.frame in ("adapted", "both"):
        try:
            frames.append(("adapted", Coframe(s, a.order, ADAPTED)))
        except NotNormalizedForm as exc:
            if a.frame == "adapted":
                sys.stderr.write("input not in the normalized shape: %s\n"
                                 % exc)
                return 2
    items = []
    failed = False
    for kind, fr in frames:
        rep = fr.structure_report()
        items.append((kind, rep.passed))
        if not rep.passed:
            failed = True
            if a.format != "machine":
                _out("%s: FAIL %s" % (kind, rep.summary()))
        elif a.format != "machine":
            _out("%s: structure equations hold at N=%d" % (kind, a.order))
    if a.format == "machine":
        _out(sysio.serialize_report(
            "structure", [("frame", [k, ok]) for k, ok in items]))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# prolong

def cmd_prolong(a):
    s = _load_system(a.sys)
    promote = range(1, s.s + 1)
    if a.promote is not None:
        try:
            promote = {int(tok) for tok in a.promote.split(",") if tok}
        except ValueError:
            promote = set()
        if not promote or not promote <= set(range(1, s.s + 1)):
            raise UsageError("--promote wants a comma-separated list of "
                             "control indices from 1 to %d" % s.s)
    _out(sysio.serialize(prolong_partial(s, promote)))
    return 0


# ---------------------------------------------------------------------------
# numeric crosscheck

def cmd_crosscheck(a):
    res = numeric_crosscheck(_load_pair(a), seed=a.seed, T=a.T, tol=a.tol,
                             steps=a.steps)
    if a.format == "machine":
        _out(sysio.serialize_report("crosscheck", [
            ("max_residual", repr(res.max_residual)),
            ("tol", repr(res.tol)),
            ("passed", res.passed),
            ("attempts", res.attempts)]))
    else:
        _out("max residual %.3e over T=%g (seed %d, %d draw%s): %s"
             % (res.max_residual, res.T, res.seed, res.attempts,
                "" if res.attempts == 1 else "s",
                "pass" if res.passed else "FAIL"))
    return 0 if res.passed else 1


# ---------------------------------------------------------------------------
# fixtures

def cmd_fixtures(a):
    checks = battery.run(a.order, a.seed, a.all)
    failed = [c for c in checks if not c[1]]
    if a.format == "machine":
        _out(sysio.serialize_report(
            "fixtures", [("check", [nm, ok, detail])
                         for nm, ok, detail in checks]))
    else:
        for nm, ok, detail in checks:
            _out("%-4s %s%s" % ("ok" if ok else "FAIL", nm,
                                " (%s)" % detail if detail else ""))
        _out("%d/%d checks passed" % (len(checks) - len(failed), len(checks)))
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# argument plumbing

# Largest -N.  Memory grows with the level in every command: at 100,000
# structure-check alone took 34 s and 645 MB, and at 10^9 it ran out of
# memory (docs/decisions.md, "The -N bound").
MAX_ORDER = 100


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after."""
    ap = argparse.ArgumentParser(
        prog="jetfactor",
        description="verify, pull back, factor, and classify dynamic "
                    "equivalences between control systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def level(text):
        if not 1 <= int(text) <= MAX_ORDER:
            raise argparse.ArgumentTypeError(
                "truncation level must be from 1 to %d" % MAX_ORDER)
        return int(text)

    def command(name, fn, summary, flags, pair=False):
        """A subcommand with those of the shared flags -N, --seed and
        --format that its fn reads, and --src/--tgt/--map if it reads a
        map."""
        p = sub.add_parser(name, help=summary)
        if "-N" in flags:
            p.add_argument("-N", "--order", type=level, default=4,
                           help="truncation level, 1 to %d (default 4)"
                           % MAX_ORDER)
        if "--seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        if "--format" in flags:
            p.add_argument("--format", choices=("text", "machine"),
                           default="text")
        for flag in ("--src", "--tgt", "--map") if pair else ():
            p.add_argument(flag, required=True)
        p.set_defaults(fn=fn)
        return p

    p = command("verify", cmd_verify, "check a map (and optional inverse)",
                ("-N", "--format"), pair=True)
    p.add_argument("--inv")

    p = command("pullback", cmd_pullback, "matrix of the pulled-back coframe",
                ("-N", "--format"), pair=True)
    p.add_argument("--strict", action="store_true",
                   help="a nonzero dt-column is an error")
    command("factor", cmd_factor, "A = g*S*G factorization",
            ("-N", "--format"), pair=True)

    p = command("classify", cmd_classify, "normal form and dynamic class",
                ("--seed", "--format"))
    p.add_argument("--sys", required=True)

    p = command("structure-check", cmd_structure,
                "structure equations of the coframes", ("-N", "--format"))
    p.add_argument("--sys", required=True)
    p.add_argument("--frame", choices=("contact", "adapted", "both"),
                   default="both")

    p = command("prolong", cmd_prolong, "promote controls to states", ())
    p.add_argument("--sys", required=True)
    p.add_argument("--promote", help="comma-separated control indices; "
                                     "omit to promote all")

    p = command("fixtures", cmd_fixtures, "built-in fixture battery",
                ("-N", "--seed", "--format"))
    p.add_argument("--all", action="store_true",
                   help="full seed counts and 1000-case property suites")

    p = command("crosscheck", cmd_crosscheck, "numeric trajectory residual",
                ("--seed", "--format"), pair=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--steps", type=int, default=1000)

    return ap


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return args.fn(args)
        except (ParseError, SemanticError, ArityMismatch, UsageError) as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 2
        except JetError as exc:
            sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
            return 1
    except Exception as exc:  # noqa: BLE001 - the contract maps bugs to 3
        sys.stderr.write("internal invariant violation: %s: %s\n"
                         % (type(exc).__name__, exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
