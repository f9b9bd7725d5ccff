"""Command-line front end.

Commands: verify, pullback, factor, classify, structure-check, prolong,
fixtures, crosscheck.  Reports go to standard output, diagnostics to
standard error.  Exit codes: 0 every requested check passed; 1 a check
failed (including deliberate mathematical failures raised while checking);
2 unusable input (bad arguments, unreadable files, parse or binding
errors); 3 an internal invariant broke.

All randomness flows through --seed, so identical invocations print
identical bytes.  --format machine swaps the human summary for keyed
blocks that re-parse through sysio.parse_document.  --strict escalates
soft diagnostics: pullback raises on a nonzero dt-column instead of
reporting it, and verification treats advisory notes as failures.
"""

import argparse
import sys

from . import sysio
from .ratfn import RatFn, ZERO, ONE, X, U
from .jets import ControlSystem, prolong_total, prolong_partial
from .coframes import contact_coframe, adapted_coframe_3x2
from .equivalence import (verify_forward, verify_pair, verify_scalar_theorem,
                          pullback_matrix, check_arepeats, block_rank,
                          check_nonaut_static_pair)
from .factorize import factor_JK0, build_S, check_gnice
from .classify import (classify_static, dynamic_class, builtin_fixtures,
                       elkin_forms_32, random_static_transform)
from .errors import (JetError, ParseError, SemanticError, ArityMismatch,
                     UsageError, NotNormalizedForm, PatternViolation)
from .crosscheck import numeric_crosscheck
from ._suites import run_all


# ---------------------------------------------------------------------------
# input loading (failures here exit 2)

def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _load_system(path):
    return sysio.parse_system(_read(path), name=path)


def _load_map(path, src, tgt):
    return sysio.parse_map(_read(path), src, tgt, name=path)


def _out(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# verify

def _dt_column_clean(A):
    """No row other than dt itself may hold a dt-column entry."""
    for (r, c) in A.entries:
        if c == (-1, 1) and r != (-1, 1):
            return False
    return True


def cmd_verify(a):
    src = _load_system(a.src)
    tgt = _load_system(a.tgt)
    m = _load_map(a.map, src, tgt)
    minv = _load_map(a.inv, tgt, src) if a.inv else None

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
        for note in rep.notes:
            _out("note: " + note)
    if a.strict and rep.notes and rep.ok:
        return 1
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# pullback

def cmd_pullback(a):
    src = _load_system(a.src)
    tgt = _load_system(a.tgt)
    m = _load_map(a.map, src, tgt)
    A = pullback_matrix(m, N=a.order, strict=a.strict)
    clean = _dt_column_clean(A)
    if a.format == "machine":
        _out(sysio.serialize(A))
    else:
        _out("pullback matrix, rows %s, cols %s"
             % (A.row_levels, A.col_levels))
        _out("dt-column: %s" % ("zero" if clean else "NONZERO"))
        _out("block-lower: %s" % ("yes" if A.is_block_lower() else "no"))
        _out(sysio.serialize(A))
    return 0 if clean else 1


# ---------------------------------------------------------------------------
# factor

def _is_identity(mat):
    labels = mat.row_labels()
    if labels != mat.col_labels():
        return False
    want = {(lab, lab): ONE for lab in labels}
    return mat.entries == want


def cmd_factor(a):
    src = _load_system(a.src)
    tgt = _load_system(a.tgt)
    m = _load_map(a.map, src, tgt)
    A = pullback_matrix(m, N=a.order, strict=True)
    fac = factor_JK0(A, seed=a.seed)
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
        _out("G: %s" % ("identity" if _is_identity(fac.G.mat)
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
        frames.append(("contact", contact_coframe(s, a.order)))
    if a.frame in ("adapted", "both"):
        try:
            frames.append(("adapted", adapted_coframe_3x2(s, a.order)))
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
    if a.promote:
        try:
            promote = {int(tok) for tok in a.promote.split(",") if tok}
        except ValueError:
            raise UsageError("--promote wants a comma-separated index list")
        out = prolong_partial(s, promote)
    else:
        out = prolong_total(s)
    _out(sysio.serialize(out))
    return 0


# ---------------------------------------------------------------------------
# numeric crosscheck

def cmd_crosscheck(a):
    src = _load_system(a.src)
    tgt = _load_system(a.tgt)
    m = _load_map(a.map, src, tgt)
    res = numeric_crosscheck(m, seed=a.seed, T=a.T, tol=a.tol, steps=a.steps)
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

def _check(checks, name, fn):
    try:
        ok, detail = fn()
    except JetError as exc:
        ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
    checks.append((name, bool(ok), detail))


def cmd_fixtures(a):
    checks = []
    pairs = builtin_fixtures()
    strict3 = pairs[:3]

    for fwd, inv in pairs:
        def run(fwd=fwd, inv=inv):
            rep = verify_pair(fwd, inv, N=a.order)
            return rep.ok, "J=%d K=%d" % (rep.detected_J, rep.detected_K)
        _check(checks, "verify %s" % fwd.name, run)

    def orders():
        ok = all(f.order() == 0 and i.order() == 0 for f, i in strict3)
        return ok, ""
    _check(checks, "strict pairs have J=K=0", orders)

    mats = {}

    def phi_rows():
        A = pullback_matrix(strict3[0][0], N=a.order)
        mats["phi"] = A
        x1 = RatFn.var(X(1))
        row = [A.get((0, 1), (0, j)) for j in (1, 2, 3)]
        ok = row == [ZERO, x1, ZERO - ONE] and _dt_column_clean(A)
        return ok, "row (0,1) = (0, x1, -1), dt-column zero"
    _check(checks, "pullback rows of the first strict map", phi_rows)

    def repeats():
        for (fwd, _), nm in zip(strict3, ("phi", "psi", "theta")):
            A = mats.get(nm) or pullback_matrix(fwd, N=a.order)
            mats[nm] = A
            check_arepeats(A)
            if block_rank(A, 0, 1, seed=a.seed) != 1:
                return False, "%s rank A^0_1 != 1" % nm
            if block_rank(A, 1, 2, seed=a.seed) != 1:
                return False, "%s rank A^1_2 != 1" % nm
        return True, "repeats + rank-one blocks on all strict fixtures"
    _check(checks, "repeat structure of strict pullbacks", repeats)

    def static_ranks():
        base = strict3[0][0].src
        fwd, inv, _ = random_static_transform(base, a.seed + 1)
        A = pullback_matrix(fwd, N=a.order)
        Ainv = pullback_matrix(inv, N=a.order)
        rep = check_nonaut_static_pair(A, Ainv)
        ok = (rep.consistent and rep.fwd_lower
              and block_rank(A, 0, 1, seed=a.seed) == 0
              and block_rank(A, 1, 2, seed=a.seed) == 0)
        return ok, "static pullbacks block-lower with zero high blocks"
    _check(checks, "static transform pullback", static_ranks)

    def stackpole():
        S = build_S(3, a.order)
        St = S.mat.transpose()
        P = S.mat.matmul(St)
        want = {(lab, lab): ONE for lab in S.mat.row_labels()}
        return P.entries == want, "S * S^T = Id on the rows"
    _check(checks, "shift matrix orthogonality", stackpole)

    def factors():
        details = []
        for (fwd, _), nm in zip(strict3, ("phi", "psi", "theta")):
            A = mats.get(nm) or pullback_matrix(fwd, N=a.order)
            mats[nm] = A
            fac = factor_JK0(A, seed=a.seed)
            if not fac.matches(A):
                return False, "%s: product mismatch" % nm
            if nm == "phi" and not _is_identity(fac.G.mat):
                return False, "phi: G is not the identity"
            try:
                check_gnice(fac.G)
                details.append("%s:narrow" % nm)
            except PatternViolation:
                if nm == "theta":
                    # recorded: theta's own right factor cannot be narrowed
                    details.append("%s:raw(recorded)" % nm)
                else:
                    return False, "%s: right factor not narrow" % nm
        return True, " ".join(details)
    _check(checks, "factor strict pullbacks", factors)

    def classes():
        tags = []
        dyns = []
        for s_ in elkin_forms_32():
            c = classify_static(s_, seed=a.seed)
            tags.append(c.tag)
            dyns.append(dynamic_class(c).name)
        ok = (len(set(tags)) == 5
              and dyns == ["Class2", "Class3", "Class1", "Class1", "Class1"])
        return ok, "; ".join(dyns)
    _check(checks, "normal-form classification", classes)

    nseeds = 50 if a.all else 3

    def invariance():
        for s_ in elkin_forms_32():
            want = classify_static(s_, seed=a.seed).tag
            for k in range(nseeds):
                _, _, moved = random_static_transform(s_, a.seed + 17 + k)
                got = classify_static(moved, seed=a.seed).tag
                if got != want:
                    return False, "seed %d moves %r to %r" % (k, want, got)
        return True, "%d seeds x 5 forms" % nseeds
    _check(checks, "classification transform invariance", invariance)

    def structure():
        for s_ in elkin_forms_32():
            contact_coframe(s_, a.order).check_structure()
            adapted_coframe_3x2(s_, a.order).check_structure()
        return True, "contact + adapted at N=%d" % a.order
    _check(checks, "structure equations of the normal forms", structure)

    def scalar():
        x1, u1 = RatFn.var(X(1)), RatFn.var(U(1))
        base = ControlSystem(2, 1, (u1, x1), name="chain")
        fwd, inv, _ = random_static_transform(base, a.seed + 5)
        rep = verify_scalar_theorem(fwd, inv, N=a.order)
        ok = rep.ok and rep.detected_J == -1 and rep.detected_K == -1
        return ok, "orders (-1, -1)"
    _check(checks, "single-control static theorem", scalar)

    def crosscheck():
        for (fwd, _), nm in zip(strict3, ("phi", "psi", "theta")):
            for seed in range(5 if a.all else 1):
                res = numeric_crosscheck(fwd, seed=a.seed + seed)
                if not res.passed:
                    return False, "%s seed %d residual %.2e" % (
                        nm, seed, res.max_residual)
        return True, "residuals < 1e-06"
    _check(checks, "numeric trajectory crosscheck", crosscheck)

    count = 1000 if a.all else 100

    def suites():
        for name, failures in run_all(count=count, seed=a.seed):
            if failures:
                return False, "%s: %s" % (name, failures[0])
        return True, "%d cases each" % count
    _check(checks, "kernel property suites", suites)

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

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="jetfactor",
        description="verify, pull back, factor, and classify dynamic "
                    "equivalences between control systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-N", "--order", type=int, default=4,
                       help="truncation level (default 4)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        p.add_argument("--strict", action="store_true",
                       help="escalate soft diagnostics to failures")

    p = sub.add_parser("verify", help="check a map (and optional inverse)")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--inv")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pullback", help="matrix of the pulled-back coframe")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("factor", help="A = g*S*G factorization")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("classify", help="normal form and dynamic class")
    common(p)
    p.add_argument("--sys", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("structure-check",
                       help="structure equations of the coframes")
    common(p)
    p.add_argument("--sys", required=True)
    p.add_argument("--frame", choices=("contact", "adapted", "both"),
                   default="both")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("prolong", help="promote controls to states")
    common(p)
    p.add_argument("--sys", required=True)
    p.add_argument("--promote", help="comma-separated control indices; "
                                     "omit to promote all")
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("fixtures", help="built-in fixture battery")
    common(p)
    p.add_argument("--all", action="store_true",
                   help="full seed counts and 1000-case property suites")
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("crosscheck", help="numeric trajectory residual")
    common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(fn=cmd_crosscheck)

    return ap


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
