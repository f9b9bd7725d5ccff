"""The fixture battery: each check defined once.

Every check is a function of explicit inputs (maps, matrices, forms, N,
seeds, counts) that returns (ok, detail); a failing check may also raise
a JetError.  `run` builds the 17 checks of `jetfactor fixtures`, and
tests/test_acceptance.py calls the same functions with its own inputs.
"""

from .poly import X, U
from .ratfn import RatFn, ZERO, ONE
from .jets import ControlSystem
from .coframes import contact_coframe, adapted_coframe_3x2
from .equivalence import (verify_pair, verify_scalar_theorem, pullback_matrix,
                          check_arepeats, block_rank, check_nonaut_static_pair)
from .factorize import factor_JK0, build_S, check_gnice
from .classify import (classify_static, dynamic_class, builtin_fixtures,
                       elkin_forms_32, random_static_transform)
from .errors import JetError, PatternViolation
from .crosscheck import numeric_crosscheck
from ._suites import run_all


def verify(fwd, inv, N):
    rep = verify_pair(fwd, inv, N=N)
    return rep.ok, "J=%d K=%d" % (rep.detected_J, rep.detected_K)


def strict_orders(pairs):
    return all(f.order() == 0 and i.order() == 0 for f, i in pairs), ""


def pullback_rows(A):
    """Row (0, 1) of the first strict fixture's pullback, and its dt-column."""
    row = [A.get((0, 1), (0, j)) for j in (1, 2, 3)]
    ok = row == [ZERO, RatFn.var(X(1)), ZERO - ONE] and A.dt_column_clean()
    return ok, "row (0,1) = (0, x1, -1), dt-column zero"


def repeats(mats, seed=0):
    """mats: (name, pullback) of strict fixtures; raises RepeatViolation."""
    for nm, A in mats:
        check_arepeats(A)
        if block_rank(A, 0, 1, seed=seed) != 1:
            return False, "%s rank A^0_1 != 1" % nm
        if block_rank(A, 1, 2, seed=seed) != 1:
            return False, "%s rank A^1_2 != 1" % nm
    return True, "repeats + rank-one blocks on all strict fixtures"


def static_pullback(base, transform_seed, N, seed=0):
    fwd, inv, _ = random_static_transform(base, transform_seed)
    A = pullback_matrix(fwd, N=N)
    rep = check_nonaut_static_pair(A, pullback_matrix(inv, N=N))
    ok = (rep.consistent and rep.fwd_lower
          and block_rank(A, 0, 1, seed=seed) == 0
          and block_rank(A, 1, 2, seed=seed) == 0)
    return ok, "static pullbacks block-lower with zero high blocks"


def shift_orthogonality(n, N):
    S = build_S(n, N)
    return S.matmul(S.transpose()).is_identity(), "S * S^T = Id on the rows"


def factors(mats, seed=0):
    """mats: (name, pullback) of strict fixtures.  phi's right factor must
    be the identity; theta's cannot be narrowed (docs/decisions.md)."""
    details = []
    for nm, A in mats:
        fac = factor_JK0(A, seed=seed)
        if not fac.matches(A):
            return False, "%s: product mismatch" % nm
        if nm == "phi" and not fac.G.mat.is_identity():
            return False, "phi: G is not the identity"
        try:
            check_gnice(fac.G)
            details.append("%s:narrow" % nm)
        except PatternViolation:
            if nm != "theta":
                return False, "%s: right factor not narrow" % nm
            details.append("%s:raw(recorded)" % nm)
    return True, " ".join(details)


def classes(forms, seed=0):
    """Five distinct static tags and the dynamic split of the 3x2 forms."""
    cs = [classify_static(s_, seed=seed) for s_ in forms]
    dyns = [dynamic_class(c).name for c in cs]
    ok = (len({c.tag for c in cs}) == 5
          and dyns == ["Class2", "Class3", "Class1", "Class1", "Class1"])
    return ok, "; ".join(dyns)


def invariance(forms, transform_seeds, seed=0):
    for s_ in forms:
        want = classify_static(s_, seed=seed).tag
        for k in transform_seeds:
            _, _, moved = random_static_transform(s_, k)
            got = classify_static(moved, seed=seed).tag
            if got != want:
                return False, "seed %d moves %r to %r" % (k, want, got)
    return True, "%d seeds x %d forms" % (len(transform_seeds), len(forms))


def structure(forms, N):
    """Raises StructureViolation on the first frame that fails."""
    for s_ in forms:
        contact_coframe(s_, N).check_structure()
        adapted_coframe_3x2(s_, N).check_structure()
    return True, "contact + adapted at N=%d" % N


def scalar(base, transform_seed, N):
    fwd, inv, _ = random_static_transform(base, transform_seed)
    rep = verify_scalar_theorem(fwd, inv, N=N)
    orders = (rep.detected_J, rep.detected_K)
    return rep.ok and orders == (-1, -1), "orders (%d, %d)" % orders


def crosscheck(maps, seeds):
    for fwd in maps:
        for seed in seeds:
            res = numeric_crosscheck(fwd, seed=seed)
            if not res.passed:
                return False, "%s seed %d residual %.2e" % (
                    fwd.name, seed, res.max_residual)
    return True, "residuals < 1e-06"


def suites(count, seed=0):
    for name, failures in run_all(count=count, seed=seed):
        if failures:
            return False, "%s: %s" % (name, failures[0])
    return True, "%d cases each" % count


def run(order, seed, full):
    """[(name, ok, detail)] for `jetfactor fixtures`.  `full` (--all) takes
    50 invariance seeds, 5 crosscheck seeds and 1000-case suites.  A
    JetError raised by a check is recorded as its failure."""
    pairs = builtin_fixtures()
    strict = [fwd for fwd, _ in pairs[:3]]
    forms = elkin_forms_32()
    mats = {}

    def strict_mats():
        for fwd in strict:
            if fwd.name not in mats:
                mats[fwd.name] = pullback_matrix(fwd, N=order)
            yield fwd.name, mats[fwd.name]

    moves = range(seed + 17, seed + 17 + (50 if full else 3))
    draws = range(seed, seed + (5 if full else 1))
    checks = [("verify %s" % fwd.name,
               lambda fwd=fwd, inv=inv: verify(fwd, inv, order))
              for fwd, inv in pairs]
    checks += [
        ("strict pairs have J=K=0", lambda: strict_orders(pairs[:3])),
        ("pullback rows of the first strict map",
         lambda: pullback_rows(next(strict_mats())[1])),
        ("repeat structure of strict pullbacks",
         lambda: repeats(strict_mats(), seed)),
        ("static transform pullback",
         lambda: static_pullback(strict[0].src, seed + 1, order, seed)),
        ("shift matrix orthogonality", lambda: shift_orthogonality(3, order)),
        ("factor strict pullbacks", lambda: factors(strict_mats(), seed)),
        ("normal-form classification", lambda: classes(forms, seed)),
        ("classification transform invariance",
         lambda: invariance(forms, moves, seed)),
        ("structure equations of the normal forms",
         lambda: structure(forms, order)),
        ("single-control static theorem",
         lambda: scalar(ControlSystem(2, 1, (RatFn.var(U(1)), RatFn.var(X(1))),
                                      name="chain"), seed + 5, order)),
        ("numeric trajectory crosscheck",
         lambda: crosscheck(strict, draws)),
        ("kernel property suites",
         lambda: suites(1000 if full else 100, seed)),
    ]
    out = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except JetError as exc:
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        out.append((name, bool(ok), detail))
    return out
