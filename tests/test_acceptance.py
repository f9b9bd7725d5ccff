"""End-to-end acceptance battery.

One test per advertised behavior.  Each prints a single
`criterion N: PASS/FAIL - detail` line on the real stdout so that a logged
run shows the scoreboard even with capture on; the asserts carry the same
facts.  All symbolic checks are exact; the numeric trajectory check uses
its documented 1e-6 tolerance.

Criterion 3 is expected to FAIL on two clauses (one left-factor display
entry, and narrowability of theta's right factor); the analysis lives in
docs/decisions.md.  Everything else must pass.

The checks shared with `jetfactor fixtures` live in jetfactor.battery;
the criteria call them with their own inputs and keep only the test-only
clauses inline.
"""

import time

import pytest

from jetfactor import (Coframe, ControlSystem, RatFn, U, X, ZERO, ONE,
                       battery, build_S,
                       builtin_fixtures, check_gnice, check_nonaut_static_pair,
                       elkin_forms_32, exterior_d, factor_JK0,
                       parse_expression, pullback_matrix,
                       random_nonaut_static_pair)
from jetfactor.coframes import ADAPTED
from jetfactor.errors import PatternViolation

from test_equivalence import expected_A_phi
from test_factorize import expected_g_phi

T0 = time.monotonic()

x1 = RatFn.var(X(1))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))

FIX = builtin_fixtures()
(PHI, PHI_INV), (PSI, PSI_INV), (THETA, THETA_INV) = FIX[:3]
STRICT = [(PHI, PHI_INV, "phi"), (PSI, PSI_INV, "psi"),
          (THETA, THETA_INV, "theta")]


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        print("criterion %s: %s - %s" % (n, "PASS" if ok else "FAIL", detail))


def test_criterion_1_fixture_verification(capsys):
    # a verified pair has zero forward residuals for both of its maps
    problems = ["%s: pair fails at N=4" % fwd.name for fwd, inv in FIX
                if not battery.verify(fwd, inv, 4)[0]]
    if not battery.strict_orders(FIX[:3])[0]:
        problems.append("strict orders are not (0, 0)")
    _line(capsys, 1, not problems,
          "5 pairs verify forward and inverse at N=4; strict orders (0, 0)")
    assert not problems, problems


def test_criterion_2_pullback_matrix_reproduction(capsys):
    A = pullback_matrix(PHI, N=4)
    table_ok = A.entries == expected_A_phi()
    rows_ok = (battery.pullback_rows(A)[0]  # row (0, 1) and the dt-column
               and A.block(1, 0)[0] == [u2, ZERO, ZERO]
               and A.block(1, 1)[0] == [ZERO, x1]
               and A.block(2, 0)[0] == [RatFn.var(U(2, 1)), ZERO, ZERO]
               and A.block(2, 1)[0] == [u2, u1]
               and A.block(2, 2)[0] == [ZERO, x1])
    ok = table_ok and rows_ok
    _line(capsys, 2, ok,
          "A(phi) at N=4 matches the frozen table entry-for-entry; "
          "dt-column zero")
    assert table_ok and rows_ok


def test_criterion_3_factorization_reproduction(capsys):
    A = pullback_matrix(PHI, N=4)
    fac = factor_JK0(A)
    S_ok = fac.S == build_S(3, 4)
    ident = {(lab, lab): ONE for lab in fac.G.mat.row_labels()}
    G_ok = fac.G.mat.entries == ident
    g_ok = fac.g.mat.entries == expected_g_phi()
    product_ok = fac.matches(A)

    A_psi = pullback_matrix(PSI, N=4)
    psi_fac = factor_JK0(A_psi)
    psi_ok = psi_fac.matches(A_psi)
    try:
        check_gnice(psi_fac.G)
        psi_gnice = True
    except PatternViolation:
        psi_gnice = False

    A_theta = pullback_matrix(THETA, N=4)
    theta_fac = factor_JK0(A_theta)
    theta_ok = theta_fac.matches(A_theta)
    try:
        check_gnice(theta_fac.G)
        theta_gnice, theta_msg = True, ""
    except PatternViolation as exc:
        theta_gnice, theta_msg = False, str(exc)

    # the recorded display shows -x1*u2' - u1 in row (2, 1); the verified
    # product forces u1 there
    shown = parse_expression("-x1*u2' - u1")
    got = fac.g.mat.get((2, 1), (0, 1))
    display_ok = got == shown

    ok = (S_ok and G_ok and g_ok and product_ok and psi_ok and psi_gnice
          and theta_ok and display_ok and theta_gnice)
    _line(capsys, 3, ok,
          "S, G, g and all three products reconstruct exactly; the display "
          "entry at (2,1) and theta's narrow right factor do not hold "
          "(see docs/decisions.md)")
    assert S_ok, "S differs from build_S(3, 4)"
    assert G_ok, "G is not the identity for phi"
    assert g_ok, "g differs from the frozen left factor"
    assert product_ok and psi_ok and theta_ok, "a product fails to rebuild A"
    assert psi_gnice, "psi right factor rejected"
    assert display_ok and theta_gnice, (
        "two clauses fail against the verified factorization: row (2, 1) of "
        "g is %s where the recorded display shows %s, and theta's right "
        "factor is rejected (%s); both analyzed in docs/decisions.md"
        % (got.to_text(), shown.to_text(), theta_msg))


def test_criterion_4_band_structure(capsys):
    problems = []
    mats = [(nm, pullback_matrix(fwd, N=4)) for fwd, _, nm in STRICT]
    ok, detail = battery.repeats(mats)  # raises RepeatViolation on failure
    if not ok:
        problems.append(detail)
    for seed in range(3):
        if not battery.static_pullback(PHI.src, seed, 4)[0]:
            problems.append("static seed %d: nonzero high block" % seed)
    for seed in range(10):
        fwd, back, _ = random_nonaut_static_pair(PHI.src, seed)
        rep = check_nonaut_static_pair(pullback_matrix(fwd, N=4),
                                       pullback_matrix(back, N=4))
        if not (rep.static and rep.consistent):
            problems.append("nonaut seed %d: %s" % (seed, rep.summary()))
    dyn = check_nonaut_static_pair(mats[0][1], pullback_matrix(PHI_INV, N=4))
    if dyn.static:
        problems.append("dynamic pair misread as static")
    if not battery.shift_orthogonality(3, 4)[0]:
        problems.append("S * S^T is not the identity on the rows")
    _line(capsys, 4, not problems,
          "repeats + rank-one blocks on strict, rank zero on static, "
          "10-seed biconditional, S*S^T = Id")
    assert not problems, problems


def test_criterion_5_structure_equations(capsys):
    forms = elkin_forms_32()
    ok, detail = battery.structure(forms, 4)  # raises StructureViolation
    problems = [] if ok else [detail]
    for s_ in forms:
        fr = Coframe(s_, 4, ADAPTED)
        dw = fr.to_frame2(exterior_d(fr.elements[(0, 3)]))
        if not all(la[0] == 0 or lb[0] == 0 for (la, lb) in dw):
            problems.append("%s: d(w0_3) not 0 mod level zero" % s_.name)
    _line(capsys, 5, not problems,
          "contact + adapted coframes of all five normal forms at N=4, "
          "d(w0_3) = 0 mod o^0")
    assert not problems, problems


def test_criterion_6_classification(capsys):
    forms = elkin_forms_32()
    classes_ok, classes = battery.classes(forms)
    moved_ok, moved = battery.invariance(forms, range(50))
    _line(capsys, 6, classes_ok and moved_ok,
          "five distinct tags, dynamic split (Class2, Class3, Class1, "
          "Class1, Class1), 50 seeds x 5 forms invariant")
    assert classes_ok, classes
    assert moved_ok, moved


def test_criterion_7_scalar_theorem(capsys):
    bases = [ControlSystem(2, 1, (u1, x1), name="chain2"),
             ControlSystem(3, 1, (u1, x1, RatFn.var(X(2))), name="chain3")]
    problems = []
    for base in bases:
        for seed in range(3):
            ok, detail = battery.scalar(base, seed, 3)
            if not ok:
                problems.append("%s seed %d: %s" % (base.name, seed, detail))
    _line(capsys, 7, not problems,
          "verified s=1 static pairs all report orders (-1, -1)")
    assert not problems, problems


def test_criterion_8_kernel_property_suites(capsys):
    ok, detail = battery.suites(1000, 0)
    _line(capsys, 8, ok, "5 suites x 1000 randomized cases, structural")
    assert ok, detail


def test_criterion_9_numeric_crosscheck(capsys):
    ok, detail = battery.crosscheck([fwd for fwd, _, _ in STRICT], range(5))
    _line(capsys, 9, ok,
          "RK4 trajectory residuals < 1e-06 over T=1, seeds 0..4")
    assert ok, detail


def test_criteria_run_at_desk_scale(capsys):
    elapsed = time.monotonic() - T0
    ok = elapsed < 60.0
    _line(capsys, "(budget)", ok, "%.1f s total" % elapsed)
    assert ok, "acceptance battery took %.1f s" % elapsed
