"""Verification of the bundled equivalences and their pullback matrices."""

import hashlib
import random

import pytest

from jetfactor import (BlockMatrix, ControlSystem, EquivMap, RatFn, U, X,
                       ZERO, ONE, VerificationReport, block_rank,
                       builtin_fixtures, check_arepeats,
                       check_nonaut_static_pair, compose, elkin_forms_32,
                       generic_rank,
                       parse_map, parse_system, prolong_map, pullback_matrix,
                       random_nonaut_static_pair, random_static_transform,
                       verify_forward, verify_pair, verify_scalar_theorem)
from jetfactor import equivalence
from jetfactor.equivalence import PullbackContext, _forward_residuals
from jetfactor.errors import (DimensionMismatch, DtResidue, RepeatViolation,
                              ScalarContradiction, StructureViolation,
                              TruncationExceeded)
from jetfactor.ratfn import gauss_jordan
from jetfactor.sysio import parse_matrix, serialize

FIX = builtin_fixtures()
PHI, PHI_INV = FIX[0]
PSI, PSI_INV = FIX[1]
THETA, THETA_INV = FIX[2]
DEC, DEC_INV = FIX[3]
PRO, PRO_INV = FIX[4]

x1 = RatFn.var(X(1))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))


def du(j, k):
    return RatFn.var(U(j, k))


# the product of x1^2 - c^2 for c = 1..99: zero at every sample point, since
# the sampled rank draws each coordinate from [-99, 99] without 0
VANISHING = ONE
for _c in range(1, 100):
    VANISHING = VANISHING * (x1 * x1 - RatFn.const(_c * _c))


def is_static(m):
    """States from (t, x) only and controls from (t, x, u) only."""
    return m.order() == -1 and m.v_order() <= 0


def equal_on_shared(a, b):
    """Compare entries on the common row/col label range."""
    rows = set(a.row_labels()) & set(b.row_labels())
    cols = set(a.col_labels()) & set(b.col_labels())
    for r in rows:
        for c in cols:
            if a.get(r, c) != b.get(r, c):
                return False
    return True


# --- the map type itself ------------------------------------------------


def test_map_shape_validation():
    sig = PHI.src
    with pytest.raises(DimensionMismatch):
        EquivMap(sig, PHI.tgt, PHI.y[:2], PHI.v)  # missing a state component
    with pytest.raises(DimensionMismatch):
        EquivMap(sig, PHI.tgt, PHI.y, PHI.v[:1])
    with pytest.raises(DimensionMismatch):
        EquivMap(sig, PHI.tgt, (RatFn.var(X(4)), PHI.y[1], PHI.y[2]), PHI.v)
    with pytest.raises(DimensionMismatch):
        EquivMap(sig, PHI.tgt, PHI.y, (RatFn.var(U(3)), PHI.v[1]))


def test_order_detection():
    assert PHI.order() == 0             # y touches u2 but no derivatives
    assert PHI.v_order() == 1           # v2 = u2'
    assert PRO_INV.order() == -1        # pure state relabeling
    assert is_static(PRO_INV)
    assert not is_static(PHI)


# --- verification of the five bundled pairs -------------------------------


@pytest.mark.parametrize("m,minv", FIX, ids=[m.name for m, _ in FIX])
def test_forward_is_structurally_zero(m, minv):
    for mm in (m, minv):
        rep = verify_forward(mm)
        assert rep.forward_ok, rep.summary()
        assert rep.inverse_ok is None
        assert all(r.is_zero() for _, r in rep.residuals)
        assert [lab for lab, _ in rep.residuals] == \
            ["forward y%d" % (i + 1) for i in range(mm.tgt.n)]


@pytest.mark.parametrize("m,minv", FIX, ids=[m.name for m, _ in FIX])
def test_pairs_invert_to_order_four(m, minv):
    rep = verify_pair(m, minv, N=4)
    assert rep.ok, rep.summary()
    assert rep.inverse_ok


def test_strict_pairs_have_order_zero_both_ways():
    for m, minv in (FIX[0], FIX[1], FIX[2]):
        rep = verify_pair(m, minv, N=4)
        assert (rep.detected_J, rep.detected_K) == (0, 0)


def test_verification_is_stable_one_level_deeper():
    rep = verify_pair(PHI, PHI_INV, N=5)
    assert rep.ok
    assert (rep.detected_J, rep.detected_K) == (0, 0)


def test_roundtrip_assumptions_are_recorded():
    rep = verify_pair(PHI, PHI_INV, N=4)
    # the inverse divides by x2, so the identity only holds off x2 = 0
    assert any(a.startswith("x2") for a in rep.assumptions)


def test_corrupted_forward_component():
    # flip the x3 sign in y1; the defect shows up as a -2 x2 u1 residual
    bad = EquivMap(PHI.src, PHI.tgt,
                   (PHI.y[0] + 2 * RatFn.var(X(3)), PHI.y[1], PHI.y[2]),
                   PHI.v, name="bad")
    rep = verify_forward(bad)
    assert not rep.forward_ok
    assert not rep.ok
    assert rep.failed() and rep.failed()[0][0] == "forward y1"
    assert rep.failed()[0][1] == -2 * RatFn.var(X(2)) * u1
    assert "FAIL" in rep.summary()


def test_inverse_must_connect_the_same_systems():
    with pytest.raises(DimensionMismatch):
        compose(PSI, PHI)  # psi starts where phi does not end


def test_verify_pair_rejects_a_mismatched_inverse():
    with pytest.raises(DimensionMismatch) as exc:
        verify_pair(PHI, PSI)
    assert str(exc.value) == "inverse candidate starts at the wrong system"
    with pytest.raises(DimensionMismatch) as exc:
        verify_pair(PHI, PSI_INV)
    assert str(exc.value) == "inverse candidate ends at the wrong system"


def _skewed(m):
    """m with x1 added to its first control, so no longer an inverse."""
    return EquivMap(m.src, m.tgt, m.y, (m.v[0] + x1, m.v[1]), name=m.name)


# SHA-256 of serialize(verify_pair(m, minv, N)), which (minv, m) shares, and
# of verify_pair(m, skewed minv, N), recorded with a pullback context of its
# own for each of the four passes
_PAIR_DIGESTS = {
    ("phi", 4):
        ("c5e3439af3e4f7a2cac86727a5719eb600aeb606f2213f4e4d790a74594fa8ac",
         "b5dc55a26c367a6a8812dc4434a861d831397743007abbc7f30ec0bb95e47610"),
    ("phi", 6):
        ("bc415cc929380ffa0096bbd17180ca075e4969042cfcb90c0ef203b0615678df",
         "2a69ab8d3700a439f7fa913ff3212d487f2c472dfed58d81d0c3fb2984415b10"),
    ("phi", 8):
        ("82120ea1a606bd42eaa64ea58cd625273c991863f53ad813e4d4382c37f6647c",
         "e15b338d18b2268cea1b74833be6abc95aa9382b2610fe1c5904adba31b9c705"),
    ("psi", 4):
        ("c5e3439af3e4f7a2cac86727a5719eb600aeb606f2213f4e4d790a74594fa8ac",
         "0abcce47007921308f28b890e5a9ecb154551d08b2034ab1af92e32aea352bca"),
    ("psi", 6):
        ("bc415cc929380ffa0096bbd17180ca075e4969042cfcb90c0ef203b0615678df",
         "23c41a64990dcc4e24db7c2bbb6b86fa8bdfde469132d30cf7ce767a564e2d8f"),
    ("psi", 8):
        ("82120ea1a606bd42eaa64ea58cd625273c991863f53ad813e4d4382c37f6647c",
         "f77cf1e285c6d04f2c78f71d464aafc832dc12837f9c357590305e7e773bbf50"),
    ("theta", 4):
        ("90e6347f93db567615aa8685818acfa3e269114c53a6e510b28b5d5d86dad251",
         "a4ab00f527402e491e0dcc6b3cf52dadf10df6fa25f8eff6f51e9af41ce8a921"),
    ("theta", 6):
        ("c873e1e7231e783969e5db81df22dd2fc97a5ca306b2b12b7d6fa93997dfbfdf",
         "2280f7f0fc7013a40b7c7e3c646bf431e20d9ad0b70340aef6b8453847a3870c"),
    ("theta", 8):
        ("f2f41a4995162d2eab51af56e6e4180fdd58b8e9cdef56badc157ca680e80b13",
         "db4d60366d24ebfe4f36cead9edd9fb60c3db3e2d40b8d0010ecd309de6d6687"),
}

# and of verify_pair(phi, phi_inv, 20), whose chains run 21 levels deep
_PHI_20_DIGEST = \
    "9526a4bd0d92bfb3d61bc8b46ed12c0cb80248dc271b7a86c6f25a216c62216e"


def test_verify_pair_reports_are_frozen():
    def digest(a, b, N):
        text = serialize(verify_pair(a, b, N))
        return hashlib.sha256(text.encode()).hexdigest()

    got = {}
    for m, minv in FIX[:3]:
        for N in (4, 6, 8):
            got[m.name, N] = (digest(m, minv, N), digest(m, _skewed(minv), N))
            assert digest(minv, m, N) == got[m.name, N][0]
    assert got == _PAIR_DIGESTS
    assert digest(PHI, PHI_INV, 20) == _PHI_20_DIGEST


def test_reading_the_other_chain_notes_nothing():
    # m's controls do not mention u, so the cotrip binds minv's chain only
    # to level N - 1; the roundtrip's read of level N adds no assumption
    x2, x3 = RatFn.var(X(2)), RatFn.var(X(3))
    m = EquivMap(PHI.src, PHI.tgt, (x1, x2, x3), (x1, x2))
    minv = EquivMap(PHI.tgt, PHI.src, (x1, x2, x3), (u1 / x2, u2))
    assert verify_pair(m, minv, N=2).assumptions == ["x2", "x2^2"]


@pytest.mark.parametrize("N", (4, 6, 8))
def test_verify_pair_takes_each_chain_once(monkeypatch, N):
    # 2n forward D_t of the states, and D_t^1..D_t^(N+1) of each map's
    # two controls, shared by the roundtrip and the cotrip
    calls = []
    D = ControlSystem.D
    monkeypatch.setattr(ControlSystem, "D",
                        lambda self, e: calls.append(e) or D(self, e))
    for m, minv in FIX[:3]:
        calls.clear()
        verify_pair(m, minv, N)
        assert len(calls) == 4 * N + 10, m.name


# --- the roundtrip by the chain rule ------------------------------------------
# verify_pair expands a roundtrip or cotrip level k >= 1 only where the map's
# forward check or the control's level-0 residual fails; these tests keep the
# full expansion as the reference and compare whole reports.


def _full_roundtrip(ctx, other, N, prefix):
    """Every residual by substitution, with no level taken from the chain
    rule: the reference for _roundtrip_residuals."""
    m, minv = ctx.m, other.m
    out = [("%sx%d" % (prefix, i + 1),
            ctx.pull(minv.y[i]) - RatFn.var(X(i + 1))) for i in range(m.src.n)]
    for k in range(N + 1):
        for j, e in enumerate(other.chain(k)):
            out.append(("%su%d^(%d)" % (prefix, j + 1, k),
                        ctx.pull(e) - du(j + 1, k)))
    return out


def _full_verify_pair(m, minv, N):
    cm, ci = PullbackContext(m), PullbackContext(minv)
    fwd = _forward_residuals(cm, "forward ")
    bwd = _forward_residuals(ci, "backward ")
    rest = (_full_roundtrip(cm, ci, N, "roundtrip ")
            + _full_roundtrip(ci, cm, N, "cotrip "))
    return VerificationReport(all(r.is_zero() for _, r in fwd + bwd),
                              all(r.is_zero() for _, r in rest),
                              m.order(), minv.order(), fwd + bwd + rest,
                              cm.assumptions | ci.assumptions)


def _whole(rep):
    return (rep.summary(), serialize(rep),
            [(lab, r.to_text()) for lab, r in rep.residuals], rep.assumptions,
            (rep.forward_ok, rep.inverse_ok, rep.detected_J, rep.detected_K))


def _one_state(f):
    return parse_system("system { states = 1 controls = 1 f1 = %s }" % f)


def _one_state_pair(f_src, f_tgt, y, v, y_inv, v_inv):
    a, b = _one_state(f_src), _one_state(f_tgt)
    return (parse_map("map { y1 = %s v1 = %s }" % (y, v), a, b),
            parse_map("map { y1 = %s v1 = %s }" % (y_inv, v_inv), b, a))


# forward check fails, level 0 of the roundtrip and the cotrip holds, and
# every level above it fails
FALLBACK = _one_state_pair("u1", "2*u1", "x1", "u1 + x1", "x1", "u1 - x1")
# forward check holds and backward fails; the cotrip holds at level 0 only
BACKWARD_FAILS = _one_state_pair("u1", "u1 - x1", "x1", "u1 + x1",
                                 "x1 + t", "u1 - x1 - t")
RATIONAL = parse_system("system { states = 3 controls = 1 "
                        "f1 = u1 f2 = x1/(x2 + 2) f3 = x2*x3 }")


def _differential_cases():
    cases = [("%s-N%d" % (m.name, N), N, m, minv) for m, minv in FIX
             for N in (2, 4, 6)]
    for i, form in enumerate(elkin_forms_32()):
        for move, seed in ((random_static_transform, 0),
                           (random_nonaut_static_pair, 1)):
            m, minv, _ = move(form, seed)
            cases.append(("elkin%d-%s-%d" % (i + 1, move.__name__, seed),
                          4, m, minv))
    for move in (random_static_transform, random_nonaut_static_pair):
        m, minv, _ = move(RATIONAL, 1)
        cases.append(("rational-%s-1" % move.__name__, 3, m, minv))
    cases += [("phi-dec_inv", 4, PHI, DEC_INV),
              ("phi-skewed_inv", 4, PHI, _skewed(PHI_INV)),
              ("fallback", 3) + FALLBACK,
              ("backward_fails", 3) + BACKWARD_FAILS,
              ("forward_fails", 3) + BACKWARD_FAILS[::-1]]
    return [pytest.param(*c[1:], id=c[0]) for c in cases]


@pytest.mark.parametrize("N,m,minv", _differential_cases())
def test_verify_pair_matches_the_full_expansion(N, m, minv):
    assert _whole(verify_pair(m, minv, N)) == \
        _whole(_full_verify_pair(m, minv, N))


def test_a_failing_forward_check_expands_every_level():
    """The fallback pin: both level-0 residuals are zero, but the forward
    check fails, so no level above 0 may be taken from the chain rule."""
    assert serialize(verify_pair(*FALLBACK, N=3)) == "\n".join([
        "verification {",
        "  forward_ok = false",
        "  inverse_ok = false",
        "  detected_J = -1",
        "  detected_K = -1",
        '  residual = ["forward y1", u1 + 2*x1]',
        '  residual = ["backward y1", -u1 - x1]',
        '  residual = ["roundtrip x1", 0]',
        '  residual = ["roundtrip u1^(0)", 0]',
        '  residual = ["roundtrip u1^(1)", -u1 - 2*x1]',
        '  residual = ["roundtrip u1^(2)", -u1\' - 2*u1]',
        '  residual = ["roundtrip u1^(3)", -u1\'\' - 2*u1\']',
        '  residual = ["cotrip x1", 0]',
        '  residual = ["cotrip u1^(0)", 0]',
        '  residual = ["cotrip u1^(1)", -u1 - x1]',
        '  residual = ["cotrip u1^(2)", -u1\' - 2*u1]',
        '  residual = ["cotrip u1^(3)", -u1\'\' - 2*u1\']',
        "  assumptions = []",
        "}", ""])


# --- composition and prolongation ------------------------------------------


def test_composition_with_inverse_is_identity():
    c = compose(PHI_INV, PHI)
    assert c.src == PHI.src and c.tgt == PHI.src
    assert c.y == (RatFn.var(X(1)), RatFn.var(X(2)), RatFn.var(X(3)))
    assert c.v == (u1, u2)
    assert c.name == "phi_inv.phi"


def test_prolong_map_chains_derivatives():
    flat = prolong_map(PHI, 1)
    assert flat[:3] == PHI.y
    assert flat[3:5] == PHI.v
    assert flat[5] == PHI.src.D(PHI.v[0])
    assert flat[6] == du(2, 2)  # D of v2 = u2'
    with pytest.raises(ValueError):
        prolong_map(PHI, -1)


# --- the pullback matrix ----------------------------------------------------


def expected_A_phi():
    """Every entry of the forward pullback matrix at depth 4.

    The same table comes out of the independent recomputation in
    tests/oracles/oracle_pullback.py (sympy end to end).
    """
    x = {i: RatFn.var(X(i)) for i in (1, 2, 3)}
    rows = {
        (-1, 1): {(-1, 1): ONE},
        (0, 1): {(0, 2): x[1], (0, 3): -ONE},
        (0, 2): {(1, 2): ONE},
        (0, 3): {(0, 2): ONE},
        (1, 1): {(0, 1): u2, (1, 2): x[1]},
        (1, 2): {(2, 2): ONE},
        (2, 1): {(0, 1): du(2, 1), (1, 1): u2, (1, 2): u1, (2, 2): x[1]},
        (2, 2): {(3, 2): ONE},
        (3, 1): {(0, 1): du(2, 2), (1, 1): 2 * du(2, 1), (1, 2): du(1, 1),
                 (2, 1): u2, (2, 2): 2 * u1, (3, 2): x[1]},
        (3, 2): {(4, 2): ONE},
        (4, 1): {(0, 1): du(2, 3), (1, 1): 3 * du(2, 2), (1, 2): du(1, 2),
                 (2, 1): 3 * du(2, 1), (2, 2): 3 * du(1, 1),
                 (3, 1): u2, (3, 2): 3 * u1, (4, 2): x[1]},
        (4, 2): {(5, 2): ONE},
    }
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


def test_pullback_of_phi_entry_by_entry():
    A = pullback_matrix(PHI, N=4)
    assert A.entries == expected_A_phi()


def test_pullback_of_phi_displayed_rows():
    A = pullback_matrix(PHI, N=4)
    assert A.block(0, 0)[0] == [ZERO, x1, -ONE]
    assert A.block(1, 0) == [[u2, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    assert A.block(1, 1) == [[ZERO, x1], [ZERO, ZERO]]
    assert A.block(2, 0)[0] == [du(2, 1), ZERO, ZERO]
    assert A.block(2, 1)[0] == [u2, u1]
    assert A.block(2, 2)[0] == [ZERO, x1]


def test_pullback_metadata():
    A = pullback_matrix(PHI, N=4)
    assert A.meta["J"] == 0 and A.meta["N"] == 4
    assert A.meta["map"] == "phi"
    assert A.meta["kind_src"] == A.meta["kind_tgt"] == "adapted3x2"
    assert A.meta["assumptions"] == []  # phi itself never divides
    At = pullback_matrix(THETA, N=4)
    assert "u2" in At.meta["assumptions"]


def test_pullback_dt_column_is_clean():
    A = pullback_matrix(PHI, N=4)
    for (r, c) in A.entries:
        if c == (-1, 1):
            assert r == (-1, 1)


def test_pullback_respects_the_band():
    A = pullback_matrix(PHI, N=4)
    J = A.meta["J"]
    for (r, c) in A.entries:
        if r[0] >= 0:
            assert c[0] <= J + r[0] + 1


def test_non_solution_map_trips_the_dt_check():
    sig, lam = PHI.src, PHI.tgt
    imposter = EquivMap(sig, lam, tuple(RatFn.var(X(i)) for i in (1, 2, 3)),
                        (u1, u2), name="imposter")
    with pytest.raises(DtResidue):
        pullback_matrix(imposter, N=2)
    B = pullback_matrix(imposter, N=2, strict=False)
    assert not B.get((0, 3), (-1, 1)).is_zero()


def test_a_control_above_the_source_frame_is_a_truncation_error():
    # no pulled row reaches past the source frame: re-expressing it there
    # raises first, here for v1 = u1'' with the frame at level N + J + 1 = 2,
    # as `jetfactor pullback` runs it
    one = ControlSystem(1, 1, (u1,))
    m = EquivMap(one, one, (x1,), (du(1, 2),))
    with pytest.raises(TruncationExceeded,
                       match=r"^d\(u1''\) is beyond frame level 2$"):
        pullback_matrix(m, N=2, strict=False)


# --- repetition and rank structure -------------------------------------------


@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_repeated_blocks_down_the_staircase(m):
    A = pullback_matrix(m, N=4)
    ref = check_arepeats(A)
    assert ref is not None
    assert A.block(1, A.meta["J"] + 2) == ref


def test_repeats_violation_raises():
    A = pullback_matrix(PHI, N=4)
    A.set((3, 1), (4, 1), RatFn.const(5))  # vandalize a staircase block
    with pytest.raises(RepeatViolation):
        check_arepeats(A)


def test_repeats_check_is_vacuous_when_shallow():
    assert check_arepeats(pullback_matrix(PHI, N=1)) is None


@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_rank_one_blocks(m):
    A = pullback_matrix(m, N=4)
    assert block_rank(A, 0, 1) == 1
    assert block_rank(A, 1, 2) == 1


def test_static_maps_have_rank_zero_there():
    fwd, _, _ = random_static_transform(PHI.src, 3)
    A = pullback_matrix(fwd, N=3)
    assert block_rank(A, 0, 1) == 0
    assert block_rank(A, 1, 2) == 0


def test_block_rank_sees_a_rank_that_drops_at_every_sample_point():
    # over the rational functions the block has rank 2
    A = BlockMatrix({0: 2}, {0: 2})
    A.set((0, 1), (0, 1), VANISHING)
    A.set((0, 2), (0, 2), ONE)
    assert generic_rank(A.block(0, 0)) == 1
    assert block_rank(A, 0, 0) == 2


def _rank_sweep_matrices():
    """The fixtures' strict pullbacks at N = 2..8, and both directions of
    ten seeded moves of the normal forms at N = 3."""
    for fwd, _ in FIX[:3]:
        for N in range(2, 9):
            yield pullback_matrix(fwd, N=N)
    forms = elkin_forms_32()
    moves = [(form, make, k) for form in forms
             for make in (random_static_transform, random_nonaut_static_pair)
             for k in range(6)]
    for form, make, k in random.Random(0).sample(moves, 10):
        for m in make(form, k)[:2]:
            yield pullback_matrix(m, N=3)


def test_block_rank_agrees_with_the_sampled_rank_on_every_block():
    count = 0
    for A in _rank_sweep_matrices():
        for rl in A.row_sizes:
            for cl in A.col_sizes:
                assert block_rank(A, rl, cl) == generic_rank(A.block(rl, cl))
                count += 1
    assert count > 1500


# --- triangularity as a staticness test --------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_nonaut_static_pairs_are_mutually_triangular(seed):
    fwd, back, _ = random_nonaut_static_pair(PHI.src, seed)
    assert verify_pair(fwd, back, N=3).ok
    A = pullback_matrix(fwd, N=3)
    B = pullback_matrix(back, N=3)
    rep = check_nonaut_static_pair(A, B)
    assert rep.consistent and rep.static
    assert "triangular" in rep.summary()


def test_dynamic_pair_is_mutually_full():
    A = pullback_matrix(PHI, N=3)
    B = pullback_matrix(PHI_INV, N=3)
    assert not A.is_block_lower()
    rep = check_nonaut_static_pair(A, B)
    assert rep.consistent and not rep.static
    assert "full" in rep.summary()


# --- block matrix plumbing ----------------------------------------------------


def full_inverse(m):
    """The exact inverse of a BlockMatrix with identical row and column
    layout, by one Gauss-Jordan elimination of [m | I]: the tests' oracle
    for the factors that factor_JK0 carries."""
    if list(m.row_sizes.items()) != list(m.col_sizes.items()):
        raise DimensionMismatch("inverse of a non-square block matrix")
    labels = list(m.row_labels())
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    a = [[ZERO] * (2 * n) for _ in range(n)]   # [m | I]
    for i in range(n):
        a[i][n + i] = ONE
    for (r, c), v in m.entries.items():
        a[idx[r]][idx[c]] = v
    if len(gauss_jordan(a, n)) < n:
        raise StructureViolation("matrix is singular; cannot invert")
    out = BlockMatrix(m.row_sizes, m.col_sizes, m.meta)
    for i, r in enumerate(labels):
        for j, c in enumerate(labels):
            out.set(r, c, a[i][n + j])
    return out


def square(vals):
    m = BlockMatrix({0: 2}, {0: 2})
    for i in (1, 2):
        for j in (1, 2):
            m.set((0, i), (0, j), vals[i - 1][j - 1])
    return m


def test_block_matrix_algebra():
    a = square([[ONE, x1], [ZERO, ONE]])
    b = square([[ONE, -x1], [ZERO, ONE]])
    eye = BlockMatrix.identity({0: 2})
    assert a.matmul(b) == eye
    assert full_inverse(a) == b
    assert a.transpose().get((0, 2), (0, 1)) == x1
    assert a.copy() == a
    assert a != b
    assert eye.is_identity() and not a.is_identity()


def test_block_matrix_singular_inverse():
    with pytest.raises(StructureViolation):
        full_inverse(square([[ONE, ONE], [ONE, ONE]]))


def test_block_matrix_shape_errors():
    a = square([[ONE, ZERO], [ZERO, ONE]])
    tall = BlockMatrix({0: 2}, {-1: 1, 0: 2})
    with pytest.raises(DimensionMismatch):
        tall.matmul(a)
    with pytest.raises(DimensionMismatch):
        full_inverse(tall)
    assert not tall.is_identity()
    with pytest.raises(DimensionMismatch):
        tall.block(0, 1)  # no column level 1


def assert_indexed(m):
    """m's label indexes hold exactly the labels of its entries, and no
    entry is zero."""
    rows, cols = {}, {}
    for r, c in m.entries:
        rows.setdefault(r, set()).add(c)
        cols.setdefault(c, set()).add(r)
    assert {r: cs for r, cs in m._rows.items() if cs} == rows
    assert {c: rs for c, rs in m._cols.items() if rs} == cols
    assert not any(v.is_zero() for v in m.entries.values())


def _walk_every_label(entries, labels, key, add, c):
    """The reference row and column operations on a plain entries dict:
    every label of the other axis, in label order, by add_term."""
    for lab in labels:
        src = entries.get(key(lab, False))
        if src is not None:
            dst = key(lab, True)
            if add:
                s = entries.get(dst, ZERO) + c * src
            else:
                s = c * src
            if s.is_zero():
                entries.pop(dst, None)
            else:
                entries[dst] = s


@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_label_indexes_follow_every_change(m):
    rng = random.Random(20261104)
    A = pullback_matrix(m, N=2)
    assert_indexed(A)
    W = A.copy()
    assert_indexed(W)
    ref = dict(A.entries)
    rows, cols = W.row_labels(), W.col_labels()
    # small multipliers: repeated row and column adds would swell others
    vals = [ONE, -ONE, RatFn.const(2), x1, ZERO]
    seen = set()
    for _ in range(120):
        op = rng.choice(["set", "row_add", "row_scale", "col_add",
                         "col_scale", "relabel_rows", "relabel_cols",
                         "cancel"])
        if op == "set":
            r, c, v = rng.choice(rows), rng.choice(cols), rng.choice(vals)
            W.set(r, c, v)
            if v.is_zero():
                ref.pop((r, c), None)
            else:
                ref[(r, c)] = v
        elif op in ("row_add", "row_scale"):
            dst, src = rng.sample(rows, 2)
            c = rng.choice(vals)
            if op == "row_add":
                W.row_add(dst, src, c)
            else:
                W.row_scale(src, c)
                dst = src
            _walk_every_label(ref, cols, lambda col, d: (dst if d else src, col),
                              op == "row_add", c)
        elif op in ("col_add", "col_scale"):
            dst, src = rng.sample(cols, 2)
            c = rng.choice(vals)
            if op == "col_add":
                W.col_add(dst, src, c)
            else:
                W.col_scale(src, c)
                dst = src
            _walk_every_label(ref, rows, lambda row, d: (row, dst if d else src),
                              op == "col_add", c)
        elif op == "cancel":
            # row r -= row r: every add cancels, and the index drops row r
            r = rng.choice([r for r, _ in W.entries])
            W.row_add(r, r, -ONE)
            assert W._rows[r] == set()
            _walk_every_label(ref, cols, lambda col, d: (r, col), True, -ONE)
        else:
            labels = rows if op == "relabel_rows" else cols
            picked = rng.sample(labels, 3)
            to = dict(zip(picked, picked[1:] + picked[:1]))
            if op == "relabel_rows":
                W.relabel_rows(to)
                ref = {(to.get(r, r), c): v for (r, c), v in ref.items()}
            else:
                W.relabel_cols(to)
                ref = {(r, to.get(c, c)): v for (r, c), v in ref.items()}
        seen.add(op)
        assert_indexed(W)
        assert list(W.entries.items()) == list(ref.items()), op
    assert len(seen) == 8
    for made in (W.copy(), W.transpose(), BlockMatrix.identity(W.row_sizes),
                 W.matmul(BlockMatrix.identity(W.col_sizes)),
                 parse_matrix(serialize(W))):
        assert_indexed(made)
    assert parse_matrix(serialize(W)) == W


def test_equality_ignores_meta():
    a = square([[ONE, ZERO], [ZERO, ONE]])
    b = square([[ONE, ZERO], [ZERO, ONE]])
    b.meta["J"] = 7
    assert a == b


def test_equal_on_shared():
    A = pullback_matrix(PHI, N=3)
    B = pullback_matrix(PHI, N=4)
    assert equal_on_shared(A, B)


# --- the single-control consequence -------------------------------------------


def chain2():
    return ControlSystem(2, 1, (u1, x1), name="chain")


def test_scalar_static_pair_passes():
    sys_ = chain2()
    fwd, back, _ = random_static_transform(sys_, 11)
    rep = verify_scalar_theorem(fwd, back, N=3)
    assert rep.ok
    assert (rep.detected_J, rep.detected_K) == (-1, -1)
    assert any("static" in n for n in rep.notes)


def test_scalar_check_rejects_multi_control_systems():
    with pytest.raises(DimensionMismatch):
        verify_scalar_theorem(PHI, PHI_INV)


def test_scalar_check_on_a_non_pair_says_so():
    sys_ = chain2()
    fwd, back, _ = random_static_transform(sys_, 11)
    broken = EquivMap(fwd.src, fwd.tgt, fwd.y, (fwd.v[0] + 1,), name="broken")
    rep = verify_scalar_theorem(broken, back, N=3)
    assert not rep.ok
    assert any("nothing to conclude" in n for n in rep.notes)


def _passing_order_zero_pair(monkeypatch):
    """A single-control map of order J = 0 and a static one back, with
    verify_pair stubbed to pass them: no such pair verifies, so this is
    the only way to reach the contradiction."""
    sys_ = chain2()
    x2 = RatFn.var(X(2))
    monkeypatch.setattr(equivalence, "verify_pair", lambda m, minv, N: (
        VerificationReport(True, True, m.order(), minv.order(), [], {})))
    return (EquivMap(sys_, sys_, (x1 + u1, x2), (u1,)),
            EquivMap(sys_, sys_, (x1, x2), (u1,)))


def test_scalar_check_without_a_product_still_contradicts(monkeypatch):
    m, minv = _passing_order_zero_pair(monkeypatch)
    with pytest.raises(ScalarContradiction) as err:
        verify_scalar_theorem(m, minv)
    assert str(err.value) == "s=1 pair verified with orders (0, -1)"
