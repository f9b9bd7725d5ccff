"""Exterior calculus on jet coordinates plus the two frame kinds."""

import random

import pytest

from jetfactor import (Coframe, ControlSystem, RatFn, T, U, X, ZERO, ONE,
                       elkin_forms_32, exterior_d, wedge)
from jetfactor.coframes import ADAPTED, CONTACT, add_term, exterior_d2
from jetfactor.errors import (NotNormalizedForm, StructureViolation,
                              TruncationExceeded)

x1, x2, x3 = (RatFn.var(X(i)) for i in (1, 2, 3))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))


def sigma():
    return ControlSystem(3, 2, (u1, u2, x2 * u1))


def d_of(h):
    """The exact one-form dh of a function h."""
    return {v: h.diff(v) for v in h.vars()}


def d_var(v):
    return {v: ONE}


def form_add(a, b):
    r = dict(a)
    for k, c in b.items():
        add_term(r, k, c)
    return r


def form_scale(a, c):
    return {k: v * c for k, v in a.items()}


# --- raw form arithmetic ----------------------------------------------------

def test_form_add_cancels_to_nothing():
    a = form_add(d_var(X(1)), form_scale(d_var(T), x2))
    assert form_add(a, form_scale(a, -ONE)) == {}


def test_wedge_antisymmetry():
    a = d_var(X(1))
    b = form_scale(d_var(X(2)), u1)
    assert wedge(a, a) == {}
    left = wedge(a, b)
    right = wedge(b, a)
    assert left == {(X(1), X(2)): u1}
    assert form_add(left, right) == {}


def test_exterior_d_kills_exact_forms():
    for h in (x1 * x2, x1 ** 2 / u2, (x1 + u1) * x3):
        assert exterior_d(d_of(h)) == {}


def test_exterior_d_of_corrected_state_form():
    # d(dx3 - x2 dx1) = dx1 ^ dx2
    w = form_add(d_var(X(3)), form_scale(d_var(X(1)), -x2))
    assert exterior_d(w) == {(X(1), X(2)): ONE}


def test_exterior_d2_on_closed_two_form():
    w = {(X(1), X(2)): ONE}
    assert exterior_d2(w) == {}
    # and a non-closed one for contrast: d(x3 dx1^dx2) = dx3^dx1^dx2
    got = exterior_d2({(X(1), X(2)): x3})
    assert got == {(X(1), X(2), X(3)): ONE}


# --- frames -----------------------------------------------------------------

def test_contact_frame_elements():
    fr = Coframe(sigma(), 2, CONTACT)
    assert fr.labels[0] == (-1, 1)
    assert fr.elements[(-1, 1)] == {T: ONE}
    assert fr.elements[(0, 3)] == {X(3): ONE, T: ZERO - x2 * u1}
    assert fr.elements[(1, 2)] == {U(2): ONE, T: ZERO - RatFn.var(U(2, 1))}
    assert fr.elements[(2, 1)] == {U(1, 1): ONE, T: ZERO - RatFn.var(U(1, 2))}


def test_frame_needs_positive_level():
    with pytest.raises(ValueError):
        Coframe(sigma(), 0, CONTACT)


def test_dx1_in_contact_basis():
    fr = Coframe(sigma(), 1, CONTACT)
    assert fr.to_frame(d_var(X(1))) == {(0, 1): ONE, (-1, 1): u1}


def test_basis_round_trip():
    fr = Coframe(sigma(), 2, CONTACT)
    w = form_add(form_scale(d_var(X(2)), x1 / u2), d_var(U(1, 1)))
    assert fr.from_frame(fr.to_frame(w)) == w


def test_truncation_is_loud():
    fr = Coframe(sigma(), 2, CONTACT)
    # du1'' lives one level above what the frame spans
    with pytest.raises(TruncationExceeded):
        fr.to_frame(d_var(U(1, 2)))
    with pytest.raises(TruncationExceeded):
        fr.to_frame2(wedge(d_var(T), d_var(U(1, 2))))


def test_adapted_third_row_for_bilinear_f():
    fr = Coframe(sigma(), 1, ADAPTED)
    # dx3 - x2 u1 dt - x2 (dx1 - u1 dt) collapses to dx3 - x2 dx1
    assert fr.elements[(0, 3)] == {X(3): ONE, X(1): ZERO - x2}


def test_adapted_third_row_without_u_dependence():
    lam = ControlSystem(3, 2, (u1, u2, x2))
    fr = Coframe(lam, 1, ADAPTED)
    assert fr.elements[(0, 3)] == {X(3): ONE, T: ZERO - x2}


def test_adapted_third_row_affine_offset():
    z = ControlSystem(3, 2, (u1, u2, 1 + x2 * u1))
    fr = Coframe(z, 1, ADAPTED)
    assert fr.elements[(0, 3)] == {X(3): ONE, T: ZERO - ONE, X(1): ZERO - x2}


def test_adapted_demands_normal_form():
    with pytest.raises(NotNormalizedForm):
        Coframe(ControlSystem(3, 2, (u2, u1, x2 * u1)), 2, ADAPTED)
    with pytest.raises(NotNormalizedForm):
        Coframe(ControlSystem(2, 1, (u1, x1), name="small"), 2, ADAPTED)


def test_wedge_expansion_in_adapted_basis():
    fr = Coframe(sigma(), 1, ADAPTED)
    got = fr.to_frame2(wedge(d_var(X(1)), d_var(X(2))))
    assert got == {
        ((0, 1), (0, 2)): ONE,
        ((-1, 1), (0, 2)): u1,
        ((-1, 1), (0, 1)): ZERO - u2,
    }


def test_frame_converts_one_and_two_forms():
    fr = Coframe(sigma(), 1, ADAPTED)
    assert fr.to_frame(d_var(X(1))) == {(0, 1): ONE, (-1, 1): u1}
    two = fr.to_frame2(wedge(d_var(X(1)), d_var(X(2))))
    assert ((0, 1), (0, 2)) in two
    assert fr.to_frame({}) == {} and fr.to_frame2({}) == {}


def _random_oneform(rng, fr):
    """A seeded one-form over the differentials the frame spans, with
    polynomial and rational coefficients in the frame's jet variables."""
    n, s = fr.sys.n, fr.sys.s
    diffs = ([T] + [X(i) for i in range(1, n + 1)]
             + [U(j, k) for j in range(1, s + 1) for k in range(fr.N)])
    names = [RatFn.var(v) for v in diffs[1:]]
    form = {}
    for v in rng.sample(diffs, 3):
        c = RatFn.const(rng.randint(-3, 3)) + rng.choice(names) * rng.choice(names)
        if rng.random() < 0.5:
            c = c / (rng.choice(names) + rng.randint(1, 4))
        form[v] = c
    return form


@pytest.mark.parametrize("kind", [CONTACT, ADAPTED], ids=["contact", "adapted"])
def test_change_of_basis_respects_the_wedge(kind):
    # to_frame2 must be the two-form extension of to_frame, and from_frame
    # its inverse, on every elkin form at N = 3
    rng = random.Random(13)
    for sys_ in elkin_forms_32():
        fr = Coframe(sys_, 3, kind)
        for _ in range(4):
            a, b = _random_oneform(rng, fr), _random_oneform(rng, fr)
            assert fr.to_frame2(wedge(a, b)) == wedge(fr.to_frame(a),
                                                      fr.to_frame(b))
            assert fr.from_frame(fr.to_frame(a)) == a


def test_control_level_structure_identity():
    # d(du1 - u1' dt) re-expressed over the frame is w-1 ^ w2_1
    fr = Coframe(sigma(), 2, CONTACT)
    got = fr.to_frame2(exterior_d(fr.elements[(1, 1)]))
    assert got == {((-1, 1), (2, 1)): ONE}


def test_adapted_third_row_closes_mod_level_zero():
    fr = Coframe(sigma(), 2, ADAPTED)
    got = fr.to_frame2(exterior_d(fr.elements[(0, 3)]))
    assert got  # it is not literally closed...
    for (la, lb) in got:
        assert la[0] == 0 or lb[0] == 0  # ...but every term carries a level-0 factor


ELKIN_THIRD_ROWS = [ZERO, ONE, x2, x2 * u1, 1 + x2 * u1]


@pytest.mark.parametrize("f3", ELKIN_THIRD_ROWS, ids=lambda f: f.to_text())
def test_structure_equations_all_normal_forms(f3):
    sys_ = ControlSystem(3, 2, (u1, u2, f3))
    for kind in (CONTACT, ADAPTED):
        rep = Coframe(sys_, 4, kind).structure_report()
        assert rep.passed, rep.summary()
        assert "hold" in rep.summary()


def test_structure_violation_is_detected():
    fr = Coframe(sigma(), 2, ADAPTED)
    # a stray u1 dt makes d(w0_3) pick up a w-1 ^ w1_1 residue
    fr.elements[(0, 3)] = form_add(fr.elements[(0, 3)], form_scale(d_var(T), u1))
    rep = fr.structure_report()
    assert not rep.passed
    assert any(lab == (0, 3) for lab, _ in rep.failures)
    with pytest.raises(StructureViolation):
        fr.check_structure()


def test_check_structure_returns_the_report():
    fr = Coframe(sigma(), 3, CONTACT)
    assert fr.check_structure().passed
