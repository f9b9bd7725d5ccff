import hashlib
import random
from fractions import Fraction

import pytest

from jetfactor import (AffineForm, ControlSystem, ONE, RatFn, T, U,
                       VectorField, X, ZERO, elkin_forms_32, generic_rank,
                       builtin_fixtures, lie_bracket, prolong_partial,
                       random_nonaut_static_pair, random_static_transform,
                       sample_point, to_affine)
from jetfactor.errors import (DegenerateSystem, DenominatorZero,
                              DimensionMismatch, EmptyPromotionSet, NotAffine)
from jetfactor import jets
from jetfactor.jets import sample_points
from test_classify import RATIONAL_SIGNATURES, SIGNATURES, sysn
from test_crosscheck import pairs


def rv(v):
    return RatFn.var(v)


x1, x2, x3 = rv(X(1)), rv(X(2)), rv(X(3))
u1, u2 = rv(U(1)), rv(U(2))


def bilinear():
    """x1' = u1, x2' = u2, x3' = x2*u1 — the workhorse 3-state system."""
    return ControlSystem(3, 2, (u1, u2, x2 * u1), name="sigma")


def rebuild(form):
    """The rhs tuple f0 + sum u_j fvecs_j of an AffineForm, for round-trip
    checks."""
    out = []
    for i in range(form.n):
        acc = form.f0[i]
        for j, vf in enumerate(form.fvecs):
            acc = acc + RatFn.var(U(j + 1)) * vf[i]
        out.append(acc)
    return tuple(out)


class TestConstruction:
    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            ControlSystem(3, 2, (u1, u2))  # too few components
        with pytest.raises(DimensionMismatch):
            ControlSystem(2, 1, (rv(X(3)), u1))  # x3 out of range
        with pytest.raises(DimensionMismatch):
            ControlSystem(2, 1, (rv(U(1, 1)), u1))  # derivative on the rhs
        with pytest.raises(DimensionMismatch):
            ControlSystem(2, 1, (u2, u1))  # u2 out of range

    def test_degenerate_rank_rejected(self):
        # both rows lean on u1 only, yet s = 2 is declared
        with pytest.raises(DegenerateSystem):
            ControlSystem(2, 2, (u1, x1 * u1))

    def test_check_false_skips_rank(self):
        sys_ = ControlSystem(2, 2, (u1, x1 * u1), check=False)
        assert sys_.s == 2
        with pytest.raises(DegenerateSystem):
            ControlSystem(sys_.n, sys_.s, sys_.f)

    def test_equality_ignores_name(self):
        a = ControlSystem(3, 2, (u1, u2, x2 * u1), name="a")
        b = ControlSystem(3, 2, (u1, u2, x2 * u1), name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_check_regular_passes(self):
        sys_ = bilinear()
        assert ControlSystem(sys_.n, sys_.s, sys_.f, check=True) == sys_


class TestTotalDerivative:
    def test_states_follow_the_flow(self):
        sys_ = bilinear()
        assert sys_.D(x1) == u1
        assert sys_.D(x3) == x2 * u1

    def test_controls_gain_a_prime(self):
        sys_ = bilinear()
        assert sys_.D(u2) == rv(U(2, 1))
        assert sys_.D(rv(U(2, 1))) == rv(U(2, 2))

    def test_product_rule(self):
        sys_ = bilinear()
        got = sys_.D(x1 * u2)
        assert got == u1 * u2 + x1 * rv(U(2, 1))

    def test_explicit_time(self):
        sys_ = bilinear()
        assert sys_.D(rv(T) * x1) == x1 + rv(T) * u1
        assert not any(T in fi.vars() for fi in sys_.f)

    def test_iterated(self):
        sys_ = bilinear()
        chain = [x1]
        for _ in range(2):
            chain.append(sys_.D(chain[-1]))
        assert chain[1:] == [u1, rv(U(1, 1))]


def _d_by_variable(sys_, expr):
    """D_t as one canonicalized sum per variable: the transcription that
    ControlSystem.D must match."""
    out = expr.diff(T)
    for v in sorted(expr.vars()):
        if v[0] == 1:
            out = out + sys_.f[v[2] - 1] * expr.diff(v)
        elif v[0] == 2:
            out = out + rv(U(v[2], v[1] + 1)) * expr.diff(v)
    return out


_D_VARS = [T, X(1), X(2), X(3), U(1), U(2), U(1, 1), U(2, 1)]


def _d_poly(rng, terms):
    out = ZERO
    for _ in range(terms):
        c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
        term = RatFn.const(c)
        for v in rng.sample(_D_VARS, rng.randint(0, 3)):
            term = term * rv(v) ** rng.randint(1, 2)
        out = out + term
    return out


def _d_input(rng, kind):
    num = _d_poly(rng, rng.randint(1, 4))
    if kind == "poly":
        return num
    if kind == "monomial":
        den = RatFn.const(rng.choice([1, 2, -3]))
        for v in rng.sample(_D_VARS, rng.randint(1, 2)):
            den = den * rv(v) ** rng.randint(1, 2)
        return num / den
    den = ZERO
    while den.is_zero() or den.is_const():
        den = _d_poly(rng, 2)
    return num / den


def _pair_terms(p):
    """p's terms as sorted (pairs, coefficient) items: the text the hash
    below was recorded from."""
    return sorted((pairs(m), c) for m, c in p.items())


# SHA-256 of the per-variable sum's triples on the rational field for the
# two-term-denominator inputs below, recorded with that sum itself; on
# some of these inputs it takes seconds.
_RATIONAL_GENERAL_SHA = (
    "48da4050a4cb29fe7280fc5f1ce1542f930a979a3fbba2b842a34e615cd0abe8")


def test_d_matches_the_per_variable_sum():
    h = Fraction(1, 2)
    fields = [
        bilinear(),
        ControlSystem(3, 2, (h * u1, u2 + x3 / 3, rv(T) * x2 * u1 - 2 * x1)),
        ControlSystem(3, 2, (u1, u2, x2 * u1 / (1 + x1 ** 2))),
    ]
    rational = [
        ControlSystem(3, 2, (u1 * x1, u2, x3 * u1 / (x2 - 3))),
        ControlSystem(3, 2, (u1 / (1 + x2 ** 2), u2, x1 * u1 / (x3 + x2))),
        ControlSystem(3, 2, (u1, u2 * x1 / (x1 - x3), x2 * u1 / (1 + x1 ** 2))),
    ]
    assert [all(fi.is_poly() for fi in s.f) for s in fields + rational] == [
        True, True, False, False, False, False]
    assert {fi._k for fi in fields[1].f} == {1, 2, 3}
    rng = random.Random(20261019)
    kinds = ["poly", "monomial", "general"]
    scales = set()
    frozen = hashlib.sha256()
    for i in range(200):
        expr = _d_input(rng, kinds[i % 3])
        scales.add(expr._k)
        if i % 3 == 2:
            got = fields[2].D(expr)
            frozen.update(repr((_pair_terms(got._n), got._k,
                                _pair_terms(got._d))).encode() + b"\n")
        for sys_ in fields[:2] if i % 3 == 2 else fields + rational:
            got, want = sys_.D(expr), _d_by_variable(sys_, expr)
            assert (got._n, got._k, got._d) == (want._n, want._k, want._d), (
                expr, sys_)
    assert frozen.hexdigest() == _RATIONAL_GENERAL_SHA
    assert len(scales) > 1


# SHA-256 of the D_t chains below, each item's terms in their order,
# recorded before derivation and rsum shared one common-denominator
# builder: the third field's denominator makes L != 1, and the term order
# of L/1 reaches every item's numerator
_RATIONAL_CHAIN_SHA = (
    "a6da0ed4460e29bd8afb4175d16e0ca1d2c3f4295b5413abc29c8439d592b171")


def test_rational_d_chains_keep_their_term_order():
    base = sysn(3, *RATIONAL_SIGNATURES[0][0])
    order = hashlib.sha256()

    def terms(p):
        return [(list(pairs(m)), c) for m, c in p.items()]

    for move in (random_static_transform, random_nonaut_static_pair):
        for seed in range(2):
            fwd, _, moved = move(base, seed)
            for sys_, start in ((moved, moved.f), (fwd.src, fwd.v)):
                for e in start:
                    for _ in range(2):
                        e = sys_.D(e)
                        order.update(repr((terms(e._n), e._k,
                                           terms(e._d))).encode() + b"\n")
    assert order.hexdigest() == _RATIONAL_CHAIN_SHA


class TestAffine:
    def test_decomposition(self):
        form = to_affine(bilinear())
        assert form.f0 == VectorField((ZERO, ZERO, ZERO))
        assert form.fvecs[0] == VectorField((RatFn.const(1), ZERO, x2))
        assert form.fvecs[1] == VectorField((ZERO, RatFn.const(1), ZERO))
        assert rebuild(form) == bilinear().f

    def test_drift_survives(self):
        sys_ = ControlSystem(2, 1, (u1, x1 + 1))
        form = to_affine(sys_)
        assert form.f0 == VectorField((ZERO, x1 + 1))
        assert form.s == 1

    def test_mixed_product_is_not_affine(self):
        sys_ = ControlSystem(2, 2, (u1 * u2, u2))
        with pytest.raises(NotAffine):
            to_affine(sys_)

    def test_quadratic_control_is_not_affine(self):
        sys_ = ControlSystem(1, 1, (u1 * u1 + u1,))
        with pytest.raises(NotAffine):
            to_affine(sys_)

    @pytest.mark.parametrize("f, j", [
        ((u1 * u2, u2), 1),
        ((u1 ** 2 + u1,), 1),
        ((x1 / (1 + u2), u1), 2),
        ((u1, u2, x2 * u1 * u2), 1),
        ((u1, u2 / (1 + x1), u2 ** 2), 2),
        ((u1 * (1 + u2) / (1 + u2 * x1), u2), 1),
        ((u2 ** 2, u1 ** 2 + u2), 1),
    ], ids=["u1*u2", "u1^2", "den-u2", "x2*u1*u2", "u2^2", "den-u2-x1",
            "controls-before-fields"])
    def test_not_affine_names_the_first_control(self, f, j):
        # the smallest j whose partial in u_j still mentions a control
        sys_ = ControlSystem(len(f), 2 if len(f) > 1 else 1, f)
        with pytest.raises(NotAffine) as info:
            to_affine(sys_)
        assert str(info.value) == "rhs is not affine in u%d" % j

    def test_a_pole_at_zero_controls_is_not_affine(self):
        # the substituting split raised SubstitutionPole on these
        for f, j in (((x1 / u1, u2), 1), ((u1, x1 / (u2 + x1 * u1)), 1)):
            with pytest.raises(NotAffine) as info:
                to_affine(ControlSystem(2, 2, f, check=False))
            assert str(info.value) == "rhs is not affine in u%d" % j


def _to_affine_by_substitution(sys_):
    """The split to_affine made before its one pass over the numerator's
    terms: the drift by substituting 0 for every control, each column by
    a partial, and the rebuilt rhs compared with f.  The reference of
    test_one_pass_split_matches_substitution."""
    zero_u = {U(j + 1): ZERO for j in range(sys_.s)}
    f0 = tuple(fi.substitute(zero_u) for fi in sys_.f)
    cols = []
    for j in range(1, sys_.s + 1):
        fj = tuple(fi.diff(U(j)) for fi in sys_.f)
        for g in fj:
            for v in g.vars():
                if v[0] == 2:
                    raise NotAffine("rhs is not affine in u%d" % j)
        cols.append(VectorField(fj))
    form = AffineForm(VectorField(f0), cols)
    rebuilt = rebuild(form)
    for i in range(sys_.n):
        if rebuilt[i] != sys_.f[i]:
            raise NotAffine("rhs component %d is not affine in the controls"
                            % (i + 1))
    return form


def _affine_inputs():
    """Static and nonautonomous moves, seeds 0-63, of the Elkin forms and
    of the classifier's signature forms, and fields whose split cancels
    against k or a control-free denominator."""
    t = rv(T)
    forms = list(elkin_forms_32()) + [
        sysn(len(f), *f) for f, _, _ in SIGNATURES + RATIONAL_SIGNATURES]
    for form in forms:
        for move in (random_static_transform, random_nonaut_static_pair):
            for seed in range(64):
                yield move(form, seed)[2]
    yield ControlSystem(3, 1, (u1 + x2 / (x3 + 2), x1, x3))
    yield ControlSystem(1, 1, ((u1 + 2 * x1) / 2,))
    yield ControlSystem(3, 2, ((t * u1 + x1 * t ** 2) / 3,
                               u2 * (1 + t) / (x1 - t) + t / (x1 - t),
                               (x2 * u1 - 6 * x3) / (2 * x2 + 4)))


def test_one_pass_split_matches_substitution():
    def triples(form):
        return [(c._n, c._k, c._d) for vf in (form.f0,) + form.fvecs
                for c in vf]

    splits = 0
    for sys_ in _affine_inputs():
        assert triples(to_affine(sys_)) == \
            triples(_to_affine_by_substitution(sys_)), sys_
        splits += 1
    assert splits == 21 * 2 * 64 + 3


class TestBracket:
    def test_constant_fields_commute(self):
        a = VectorField((RatFn.const(1), ZERO))
        b = VectorField((ZERO, RatFn.const(1)))
        assert lie_bracket(a, b).is_zero()

    def test_classic_pair(self):
        # [d/dx1, x1 d/dx2] = d/dx2
        a = VectorField((RatFn.const(1), ZERO))
        b = VectorField((ZERO, x1))
        got = lie_bracket(a, b)
        assert got == VectorField((ZERO, RatFn.const(1)))
        # antisymmetry
        assert lie_bracket(b, a) == VectorField((ZERO, RatFn.const(-1)))

    def test_self_bracket_vanishes(self):
        a = VectorField((x2, x1 * x2))
        assert lie_bracket(a, a).is_zero()

    def test_plain_tuples_accepted(self):
        assert lie_bracket((RatFn.const(1), ZERO), (ZERO, x1))[1] == RatFn.const(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lie_bracket(VectorField((x1,)), VectorField((x1, x2)))


class TestProlongation:
    def test_total(self):
        big = prolong_partial(bilinear(), {1, 2})
        assert (big.n, big.s) == (5, 2)
        # old controls live on as states 4 and 5, new controls are their rates
        assert big.f == (rv(X(4)), rv(X(5)), x2 * rv(X(4)), u1, u2)

    def test_partial_relabels_unpromoted_first(self):
        sys_ = bilinear()
        got = prolong_partial(sys_, {1})
        # u1 -> x4; the surviving u2 becomes the new u1; u1' arrives as u2
        assert (got.n, got.s) == (4, 2)
        assert got.f == (rv(X(4)), u1, x2 * rv(X(4)), u2)

    def test_promoting_everything_is_total(self):
        # on every fixture system: u_j becomes x_{n+j} and v_j = u_j'
        systems = [s for m, _ in builtin_fixtures() for s in (m.src, m.tgt)]
        for sys_ in systems + elkin_forms_32():
            n, s = sys_.n, sys_.s
            sub = {U(j): rv(X(n + j)) for j in range(1, s + 1)}
            want = tuple(f.substitute(sub) for f in sys_.f)
            want += tuple(rv(U(j)) for j in range(1, s + 1))
            got = prolong_partial(sys_, range(1, s + 1))
            assert (got.n, got.s, got.f) == (n + s, s, want)

    def test_promote_set_must_be_sane(self):
        with pytest.raises(EmptyPromotionSet):
            prolong_partial(bilinear(), set())
        with pytest.raises(DimensionMismatch):
            prolong_partial(bilinear(), {3})

    def test_duplicates_collapse(self):
        sys_ = bilinear()
        assert prolong_partial(sys_, [2, 2]).f == prolong_partial(sys_, {2}).f


def test_sample_point_avoids_zero():
    rng = random.Random(7)
    for _ in range(200):
        pt = sample_point([X(1), U(2, 1)], rng)
        for v in pt.values():
            assert v != 0 and -99 <= v <= 99
    assert set(pt) == {X(1), U(2, 1)}


def test_generic_rank():
    one = RatFn.const(1)
    assert generic_rank([[one, ZERO], [ZERO, one]]) == 2
    assert generic_rank([[x1, x1], [x2, x2]]) == 1
    assert generic_rank([[ZERO, ZERO]]) == 0
    # rank that only drops on a thin set must come out full
    assert generic_rank([[x1, x2], [x2, x1]]) == 2


def _sample_points_per_draw(exprs, seed=0, trials=5):
    """sample_points as it stood: every expression, constants included,
    evaluated at every draw."""
    exprs = list(exprs)
    vars_ = set().union(*(e.vars() for e in exprs))
    rng = random.Random(seed)
    got = 0
    for _ in range(20 * trials):
        pt = sample_point(vars_, rng)
        try:
            vals = [e.eval_pair(pt) for e in exprs]
        except DenominatorZero:
            continue
        yield pt, vals
        got += 1
        if got == trials:
            return
    raise DegenerateSystem("could not find %d valid sample points" % trials)


def _drawn(points):
    """Every (point, values) yielded, and whether DegenerateSystem ended
    the draws."""
    out = []
    try:
        for pt, vals in points:
            out.append((pt, vals))
    except DegenerateSystem:
        return out, True
    return out, False


def test_sample_points_matches_the_per_draw_loop(monkeypatch):
    # constants take their pair once, before the draws; the points, the
    # values, the skipped poles and DegenerateSystem are the loop's
    def linear_factors(skip):
        den = ONE
        for c in range(-99, 100):
            if c not in skip:
                den = den * (x1 - RatFn.const(c))
        return den

    consts = [ZERO, ONE, RatFn.const(-7), RatFn.const(Fraction(3, 4)),
              RatFn.const(Fraction(-22, 7))]
    polys = [x1 * x2 - u1, x3 * x3 * u2 + RatFn.const(Fraction(5, 3)) * x1]
    # poles: a pole wherever x1 is in 1..60; rare: finite only where x1
    # is in 1..5, so most draws of five points run out
    poles = (x2 + u1) / linear_factors(set(range(-99, 1)) |
                                       set(range(61, 100)))
    rare = x2 / linear_factors({0, 1, 2, 3, 4, 5})
    cases = [(consts, 3), (consts + polys, 5), (polys[:1] + consts, 1),
             (consts[:2] + [poles] + polys + consts[2:], 5),
             (consts + [rare] + polys, 5), ([rare] + consts, 1)]
    skipped = raised_after_some = 0
    for exprs, trials in cases:
        monkeypatch.setattr(jets, "TRIALS", trials)
        vars_ = set().union(*(e.vars() for e in exprs))
        for seed in range(6):
            want = _drawn(_sample_points_per_draw(exprs, seed, trials))
            assert _drawn(sample_points(exprs, seed)) == want
            rng = random.Random(seed)
            first = [sample_point(vars_, rng) for _ in want[0]]
            skipped += [pt for pt, _ in want[0]] != first
            raised_after_some += want[1] and bool(want[0])
    assert skipped > 10 and raised_after_some > 2
