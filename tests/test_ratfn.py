import hashlib
import operator
import random
import time
from fractions import Fraction
from math import gcd, inf, isqrt, lcm, nan

import pytest

from jetfactor import (BlockMatrix, RatFn, T, U, X, ONE, ZERO,
                       builtin_fixtures, factor_JK0, parse_expression,
                       pullback_matrix, serialize, var_name, verify_pair)
from jetfactor._suites import _POOL, _rand_poly, _rand_ratfn
from jetfactor import crosscheck, poly, ratfn
from jetfactor.poly import (mono_div, mono_mul, p_add, p_const, p_divexact,
                            p_lead, p_mul, p_neg, p_pow, p_scale, poly_gcd)
from jetfactor.ratfn import cleared, gauss_jordan, int_echelon
from jetfactor.errors import DenominatorZero, DivisionByZero, SubstitutionPole
from test_crosscheck import compile_float, mono, pairs
from test_equivalence import full_inverse

x1 = RatFn.var(X(1))
x2 = RatFn.var(X(2))
x3 = RatFn.var(X(3))
u1 = RatFn.var(U(1))
u2 = RatFn.var(U(2))
du2 = RatFn.var(U(2, 1))


def mono_key(m):
    """The graded-lex key of a monomial given as ascending (variable,
    exponent) pairs: total degree first, then the reversed pair list, which
    compares the exponents of the largest variables first.  The reference
    for the order of the kernel's own monomials."""
    return (sum(e for _, e in m), tuple(reversed(m)))


def p_diff(a, v):
    r = {}
    for m, c in a.items():
        ps = pairs(m)
        for i, (w, e) in enumerate(ps):
            if w == v:
                lower = ((w, e - 1),) if e > 1 else ()
                nm = mono(*ps[:i], *lower, *ps[i + 1:])
                s = r.get(nm, 0) + c * e
                if s:
                    r[nm] = s
                elif nm in r:
                    del r[nm]
                break
    return r


def _derive_by_partials(p, images):
    """The reference for ratfn._p_derive: the sum over v of
    images[v] * dp/dv, one p_diff scan of p per variable."""
    out = {}
    for v, img in images.items():
        out = p_add(out, p_mul(img, p_diff(p, v)))
    return out


def test_variable_tags_order():
    # t sorts before states, states before controls
    assert T < X(1) < U(1)
    assert U(1) < U(1, 1)
    assert var_name(T) == "t"
    assert var_name(X(12)) == "x12"
    assert var_name(U(2, 1)) == "u2'"
    assert var_name(U(1, 3)) == "u1'''"


# ---------------------------------------------------------------------------
# monomials: flat tuples that are their own graded-lex key

# every variable the kernel can be handed: t, 32 states, 32 controls at
# jet orders 0 to 100
_ORDER_VARS = ([T] + [X(i) for i in range(1, 33)]
               + [U(j, k) for j in range(1, 33) for k in range(101)])


def _order_pairs(rng, pool):
    """Ascending (variable, exponent) pairs of a seeded monomial, either
    fresh, with exponents up to 800, or a neighbour of one in pool: one
    exponent moved to another variable (same degree), one variable
    swapped for a nearby one, or the smallest variable dropped."""
    kind = rng.choice(["fresh", "fresh", "moved", "swapped", "dropped"])
    if kind == "fresh" or not pool or not rng.choice(pool):
        vs = rng.sample(_ORDER_VARS, rng.randint(0, 6))
        return tuple(sorted((v, rng.randint(1, 800)) for v in vs)), kind
    ps = dict(rng.choice([p for p in pool if p]))
    if kind == "dropped":
        del ps[min(ps)]
    elif kind == "swapped":
        v = rng.choice(list(ps))
        i = _ORDER_VARS.index(v) + rng.choice([-1, 1])
        if 0 <= i < len(_ORDER_VARS) and _ORDER_VARS[i] not in ps:
            ps[_ORDER_VARS[i]] = ps.pop(v)
    else:
        v = rng.choice(list(ps))
        w = rng.choice(_ORDER_VARS)
        k = rng.randint(1, ps[v])
        ps[v] -= k
        ps[w] = ps.get(w, 0) + k
        if not ps[v]:
            del ps[v]
    return tuple(sorted(ps.items())), kind


def test_plain_order_is_graded_lex():
    rng = random.Random(20261020)
    pool, seen = [], {}
    for _ in range(300):
        ps, kind = _order_pairs(rng, pool)
        pool.append(ps)
        seen[kind] = seen.get(kind, 0) + 1
    monos = [mono(*ps) for ps in pool]
    for ps, m in zip(pool, monos):
        assert pairs(m) == ps and mono(*pairs(m)) == m
        assert m == () if not ps else m[0] == sum(e for _, e in ps)
    ties = 0
    for p, a in zip(pool, monos):
        for q, b in zip(pool, monos):
            assert (a < b) == (mono_key(p) < mono_key(q)), (p, q)
            assert (a == b) == (p == q)
            ties += a != b and a[:1] == b[:1]
    assert ties > 1000 and min(seen.values()) > 30, (ties, seen)
    by_key = sorted(pool, key=mono_key, reverse=True)
    assert [pairs(m) for m in sorted(monos, reverse=True)] == by_key
    assert max(monos) == mono(*by_key[0])


def _pair_product(p, q):
    d = dict(p)
    for v, e in q:
        d[v] = d.get(v, 0) + e
    return mono(*d.items())


def _pair_quotient(p, q):
    d = dict(p)
    for v, e in q:
        if d.get(v, 0) < e:
            return None
        d[v] -= e
    return mono(*((v, e) for v, e in d.items() if e))


def test_monomial_product_and_quotient_are_the_pair_forms():
    rng = random.Random(20261021)
    pool, seen = [], {"one variable": 0, "divides": 0, "unit": 0}
    for _ in range(400):
        pool.append(_order_pairs(rng, pool)[0])
    for _ in range(3000):
        p, q = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.3:
            q = rng.sample(p, rng.randint(0, len(p)))
        a, b = mono(*p), mono(*q)
        assert mono_mul(a, b) == _pair_product(p, q) == mono_mul(b, a)
        assert mono_div(a, b) == _pair_quotient(p, q), (p, q)
        assert mono_div(mono_mul(a, b), b) == a
        seen["one variable"] += len(q) == 1
        seen["divides"] += _pair_quotient(p, q) not in (None, ())
        seen["unit"] += _pair_quotient(p, q) == ()
    assert min(seen.values()) > 100, seen


def test_float_lines_multiply_factors_in_ascending_order():
    term = 3 * RatFn.var(T)**2 * x1 * du2**3
    lines = crosscheck.float_lines([term], {T: "a", X(1): "b", U(2, 1): "c"},
                                   ["r0"], {}, {})
    assert lines == ["    r0 = 0.0 + 3.0 * (q0 := a ** 2) * b * (q1 := c ** 3)"]


# SHA-256 of serialize(verify_pair(phi, phi_inv, 16)) and of
# serialize(pullback_matrix(theta, 16)), recorded with monomials as
# tuples of (variable, exponent) pairs
_DEEP_SHA = {
    "verify phi 16":
        "d0797e91a59b7b954f408240013e18e56e23d3501cbe4d7294592a42fae102a2",
    "pullback theta 16":
        "49c799546049531cf249c1d3801446fef3070332272e1fbe4148d9e94fdc75c7",
}


def test_deep_results_are_frozen():
    (phi, phi_inv), _, (theta, _) = builtin_fixtures()[:3]
    got = {"verify phi 16": verify_pair(phi, phi_inv, 16),
           "pullback theta 16": pullback_matrix(theta, 16)}
    assert {k: hashlib.sha256(serialize(v).encode()).hexdigest()
            for k, v in got.items()} == _DEEP_SHA


def test_powers_of_one_term_are_not_expanded(monkeypatch):
    # p_pow and the substitution scale a single term's exponents: no lower
    # powers are built.  Expanding one would fail here at once, before it
    # could allocate millions of them.  _powers is patched in every module
    # whose code calls it
    powers = poly._powers

    def guarded(a, k):
        assert len(a) > 1 or k < 1000, "a power of one term was expanded"
        return powers(a, k)

    for mod in (poly, ratfn):
        monkeypatch.setattr(mod, "_powers", guarded)
    start = time.perf_counter()
    big = parse_expression("x1^10000000")
    inverse = parse_expression("(2*x1*u1)^-1000000")
    assert parse_expression("x1^100000").substitute(
        {X(1): 2 * u1}) == (2 * u1)**100000
    assert parse_expression("x1^100000 + 3").substitute({X(1): ZERO}) == 3
    # one-term denominators Q: only the powers Q^(e - f) the terms use
    over = parse_expression("x1^100000 + x1^3*u2").substitute(
        {X(1): u1 / (3 * x2)})
    assert over == (u1 / (3 * x2))**100000 + (u1 / (3 * x2))**3 * u2
    assert time.perf_counter() - start < 1
    assert (big._n, big._k, big._d) == ({mono((X(1), 10**7)): 1}, 1, {(): 1})
    assert (inverse._n, inverse._k, inverse._d) == (
        {(): 1}, 2**1000000, {mono((X(1), 10**6), (U(1), 10**6)): 1})
    assert (2 * x1 * u1)**-3 == 1 / ((2 * x1 * u1) * (2 * x1 * u1)
                                     * (2 * x1 * u1))
    rng = random.Random(20261022)
    for _ in range(60):
        a = _jet_poly(rng, rng.randint(1, 4)) or {(): 3}
        for n in range(5):
            want = poly._powers(a, n)[-1]
            assert list(p_pow(a, n).items()) == list(want.items()), (a, n)


def test_vars_is_made_once_and_shared():
    e = x1 * du2 / (x3 - 1)
    first = e.vars()
    assert first == {X(1), U(2, 1), X(3)} and e.vars() is first
    assert list(first) == list(poly.p_vars(e._n) | poly.p_vars(e._d))
    assert ZERO.vars() == set() and ONE.vars() is ONE.vars()


def test_construction_and_equality():
    a = (x1 + x2) * (x1 - x2)
    b = x1 * x1 - x2 * x2
    assert a == b
    assert hash(a) == hash(b)
    assert a != x1


def test_cancellation_is_automatic():
    q = (x1 * x1 - ONE) / (x1 + 1)
    assert q == x1 - 1
    assert q.is_poly()
    assert (x1 / x1) == ONE
    assert ((x1 * u2) / u2) == x1


def test_sign_normalization():
    # the denominator never carries the sign
    a = x1 / (ZERO - u2)
    b = (ZERO - x1) / u2
    assert a == b
    assert a.to_text() == "(-x1)/(u2)"


def test_zero_and_one():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert (x1 - x1).is_zero()
    assert (x1 * ZERO).is_zero()
    assert x1 + ZERO == x1
    assert x1 * ONE == x1


def test_constants():
    c = RatFn.const(Fraction(7, 3))
    assert c.is_const()
    assert c.const_value() == Fraction(7, 3)
    assert c.to_text() == "(7/3)"
    assert not x1.is_const()
    # mixed int arithmetic works on either side
    assert (3 * x1).to_text() == "3*x1"
    assert (3 - x1).to_text() == "-x1 + 3"
    assert x1 / 2 == RatFn.const(Fraction(1, 2)) * x1


def test_powers():
    assert x1 ** 0 == ONE
    assert x1 ** 3 == x1 * x1 * x1
    assert x1 ** -1 == ONE / x1
    assert (x1 / u2) ** 2 == (x1 * x1) / (u2 * u2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        x1 / ZERO
    with pytest.raises(DivisionByZero):
        x1 / (x2 - x2)


def test_diff_basics():
    assert x1.diff(X(1)) == ONE
    assert x1.diff(X(2)) == ZERO
    assert (x1 * x2).diff(X(1)) == x2
    assert (x1 ** 2).diff(X(1)) == 2 * x1


def test_diff_quotient_rule():
    q = x1 / u2
    assert q.diff(X(1)) == ONE / u2
    assert q.diff(U(2)) == ZERO - x1 / (u2 * u2)
    # d/du2 (1/u2^2) = -2/u2^3
    assert (ONE / u2 ** 2).diff(U(2)) == -2 / u2 ** 3


def test_substitute_partial():
    e = x1 * u2 + x2
    got = e.substitute({X(1): u1 + 1})
    assert got == (u1 + 1) * u2 + x2
    # unmentioned variables survive untouched
    assert got.substitute({}) == got


def test_substitute_rational_target():
    e = x1 ** 2
    assert e.substitute({X(1): ONE / u2}) == ONE / u2 ** 2


def test_eval_at_exact():
    e = (x1 + x2) / u2
    v = e.eval_at({X(1): Fraction(1, 2), X(2): Fraction(1, 2), U(2): 4})
    assert v == Fraction(1, 4)
    assert isinstance(v, Fraction)


def test_eval_at_requires_every_variable():
    with pytest.raises(KeyError):
        (x1 + x2).eval_at({X(1): 1})


def test_eval_at_pole():
    with pytest.raises(DenominatorZero):
        (x1 / u2).eval_at({X(1): 1, U(2): 0})


def eval_float(r, point):
    """Float evaluation of one RatFn through compile_float; raises
    DenominatorZero at a pole."""
    args = sorted(r.vars())
    return compile_float([r], args)(*[point[v] for v in args])[0]


def test_eval_float():
    e = x1 / u2
    assert abs(eval_float(e, {X(1): 1.0, U(2): 4.0}) - 0.25) < 1e-12
    with pytest.raises(DenominatorZero):
        eval_float(e, {X(1): 1.0, U(2): 0.0})


def _term_by_term_float(r, point):
    """Float evaluation as it was before compile_float, the loop that the
    generated functions must match bit for bit."""
    def ev(a):
        out = 0.0
        for m, c in a.items():
            term = float(c)
            for v, e in pairs(m):
                term *= point[v] ** e
            out += term
        return out

    nv = ev(r.num)
    dv = ev(r.den)
    if dv == 0.0:
        raise DenominatorZero("denominator vanishes at the sample point")
    return nv / dv


def _float_poly(rng):
    p = {}
    for _ in range(rng.randint(1, 4)):
        vs = rng.sample(_JET_VARS, rng.randint(0, 3))
        m = mono(*((v, rng.randint(1, 7)) for v in vs))
        c = rng.choice([rng.randint(-40, 40),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 9))])
        p = p_add(p, {m: c})
    return p


def _outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (DenominatorZero, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _compiled_is_the_loop(exprs, point):
    """compile_float's values at point, or the first exception it raises,
    are the term-by-term loop's; returns the loop's outcome per expression.
    The same holds with inf, -inf or nan at one variable of point, drawn
    from a generator seeded by point: the generated code reads x ** 1 as
    x, and float pow returns those values unchanged, without raising."""
    f = compile_float(exprs, _JET_VARS)
    assert all(type(k) in (int, float) or k is None
               for k in f.__code__.co_consts)

    def check(pt):
        want = [_outcome(_term_by_term_float, r, pt) for r in exprs]
        raised = [w for w in want if isinstance(w, tuple)]
        assert _outcome(f, *[pt[v] for v in _JET_VARS]) == (
            raised[0] if raised else "[%s]" % ", ".join(want))
        return want

    rng = random.Random(repr(sorted(point.items())))
    for special in (inf, -inf, nan):
        check({**point, rng.choice(_JET_VARS): special})
    return check(point)


def test_compile_float_is_the_term_by_term_loop():
    rng = random.Random(20261018)
    for _ in range(300):
        exprs = []
        while len(exprs) < 3:
            num, den = _float_poly(rng), _float_poly(rng)
            if den:
                exprs.append(RatFn(num, den))
        point = {v: rng.choice([rng.uniform(-3, 3), float(rng.randint(-2, 2))])
                 for v in _JET_VARS}
        want = _compiled_is_the_loop(exprs, point)
        assert [_outcome(eval_float, r, point) for r in exprs] == want


def test_compile_float_leaves_out_only_exact_steps():
    # polynomials with coefficient-1 terms, at points that include -0.0:
    # the sum must still start from 0.0, as 0.0 + -0.0 is +0.0
    rng = random.Random(20261020)
    for _ in range(300):
        exprs = []
        for _ in range(3):
            vs = rng.sample(_JET_VARS, rng.randint(1, 2))
            m = mono(*((v, rng.randint(1, 3)) for v in vs))
            exprs.append(RatFn(p_add(_float_poly(rng), {m: 1})))
        point = {v: rng.choice([rng.uniform(-3, 3), -0.0, 0.0, 1.0])
                 for v in _JET_VARS}
        _compiled_is_the_loop(exprs, point)
    names = {X(1): "a", X(2): "b"}
    lines = crosscheck.float_lines([x1 * x2 + 3, x1 / x2], names,
                                   ["r0", "r1"], {}, {})
    assert lines == ["    r0 = 0.0 + a * b + 3.0",
                     "    n = 0.0 + a", "    d = 0.0 + b",
                     "    if d == 0.0:", "        raise DenominatorZero(POLE)",
                     "    r1 = n / d"]


def _shared_power_poly(rng, powers):
    """A polynomial whose monomials are drawn from powers, a few (var, e)
    pairs, so the same power repeats across terms and expressions."""
    p = {}
    for _ in range(rng.randint(1, 5)):
        m = dict(rng.sample(powers, rng.randint(0, 3)))
        c = rng.choice([rng.randint(-40, 40),
                        Fraction(rng.randint(-40, 40), rng.randint(1, 9))])
        p = p_add(p, {mono(*m.items()): c})
    return p


def test_compile_float_computes_each_power_once():
    rng = random.Random(20261019)
    raised = 0
    for _ in range(400):
        # x ** 8 overflows for |x| > 1.2e38, in whichever term reaches it
        powers = [(v, rng.choice([1, 2, 3, 8]))
                  for v in rng.sample(_JET_VARS, 4)]
        powers += [(powers[0][0], rng.choice([2, 8]))]
        exprs = []
        while len(exprs) < 3:
            num = _shared_power_poly(rng, powers)
            den = _shared_power_poly(rng, powers)
            if den:
                exprs.append(RatFn(num, den))
        point = {v: rng.choice([rng.uniform(-3, 3), float(rng.randint(-2, 2)),
                                rng.uniform(-1e40, 1e40)])
                 for v in _JET_VARS}
        want = _compiled_is_the_loop(exprs, point)
        raised += any(isinstance(w, tuple) for w in want)
    assert 40 < raised < 360  # both outcomes are well covered


def test_compile_float_overflow_in_a_later_term():
    # x1 ** 2 is computed in the first term and reused; x2 ** 700 overflows
    # in the second expression's last term, after a pole check passed
    a = RatFn({mono((X(1), 2)): 3, mono((X(2), 1)): 1},
              {mono((X(1), 2)): 1, (): 1})
    b = RatFn({mono((X(1), 2), (X(2), 1)): 2, mono((X(1), 1)): 1,
               mono((X(2), 700)): Fraction(1, 3)})
    for x2, raised in ((2.0, False), (3.0, True)):
        point = dict.fromkeys(_JET_VARS, 0.5)
        point.update({X(1): 1.5, X(2): x2})
        want = _compiled_is_the_loop([a, b], point)
        assert isinstance(want[1], tuple) == raised


def test_compile_float_error_paths():
    pole = x1 / (x2 - 1)
    with pytest.raises(DenominatorZero,
                       match="denominator vanishes at the sample point"):
        compile_float([pole], [X(1), X(2)])(3.0, 1.0)
    # an oversized coefficient fails when it is reached, not at compile time
    for big in (10 ** 400, Fraction(10 ** 400, 3)):
        huge = RatFn({mono((X(1), 1)): big})
        with pytest.raises(OverflowError) as want:
            _term_by_term_float(huge, {X(1): 2.0})
        f = compile_float([pole, huge], [X(1), X(2)])
        with pytest.raises(DenominatorZero):
            f(2.0, 1.0)
        with pytest.raises(OverflowError) as got:
            f(2.0, 3.0)
        assert str(got.value) == str(want.value)


def test_vars_and_jet_order():
    e = x1 * du2 - x3
    assert e.vars() == {X(1), U(2, 1), X(3)}
    assert e.max_jet_order() == 1
    assert x1.max_jet_order() == -1  # no control derivatives at all
    assert u2.max_jet_order() == 0
    assert ZERO.max_jet_order() == -1


def test_to_text_shapes():
    assert (x1 * x2 - x3).to_text() == "x1*x2 - x3"
    assert du2.to_text() == "u2'"
    assert ((1 - x1 * u2) / u2).to_text() == "(-x1*u2 + 1)/(u2)"
    assert (x1 ** 2).to_text() == "x1^2"
    assert (x1 / 2).to_text() == "(1/2)*x1"
    # unary minus applies to the whole monomial, including its power
    assert (ZERO - x1 ** 2).to_text() == "-x1^2"
    assert ZERO.to_text() == "0"
    assert ONE.to_text() == "1"


def test_repr_is_text():
    assert "x1" in repr(x1)


# ---------------------------------------------------------------------------
# one-term denominators: the monomial fast path in _canon must give the
# same (num, den) pair as the general gcd path, term order included

_JET_VARS = [T, X(1), X(2), X(3), U(1), U(2), U(1, 1), U(2, 1), U(2, 2)]


def _random_coeff(rng):
    c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return c or Fraction(1)


def _random_mono(rng, max_vars=3):
    vs = rng.sample(_JET_VARS, rng.randint(0, max_vars))
    return mono(*((v, rng.randint(1, 3)) for v in vs))


def _general_canon(num, den):
    """poly_gcd + p_divexact + normalization, as for any denominator."""
    g = poly_gcd(num, den)
    if g != p_const(1):
        num, den = p_divexact(num, g), p_divexact(den, g)
    l = lcm(*(c.denominator for c in den.values()))
    k = gcd(*(c.numerator * (l // c.denominator) for c in den.values()))
    scale = Fraction(l, k) if p_lead(den)[1] > 0 else Fraction(-l, k)
    return p_scale(num, scale), p_scale(den, scale)


def test_monomial_denominator_matches_general_gcd():
    rng = random.Random(20111106)
    cancelled = 0
    for _ in range(400):
        common = _random_mono(rng)
        num = {}
        for _ in range(rng.randint(1, 5)):
            num = p_add(num, {_random_mono(rng): _random_coeff(rng)})
        if not num:
            continue
        num = p_mul(num, {common: Fraction(1)})
        den_mono = () if rng.random() < 0.2 else mono_mul(common,
                                                           _random_mono(rng, 2))
        den = {den_mono: _random_coeff(rng)}
        got = RatFn(num, den)
        want_num, want_den = _general_canon(num, den)
        assert list(got.num.items()) == list(want_num.items()), (num, den)
        assert list(got.den.items()) == list(want_den.items()), (num, den)
        cancelled += next(iter(got.den)) != den_mono
    # most cases must actually cancel a monomial
    assert cancelled > 200, cancelled


# ---------------------------------------------------------------------------
# general gcd: GCDHEU must give what the primitive PRS gives, dict for dict

t = RatFn.var(T)


def _prs_gcd(a, b):
    return poly._gcd_prim(poly._int_clear(a), poly._int_clear(b))


def _random_poly(rng, terms):
    p = {}
    for _ in range(terms):
        p = p_add(p, {_random_mono(rng, 2): _random_coeff(rng)})
    return p


def test_heuristic_gcd_matches_prs():
    rng = random.Random(19891001)
    kinds = {"coprime": 0, "proper": 0}
    for _ in range(240):
        common = _random_poly(rng, rng.randint(1, 2))
        a = _random_poly(rng, rng.randint(1, 3))
        b = _random_poly(rng, rng.randint(1, 3))
        if not (common and a and b):
            continue
        a, b = p_mul(common, a), p_mul(common, b)
        got = poly_gcd(a, b)
        assert got == _prs_gcd(a, b), (a, b)
        kinds["coprime" if got == p_const(1) else "proper"] += 1
    assert min(kinds.values()) > 40, kinds


def test_gcd_keeps_the_integer_content_of_images():
    # evaluating u1 at xi leaves images t*(xi+1)*(1-2t^2) and t*(xi+1),
    # whose gcd keeps the integer factor xi+1 that rebuilds u1 + 1
    a = -2 * t**3 * u1 - 2 * t**3 + t * u1 + t
    b = t * u1 + t
    assert poly_gcd(a.num, b.num) == b.num == _prs_gcd(a.num, b.num)
    assert a / b == 1 - 2 * t**2


def test_gcd_of_huge_coefficients_grows_xi_in_ints(monkeypatch):
    # constant terms past 2^1100, where a float square root overflows.  The
    # first xi is 2s + 29, where gcd(a(xi), b(xi)) = 3s + 29 rebuilds
    # x1 + s, which does not divide b, so xi must grow
    s = 2**1100 + 7
    a = {mono((X(1), 1)): 1, (): s}
    b = {mono((X(1), 1)): 1, (): 5 * (3 * s + 29) - (2 * s + 29)}
    roots = []
    monkeypatch.setattr(poly, "isqrt",
                        lambda n: roots.append(n) or isqrt(n))
    assert poly_gcd(a, b) == p_const(1) == _prs_gcd(a, b)
    assert roots and roots[0] > 2**1100
    common = (u2 - 2**1101 - 3).num
    assert poly_gcd(p_mul(common, a), p_mul(common, b)) == common


def test_heuristic_gives_up_on_oversized_images():
    # degree 40 in each of three variables: the x1-level xi would have
    # about 8,400 bits, so its images would pass 2^17 bits; the PRS answers
    common = (x3 - x1).num
    a = p_mul(((x1 * x2 * x3)**40 + x1 + 1).num, common)
    b = p_mul(((x1 * x2 * x3)**40 + x2).num, common)
    assert poly._heu_gcd(a, b) is None
    assert poly_gcd(a, b) == common == _prs_gcd(a, b)


def test_prs_fallback_when_the_heuristic_gives_up(monkeypatch):
    a, b = (x1 * u1 - 3) * (u2 + 2 * x1), (x1 * u1 - 3) * (x1 - t)
    want = poly_gcd(a.num, b.num)
    quotient = RatFn(a.num, b.num)
    fallbacks = []
    monkeypatch.setattr(poly, "_heu_gcd", lambda f, g: None)
    prs = poly._gcd_prim
    monkeypatch.setattr(poly, "_gcd_prim",
                        lambda f, g: fallbacks.append(1) or prs(f, g))
    assert poly_gcd(a.num, b.num) == want == (x1 * u1 - 3).num
    got = RatFn(a.num, b.num)
    assert (got.num, got.den) == (quotient.num, quotient.den)
    assert list(got.num) == list(quotient.num)
    assert fallbacks


def test_gcd_with_zero_is_the_primitive_part_with_positive_lead():
    want = (x1 + 2).num
    for a in ((-x1 - 2).num, (RatFn.const(Fraction(-2, 3)) * x1
                              - RatFn.const(Fraction(4, 3))).num):
        assert poly_gcd({}, a) == want
        assert poly_gcd(a, {}) == want
    assert poly_gcd({}, {}) == {}


# ---------------------------------------------------------------------------
# fast paths in the operators: each result must be the canonical pair the
# general formula gives (n1*d2 + n2*d1 over d1*d2 and so on, through _canon)

def _general_op(op, a, b):
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    if op == "+":
        return RatFn(p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))
    if op == "-":
        return RatFn(p_add(p_mul(n1, d2), p_neg(p_mul(n2, d1))),
                     p_mul(d1, d2))
    if op == "*":
        return RatFn(p_mul(n1, n2), p_mul(d1, d2))
    return RatFn(p_mul(n1, d2), p_mul(d1, n2))


def _term_by_term_subst(a, binding):
    """The substitution as a sum of RatFn terms, each canonicalized."""
    out = ZERO
    for m, c in a.items():
        term = RatFn.const(c)
        for v, e in pairs(m):
            term = term * binding.get(v, RatFn.var(v)) ** e
        out = out + term
    return out


_FAST_VARS = [X(1), X(2), U(1)]


def _fast_poly(rng, terms):
    p = {}
    for _ in range(terms):
        vs = rng.sample(_FAST_VARS, rng.randint(0, 2))
        m = mono(*((v, rng.randint(1, 2)) for v in vs))
        p = p_add(p, {m: _random_coeff(rng)})
    return p


def _fast_mono(rng):
    vs = rng.sample(_FAST_VARS, rng.randint(1, 2))
    return mono(*((v, rng.randint(1, 2)) for v in vs))


def _operand(rng, kind, den=None):
    """A seeded RatFn of the given kind; `den` fixes a general denominator."""
    if kind == "zero":
        return ZERO
    if kind == "int":
        return RatFn.const(rng.choice([-3, -1, 1, 2, 5]))
    if kind == "fraction":
        return RatFn.const(Fraction(rng.choice([-3, 1, 5]), rng.choice([2, 7])))
    num = _fast_poly(rng, rng.randint(1, 3)) or p_const(1)
    if kind == "poly":
        return RatFn(num)
    if kind == "monomial":
        return RatFn(num, {_fast_mono(rng): _random_coeff(rng)})
    while den is None or len(den) < 2:
        den = _fast_poly(rng, 2)
    return RatFn(num, den)


_KINDS = ["zero", "int", "fraction", "poly", "monomial", "general"]


def _operand_pairs(rng):
    for _ in range(40):
        for ka in _KINDS:
            for kb in _KINDS:
                yield _operand(rng, ka), _operand(rng, kb)
        den = _fast_poly(rng, 2)
        if len(den) == 2:
            a, b = _operand(rng, "general", den), _operand(rng, "general", den)
            yield a, b
            yield a, -a
        # one-term denominators whose sum cancels a shared factor:
        # (1/p + 1/q) + (1/r - 1/q) is 1/p + 1/r
        p, q, r = (RatFn(p_const(1), {_fast_mono(rng): 1}) for _ in range(3))
        yield p + q, r - q
    yield x1 / (x1**2 - 1), 1 / (x1**2 - 1)
    yield (x1 + x2) / (x1 * x2), (x1 - u1) / (x1 * u1)


def _sum_order_may_differ(a, b):
    """Whether a + b may hold its terms in another order than the general
    path.  The sums over an equal denominator other than 1 and over the lcm
    of two one-term denominators skip its monomial cancellation, which
    sorts the numerator; every other fast path keeps its term order."""
    if a.is_zero() or b.is_zero() or a.is_poly() and b.is_poly():
        return False
    return a.den == b.den or len(a.den) == len(b.den) == 1


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def test_fast_paths_match_the_general_formula():
    rng = random.Random(20260901)
    kinds = {"equal general den": 0, "lcm of monomials": 0, "scalar": 0}
    for a, b in _operand_pairs(rng):
        for op in "+-*/" if not b.is_zero() else "+-*":
            got = _OPS[op](a, b)
            want = _general_op(op, a, b)
            assert (got.num, got.den) == (want.num, want.den), (a, op, b)
            if op in "*/" or not _sum_order_may_differ(a, b):
                assert list(got.num.items()) == list(want.num.items())
                assert list(got.den.items()) == list(want.den.items())
        for k in range(4):
            want = RatFn(p_pow(a.num, k), p_pow(a.den, k))
            assert list((a**k).num.items()) == list(want.num.items())
            assert (a**k).den == want.den
        kinds["equal general den"] += len(a.den) > 1 and a.den == b.den
        kinds["lcm of monomials"] += (len(a.den) == len(b.den) == 1
                                      and a.den != b.den)
        kinds["scalar"] += ratfn._scalar(b) is not None
    assert min(kinds.values()) > 60, kinds
    assert x1 / (x1**2 - 1) + 1 / (x1**2 - 1) == 1 / (x1 - 1)
    assert (x1 + x2) / (x1 * x2) + (x1 - u1) / (x1 * u1) == 1 / x2 + 1 / u1
    # plain ints and Fractions on either side
    a = _operand(rng, "general")
    for c in (3, Fraction(-2, 7)):
        assert a + c == _general_op("+", a, RatFn.const(c)) == c + a
        assert c - a == _general_op("-", RatFn.const(c), a)
        assert a * c == _general_op("*", a, RatFn.const(c)) == c * a
        assert a / c == _general_op("/", a, RatFn.const(c))
        assert c / a == _general_op("/", RatFn.const(c), a)


def test_fast_paths_in_diff_and_substitute():
    rng = random.Random(20260902)
    for _ in range(120):
        a = _operand(rng, rng.choice(["poly", "monomial", "general"]))
        for v in _FAST_VARS:
            n, d = a.num, a.den
            want = RatFn(p_add(p_mul(p_diff(n, v), d),
                               p_neg(p_mul(n, p_diff(d, v)))),
                         p_mul(d, d))
            assert a.diff(v) == want, (a, v)
        binding = {v: _operand(rng, rng.choice(["int", "poly", "monomial",
                                                 "general"]))
                   for v in rng.sample(_FAST_VARS, rng.randint(1, 3))}
        for part in (a._n, a._d):
            got = ratfn._p_subst(part, binding)
            assert got == _term_by_term_subst(part, binding), (part, binding)


def test_derivation_is_the_sum_of_image_times_partial():
    # (1 + x2) divides two denominators, so their lcm is not their product
    shared = [x2 / ((1 + x2) * (x1 - u1)), u1 / ((1 + x2) * (x1 + 3))]
    scaled = Fraction(2, 3) * x1 / (1 + x1**2)
    pool = shared + [scaled, ZERO, None, Fraction(1, 2) * x1 * u1 - x2,
                     RatFn.var(U(1, 1))]
    rng = random.Random(20261020)
    seen = {"shared": 0, "scaled": 0, "zero": 0, "no image": 0, "rational": 0}
    for _ in range(120):
        r = _operand(rng, rng.choice(["poly", "monomial", "general"]))
        picks = {v: rng.choice(pool) for v in _FAST_VARS}
        images = {v: img for v, img in picks.items() if img is not None}
        want = ZERO
        for v, img in images.items():
            want = want + img * r.diff(v)
        got = ratfn.derivation(r, images)
        assert (got._n, got._k, got._d) == (want._n, want._k, want._d), (
            r, images)
        values = list(picks.values())
        seen["shared"] += all(img in values for img in shared)
        seen["scaled"] += scaled in values
        seen["zero"] += ZERO in values
        seen["no image"] += None in values
        seen["rational"] += not r.is_poly()
    assert min(seen.values()) > 8, seen


_JET_VARS = [T, X(1), X(2), X(3), U(1), U(2), U(1, 1), U(2, 1), U(1, 2)]


def _jet_poly(rng, terms, size=4):
    """A seeded int polynomial of up to `terms` terms, each over up to
    `size` of _JET_VARS with exponents from 1 to 3."""
    p = {}
    for _ in range(terms):
        vs = rng.sample(_JET_VARS, rng.randint(0, size))
        m = mono(*((v, rng.randint(1, 3)) for v in vs))
        p = p_add(p, {m: rng.choice([-4, -1, 1, 2, 3, 7])})
    return p


# SHA-256 of _p_derive's terms, in their order, on the inputs below,
# recorded with monomials as tuples of (variable, exponent) pairs: the
# term order reaches stored numerators and so the float residuals
_DERIVE_ORDER_SHA = (
    "501938c54b071afd6e2b8feb5d1c97537b74f92a089ae2d0cd9fc8b2b41b62f3")


def test_one_pass_derive_matches_one_partial_per_variable():
    rng = random.Random(20261024)
    seen = {"cube": 0, "multi-term image": 0, "unit image": 0, "no image": 0}
    order = hashlib.sha256()
    for _ in range(300):
        p = _jet_poly(rng, rng.randint(1, 8))
        images = {}
        for v in _JET_VARS:
            kind = rng.choice(["none", "unit", "term", "poly"])
            if kind != "none":
                images[v] = ({(): 1} if kind == "unit" else
                             _jet_poly(rng, 1 if kind == "term" else 4, 2)
                             or {(): -2})
        got = ratfn._p_derive(p, images)
        assert got == _derive_by_partials(p, images), (p, images)
        order.update(repr([(pairs(m), c) for m, c in got.items()]).encode()
                     + b"\n")
        seen["cube"] += any(e == 3 for m in p for _, e in pairs(m))
        seen["multi-term image"] += any(len(i) > 1 for i in images.values())
        seen["unit image"] += {(): 1} in images.values()
        seen["no image"] += len(images) < len(_JET_VARS)
    # under the rotation x1 -> x2, x2 -> -x1, x1^2 + x2^2 is a constant
    # and the two partials' terms cancel
    circle = {mono((X(1), 2)): 1, mono((X(2), 2)): 1, mono((U(1), 3)): 5}
    rotation = {X(1): {mono((X(2), 1)): 1}, X(2): {mono((X(1), 1)): -1}}
    assert ratfn._p_derive(circle, rotation) == {}
    assert min(seen.values()) > 200, seen
    assert order.hexdigest() == _DERIVE_ORDER_SHA


def test_arithmetic_skips_canonicalization(monkeypatch):
    phi = builtin_fixtures()[0][0]
    calls = []
    real = ratfn._canon
    monkeypatch.setattr(ratfn, "_canon", lambda num, den:
                        calls.append((num, den)) or real(num, den))
    # phi's pullback and factorization took 2,423 canonicalizations with
    # the general formula in every operator, and take 131 with the fast
    # paths; without the lcm sum they take 145, and without the scalar,
    # polynomial-product or derivative path 175 to 196
    factor_JK0(pullback_matrix(phi, N=4))
    assert 0 < len(calls) <= 140, len(calls)
    # paths that phi's run cannot tell apart: none canonicalizes, except
    # the sum over an equal denominator, which does so once, over d
    a, b = (x1 + 1) / (x1 - u1), (u1 - 2) / (x1 - u1)
    p, q, r, s = x1 + u1, x1 * u1**2, 1 / x1, 1 / u1
    for op in (lambda: ZERO + a, lambda: a - ZERO, lambda: a**2,
               lambda: a**0, lambda: 3 * a, lambda: a / 3, lambda: p * q,
               lambda: q.diff(U(1)), lambda: r + s):
        del calls[:]
        op()
        assert calls == []
    want = (x1 + u1 - 1) / (x1 - u1)
    del calls[:]
    assert a + b == want
    assert [den for _, den in calls] == [a.den]


# ---------------------------------------------------------------------------
# gcds of the factors (Henrici): operands are products of planted factors
# of more than one term, so the gcds the operators take are not 1.  Each
# result must be the stored triple that one gcd of the whole numerator and
# denominator gives, term order included.

def _factor(rng, variables=_FAST_VARS):
    """A seeded int polynomial of two or three terms."""
    while True:
        f = {}
        for _ in range(rng.randint(2, 3)):
            vs = rng.sample(variables, rng.randint(0, min(2, len(variables))))
            m = mono(*((v, rng.randint(1, 2)) for v in vs))
            f = p_add(f, {m: rng.choice([-3, -2, -1, 1, 2, 5])})
        if len(f) > 1:
            return f


def _triple(r):
    return list(r._n.items()), r._k, list(r._d.items())


def _one_gcd(num, den):
    """The stored triple of num/den, two int polynomials, through one gcd
    of num and den."""
    n, d = _general_canon(num, den)
    k = lcm(*(Fraction(c).denominator for c in n.values()))
    return [(m, c * k) for m, c in n.items()], k, list(d.items())


def _general_formula(op, a, b=None):
    """The stored triple of a op b, or of a.diff(b) for op "d", from the
    general formula over the int parts N/(k*D) of a and b."""
    n1, k1, d1 = a._n, a._k, a._d
    if op == "d":
        num = p_add(p_mul(p_diff(n1, b), d1),
                    p_neg(p_mul(n1, p_diff(d1, b))))
        return _one_gcd(num, p_scale(p_mul(d1, d1), k1))
    n2, k2, d2 = b._n, b._k, b._d
    if op == "*":
        return _one_gcd(p_mul(n1, n2), p_scale(p_mul(d1, d2), k1 * k2))
    if op == "/":
        return _one_gcd(p_scale(p_mul(n1, d2), k2), p_scale(p_mul(d1, n2), k1))
    return _one_gcd(p_add(p_scale(p_mul(n1, d2), k2),
                          p_scale(p_mul(n2, d1), k1)),
                    p_scale(p_mul(d1, d2), k1 * k2))


def _planted_pairs(rng, count=80):
    """(op, a, b) whose * and / share a factor between n1 and d2 (or n2)
    and between n2 (or d2) and d1, and whose sums share a factor of the
    denominators that the sum cancels or keeps."""
    for _ in range(count):
        f, g, w, x, y, z = (_factor(rng) for _ in range(6))
        yield "*", RatFn(p_mul(f, x), p_mul(g, w)), RatFn(p_mul(g, z),
                                                         p_mul(f, y))
        yield "/", RatFn(p_mul(f, x), p_mul(g, w)), RatFn(p_mul(f, y),
                                                         p_mul(g, z))
        yield "+", RatFn(x, p_mul(g, w)), RatFn(y, p_mul(g, z))
        # (x/f + y/g) + (z/w - y/g): the sum of the two cancels g
        p, q, r = RatFn(x, f), RatFn(y, g), RatFn(z, w)
        yield "+", p + q, r - q


def _planted_quotients(rng, count=64):
    """(a, v) whose d has a squared factor that holds v, or a factor h
    free of v that the derivative's numerator keeps: d = h*(h*v^2 + c)
    and n = s + h*v*r, with c and s free of v."""
    v, rest = X(1), [X(2), U(1)]
    for _ in range(count):
        f = p_add({mono((v, 1)): rng.choice([-3, 1, 2])}, _factor(rng, rest))
        yield RatFn(_factor(rng), p_mul(p_mul(f, f), _factor(rng, rest))), v
        h, c, s = (_factor(rng, rest) for _ in range(3))
        d = p_mul(h, p_add(p_mul(h, {mono((v, 2)): 1}), c))
        n = p_add(s, p_mul(p_mul(h, {mono((v, 1)): 1}), _factor(rng, rest)))
        yield RatFn(n, d), v


def test_henrici_paths_match_one_gcd_of_the_product():
    rng = random.Random(20261019)
    seen = dict.fromkeys(["* g1", "* g2", "/ g1", "/ g2", "+ g", "+ g'",
                          "diff h", "diff g'"], 0)

    def hit(key, a, b):
        seen[key] += poly_gcd(a, b) != p_const(1)

    for op, a, b in _planted_pairs(rng):
        assert _triple(_OPS[op](a, b)) == _general_formula(op, a, b), (
            a, op, b)
        n1, d1, n2, d2 = a._n, a._d, b._n, b._d
        if op == "*":
            hit("* g1", n1, d2)
            hit("* g2", n2, d1)
        elif op == "/":
            hit("/ g1", n1, n2)
            hit("/ g2", d2, d1)
        else:
            g = poly_gcd(d1, d2)
            seen["+ g"] += g != p_const(1)
            hit("+ g'", p_add(p_mul(n1, p_divexact(d2, g)),
                              p_mul(n2, p_divexact(d1, g))), g)
    for a, v in _planted_quotients(rng):
        # v, a variable of d, and U(2), a variable of neither n nor d
        for w in (v, U(1), U(2)):
            assert _triple(a.diff(w)) == _general_formula("d", a, w), (a, w)
        n, d = a._n, a._d
        dd = p_diff(d, v)
        h = poly_gcd(d, dd)
        seen["diff h"] += h != p_const(1)
        hit("diff g'", p_add(p_mul(p_diff(n, v), p_divexact(d, h)),
                             p_neg(p_mul(n, p_divexact(dd, h)))), h)
    assert min(seen.values()) >= 60, seen


# ---------------------------------------------------------------------------
# one derivative: diff is derivation with the one image 1, and derivation
# must give what one gcd of (DN*Q - N*DQ) over k*K*L*Q^2 gives, with D taken
# one partial derivative at a time

def _derivation_parts(r, images):
    """(DN*Q - N*DQ, K, L, DQ) for r = N/(k*Q), with D the derivation
    times K*L, as derivation defines K, L and D."""
    n, d = r._n, r._d
    K = lcm(*(img._k for img in images.values()))
    L = p_const(1)
    for img in images.values():
        L = p_mul(L, p_divexact(img._d, poly_gcd(L, img._d)))
    pre = {v: p_mul(p_scale(img._n, K // img._k), p_divexact(L, img._d))
           for v, img in images.items() if img._n}
    dd = _derive_by_partials(d, pre)
    return (p_add(p_mul(_derive_by_partials(n, pre), d), p_neg(p_mul(n, dd))),
            K, L, dd)


def _derivation_over_one_gcd(r, images):
    """derivation(r, images) as one _ratio over the whole k*K*L*Q^2."""
    num, K, L, _ = _derivation_parts(r, images)
    return ratfn._ratio(num, p_mul(L, p_mul(r._d, r._d)), 1, K * r._k)


def _quotient_cases(rng):
    """(r, images) with planted shared factors: f divides both x1's image's
    denominator and dN/dx1, so t shares it with L; d = h*(h*x1^2 + c)
    keeps h in gcd(d, dd); and a degree-0 r under the Euler field has
    DQ != 0 but a zero derivative."""
    rest = [X(2), U(1)]
    pool = [RatFn(_factor(rng, rest), _factor(rng, rest)),
            Fraction(2, 3) * x1 / (1 + x1**2), ZERO, None, ONE,
            Fraction(1, 2) * x1 * u1 - x2]
    for _ in range(24):
        f, g, s, w, h, c = (_factor(rng, rest) for _ in range(6))
        planted = p_add(p_mul(p_mul(f, w), {mono((X(1), 1)): 1}), s)
        square = p_mul(h, p_add(p_mul(h, {mono((X(1), 2)): 1}), c))
        for num, den in ((planted, None), (planted, _factor(rng, rest)),
                         (_factor(rng), square), (_factor(rng), None),
                         (_factor(rng), _factor(rng))):
            picks = {X(1): RatFn(g, f), X(2): rng.choice(pool),
                     U(1): rng.choice(pool)}
            yield RatFn(num, den), {v: img for v, img in picks.items()
                                    if img is not None}
    euler = (x1 + 2 * x2) / (x1 - x2)
    yield euler, {X(1): x1, X(2): x2}
    yield euler, {U(1): u1 / (x2 + 1)}
    yield RatFn.const(Fraction(3, 4)), {X(1): x1 / (x2 + 1)}


def test_quotient_is_one_gcd_of_the_whole_quotient():
    rng = random.Random(20261023)
    one = p_const(1)
    seen = dict.fromkeys(["Q = 1, L != 1", "DQ = 0", "h = 1", "h != 1",
                          "t shares L", "zero image", "no image", "zero"], 0)
    for r, images in _quotient_cases(rng):
        got = ratfn.derivation(r, images)
        want = _derivation_over_one_gcd(r, images)
        assert (got._n, got._k, got._d) == (want._n, want._k, want._d), (
            r, images)
        for v in _FAST_VARS:
            d1, d2 = r.diff(v), _derivation_over_one_gcd(r, {v: ONE})
            assert (d1._n, d1._k, d1._d) == (d2._n, d2._k, d2._d), (r, v)
        num, _, L, dd = _derivation_parts(r, images)
        d = r._d
        h = poly_gcd(d, dd)
        seen["Q = 1, L != 1"] += d == one and L != one
        seen["DQ = 0"] += d != one and not dd
        seen["h = 1"] += d != one and h == one
        seen["h != 1"] += d != one and h != one
        seen["t shares L"] += bool(num) and poly_gcd(p_divexact(num, h),
                                                     L) != one
        seen["zero image"] += ZERO in images.values()
        seen["no image"] += len(images) < len(_FAST_VARS)
        seen["zero"] += got.is_zero() and d != one
    assert min(seen.values()) >= 2, seen


def test_henrici_paths_agree_with_sympy_cancel():
    # sympy's rational function field reduces each result with its own gcd;
    # the derivation cases are those of the one-gcd test above
    sympy = pytest.importorskip("sympy")
    field, *gens = sympy.field(",".join(map(var_name, _FAST_VARS)), sympy.QQ)
    where = {v: i for i, v in enumerate(_FAST_VARS)}

    def poly(p):
        terms = {}
        for m, c in p.items():
            e = [0] * len(_FAST_VARS)
            for v, k in pairs(m):
                e[where[v]] = k
            terms[tuple(e)] = sympy.QQ(c.numerator, c.denominator)
        return field.ring.from_dict(terms)

    def check(r, want):
        n, d = poly(r.num), poly(r.den)
        assert n * want.denom == want.numer * d
        assert d * want.denom.LC == want.denom * d.LC, (r, want)

    def sym(r):
        return field(poly(r.num)) / field(poly(r.den))

    rng = random.Random(20261020)
    for op, a, b in _planted_pairs(rng, 16):
        check(_OPS[op](a, b), {"*": operator.mul, "/": operator.truediv,
                               "+": operator.add}[op](sym(a), sym(b)))
    for a, v in _planted_quotients(rng, 16):
        check(a.diff(v), sym(a).diff(gens[where[v]]))
    for r, images in list(_quotient_cases(rng))[::16]:
        check(ratfn.derivation(r, images),
              sum((sym(img) * sym(r).diff(gens[where[v]])
                   for v, img in images.items()), field(0)))


def test_monomial_sums_keep_the_term_order_of_the_lcm_sum():
    # over one-term denominators m1 != m2 the sum is taken over their lcm
    # L as n1*(L/m1) + n2*(L/m2), whose terms are sorted only when a
    # monomial cancels: float evaluation sums them in this order
    rng = random.Random(20261022)
    seen = {"coprime": 0, "shared, kept": 0, "cancelled": 0}
    for _ in range(300):
        p, q, r = (_operand(rng, "monomial") for _ in range(3))
        for a, b in ((p, q), (p + q, r - q)):
            if a.is_poly() or b.is_poly() or a.den == b.den or not (a + b)._n:
                continue
            (m1,), (m2,) = a._d, b._d
            e1, e2 = dict(pairs(m1)), dict(pairs(m2))
            top = mono(*((v, max(e1.get(v, 0), e2.get(v, 0)))
                         for v in e1.keys() | e2.keys()))
            l = lcm(a._k, b._k)
            n1, n2 = p_scale(a._n, l // a._k), p_scale(b._n, l // b._k)
            num = p_add(p_mul(n1, {poly.mono_div(top, m1): 1}),
                        p_mul(n2, {poly.mono_div(top, m2): 1}))
            g = dict(pairs(top))
            for m in num:
                g = {v: min(k, dict(pairs(m)).get(v, 0)) for v, k in g.items()}
            g = mono(*((v, k) for v, k in g.items() if k))
            want = [poly.mono_div(m, g) for m in num]
            if g:
                want.sort(key=lambda m: mono_key(pairs(m)), reverse=True)
            assert list((a + b)._n) == want, (a, b)
            seen["cancelled" if g else "shared, kept" if set(e1) & set(e2)
                 else "coprime"] += 1
    assert min(seen.values()) >= 20, seen


def test_cofactors_multiply_back():
    rng = random.Random(20261021)
    cases = []
    # the property suites' generators: monomial and binomial denominators
    for _ in range(150):
        a, b = _rand_ratfn(rng), _rand_ratfn(rng)
        cases += [(p, q) for p, q in ((a._n, b._d), (a._d, b._d),
                                      (a._n, b._n)) if p and q]
    # planted factors, scaled by integers with common factors and signs
    for _ in range(200):
        f, x, y = _factor(rng), _factor(rng), _factor(rng)
        ca, cb = rng.choice([1, 2, 6, -3, -4]), rng.choice([1, 4, -2, -6])
        cases.append((p_scale(p_mul(f, x), ca), p_scale(p_mul(f, y), cb)))
    seen = {"content": 0, "negative candidate": 0, "proper": 0}
    for a, b in cases:
        g, qa, qb = poly._cofactors(a, b)
        # the primitive PRS, not GCDHEU or the monomial gcd
        assert g == _prs_gcd(a, b) == poly_gcd(a, b), (a, b)
        assert p_mul(g, qa) == a and p_mul(g, qb) == b, (a, b)
        if g == p_const(1):
            assert list(qa.items()) == list(a.items())
            assert list(qb.items()) == list(b.items())
        else:
            for q in (qa, qb):
                assert list(q) == sorted(
                    q, key=lambda m: mono_key(pairs(m)), reverse=True)
            seen["proper"] += 1
        if len(a) > 1 and len(b) > 1:
            heu = poly._heu_gcd(a, b)
            seen["content"] += gcd(poly._content(a), poly._content(b)) > 1
            seen["negative candidate"] += p_lead(heu[0])[1] < 0
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# coefficient invariant: a stored coefficient is an int when integral and
# otherwise a Fraction with denominator > 1, never a float

def _coefficient_faults(r):
    faults = []
    for part in (r.num, r.den):
        for m, c in part.items():
            if type(c) is int:
                continue
            if type(c) is not Fraction or c.denominator == 1:
                faults.append((m, type(c).__name__, c))
    return faults


def _suite_forms(seed, count=150):
    """Canonical forms from the property-suite generators and from the
    operations the suites apply to them (sums, products, quotients,
    derivatives, substitutions)."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = _rand_ratfn(rng), _rand_ratfn(rng)
        yield from (a, b, _rand_poly(rng), a + b, a - b, a * b)
        if not b.is_zero():
            yield a / b
        v = rng.choice(_POOL)
        yield a.diff(v)
        try:
            yield a.substitute({w: _rand_poly(rng) for w in a.vars()})
        except (SubstitutionPole, DivisionByZero):
            pass


def test_coefficients_are_ints_or_proper_fractions():
    forms = list(_suite_forms(seed=31))
    for fwd, _ in builtin_fixtures()[:3]:   # phi, psi, theta
        forms.extend(pullback_matrix(fwd, N=4).entries.values())
    assert len(forms) > 1000
    assert any(type(c) is Fraction for r in forms for c in r.num.values())
    forms.append(RatFn({mono((X(1), 1)): Fraction(3)}, {(): Fraction(1)}))
    for r in forms:
        assert _coefficient_faults(r) == [], r


def test_const_value_and_eval_at_return_fractions():
    v = RatFn.const(3).const_value()
    assert type(v) is Fraction and v == 3
    assert type(ZERO.const_value()) is Fraction
    assert RatFn.const(3).num == {(): 3} and type(RatFn.const(3).num[()]) is int
    w = ((x1 + x2) / u2).eval_at({X(1): 3, X(2): 5, U(2): 4})
    assert type(w) is Fraction and w == 2
    w = (x1 / 2).eval_at({X(1): 3})
    assert type(w) is Fraction and w == Fraction(3, 2)


# ---------------------------------------------------------------------------
# the stored triple (N, k, D) and the exact pair evaluator

def _moved_forms():
    """Every component of seeded static and nonautonomous moves of the
    (3, 2) normal forms, with the 2-jet expressions the classifier
    evaluates for their fields: truly rational coefficients."""
    from jetfactor import (elkin_forms_32, random_nonaut_static_pair,
                           random_static_transform, to_affine)
    from jetfactor.classify import _jet_exprs
    for k, form in enumerate(elkin_forms_32()):
        for move in (random_static_transform, random_nonaut_static_pair):
            fwd, inv, moved = move(form, seed=k)
            yield from moved.f + fwd.y + fwd.v + inv.y + inv.v
            a = to_affine(moved)
            for v in [a.f0] + list(a.fvecs):
                yield from _jet_exprs(v)


def _triple_forms():
    forms = list(_suite_forms(seed=37, count=60)) + list(_moved_forms())
    forms.append(RatFn({mono((X(1), 1)): Fraction(3)}, {(): Fraction(1)}))
    forms.append(RatFn({(): Fraction(-4, 6)},
                       {mono((X(2), 1)): Fraction(-2, 3), (): 4}))
    return forms


def _ratio_at(r, point):
    """num/den of r evaluated at point term by term over Fractions: the
    exact value as eval_at computed it before eval_pair, or None at a
    pole."""
    def ev(a):
        out = Fraction(0)
        for m, c in a.items():
            term = Fraction(c)
            for v, e in pairs(m):
                term *= point[v] ** e
            out += term
        return out

    d = ev(r.den)
    return None if d == 0 else ev(r.num) / d


def test_eval_pair_is_the_reduced_exact_value():
    rng = random.Random(20261019)
    forms = _triple_forms()
    assert any(r._k > 1 for r in forms) and any(r._k == 1 for r in forms)
    poles = values = 0
    for r in forms:
        for _ in range(4):
            point = {v: rng.randint(-3, 3) for v in sorted(r.vars())}
            want = _ratio_at(r, point)
            if want is None:
                poles += 1
                for ev in (r.eval_pair, r.eval_at):
                    with pytest.raises(DenominatorZero):
                        ev(point)
                continue
            n, d = r.eval_pair(point)
            assert type(n) is int and type(d) is int and d > 0
            assert (n, d) == (want.numerator, want.denominator), (r, point)
            assert r.eval_at(point) == want
            values += 1
        half = {v: Fraction(rng.choice([-3, -1, 1, 5]), 2) for v in r.vars()}
        want = _ratio_at(r, half)
        if want is not None:
            assert r.eval_pair(half) == (want.numerator, want.denominator)
    assert poles > 50 and values > 2000, (poles, values)


def test_stored_triple_invariants():
    for r in _triple_forms() + [ZERO, ONE, RatFn.const(Fraction(-6, 4))]:
        n, k, d = r._n, r._k, r._d
        assert all(type(c) is int for c in n.values()), r
        assert all(type(c) is int for c in d.values()), r
        assert type(k) is int and k >= 1, r
        assert gcd(k, *n.values()) == 1, r
        assert gcd(*d.values()) == 1 and p_lead(d)[1] > 0, r
        if n:
            assert poly_gcd(n, d) == p_const(1), r
        else:
            assert (k, d) == (1, p_const(1)), r
        # num and den are the canonical pair (N/k, D), N itself when k is 1
        assert r.num == {m: Fraction(c, k) for m, c in n.items()}
        assert list(r.num) == list(n) and r.den is d
        assert (r.num is n) == (k == 1), r
        assert RatFn(r.num, r.den) == r
        assert hash(RatFn(r.num, r.den)) == hash(r)


def test_is_const_is_mentioning_no_variable():
    consts = [ZERO, ONE, RatFn.const(Fraction(-6, 4)), (x1 + 1) / (x1 + 1),
              (x1 + u1) - u1 - x1 + 5, (x2 / 2).diff(X(2))]
    others = [1 / x1, RatFn.const(7) / (x1 - 2), x1 - 5, (u1 + 1) / 3]
    forms = list(_suite_forms(seed=41)) + _triple_forms() + consts + others
    for r in forms:
        assert r.is_const() == (not r.vars()), r
    assert all(r.is_const() for r in consts)
    assert not any(r.is_const() for r in others)


# --- exact elimination ------------------------------------------------------


def _rand_matrix(rng, rows, cols, rank=None):
    """Seeded Fraction matrix; with `rank`, rows past it are combinations
    of the first `rank` rows."""
    m = [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
          for _ in range(cols)] for _ in range(rows)]
    if rank is not None:
        for i in range(rank, rows):
            cs = [rng.randint(-2, 2) for _ in range(rank)]
            m[i] = [sum(c * m[k][j] for k, c in enumerate(cs))
                    for j in range(cols)]
    return m


def _sym(sympy, m):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                          for e in row] for row in m])


def _frac(e):
    return Fraction(int(e.p), int(e.q))


def _gauss_jordan_cases(rng):
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        yield _rand_matrix(rng, rows, cols)                        # any shape
        yield _rand_matrix(rng, rows, rows)                        # square
        k = rng.randint(0, min(rows, cols))
        yield _rand_matrix(rng, rows, cols, rank=k)                # singular
    yield [[0, 0], [0, 0]]
    yield [[0, 2, 4], [0, 1, 3]]                                   # plain ints


def test_gauss_jordan_is_sympys_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for m in _gauss_jordan_cases(rng):
        want, want_piv = _sym(sympy, m).rref()
        work = [row[:] for row in m]
        pivots = gauss_jordan(work, len(m[0]))
        assert pivots == list(want_piv), m
        assert len(pivots) == _sym(sympy, m).rank()
        got = [[Fraction(e) for e in row] for row in work]
        assert got == [[_frac(e) for e in want.row(i)]
                       for i in range(want.rows)], m
        assert all(type(e) in (int, Fraction) for row in work for e in row)


def test_gauss_jordan_inverts_square_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    done = 0
    while done < 40:
        k = rng.randint(1, 5)
        m = _rand_matrix(rng, k, k)
        if _sym(sympy, m).rank() < k:
            continue
        work = [row + [int(i == j) for j in range(k)]
                for i, row in enumerate(m)]
        assert gauss_jordan(work, k) == list(range(k))
        want = _sym(sympy, m).inv()
        assert [row[k:] for row in work] == \
            [[_frac(e) for e in want.row(i)] for i in range(k)]
        done += 1


def test_gauss_jordan_solves_augmented_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        a = _rand_matrix(rng, rows, cols, rank=rng.randint(0, min(rows, cols)))
        if rng.random() < 0.5:     # consistent: b = a x0
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            b = [sum(e * x for e, x in zip(row, x0)) for row in a]
        else:
            b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        aug = [row + [bi] for row, bi in zip(a, b)]
        consistent = (_sym(sympy, aug).rank() == _sym(sympy, a).rank())
        seen[consistent] += 1
        work = [row[:] for row in aug]
        pivots = gauss_jordan(work, cols)
        assert pivots == list(_sym(sympy, aug).rref()[1][:len(pivots)])
        assert any(row[cols] != 0 for row in work[len(pivots):]) \
            == (not consistent)
        if consistent:
            x = [Fraction(0)] * cols            # free unknowns are 0
            for row, c in zip(work, pivots):
                x[c] = row[cols]
            assert [sum(e * xi for e, xi in zip(row, x)) for row in a] == b
    assert min(seen.values()) > 20


def int_rank(rows):
    """Rank over Q of equal-length rows of ints, fraction-free (Bareiss
    1968): every update p*row - f*pivot_row is divided exactly by the
    previous pivot, so the entries stay integer minors and never swell
    past them.  A column with no nonzero entry at or below the current
    row is skipped."""
    m = [row for row in rows if any(row)]
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[c]
        for r in range(rank + 1, len(m)):
            row, f = m[r], m[r][c]
            m[r] = [(p * e - f * g) // prev for e, g in zip(row, top)]
        prev = p
        rank += 1
    return rank


def _echelon_cases(rng):
    """Seeded int matrices of 0-8 rows and 1-6 columns, entries up to
    2^70 in size, some rows zero, repeated, proportional to an earlier
    row or a combination of earlier rows."""
    for _ in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(1, 6)
        m = []
        for _ in range(rows):
            kind = rng.choice(("new", "new", "zero", "dup", "prop", "comb"))
            if kind == "zero" or not m and kind != "new":
                m.append([0] * cols)
            elif kind == "dup":
                m.append(list(rng.choice(m)))
            elif kind == "prop":
                c = rng.choice((-1, 1)) * rng.randint(2, 1 << 20)
                m.append([c * e for e in rng.choice(m)])
            elif kind == "comb":
                cs = [rng.randint(-3, 3) for _ in m]
                m.append([sum(c * row[j] for c, row in zip(cs, m))
                          for j in range(cols)])
            else:
                bits = rng.randint(0, 70)
                m.append([rng.randint(-(1 << bits), 1 << bits) * (
                    rng.random() < 0.8) for _ in range(cols)])
        yield m, cols


def test_int_echelon_is_the_bareiss_rank():
    rng = random.Random(25)
    seen = {"empty": 0, "zero row": 0, "repeated row": 0, "deficient": 0,
            "past 2^64": 0}
    for m, cols in _echelon_cases(rng):
        frozen = [list(row) for row in m]
        whole = int_echelon([], m)
        assert m == frozen                      # the rows are not changed
        want = int_rank([list(row) for row in m])
        assert len(whole) == want, m
        seen["empty"] += not m
        seen["zero row"] += any(not any(row) for row in m)
        seen["repeated row"] += any(m[i] == m[j] for i in range(len(m))
                                    for j in range(i))
        seen["deficient"] += want < min(len(m), cols)
        seen["past 2^64"] += any(abs(e) >> 64 for row in m for e in row)
        # each kept row is primitive, nonzero at its pivot and zero at
        # every earlier pivot: the pivots certify the rank by a
        # triangular minor
        for i, (c, row) in enumerate(whole):
            assert len(row) == cols and row[c] != 0 and gcd(*row) == 1
            assert all(row[p] == 0 for p, _ in whole[:i])
        # extending row by row, or from any split, is one call; the
        # basis handed in is never changed
        basis = []
        for row in m:
            before = [(c, list(r)) for c, r in basis]
            grown = int_echelon(basis, [row])
            assert basis == before
            basis = grown
        assert basis == whole
        cut = rng.randint(0, len(m))
        head = int_echelon([], m[:cut])
        before = [(c, list(r)) for c, r in head]
        assert int_echelon(head, m[cut:]) == whole
        assert head == before
    assert min(seen.values()) > 20, seen


def exact_rank(rows):
    """Rank over Q of equal-length rows of int or Fraction: each row is
    cleared to ints, which keeps the rank, and ranked by int_rank."""
    return int_rank([cleared([(e.numerator, e.denominator) for e in row])
                     for row in rows])


def test_exact_rank_is_the_gauss_jordan_rank():
    rng = random.Random(44)
    shapes = {"wide": 0, "tall": 0, "deficient": 0, "zero row": 0}
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(rows, cols))
        m = _rand_matrix(rng, rows, cols, rank=k)
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        rng.shuffle(m)
        want = len(gauss_jordan([row[:] for row in m], cols))
        shapes["wide"] += rows < cols
        shapes["tall"] += rows > cols
        shapes["deficient"] += want < min(rows, cols)
        shapes["zero row"] += any(not any(row) for row in m)
        big = 1 << rng.randint(200, 260)
        ints = [[int(e * 6) for e in row] for row in m]
        for case in (m, ints, [[e * big for e in row] for row in m],
                     [[e * big + (e != 0) for e in row] for row in ints]):
            assert exact_rank(case) == \
                len(gauss_jordan([row[:] for row in case], cols)), case
    assert min(shapes.values()) > 30, shapes
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [Fraction(0), 0]]) == 0


def test_full_inverse_of_a_left_factor_multiplies_back_to_identity():
    phi = builtin_fixtures()[0][0]
    g = factor_JK0(pullback_matrix(phi, N=4)).g.mat
    eye = BlockMatrix.identity(g.row_sizes)
    assert any(not v.is_const() for v in g.entries.values())
    ginv = full_inverse(g)
    assert g.matmul(ginv).entries == eye.entries
    assert ginv.matmul(g).entries == eye.entries
