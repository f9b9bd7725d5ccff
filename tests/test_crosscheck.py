"""numeric_crosscheck's generated loops against the Python loops they replace.

_reference below transcribes the crosscheck as it ran before its loops were
generated: _rk4 and _poly_eval, compile_float called point by point, and the
residual loop in Python.  The generated integrator, image pass and residual
must give the same repr(max_residual) and attempts, or raise the same
exception with the same message.
"""

import math
import random
from fractions import Fraction

import pytest

import jetfactor.crosscheck as crosscheck
from jetfactor import (ControlSystem, EquivMap, RatFn, U, X, builtin_fixtures,
                       elkin_forms_32, random_nonaut_static_pair,
                       random_static_transform)
from jetfactor import T as TIME
from jetfactor.cli import numeric_crosscheck
from jetfactor.equivalence import verify_forward
from jetfactor.errors import DenominatorZero, JetError, UsageError
from jetfactor.sysio import parse_expression

PHI, THETA = builtin_fixtures()[0][0], builtin_fixtures()[2][0]


def mono(*pairs):
    """The kernel's monomial with the given (variable, exponent) pairs, in
    any order: (degree, v_k, e_k, ..., v_1, e_1), largest variable first,
    and () for no pairs.  Tests write every monomial through it."""
    if not pairs:
        return ()
    return (sum(e for _, e in pairs),
            *(x for pair in sorted(pairs, reverse=True) for x in pair))


def pairs(m):
    """The (variable, exponent) pairs of the monomial m, in ascending
    variable order: mono's inverse."""
    return tuple(zip(m[-2:0:-2], m[:0:-2]))


def compile_float(exprs, args):
    """f(*values) -> [float value of e for e in exprs], values in args order:
    one generated function of the arguments a0, a1, ... whose body is
    crosscheck.float_lines of the whole list, compiled once and called per
    point."""
    names = {v: "a%d" % i for i, v in enumerate(args)}
    outs = ["r%d" % k for k in range(len(exprs))]
    ns = {}
    lines = (["def f(%s):" % ", ".join(names.values())]
             + crosscheck.float_lines(exprs, names, outs, ns, {})
             + ["    return [%s]" % ", ".join(outs)])
    return crosscheck.float_functions(lines, ns, "f")[0]


def _poly_eval(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_diff(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [0.0]


def _u_coeffs(ucoeffs, v):
    c = ucoeffs[v[2] - 1]
    for _ in range(v[1]):
        c = _poly_diff(c)
    return c


def _reads(exprs):
    return sorted({v for e in exprs for v in e.vars() if v[0] == 2})


def _rk4(f, controls, x0, t0, t1, steps):
    h = (t1 - t0) / steps
    ts = [t0]
    xs = [list(x0)]
    x = list(x0)
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, *x, *controls(t))
        tm = t + h / 2
        um = controls(tm)
        k2 = f(tm, *[xi + h / 2 * ki for xi, ki in zip(x, k1)], *um)
        k3 = f(tm, *[xi + h / 2 * ki for xi, ki in zip(x, k2)], *um)
        k4 = f(t + h, *[xi + h * ki for xi, ki in zip(x, k3)], *controls(t + h))
        x = [xi + h / 6 * (a + 2 * b + 2 * c + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        ts.append(t0 + (k + 1) * h)
        xs.append(list(x))
    return ts, xs


def _reference(m, seed=0, T=1.0, steps=1000, controls=None):
    src, tgt = m.src, m.tgt
    rng = random.Random(seed)
    assumptions = [parse_expression(s)
                   for s in verify_forward(m).assumptions]
    src_us = _reads(src.f)
    map_us = _reads(m.y + m.v + tuple(assumptions))

    def comp(exprs, n, us):
        return compile_float(exprs, [TIME] + [X(i + 1) for i in range(n)]
                             + us)

    fsrc = comp(src.f, src.n, src_us)
    checks = [comp([g], src.n, map_us) for g in assumptions]
    fy = comp(m.y, src.n, map_us)
    fv = comp(m.v, src.n, map_us)
    ftgt = comp(tgt.f, tgt.n, [U(j + 1) for j in range(tgt.s)])
    attempts = 0
    while True:
        attempts += 1
        if controls is not None:
            ucoeffs = [list(map(float, c)) for c in controls]
        else:
            ucoeffs = [[rng.uniform(-1.0, 1.0) for _ in range(4)]
                       for _ in range(src.s)]
        x0 = [rng.uniform(-2.0, 2.0) for _ in range(src.n)]
        src_polys = [_u_coeffs(ucoeffs, v) for v in src_us]
        map_polys = [_u_coeffs(ucoeffs, v) for v in map_us]

        def src_controls(t):
            return [_poly_eval(c, t) for c in src_polys]

        h = T / steps
        try:
            ts, xs = _rk4(fsrc, src_controls, x0, 0.0, T, steps)
            points = [(t, *xv, *[_poly_eval(c, t) for c in map_polys])
                      for t, xv in zip(ts, xs)]
            if any(abs(g(*p)[0]) < 1e-4 for p in points for g in checks):
                raise DenominatorZero("assumption vanishes on the trajectory")
            ys = [fy(*p) for p in points]
            vs = [fv(*p) for p in points]
        except (DenominatorZero, OverflowError) as exc:
            if controls is not None or attempts >= 10:
                return ("SingularTrajectory",
                        "no nonsingular trajectory after %d draws (%s); the "
                        "map is only defined off its recorded singular set"
                        % (attempts, exc))
            continue
        break
    worst = 0.0
    for idx in range(2, steps - 1):
        t = ts[idx]
        dy = [(-ys[idx + 2][i] + 8 * ys[idx + 1][i]
               - 8 * ys[idx - 1][i] + ys[idx - 2][i]) / (12 * h)
              for i in range(tgt.n)]
        try:
            f = ftgt(t, *ys[idx], *vs[idx])
        except OverflowError:  # the target field passed the float range
            return repr(math.inf), attempts
        for i in range(tgt.n):
            r = abs(dy[i] - f[i])
            if math.isnan(r) or r > worst:
                worst = r
    return repr(worst), attempts


def _outcome(fn, *args, **kw):
    """(repr(max_residual), attempts), or the type and message raised."""
    try:
        res = fn(*args, **kw)
    except (JetError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(res, tuple):  # from _reference
        return res
    return repr(res.max_residual), res.attempts


def _coeff(rng):
    if rng.random() < 0.5:
        return RatFn.const(rng.randint(-5, 5) or 1)
    return RatFn.const(Fraction(rng.randint(-9, 9) or 1,
                                rng.choice([2, 3, 7])))


def _expr(rng, pool, den_pool=()):
    """A sum of 1 to 3 terms over pool; over a denominator from den_pool
    half of the time.  Powers repeat across terms and expressions."""
    e = RatFn.const(0)
    for _ in range(rng.randint(1, 3)):
        term = _coeff(rng)
        for v in rng.sample(pool, rng.randint(0, 2)):
            term = term * RatFn.var(v) ** rng.randint(1, 3)
        e = e + term
    if den_pool and rng.random() < 0.5:
        e = e / rng.choice(den_pool)
    return e


def _random_map(rng):
    n, s = rng.randint(1, 3), rng.randint(1, 2)
    n2, s2 = rng.randint(1, 3), rng.randint(1, 2)
    xs = [X(i + 1) for i in range(n)]
    us = [U(j + 1) for j in range(s)]
    x1 = RatFn.var(X(1))
    dens = [1 + x1 ** 2, RatFn.var(TIME) + 3, x1 - Fraction(1, 3)]
    src = ControlSystem(n, s, [_expr(rng, [TIME] + xs + us)
                               for _ in range(n)], check=False)
    jet = xs + us + [U(j + 1, 1) for j in range(s)]
    y = [_expr(rng, [TIME] + jet, dens) for _ in range(n2)]
    v = [_expr(rng, [TIME] + jet + [U(1, 2)], dens) for _ in range(s2)]
    ys = [X(i + 1) for i in range(n2)]
    vs = [U(j + 1) for j in range(s2)]
    tgt = ControlSystem(n2, s2, [_expr(rng, [TIME] + ys + vs)
                                 for _ in range(n2)], check=False)
    return EquivMap(src, tgt, y, v)


def _system(n, s, *f):
    return ControlSystem(n, s, [parse_expression(e) for e in f], check=False)


def _map(src, tgt, y, v):
    return EquivMap(src, tgt, [parse_expression(e) for e in y],
                    [parse_expression(e) for e in v])


_SQUARE = _system(2, 1, "u1", "x1^2 + x2")

# (map, keyword arguments) pairs for the cases that random maps rarely hit
_CASES = [
    (PHI, {"seed": 3, "steps": 40}),
    (THETA, {"seed": 0}),                       # redrawn five times
    (THETA, {"seed": 3, "T": 0.5, "steps": 9}),
    # a NaN control, and explicit controls of several lengths
    (PHI, {"steps": 10, "controls": [[float("nan"), 0, 0, 0],
                                     [0.5, 0.2, 0.0, 0.1]]}),
    (PHI, {"controls": [[0.5, 0.2, 0.0, 0.1], [1.0, 0.3, 0.2, 0.0]]}),
    (PHI, {"steps": 30, "controls": [[2], [1.0, Fraction(1, 3)]]}),
    (PHI, {"steps": 30, "controls": [[], [1.0, 0.5, 0.25, 0.125, 1.5]]}),
    # the assumption u2 != 0 vanishes
    (THETA, {"controls": [[0.3, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}),
    # a pole of the source field at t + h = 1/2, on every draw
    (_map(_system(2, 1, "u1 + 1/(t - 1/2)", "x1"), _SQUARE,
          ["x1", "x2"], ["u1"]), {"steps": 4}),
    # a pole of the source field at u1 = 0, with explicit controls
    (_map(_system(1, 1, "x1/u1"), _system(1, 1, "u1"), ["x1"], ["u1"]),
     {"steps": 8, "controls": [[0.0, 1.0]]}),
    # the assumption 2t - 1 != 0 vanishes on an even grid, not on an odd one
    (_map(_SQUARE, _SQUARE, ["x1/(2*t - 1)", "x2"], ["u1"]), {"steps": 10}),
    (_map(_SQUARE, _SQUARE, ["x1/(2*t - 1)", "x2"], ["u1"]), {"steps": 11}),
    # a pole of the target field is a pulled assumption, caught in the
    # image pass before the residual loop reaches it
    (_map(_SQUARE, _system(2, 1, "u1/(t - 1/2)", "x1"), ["x1", "x2"],
          ["u1"]), {"steps": 10}),
    # an overflowing power: in the source field, in y, and in the target
    # field, which only the residual loop evaluates (t^750 overflows past
    # t = 2.57; its last point is t = 2.7, the image's is t = 3), where it
    # reads as an infinite residual
    (_map(_system(2, 1, "u1 + x2^2 + t^800", "x1"), _SQUARE,
          ["x1", "x2"], ["u1"]), {"T": 3.0, "steps": 20}),
    (_map(_SQUARE, _SQUARE, ["x1 + x2^2", "x2 + t^700*x1^2"], ["u1"]),
     {"T": 3.0, "steps": 20}),
    (_map(_SQUARE, _system(2, 1, "u1*x1^2 + x1^2 + t^750", "x1"),
          ["x1", "x2"], ["u1"]), {"T": 3.0, "steps": 20}),
    # explicit controls with -0.0 coefficients, which Horner's leading
    # 0.0 * t keeps from changing the sign of a control's value
    (PHI, {"steps": 12, "controls": [[-0.0, -0.0, 0.5, -0.0], [-0.0]]}),
    (_map(_SQUARE, _SQUARE, ["x1", "x2"], ["u1"]),
     {"steps": 8, "controls": [[-0.0, -0.0]]}),
    # source fields that read only some states, or none: the other stage
    # states are not computed
    (_map(_system(3, 1, "u1", "x1^2 + t", "x1*u1"),
          _system(3, 1, "u1", "x1^2 + t", "x1*u1"),
          ["x1", "x2", "x3"], ["u1"]), {"seed": 2, "steps": 20}),
    (_map(_system(2, 1, "u1", "t*u1"), _system(2, 1, "u1", "t*u1"),
          ["x1", "x2"], ["u1"]), {"steps": 20}),
    # a target field that does not read t, where the source and map do
    (_map(_system(2, 1, "u1", "x1 + t"), _system(2, 1, "u1", "x1"),
          ["x1", "x2 - t^2/2"], ["u1"]), {"steps": 30}),
]


@pytest.mark.parametrize("m, kw", _CASES)
def test_generated_loops_are_the_python_loops(m, kw):
    assert _outcome(numeric_crosscheck, m, **kw) == \
        _outcome(_reference, m, **kw)


def test_generated_loops_on_random_maps():
    rng = random.Random(20261019)
    for _ in range(40):
        m = _random_map(rng)
        kw = {"seed": rng.randint(0, 99), "T": rng.choice([0.5, 1.0, 2.5]),
              "steps": rng.choice([4, 5, 17, 60])}
        assert _outcome(numeric_crosscheck, m, **kw) == \
            _outcome(_reference, m, **kw), kw


def test_assumptions_come_from_the_forward_pulls():
    maps = [m for pair in builtin_fixtures() for m in pair]
    for form in elkin_forms_32():
        for seed in range(3):
            maps.append(random_static_transform(form, seed)[0])
            maps.append(random_nonaut_static_pair(form, seed)[0])
    for m in maps:
        assert crosscheck.forward_assumptions(m) == [
            parse_expression(s) for s in verify_forward(m).assumptions], m


def test_generated_functions_hold_only_numbers(monkeypatch):
    made, sources = [], []
    real = crosscheck.float_functions

    def record(lines, ns, *names):
        sources.extend(lines)
        made.extend(real(lines, ns, *names))
        return made[-len(names):]

    monkeypatch.setattr(crosscheck, "float_functions", record)
    for m, kw in _CASES:
        _outcome(numeric_crosscheck, m, **kw)
    assert len(made) == 3 * len(_CASES)
    assert not any(" ** 1)" in line for line in sources)
    for f in made:
        assert all(type(k) in (int, float) or k is None
                   for k in f.__code__.co_consts), f.__name__


def test_long_sums_compile():
    # one sum expression of 3,000 terms passes the compiler's recursion
    # limit; float_lines splits it into statements of _SUM_TERMS terms
    f = RatFn.var(U(1)) + RatFn({mono((TIME, i)): 1 for i in range(1, 3000)})
    sys_ = ControlSystem(1, 1, [f], check=False)
    m = EquivMap(sys_, sys_, [RatFn.var(X(1))], [RatFn.var(U(1))])
    got = _outcome(numeric_crosscheck, m, steps=4)
    assert got == _outcome(_reference, m, steps=4)
    assert got[1] == 1


@pytest.mark.parametrize("controls", [[[0.5]], [[0.5], [0.2], [0.1]], []])
def test_controls_need_one_list_per_source_control(controls):
    with pytest.raises(UsageError, match=r"one coefficient list per source "
                                         r"control \(2\), got %d"
                                         % len(controls)):
        numeric_crosscheck(PHI, controls=controls)
