"""Numeric crosscheck of an equivalence map along simulated trajectories.

numeric_crosscheck integrates the source system under seeded polynomial
controls with classical RK4, pushes the trajectory through the map, and
measures how far the image is from solving the target system.  It is an
independent floating-point check of the exact verification in
equivalence.py, not a proof.

Float evaluation is compiled once per call: ratfn.compile_float turns the
source field, each assumption, the map's y and v and the target field into
functions local to the call, bit-identical to term-by-term evaluation.
Each point evaluates only the control-derivative levels they read.
"""

import math
import random

from . import sysio
from .ratfn import T, X, U, compile_float
from .equivalence import verify_forward
from .errors import SingularTrajectory, DenominatorZero, UsageError


class CrosscheckResult:
    def __init__(self, max_residual, tol, T, seed, attempts):
        self.max_residual = max_residual
        self.tol = tol
        self.T = T
        self.seed = seed
        self.attempts = attempts

    @property
    def passed(self):
        return self.max_residual < self.tol


def _poly_eval(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_diff(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [0.0]


def _reads(exprs):
    """The control derivatives u_j^(k) that exprs read, sorted."""
    return sorted({v for e in exprs for v in e.vars() if v[0] == 2})


def _u_coeffs(ucoeffs, v):
    """The coefficient list of v = u_j^(k), from those of the controls."""
    c = ucoeffs[v[2] - 1]
    for _ in range(v[1]):
        c = _poly_diff(c)
    return c


def _compile(exprs, n, us):
    """compile_float over the arguments (t, x_1, ..., x_n, *us)."""
    return compile_float(exprs, [T] + [X(i + 1) for i in range(n)] + us)


def numeric_crosscheck(m, seed=0, T=1.0, tol=1e-6, steps=1000,
                       controls=None):
    """Integrate the source under random polynomial controls, push the
    trajectory through the map, and measure how far the image is from
    solving the target.

    Controls are cubics with seeded coefficients; a draw whose trajectory
    runs through a recorded nonzero-assumption is thrown away and redrawn
    (up to ten times, then SingularTrajectory).  Passing explicit
    `controls` (one coefficient list per source control) skips redrawing:
    a singular hit raises immediately, which is how the guard is tested.

    The residual is max over interior grid points and target states of
    |dy_i/dt - f_i(t, y, v)| with the derivative taken by five-point
    central differences on the dense grid, so it needs steps >= 4.  T is
    the time horizon and tol the pass bound, both finite and positive.
    A NaN residual fails.
    """
    if steps < 4:
        raise UsageError("steps must be >= 4, got %d" % steps)
    if not (math.isfinite(T) and T > 0):
        raise UsageError("T must be finite and positive, got %r" % T)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError("tol must be finite and positive, got %r" % tol)
    src, tgt = m.src, m.tgt
    rng = random.Random(seed)
    assumptions = [sysio.parse_expression(s)
                   for s in verify_forward(m).assumptions]
    src_us = _reads(src.f)
    map_us = _reads(m.y + m.v + tuple(assumptions))
    fsrc = _compile(src.f, src.n, src_us)
    checks = [_compile([g], src.n, map_us) for g in assumptions]
    fy = _compile(m.y, src.n, map_us)
    fv = _compile(m.v, src.n, map_us)
    ftgt = _compile(tgt.f, tgt.n, [U(j + 1) for j in range(tgt.s)])

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
                raise SingularTrajectory(
                    "no nonsingular trajectory after %d draws (%s); the map "
                    "is only defined off its recorded singular set"
                    % (attempts, exc))
            continue
        break

    worst = 0.0
    for idx in range(2, steps - 1):
        t = ts[idx]
        dy = [(-ys[idx + 2][i] + 8 * ys[idx + 1][i]
               - 8 * ys[idx - 1][i] + ys[idx - 2][i]) / (12 * h)
              for i in range(tgt.n)]
        f = ftgt(t, *ys[idx], *vs[idx])
        for i in range(tgt.n):
            r = abs(dy[i] - f[i])
            if math.isnan(r) or r > worst:  # max() would drop a NaN
                worst = r
    return CrosscheckResult(worst, tol, T, seed, attempts)


def _rk4(f, controls, x0, t0, t1, steps):
    """Classical RK4 for x' = f(t, *x, *controls(t)), with the controls
    evaluated once per distinct time: stages 2 and 3 share t + h/2."""
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
