"""Numeric crosscheck of an equivalence map along simulated trajectories.

numeric_crosscheck integrates the source system under seeded polynomial
controls with classical RK4, pushes the trajectory through the map, and
measures how far the image is from solving the target system.  It is an
independent floating-point check of the exact verification in
equivalence.py, not a proof.

The three loops are generated once per call as straight-line Python from
float_lines, the package's one float emitter: the RK4 integrator with the
source field inlined at each of its four stages and each control in
unrolled Horner form, the image pass (the map's controls, the assumption
checks, every y, then every v) and the residual loop over a five-point
window of the image.  They run the float operations of the Python loops
they replace, and of term-by-term evaluation of each field, in the same
order, except for work that cannot change a bit (docs/decisions.md, "The
float emitter does no dead work").  Each power of exponent 2 or more is
computed once per point and read back after: pow is deterministic, so a
reused power is the value the loop recomputes, and at each point the
lines that read powers branch only to raise, so a power's first textual
use is also its first execution.  A power of exponent 1 is the variable
itself, and each sum is one expression that adds from the left as the
loop's n += did.  The integrator computes a stage state only where the
source field reads it, since float + and * never raise, and h / 2,
h / 6 and 12 * h are computed once per call.  So residuals, attempts and the first exception
raised (a pole, or an OverflowError from a power or a coefficient) are
bit-identical to the loops'.  Only the control-derivative levels that the
source field and the map read are evaluated.  The assumption checks
evaluate the denominators that pulling the target field back along the
map notes (forward_assumptions): the list that verify_forward reports,
kept as RatFns rather than read back from their text.  A denominator's
terms can come in another order than the parsed text's, so a check's
value can differ in its last bits; it only decides whether |g| < 1e-4,
and no residual reads it.
"""

import math
import random
from itertools import islice

from .poly import X, U, T as TIME, mono_pairs
from .ratfn import _POLE
from .equivalence import PullbackContext
from .errors import SingularTrajectory, DenominatorZero, UsageError

_VANISH = "assumption vanishes on the trajectory"

# Most steps.  The trajectory is kept whole, about 575 B a step with three
# states (tracemalloc's peak on phi: 0.54, 5.52 and 57.49 MB at 10^3, 10^4
# and 10^5 steps), so 10^9 steps would run out of memory; and past 10^4
# steps the five-point derivative's rounding error, which grows as 1/h,
# outweighs RK4's (docs/decisions.md, "The -N bound").
MAX_STEPS = 100_000

# Most terms in one generated sum statement; see float_lines.
_SUM_TERMS = 100


def float_lines(exprs, names, outs, ns, pows, pad="    "):
    """Straight-line source that sets the local outs[k] to the float value
    of exprs[k], reading each variable v from the local names[v].

    Per expression it runs the term-by-term loop n = 0.0; n += c * a ** e
    * ... over the num dict in its term order, with c = float(coefficient)
    and each term's factors in ascending variable order (the reverse of
    the monomial's own, which puts the largest variable first);
    the same for the denominator; DenominatorZero if it is 0.0; then n / d.
    Three steps of that loop are left out, as they are exact in IEEE
    arithmetic: a coefficient 1 of a nonconstant term (1.0 * x is x), a
    denominator 1 (n / 1.0 is n, and 1.0 is never 0.0), and a power with
    exponent 1 (x ** 1 is x, and float pow returns an infinity or a NaN
    unchanged, without raising).  The sum still starts from 0.0, since
    0.0 + -0.0 is +0.0, and it is one expression 0.0 + t1 + t2 + ..., which
    adds from the left as the loop does; past _SUM_TERMS terms it goes on
    in a new statement n = n + ..., as longer sums pass the compiler's
    recursion limit.
    Each power a ** e with e >= 2 is computed once per point: its first
    textual use is (q := a ** e) and later uses read q.  pows maps (v, e)
    to q; pass one fresh dict per point, shared by all the lines that point
    runs.  The source holds only float literals (repr of float(c)), names
    from names, outs and pows, and int exponents, never text from the
    expressions.  A coefficient that overflows float() is bound in ns as
    big<i> and converted when reached, so its OverflowError comes at the
    same moment.  The lines also assign n, d and q<i>.  A variable missing
    from names raises KeyError.
    """
    def power(v, e):
        if e == 1:
            return names[v]
        q = pows.get((v, e))
        if q is None:
            q = pows[v, e] = "q%d" % len(pows)
            return "(%s := %s ** %d)" % (q, names[v], e)
        return q

    def term(m, c):
        factors = [power(v, e) for v, e in mono_pairs(m)]
        if c != 1 or not factors:
            try:
                factors.insert(0, repr(float(c)))
            except OverflowError:
                name = "big%d" % len(ns)
                ns[name] = c
                factors.insert(0, "float(%s)" % name)
        return " * ".join(factors)

    lines = []
    for r, out in zip(exprs, outs):
        sums = [(out, r.num)] if r.is_poly() else [("n", r.num), ("d", r.den)]
        for acc, poly in sums:
            terms = [term(m, c) for m, c in poly.items()]
            first = "0.0"
            for i in range(0, max(len(terms), 1), _SUM_TERMS):
                lines.append("%s%s = %s" % (pad, acc, " + ".join(
                    [first] + terms[i:i + _SUM_TERMS])))
                first = acc
        if not r.is_poly():
            lines += [pad + "if d == 0.0:",
                      pad + "    raise DenominatorZero(POLE)",
                      "%s%s = n / d" % (pad, out)]
    return lines


def float_functions(lines, ns, *fnames):
    """Define the generated source with ns as its globals, adding no
    builtins but float, and DenominatorZero and POLE for float_lines (the
    crosscheck's ns also holds range, zip, islice, abs and VANISH); then
    take the named functions out of ns, so nothing refers back to them
    through their globals.  Nothing is cached: they are the caller's."""
    ns.update({"__builtins__": {}, "float": float,
               "DenominatorZero": DenominatorZero, "POLE": _POLE})
    exec("\n".join(lines), ns)
    return [ns.pop(f) for f in fnames]


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


def forward_assumptions(m):
    """The denominators that pulling the target field back along m moves
    across, sorted by their text: verify_forward(m).assumptions as
    RatFns."""
    ctx = PullbackContext(m)
    for f in m.tgt.f:
        ctx.pull(f)
    return [ctx.assumptions[t] for t in sorted(ctx.assumptions)]


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


def _flat(ucoeffs, us):
    """The coefficients of every u in us, in one list."""
    return [c for v in us for c in _u_coeffs(ucoeffs, v)]


def _tuple(names):
    """A tuple display or target of names, of any length."""
    return "(%s)" % "".join(n + ", " for n in names)


def _controls(us, shape):
    """Per u in us, the names p<j>_<i> of its coefficients in the generated
    code: as many as _u_coeffs gives for controls of the lengths in shape."""
    return [["p%d_%d" % (j, i)
             for i in range(len(_u_coeffs(shape, v)))]
            for j, v in enumerate(us)]


def _horner(coeffs, t):
    """acc = acc * t + c from the top coefficient down, from acc = 0.0."""
    acc = "0.0"
    for c in reversed(coeffs):
        acc = "(%s * %s + %s)" % (acc, t, c)
    return acc


def _names(n, x, us, w, t="t"):
    """float_lines names: time t, states x<i>, the controls us as w<j>."""
    names = {TIME: t}
    names.update((X(i + 1), "%s%d" % (x, i + 1)) for i in range(n))
    names.update((u, "%s%d" % (w, j)) for j, u in enumerate(us))
    return names


def _loops(m, assumptions, src_us, map_us, lens):
    """The generated rk4, image and residual functions of one crosscheck,
    for controls whose coefficient lists have the lengths lens."""
    src, tgt = m.src, m.tgt
    shape = [[0.0] * k for k in lens]
    ns = {"range": range, "zip": zip, "islice": islice, "abs": abs,
          "VANISH": _VANISH}
    xs = ["x%d" % (i + 1) for i in range(src.n)]
    # a stage state the source field does not read is not computed: float
    # + and * never raise, so leaving it out drops no exception
    reads = set().union(*(f.vars() for f in src.f))
    staged = [i for i in range(1, src.n + 1) if X(i) in reads]
    p = _controls(src_us, shape)
    lines = ["def rk4(T, steps, x0, cf):",
             "    %s = x0" % _tuple(xs),
             "    %s = cf" % _tuple(c for cs in p for c in cs),
             "    t0 = 0.0",
             "    h = (T - t0) / steps",
             "    h2 = h / 2",
             "    h6 = h / 6",
             "    ts = [t0]",
             "    xs = [%s]" % _tuple(xs),
             "    for k in range(steps):"]
    pad = " " * 8
    # (time, its value if new, step from x to the stage's states): stages 2
    # and 3 share t + h/2 and its controls
    stages = [("t", "t0 + k * h", None), ("tm", "t + h2", "h2"),
              ("tm", None, "h2"), ("te", "t + h", "h")]
    for s, (t, at, step) in enumerate(stages, 1):
        if at:
            lines.append("%s%s = %s" % (pad, t, at))
            lines += ["%sw%d = %s" % (pad, j, _horner(cs, t))
                      for j, cs in enumerate(p)]
        if step:
            lines += ["%ss%d = x%d + %s * k%d_%d" % (pad, i, i, step, s - 1, i)
                      for i in staged]
        names = _names(src.n, "s" if step else "x", src_us, "w", t)
        outs = ["k%d_%d" % (s, i) for i in range(1, src.n + 1)]
        lines += float_lines(src.f, names, outs, ns, {}, pad)
    lines += ["%sx%d = x%d + h6 * (k1_%d + 2 * k2_%d + 2 * k3_%d + k4_%d)"
              % ((pad,) + (i,) * 6) for i in range(1, src.n + 1)]
    lines += [pad + "ts.append(t0 + (k + 1) * h)",
              pad + "xs.append(%s)" % _tuple(xs),
              "    return ts, xs"]

    # the image pass: controls and checks point by point, then y, then v
    p = _controls(map_us, shape)
    point = ["t"] + xs + ["w%d" % j for j in range(len(map_us))]
    names = _names(src.n, "x", map_us, "w")
    lines += ["def image(ts, xs, cf):",
              "    %s = cf" % _tuple(c for cs in p for c in cs),
              "    pts = []",
              "    for t, %s in zip(ts, xs):" % _tuple(xs)]
    lines += ["%sw%d = %s" % (pad, j, _horner(cs, "t"))
              for j, cs in enumerate(p)]
    pows = {}
    for g in assumptions:
        lines += float_lines([g], names, ["g"], ns, pows, pad)
        lines += [pad + "if abs(g) < 0.0001:",
                  pad + "    raise DenominatorZero(VANISH)"]
    lines.append(pad + "pts.append(%s)" % _tuple(point))
    for acc, exprs in (("ys", m.y), ("vs", m.v)):
        outs = ["r%d" % i for i in range(len(exprs))]
        lines += ["    %s = []" % acc,
                  "    for %s in pts:" % ", ".join(point)]
        lines += float_lines(exprs, names, outs, ns, {}, pad)
        lines.append("%s%s.append(%s)" % (pad, acc, _tuple(outs)))
    lines.append("    return ts, ys, vs")

    # the residual: five-point dy/dt against the target field, NaN-sticky
    # max, over the window ys[idx - 2:idx + 3] of each interior idx
    ys = ["y%d" % (i + 1) for i in range(tgt.n)]
    names = _names(tgt.n, "y", [U(j + 1) for j in range(tgt.s)], "v")
    window = [_tuple(y + tag for y in ys)
              for tag in ("m2", "m1", "", "p1", "p2")]
    views = ["ys"] + ["islice(ys, %d, None)" % k for k in range(1, 5)]
    lines += ["def residual(ts, ys, vs, h, steps):",
              "    worst = 0.0",
              "    h12 = 12 * h",
              "    for t, %s, %s in zip(islice(ts, 2, steps - 1), %s, "
              "islice(vs, 2, None)):" % (
                  ", ".join(window), _tuple("v%d" % j for j in range(tgt.s)),
                  ", ".join(views))]
    lines += ["%sdy%d = (-y%dp2 + 8 * y%dp1 - 8 * y%dm1 + y%dm2) / h12"
              % ((pad,) + (i,) * 5) for i in range(1, tgt.n + 1)]
    outs = ["f%d" % i for i in range(1, tgt.n + 1)]
    lines += float_lines(tgt.f, names, outs, ns, {}, pad)
    for i in range(1, tgt.n + 1):  # r != r: max() would drop a NaN
        lines += ["%sr = abs(dy%d - f%d)" % (pad, i, i),
                  pad + "if r != r or r > worst:",
                  pad + "    worst = r"]
    lines.append("    return worst")
    return float_functions(lines, ns, "rk4", "image", "residual")


def numeric_crosscheck(m, seed=0, T=1.0, tol=1e-6, steps=1000,
                       controls=None):
    """Integrate the source under random polynomial controls, push the
    trajectory through the map, and measure how far the image is from
    solving the target.

    Controls are cubics with seeded coefficients; a draw whose trajectory
    runs through a recorded nonzero-assumption is thrown away and redrawn
    (up to ten times, then SingularTrajectory).  Passing explicit
    `controls` (one coefficient list per source control, constant term
    first) skips redrawing: a singular hit raises immediately, which is how
    the guard is tested.

    The residual is max over interior grid points and target states of
    |dy_i/dt - f_i(t, y, v)| with the derivative taken by five-point
    central differences on the dense grid, so it needs steps >= 4, and at
    most MAX_STEPS.  T is
    the time horizon and tol the pass bound, both finite and positive.
    A NaN residual fails, and so does an OverflowError in the target
    field while measuring: the residual is then inf.

    The residual and tol are absolute.  The five-point error grows with
    the size of the field, so a correct map can fail at the default grid:
    the identity map of a 3-state, 32-control system whose every f_i is a
    sum of 32 terms x_k*u_j reads 1.551e-05 at 1,000 steps and passes at
    4,000 (6.275e-08).
    """
    if not 4 <= steps <= MAX_STEPS:
        raise UsageError("steps must be from 4 to %d, got %d"
                         % (MAX_STEPS, steps))
    if not (math.isfinite(T) and T > 0):
        raise UsageError("T must be finite and positive, got %r" % T)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError("tol must be finite and positive, got %r" % tol)
    src = m.src
    if controls is not None and len(controls) != src.s:
        raise UsageError("controls must give one coefficient list per "
                         "source control (%d), got %d"
                         % (src.s, len(controls)))
    rng = random.Random(seed)
    assumptions = forward_assumptions(m)
    src_us = _reads(src.f)
    map_us = _reads(m.y + m.v + tuple(assumptions))
    lens = ([len(c) for c in controls] if controls is not None
            else [4] * src.s)
    rk4, image, residual = _loops(m, assumptions, src_us, map_us, lens)

    attempts = 0
    while True:
        attempts += 1
        if controls is not None:
            ucoeffs = [list(map(float, c)) for c in controls]
        else:
            ucoeffs = [[rng.uniform(-1.0, 1.0) for _ in range(4)]
                       for _ in range(src.s)]
        x0 = [rng.uniform(-2.0, 2.0) for _ in range(src.n)]
        try:
            ts, xs = rk4(T, steps, x0, _flat(ucoeffs, src_us))
            ts, ys, vs = image(ts, xs, _flat(ucoeffs, map_us))
        except (DenominatorZero, OverflowError) as exc:
            if controls is not None or attempts >= 10:
                raise SingularTrajectory(
                    "no nonsingular trajectory after %d draws (%s); the map "
                    "is only defined off its recorded singular set"
                    % (attempts, exc))
            continue
        break
    try:
        worst = residual(ts, ys, vs, T / steps, steps)
    except OverflowError:  # the target field passed the float range
        worst = math.inf
    return CrosscheckResult(worst, tol, T, seed, attempts)
