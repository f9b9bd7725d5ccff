"""Control systems x' = f(t, x, u) and their jet-level calculus.

The state/control coordinates of *every* system are the kernel variables
X(i), U(j); a map between two systems is written in the source system's
variables (see equivalence.py).  Total time derivatives treat u_j^(k) as
independent coordinates whose derivative is u_j^(k+1), truncated nowhere:
D_t is exact on the infinite jet list, we just never materialize more
derivatives than an expression mentions.
"""

import random

from .poly import T, X, U
from .ratfn import (RatFn, ZERO, ONE, affine_parts, cleared, derivation,
                    gauss_jordan, int_echelon)
from .errors import (NotAffine, DimensionMismatch, EmptyPromotionSet,
                     DenominatorZero, DegenerateSystem)


class ControlSystem:
    """n states, s controls, f a tuple of n RatFn in t, x_i, u_j (order 0).

    Construction checks regularity: the rank of df/du over the rational
    functions must equal s.  The rank sampled at seeded integer points
    (generic_rank) is tried first, since one that reaches s is a proof; a
    shortfall, or no valid sample points, is decided exactly by
    ratfn.gauss_jordan, so only a singular df/du is rejected.  Pass
    check=False to skip when deliberately building something degenerate.
    """

    __slots__ = ("n", "s", "f", "name")

    def __init__(self, n, s, f, name="", check=True):
        f = tuple(f)
        if len(f) != n:
            raise DimensionMismatch("expected %d rhs components, got %d" % (n, len(f)))
        for i, fi in enumerate(f):
            for v in fi.vars():
                if v[0] == 1 and not (1 <= v[2] <= n):
                    raise DimensionMismatch("f%d mentions x%d but n=%d" % (i + 1, v[2], n))
                if v[0] == 2:
                    if v[1] != 0:
                        raise DimensionMismatch(
                            "f%d mentions a control derivative; rhs must be order 0" % (i + 1))
                    if not (1 <= v[2] <= s):
                        raise DimensionMismatch("f%d mentions u%d but s=%d" % (i + 1, v[2], s))
        self.n, self.s, self.f = n, s, f
        self.name = name
        if check and s:
            rows = [[fi.diff(U(j + 1)) for j in range(s)] for fi in f]
            try:
                r = generic_rank(rows)
            except DegenerateSystem:
                r = 0
            if r != s:
                r = len(gauss_jordan(rows, s))
            if r != s:
                raise DegenerateSystem(
                    "rank df/du = %d but the system declares %d controls" % (r, s))

    def __eq__(self, o):
        return (isinstance(o, ControlSystem) and self.n == o.n and self.s == o.s
                and self.f == o.f)

    def __hash__(self):
        return hash((self.n, self.s, self.f))

    def __repr__(self):
        return "ControlSystem(n=%d, s=%d, f=[%s])" % (
            self.n, self.s, ", ".join(fi.to_text() for fi in self.f))

    # -- total time derivative ------------------------------------------

    def D(self, expr):
        """D_t expr = d/dt + sum f_i d/dx_i + sum u_j^(k+1) d/du_j^(k):
        one ratfn.derivation over the variables expr mentions."""
        images = {T: ONE}
        for v in expr.vars():
            if v[0] == 1:
                images[v] = self.f[v[2] - 1]
            elif v[0] == 2:
                images[v] = RatFn.var(U(v[2], v[1] + 1))
        return derivation(expr, images)


# ---------------------------------------------------------------------------
# vector fields and the affine decomposition

class VectorField:
    """Components in the states x_1..x_n (t allowed, controls not)."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def n(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, o):
        return isinstance(o, VectorField) and self.components == o.components

    def __hash__(self):
        return hash(self.components)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return "VectorField(%s)" % ", ".join(c.to_text() for c in self.components)


class AffineForm:
    """f = f0 + sum_j u_j * fvecs[j-1] with all pieces free of controls."""

    __slots__ = ("f0", "fvecs")

    def __init__(self, f0, fvecs):
        self.f0 = f0
        self.fvecs = tuple(fvecs)

    @property
    def n(self):
        return self.f0.n

    @property
    def s(self):
        return len(self.fvecs)


def to_affine(sys_):
    """The affine decomposition f = f0 + sum_j u_j f_j of the rhs, each
    field split in one pass over its numerator's terms (affine_parts).
    Raises NotAffine otherwise, naming the smallest j whose partial
    df/du_j still mentions a control."""
    us = [U(j + 1) for j in range(sys_.s)]
    parts = [affine_parts(fi, us) for fi in sys_.f]
    if None in parts:
        for u in us:
            for fi in sys_.f:
                if any(v[0] == 2 for v in fi.diff(u).vars()):
                    raise NotAffine("rhs is not affine in u%d" % u[2])
        raise NotAffine("rhs component %d is not affine in the controls"
                        % (parts.index(None) + 1))
    cols = [VectorField(c) for c in zip(*parts)]
    return AffineForm(cols[0], cols[1:])


def lie_bracket(a, b):
    """[a, b]_i = sum_k a_k dB_i/dx_k - b_k dA_i/dx_k."""
    if not isinstance(a, VectorField):
        a = VectorField(a)
    if not isinstance(b, VectorField):
        b = VectorField(b)
    if a.n != b.n:
        raise DimensionMismatch("bracket of a %d-vector with a %d-vector" % (a.n, b.n))
    n = a.n
    out = []
    for i in range(n):
        acc = ZERO
        for k in range(n):
            acc = acc + a[k] * b[i].diff(X(k + 1)) - b[k] * a[i].diff(X(k + 1))
        out.append(acc)
    return VectorField(out)


# ---------------------------------------------------------------------------
# prolongations

def prolong_partial(sys_, promote):
    """Promote the controls in `promote` (1-based set) one derivative each.

    Promoted u_j becomes the state x_{n+r} (r = rank of j within the
    promoted set).  New control labels: the unpromoted controls come first
    in their original order, then the promoted derivatives, so promoting
    {1} of (u1, u2) gives v1 = u2 and v2 = u1'.  Promoting every control
    is the total prolongation: u_j becomes x_{n+j} and v_j = u_j'.
    """
    promote = sorted(set(promote))
    if not promote:
        raise EmptyPromotionSet("nothing to promote")
    for j in promote:
        if not (1 <= j <= sys_.s):
            raise DimensionMismatch("cannot promote u%d of an s=%d system" % (j, sys_.s))
    n, s = sys_.n, sys_.s
    kept = [j for j in range(1, s + 1) if j not in promote]
    sub = {}
    for r, j in enumerate(promote):
        sub[U(j)] = RatFn.var(X(n + r + 1))
    for r, j in enumerate(kept):
        sub[U(j)] = RatFn.var(U(r + 1))
    f = [fi.substitute(sub) for fi in sys_.f]
    for r, j in enumerate(promote):
        f.append(RatFn.var(U(len(kept) + r + 1)))
    return ControlSystem(n + len(promote), s, f,
                         name=sys_.name + "+p" if sys_.name else "")


# ---------------------------------------------------------------------------
# generic-point sampling

TRIALS = 5    # sample points per generic evaluation


def sample_point(vars_, rng):
    """Random integer point in [-99, 99] avoiding 0 (poles love 0)."""
    pt = {}
    for v in sorted(vars_):
        c = 0
        while c == 0:
            c = rng.randint(-99, 99)
        pt[v] = c
    return pt


def sample_points(exprs, seed=0):
    """Yield (point, values of exprs there) for TRIALS seeded integer
    points over the variables of exprs, skipping the poles of any of them;
    raises DegenerateSystem after 20 * TRIALS draws without enough.  Each
    value is the exact pair (n, d) of RatFn.eval_pair.  A constant has no
    pole, no variables and one value, so its pair is computed once, before
    the draws ((0, 1) for zero, without evaluating), and the points range
    over the other expressions' variables, which each draw evaluates."""
    exprs = list(exprs)
    fixed = [None if not e.is_const() else (0, 1) if e.is_zero()
             else e.eval_pair({}) for e in exprs]
    live = [(i, e) for i, e in enumerate(exprs) if fixed[i] is None]
    vars_ = set().union(*(e.vars() for _, e in live))
    rng = random.Random(seed)
    got = 0
    for _ in range(20 * TRIALS):
        pt = sample_point(vars_, rng)
        vals = fixed[:]
        try:
            for i, e in live:
                vals[i] = e.eval_pair(pt)
        except DenominatorZero:
            continue
        yield pt, vals
        got += 1
        if got == TRIALS:
            return
    raise DegenerateSystem("could not find %d valid sample points" % TRIALS)


def generic_rank(rows):
    """Max rank of a RatFn matrix over TRIALS seeded integer points.

    The result is a lower bound on the rank over the rational functions,
    exact once it reaches min(rows, cols).  A point reads a lower rank only
    if the cleared numerator of a nonzero minor of full size, of degree d,
    vanishes there; coordinates come from [-99, 99] without 0, so that
    happens with probability at most d/198 (Schwartz 1980; Zippel 1979).
    Its one caller, ControlSystem's regularity check, asks for full rank
    s: a rank that reaches s is proven, and a shortfall is decided there
    by ratfn.gauss_jordan, so no regular system is rejected on a sampled
    rank.  equivalence.block_rank is exact.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    width = len(rows[0])
    best = 0
    for _, vals in sample_points([e for r in rows for e in r]):
        m = [cleared(vals[i:i + width]) for i in range(0, len(vals), width)]
        best = max(best, len(int_echelon([], m)))
        if best == min(len(rows), width):
            break
    return best

