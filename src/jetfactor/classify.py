"""Static and dynamic classification of small control-affine systems.

Every affine system with at most three states is locally static equivalent,
near a regular point, to one entry of a short list of normal forms.  This
module computes a bracket/rank signature of the affine decomposition at a
generic point (static_invariants), matches it against a decision table per
state count (classify_static), and for the three-state two-control forms
maps the resulting tag to one of the three dynamic classes (dynamic_class).

The decision tables are keyed on invariants of static equivalence only:
the generic rank of df/du, whether the drift lies in the span D of the
control fields, involutivity of D, the dimension of the strong-accessibility
span C0 (controls plus iterated brackets up to length three), and -- for the
single-control three-state forms, which the base invariants do not separate
-- whether the drift lies in C0 and whether D extended by the drift brackets
is involutive.  Each table row was validated by running the brute-force
bracket computation on the normal form itself.

static_invariants draws one seeded sample of points over the variables of
the drift and the control fields and takes every rank as the largest over
that sample; the first point where all of them are at their largest is
kept as the regular-point witness.  Only bracket values at those points
are ever read, so no bracket is built as a rational function: each field's
first and second partials are taken once, its 2-jet (value, Jacobian,
Hessian) is evaluated exactly at each point and scaled there by one
integer, and every bracket value is integer arithmetic on those jets.
Level two brackets every pair of the drift and the control fields, level
three brackets those with each of them again, and the closure of D2
brackets its own generators, up to the first bracket that leaves D2.
Each span keeps one integer echelon basis per point (ratfn.int_echelon),
grown from a sub-span's basis by the rows it adds, so the rows of the
sub-span are not reduced again.  A basis of n rows (the state count) stands for every span that
contains it, so no row is built or reduced there: level three is
bracketed only at the points where the controls and level two fall
short of n, each D2-closure bracket only where D2 does, and a level-two
bracket's Jacobian only where one of those reads it.  Every rank is the
exact rank over Q at its point, and so is the witness.

builtin_fixtures returns the five explicit equivalence pairs used across the
test-suite: three strict order-(0,0) pairs among the x2*u1 / x2 / 1+x2*u1
forms, the decoupling variant, and a two-state/four-state prolongation pair.
"""

import random

from .ratfn import (RatFn, ZERO, ONE, T, X, U, cleared, int_echelon,
                    gauss_jordan)
from .jets import ControlSystem, to_affine, sample_points
from .errors import UnclassifiedSignature, OutOfTable, DimensionMismatch
from .equivalence import EquivMap


class StaticClass:
    """One entry of the normal-form list: (n, s) plus the rhs tag."""

    __slots__ = ("n", "s", "tag")

    def __init__(self, n, s, tag):
        self.n = n
        self.s = s
        self.tag = tag

    def __eq__(self, o):
        return (isinstance(o, StaticClass) and self.n == o.n
                and self.s == o.s and self.tag == o.tag)

    def __hash__(self):
        return hash((self.n, self.s, self.tag))

    def __repr__(self):
        return "StaticClass(n=%d, s=%d, %r)" % (self.n, self.s, self.tag)


class DynClass:
    def __init__(self, name):
        self.name = name

    def __eq__(self, o):
        return isinstance(o, DynClass) and self.name == o.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


CLASS1 = DynClass("Class1")
CLASS2 = DynClass("Class2")
CLASS3 = DynClass("Class3")


class InvariantRecord:
    """Bracket/rank signature of an affine system at a generic point.

    point is a witnessing sample where every rank reaches its generic
    value.  Each rank is that of bracket values at the sample points,
    computed from the fields' 2-jets there, each field's jet scaled by a
    nonzero integer; a row scaled by a nonzero constant spans the same
    line, so the ranks are those of the brackets' exact values (see
    static_invariants).  drift_in_C0 and involutive_D2 only matter for the
    single-control three-state forms; they are computed for every input.
    involutive_D2 is a static invariant only with one control: feedback
    u -> u + R x adds multiples of the brackets [g_i, g_j] to the drift
    brackets, so on statically moved x3' = x2*u1 and x3' = 1+x2*u1 it
    reads True where the normal form reads False.
    """

    def __init__(self, rank_fu, involutive_D, drift_in_D, dim_C0, point,
                 drift_in_C0, involutive_D2):
        self.rank_fu = rank_fu
        self.involutive_D = involutive_D
        self.drift_in_D = drift_in_D
        self.dim_C0 = dim_C0
        self.point = dict(point)
        self.drift_in_C0 = drift_in_C0
        self.involutive_D2 = involutive_D2

    def __repr__(self):
        return ("InvariantRecord(rank_fu=%d, involutive_D=%s, drift_in_D=%s, "
                "dim_C0=%d, drift_in_C0=%s, involutive_D2=%s)"
                % (self.rank_fu, self.involutive_D, self.drift_in_D,
                   self.dim_C0, self.drift_in_C0, self.involutive_D2))


def _jet_exprs(v):
    """A field's components, their first partials d v_i/d x_k and their
    second partials d2 v_i/d x_k d x_m for k <= m, flattened in that
    order; a partial in a state the expression does not mention is ZERO
    without a kernel call, and each expression's variables are read once."""
    v = list(v)
    xs = [X(k + 1) for k in range(len(v))]

    def partials(e, xs):
        mentioned = e.vars()
        return [e.diff(x) if x in mentioned else ZERO for x in xs]

    jac = [partials(c, xs) for c in v]
    hess = [e for row in jac for k in range(len(xs))
            for e in partials(row[k], xs[k:])]
    return v + [e for row in jac for e in row] + hess


def _scaled_jet(vals, n):
    """(value, Jacobian, Hessian) of one field at one point, from the
    (n, d) values of its _jet_exprs there, all scaled by the lcm of their
    denominators to ints."""
    ints = cleared(vals)
    jac = [ints[n * (i + 1):n * (i + 2)] for i in range(n)]
    second = iter(ints[n * (n + 1):])
    hess = [[[0] * n for _ in range(n)] for _ in range(n)]
    for h in hess:
        for k in range(n):
            for m in range(k, n):
                h[k][m] = h[m][k] = next(second)
    return ints[:n], jac, hess


def _bracket(a, b):
    """The value of [a, b] at one point, from the values and Jacobians of
    jets a, b there: [a, b]_i = sum_k Jb_ik a_k - Ja_ik b_k."""
    av, aj, bv, bj = a[0], a[1], b[0], b[1]
    r = range(len(av))
    return [sum(bj[i][k] * av[k] - aj[i][k] * bv[k] for k in r) for i in r]


def _bracket_jacobian(a, b):
    """The Jacobian of [a, b] at one point, from 2-jets a, b there: the
    partial of [a, b]_i in x_m is
    sum_k Hb_ikm a_k + Jb_ik Ja_km - Ha_ikm b_k - Ja_ik Jb_km."""
    (av, aj, ah), (bv, bj, bh) = a, b
    r = range(len(av))
    return [[sum(bh[i][k][m] * av[k] + bj[i][k] * aj[k][m]
                 - ah[i][k][m] * bv[k] - aj[i][k] * bj[k][m] for k in r)
             for m in r] for i in r]


def static_invariants(a, seed=0):
    """Signature of an AffineForm (or affine ControlSystem) at a generic point.

    No bracket is built as a RatFn.  Each field's first and second
    partials are taken once, symbolically; at each sample point the
    field's value, Jacobian and Hessian (its 2-jet) are evaluated exactly
    and scaled by one integer, the lcm of their denominators.  Every
    bracket value needed is then integer arithmetic on those jets: level
    two from the values and Jacobians, and level three and the D2 closure
    from those and the Jacobians of level two, which are built from the
    2-jets.  For constants L and M, [L a, M b] = L M [a, b], so each value
    is an exact nonzero multiple of the bracket's value at that point,
    and ranks are unchanged.

    Each span holds one echelon basis per point (ratfn.int_echelon),
    extended from the basis of a sub-span by the rows the span adds:
    gens + [f0], gens + [b], gens + level two and D2 from gens, c0 from
    gens + level two by level three, c0 + [f0] from c0 and D2 + [bracket]
    from D2.  The rank of gens + level two is read for that only and is
    not an invariant.  A span's rank is at least that of any sub-span and
    at most n, so a basis of n rows stands for every span that contains
    it: no row is built or reduced there.  So level three is built only
    at the points where gens + level two fall short of n, a D2-closure
    bracket only where D2 does, and a level-two Jacobian only at a point
    where one of those reads it.  Each rank at each point is the exact
    rank over Q, and so are the maxima and the witness.

    Every rank is the largest over one seeded sample of 5 points, so it is
    a lower bound on the rank over the rational functions, exact once it
    reaches the number of fields or of states.  A point reads a lower rank
    only if the cleared numerator of a nonzero minor of full size, of
    degree d, vanishes there: probability at most d/198 (Schwartz 1980;
    Zippel 1979).  The witness is the first point where every rank taken
    is at its largest; without one UnclassifiedSignature is raised.
    """
    if isinstance(a, ControlSystem):
        a = to_affine(a)
    n, s = a.n, a.s
    if n > 3:
        raise DimensionMismatch("classification covers up to three states")

    # the partials' denominators divide powers of the fields', so they
    # are finite wherever the fields are; each pool entry is one field's
    # scaled 2-jet at every sample point
    exprs = [_jet_exprs(v) for v in [a.f0] + list(a.fvecs)]
    w = len(exprs[0])
    sample = list(sample_points([e for ex in exprs for e in ex], seed))
    points = [pt for pt, _ in sample]
    pool = [[_scaled_jet(vals[i * w:(i + 1) * w], n) for _, vals in sample]
            for i in range(s + 1)]
    taken = []      # each rank at every point, for the witness

    def extend(bases, rows):
        # rows(k) is built and reduced only where the basis is short of n
        return [b if len(b) == n else int_echelon(b, rows(k))
                for k, b in enumerate(bases)]

    def rank(bases):
        at = [len(b) for b in bases]
        taken.append(at)
        return max(at)

    # level 2 is [f0, g_j] for each j, then [g_i, g_j] for i < j, as
    # values at every point; a zero [f0, g_j] in D2 moves no rank.  Its
    # Jacobian is built once, at a point where level 3 or the D2 closure
    # reads it
    f0, gens = pool[0], pool[1:]
    pairs = [(i, j) for i in range(s + 1) for j in range(i + 1, s + 1)]
    level2 = [[_bracket(x, y) for x, y in zip(pool[i], pool[j])]
              for i, j in pairs]
    jets2 = {}

    def jet2(m, k):
        if (m, k) not in jets2:
            i, j = pairs[m]
            jets2[m, k] = (level2[m][k],
                           _bracket_jacobian(pool[i][k], pool[j][k]))
        return jets2[m, k]

    ech_gens = extend([[]] * len(points), lambda k: [g[k][0] for g in gens])
    rank_fu = rank(ech_gens)
    drift_in_D = rank(extend(ech_gens, lambda k: [f0[k][0]])) == rank_fu
    involutive_D = all(rank(extend(ech_gens, lambda k: [b[k]])) == rank_fu
                       for b in level2[s:])
    # level 3 only where gens and level 2 fall short of n; their rank is
    # not an invariant, so it is not taken
    ech_low = extend(ech_gens, lambda k: [b[k] for b in level2])
    ech_c0 = extend(ech_low, lambda k: [_bracket(jet2(m, k), p[k])
                                        for m in range(len(pairs))
                                        for p in pool])
    dim_C0 = rank(ech_c0)
    drift_in_C0 = rank(extend(ech_c0, lambda k: [f0[k][0]])) == dim_C0
    ech_d2 = extend(ech_gens, lambda k: [b[k] for b in level2[:s]])
    rank_D2 = rank(ech_d2)

    def d2(i, k):
        return gens[i][k] if i < s else jet2(i - s, k)

    involutive_D2 = all(
        rank(extend(ech_d2, lambda k: [_bracket(d2(i, k), d2(j, k))]))
        == rank_D2 for i in range(2 * s) for j in range(i + 1, 2 * s))

    witness = next((pt for k, pt in enumerate(points)
                    if all(at[k] == max(at) for at in taken)), None)
    if witness is None:
        raise UnclassifiedSignature(
            "no regular sample point found; the invariants do not stabilize")
    return InvariantRecord(rank_fu, involutive_D, drift_in_D, dim_C0, witness,
                           drift_in_C0, involutive_D2)


# decision tables; every row validated by running static_invariants on the
# normal form itself (see the classify test-suite)

_TABLE_32 = {
    (True, True, 2): "u1, u2, 0",
    (False, True, 2): "u1, u2, 1",
    (False, True, 3): "u1, u2, x2",
    (True, False, 3): "u1, u2, x2*u1",
    (False, False, 3): "u1, u2, 1+x2*u1",
}

_TABLE_31 = {
    (True, 1, True, True): "u1, 0, 0",
    (False, 1, False, True): "u1, 1, 0",
    (False, 2, True, True): "u1, x1, 0",
    (False, 2, False, True): "u1, x1, 1",
    (False, 3, True, True): "u1, x1, x2",
    (False, 3, True, False): "u1, H(x)*u1, 1+x2*u1",
}

_TABLE_21 = {
    (True, 1): "u1, 0",
    (False, 1): "u1, 1",
    (False, 2): "u1, x1",
}


def classify_static(sys_, seed=0):
    """Match a small affine system against the normal-form list.

    Decision is by the invariant signature at a generic point; a signature
    outside every table raises UnclassifiedSignature carrying the record.
    """
    rec = static_invariants(to_affine(sys_), seed=seed)
    n = sys_.n
    r = rec.rank_fu

    if r == n:
        # full feedback: x_i' = u_i
        return StaticClass(n, r, ", ".join("u%d" % (i + 1) for i in range(n)))
    if r == 0:
        tag = ("1" if not rec.drift_in_D else "0")
        if n >= 2:
            tag = ", ".join([tag] + ["0"] * (n - 1))
        return StaticClass(n, 0, tag)

    if n == 2 and r == 1:
        key = (rec.drift_in_D, rec.dim_C0)
        if key in _TABLE_21:
            return StaticClass(2, 1, _TABLE_21[key])
    elif n == 3 and r == 2:
        key = (rec.drift_in_D, rec.involutive_D, rec.dim_C0)
        if key in _TABLE_32:
            return StaticClass(3, 2, _TABLE_32[key])
    elif n == 3 and r == 1:
        key = (rec.drift_in_D, rec.dim_C0, rec.drift_in_C0, rec.involutive_D2)
        if key in _TABLE_31:
            return StaticClass(3, 1, _TABLE_31[key])

    raise UnclassifiedSignature("no table row matches %r" % rec)


def dynamic_class(c):
    """The three-way split of the three-state two-control forms."""
    if not isinstance(c, StaticClass) or (c.n, c.s) != (3, 2):
        raise OutOfTable("dynamic classes are defined for the (3, 2) forms")
    if c.tag in ("u1, u2, x2", "u1, u2, x2*u1", "u1, u2, 1+x2*u1"):
        return CLASS1
    if c.tag == "u1, u2, 0":
        return CLASS2
    if c.tag == "u1, u2, 1":
        return CLASS3
    raise OutOfTable("no dynamic class for tag %r" % c.tag)


# ---------------------------------------------------------------------------
# built-in systems and equivalence fixtures

def _x(i):
    return RatFn.var(X(i))


def _u(j, k=0):
    return RatFn.var(U(j, k))


def elkin_forms_32():
    """The five three-state two-control normal forms, in table order."""
    x2 = _x(2)
    u1, u2 = _u(1), _u(2)
    one = ONE
    return [
        ControlSystem(3, 2, (u1, u2, ZERO), name="x3'=0"),
        ControlSystem(3, 2, (u1, u2, one), name="x3'=1"),
        ControlSystem(3, 2, (u1, u2, x2), name="x3'=x2"),
        ControlSystem(3, 2, (u1, u2, x2 * u1), name="x3'=x2*u1"),
        ControlSystem(3, 2, (u1, u2, one + x2 * u1), name="x3'=1+x2*u1"),
    ]


def builtin_fixtures():
    """The five explicit equivalence pairs, forward and inverse.

    Order: phi (x2*u1 <-> x2), psi (1+x2*u1 <-> x2), theta
    (x2*u1 <-> 1+x2*u1), the decoupling variant of phi, and the
    two-state/four-state prolongation pair.
    """
    x1, x2, x3 = _x(1), _x(2), _x(3)
    u1, u2 = _u(1), _u(2)
    u1d, u2d = _u(1, 1), _u(2, 1)

    sigma = ControlSystem(3, 2, (u1, u2, x2 * u1), name="x3'=x2*u1")
    lam = ControlSystem(3, 2, (u1, u2, x2), name="x3'=x2")
    zee = ControlSystem(3, 2, (u1, u2, ONE + x2 * u1), name="x3'=1+x2*u1")

    phi = EquivMap(sigma, lam,
                   (x1 * x2 - x3, u2, x2),
                   (x1 * u2, u2d), name="phi")
    phi_inv = EquivMap(lam, sigma,
                       (u1 / x2, x3, x3 * u1 / x2 - x1),
                       ((x2 * u1d - u1 * u2) / (x2 * x2), x2), name="phi_inv")

    psi = EquivMap(zee, lam,
                   (x3 - x1 * x2, u2, x2),
                   (ONE - x1 * u2, u2d), name="psi")
    psi_inv = EquivMap(lam, zee,
                       ((ONE - u1) / x2, x3, x1 + x3 * (ONE - u1) / x2),
                       ((u1 * u2 - u2 - x2 * u1d) / (x2 * x2), x2),
                       name="psi_inv")

    theta = EquivMap(sigma, zee,
                     (ONE / u2 - x1, x2, x2 / u2 - x3),
                     (ZERO - u1 - u2d / (u2 * u2), u2), name="theta")
    theta_inv = EquivMap(zee, sigma,
                         (ONE / u2 - x1, x2, x2 / u2 - x3),
                         (ZERO - u1 - u2d / (u2 * u2), u2), name="theta_inv")

    dec = EquivMap(sigma, lam,
                   (x3 - x1 * x2, u2, x2),
                   (ZERO - x1 * u2, u2d), name="dec")
    dec_inv = EquivMap(lam, sigma,
                       (ZERO - u1 / x2, x3, x1 - x3 * u1 / x2),
                       ((u1 * u2 - x2 * u1d) / (x2 * x2), x2), name="dec_inv")

    two = ControlSystem(2, 2, (u1, u2), name="planar")
    four = ControlSystem(4, 2, (x3, _x(4), u1, u2), name="planar+tot")
    pro = EquivMap(two, four, (x1, x2, u1, u2), (u1d, u2d), name="pro")
    pro_inv = EquivMap(four, two, (x1, x2), (x3, _x(4)), name="pro_inv")

    return [(phi, phi_inv), (psi, psi_inv), (theta, theta_inv),
            (dec, dec_inv), (pro, pro_inv)]


# ---------------------------------------------------------------------------
# random static transforms (test support for the invariance properties)

def _rand_invertible(rng, k):
    """A random invertible k x k int matrix and its inverse, from one
    Gauss-Jordan elimination of [m | I]; singular draws are redrawn."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        a = [row + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
        if len(gauss_jordan(a, k)) == k:
            return m, [row[k:] for row in a]


def _lincomb(coeffs, exprs, shift=None):
    acc = shift if shift is not None else ZERO
    for c, e in zip(coeffs, exprs):
        if c != 0:
            acc = acc + RatFn.const(c) * e
    return acc


def _random_transform(sys_, seed, timed):
    """y = P x + b t, v = Q u + R x + d t with small integer P, Q, R, b, d
    and P, Q invertible; b = d = 0 unless `timed`.  Returns (forward,
    inverse, transformed_system); the transformed system is the rhs
    rewritten in the new variables, which stays affine."""
    n, s = sys_.n, sys_.s
    rng = random.Random(seed)
    P, Pi = _rand_invertible(rng, n)
    Q, Qi = _rand_invertible(rng, s)
    R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(s)]
    if timed:
        b = [rng.randint(-3, 3) for _ in range(n)]
        dd = [rng.randint(-3, 3) for _ in range(s)]
    else:
        b, dd = [0] * n, [0] * s
    t = RatFn.var(T)

    xs = [_x(i + 1) for i in range(n)]
    us = [_u(j + 1) for j in range(s)]

    y = [_lincomb(P[i], xs, RatFn.const(b[i]) * t) for i in range(n)]
    v = [_lincomb(Q[j], us, _lincomb(R[j], xs, RatFn.const(dd[j]) * t))
         for j in range(s)]

    # in the new chart: x = Pi (x' - b t), u = Qi (u' - R x - d t)
    shifted = [xs[i] - RatFn.const(b[i]) * t for i in range(n)]
    xold = [_lincomb(Pi[i], shifted) for i in range(n)]
    uold_shift = [_lincomb(R[l], xold, RatFn.const(dd[l]) * t) for l in range(s)]
    uold = [_lincomb(Qi[j], us) - _lincomb(Qi[j], uold_shift) for j in range(s)]
    sub = {X(i + 1): xold[i] for i in range(n)}
    sub.update({U(j + 1): uold[j] for j in range(s)})
    # y' = P f + b
    fnew = [_lincomb(P[i], [fi.substitute(sub) for fi in sys_.f],
                     RatFn.const(b[i])) for i in range(n)]
    kind, mark = ("nonaut", "~t") if timed else ("static", "~")
    name = (sys_.name + "%s%d" % (mark, seed)) if sys_.name else ""
    newsys = ControlSystem(n, s, fnew, name=name)
    fwd = EquivMap(sys_, newsys, y, v, name="%s%d" % (kind, seed))
    inv = EquivMap(newsys, sys_, xold, uold, name="%s%d_inv" % (kind, seed))
    return fwd, inv, newsys


def random_static_transform(sys_, seed):
    """A seeded linear state change with affine invertible feedback:
    y = P x, v = Q u + R x.  Returns (forward, inverse, transformed_system)."""
    return _random_transform(sys_, seed, timed=False)


def random_nonaut_static_pair(sys_, seed):
    """Like random_static_transform but explicitly time-dependent:
    y = P x + b t, v = Q u + R x + d t.  Returns (forward, inverse,
    transformed_system)."""
    return _random_transform(sys_, seed, timed=True)
