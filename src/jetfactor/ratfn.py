"""Exact multivariate rational functions over jet coordinates.

Variables are plain orderable tuples:

    T        = (0, 0, 0)            time
    X(i)     = (1, 0, i)            state x_i,  i >= 1
    U(j, k)  = (2, k, j)            k-th time derivative of control u_j

Tuple comparison gives the variable order used everywhere:
t < x_1 < x_2 < ... < u_1 < u_2 < ... < u_1' < u_2' < ...  (derivative level
major, control index minor).

A polynomial is a dict {monomial: coefficient}.  A monomial is one flat
tuple (d, v_k, e_k, ..., v_1, e_1): its total degree d, then each of its
variables with its exponent, largest variable first; () is the monomial 1.
Monomials are ordered graded-lex over the variable order: total degree
first, then the exponent vectors read from the largest variable down.
Plain tuple comparison is that order.  The degrees compare first; then the
(variable, exponent) pairs compare from the largest variable down, each
pair in the same two positions of both tuples, so the first pair that
differs decides, by the larger variable or, on one variable, the larger
exponent.  This order fixes the canonical sign, and sorted, max and insort
take no key.  Loops over a term's variables run in ascending order
wherever that order reaches a dict's insertion order or a float product.
The kernel's polynomials have int coefficients: p_mul, p_add, p_divexact
and the gcd work on ints.
A RatFn stores its value as N/(k*D): N an int polynomial, k >= 1 an int
prime to the content of N, and D integer-primitive with positive leading
coefficient and coprime to N.  The triple (N, k, D) is unique, so equality
compares it; scales combine by integer gcd and lcm.  The num and den
properties give the canonical pair (N/k, D), whose coefficients are ints
where integral and otherwise Fractions with denominator > 1; with k = 1,
num is N itself.  Gcds come with their cofactors (_cofactors): by a
monomial when one side has a single term, else by the heuristic integer
gcd GCDHEU with the primitive PRS as its fallback.  Instances are
immutable, so an operator may return an operand itself.  eval_pair()
returns an exact value as a reduced pair of ints; const_value() and
eval_at() return Fractions.

The operators skip the general formula (n1*d2 + n2*d1 over d1*d2, and so
on) and canonicalization wherever the canonical result is known without
them.  Elsewhere they take gcds of the factors, not of the product
(Henrici).  diff is the derivation with the one unit image, and skips
derivation's image front end.  affine_parts splits a field affine in
some variables in one pass over its numerator's terms.
Each docstring says why its result is canonical.
Results are the canonical triples of the general path; only the insertion
order of their terms can differ.  The kernel is exact and generates no
code: float evaluation lives in crosscheck.
"""

from bisect import insort
from fractions import Fraction
from math import gcd as igcd, isqrt, lcm

from .errors import DivisionByZero, SubstitutionPole, DenominatorZero

T = (0, 0, 0)

_POLE = "denominator vanishes at the sample point"


def X(i):
    return (1, 0, i)


def U(j, k=0):
    return (2, k, j)


def var_name(v):
    kind = v[0]
    if kind == 0:
        return "t"
    if kind == 1:
        return "x%d" % v[2]
    return "u%d%s" % (v[2], "'" * v[1])


# ---------------------------------------------------------------------------
# monomials

def mono_mul(m1, m2):
    """m1*m2: the two descending runs of variables merged in one pass; a
    one-variable factor, the common case, is placed by one scan."""
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 3:
        m1, m2 = m2, m1
    i, n = 1, len(m1)
    if len(m2) == 3:
        v = m2[1]
        while i < n and m1[i] > v:
            i += 2
        if i < n and m1[i] == v:
            return ((m1[0] + m2[0],) + m1[1:i + 1] + (m1[i + 1] + m2[2],)
                    + m1[i + 2:])
        return (m1[0] + m2[0],) + m1[1:i] + m2[1:] + m1[i:]
    out, j, n2 = [m1[0] + m2[0]], 1, len(m2)
    while i < n and j < n2:
        v, w = m1[i], m2[j]
        if v == w:
            out += v, m1[i + 1] + m2[j + 1]
            i += 2
            j += 2
        elif v > w:
            out += v, m1[i + 1]
            i += 2
        else:
            out += w, m2[j + 1]
            j += 2
    return tuple(out) + m1[i:] + m2[j:]


def mono_div(m1, m2):
    """m1 / m2 or None if m2 does not divide m1, one variable of m2 at a
    time: divisors are almost always a single variable."""
    j = len(m2) - 2
    while j > 0:
        v, e = m2[j], m2[j + 1]
        if v not in m1:
            return None
        i = m1.index(v)
        d, r = m1[0] - e, m1[i + 1] - e
        if r < 0:
            return None
        if r:
            m1 = (d, *m1[1:i + 1], r, *m1[i + 2:])
        else:
            m1 = (d, *m1[1:i], *m1[i + 2:]) if d else ()
        j -= 2
    return m1


# ---------------------------------------------------------------------------
# polynomials as {mono: coefficient} dicts (zero coeffs never stored)

def p_const(c):
    return {(): c} if c else {}


def _is_one(a):
    return len(a) == 1 and a.get(()) == 1


def p_add(a, b):
    r = dict(a)
    for m, c in b.items():
        s = r.get(m, 0) + c
        if s:
            r[m] = s
        elif m in r:
            del r[m]
    return r


def p_neg(a):
    return {m: -c for m, c in a.items()}


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_scale(a, c):
    """c*a; a itself when c is 1."""
    if c == 1:
        return a
    if not c:
        return {}
    return {m: k * c for m, k in a.items()}


def p_mul(a, b):
    if not a or not b:
        return {}
    r = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = r.get(m, 0) + c1 * c2
            if s:
                r[m] = s
            elif m in r:
                del r[m]
    return r


def p_pow(a, n):
    """a^n for n >= 0.  A one-term a = c*m gives c^n*m^n directly, with no
    lower powers: sysio leaves powers of a single term unbounded."""
    assert n >= 0
    if len(a) == 1 and n:
        (m, c), = a.items()
        return {tuple(x if i % 2 else x * n for i, x in enumerate(m)): c ** n}
    return _powers(a, n)[-1]


def _powers(a, k):
    """[a^0, a^1, ..., a^k]."""
    out = [p_const(1)]
    for _ in range(k):
        out.append(p_mul(out[-1], a))
    return out


def p_lead(a):
    """(monomial, coeff) of the graded-lex leading term."""
    m = max(a)
    return m, a[m]


def p_vars(a):
    """The variables of a, added in ascending order within each term."""
    s = set()
    for m in a:
        i = len(m) - 2
        while i > 0:
            s.add(m[i])
            i -= 2
    return s


def p_divexact(a, b):
    """Exact polynomial division; raises ArithmeticError when not exact.

    Int coefficients are divided over the integers, which for a primitive
    b is division over Q (Gauss's lemma); Fractions are divided as such.
    Quotient terms come out in descending graded-lex order.  The
    remainder's monomials wait in a sorted list, so each step takes the
    leading term off its end instead of scanning the remainder; an entry
    whose term has cancelled since is skipped.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    bm, bc = p_lead(b)
    r = dict(a)
    todo = sorted(r)
    q = {}
    while todo:
        am = todo.pop()
        ac = r.get(am)
        if ac is None:
            continue
        qm = mono_div(am, bm)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc = q[qm] = ac // bc if type(ac) is int else ac / bc
        if qc * bc != ac:
            raise ArithmeticError("inexact polynomial division")
        for m2, c2 in b.items():
            m = mono_mul(qm, m2)
            s = r.get(m, 0) - qc * c2
            if s:
                if m not in r:
                    insort(todo, m)
                r[m] = s
            else:
                r.pop(m, None)
    return q


# ---------------------------------------------------------------------------
# gcd: the heuristic GCDHEU, and the primitive PRS as its fallback

def _scaled_to_int(a):
    """(l, l*a) for l the lcm of a's coefficient denominators."""
    if all(type(c) is int for c in a.values()):
        return 1, a
    l = lcm(*(c.denominator for c in a.values()))
    return l, {m: c.numerator * (l // c.denominator) for m, c in a.items()}


def _content(ints, g=0):
    """gcd of g and the int coefficients of a polynomial; it stops at 1."""
    for c in ints.values():
        g = igcd(g, c)
        if g == 1:
            break
    return g


def _int_clear(a):
    """Scale a nonzero polynomial to a primitive integer one (content removed)."""
    _, a = _scaled_to_int(a)
    g = _content(a)
    return a if g == 1 else {m: c // g for m, c in a.items()}


def _univar(a, v):
    """View a as univariate in v: {deg: coefficient-dict}."""
    out = {}
    for m, c in a.items():
        e, rm = 0, m
        if v in m:
            i = m.index(v)
            e = m[i + 1]
            rm = (m[0] - e,) + m[1:i] + m[i + 2:] if m[0] > e else ()
        d = out.setdefault(e, {})
        s = d.get(rm, 0) + c
        if s:
            d[rm] = s
        elif rm in d:
            del d[rm]
    return {e: d for e, d in out.items() if d}


def _deg_in(a, v):
    """Degree of the nonzero polynomial a in the variable v."""
    return max(m[m.index(v) + 1] if v in m else 0 for m in a)


def _prem(a, b, v):
    """Pseudo-remainder of a by b with respect to v."""
    ub = _univar(b, v)
    db = max(ub)
    lb = ub[db]
    r = a
    while True:
        ur = _univar(r, v)
        if not ur:
            return r
        dr = max(ur)
        if dr < db:
            return r
        lr = ur[dr]
        # r <- lb*r - lr*b*v^(dr-db)
        shift = {(dr - db, v, dr - db): 1} if dr > db else {(): 1}
        r = p_sub(p_mul(lb, r), p_mul(p_mul(lr, b), shift))


def poly_gcd(a, b):
    """The gcd of a and b as a primitive integer polynomial with positive
    graded-lex leading coefficient; {(): 1} for coprime inputs.

    Both inputs are cleared to primitive integer polynomials and passed to
    _cofactors.  If one has a single term, the gcd is the monomial of
    least exponents common to every term.  Otherwise GCDHEU (Char, Geddes
    and Gonnet, J. Symbolic Comput. 7, 1989) computes it.  The largest
    variable v is set to an integer xi, the gcd of the two images in the
    other variables is found the same way (the integer content of each
    level is split off, and the common content multiplied back), and a
    candidate is rebuilt from the symmetric base-xi digits of that gcd's
    coefficients as the coefficients of powers of v.  Its primitive part
    is kept only if trial division shows that it divides both inputs; the
    two quotients are the cofactors.

    xi starts at 2*min(|a|, |b|) + 29, |.| the largest coefficient in
    absolute value, so every xi tried meets the CGG theorem's bound
    xi >= 2*min(|a|, |b|) + 2.  Under that bound a primitive candidate
    that divides both inputs is their gcd: an accepted result is exact,
    not probable.  If a candidate fails, xi grows to
    73794*xi*xi^(1/4)//27011 as in sympy's dmp_zz_heu_gcd, in integers
    (math.isqrt; a float root overflows for coefficients past 2^1024).
    The heuristic gives up after six values of xi at one level, or as
    soon as an image coefficient could pass _HEU_MAX_BITS (xi's bit
    length times the degree in v).  Each level multiplies that length by
    about the degree, so on many variables of high degree the integers
    outgrow the work of the PRS.  Only then does the primitive PRS
    (_gcd_prim) run.  Both give the same polynomial, since a primitive
    gcd over the integers is unique up to sign.
    """
    if not (a and b):
        return _primitive(_int_clear(a or b))[1] if a or b else {}
    return _cofactors(_int_clear(a), _int_clear(b))[0]


def _cofactors(a, b):
    """(g, a/g, b/g) for nonzero int polynomials a and b, g = poly_gcd(a, b).

    The cofactors keep a's and b's integer content.  When g is 1 they are
    a and b themselves; otherwise their terms come in descending graded-lex
    order, the order p_divexact gives.  With a one-term operand g is the
    monomial of least exponents common to every term of both.  Otherwise
    GCDHEU hands back the quotients of the trial divisions that accepted
    g, so nothing is divided twice."""
    if len(a) == 1 or len(b) == 1:
        one, other = (a, b) if len(a) == 1 else (b, a)
        (m, c), = one.items()
        if not m:
            return _UNIT, a, b
        g, d = [], 0
        for v, k in zip(m[1::2], m[2::2]):
            if all(v in nm for nm in other):
                k = min(k, *(nm[nm.index(v) + 1] for nm in other))
                g += v, k
                d += k
        if not g:
            return _UNIT, a, b
        g = (d, *g)
        one = {mono_div(m, g): c}
        other = {mono_div(nm, g): other[nm]
                 for nm in sorted(other, reverse=True)}
        return ({g: 1}, one, other) if len(a) == 1 else ({g: 1}, other, one)
    r = _heu_gcd(a, b)
    if r is None:
        g = _gcd_prim(_int_clear(a), _int_clear(b))
        if _is_one(g):
            return g, a, b
        return g, p_divexact(a, g), p_divexact(b, g)
    g, qa, qb = r
    if qa is None:
        return _UNIT, a, b
    # g is the gcd times the common content, up to sign
    c, g = _primitive(g)
    return (g, qa, qb) if c > 0 else (g, p_neg(qa), p_neg(qb))


def _descending(a):
    """a with its terms in descending graded-lex order."""
    return {m: a[m] for m in sorted(a, reverse=True)}


def _primitive(a):
    """(s, a/s) for a nonzero int polynomial a, with s its content signed
    so that a/s has a positive leading coefficient."""
    s = _content(a)
    if p_lead(a)[1] < 0:
        s = -s
    return s, (a if s == 1 else {m: k // s for m, k in a.items()})


# Largest image coefficient GCDHEU builds, in bits.  Of 2^16 to 2^19, 2^17
# kept the slowest known verify inputs shortest (BENCH_8.json, limit_sweep).
_HEU_MAX_BITS = 1 << 17


def _heu_gcd(a, b):
    """(g, a/h, b/h) for two nonzero int polynomials, g their gcd up to
    sign and h its primitive part, by GCDHEU as poly_gcd describes it, or
    None when the heuristic gives up.  The cofactors are the quotients of
    the trial divisions that accept h; for a constant g they are None."""
    ca, cb = _content(a), _content(b)
    c = igcd(ca, cb)
    if _is_constant(a) or _is_constant(b):
        return {(): c}, None, None
    pa = a if ca == 1 else {m: k // ca for m, k in a.items()}
    pb = b if cb == 1 else {m: k // cb for m, k in b.items()}
    v = max(m[1] for p in (pa, pb) for m in p if m)
    deg = max(m[2] for p in (pa, pb) for m in p if m and m[1] == v)
    xi = 2 * min(max(map(abs, pa.values())), max(map(abs, pb.values()))) + 29
    for _ in range(6):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        ea, eb = _eval_last(pa, v, xi), _eval_last(pb, v, xi)
        if ea and eb:
            h = _heu_gcd(ea, eb)
            if h is None:
                return None
            h = _int_clear(_xi_adic(h[0], v, xi))
            if _is_constant(h):
                return {(): c * h[()]}, None, None
            try:
                return p_scale(h, c), p_divexact(a, h), p_divexact(b, h)
            except ArithmeticError:
                pass
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _is_constant(a):
    return len(a) == 1 and () in a


def _eval_last(a, v, xi):
    """a with v, the largest variable of a's terms that hold it, set to xi."""
    out = {}
    for m, k in a.items():
        if m and m[1] == v:
            k *= xi ** m[2]
            m = (m[0] - m[2],) + m[3:] if len(m) > 3 else ()
        out[m] = out.get(m, 0) + k
    return {m: k for m, k in out.items() if k}


def _xi_adic(h, v, xi):
    """The polynomial whose v-coefficients are the symmetric base-xi digits
    of h's coefficients (every digit in (-xi/2, xi/2])."""
    out, half = {}, xi // 2
    for m, k in h.items():
        e = 0
        while k:
            d = k % xi
            if d > half:
                d -= xi
            if d:
                out[(m[0] + e if m else e, v, e) + m[1:] if e else m] = d
            k = (k - d) // xi
            e += 1
    return out


def _gcd_prim(a, b):
    # both nonzero, primitive integer dicts
    va, vb = p_vars(a), p_vars(b)
    if not va or not vb:
        return p_const(1)
    v = max(va | vb)
    if v not in va or v not in vb:
        # gcd divides the v-content of the poly that does contain v
        with_v, other = (a, b) if v in va else (b, a)
        cont = _content_wrt(with_v, v)
        if not cont:
            return p_const(1)
        return poly_gcd(cont, other)
    ca, cb = _content_wrt(a, v), _content_wrt(b, v)
    pa, pb = p_divexact(a, ca), p_divexact(b, cb)
    cg = poly_gcd(ca, cb)
    # primitive PRS
    if _deg_in(pa, v) < _deg_in(pb, v):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb, v)
        pa, pb = pb, (_primitive_wrt(r, v) if r else {})
    g = _primitive_wrt(pa, v)
    # the PRS can end at a nonzero constant-in-v remainder, meaning coprime pps
    if not g or _deg_in(g, v) == 0:
        g = p_const(1)
    out = _int_clear(p_mul(cg, g))
    # make deterministic sign: positive leading coeff
    if p_lead(out)[1] < 0:
        out = p_neg(out)
    return out


def _content_wrt(a, v):
    g = {}
    for _, d in _univar(a, v).items():
        g = poly_gcd(g, d)
        if _is_one(g):
            return g
    return g


def _primitive_wrt(a, v):
    if not a:
        return a
    c = _content_wrt(a, v)
    return p_divexact(a, c)


# ---------------------------------------------------------------------------
# printing

def _coeff_text(c):
    if c.denominator == 1:
        s = str(abs(c.numerator))
    else:
        s = "(%d/%d)" % (abs(c.numerator), c.denominator)
    return s


def _mono_text(m):
    return "*".join(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e)
                    for v, e in zip(m[-2:0:-2], m[:0:-2]))


def p_text(a):
    if not a:
        return "0"
    out = []
    for i, (m, c) in enumerate(_descending(a).items()):
        sign = "-" if c < 0 else "+"
        body = _mono_text(m)
        ac = abs(c)
        if not body:
            piece = _coeff_text(ac)
        elif ac == 1:
            piece = body
        else:
            piece = _coeff_text(ac) + "*" + body
        if i == 0:
            out.append(("-" if sign == "-" else "") + piece)
        else:
            out.append(" %s %s" % (sign, piece))
    return "".join(out)


# ---------------------------------------------------------------------------
# RatFn

class RatFn:
    """Canonical rational function. Construct via const(), var(), ops, or
    RatFn(num, den) from polynomial dicts of int or Fraction coefficients.
    """

    __slots__ = ("_n", "_k", "_d", "_hash", "_vars")

    def __init__(self, num, den=None):
        ln, num = _scaled_to_int(num)
        ld, den = _scaled_to_int(_UNIT if den is None else den)
        n, k, self._d = _canon(num, den)
        self._n, self._k = _rescale(n, k, ld, ln)
        self._hash = self._vars = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c):
        """The constant c, an int or a Fraction."""
        n = c.numerator
        return _make({(): n} if n else {}, c.denominator, _UNIT)

    @staticmethod
    def var(v):
        return _make({(1, v, 1): 1}, 1, _UNIT)

    # -- the canonical pair ----------------------------------------------

    @property
    def num(self):
        """N/k; N itself when k is 1."""
        k = self._k
        return self._n if k == 1 else {
            m: Fraction(c, k) if c % k else c // k for m, c in self._n.items()}

    @property
    def den(self):
        return self._d

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_const(self):
        """Read off the canonical triple: D is 1 and N is 0 or constant."""
        return _is_one(self._d) and (not self._n or _is_constant(self._n))

    def is_poly(self):
        return _is_one(self._d)

    def const_value(self):
        assert self.is_const()
        return Fraction(self._n.get((), 0), self._k)

    def vars(self):
        """The variables of N and D.  The set is made on the first call and
        kept: every call returns that same set, which callers must not
        mutate."""
        if self._vars is None:
            self._vars = p_vars(self._n) | p_vars(self._d)
        return self._vars

    def max_jet_order(self):
        """Highest control-derivative order mentioned, -1 if none."""
        best = -1
        for v in self.vars():
            if v[0] == 2 and v[1] > best:
                best = v[1]
        return best

    # -- arithmetic ----------------------------------------------------

    def __add__(self, o):
        """The sum, without the general cross-multiply where it is known.

        A zero operand gives the other one; otherwise the numerators are
        brought over l, the lcm of the scales.  Equal denominators d add
        them: over 1 only l can cancel, else (n1 + n2, d) is canonicalized.
        Any other pair takes g = gcd(d1, d2).  With g = 1, n1*d2 + n2*d1
        over d1*d2 is reduced.  Else t = n1*(d2/g) + n2*(d1/g) can share
        with d1*d2/g only a factor g' of g, and the sum is (t/g') over
        (d1/g)*(d2/g') (Henrici), sorted as in _product.  Over two one-term
        denominators, d1*d2/g is their lcm and only the cancellation of g'
        sorts t (in _cofactors), the term order of the lcm sum."""
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not o._n:
            return self
        if not self._n:
            return o
        k1, k2 = self._k, o._k
        l = k1 if k1 == k2 else lcm(k1, k2)
        n1 = self._n if l == k1 else p_scale(self._n, l // k1)
        n2 = o._n if l == k2 else p_scale(o._n, l // k2)
        d1, d2 = self._d, o._d
        if d1 == d2:
            if _is_one(d1):
                return _make(*_rescale(p_add(n1, n2), 1, 1, l), d1)
            return _ratio(p_add(n1, n2), d1, 1, l)
        g, a1, a2 = _cofactors(d1, d2)
        t = p_add(p_mul(n1, a2), p_mul(n2, a1))
        if _is_one(g):
            return _make(*_rescale(t, 1, 1, l), p_mul(d1, d2))
        g2, t, g = _cofactors(t, g)
        den = p_mul(a1, d2 if _is_one(g2) else p_mul(a2, g))
        if len(d1) > 1 or len(d2) > 1:
            t, den = _descending(t), _descending(den)
        return _make(*_rescale(t, 1, 1, l), den)

    __radd__ = __add__

    def __neg__(self):
        return _make(p_neg(self._n), self._k, self._d)

    def __sub__(self, o):
        o = _lift(o)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, o):
        return _lift(o) - self

    def __mul__(self, o):
        """The product.  A zero factor gives ZERO.  A constant c = p/q
        times a canonical N/(k*D) is N*p/(k*q*D): D stays, and only the
        integer scale is reduced.  Two polynomials multiply over 1 with no
        gcd; any other pair goes through _product."""
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not self._n or not o._n:
            return ZERO
        for a, b in ((self, o), (o, self)):
            c = _scalar(b)
            if c is not None:
                return _make(*_rescale(a._n, a._k, *c), a._d)
        k = self._k * o._k
        if _is_one(self._d) and _is_one(o._d):
            return _make(*_rescale(p_mul(self._n, o._n), 1, 1, k), _UNIT)
        return _product(self._n, self._d, o._n, o._d, 1, k)

    __rmul__ = __mul__

    def __truediv__(self, o):
        """The quotient.  A zero numerator gives ZERO, and division by a
        constant c is multiplication by 1/c.  Any other pair is the
        _product of n1/d1 and d2/P, with P the primitive part of n2 with
        positive leading coefficient and its signed content s going to the
        scale."""
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not o._n:
            raise DivisionByZero("division by zero rational function")
        if not self._n:
            return ZERO
        c = _scalar(o)
        if c is not None:
            return _make(*_rescale(self._n, self._k, c[1], c[0]), self._d)
        s, p = _primitive(o._n)
        return _product(self._n, self._d, o._d, p, o._k, self._k * s)

    def __rtruediv__(self, o):
        return _lift(o) / self

    def __pow__(self, n):
        """self to the integer n.  For n >= 0, (N^n, k^n, D^n) is
        canonical as it stands: N^n and D^n are coprime; by Gauss's lemma
        N^n has content prime to k^n and D^n is integer-primitive; and the
        leading coefficient of D^n, the n-th power of D's, is positive."""
        if n < 0:
            if not self._n:
                raise DivisionByZero("zero to a negative power")
            return _ratio(p_pow(self._d, -n), p_pow(self._n, -n),
                          self._k ** -n, 1)
        if n == 1:
            return self
        return _make(p_pow(self._n, n), self._k ** n, p_pow(self._d, n))

    def __eq__(self, o):
        o = _lift(o)
        if o is NotImplemented:
            return o
        return self._n == o._n and self._k == o._k and self._d == o._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self._d.items())))
        return self._hash

    # -- calculus ------------------------------------------------------

    def diff(self, v):
        """Partial derivative with respect to variable v: the derivation
        with the one image 1, whose K, L and P_v are all 1."""
        return _henrici(self, {v: _UNIT}, 1, _UNIT)

    def substitute(self, binding):
        """Simultaneous substitution var -> RatFn; unmapped vars stay."""
        num = _p_subst(self._n, binding)
        den = _p_subst(self._d, binding)
        if den.is_zero():
            raise SubstitutionPole("substitution sent a denominator to zero")
        if self._k != 1:
            den = den * self._k
        return num / den

    def eval_pair(self, point):
        """Exact value at point (binding every variable) as coprime ints
        (n, d), d > 0, from N and k*D there; no Fraction at an int point."""
        n = _p_eval(self._n, point)
        d = _p_eval(self._d, point)
        if d == 0:
            raise DenominatorZero(_POLE)
        n, d = n.numerator * d.denominator, self._k * d.numerator * n.denominator
        g = igcd(n, d) if d > 0 else -igcd(n, d)
        return n // g, d // g

    def eval_at(self, point):
        """Exact evaluation as a Fraction; see eval_pair."""
        return Fraction(*self.eval_pair(point))

    # -- text ------------------------------------------------------------

    def to_text(self):
        num = self.num
        if self.is_poly():
            return p_text(num)
        nt, dt = p_text(num), p_text(self._d)
        if len(num) > 1 or nt.startswith("-"):
            nt = "(%s)" % nt
        return "%s/(%s)" % (nt, dt)

    def __repr__(self):
        return "RatFn(%s)" % self.to_text()


# the stored denominator of every polynomial; never mutated
_UNIT = {(): 1}


def _make(n, k, d):
    """The RatFn with the canonical triple (n, k, d), as it stands."""
    r = object.__new__(RatFn)
    r._n, r._k, r._d, r._hash, r._vars = n, k, d, None, None
    return r


def _lift(o):
    if isinstance(o, RatFn):
        return o
    if isinstance(o, (int, Fraction)):
        return RatFn.const(o)
    return NotImplemented


def _scalar(x):
    """(p, q) when x is the constant p/q (q >= 1, coprime), else None."""
    if _is_one(x._d) and len(x._n) == 1 and () in x._n:
        return x._n[()], x._k
    return None


def _rescale(n, k, p, q):
    """(n', k') with n'/k' = n*p/(k*q) in lowest terms, k' > 0 and
    gcd(content(n'), k') = 1, for an int polynomial n, a scale k of n
    with gcd(content(n), k) = 1 and ints p, q != 0."""
    if p == 1 and q == 1:
        return n, k
    if q < 0:
        p, q = -p, -q
    g = igcd(p, k * q)
    p, k = p // g, k * q // g
    g = _content(n, k)
    if g != 1 or p != 1:
        n = {m: c // g * p for m, c in n.items()}
    return n, k // g


def _ratio(num, den, p, q):
    """The canonical RatFn num*p/(den*q) for int polynomials num, den."""
    n, k, d = _canon(num, den)
    return _make(*_rescale(n, k, p, q), d)


def _product(n1, d1, n2, d2, p, q):
    """The canonical (n1*n2*p)/(d1*d2*q) for int polynomials with n1
    coprime to d1 and n2 to d2, and d1, d2 primitive with positive
    leading coefficients (Henrici).

    With g1 = gcd(n1, d2) and g2 = gcd(n2, d1), (n1/g1)*(n2/g2) is coprime
    to (d1/g2)*(d2/g1), a product of primitive factors with positive
    leading coefficients: only the scale p/q is left to reduce.  When g1
    or g2 is not 1 the general gcd is not 1 either, so both sides are
    sorted into the descending graded-lex order that p_divexact gives it.
    """
    g1, n1, d2 = _cofactors(n1, d2)
    g2, n2, d1 = _cofactors(n2, d1)
    num, den = p_mul(n1, n2), p_mul(d1, d2)
    if not (_is_one(g1) and _is_one(g2)):
        num, den = _descending(num), _descending(den)
    return _make(*_rescale(num, 1, p, q), den)


def _canon(num, den):
    """(N, k, D) for num/den, two int polynomials with den nonzero."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, 1, _UNIT
    _, num, den = _cofactors(num, den)
    # D primitive with positive leading coefficient; its content goes to k
    c, den = _primitive(den)
    return (*_rescale(num, 1, 1, c), den)


def _p_subst(a, binding):
    """a, of int or Fraction coefficients, with each variable v replaced
    by binding[v], where bound, as a RatFn.

    The terms are added over one denominator.  With N/Q the image of v
    (Q = k*D) and e its largest exponent in a, a term c*v^f*... becomes
    c*N^f*Q^(e-f)*... over the product of the Q^e; the sum is
    canonicalized once."""
    l, a = _scaled_to_int(a)
    top = {}
    for m in a:
        i = len(m) - 2
        while i > 0:
            v = m[i]
            top[v] = max(m[i + 1], top.get(v, 0))
            i -= 2
    pows, den = {}, _UNIT
    for v, k in top.items():
        r = binding[v] if v in binding else RatFn.var(v)
        q = r._d if r._k == 1 else p_scale(r._d, r._k)
        dens = None if _is_one(q) else _powers(q, k)[::-1]
        if dens:
            den = p_mul(den, dens[0])
        pows[v] = _powers(r._n, k), dens
    num = {}
    for m, c in a.items():
        term = p_const(c)
        for v, (nums, dens) in pows.items():
            e = m[m.index(v) + 1] if v in m else 0
            if e:
                term = p_mul(term, nums[e])
            if dens:
                term = p_mul(term, dens[e])
        for tm, tc in term.items():
            tc += num.get(tm, 0)
            if tc:
                num[tm] = tc
            else:
                num.pop(tm, None)
    if _is_one(den):
        return _make(*_rescale(num, 1, 1, l), den)
    return _ratio(num, den, 1, l)


def derivation(r, images):
    """The derivation that sends each variable v to the RatFn images[v],
    applied to r in one pass; a variable without an image goes to 0.

    Write images[v] = N_v/(k_v*D_v), K for the lcm of the k_v and L for
    the lcm of the D_v.  K*L times the derivation sends an int polynomial
    p to the int polynomial sum over v of P_v * dp/dv (_p_derive), with
    P_v = N_v*(K/k_v)*(L/D_v).  This front end forms K, L and the P_v;
    _henrici applies them.  RatFn.diff calls _henrici directly with
    P_v = 1 and K = L = 1, the values this front end would give it."""
    K, L, seen = 1, _UNIT, []
    for img in images.values():
        K = lcm(K, img._k)
        if not _is_one(img._d) and img._d not in seen:
            seen.append(img._d)
            L = p_mul(L, _cofactors(L, img._d)[2])
    pre = {}
    for v, img in images.items():
        if img._n:
            p = img._n if img._k == K else p_scale(img._n, K // img._k)
            pre[v] = p if _is_one(L) else p_mul(p, p_divexact(L, img._d))
    return _henrici(r, pre, K, L)


def _henrici(r, pre, K, L):
    """The derivation of derivation's docstring applied to r = n/(k*d),
    given its int images pre = {v: P_v}, K and L.  With q = k*K, r goes to
    the canonical (dn*d - n*dd)/(q*L*d^2), dn and dd the images of n and d.

    Take h = gcd(d, dd), a = d/h and b = dd/h (Henrici).  The numerator is
    h*t with t = dn*a - n*b, so the quotient is t/(q*L*h*a^2).  A prime
    factor of a divides neither n, which is prime to d, nor b, which is
    prime to a, so it does not divide t: only a factor g of L*h can
    cancel, and the result is (t/g)/((L*h/g)*a^2).  Over d = 1 this is
    dn/(q*L), where only L and the scale can cancel.  With g = h = 1 the
    general gcd is 1 and t and L*d^2 keep their term order; otherwise both
    sides are sorted as in _product."""
    n, d, q = r._n, r._d, K * r._k
    dn, dd = _p_derive(n, pre), _p_derive(d, pre)
    if dd:
        h, a, b = _cofactors(d, dd)
        t = p_sub(p_mul(dn, a), p_mul(n, b))
    else:
        h, a, t = d, _UNIT, dn
    if not t:
        return ZERO
    s = L if _is_one(h) else p_mul(L, h)
    if _is_one(s):
        return _make(*_rescale(t, 1, 1, q), p_mul(d, d) if dd else d)
    g, t, s = _cofactors(t, s)
    den = p_mul(s, p_mul(a, a))
    if not (_is_one(g) and _is_one(h)):
        t, den = _descending(t), _descending(den)
    return _make(*_rescale(t, 1, 1, q), den)


def affine_parts(r, vs):
    """[r0, r1, ..., rs] with r = r0 + sum_j vs[j-1]*rj and no part
    mentioning a variable of vs, or None when r = N/(k*D) is not affine in
    vs: a term of N has degree 2 or more in them, or D mentions one.

    One pass over the terms of N sorts each by its factor in vs, none or
    one v^1, which is divided out.  So each part over k*D is r at vs = 0
    or a partial of r, and its canonical triple is unique: over D = 1 only
    the content of the part and k can cancel, and over any other D one
    _ratio finds it."""
    at = {v: j for j, v in enumerate(vs, 1)}
    d = r._d
    if any(w in at for m in d for w in m[1::2]):
        return None
    parts = [{} for _ in range(len(vs) + 1)]
    for m, c in r._n.items():
        j, rest, i = 0, m, len(m) - 2
        while i > 0:
            w = m[i]
            if w in at:
                if j or m[i + 1] > 1:
                    return None
                j = at[w]
                rest = (m[0] - 1,) + m[1:i] + m[i + 2:] if m[0] > 1 else ()
            i -= 2
        parts[j][rest] = c
    k = r._k
    if _is_one(d):
        return [_make(*_rescale(p, 1, 1, k), _UNIT) for p in parts]
    return [_ratio(p, d, 1, k) for p in parts]


def _p_derive(p, images):
    """sum over the variables v of p of images[v] * dp/dv for an int
    polynomial p and int polynomial images, in one pass over the terms:
    a term c*m adds c*e*images[w]*(m/w) for each w^e in m with an image,
    w in ascending order."""
    out = {}
    for m, c in p.items():
        i = len(m) - 2
        while i > 0:
            img = images.get(m[i])
            if img is not None:
                e = m[i + 1]
                if e > 1:
                    rest = (m[0] - 1,) + m[1:i + 1] + (e - 1,) + m[i + 2:]
                else:
                    rest = ((m[0] - 1,) + m[1:i] + m[i + 2:] if m[0] > 1
                            else ())
                ce = c * e
                for mi, ci in img.items():
                    nm = mono_mul(mi, rest)
                    k = out.get(nm, 0) + ce * ci
                    if k:
                        out[nm] = k
                    else:
                        del out[nm]
            i -= 2
    return out


def _p_eval(a, point):
    out = 0
    for m, c in a.items():
        i = len(m) - 2
        while i > 0:
            c *= point[m[i]] ** m[i + 1]
            i -= 2
        out += c
    return out


ZERO = RatFn.const(0)
ONE = RatFn.const(1)


# ---------------------------------------------------------------------------
# exact elimination

def _is_zero(x):
    return x.is_zero() if isinstance(x, RatFn) else x == 0


def gauss_jordan(rows, ncols):
    """Reduce rows to reduced row echelon form over their first ncols
    columns, in place, and return the pivot columns in order.

    Entries are RatFn, int or Fraction.  Row operations run over whole
    rows, so columns past ncols (an identity or a right-hand side) are
    carried along.  A column's pivot is its first nonzero entry at or
    below the current row; zero entries are skipped.  The rank is the
    number of pivots; elimination stops once it equals the row count.
    """
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        piv = next((r for r in range(top, len(rows))
                    if not _is_zero(rows[r][c])), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pv = rows[top][c]
        if type(pv) is int:
            pv = Fraction(pv)
        prow = rows[top] = [e if _is_zero(e) else e / pv for e in rows[top]]
        for r, row in enumerate(rows):
            f = row[c]
            if r != top and not _is_zero(f):
                rows[r] = [e if _is_zero(g) else e - f * g
                           for e, g in zip(row, prow)]
        pivots.append(c)
    return pivots


def cleared(pairs):
    """(n, d) pairs, d > 0, times the lcm of their d: ints."""
    l = lcm(*(d for _, d in pairs))
    return [n * (l // d) for n, d in pairs]


def int_echelon(basis, rows):
    """An echelon basis over Q of the rows of basis, then rows: a new list
    of (pivot column, int row) pairs, whose length is the rank.  basis is
    such a list and is not changed.  Each row is reduced, fraction-free,
    against the pairs in insertion order, p*row - f*b zeroing column c
    for each (c, b) with p = b[c], f = row[c]; a nonzero remainder is
    kept divided by its content, with its first nonzero column.  Every
    kept row is zero at the pivots before its own, so the kept rows at
    their pivot columns form a triangular minor with a nonzero diagonal:
    they are independent, and they span what the rows span."""
    out = list(basis)
    for row in rows:
        for c, b in out:
            f = row[c]
            if f:
                p = b[c]
                row = [p * e - f * g for e, g in zip(row, b)]
        c = next((c for c, e in enumerate(row) if e), None)
        if c is not None:
            g = igcd(*row)
            out.append((c, [e // g for e in row] if g > 1 else row))
    return out
