"""Exact multivariate rational functions over jet coordinates.

Variables are plain orderable tuples:

    T        = (0, 0, 0)            time
    X(i)     = (1, 0, i)            state x_i,  i >= 1
    U(j, k)  = (2, k, j)            k-th time derivative of control u_j

Tuple comparison gives the variable order used everywhere:
t < x_1 < x_2 < ... < u_1 < u_2 < ... < u_1' < u_2' < ...  (derivative level
major, control index minor).

A polynomial is a dict {monomial: coefficient}; a monomial is a tuple of
(var, exponent) pairs sorted by var, with the empty tuple for 1.  Monomials
are ordered graded-lex over the variable order.  A stored coefficient is a
plain int when it is integral and otherwise a Fraction with denominator > 1;
it is never a float and never a Fraction with denominator 1.  Every step
that can make a rational (a sum of Fractions, a division, a scale) restores
this, so integer arithmetic carries almost all of the work.  The polynomial
helpers also accept integral Fractions on input; p_mul, p_scale and the gcd
return coefficients in the stored form, and so does RatFn, whatever dicts
it is given.  RatFn holds a canonical num/den pair: gcd 1, denominator
integer-primitive with positive leading coefficient.  A one-term
denominator is cancelled by a monomial; any other goes through poly_gcd,
the heuristic integer gcd GCDHEU with the primitive PRS as its fallback.
Instances are immutable, so an operator may return an operand itself.
const_value() and eval_at() return Fractions.

The operators skip the general formula (n1*d2 + n2*d1 over d1*d2, and so
on) and canonicalization wherever the canonical result is known without
them: a zero or constant operand, equal denominators, two polynomials,
two one-term denominators (added over their lcm), powers, derivatives of
polynomials, and substitution, which adds all its terms over one
denominator.  Each method's docstring says why its result is canonical.
Results are the canonical pairs of the general path; only the insertion
order of their terms can differ.

Float evaluation has one path, compile_float, and eval_float is a thin call
into it.  A numeric loop compiles its expressions once per call into one
generated straight-line function of positional floats, whose source holds
only float literals, argument names and int exponents.  It does the float
operations of term-by-term evaluation in the same order, so its results are
bit-identical to that evaluation.
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
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_key(m):
    # graded lex: total degree first, then exponents of the largest
    # variables first.  Reversing the sorted pair list makes plain tuple
    # comparison do the lex part.
    return (sum(e for _, e in m), tuple(reversed(m)))


def mono_div(m1, m2):
    """m1 / m2 or None if m2 does not divide m1."""
    d = dict(m1)
    for v, e in m2:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            del d[v]
        else:
            d[v] = r
    return tuple(sorted(d.items()))


# ---------------------------------------------------------------------------
# coefficients: int when integral, else a Fraction with denominator > 1

def _coef(c):
    """c (an int or a rational) as a stored coefficient."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _cdiv(a, b):
    """The exact quotient a / b of two coefficients, as a coefficient."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _demote(r):
    """Turn the integral Fractions among r's coefficients into ints, in place."""
    for m, c in r.items():
        if type(c) is Fraction and c.denominator == 1:
            r[m] = c.numerator
    return r


def _demoted_copy(a):
    """a, or a copy of it whose integral Fractions are ints."""
    for c in a.values():
        if type(c) is Fraction and c.denominator == 1:
            return _demote(dict(a))
    return a


# ---------------------------------------------------------------------------
# polynomials as {mono: coefficient} dicts (zero coeffs never stored)

def p_const(c):
    c = _coef(c)
    return {(): c} if c else {}


def p_var(v):
    return {((v, 1),): 1}


def _is_one(a):
    return len(a) == 1 and a.get(()) == 1


def p_add(a, b):
    r = dict(a)
    for m, c in b.items():
        s = r.get(m, 0) + c
        if s:
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            r[m] = s
        elif m in r:
            del r[m]
    return r


def p_neg(a):
    return {m: -c for m, c in a.items()}


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_scale(a, c):
    c = _coef(c)
    if not c:
        return {}
    return _demote({m: k * c for m, k in a.items()})


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
    return _demote(r)


def p_pow(a, n):
    assert n >= 0
    return _powers(a, n)[-1]


def _powers(a, k):
    """[a^0, a^1, ..., a^k]."""
    out = [p_const(1)]
    for _ in range(k):
        out.append(p_mul(out[-1], a))
    return out


def p_lead(a):
    """(monomial, coeff) of the graded-lex leading term."""
    m = max(a, key=mono_key)
    return m, a[m]


def p_vars(a):
    s = set()
    for m in a:
        for v, _ in m:
            s.add(v)
    return s


def p_diff(a, v):
    r = {}
    for m, c in a.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                nm = m[:i] + ((w, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                s = r.get(nm, 0) + c * e
                if s:
                    if type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    r[nm] = s
                elif nm in r:
                    del r[nm]
                break
    return r


def p_divexact(a, b):
    """Exact polynomial division; raises ArithmeticError when not exact.

    Quotient terms come out in descending graded-lex order.  The
    remainder's monomials wait in a list sorted by mono_key, so each step
    takes the leading term off its end instead of scanning the remainder;
    an entry whose term has cancelled since is skipped.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    bm, bc = p_lead(b)
    r = dict(a)
    todo = sorted((mono_key(m), m) for m in r)
    q = {}
    while todo:
        am = todo.pop()[1]
        ac = r.get(am)
        if ac is None:
            continue
        qm = mono_div(am, bm)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc = q[qm] = _cdiv(ac, bc)
        for m2, c2 in b.items():
            m = mono_mul(qm, m2)
            s = r.get(m, 0) - qc * c2
            if s:
                if m not in r:
                    insort(todo, (mono_key(m), m))
                r[m] = s
            else:
                r.pop(m, None)
    return q


# ---------------------------------------------------------------------------
# gcd: the heuristic GCDHEU, and the primitive PRS as its fallback

def _scaled_to_int(a):
    """(l, l*a) for l the lcm of a's coefficient denominators."""
    l, exact = 1, True
    for c in a.values():
        if type(c) is not int:
            l, exact = lcm(l, c.denominator), False
    if exact:
        return 1, a
    return l, {m: c.numerator * (l // c.denominator) for m, c in a.items()}


def _content(ints):
    """gcd of the int coefficients of a nonzero polynomial."""
    g = 0
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
        e = 0
        rest = []
        for w, k in m:
            if w == v:
                e = k
            else:
                rest.append((w, k))
        d = out.setdefault(e, {})
        rm = tuple(rest)
        s = d.get(rm, 0) + c
        if s:
            d[rm] = s
        elif rm in d:
            del d[rm]
    return {e: d for e, d in out.items() if d}


def _deg_in(a, v):
    """Degree of the nonzero polynomial a in the variable v."""
    return max(dict(m).get(v, 0) for m in a)


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
        shift = {((v, dr - db),): 1} if dr > db else {(): 1}
        r = p_sub(p_mul(lb, r), p_mul(p_mul(lr, b), shift))


def poly_gcd(a, b):
    """The gcd of a and b as a primitive integer polynomial with positive
    graded-lex leading coefficient; {(): 1} for coprime inputs.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) computes
    it.  Both inputs are cleared to primitive integer polynomials.  Then
    the largest variable v is set to an integer xi, the gcd of the two
    images in the other variables is found the same way (the integer
    content of each level is split off, and the common content multiplied
    back), and a candidate is rebuilt from the symmetric base-xi digits of
    that gcd's coefficients as the coefficients of powers of v.  Its
    primitive part is kept only if trial division shows that it divides
    both inputs.

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
    if not a:
        return _int_clear(b) if b else {}
    if not b:
        return _int_clear(a)
    a, b = _int_clear(a), _int_clear(b)
    g = _heu_gcd(a, b)
    if g is None:
        return _gcd_prim(a, b)
    return p_neg(g) if p_lead(g)[1] < 0 else g


# Largest image coefficient GCDHEU builds, in bits.  Of 2^16 to 2^19, 2^17
# kept the slowest known verify inputs shortest (BENCH_8.json, limit_sweep).
_HEU_MAX_BITS = 1 << 17


def _heu_gcd(a, b):
    """The gcd of two nonzero int polynomials up to sign, by GCDHEU as
    poly_gcd describes it, or None when the heuristic gives up."""
    ca, cb = _content(a), _content(b)
    c = igcd(ca, cb)
    if _is_constant(a) or _is_constant(b):
        return {(): c}
    if ca != 1:
        a = {m: k // ca for m, k in a.items()}
    if cb != 1:
        b = {m: k // cb for m, k in b.items()}
    v = max(m[-1][0] for p in (a, b) for m in p if m)
    deg = max(m[-1][1] for p in (a, b) for m in p if m and m[-1][0] == v)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        ea, eb = _eval_last(a, v, xi), _eval_last(b, v, xi)
        if ea and eb:
            h = _heu_gcd(ea, eb)
            if h is None:
                return None
            h = _int_clear(_xi_adic(h, v, xi))
            if _divides(h, a) and _divides(h, b):
                return h if c == 1 else {m: k * c for m, k in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _is_constant(a):
    return len(a) == 1 and () in a


def _eval_last(a, v, xi):
    """a with v, the largest variable of a's terms that hold it, set to xi."""
    out = {}
    for m, k in a.items():
        if m and m[-1][0] == v:
            k *= xi ** m[-1][1]
            m = m[:-1]
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
                out[m + ((v, e),) if e else m] = d
            k = (k - d) // xi
            e += 1
    return out


def _divides(h, a):
    """Whether the primitive int polynomial h divides a."""
    if _is_constant(h):
        return True
    try:
        p_divexact(a, h)
    except ArithmeticError:
        return False
    return True


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
    parts = []
    for v, e in m:
        parts.append(var_name(v) if e == 1 else "%s^%d" % (var_name(v), e))
    return "*".join(parts)


def p_text(a):
    if not a:
        return "0"
    terms = sorted(a.items(), key=lambda kv: mono_key(kv[0]), reverse=True)
    out = []
    for i, (m, c) in enumerate(terms):
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
    """Canonical rational function. Construct via const(), var(), or ops."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = p_const(1)
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _canon(num, den)
        self._hash = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c):
        return RatFn(p_const(c), p_const(1), _canonical=True)

    @staticmethod
    def var(v):
        return RatFn(p_var(v), p_const(1), _canonical=True)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_const(self):
        return not p_vars(self.num) and not p_vars(self.den)

    def is_poly(self):
        return _is_one(self.den)

    def const_value(self):
        assert self.is_const()
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[()], self.den[()])

    def vars(self):
        return p_vars(self.num) | p_vars(self.den)

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

        A zero operand gives the other one.  Equal denominators add the
        numerators: over 1 that is canonical as it stands, and otherwise
        (n1 + n2, d) is canonicalized, not (n1*d + n2*d, d*d).  Two
        one-term denominators add over their lcm (_monomial_sum).  Any
        other pair takes n1*d2 + n2*d1 over d1*d2.
        """
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den == o.den:
            return RatFn(p_add(self.num, o.num), self.den,
                         _canonical=_is_one(self.den))
        if len(self.den) == 1 and len(o.den) == 1:
            return _monomial_sum(self, o)
        return RatFn(p_add(p_mul(self.num, o.den), p_mul(o.num, self.den)),
                     p_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFn(p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, o):
        o = _lift(o)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, o):
        return _lift(o) - self

    def __mul__(self, o):
        """The product.  A zero factor gives ZERO.  A constant c times a
        canonical n/d is c*n/d, canonical as it stands: c changes neither
        the gcd nor d.  Two polynomials multiply over 1 with no gcd.  Any
        other pair takes n1*n2 over d1*d2, canonicalized."""
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not self.num or not o.num:
            return ZERO
        c = _scalar(o)
        if c is not None:
            return RatFn(p_scale(self.num, c), self.den, _canonical=True)
        c = _scalar(self)
        if c is not None:
            return RatFn(p_scale(o.num, c), o.den, _canonical=True)
        if _is_one(self.den) and _is_one(o.den):
            return RatFn(p_mul(self.num, o.num), self.den, _canonical=True)
        return RatFn(p_mul(self.num, o.num), p_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, o):
        """The quotient.  A zero numerator gives ZERO, and division by a
        constant c is multiplication by 1/c; any other pair takes n1*d2
        over d1*n2, canonicalized."""
        o = _lift(o)
        if o is NotImplemented:
            return o
        if not o.num:
            raise DivisionByZero("division by zero rational function")
        if not self.num:
            return ZERO
        c = _scalar(o)
        if c is not None:
            return RatFn(p_scale(self.num, _cdiv(1, c)), self.den,
                         _canonical=True)
        return RatFn(p_mul(self.num, o.den), p_mul(self.den, o.num))

    def __rtruediv__(self, o):
        return _lift(o) / self

    def __pow__(self, n):
        """self to the integer n.  For n >= 0, num^n over den^n is
        canonical as it stands: num and den are coprime, so their powers
        are; den^n is integer-primitive by Gauss's lemma; and its leading
        coefficient, the n-th power of den's, is positive."""
        if n < 0:
            if not self.num:
                raise DivisionByZero("zero to a negative power")
            return RatFn(p_pow(self.den, -n), p_pow(self.num, -n))
        if n == 1:
            return self
        return RatFn(p_pow(self.num, n), p_pow(self.den, n), _canonical=True)

    def __eq__(self, o):
        o = _lift(o)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # -- calculus ------------------------------------------------------

    def diff(self, v):
        """Partial derivative with respect to variable v.  A polynomial's
        is a polynomial, canonical as it stands."""
        if _is_one(self.den):
            return RatFn(p_diff(self.num, v), self.den, _canonical=True)
        n = p_sub(p_mul(p_diff(self.num, v), self.den),
                  p_mul(self.num, p_diff(self.den, v)))
        return RatFn(n, p_mul(self.den, self.den))

    def substitute(self, binding):
        """Simultaneous substitution var -> RatFn; unmapped vars stay."""
        num = _p_subst(self.num, binding)
        den = _p_subst(self.den, binding)
        if den.is_zero():
            raise SubstitutionPole("substitution sent a denominator to zero")
        return num / den

    def eval_at(self, point):
        """Exact evaluation; point must bind every variable present."""
        nv = _p_eval(self.num, point)
        dv = _p_eval(self.den, point)
        if dv == 0:
            raise DenominatorZero(_POLE)
        return Fraction(nv, dv)

    def eval_float(self, point):
        """Float evaluation for numeric work; raises DenominatorZero at a
        pole.  Compiles through compile_float on every call: numeric loops
        compile once and call the function instead."""
        args = sorted(self.vars())
        return compile_float([self], args)(*[point[v] for v in args])[0]

    # -- text ------------------------------------------------------------

    def to_text(self):
        if self.is_poly():
            return p_text(self.num)
        nt, dt = p_text(self.num), p_text(self.den)
        if len(self.num) > 1 or self.num.get((), None) is not None and self.num[()] < 0:
            nt = "(%s)" % nt
        elif nt.startswith("-"):
            nt = "(%s)" % nt
        return "%s/(%s)" % (nt, dt)

    def __repr__(self):
        return "RatFn(%s)" % self.to_text()


def _lift(o):
    if isinstance(o, RatFn):
        return o
    if isinstance(o, (int, Fraction)):
        return RatFn.const(o)
    return NotImplemented


def _scalar(x):
    """The coefficient c when x is the constant c, else None."""
    if _is_one(x.den) and len(x.num) == 1:
        return x.num.get(())
    return None


def _monomial_sum(a, b):
    """a + b for one-term denominators m1 != m2, over their lcm l.

    A canonical one-term denominator is a monomial with coefficient 1.  A
    variable v whose exponents in m1 and m2 differ cannot cancel.  Say it
    is higher in m1: every term of b.num*(l/m2) holds v, while some term
    of a.num*(l/m1) lacks it, as a.num is coprime to m1.  So only a
    variable with the same exponent in both can, and without one the sum
    is canonical as it stands.
    """
    (m1,), (m2,) = a.den, b.den
    e1, e2 = dict(m1), dict(m2)
    l = tuple(sorted((v, max(e1.get(v, 0), e2.get(v, 0)))
                     for v in e1.keys() | e2.keys()))
    num = p_add(p_mul(a.num, {mono_div(l, m1): 1}),
                p_mul(b.num, {mono_div(l, m2): 1}))
    same = any(e2.get(v) == e for v, e in m1)
    return RatFn(num, {l: 1}, _canonical=not same)


def _canon(num, den):
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, p_const(1)
    if len(den) == 1:
        num, den = _cancel_monomial(num, den)
    else:
        g = poly_gcd(num, den)
        if g and not _is_one(g):
            num = p_divexact(num, g)
            den = p_divexact(den, g)
    # normalize: den integer-primitive with positive leading coefficient
    l, ints = _scaled_to_int(den)
    scale = _cdiv(l, _content(ints))
    if p_lead(den)[1] < 0:
        scale = -scale
    if scale != 1:
        num = p_scale(num, scale)
        den = p_scale(den, scale)
    else:
        # scale 1 means den is integral, and ints holds it as ints; a raw
        # dict passed to RatFn may still hold integral Fractions
        num, den = _demoted_copy(num), ints
    return num, den


def _cancel_monomial(num, den):
    """Divide num and a one-term den = c*m by their gcd without the PRS.

    The gcd is the monomial of least exponents common to m and every term
    of num.  Quotient terms come out in descending graded-lex order, the
    order p_divexact gives, so the result matches the general path term
    for term.
    """
    (m, c), = den.items()
    g = dict(m)
    for nm in num:
        if not g:
            break
        e = dict(nm)
        g = {v: min(k, e[v]) for v, k in g.items() if v in e}
    if not g:
        return num, den
    gm = tuple(sorted(g.items()))
    terms = sorted(num.items(), key=lambda kv: mono_key(kv[0]), reverse=True)
    return ({mono_div(nm, gm): a for nm, a in terms},
            {mono_div(m, gm): c})


def _p_subst(a, binding):
    """a with each variable v replaced by binding[v], where bound.

    The terms are added over one denominator.  With n/d the image of v
    and k its largest exponent in a, a term c*v^e*... becomes
    c*n^e*d^(k-e)*... over the product of the d^k, and the sum is
    canonicalized once.
    """
    top = {}
    for m in a:
        for v, e in m:
            top[v] = max(e, top.get(v, 0))
    pows, den = {}, p_const(1)
    for v, k in top.items():
        r = binding[v] if v in binding else RatFn.var(v)
        dens = None if r.is_poly() else _powers(r.den, k)[::-1]
        if dens:
            den = p_mul(den, dens[0])
        pows[v] = _powers(r.num, k), dens
    num = {}
    for m, c in a.items():
        term, have = p_const(c), dict(m)
        for v, (nums, dens) in pows.items():
            e = have.get(v, 0)
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
    return RatFn(_demote(num), den, _canonical=_is_one(den))


def _p_eval(a, point):
    out = 0
    for m, c in a.items():
        term = c
        for v, e in m:
            term *= point[v] ** e
        out += term
    return out


def compile_float(exprs, args):
    """f(*values) -> [float value of e for e in exprs], values in args order.

    The kernel's only float evaluator: one generated straight-line Python
    function for the whole list, compiled once and called per point.  Per
    expression it runs the term-by-term loop n = 0.0; n += c * a ** e * ...
    over the num dict in its term order, with c = float(coefficient) and
    every ** kept, even ** 1; the same for the denominator; DenominatorZero
    if it is 0.0; then n / d.  These are the same float operations in the
    same order, so results are bit-identical to that loop and the first
    exception raised is the same.  The source holds only float literals
    (repr of float(c)), the argument names a0, a1, ... and int exponents,
    never text from the expressions.  A coefficient that overflows float()
    is bound by name and converted at call time, so its OverflowError comes
    at the same moment.  Nothing is cached: the function is the caller's.
    A variable missing from args raises KeyError.
    """
    names = {v: "a%d" % i for i, v in enumerate(args)}
    ns = {"__builtins__": {}, "float": float,
          "DenominatorZero": DenominatorZero, "POLE": _POLE}
    lines = ["def f(%s):" % ", ".join(names.values())]
    for k, r in enumerate(exprs):
        for acc, poly in (("n", r.num), ("d", r.den)):
            lines.append("    %s = 0.0" % acc)
            for m, c in poly.items():
                try:
                    term = repr(float(c))
                except OverflowError:
                    name = "c%d" % len(ns)
                    ns[name] = c
                    term = "float(%s)" % name
                term += "".join(" * %s ** %d" % (names[v], e) for v, e in m)
                lines.append("    %s += %s" % (acc, term))
        lines += ["    if d == 0.0:", "        raise DenominatorZero(POLE)",
                  "    r%d = n / d" % k]
    lines.append("    return [%s]" % ", ".join(
        "r%d" % k for k in range(len(exprs))))
    exec("\n".join(lines), ns)
    return ns.pop("f")  # no cycle through the function's globals


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


def cleared(vals):
    """int or Fraction values times the lcm of their denominators: ints."""
    l = lcm(*(e.denominator for e in vals))
    return [e.numerator * (l // e.denominator) for e in vals]


def exact_rank(rows):
    """Rank over Q of a list of equal-length rows of int or Fraction.

    Fraction-free (Bareiss 1968): each row is first cleared to integers,
    which leaves the rank unchanged, and every update p*row - f*pivot_row
    is divided exactly by the previous pivot, so the entries stay integer
    minors and never swell past them.  A column with no nonzero entry at
    or below the current row is skipped.
    """
    m = [row for row in map(cleared, rows) if any(row)]
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
