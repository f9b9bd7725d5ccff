"""Exact multivariate rational functions over jet coordinates.

The kernel's upper layer: the canonical quotient RatFn over the int
polynomials, monomials, variables and gcd of poly.
A RatFn stores its value as N/(k*D): N an int polynomial, k >= 1 an int
prime to the content of N, and D integer-primitive with positive leading
coefficient and coprime to N.  The triple (N, k, D) is unique, so equality
compares it; scales combine by integer gcd and lcm.  The num and den
properties give the canonical pair (N/k, D), whose coefficients are ints
where integral and otherwise Fractions with denominator > 1; with k = 1,
num is N itself.  Instances are immutable, so an operator may return an
operand itself.  eval_pair() returns an exact value as a reduced pair of
ints; const_value() and eval_at() return Fractions.

The operators skip the general formula (n1*d2 + n2*d1 over d1*d2, and so
on) and canonicalization wherever the canonical result is known without
them.  Elsewhere they take gcds of the factors, not of the product
(Henrici).  diff is the derivation with the one unit image, and skips
derivation's image front end.  affine_parts splits a field affine in
some variables in one pass over its numerator's terms.
Each docstring says why its result is canonical.
Results are the canonical triples of the general path; only the insertion
order of their terms can differ.  The module ends with exact elimination
over RatFn and int rows.  The kernel is exact and generates no code:
float evaluation lives in crosscheck.
"""

from fractions import Fraction
from math import gcd as igcd, lcm

from .errors import DivisionByZero, SubstitutionPole, DenominatorZero
from .poly import (_UNIT, _cofactors, _content, _descending, _is_constant,
                   _is_one, _powers, _primitive, _scaled_to_int, mono_mul,
                   p_add, p_const, p_divexact, p_mul, p_neg, p_pow, p_scale,
                   p_sub, p_text, p_vars)
# Bound only for perfbench/tracer.py, which names the kernel's gcd
# ratfn.poly_gcd and changes only with the benchmark; its patch reaches
# every module that binds the same object, so it also counts poly's calls.
from .poly import poly_gcd  # noqa: F401

_POLE = "denominator vanishes at the sample point"


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
    """The int polynomial a with each variable v replaced by binding[v],
    where bound, as a RatFn.

    The terms are added over one denominator.  With N/Q the image of v
    (Q = k*D) and e its largest exponent in a, a term c*v^f*... becomes
    c*N^f*Q^(e-f)*... over the product of the Q^e; the sum is
    canonicalized once.  Of an N or Q with one term or none, only the
    powers the terms use are built (_powers_of)."""
    used = {}
    for m in a:
        i = len(m) - 2
        while i > 0:
            used.setdefault(m[i], {0}).add(m[i + 1])
            i -= 2
    pows, den = {}, _UNIT
    for v, es in used.items():
        r = binding[v] if v in binding else RatFn.var(v)
        q = r._d if r._k == 1 else p_scale(r._d, r._k)
        k = max(es)
        dens = None if _is_one(q) else _powers_of(q, {k - e for e in es})
        if dens:
            den = p_mul(den, dens[k])
        pows[v] = _powers_of(r._n, es), dens, k
    num = {}
    for m, c in a.items():
        term = p_const(c)
        for v, (nums, dens, k) in pows.items():
            e = m[m.index(v) + 1] if v in m else 0
            if e:
                term = p_mul(term, nums[e])
            if dens:
                term = p_mul(term, dens[k - e])
        for tm, tc in term.items():
            tc += num.get(tm, 0)
            if tc:
                num[tm] = tc
            else:
                num.pop(tm, None)
    if _is_one(den):
        return _make(num, 1, den)
    return _ratio(num, den, 1, 1)


def _powers_of(a, es):
    """a^e by e for every e in es, a set of exponents.  For a of several
    terms this is the list of every power up to max(es).  For one term or
    none it maps each e in es alone to p_pow(a, e), which scales the
    exponents: what repeated products give, with no lower power built."""
    if len(a) < 2:
        return {e: p_pow(a, e) for e in es}
    return _powers(a, max(es))


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
