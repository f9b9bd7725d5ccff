"""Integer polynomials over jet coordinates: the kernel's lower layer.

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
Code outside the kernel reads a monomial only through mono_pairs.
The kernel's polynomials have int coefficients: p_mul, p_add, p_divexact
and the gcd work on ints.  Gcds come with their cofactors (_cofactors):
by a monomial when one side has a single term, else by the heuristic
integer gcd GCDHEU with the primitive PRS as its fallback.

ratfn builds the canonical quotient RatFn on this layer; this module
imports nothing from the package.
"""

from bisect import insort
from math import gcd as igcd, isqrt, lcm

T = (0, 0, 0)


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


# the stored denominator of every polynomial; never mutated
_UNIT = {(): 1}


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


def mono_pairs(m):
    """The (variable, exponent) pairs of m, in ascending variable order."""
    return zip(m[-2:0:-2], m[:0:-2])


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
    """a^n for n >= 0."""
    assert n >= 0
    return p_powers(a, {n})[n]


def p_powers(a, es):
    """{e: a^e} for every e in es, a set of exponents >= 0: every power
    the kernel takes.  A one-term a = c*m gives each c^e*m^e directly and
    a zero a gives 0, with no lower power built: sysio leaves powers of a
    single term unbounded.  A polynomial of several terms is multiplied up
    by the running product a^e = a^(e-1)*a from a^0 = 1 to max(es), and
    only that product and the powers in es are held."""
    if len(a) > 1:
        out, p = {}, p_const(1)
        for e in range(max(es) + 1):
            if e:
                p = p_mul(p, a)
            if e in es:
                out[e] = p
        return out
    out = {}
    for e in es:
        if not e:
            out[e] = p_const(1)
        elif a:
            (m, c), = a.items()
            out[e] = {tuple(x if i % 2 else x * e for i, x in enumerate(m)):
                      c ** e}
        else:
            out[e] = {}
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
        out.setdefault(e, {})[rm] = c
    return out


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
        return poly_gcd(_content_wrt(with_v, v), other)
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
    if _deg_in(g, v) == 0:
        g = p_const(1)
    return _primitive(p_mul(cg, g))[1]


def _content_wrt(a, v):
    g = {}
    for _, d in _univar(a, v).items():
        g = poly_gcd(g, d)
        if _is_one(g):
            return g
    return g


def _primitive_wrt(a, v):
    return p_divexact(a, _content_wrt(a, v))


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
                    for v, e in mono_pairs(m))


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
