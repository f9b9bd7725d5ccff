"""Seeded randomized property suites over the exact kernel.

Each suite runs `count` independent cases from a seeded generator and
returns a list of human-readable failure strings (empty means the suite
passed).  The same functions back the test-suite and the CLI's fixture
runner, so the green bar means the same thing in both places.
"""

import random

from .ratfn import RatFn, ZERO, ONE, T, X, U
from .errors import SubstitutionPole, DivisionByZero
from .coframes import exterior_d, exterior_d2


_POOL = [T, X(1), X(2), U(1), U(2, 1)]

# The generator keeps expressions deliberately tiny (an extra term roughly
# triples the cost of the gcd work every product triggers, and the suites
# run thousands of products); a small fraction of cases get a binomial
# denominator so cancellation still gets exercised.


def _rand_poly(rng, pool=_POOL, terms=None):
    acc = RatFn.const(rng.randint(-2, 2))
    if terms is None:
        terms = 1 if rng.random() < 0.8 else 2
    for _ in range(terms):
        term = RatFn.const(rng.choice([-2, -1, 1, 2]))
        v = RatFn.var(rng.choice(pool))
        if rng.random() < 0.2:
            v = v * v
        acc = acc + term * v
    return acc


def _rand_ratfn(rng, pool=_POOL):
    num = _rand_poly(rng, pool)
    if rng.random() < 0.1:
        den = ZERO
        while den.is_zero():
            den = _rand_poly(rng, pool, terms=1)
    else:
        den = RatFn.const(rng.choice([1, 2, -1]))
        if rng.random() < 0.7:
            den = den * RatFn.var(rng.choice(pool))
    return num / den


def field_laws(count=1000, seed=0):
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        a, b, c = (_rand_ratfn(rng) for _ in range(3))
        checks = [
            ("a+b == b+a", a + b == b + a),
            ("(a+b)+c == a+(b+c)", (a + b) + c == a + (b + c)),
            ("a*b == b*a", a * b == b * a),
            ("(a*b)*c == a*(b*c)", (a * b) * c == a * (b * c)),
            ("a*(b+c) == a*b+a*c", a * (b + c) == a * b + a * c),
            ("a-a == 0", (a - a).is_zero()),
            ("a+0 == a", a + ZERO == a),
            ("a*1 == a", a * ONE == a),
        ]
        if not b.is_zero():
            checks.append(("(a/b)*b == a", (a / b) * b == a))
        for label, ok in checks:
            if not ok:
                failures.append("case %d: %s fails" % (case, label))
    return failures


def leibniz(count=1000, seed=1):
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        a = _rand_ratfn(rng)
        b = _rand_ratfn(rng)
        v = rng.choice(_POOL)
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        if lhs != rhs:
            failures.append("case %d: product rule fails for d/d%s" % (case, (v,)))
        # sum rule comes along for free but is cheap to keep honest
        if (a + b).diff(v) != a.diff(v) + b.diff(v):
            failures.append("case %d: sum rule fails" % case)
    return failures


def substitution_homomorphism(count=1000, seed=2):
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < count:
        a = _rand_ratfn(rng)
        b = _rand_ratfn(rng)
        sub = {v: _rand_poly(rng) for v in (a.vars() | b.vars())}
        try:
            sa, sb = a.substitute(sub), b.substitute(sub)
            ssum = (a + b).substitute(sub)
            sprod = (a * b).substitute(sub)
        except (SubstitutionPole, DivisionByZero):
            continue  # substitution ran into a pole; draw a fresh case
        if ssum != sa + sb:
            failures.append("case %d: substitution is not additive" % done)
        if sprod != sa * sb:
            failures.append("case %d: substitution is not multiplicative" % done)
        done += 1
    return failures


def d_squared_zero(count=1000, seed=3):
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        omega = {}
        for _ in range(rng.randint(1, 3)):
            omega[rng.choice(_POOL)] = _rand_ratfn(rng)
        dd = exterior_d2(exterior_d(omega))
        if dd:
            failures.append("case %d: d(d(omega)) has %d terms" % (case, len(dd)))
    return failures


def canonical_idempotence(count=1000, seed=4):
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        a = _rand_ratfn(rng)
        b = _rand_ratfn(rng)
        for label, v in [("a*1", a * ONE), ("a+0", a + ZERO),
                         ("a/1", a / ONE), ("(a+b)-b", (a + b) - b),
                         ("-(-a)", ZERO - (ZERO - a))]:
            if not (v == a and v.num == a.num and v.den == a.den):
                failures.append("case %d: %s re-canonicalizes differently"
                                % (case, label))
        if a.to_text() != (a * ONE).to_text():
            failures.append("case %d: printing is not canonical" % case)
    return failures


ALL_SUITES = [
    ("field laws", field_laws),
    ("Leibniz", leibniz),
    ("substitution homomorphism", substitution_homomorphism),
    ("d-squared zero", d_squared_zero),
    ("canonical idempotence", canonical_idempotence),
]


def run_all(count=1000, seed=0):
    """(name, failures) for every suite; seeds are offset per suite."""
    out = []
    for k, (name, fn) in enumerate(ALL_SUITES):
        out.append((name, fn(count=count, seed=seed + k)))
    return out
