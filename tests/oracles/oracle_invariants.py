"""Independent sympy computation of the classification invariants.

Run directly (python3 tests/oracles/oracle_invariants.py [FILE ...]).  For
each normal form, and for each `system { ... }` document named on the
command line, it computes, with sympy only (no package imports):

  * rank of df/du at a random rational point,
  * whether the drift lies in the span D of the control fields,
  * involutivity of D,
  * the dimension of the span C0 of control fields and brackets up to
    length three, whether the drift lies in C0, and involutivity of D
    extended by the drift brackets.

The printed table is frozen into tests/test_classify.py; if this script
and the package ever disagree, one of them has a bug.
"""

import random
import sys
from fractions import Fraction

import sympy as sp

t = sp.Symbol("t")
x1, x2, x3 = sp.symbols("x1 x2 x3")
u1, u2, u3 = sp.symbols("u1 u2 u3")
XS = [x1, x2, x3]
US = [u1, u2, u3]


def affine_parts(f, n, s):
    """drift and control columns of an affine rhs."""
    f = sp.Matrix(f[:n])
    f0 = f.subs({u: 0 for u in US})
    cols = [sp.Matrix([sp.diff(fi, US[j]) for fi in f]) for j in range(s)]
    return f0, cols


def bracket(a, b, n):
    return sp.Matrix([
        sum(a[k] * sp.diff(b[i], XS[k]) - b[k] * sp.diff(a[i], XS[k])
            for k in range(n))
        for i in range(n)])


def generic_rank(vectors, n, seed=0):
    if not vectors:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(6):
        point = {v: Fraction(rng.randint(1, 50), rng.randint(1, 7))
                 for v in XS + US + [t]}
        m = sp.Matrix([[sp.nsimplify(vec[i]).subs(point) for i in range(n)]
                       for vec in vectors])
        best = max(best, m.rank())
    return best


def invariants(f, n, s):
    f0, gens = affine_parts(f, n, s)
    rank_fu = generic_rank(gens, n)
    drift_in_D = generic_rank(gens + [f0], n) == rank_fu
    invol = all(
        generic_rank(gens + [bracket(gens[i], gens[j], n)], n) == rank_fu
        for i in range(s) for j in range(i + 1, s))
    pool = [f0] + gens
    lvl2 = [bracket(g, h, n) for g in gens for h in pool]
    lvl3 = [bracket(g, h, n) for g in lvl2 for h in pool]
    c0 = gens + [b for b in lvl2 + lvl3 if any(e != 0 for e in b)]
    dim_c0 = generic_rank(c0, n)
    drift_in_c0 = generic_rank(c0 + [f0], n) == dim_c0
    d2 = gens + [b for b in (bracket(f0, g, n) for g in gens)
                 if any(e != 0 for e in b)]
    rank_d2 = generic_rank(d2, n)
    invol_d2 = all(
        generic_rank(d2 + [bracket(d2[i], d2[j], n)], n) == rank_d2
        for i in range(len(d2)) for j in range(i + 1, len(d2)))
    return (rank_fu, drift_in_D, invol, dim_c0, drift_in_c0, invol_d2)


FORMS = [
    # --- three states, two controls ---
    ("32 zero", 3, 2, (u1, u2, sp.Integer(0))),
    ("32 one", 3, 2, (u1, u2, sp.Integer(1))),
    ("32 x2", 3, 2, (u1, u2, x2)),
    ("32 x2*u1", 3, 2, (u1, u2, x2 * u1)),
    ("32 1+x2*u1", 3, 2, (u1, u2, 1 + x2 * u1)),
    # --- three states, one control ---
    ("31 u1,0,0", 3, 1, (u1, sp.Integer(0), sp.Integer(0))),
    ("31 u1,1,0", 3, 1, (u1, sp.Integer(1), sp.Integer(0))),
    ("31 u1,x1,0", 3, 1, (u1, x1, sp.Integer(0))),
    ("31 u1,x1,1", 3, 1, (u1, x1, sp.Integer(1))),
    ("31 u1,x1,x2", 3, 1, (u1, x1, x2)),
    ("31 H=x3", 3, 1, (u1, x3 * u1, 1 + x2 * u1)),
    # --- two states ---
    ("21 u1,0", 2, 1, (u1, sp.Integer(0))),
    ("21 u1,1", 2, 1, (u1, sp.Integer(1))),
    ("21 u1,x1", 2, 1, (u1, x1)),
    # --- rational fields ---
    ("32 rational", 3, 2, (u1 * x1, u2, x3 * u1 / (x2 - 3))),
    ("31 rational", 3, 1, (u1, x1 / (x2 + 2), x2 * x3)),
]


def read_system(path):
    """(n, s, rhs) of a serialized `system { ... }` document, one
    `key = value` per line, read with sympy alone."""
    keys = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                keys[k.strip()] = v.strip()
    n, s = int(keys["states"]), int(keys["controls"])
    names = {str(v): v for v in XS + US + [t]}
    f = tuple(sp.sympify(keys["f%d" % (i + 1)].replace("^", "**"),
                         locals=names) for i in range(n))
    return n, s, f


if __name__ == "__main__":
    print("%-14s rank drift_in_D invol dim_C0 drift_in_C0 invol_D2" % "form")
    rows = FORMS + [(path,) + read_system(path) for path in sys.argv[1:]]
    for name, n, s, f in rows:
        print("%-14s %s" % (name, invariants(f, n, s)))
