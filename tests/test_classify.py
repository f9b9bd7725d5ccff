import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from jetfactor import (CLASS1, CLASS2, CLASS3, ControlSystem, DynClass,
                       RatFn, StaticClass, T, U, X, ZERO, ONE, classify_static,
                       dynamic_class, elkin_forms_32, random_nonaut_static_pair,
                       random_static_transform, static_invariants, to_affine,
                       verify_pair)
from jetfactor import classify as classify_mod
from jetfactor import jets as jets_mod
from jetfactor._suites import _rand_poly
from jetfactor.jets import lie_bracket
from jetfactor.ratfn import gauss_jordan
from jetfactor.errors import (DimensionMismatch, OutOfTable,
                              UnclassifiedSignature)

x1, x2, x3 = (RatFn.var(X(i)) for i in (1, 2, 3))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))


def sysn(n, *f):
    return ControlSystem(n, max((v[2] for e in f for v in e.vars() if v[0] == 2),
                                default=0), f)


def is_static(m):
    """States from (t, x) only and controls from (t, x, u) only."""
    return m.order() == -1 and m.v_order() <= 0


# Signatures of every normal form, frozen from the brute-force bracket
# computation in tests/oracles/oracle_invariants.py (sympy, no shared code).
# Columns: rank_fu, drift_in_D, involutive_D, dim_C0, drift_in_C0, involutive_D2.
SIGNATURES = [
    ((u1, u2, ZERO),            (2, True, True, 2, True, True),   "u1, u2, 0"),
    ((u1, u2, ONE),             (2, False, True, 2, False, True), "u1, u2, 1"),
    ((u1, u2, x2),              (2, False, True, 3, True, True),  "u1, u2, x2"),
    ((u1, u2, x2 * u1),         (2, True, False, 3, True, False), "u1, u2, x2*u1"),
    ((u1, u2, 1 + x2 * u1),     (2, False, False, 3, True, False), "u1, u2, 1+x2*u1"),
    ((u1, ZERO, ZERO),          (1, True, True, 1, True, True),   "u1, 0, 0"),
    ((u1, ONE, ZERO),           (1, False, True, 1, False, True), "u1, 1, 0"),
    ((u1, x1, ZERO),            (1, False, True, 2, True, True),  "u1, x1, 0"),
    ((u1, x1, ONE),             (1, False, True, 2, False, True), "u1, x1, 1"),
    ((u1, x1, x2),              (1, False, True, 3, True, True),  "u1, x1, x2"),
    ((u1, x3 * u1, 1 + x2 * u1), (1, False, True, 3, True, False),
     "u1, H(x)*u1, 1+x2*u1"),
    ((u1, ZERO),                (1, True, True, 1, True, True),   "u1, 0"),
    ((u1, ONE),                 (1, False, True, 1, False, True), "u1, 1"),
    ((u1, x1),                  (1, False, True, 2, True, True),  "u1, x1"),
]


@pytest.mark.parametrize("f,sig,tag", SIGNATURES,
                         ids=[t for _, _, t in SIGNATURES])
def test_invariant_signature(f, sig, tag):
    def signature(rec):
        return (rec.rank_fu, rec.drift_in_D, rec.involutive_D, rec.dim_C0,
                rec.drift_in_C0, rec.involutive_D2)

    form = sysn(len(f), *f)
    rec = static_invariants(form)
    assert signature(rec) == sig
    assert isinstance(rec.point, dict)
    # the signature survives static moves; involutive_D2 is a static
    # invariant only with one control (see InvariantRecord)
    width = 6 if form.s == 1 else 5
    for seed in range(3):
        moved = random_static_transform(form, seed)[2]
        got = signature(static_invariants(moved, seed=seed))
        assert got[:width] == sig[:width], (seed, got)


@pytest.mark.parametrize("f,sig,tag", SIGNATURES,
                         ids=[t for _, _, t in SIGNATURES])
def test_normal_forms_classify_to_themselves(f, sig, tag):
    c = classify_static(sysn(len(f), *f))
    assert c.tag == tag
    assert (c.n, c.s) == (len(f), sig[0])


# Rational fields, frozen from the same oracle (its "32 rational" and
# "31 rational" rows), with the tag of their table row.
RATIONAL_SIGNATURES = [
    ((u1 * x1, u2, x3 * u1 / (x2 - 3)), (2, True, False, 3, True, False),
     "u1, u2, x2*u1"),
    ((u1, x1 / (x2 + 2), x2 * x3), (1, False, True, 3, True, True),
     "u1, x1, x2"),
]


@pytest.mark.parametrize("f,sig,tag", RATIONAL_SIGNATURES,
                         ids=[t for _, _, t in RATIONAL_SIGNATURES])
def test_rational_fields_classify(f, sig, tag):
    def signature(rec):
        return (rec.rank_fu, rec.drift_in_D, rec.involutive_D, rec.dim_C0,
                rec.drift_in_C0, rec.involutive_D2)

    form = sysn(len(f), *f)
    assert signature(static_invariants(form)) == sig
    assert classify_static(form).tag == tag
    # involutive_D2 is a static invariant only with one control
    width = 6 if form.s == 1 else 5
    for seed in range(3):
        moved = random_static_transform(form, seed)[2]
        got = signature(static_invariants(moved, seed=seed))
        assert got[:width] == sig[:width], (seed, got)
        assert classify_static(moved, seed=seed).tag == tag


def test_moves_of_a_form_with_binomial_denominators_classify():
    # the second partials of these moves take gcds of binomial
    # denominators and their derivatives; the seed-1 moves once took
    # seconds (static) and minutes (nonautonomous)
    form = sysn(3, u1 / (1 + x1**2), u2, x2 * u1 / (x3 - 2))
    static = random_static_transform(form, 0)[2]
    assert classify_static(static).tag == "u1, u2, x2*u1"
    # the time shift adds a drift, as on the polynomial form x2*u1
    nonaut = random_nonaut_static_pair(form, 0)[2]
    assert classify_static(nonaut).tag == "u1, u2, 1+x2*u1"


def test_invariants_accept_affine_forms_directly():
    rec = static_invariants(to_affine(sysn(3, u1, u2, x2 * u1)))
    assert rec.rank_fu == 2
    assert "rank_fu=2" in repr(rec)


def test_five_forms_are_distinct():
    tags = [classify_static(s).tag for s in elkin_forms_32()]
    assert len(set(tags)) == 5
    names = [s.name for s in elkin_forms_32()]
    assert names == ["x3'=0", "x3'=1", "x3'=x2", "x3'=x2*u1", "x3'=1+x2*u1"]


def test_dynamic_split():
    got = [dynamic_class(classify_static(s)) for s in elkin_forms_32()]
    assert got == [CLASS2, CLASS3, CLASS1, CLASS1, CLASS1]


def test_dynamic_class_needs_the_32_table():
    with pytest.raises(OutOfTable):
        dynamic_class(classify_static(sysn(2, u1, x1)))
    with pytest.raises(OutOfTable):
        dynamic_class(StaticClass(3, 2, "not a tag"))
    with pytest.raises(OutOfTable):
        dynamic_class("Class1")


def test_full_rank_and_rank_zero_edges():
    assert classify_static(sysn(2, u1, u2)).tag == "u1, u2"
    assert classify_static(sysn(1, u1)).tag == "u1"
    assert classify_static(ControlSystem(2, 0, (ZERO, ZERO))).tag == "0, 0"
    assert classify_static(ControlSystem(2, 0, (ONE, ZERO))).tag == "1, 0"
    assert classify_static(ControlSystem(1, 0, (ZERO,))).tag == "0"
    assert classify_static(ControlSystem(1, 0, (ONE,))).tag == "1"


def test_too_many_states():
    big = ControlSystem(4, 2, (u1, u2, x2, x3))
    with pytest.raises(DimensionMismatch):
        classify_static(big)


def test_no_witness_is_loud(monkeypatch):
    # every sample alternates between x1 = 5, where the drift vanishes, and
    # x1 = 6, where its bracket with the control field does: each rank
    # reaches its maximum somewhere, but never all of them at one point
    sys_ = ControlSystem(2, 1, (u1, (x1 - 5) * (x1 - 7)))
    xs = itertools.cycle((5, 6))

    def sampler(vars_, rng):
        c = next(xs)
        return {v: c for v in vars_}

    # patched wherever a module may look the sampler up
    for mod in (jets_mod, classify_mod):
        monkeypatch.setattr(mod, "sample_point", sampler, raising=False)
    with pytest.raises(UnclassifiedSignature):
        static_invariants(sys_)


def test_no_symbolic_bracket_is_taken(monkeypatch):
    # brackets come from the fields' 2-jets at the sample points: no
    # lie_bracket call, and at most n first and n(n+1)/2 second partials
    # of each of the n components of the s + 1 fields, 81 for (3, 2)
    real_bracket, real_diff = jets_mod.lie_bracket, RatFn.diff
    calls = {"bracket": 0, "diff": 0}

    def counting_bracket(a, b):
        calls["bracket"] += 1
        return real_bracket(a, b)

    def counting_diff(e, v):
        calls["diff"] += 1
        return real_diff(e, v)

    moved = [to_affine(random_static_transform(s, 3)[2])
             for s in elkin_forms_32()]
    for mod in (jets_mod, classify_mod):
        monkeypatch.setattr(mod, "lie_bracket", counting_bracket,
                            raising=False)
    monkeypatch.setattr(RatFn, "diff", counting_diff)
    for form in moved:
        calls.update(bracket=0, diff=0)
        static_invariants(form)
        assert calls["bracket"] == 0
        assert 0 < calls["diff"] <= 3 * 3 * (3 + 6)


def test_known_ranks_and_unneeded_brackets_are_skipped(monkeypatch):
    # every span extends a basis built before it (the controls' from
    # the empty one), and no row is reduced into a basis that already
    # has n rows; level three is bracketed only at the points where the
    # controls and level two fall short of n, found from the symbolic
    # brackets, and its calls are the only ones of a level-two jet
    # (value, Jacobian) with a field's 2-jet; a level-two Jacobian is
    # built once per point, and only where a bracket reads it, which is
    # level three or the closure of D2
    real_echelon = classify_mod.int_echelon
    real_bracket = classify_mod._bracket
    real_jacobian = classify_mod._bracket_jacobian
    made, level3, built, read = [], [0], [], set()

    def counting_echelon(basis, rows):
        assert len(basis) < 3
        assert not basis or any(basis is b for b in made)
        made.append(real_echelon(basis, rows))
        return made[-1]

    def counting_bracket(a, b):
        level3[0] += len(a) == 2 and len(b) == 3
        read.update(id(x[1]) for x in (a, b) if len(x) == 2)
        return real_bracket(a, b)

    def counting_jacobian(a, b):
        built.append(((id(a), id(b)), real_jacobian(a, b)))
        return built[-1][1]

    def run(form):
        made.clear()
        built.clear()
        read.clear()
        level3[0] = 0
        rec = static_invariants(form)
        assert len({at for at, _ in built}) == len(built)
        assert {id(jac) for _, jac in built} == read
        return rec

    moved = [to_affine(random_static_transform(s, 3)[2])
             for s in elkin_forms_32()]
    short = []
    for form in moved:
        fields = [form.f0] + list(form.fvecs)
        low = fields[1:] + [lie_bracket(fields[i], fields[j])
                            for i in range(3) for j in range(i + 1, 3)]
        short.append(sum(
            len(gauss_jordan([[e.eval_at(pt) for e in v] for v in low], 3)) < 3
            for pt, _ in jets_mod.sample_points([e for v in fields for e in v])))
    monkeypatch.setattr(classify_mod, "int_echelon", counting_echelon)
    monkeypatch.setattr(classify_mod, "_bracket", counting_bracket)
    monkeypatch.setattr(classify_mod, "_bracket_jacobian", counting_jacobian)
    for form, k in zip(moved, short):
        run(form)
        assert level3[0] == k * 3 * 3
        # three Jacobians at each short point, for level three; on these
        # moves the D2 closure reads none that level three did not build
        assert len(built) == 3 * k
    # the saving is real: three forms span at level two everywhere
    assert short.count(0) == 3 and short.count(5) == 2

    # x3' = 2*x3 + x1*x2 + x1*u2 spans with the controls and level two
    # everywhere, and D2 falls short of n only where x1 = x2 = 0: at the
    # first point below, the D2 closure alone reads level-two Jacobians,
    # and the record is the symbolic algorithm's
    form = ControlSystem(3, 2, (x1 + u1, x2 + u2, 2 * x3 + x1 * x2 + x1 * u2))
    pts = itertools.cycle([(0, 0, 5), (7, -3, 11), (2, 9, -4), (-6, 5, 3),
                           (8, 1, -2)])

    def sampler(vars_, rng):
        c = next(pts)
        return {v: c[v[2] - 1] for v in vars_}

    monkeypatch.setattr(jets_mod, "sample_point", sampler)
    rec = run(form)
    assert level3[0] == 0 and len(built) == 2
    assert (rec.rank_fu, rec.involutive_D, rec.drift_in_D, rec.dim_C0,
            rec.point, rec.drift_in_C0, rec.involutive_D2) == \
        _symbolic_invariants(form)


# -------------------------------------------------------------------
# the 2-jet brackets against the symbolic ones

def _rand_field(rng, n, rational):
    """Seeded field in x1..xn and t; a rational one has one denominator,
    shared by some of its components."""
    pool = [T] + [X(i + 1) for i in range(n)]
    den = ONE
    while rational and den.is_const():
        den = _rand_poly(rng, pool, terms=1)
    return [_rand_poly(rng, pool, terms=rng.randint(1, 2))
            / (den if rng.random() < 0.7 else ONE) for _ in range(n)]


@pytest.mark.parametrize("n,s,rational", [
    (n, s, r) for n in (1, 2, 3) for s in (0, 1, 2) for r in (False, True)])
def test_jet_brackets_are_scaled_symbolic_brackets(n, s, rational):
    # at every sample point each jet bracket is the symbolic bracket's
    # value (and Jacobian, at level two) times the product of the fields'
    # integer scales there: level two, level three (in either order, the
    # reversed one against the negated bracket) and a bracket of two
    # level-two brackets, as in the closure of D2
    rng = random.Random(100 * n + 10 * s + rational)
    fields = [_rand_field(rng, n, rational) for _ in range(s + 1)]
    exprs = [classify_mod._jet_exprs(v) for v in fields]
    w = len(exprs[0])
    pairs = [(i, j) for i in range(s + 1) for j in range(i, s + 1)]
    sym = {ij: lie_bracket(fields[ij[0]], fields[ij[1]]) for ij in pairs}
    sym_jac = {ij: [[e.diff(X(m + 1)) for m in range(n)] for e in b]
               for ij, b in sym.items()}
    sym3 = {(ij, k): lie_bracket(b, fields[k])
            for ij, b in sym.items() for k in range(s + 1)}
    sym22 = {(ij, kl): lie_bracket(b, b2)
             for ij, b in sym.items() for kl, b2 in sym.items() if ij < kl}
    checked = 0
    for pt, vals in jets_mod.sample_points(
            [e for ex in exprs for e in ex], seed=n + s):
        per = [vals[i * w:(i + 1) * w] for i in range(s + 1)]
        jet = [classify_mod._scaled_jet(v, n) for v in per]
        scale = [lcm(*(Fraction(*q).denominator for q in v)) for v in per]
        got = {(i, j): (classify_mod._bracket(jet[i], jet[j]),
                        classify_mod._bracket_jacobian(jet[i], jet[j]))
               for i, j in pairs}

        def want(b, c):
            return [c * e.eval_at(pt) for e in b]

        for (i, j), b in sym.items():
            c = scale[i] * scale[j]
            assert got[i, j][0] == want(b, c)
            assert got[i, j][1] == [want(row, c) for row in sym_jac[i, j]]
            for k in range(s + 1):
                b3 = sym3[(i, j), k]
                assert classify_mod._bracket(got[i, j], jet[k]) == \
                    want(b3, c * scale[k])
                assert classify_mod._bracket(jet[k], got[i, j]) == \
                    want(b3, -c * scale[k])
            for (k, l) in pairs:
                if (i, j) < (k, l):
                    assert classify_mod._bracket(got[i, j], got[k, l]) \
                        == want(sym22[(i, j), (k, l)], c * scale[k] * scale[l])
            checked += 1
    assert checked == 5 * len(pairs)


def _symbolic_invariants(a, seed=0):
    """static_invariants as it stood with symbolic brackets: each bracket
    a RatFn field, evaluated at the sample points and ranked with
    gauss_jordan.  Returns the seven InvariantRecord fields."""
    if isinstance(a, ControlSystem):
        a = to_affine(a)
    n, s = a.n, a.s
    fields = [a.f0] + list(a.fvecs)
    sample = [(pt, [Fraction(*q) for q in vals]) for pt, vals in
              jets_mod.sample_points([e for v in fields for e in v], seed)]
    points = [pt for pt, _ in sample]
    pool = [(v, [vals[i * n:(i + 1) * n] for _, vals in sample])
            for i, v in enumerate(fields)]
    taken = []

    def bracket(p, q):
        b = lie_bracket(p[0], q[0])
        return b, [[e.eval_at(pt) for e in b] for pt in points]

    def rank(span):
        at = [len(gauss_jordan([vals[k] for _, vals in span], n))
              for k in range(len(points))]
        taken.append(at)
        return max(at)

    f0, gens = pool[0], pool[1:]
    level2 = [bracket(pool[i], pool[j])
              for i in range(s + 1) for j in range(i + 1, s + 1)]
    level3 = [bracket(b, p) for b in level2 for p in pool]
    c0 = gens + level2 + level3
    d2 = gens + [b for b in level2[:s] if not b[0].is_zero()]

    rank_fu = rank(gens)
    drift_in_D = rank(gens + [f0]) == rank_fu
    involutive_D = all(rank(gens + [b]) == rank_fu for b in level2[s:])
    dim_C0 = rank(c0)
    drift_in_C0 = rank(c0 + [f0]) == dim_C0
    rank_D2 = rank(d2)
    involutive_D2 = all(rank(d2 + [bracket(d2[i], d2[j])]) == rank_D2
                        for i in range(len(d2)) for j in range(i + 1, len(d2)))
    witness = next(pt for k, pt in enumerate(points)
                   if all(at[k] == max(at) for at in taken))
    return (rank_fu, involutive_D, drift_in_D, dim_C0, witness, drift_in_C0,
            involutive_D2)


@pytest.mark.parametrize("f,sig,tag", SIGNATURES,
                         ids=[t for _, _, t in SIGNATURES])
def test_invariants_match_the_symbolic_algorithm(f, sig, tag):
    form = sysn(len(f), *f)
    cases = [(form, 0)]
    for seed in range(3):
        for move in (random_static_transform, random_nonaut_static_pair):
            cases.append((move(form, seed)[2], seed))
    for sys_, seed in cases:
        rec = static_invariants(sys_, seed=seed)
        got = (rec.rank_fu, rec.involutive_D, rec.drift_in_D, rec.dim_C0,
               rec.point, rec.drift_in_C0, rec.involutive_D2)
        assert got == _symbolic_invariants(sys_, seed), (sys_.name, seed)


def test_static_class_value_semantics():
    a = StaticClass(3, 2, "u1, u2, x2")
    b = StaticClass(3, 2, "u1, u2, x2")
    assert a == b and hash(a) == hash(b)
    assert a != StaticClass(3, 2, "u1, u2, 0")
    assert DynClass("Class1") == CLASS1
    assert repr(CLASS2) == "Class2"


@pytest.mark.parametrize("seed", range(6))
def test_random_static_transforms_preserve_tags(seed):
    for sys_ in elkin_forms_32():
        fwd, back, moved = random_static_transform(sys_, seed)
        assert classify_static(moved, seed=seed).tag == classify_static(sys_).tag


def test_random_static_transform_is_an_equivalence():
    sys_ = elkin_forms_32()[3]
    fwd, back, moved = random_static_transform(sys_, 9)
    assert fwd.src == sys_ and fwd.tgt == moved
    assert is_static(fwd) and is_static(back)
    assert verify_pair(fwd, back, N=3).ok


def test_random_nonaut_pair_mentions_time():
    sys_ = elkin_forms_32()[3]
    fwd, back, moved = random_nonaut_static_pair(sys_, 2)
    assert verify_pair(fwd, back, N=3).ok
    # the shifted system genuinely depends on t
    assert any(T in fi.vars() for fi in moved.f)
