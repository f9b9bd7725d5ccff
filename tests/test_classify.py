import itertools

import pytest

from jetfactor import (CLASS1, CLASS2, CLASS3, ControlSystem, DynClass,
                       RatFn, StaticClass, U, X, ZERO, ONE, classify_static,
                       dynamic_class, elkin_forms_32, random_nonaut_static_pair,
                       random_static_transform, static_invariants, to_affine,
                       verify_pair)
from jetfactor import classify as classify_mod
from jetfactor import jets as jets_mod
from jetfactor.errors import (DimensionMismatch, OutOfTable,
                              UnclassifiedSignature)

x1, x2, x3 = (RatFn.var(X(i)) for i in (1, 2, 3))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))


def sysn(n, *f):
    return ControlSystem(n, max((v[2] for e in f for v in e.vars() if v[0] == 2),
                                default=0), f)


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


def test_each_bracket_is_taken_once(monkeypatch):
    # moved (3, 2) forms: 3 brackets at level 2, 9 at level 3 and at most
    # 6 for the closure of D2; the full pool x pool products took 33
    real = classify_mod.lie_bracket
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    moved = [random_static_transform(s, 3)[2] for s in elkin_forms_32()]
    monkeypatch.setattr(classify_mod, "lie_bracket", counting)
    for sys_ in moved:
        del calls[:]
        static_invariants(sys_)
        assert 0 < len(calls) <= 18, sys_.name


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
    assert fwd.is_static() and back.is_static()
    assert verify_pair(fwd, back, N=3).ok


def test_random_nonaut_pair_mentions_time():
    sys_ = elkin_forms_32()[3]
    fwd, back, moved = random_nonaut_static_pair(sys_, 2)
    assert verify_pair(fwd, back, N=3).ok
    # the shifted system genuinely depends on t
    assert moved.mentions_t()
