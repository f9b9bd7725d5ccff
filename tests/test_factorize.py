"""Factoring pullback matrices as g * S * G."""

import hashlib
import random
from fractions import Fraction

import pytest

from jetfactor import (BlockMatrix, Coframe, ControlSystem, EquivMap,
                       GnicePattern, NonautStatic, RatFn, U, X, ZERO, ONE,
                       build_S, builtin_fixtures, check_gnice, compose,
                       factor_JK0, pullback_matrix, random_static_transform,
                       validate_nonaut_static, verify_forward)
from jetfactor.errors import (DiagonalDrift, DimensionMismatch, JetError,
                              PatternViolation, PivotVanishes, RankMismatch,
                              StructureViolation)
from jetfactor import factorize
from jetfactor.coframes import ADAPTED
from jetfactor.factorize import _Driver
from jetfactor.sysio import serialize
from test_equivalence import VANISHING, full_inverse

FIX = builtin_fixtures()
PHI = FIX[0][0]
PSI = FIX[1][0]
THETA = FIX[2][0]

x1 = RatFn.var(X(1))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))


def du(j, k):
    return RatFn.var(U(j, k))


# --- the shift pattern -------------------------------------------------------


def test_shift_pattern_layout():
    m = build_S(3, 4)
    assert m.meta == {"kind": "shift", "n": 3, "N": 4}
    assert list(m.row_sizes) == [-1, 0, 1, 2, 3, 4]
    assert list(m.col_sizes) == [-1, 0, 1, 2, 3, 4, 5]
    assert m.get((-1, 1), (-1, 1)) == ONE
    assert m.get((0, 1), (1, 2)) == ONE      # the odd one out
    assert m.get((0, 2), (0, 2)) == ONE
    assert m.get((0, 3), (0, 3)) == ONE
    for k in range(1, 5):
        assert m.get((k, 1), (k - 1, 1)) == ONE
        assert m.get((k, 2), (k + 1, 2)) == ONE
    # exactly one unit per row, nothing else anywhere
    assert len(m.entries) == len(m.row_labels())
    assert all(v == ONE for v in m.entries.values())


def test_shift_times_its_transpose_is_identity():
    S = build_S(3, 4)
    eye = BlockMatrix.identity(S.row_sizes)
    assert S.matmul(S.transpose()) == eye


def test_shift_needs_room():
    with pytest.raises(DimensionMismatch):
        build_S(1, 4)
    with pytest.raises(DimensionMismatch):
        build_S(3, 1)


# --- the three bundled factorizations ---------------------------------------


def expected_g_phi():
    """All entries of the left factor for the forward bilinear map.

    Cross-checked against tests/oracles/oracle_pullback.py, which computes
    A with sympy and then applies the shift transpose.
    """
    rows = {
        (-1, 1): {(-1, 1): ONE},
        (0, 1): {(0, 2): x1, (0, 3): -ONE},
        (0, 2): {(0, 1): ONE},
        (0, 3): {(0, 2): ONE},
        (1, 1): {(0, 1): x1, (1, 1): u2},
        (1, 2): {(1, 2): ONE},
        (2, 1): {(0, 1): u1, (1, 1): du(2, 1), (1, 2): x1, (2, 1): u2},
        (2, 2): {(2, 2): ONE},
        (3, 1): {(0, 1): du(1, 1), (1, 1): du(2, 2), (1, 2): 2 * u1,
                 (2, 1): 2 * du(2, 1), (2, 2): x1, (3, 1): u2},
        (3, 2): {(3, 2): ONE},
        (4, 1): {(0, 1): du(1, 2), (1, 1): du(2, 3), (1, 2): 3 * du(1, 1),
                 (2, 1): 3 * du(2, 2), (2, 2): 3 * u1, (3, 1): 3 * du(2, 1),
                 (3, 2): x1, (4, 1): u2},
        (4, 2): {(4, 2): ONE},
    }
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


def is_identity(mat):
    return all(r == c and v == ONE for (r, c), v in mat.entries.items()) \
        and len(mat.entries) == len(mat.row_labels())


def test_factor_phi():
    A = pullback_matrix(PHI, N=4)
    fac = factor_JK0(A)
    assert fac.matches(A)
    assert is_identity(fac.G.mat)
    assert fac.g.mat.entries == expected_g_phi()
    assert fac.assumptions == ["u2"]
    assert fac.edge_cols == ((4, 1), (5, 1))
    assert check_gnice(fac.G) == GnicePattern(ZERO, ZERO, ZERO)


def test_factor_phi_left_factor_shape():
    fac = factor_JK0(pullback_matrix(PHI, N=4))
    g = fac.g
    assert g.mat.is_block_lower()
    assert list(g.mat.row_sizes) == [-1, 0, 1, 2, 3, 4]
    # control-level diagonal blocks all agree (here: u2 on the first slot)
    assert g.mat.block(1, 1) == [[u2, ZERO], [ZERO, ONE]]
    assert g.mat.block(3, 3) == g.mat.block(1, 1)


def test_phi_right_factor_reaching_the_display_entry():
    # a right factor outside the narrow pattern whose left factor holds
    # the displayed entry -x1*u2' - u1 at (2,1) -> (0,1); G = I + E with
    # E^2 = 0, so G^-1 = 2I - G, and g = A * G^-1 * S^T
    A = pullback_matrix(PHI, N=4)
    S = build_S(3, 4)
    G = BlockMatrix.identity(A.col_sizes)
    G.set((2, 2), (1, 2), (x1 * du(2, 1) + 2 * u1) / x1)
    Ginv = BlockMatrix.identity(A.col_sizes)
    Ginv.set((2, 2), (1, 2), ZERO - G.get((2, 2), (1, 2)))
    assert G.matmul(Ginv) == BlockMatrix.identity(A.col_sizes)
    g = A.matmul(Ginv).matmul(S.transpose())
    assert g.matmul(S).matmul(G) == A
    NonautStatic(g)
    NonautStatic(G)
    assert g.get((2, 1), (0, 1)) == ZERO - x1 * du(2, 1) - u1
    with pytest.raises(PatternViolation, match=r"entry \(2, 2\) -> \(1, 2\)"):
        check_gnice(G)
    frozen = factor_JK0(A).g.mat
    moved = {k for k in set(g.entries) | set(frozen.entries)
             if g.get(*k) != frozen.get(*k)}
    assert moved == {((1, 2), (0, 1)), ((2, 1), (0, 1)), ((3, 1), (0, 1)),
                     ((4, 1), (0, 1))}


def test_factor_psi():
    A = pullback_matrix(PSI, N=4)
    fac = factor_JK0(A)
    assert fac.matches(A)
    assert is_identity(fac.G.mat)
    assert fac.assumptions == ["-u2"]
    check_gnice(fac.G)  # no PatternViolation


def test_factor_theta_product_is_exact():
    A = pullback_matrix(THETA, N=4)
    fac = factor_JK0(A)
    assert fac.matches(A)
    assert fac.edge_cols == ()
    # with no edge columns the full product literally equals A
    assert fac.product().entries == A.entries
    assert fac.assumptions == ["(-1)/(u2^2)", "-u2^2"]


def test_factor_theta_right_factor_content():
    fac = factor_JK0(pullback_matrix(THETA, N=4))
    G = fac.G.mat
    assert not is_identity(G)
    assert G.get((1, 2), (0, 1)) == u2 ** 2
    for k in range(2, 6):
        assert G.get((k, 2), (k - 1, 1)) == u2 ** 2
        assert G.get((k, 2), (k - 2, 1)) == 2 * (k - 1) * u2 * du(2, 1)
    # square, block-lower, equal diagonal control blocks
    lev = [l for l in fac.G.mat.row_sizes if l >= 1]
    assert all(fac.G.mat.block(l, l) == fac.G.mat.block(1, 1) for l in lev)


def test_factor_theta_escapes_the_narrow_pattern():
    fac = factor_JK0(pullback_matrix(THETA, N=4))
    with pytest.raises(PatternViolation) as exc:
        check_gnice(fac.G)
    assert str(exc.value) == \
        "entry (2, 2) -> (0, 1) is 2*u2*u2', pattern wants 0"


def test_factorization_is_deterministic():
    A = pullback_matrix(THETA, N=4)
    f1, f2 = factor_JK0(A), factor_JK0(A)
    assert f1.g == f2.g and f1.G == f2.G
    assert f1.ops == f2.ops and f1.assumptions == f2.assumptions


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_target_side_static_moves_mix_rows_at_every_level(m, seed):
    # a static move of the target leaves b != 0 in the repeat block, so
    # stage B adds the same multiple of row (k, 2) to row (k, 1) at every
    # control level k, a path the fixtures themselves never take
    moved = compose(random_static_transform(m.tgt, seed)[0], m)
    A = pullback_matrix(moved, N=3)
    fac = factor_JK0(A)
    assert fac.matches(A)
    mixes = [op for op in fac.ops if op.endswith(" * row (1, 2)")
             and op.startswith("row (1, 1) += ")]
    assert len(mixes) == 1
    coeff = mixes[0][len("row (1, 1) += "):-len(" * row (1, 2)")]
    for k in (2, 3):
        assert "row (%d, 1) += %s * row (%d, 2)" % (k, coeff, k) in fac.ops


def _source_relabeled(m, xs, us):
    """m after the static change x'_i = x_{xs[i]}, u'_j = u_{us[j]} of its
    source coordinates: an exact strict map again, with J = K = 0."""
    sub = {X(k): RatFn.var(X(i + 1)) for i, k in enumerate(xs)}
    sub.update({U(k): RatFn.var(U(j + 1)) for j, k in enumerate(us)})
    src = ControlSystem(m.src.n, m.src.s,
                        [m.src.f[k - 1].substitute(sub) for k in xs])
    back = EquivMap(src, m.src, [sub[X(k)] for k in range(1, m.src.n + 1)],
                    [sub[U(k)] for k in range(1, m.src.s + 1)])
    return compose(m, back)


@pytest.mark.parametrize("xs, us, swap", [
    ((1, 2, 3), (2, 1), "swap cols (1, 1), (1, 2)"),
    ((1, 3, 2), (1, 2), "swap rows (0, 3), (0, 2)"),
    ((2, 3, 1), (1, 2), "swap cols (0, 1), (0, 3)"),
], ids=["pivot-row-columns", "level-0-rows", "level-0-columns"])
def test_source_relabelings_take_the_swap_branches(xs, us, swap):
    # swapping phi's source controls zeroes the pivot row's (1, 2) entry;
    # permuting its source states leaves a zero level-0 diagonal pivot, so
    # the reduction swaps in a row below it or a column beside it
    m = _source_relabeled(PHI, xs, us)
    assert verify_forward(m).forward_ok
    A = pullback_matrix(m, N=3)
    assert A.meta["J"] == 0
    fac = factor_JK0(A)
    assert swap in fac.ops
    assert fac.matches(A)


@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_left_factors_preserve_structure_equations(m):
    fac = factor_JK0(pullback_matrix(m, N=4))
    frame = Coframe(m.tgt, 5, ADAPTED)
    rep = validate_nonaut_static(fac.g, frame)
    assert rep.passed, rep.summary()
    assert "preserves" in rep.summary()


# --- the carried factors -----------------------------------------------------


_MULTIPLIERS = [RatFn.const(2), RatFn.const(Fraction(-1, 3)), x1, u1 + 1,
                du(2, 1), ONE / x1, x1 / (u2 - 1)]


def _replay(rng, A, steps):
    """Random elementary operations through _Driver, each also applied to
    L (rows) or R (columns); asserts g * W * G == A after every step."""
    d = _Driver(A)
    L = BlockMatrix.identity(A.row_sizes)
    R = BlockMatrix.identity(A.col_sizes)
    rows, cols = A.row_labels(), A.col_labels()
    n = A.row_sizes[0]
    for _ in range(steps):
        op = rng.choice(["row_add", "row_scale", "row_swap", "permute",
                         "col_add", "col_swap"])
        c = rng.choice(_MULTIPLIERS)
        if op == "row_add":
            dst, src = rng.sample(rows, 2)
            d.row_add(dst, src, c)
            L.row_add(dst, src, c)
        elif op == "row_scale":
            r = rng.choice(rows)
            d.row_scale(r, c)
            L.row_scale(r, c)
        elif op == "row_swap":
            a, b = rng.sample(rows, 2)
            d.row_swap(a, b)
            L.relabel_rows({a: b, b: a})
        elif op == "permute":
            new = rng.sample(range(1, n + 1), n)
            perm = {i + 1: j for i, j in enumerate(new)}
            d.permute_block0_rows(perm)
            L.relabel_rows({(0, i): (0, j) for i, j in perm.items()})
        elif op == "col_add":
            dst, src = rng.sample(cols, 2)
            d.col_add(dst, src, c)
            R.col_add(dst, src, c)
        else:
            a, b = rng.sample(cols, 2)
            d.col_swap(a, b)
            R.relabel_cols({a: b, b: a})
        assert d.g.matmul(d.W).matmul(d.G) == A, d.ops[-1]
    return d, L, R


def _permutation(to, sizes):
    """The permutation matrix P with P[to[r], r] = 1, set entry by entry."""
    P = BlockMatrix(sizes, sizes)
    for lab in P.row_labels():
        P.set(to.get(lab, lab), lab, ONE)
    return P


def _relabelings(rng, labels, empty):
    """Label permutations: a cross-level swap, one that moves the line
    with no entries, the level-0 rotation and a shuffle of every label."""
    a, b = rng.sample(labels, 2)
    while a[0] == b[0]:
        a, b = rng.sample(labels, 2)
    c = rng.choice([lab for lab in labels if lab[0] != empty[0]])
    n = sum(lab[0] == 0 for lab in labels)
    p = rng.randint(2, n)
    return [{a: b, b: a}, {empty: c, c: empty},
            {(0, i): (0, (i - p) % n + 1) for i in range(1, n + 1)},
            dict(zip(labels, rng.sample(labels, len(labels))))]


@pytest.mark.parametrize("seed", range(4))
def test_relabeling_multiplies_by_a_permutation(seed):
    rng = random.Random(seed)
    M = pullback_matrix(PHI, N=2)
    rows, cols = M.row_labels(), M.col_labels()
    empty_row, empty_col = rng.choice(rows), rng.choice(cols)
    for c in cols:
        M.set(empty_row, c, ZERO)
    for r in rows:
        M.set(r, empty_col, ZERO)
    assert all(empty_row != r and empty_col != c for r, c in M.entries)
    for to in _relabelings(rng, rows, empty_row):
        got = M.copy()
        got.relabel_rows(to)
        assert got == _permutation(to, M.row_sizes).matmul(M), to
    for to in _relabelings(rng, cols, empty_col):
        got = M.copy()
        got.relabel_cols(to)
        assert got == M.matmul(_permutation(to, M.col_sizes).transpose()), to


def _digest(ops):
    return hashlib.sha256("\n".join(ops).encode()).hexdigest()


# SHA-256 of the replay's op texts joined by newlines
_REPLAY_OPS = [
    "0c3e36946be22c475219999e4d3a4ff2d424113804ffec59b9e64db1b65fdfe2",
    "0fc7fe8f1f389a6f7a2f36d2034e97d82fbc5b50915dbaef2caaff2b08d2f98a",
    "e3e6cf944be31b56a6463a215c04a2be64331a1d3dd08c393e879a42210f1805",
    "a20b3d21c5fd26c83472daaa0a412aabead894808a4103c68ff1f8add0d91d21",
]


@pytest.mark.parametrize("seed", range(4))
def test_driver_keeps_g_W_G_equal_to_A(seed):
    rng = random.Random(seed)
    A = pullback_matrix(rng.choice([PHI, PSI, THETA]), N=2)
    d, L, R = _replay(rng, A, 24)
    assert _digest(d.ops) == _REPLAY_OPS[seed]
    assert d.W == L.matmul(A).matmul(R)
    # the carried factors are the inverses of the accumulated products
    assert d.g == full_inverse(L)
    assert d.G == full_inverse(R)


@pytest.mark.parametrize("N", (4, 6, 8))
def test_raw_path_passes_its_checks_on_every_fixture(monkeypatch, N):
    # the canonical path returns before the raw factors are checked, so
    # check them here with the narrow solve switched off
    monkeypatch.setattr(factorize, "_canonicalize", lambda *args: None)
    for m in (PHI, PSI, THETA):
        A = pullback_matrix(m, N=N)
        fac = factor_JK0(A)
        assert fac.edge_cols == () and not fac.ops[-1].startswith("solve")
        assert fac.product().entries == A.entries
        NonautStatic(fac.g.mat)
        NonautStatic(fac.G.mat)


def test_canonical_path_applies_no_carried_operation(monkeypatch):
    applied = []
    flush = _Driver._flush

    def counting(d):
        applied.append(len(d._pending))
        flush(d)

    monkeypatch.setattr(_Driver, "_flush", counting)
    A = pullback_matrix(PHI, N=4)
    assert factor_JK0(A).ops[-1].startswith("solve right factor")
    assert sum(applied) == 0
    monkeypatch.setattr(factorize, "_canonicalize", lambda *args: None)
    factor_JK0(A)
    assert sum(applied) > 0


# (op count, SHA-256 of the op texts joined by newlines) at N = 4 for the
# factorization and for the driver behind it
_OPS_AT_4 = {
    "phi": ((26, "5d2cedc8c890dadf6b80984fb8a61c689ccfc900141a88b78b46c75dbcc387f1"),
            (25, "cbc34e21b989518910d65bb5f3bc087ef060d36b436ec244042f6826ecd9e93b")),
    "psi": ((26, "5f1f04fe285bbd22c68a501afa1b744db1740462a6cf727428087946a124a83e"),
            (25, "958d8c50bbb42cdfb446b4241d8b83cdf1dc988e7c3eef95f49c69052ac83347")),
    "theta": ((48, "2b91e57d111131ddb7150a149b7afb7dfa6442586779d04a962df117fe9b6f22"),
              (48, "2b91e57d111131ddb7150a149b7afb7dfa6442586779d04a962df117fe9b6f22")),
}


@pytest.mark.parametrize("m", [PHI, PSI, THETA], ids=lambda m: m.name)
def test_op_texts_are_frozen_strings(monkeypatch, m):
    made = []

    class Recording(_Driver):
        def __init__(self, A):
            super().__init__(A)
            made.append(self)

    monkeypatch.setattr(factorize, "_Driver", Recording)
    fac = factor_JK0(pullback_matrix(m, N=4))
    (d,) = made
    for ops, (count, digest) in zip((fac.ops, d.ops), _OPS_AT_4[m.name]):
        assert all(type(op) is str for op in ops)
        assert (len(ops), _digest(ops)) == (count, digest)
    assert fac.ops == fac.ops and d.ops == d.ops
    assert fac.ops[:len(d.ops)] == d.ops
    assert fac.ops[0] == ("permute level-0 rows by [(1, 3), (2, 1), (3, 2)]"
                          if m is not THETA else "row (0, 1) *= -u2^2")


@pytest.mark.parametrize("m, narrow", [(PHI, True), (THETA, False),
                                       (PHI, False)],
                         ids=["phi", "theta", "phi-raw"])
def test_one_product_per_factorization(monkeypatch, m, narrow):
    # factor_JK0 checks g * S * G against A on both paths; the caller's
    # matches reads that same product instead of multiplying again.  g * S
    # is one relabeling, and the product by G one matmul
    A = pullback_matrix(m, N=4)
    if not narrow:
        monkeypatch.setattr(factorize, "_canonicalize", lambda *args: None)
    calls = []
    matmul, times_shift = BlockMatrix.matmul, factorize._times_shift

    def counting(self, other):
        calls.append(("matmul", other.meta.get("kind")))
        return matmul(self, other)

    def counting_shift(g, S):
        calls.append(("relabel", S.meta.get("kind")))
        return times_shift(g, S)

    monkeypatch.setattr(BlockMatrix, "matmul", counting)
    monkeypatch.setattr(factorize, "_times_shift", counting_shift)
    fac = factor_JK0(A)
    assert fac.ops[-1].startswith("solve") == narrow
    assert [c for c, _ in calls] == ["relabel", "matmul"]
    assert calls[0][1] == "shift"
    assert fac.matches(A)
    assert len(calls) == 2
    assert fac.product() is fac.product()


def test_the_shift_relabel_is_the_product_by_S():
    rng = random.Random(20261105)
    vals = [ONE, -ONE, x1, u1 / x1, du(2, 1) - u2]
    for n, N in ((2, 2), (3, 2), (3, 4), (4, 3)):
        S = build_S(n, N)
        g = BlockMatrix(S.row_sizes, S.row_sizes, meta={"kind": "left"})
        G = BlockMatrix.identity(S.col_sizes)
        labels, cols = g.row_labels(), S.col_labels()
        for _ in range(4 * len(labels)):
            g.set(rng.choice(labels), rng.choice(labels), rng.choice(vals))
            G.set(rng.choice(cols), rng.choice(cols), rng.choice(vals))
        got, want = factorize._times_shift(g, S), g.matmul(S)
        assert got == want and got.meta == want.meta
        # the product by G adds in the order the two matmuls add in
        assert (list(got.matmul(G).entries.items())
                == list(want.matmul(G).entries.items()))


def test_the_shift_relabel_rejects_any_other_S():
    g = BlockMatrix.identity(build_S(3, 2).row_sizes)
    moved = [((0, 2), (0, 2), ZERO), ((0, 2), (0, 3), ONE)]
    for edits in ([((0, 2), (3, 1), ONE)],     # two units in one row
                  moved,                       # two in one column
                  [((0, 2), (0, 2), 2 * ONE)],  # not a unit
                  moved[:1]):                  # a row with none
        S = build_S(3, 2)
        for r, c, v in edits:
            S.set(r, c, v)
        with pytest.raises(PatternViolation):
            factorize._times_shift(g, S)
    with pytest.raises(DimensionMismatch):
        factorize._times_shift(g, build_S(3, 3))


def test_a_changed_right_factor_fails_to_match():
    A = pullback_matrix(PHI, N=4)
    fac = factor_JK0(A)
    G = fac.G.mat.copy()
    G.set((0, 2), (0, 1), G.get((0, 2), (0, 1)) + x1)
    bad = factorize.Factorization(fac.g, fac.S, NonautStatic(G),
                                  fac.assumptions, fac.edge_cols)
    assert not bad.matches(A)
    assert fac.matches(A)


@pytest.mark.parametrize("m", [PHI, THETA], ids=lambda m: m.name)
def test_a_corrupted_carried_factor_fails_the_product_check(monkeypatch, m):
    # the entry keeps g block-lower with equal diagonal blocks, so only
    # the product check can see it
    class Corrupted(_Driver):
        @property
        def g(self):
            g = _Driver.g.fget(self).copy()
            g.set((2, 1), (0, 1), g.get((2, 1), (0, 1)) + x1)
            return g

    monkeypatch.setattr(factorize, "_Driver", Corrupted)
    monkeypatch.setattr(factorize, "_canonicalize", lambda *args: None)
    with pytest.raises(StructureViolation, match="does not reproduce"):
        factor_JK0(pullback_matrix(m, N=4))


def _edited(*entries):
    """phi's strict pullback at N = 3 with the given (row, col, value)
    entries set."""
    def build():
        A = pullback_matrix(PHI, N=3)
        for r, c, v in entries:
            A.set(r, c, v)
        return A
    return build


def _source_side_move():
    fwd = compose(PHI, random_static_transform(PHI.src, 0)[1])
    return pullback_matrix(fwd, N=3)


def _reshaped(rows=(), cols=()):
    def build():
        A = pullback_matrix(PHI, N=3)
        return BlockMatrix({**A.row_sizes, **dict(rows)},
                           {**A.col_sizes, **dict(cols)})
    return build


# phi's strict pullback at N = 3 has A^0_1 = [[0, 0], [0, 1], [0, 0]] and
# A^1_2 = [[0, 0], [0, 1]].  Three raises of factor_JK0 are not here, as no
# input reaches them: "no level-0 row meets the control columns", "level-0
# rows are not proportional over the control columns" and "repeat block
# vanished after normalization".  Exact rank 1 of A^0_1 and A^1_2 rules
# each of them out (docs/decisions.md, "Exact block ranks").
_REJECTIONS = [
    ("state-counts", _reshaped(cols=[(0, 2)]), DimensionMismatch,
     "state counts differ; the shift pattern is square in block 0"),
    ("three-controls", _reshaped(rows=[(1, 3)]), DimensionMismatch,
     "factorization is defined for two controls"),
    ("zero-A01", _edited(((0, 2), (1, 2), ZERO)), RankMismatch,
     "block (0,1) must have generic rank 1"),
    ("rank-2-A12", _edited(((1, 1), (2, 1), ONE)), RankMismatch,
     "block (1,2) must have generic rank 1"),
    ("rank-2-A12-off-the-samples", _edited(((1, 1), (2, 1), VANISHING)),
     RankMismatch, "block (1,2) must have generic rank 1"),
    ("dt-in-pivot-row", _edited(((0, 2), (-1, 1), ONE)), StructureViolation,
     "pivot row keeps a dt component"),
    ("singular-state-block", _edited(((0, 3), (0, 2), x1),
                                     ((0, 3), (0, 3), -ONE)),
     RankMismatch, "level-0 state block is singular"),
    ("repeat-escapes", _edited(((1, 2), (2, 1), ONE), ((1, 2), (2, 2), ZERO)),
     StructureViolation, "repeat block escapes the normalized column"),
    ("repeats-disagree", _edited(((2, 2), (3, 2), RatFn.const(2))),
     StructureViolation, "repeat blocks disagree at level 2"),
    ("own-level-entry", _edited(((1, 1), (1, 1), ONE)), StructureViolation,
     "row (1,1) keeps an entry at its own level"),
    ("pivot-vanishes", _edited(((1, 1), (0, 1), ZERO)), PivotVanishes,
     "shift pivot of row (1,1) reduces to zero"),
    ("pivot-drifts", _edited(((2, 1), (1, 1), RatFn.const(2) * u2)),
     DiagonalDrift, "pivot of row (2,1) is 2, not the level-1 pivot"),
    ("source-side-move", _source_side_move, DiagonalDrift,
     "pivot of row (2,1) is (1/3)*x3 - (1/3)*x2 - (1/9)*x1 + 1, "
     "not the level-1 pivot"),
    ("stray-entry", _edited(((3, 2), (4, 1), ONE)), StructureViolation,
     "reduction did not reach the shift pattern; mismatched entries at "
     "[((3, 2), (4, 1))]"),
]


@pytest.mark.parametrize("build, cls, message",
                         [case[1:] for case in _REJECTIONS],
                         ids=[case[0] for case in _REJECTIONS])
def test_factor_rejections(build, cls, message):
    with pytest.raises(JetError) as exc:
        factor_JK0(build())
    assert (type(exc.value), str(exc.value)) == (cls, message)


# SHA-256 of serialize(factor_JK0(pullback_matrix(m, N=N))), recorded with
# the factors computed as inverses of the accumulated elementary products
_FACTOR_DIGESTS = {
    ("phi", 4):
        "47b9c67c119bc5e7cb7afc6054af8775c0101675bf7afccadcd1a3841d64bc8c",
    ("psi", 4):
        "89320154e2e5b51c7e603efdd9d67cb9d8518bbcee0ed78b5975d7a6265792e1",
    ("theta", 4):
        "e0746f22b74101dbbc8a2a6a3e46d2aaf237f2f029e539c7d1df4074f470f211",
    ("phi", 6):
        "15d550e6d1309e32ae061c19f008ccca8455c8a189d34751b7bf91b4f473e7ea",
    ("psi", 6):
        "bc7d08617614195077641fe900182d23290046c3e7843e7d5c54310643e57819",
    ("theta", 6):
        "771907ec7a76cfcabfb8dcaf1d21acc11be9d6333943f944d07d11bd26ba9708",
    ("phi", 8):
        "746ff40d17d7d8760cd2a6ce0ae75a18c75349edfd31ed56cf81b318b93c40c0",
    ("psi", 8):
        "b5dad7b63398b73d1f426e4827836173771443181f74396444112dce4f834b21",
    ("theta", 8):
        "0e6660bc92eff2ccb2b72894ad776ffbe8aa7d09b085f352e1413ccbf3dc5d10",
    ("phi", 2):
        "3d12785ee06fa4976337a3d90b8ec3e852eec67bdd40db763cf867289c29500e",
    ("psi", 2):
        "c7742c2525f3820a876ca04cf4db41780a1d43218dfb4346d9bc86cce15dd558",
    ("theta", 2):
        "267da1081acba1bb6122c637c8014b2d657c2fa921ab1eabece70ca918b3dc1f",
    ("phi", 3):
        "3517b873f0f041b5db7778052b677e4b7d8dca40227d0a791f98b17f28d695ab",
    ("psi", 3):
        "b35cec64e5f62d654d8f460cf0216afed1624b03ec56f4a3387e2fc373a3ceb8",
    ("theta", 3):
        "5fce9de734f7053f0ab2ab5b291671b9790d2516a0bf265605650f2b733ff8f1",
    ("phi", 5):
        "4f9692da7b7f9a94799bdaf36e5b887a668b6b07144c3377e809d2703a1f7c39",
    ("psi", 5):
        "34943276549a95ffc67ca36bf034fbcaaf6babd23e0489a046b191494eab3472",
    ("theta", 5):
        "157bd341c53f162aa626aab44f9dc981e4bd6bd6d7815d9d360e7520ae571c9d",
    ("phi", 7):
        "a0b75dd665a4ae7629a7604e6e8235d715bd10f0c41077a4cb38f9c4598b983e",
    ("psi", 7):
        "a4a19fee98e9a1b2f36fdd2e40dccd4d0174873af0dc96720b7b173e67dc9c4a",
    ("theta", 7):
        "f4a627edf56b6c335403587ed6d0eb507b2510244871171249ac9ac6b5b34820",
    ("phi", 10):
        "fec288adb500c5cf63f581636dad5c9773948c0b839e4082e08c7c186e7d85d7",
    ("psi", 10):
        "139debbea3eeeed9fffb519b9013c7725fb7adc2f8ce6a066272034074ee7b8e",
    ("theta", 10):
        "bd77ded96bec8386fc8f844610949fa7399afcb9b09643fd6c7086cb20b85cc1",
}


def test_factorizations_are_frozen():
    fix = {m.name: m for m in (PHI, PSI, THETA)}
    got = {}
    for name, N in _FACTOR_DIGESTS:
        text = serialize(factor_JK0(pullback_matrix(fix[name], N=N)))
        got[name, N] = hashlib.sha256(text.encode()).hexdigest()
    assert got == _FACTOR_DIGESTS


# --- coframe-change validation ------------------------------------------------


def lower_change(drift=False):
    """A small hand-made block-lower change over levels -1..2."""
    m = BlockMatrix.identity({-1: 1, 0: 3, 1: 2, 2: 2})
    m.set((0, 2), (0, 1), x1)
    if drift:
        m.set((2, 1), (2, 1), RatFn.const(5))  # breaks diagonal equality
    return m


def test_nonaut_static_wrapper_checks_shape():
    bad = lower_change()
    bad.set((0, 1), (1, 1), ONE)  # reaches upward
    with pytest.raises(StructureViolation):
        NonautStatic(bad)
    with pytest.raises(DiagonalDrift):
        NonautStatic(lower_change(drift=True))
    assert NonautStatic(lower_change()).mat.is_block_lower()


def test_validator_rejects_diagonal_drift():
    sig = PHI.src
    frame = Coframe(sig, 3, ADAPTED)
    with pytest.raises(DiagonalDrift):
        validate_nonaut_static(lower_change(drift=True), frame)


def test_validator_accepts_a_scaled_change():
    sig = PHI.src
    frame = Coframe(sig, 3, ADAPTED)
    m = lower_change()
    rep = validate_nonaut_static(m, frame)
    assert rep.passed, rep.summary()


def test_validator_flags_a_leaky_row():
    sig = PHI.src
    frame = Coframe(sig, 3, ADAPTED)
    m = lower_change()
    # a dt coefficient built from u2'' differentiates to dt ^ (level 3),
    # which no level-2 partner can absorb
    m.set((1, 1), (-1, 1), du(2, 2))
    rep = validate_nonaut_static(m, frame)
    assert not rep.passed
    assert "leaks" in rep.summary()
    assert rep.failures[0][0] == (1, 1)


def test_validator_flags_an_unabsorbable_residue():
    sig = PHI.src
    frame = Coframe(sig, 3, ADAPTED)
    m = lower_change()
    # collapse the second control slot at every level: the diagonals still
    # agree, but d(row (0,2)) lands on the dead slot
    m.set((1, 2), (1, 2), ZERO)
    m.set((2, 2), (2, 2), ZERO)
    rep = validate_nonaut_static(m, frame)
    assert not rep.passed
    assert any(lab == (0, 2) for lab, _ in rep.failures)


# --- the narrow right-factor pattern -------------------------------------------


def gnice_matrix(p0, p1, q, M=3):
    m = BlockMatrix.identity({-1: 1, 0: 3, **{k: 2 for k in range(1, M + 1)}})
    m.set((0, 2), (0, 1), p0)
    m.set((1, 2), (0, 1), p1)
    for k in range(1, M + 1):
        m.set((k, 2), (k, 1), p0)
    for k in range(1, M):
        m.set((k + 1, 2), (k, 1), p1 + k * q)
    return m


def test_gnice_round_trip():
    p0, p1, q = x1, u1, du(1, 1)
    pat = check_gnice(gnice_matrix(p0, p1, q))
    assert pat == GnicePattern(p0, p1, q)
    assert "x1" in repr(pat)


def test_gnice_identity():
    eye = BlockMatrix.identity({-1: 1, 0: 3, 1: 2, 2: 2})
    assert check_gnice(eye) == GnicePattern(ZERO, ZERO, ZERO)


def test_gnice_rejects_off_pattern_entries():
    m = gnice_matrix(x1, u1, du(1, 1))
    m.set((0, 3), (0, 1), ONE)  # not a slot the pattern owns
    with pytest.raises(PatternViolation):
        check_gnice(m)


def test_gnice_rejects_distorted_progression():
    m = gnice_matrix(x1, u1, du(1, 1))
    m.set((3, 2), (2, 1), u1)  # should be p1 + 2q
    with pytest.raises(PatternViolation):
        check_gnice(m)


def test_gnice_needs_the_3x2_shape():
    with pytest.raises(DimensionMismatch):
        check_gnice(BlockMatrix.identity({-1: 1, 0: 2, 1: 1}))


@pytest.mark.parametrize("cancel", [False, True], ids=["plain", "cancelling"])
def test_narrow_solve_recovers_a_moved_right_factor(cancel):
    # A = g * S * G(p0, p1, q) for phi's left factor g; "cancelling" moves
    # row (3,1) of g so that A reads zero at (1,1) and (2,2) but not at
    # (1,2) there, and g[(3,1),(2,1)] = -A[(3,1),(1,2)] * p0 comes from
    # the p0 part of the form alone
    A = pullback_matrix(PHI, N=4)
    g = factor_JK0(A).g.mat.copy()
    p0, p1, q = x1, u1, u2
    if cancel:
        g.set((3, 1), (0, 1), u2)
        g.set((3, 1), (2, 1), -(p0 * u2))
        g.set((3, 1), (1, 2), ZERO)
    moved = g.matmul(build_S(3, 4)).matmul(gnice_matrix(p0, p1, q, M=5))
    if cancel:
        assert [moved.get((3, 1), c) for c in ((1, 1), (1, 2), (2, 2))] \
            == [ZERO, u2, ZERO]
    fac = factor_JK0(moved)
    assert fac.ops[-1] == "solve right factor onto the narrow pattern: " \
        "p0=x1 p1=u1 q=u2"
    assert check_gnice(fac.G) == GnicePattern(p0, p1, q)
    assert fac.g.mat == g
    assert fac.matches(moved)
