"""Factor the pullback matrix of a strict order-(0, 0) equivalence between
two 2-control systems as A = g * S * G.

S is the fixed shift pattern (build_S): the level-0 pivot row moves to the
second control column one level up, the remaining state rows stay put, and
at each control level the first column shifts down while the second shifts
up.  g and G are block-lower-triangular coframe changes on the two sides
("nonautonomous static" changes: they never mix a level into a higher one),
with all control-level diagonal blocks equal.

The factorization is computed by recorded row operations (their inverses
collected into g) and column operations (their inverses collected into G)
driving a working copy of A onto the S pattern.  Row mixes and scales at
control levels are replicated across every level so the diagonal-equality
invariant holds by construction; the column side uses only unit shears and
swaps, which is what makes G land on the narrow three-function pattern
(check_gnice) whenever the input comes from an equivalence in the
normalized class.

Each returned factorization has its product checked against A: the raw
factors' g * S * G == A, or the narrow ones' on the truncation interior.
The product is computed once and held by the factorization, so a caller's
own check reads the product that was checked.  Every division performed
along the way is recorded as a nonvanishing assumption.
"""

from .ratfn import RatFn, ZERO, ONE, gauss_jordan
from .errors import (DimensionMismatch, RankMismatch, PivotVanishes,
                     DiagonalDrift, StructureViolation, PatternViolation,
                     TruncationExceeded)
from .coframes import exterior_d, frame_sizes
from .equivalence import BlockMatrix, block_rank


def build_S(n, N):
    """The fixed shift pattern for n states at truncation level N, a
    BlockMatrix whose meta holds kind "shift", n and N.

    Rows -1..N, columns -1..N+1; unit entries at
    (-1,1)->(-1,1), (0,1)->(1,2), (0,i)->(0,i) for i >= 2,
    (k,1)->(k-1,1) and (k,2)->(k+1,2) for 1 <= k <= N."""
    if n < 2 or N < 2:
        raise DimensionMismatch("shift pattern needs n >= 2 and N >= 2")
    m = BlockMatrix(frame_sizes(n, 2, N), frame_sizes(n, 2, N + 1),
                    meta={"kind": "shift", "n": n, "N": N})
    m.set((-1, 1), (-1, 1), ONE)
    m.set((0, 1), (1, 2), ONE)
    for i in range(2, n + 1):
        m.set((0, i), (0, i), ONE)
    for k in range(1, N + 1):
        m.set((k, 1), (k - 1, 1), ONE)
        m.set((k, 2), (k + 1, 2), ONE)
    return m


class NonautStatic:
    """A square block-lower coframe change over one frame's labels whose
    control-level diagonal blocks are all equal (DiagonalDrift otherwise).
    """

    def __init__(self, mat):
        if not mat.is_block_lower():
            raise StructureViolation("matrix mixes a level into a higher one")
        if list(mat.row_sizes.items()) != list(mat.col_sizes.items()):
            raise DimensionMismatch("coframe change must be square")
        self.mat = mat
        lev = [l for l in mat.row_sizes if l >= 1]
        if lev:
            ref = mat.block(1, 1)
            for l in lev[1:]:
                if mat.block(l, l) != ref:
                    raise DiagonalDrift(
                        "diagonal block at level %d differs from level 1" % l)

    def __eq__(self, o):
        return isinstance(o, NonautStatic) and self.mat == o.mat


class Factorization:
    """Result of factor_JK0.

    edge_cols lists the columns at the top of the truncation whose entries
    would need data beyond the truncation to reproduce; product comparison
    skips them (they are empty for the raw elimination path).

    The factors are not mutated after construction: the NonautStatic
    checks and the held product both hold only for the factors as built.
    """

    def __init__(self, g, S, G, assumptions, edge_cols=(), ops=()):
        self.g = g
        self.S = S
        self.G = G
        self.assumptions = list(assumptions)
        self.edge_cols = tuple(edge_cols)
        self.ops = list(ops)
        self._product = None

    def product(self):
        """g * S * G, multiplied out on the first call and held: g * S by
        _times_shift, then one matmul."""
        if self._product is None:
            self._product = _times_shift(self.g.mat, self.S).matmul(self.G.mat)
        return self._product

    def matches(self, A):
        """Exact product reconstruction on the truncation interior."""
        prod = self.product()
        skip = set(self.edge_cols)
        for key in set(prod.entries) | set(A.entries):
            if key[1] in skip:
                continue
            if prod.entries.get(key, ZERO) != A.entries.get(key, ZERO):
                return False
        return True


def _times_shift(g, S):
    """g * S for an S with one unit entry in each row and at most one in
    each column, as build_S makes it: entry (m, c) of S moves column m of
    g to column c, with no arithmetic.  Raises PatternViolation for any
    other S and DimensionMismatch when the shapes do not compose."""
    if list(g.col_sizes.items()) != list(S.row_sizes.items()):
        raise DimensionMismatch("block shapes do not compose")
    to = {}
    for (m, c), v in S.entries.items():
        if v != ONE or m in to:
            raise PatternViolation("S entry (%s, %s) is not its row's one unit"
                                   % (m, c))
        to[m] = c
    if set(to) != set(S.row_labels()) or len(set(to.values())) != len(to):
        raise PatternViolation("S needs one unit in each row and at most "
                               "one in each column")
    out = BlockMatrix(g.row_sizes, S.col_sizes, g.meta)
    for (r, m), v in g.entries.items():
        out.set(r, to[m], v)
    return out


class GnicePattern:
    """The three functions determining a normalized right factor."""

    def __init__(self, p0, p1, q):
        self.p0 = p0
        self.p1 = p1
        self.q = q

    def __eq__(self, o):
        return (isinstance(o, GnicePattern) and self.p0 == o.p0
                and self.p1 == o.p1 and self.q == o.q)

    def __repr__(self):
        return "GnicePattern(p0=%s, p1=%s, q=%s)" % (
            self.p0.to_text(), self.p1.to_text(), self.q.to_text())


# ---------------------------------------------------------------------------
# the factorizer

class _Driver:
    """Working copy W of A and the factors g, G with g * W * G == A.

    g and G start at the identity and are never inverted.  A row
    operation W -> E*W takes g to g*E^-1, a column operation on g; a
    column operation W -> W*E takes G to E^-1*G, a row operation on G.
    So g * W * G == A holds after every step, and once W is the shift
    pattern S, g and G are the factors.

    The operations on g and G wait in one list until either is read, so
    an elimination whose factors are never read never builds them.
    """

    def __init__(self, A):
        self.W = A.copy()
        self._g = BlockMatrix.identity(A.row_sizes)
        self._G = BlockMatrix.identity(A.col_sizes)
        self._pending = []
        self.assumptions = []
        self.ops = []

    def _flush(self):
        for op in self._pending:
            op()
        self._pending.clear()

    @property
    def g(self):
        self._flush()
        return self._g

    @property
    def G(self):
        self._flush()
        return self._G

    def note(self, d):
        if not d.is_const():
            t = d.to_text()
            if t not in self.assumptions:
                self.assumptions.append(t)

    def row_add(self, dst, src, c):
        self.ops.append("row %s += (%s) * row %s" % (dst, c.to_text(), src))
        self.W.row_add(dst, src, c)
        self._pending.append(lambda: self._g.col_add(src, dst, -c))

    def row_scale(self, r, c):
        self.ops.append("row %s *= %s" % (r, c.to_text()))
        self.W.row_scale(r, c)
        self._pending.append(lambda: self._g.col_scale(r, ONE / c))

    def _relabel_rows(self, to, text):
        """Rows r of W move to to[r] (W -> P*W), so g's columns move
        alike (g -> g*P^-1)."""
        self.ops.append(text)
        self.W.relabel_rows(to)
        self._pending.append(lambda: self._g.relabel_cols(to))

    def row_swap(self, a, b):
        self._relabel_rows({a: b, b: a}, "swap rows %s, %s" % (a, b))

    def col_add(self, dst, src, c):
        self.ops.append("col %s += (%s) * col %s" % (dst, c.to_text(), src))
        self.W.col_add(dst, src, c)
        self._pending.append(lambda: self._G.row_add(src, dst, -c))

    def col_swap(self, a, b):
        """Columns a and b of W swap (W -> W*P), and so do G's rows
        (G -> P^-1*G)."""
        to = {a: b, b: a}
        self.ops.append("swap cols %s, %s" % (a, b))
        self.W.relabel_cols(to)
        self._pending.append(lambda: self._G.relabel_rows(to))

    def clear_by_row(self, r, c, src):
        """Clear W[r, c] by adding a multiple of row src to row r."""
        w = self.W.get(r, c)
        if not w.is_zero():
            self.row_add(r, src, -w)

    def clear_by_col(self, r, c, src):
        """Clear W[r, c] by adding a multiple of column src to column c."""
        w = self.W.get(r, c)
        if not w.is_zero():
            self.col_add(c, src, -w)

    def clear_control_row(self, r, i, n):
        """Stage B: clear row r at control level i out of the second-column
        chain, the first columns below level i - 1 and the state columns
        2..n, using the rows already settled."""
        for k in range(i, 0, -1):
            self.clear_by_row(r, (k, 2), (0, 1) if k == 1 else (k - 1, 2))
        for k in range(0, i - 1):
            self.clear_by_row(r, (k, 1), (k + 1, 1))
        for j in range(2, n + 1):
            self.clear_by_row(r, (0, j), (0, j))

    def permute_block0_rows(self, perm):
        """perm maps old index -> new index within the level-0 rows."""
        self._relabel_rows({(0, i): (0, j) for i, j in perm.items()},
                           "permute level-0 rows by %s" % sorted(perm.items()))


def factor_JK0(A):
    """Factor a strict (J = K = 0) pullback matrix as g * S * G.

    Preconditions: two controls on both sides, equal state counts, the
    blocks A^0_1 and A^1_2 both of generic rank 1, the rank over the
    rational functions, which block_rank computes exactly.  The matrix
    must hold levels 0..N with N >= 2 (columns to N+1), as pullback_matrix
    produces for a strict map.
    """
    J = A.meta.get("J", 0)
    N = A.meta.get("N", max(A.row_sizes))
    n = A.row_sizes[0]
    if A.col_sizes[0] != n:
        raise DimensionMismatch("state counts differ; the shift pattern is square in block 0")
    if A.row_sizes.get(1) != 2 or A.col_sizes.get(1) != 2:
        raise DimensionMismatch("factorization is defined for two controls")
    if J != 0:
        what = "a static map" if J < 0 else "an order-%d map" % J
        raise RankMismatch("matrix comes from %s, not a strict one" % what)
    if N < 2 or max(A.col_sizes) < N + 1:
        raise TruncationExceeded("need levels 0..N with N >= 2 and columns to N+1")
    if block_rank(A, 0, 1) != 1:
        raise RankMismatch("block (0,1) must have generic rank 1")
    if block_rank(A, 1, 2) != 1:
        raise RankMismatch("block (1,2) must have generic rank 1")
    colN = max(A.col_sizes)

    d = _Driver(A)
    W = d.W

    # ---- stage A: the level-0 rows -----------------------------------

    # bring the row that meets the control columns to the top (cyclically,
    # keeping the cyclic order of the others)
    p = None
    for i in range(1, n + 1):
        if any(not W.get((0, i), (1, j)).is_zero() for j in (1, 2)):
            p = i
            break
    if p is None:
        raise RankMismatch("no level-0 row meets the control columns")
    if p != 1:
        perm = {i: ((i - p) % n) + 1 for i in range(1, n + 1)}
        d.permute_block0_rows(perm)

    # normalize the pivot row over the level-1 columns to (0, 1): a unit
    # shear into the first column (replicated to every level so the right
    # factor keeps equal diagonal blocks), then a row scale
    alpha = W.get((0, 1), (1, 1))
    beta = W.get((0, 1), (1, 2))
    if beta.is_zero():
        for k in range(1, colN + 1):
            d.col_swap((k, 1), (k, 2))
        alpha, beta = W.get((0, 1), (1, 1)), W.get((0, 1), (1, 2))
    if not alpha.is_zero():
        shear = -(alpha / beta)
        d.note(beta)
        for k in range(1, colN + 1):
            d.col_add((k, 1), (k, 2), shear)
    d.note(beta)
    d.row_scale((0, 1), ONE / beta)

    # the other level-0 rows are proportional to the pivot row over the
    # level-1 columns, so after the shear their first-column entries vanish
    for i in range(2, n + 1):
        if not W.get((0, i), (1, 1)).is_zero():
            raise RankMismatch("level-0 rows are not proportional over the control columns")
        d.clear_by_row((0, i), (1, 2), (0, 1))

    # clear the pivot row's state entries with shears out of column (1,2)
    for j in range(1, n + 1):
        d.clear_by_col((0, 1), (0, j), (1, 2))
    if not W.get((0, 1), (-1, 1)).is_zero():
        raise StructureViolation("pivot row keeps a dt component")

    # reduce the remaining level-0 rows to (0 | identity)
    for i in range(2, n + 1):
        found = None
        for c in [i] + list(range(i + 1, n + 1)) + [1]:
            for r in range(i, n + 1):
                if not W.get((0, r), (0, c)).is_zero():
                    found = (r, c)
                    break
            if found:
                break
        if not found:
            raise RankMismatch("level-0 state block is singular")
        r, c = found
        if r != i:
            d.row_swap((0, r), (0, i))
        if c != i:
            d.col_swap((0, c), (0, i))
        pv = W.get((0, i), (0, i))
        d.note(pv)
        d.row_scale((0, i), ONE / pv)
        for r2 in range(2, n + 1):
            if r2 != i:
                d.clear_by_row((0, r2), (0, i), (0, i))
    for i in range(2, n + 1):
        d.clear_by_col((0, i), (0, 1), (0, i))

    # ---- stage B: the control levels ----------------------------------

    # normalize the repeating block to [[0,0],[0,1]] with row mixes
    # replicated across all control levels
    if not (W.get((1, 1), (2, 1)).is_zero() and W.get((1, 2), (2, 1)).is_zero()):
        raise StructureViolation("repeat block escapes the normalized column")
    b_ = W.get((1, 1), (2, 2))
    e_ = W.get((1, 2), (2, 2))
    if e_.is_zero():
        if b_.is_zero():
            raise RankMismatch("repeat block vanished after normalization")
        for k in range(1, N + 1):
            d.row_swap((k, 1), (k, 2))
        b_, e_ = W.get((1, 1), (2, 2)), W.get((1, 2), (2, 2))
    if not b_.is_zero():
        d.note(e_)
        mix = -(b_ / e_)
        for k in range(1, N + 1):
            d.row_add((k, 1), (k, 2), mix)
    if e_ != ONE:
        d.note(e_)
        sc = ONE / e_
        for k in range(1, N + 1):
            d.row_scale((k, 2), sc)
    for i in range(1, N):
        if W.block(i, i + 1) != [[ZERO, ZERO], [ZERO, ONE]]:
            raise StructureViolation("repeat blocks disagree at level %d" % i)

    # descend level by level; the first-column pivot must be the same
    # function at every level, so one replicated scale fixes them all
    for i in range(1, N + 1):
        r = (i, 1)
        d.clear_control_row(r, i, n)
        if i >= 2:
            d.clear_by_row(r, (0, 1), (1, 1))
        if not W.get(r, (i, 1)).is_zero():
            raise StructureViolation("row (%d,1) keeps an entry at its own level" % i)
        piv = W.get(r, (i - 1, 1))
        if piv.is_zero():
            raise PivotVanishes("shift pivot of row (%d,1) reduces to zero" % i)
        if i == 1:
            d.note(piv)
            sc = ONE / piv
            for k in range(1, N + 1):
                d.row_scale((k, 1), sc)
        elif piv != ONE:
            raise DiagonalDrift("pivot of row (%d,1) is %s, not the level-1 pivot"
                                % (i, piv.to_text()))

        r = (i, 2)
        d.clear_control_row(r, i, n)
        # the leftover entries toward the shift column leave through the
        # next level's second column, whose only settled entry is this row's
        # unit; row operations here would break the diagonal equality of g
        for cc in ((i - 1, 1), (i, 1)):
            d.clear_by_col(r, cc, (i + 1, 2))

    # ---- wrap up -------------------------------------------------------

    S = build_S(n, N)
    if not (W.entries == S.entries):
        extra = sorted(set(W.entries) ^ set(S.entries))
        raise StructureViolation("reduction did not reach the shift pattern; "
                                 "mismatched entries at %s" % (extra[:6],))
    if n == 3:
        canon = _canonicalize(A, S, d.assumptions, d.ops)
        if canon is not None:
            return canon
    fac = Factorization(NonautStatic(d.g), S, NonautStatic(d.G),
                        d.assumptions, ops=d.ops)
    if fac.product().entries != A.entries:
        raise StructureViolation("product of the factors does not reproduce the input")
    return fac


def _gnice_matrix(sizes, p0, p1, q):
    m = BlockMatrix(sizes, sizes, meta={"kind": "gnice"})
    m.set((-1, 1), (-1, 1), ONE)
    n = sizes[0]
    for i in range(1, n + 1):
        m.set((0, i), (0, i), ONE)
    if not p0.is_zero():
        m.set((0, 2), (0, 1), p0)
    top = max(sizes)
    for k in range(1, top + 1):
        m.set((k, 1), (k, 1), ONE)
        m.set((k, 2), (k, 2), ONE)
        if not p0.is_zero():
            m.set((k, 2), (k, 1), p0)
    if not p1.is_zero():
        m.set((1, 2), (0, 1), p1)
    for k in range(1, top):
        c = p1 + RatFn.const(k) * q
        if not c.is_zero():
            m.set((k + 1, 2), (k, 1), c)
    return m


def _canonicalize(A, S, assumptions, ops=()):
    """Rebuild the factorization with the right factor in the narrow
    three-function shape, when the input admits one.

    The raw elimination already yields a legal factorization, but its
    column operations can scatter entries outside the narrow pattern.
    With the right factor forced into the pattern G(p0, p1, q), the left
    factor g = A * Ginv * S^T has every entry affine in (p0, p1, q):

        g[x, (k,1)] = A[x,(k-1,1)] - A[x,(k-1,2)] p0 - A[x,(k,2)] (p1 + (k-1) q)
        g[x, (0,1)] = A[x,(1,2)],  g[x,(0,i)] = A[x,(0,i)],
        g[x, (k,2)] = A[x,(k+1,2)]

    so block-lowerness and diagonal equality of g become an exact linear
    system for the three functions.  Solve it with ratfn.gauss_jordan,
    free unknowns set to 0; the reduced echelon form is unique, and so is
    that solution.  An inconsistent system means the input has no
    representative in the narrow shape and the raw factorization stands.
    """
    rows = A.row_labels()

    def affine(x, r):
        # (base, coeff of p0, coeff of p1, coeff of q), or None when every
        # entry of A it reads is zero: then every part of the form is zero
        k, j = r
        if k == -1:
            base = A.get(x, (-1, 1))
        elif k == 0:
            base = A.get(x, (1, 2)) if j == 1 else A.get(x, (0, j))
        elif j == 2:
            base = A.get(x, (k + 1, 2))
        else:
            base = A.get(x, (k - 1, 1))
            prev2 = A.get(x, (k - 1, 2))
            nxt2 = A.get(x, (k, 2))
            if base.is_zero() and prev2.is_zero() and nxt2.is_zero():
                return None
            return (base, -prev2, -nxt2, -(RatFn.const(k - 1) * nxt2))
        return None if base.is_zero() else (base, ZERO, ZERO, ZERO)

    # each pair's form, built the first time the system or g reads it: an
    # inconsistent system stops before the lower pairs are formed
    aff = {}

    def form(x, r):
        if (x, r) not in aff:
            aff[x, r] = affine(x, r)
        return aff[x, r]

    zero = (ZERO, ZERO, ZERO, ZERO)
    eqs = []
    for x in rows:
        for r in rows:
            if x[0] < r[0]:
                af = form(x, r)
                if af is not None:
                    eqs.append(af)
    for k in range(2, max(A.row_sizes) + 1):
        for a in (1, 2):
            for b in (1, 2):
                hi = form((k, a), (k, b))
                lo = form((1, a), (1, b))
                af = tuple(h - l for h, l in zip(hi or zero, lo or zero))
                if any(not t.is_zero() for t in af):
                    eqs.append(af)

    # c_p0*p0 + c_p1*p1 + c_q*q = -base, as rows [c_p0, c_p1, c_q, -base]
    work = [[c0, c1, c2, -base] for base, c0, c1, c2 in eqs]
    pivots = gauss_jordan(work, 3)
    if any(not row[3].is_zero() for row in work[len(pivots):]):
        return None
    vals = [ZERO, ZERO, ZERO]   # free unknowns are 0
    for row, col in zip(work, pivots):
        vals[col] = row[3]
    p0, p1, q = vals

    Gmat = _gnice_matrix(A.col_sizes, p0, p1, q)
    gmat = BlockMatrix(A.row_sizes, A.row_sizes, meta={"kind": "left-factor"})
    for x in rows:
        for r in rows:
            af = form(x, r)
            if af is None:
                continue
            base, c0, c1, c2 = af
            val = base + c0 * p0 + c1 * p1 + c2 * q
            if not val.is_zero():
                gmat.set(x, r, val)
    top = max(A.col_sizes)
    edge = ((top - 1, 1), (top, 1))
    try:
        g = NonautStatic(gmat)
        G = NonautStatic(Gmat)
    except (StructureViolation, DiagonalDrift):
        return None
    fac = Factorization(g, S, G, assumptions, edge_cols=edge,
                        ops=list(ops) + ["solve right factor onto the narrow "
                                         "pattern: p0=%s p1=%s q=%s"
                                         % (p0.to_text(), p1.to_text(),
                                            q.to_text())])
    if not fac.matches(A):
        return None
    return fac


# ---------------------------------------------------------------------------
# validation of coframe changes

def validate_nonaut_static(ns, frame):
    """Check that a coframe change keeps the frame's structure equations.

    Each transformed row Obar^i_j = sum ns[(i,j),c] * frame_c must satisfy,
    modulo the span of levels <= i,

        d Obar^i_j  in  span{ dt ^ (level i+1 transformed rows) }.

    Concretely: after dropping every wedge pair with a factor at level <= i,
    the residue may contain only dt ^ (level i+1) pairs, and its coefficient
    vector must lie in the row span of the level-(i+1) diagonal block.
    Returns a report; raises DiagonalDrift first when the diagonal-equality
    invariant fails, StructureViolation when the shape is not block-lower,
    DimensionMismatch when it is not square (the NonautStatic checks).
    """
    mat = ns.mat if isinstance(ns, NonautStatic) else ns
    NonautStatic(mat)
    if mat.get((-1, 1), (-1, 1)) != ONE:
        raise StructureViolation("the time row must stay untouched")

    M = max(mat.row_sizes)
    if frame.N < M:
        raise TruncationExceeded("frame level %d below the change's top level %d"
                                 % (frame.N, M))
    failures = []
    for i in range(0, M):
        s = mat.row_sizes[i + 1]
        span_rows = [[mat.get((i + 1, a), (i + 1, b)) for b in range(1, s + 1)]
                     for a in range(1, s + 1)]
        span_rank = len(gauss_jordan(span_rows[:], s))
        for j in range(1, mat.row_sizes[i] + 1):
            obar = frame.from_frame({c: v for (r, c), v in mat.entries.items()
                                     if r == (i, j)})
            got = frame.to_frame2(exterior_d(obar))
            partner = [ZERO] * s
            bad = []
            for key, val in got.items():
                a, b = key
                if 0 <= a[0] <= i or 0 <= b[0] <= i:
                    continue
                if a == (-1, 1) and b[0] == i + 1:
                    partner[b[1] - 1] = val
                else:
                    bad.append(key)
            if bad:
                failures.append(((i, j), sorted(bad)))
                continue
            if any(not v.is_zero() for v in partner):
                if len(gauss_jordan(span_rows + [partner], s)) != span_rank:
                    failures.append(((i, j), [("partner outside the row span",
                                               [v.to_text() for v in partner])]))
    return NonautReport(ns, failures)


class NonautReport:
    def __init__(self, ns, failures):
        self.ns = ns
        self.failures = failures
        self.passed = not failures

    def summary(self):
        if self.passed:
            return "coframe change preserves the structure equations"
        return "; ".join("row %s leaks %s" % (lab, pairs) for lab, pairs in self.failures)


# ---------------------------------------------------------------------------
# the narrow right-factor pattern

def check_gnice(G):
    """Match a right factor against the three-function pattern:

        G^0_0 = [[1,0,0],[p0,1,0],[0,0,1]]      G^k_k = [[1,0],[p0,1]]
        G^1_0 = [[0,0,0],[p1,0,0]]              G^(k+1)_k = [[0,0],[p1+k*q,0]]

    everything else zero except the untouched dt entry.  Returns the pattern
    (identity gives (0, 0, 0)); raises PatternViolation with the offending
    entry otherwise.  Defined for 3 states and 2 controls.
    """
    mat = G.mat if isinstance(G, NonautStatic) else G
    if mat.row_sizes.get(0) != 3 or mat.row_sizes.get(1) != 2:
        raise DimensionMismatch("pattern is defined for 3 states and 2 controls")
    M = max(mat.row_sizes)
    p0 = mat.get((0, 2), (0, 1))
    p1 = mat.get((1, 2), (0, 1))
    q = (mat.get((2, 2), (1, 1)) - p1) if M >= 2 else ZERO

    want = _gnice_matrix(mat.row_sizes, p0, p1, q).entries
    for key in sorted(set(mat.entries) | set(want)):
        a = mat.entries.get(key, ZERO)
        b = want.get(key, ZERO)
        if a != b:
            raise PatternViolation("entry %s -> %s is %s, pattern wants %s"
                                   % (key[0], key[1], a.to_text(), b.to_text()))
    return GnicePattern(p0, p1, q)
