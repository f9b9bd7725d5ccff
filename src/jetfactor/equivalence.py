"""Dynamic equivalence maps between control systems: verification,
order detection, and pullback matrices over truncated coframes.

A map m: src -> tgt is given by target states y_i and target controls v_j as
rational functions of the source jet coordinates (t, x, u, u', ...).  Its
order J is the highest control-derivative order in the y-components (-1 when
they only mention t and x).  Substituting the map into target-side
expressions extends through jets: v_j^(k) binds to D_t^k v_j along the
source system.
"""

from .poly import T, X, U
from .ratfn import RatFn, ZERO, ONE, gauss_jordan
from .coframes import Coframe, CONTACT, ADAPTED, add_term, frame_sizes
from .errors import (DimensionMismatch, DtResidue, StructureViolation,
                     RepeatViolation, ScalarContradiction)


class EquivMap:
    """y: tuple of tgt.n expressions, v: tuple of tgt.s expressions (source vars)."""

    __slots__ = ("src", "tgt", "y", "v", "name")

    def __init__(self, src, tgt, y, v, name=""):
        y, v = tuple(y), tuple(v)
        if len(y) != tgt.n:
            raise DimensionMismatch("map needs %d state components, got %d" % (tgt.n, len(y)))
        if len(v) != tgt.s:
            raise DimensionMismatch("map needs %d control components, got %d" % (tgt.s, len(v)))
        for e in y + v:
            for w in e.vars():
                if w[0] == 1 and not (1 <= w[2] <= src.n):
                    raise DimensionMismatch("component mentions x%d, source has n=%d" % (w[2], src.n))
                if w[0] == 2 and not (1 <= w[2] <= src.s):
                    raise DimensionMismatch("component mentions u%d, source has s=%d" % (w[2], src.s))
        self.src, self.tgt, self.y, self.v = src, tgt, y, v
        self.name = name

    def order(self):
        """J: highest control-derivative order in the y-components, -1 if none."""
        return max((e.max_jet_order() for e in self.y), default=-1)

    def v_order(self):
        return max((e.max_jet_order() for e in self.v), default=-1)

    def __repr__(self):
        return "EquivMap(%s: y=[%s], v=[%s])" % (
            self.name or "?", ", ".join(e.to_text() for e in self.y),
            ", ".join(e.to_text() for e in self.v))


def compose(m2, m1):
    """m2 after m1 (m1: A->B, m2: B->C gives A->C)."""
    if m1.tgt is not m2.src and m1.tgt != m2.src:
        raise DimensionMismatch("middle systems of a composition disagree")
    ctx = PullbackContext(m1)
    return EquivMap(m1.src, m2.tgt,
                    [ctx.pull(e) for e in m2.y],
                    [ctx.pull(e) for e in m2.v],
                    name=("%s.%s" % (m2.name, m1.name)) if m1.name and m2.name else "")


def prolong_map(m, k):
    """The map through jets: (y, v, D_t v, ..., D_t^k v) as one flat tuple."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ctx = PullbackContext(m)
    return m.y + tuple(e for i in range(k + 1) for e in ctx.chain(i))


class PullbackContext:
    """Binds target-side jet variables to source expressions along a map.

    assumptions maps the text of each noted denominator (of the map's
    components, the derivatives bound so far and every pulled expression)
    to the denominator itself, a RatFn.
    """

    def __init__(self, m):
        self.m = m
        self.binding = {T: RatFn.var(T)}
        for i, e in enumerate(m.y):
            self.binding[X(i + 1)] = e
        self._chain = [list(m.v)]  # _chain[k][j] = D_t^k v_j along src
        self._bound = 0            # levels bound and noted so far
        for j, e in enumerate(m.v):
            self.binding[U(j + 1, 0)] = e
        self.assumptions = {}
        for e in m.y + m.v:
            self._note(e)

    def chain(self, k):
        """D_t^k of the map's controls along its source, built once;
        reading it binds and notes nothing."""
        while len(self._chain) <= k:
            self._chain.append([self.m.src.D(e) for e in self._chain[-1]])
        return self._chain[k]

    def _ensure(self, k):
        while self._bound < k:
            self._bound += 1
            for j, e in enumerate(self.chain(self._bound)):
                self.binding[U(j + 1, self._bound)] = e
                self._note(e)

    def _note(self, e):
        if not e.is_poly():
            d = RatFn(e.den)
            self.assumptions[d.to_text()] = d

    def pull(self, expr):
        need = expr.max_jet_order()
        if need >= 0:
            self._ensure(need)
        out = expr.substitute(self.binding)
        self._note(out)
        return out


# ---------------------------------------------------------------------------
# verification

class VerificationReport:
    """Outcome of forward / inverse checks on a map (or a pair of maps).

    forward_ok / inverse_ok are None when that direction was not run.
    residuals is a list of (label, RatFn); every residual of a passing
    check is structurally zero.  assumptions lists the denominators the
    substitutions moved across (each must be nonzero along a trajectory
    for the identity to make sense there).
    """

    def __init__(self, forward_ok, inverse_ok, detected_J, detected_K,
                 residuals, assumptions, notes=()):
        self.forward_ok = forward_ok
        self.inverse_ok = inverse_ok
        self.detected_J = detected_J
        self.detected_K = detected_K
        self.residuals = residuals
        self.assumptions = sorted(assumptions)
        self.notes = list(notes)

    @property
    def ok(self):
        return self.forward_ok is not False and self.inverse_ok is not False

    def failed(self):
        return [(lab, r) for lab, r in self.residuals if not r.is_zero()]

    def summary(self):
        bits = []
        if self.forward_ok is not None:
            bits.append("forward %s" % ("ok" if self.forward_ok else "FAIL"))
        if self.inverse_ok is not None:
            bits.append("inverse %s" % ("ok" if self.inverse_ok else "FAIL"))
        bits.append("J=%s" % self.detected_J)
        if self.detected_K is not None:
            bits.append("K=%s" % self.detected_K)
        out = ["; ".join(bits)]
        for lab, r in self.residuals:
            if not r.is_zero():
                out.append("  %-24s %s" % (lab, r.to_text()))
        if self.assumptions:
            out.append("  assuming nonzero: " + ", ".join(self.assumptions))
        out.extend("  " + n for n in self.notes)
        return "\n".join(out)


def _forward_residuals(ctx, prefix=""):
    """g_i(y, v) - D_t(y_i) along the source of ctx's map; zero iff
    solutions map to solutions."""
    m = ctx.m
    residuals = []
    for i in range(m.tgt.n):
        lhs = m.src.D(m.y[i])
        rhs = ctx.pull(m.tgt.f[i])
        residuals.append(("%sy%d" % (prefix, i + 1), rhs - lhs))
    return residuals


def _roundtrip_residuals(ctx, other, N, prefix="", forward_ok=False):
    """other's map composed with ctx's must fix x_i and u_j^(k) for k <= N.

    D_t^k of other's controls along its source, ctx's target, is other's
    chain: D_t depends only on the system.

    forward_ok says that every forward residual of ctx's map is zero.  Then
    pulling back along it commutes with D_t (see docs/decisions.md, "The
    roundtrip by the chain rule"), so once the level-0 residual of u_j is
    zero, so is every level above it, and those levels are not expanded.
    _ensure still binds and notes what the pull would have, so the
    assumptions are the same either way.
    """
    m, minv = ctx.m, other.m
    residuals = []
    for i in range(m.src.n):
        residuals.append(("%sx%d" % (prefix, i + 1),
                          ctx.pull(minv.y[i]) - RatFn.var(X(i + 1))))
    level0 = []
    for k in range(N + 1):
        for j, e in enumerate(other.chain(k)):
            if k and forward_ok and level0[j].is_zero():
                ctx._ensure(e.max_jet_order())
                r = ZERO
            else:
                r = ctx.pull(e) - RatFn.var(U(j + 1, k))
                if not k:
                    level0.append(r)
            residuals.append(("%su%d^(%d)" % (prefix, j + 1, k), r))
    return residuals


def verify_forward(m):
    """Forward check only: does m send solutions of src to solutions of tgt?"""
    ctx = PullbackContext(m)
    residuals = _forward_residuals(ctx, "forward ")
    ok = all(r.is_zero() for _, r in residuals)
    return VerificationReport(ok, None, m.order(), None, residuals,
                              ctx.assumptions)


def verify_pair(m, minv, N=4):
    """Forward and inverse checks in both directions, one combined report.

    One pullback context per map serves all four passes, so each D_t chain
    is built once.  The roundtrip is told whether the forward check holds
    and the cotrip whether the backward one does: where it does, a control
    whose level-0 residual is zero has zero residuals at every level k <= N
    by the chain rule, and those levels are not expanded.
    """
    if minv.src is not m.tgt and minv.src != m.tgt:
        raise DimensionMismatch("inverse candidate starts at the wrong system")
    if minv.tgt is not m.src and minv.tgt != m.src:
        raise DimensionMismatch("inverse candidate ends at the wrong system")
    cm, ci = PullbackContext(m), PullbackContext(minv)
    fwd = _forward_residuals(cm, "forward ")
    bwd = _forward_residuals(ci, "backward ")
    rt = _roundtrip_residuals(cm, ci, N, "roundtrip ",
                              all(r.is_zero() for _, r in fwd))
    ct = _roundtrip_residuals(ci, cm, N, "cotrip ",
                              all(r.is_zero() for _, r in bwd))
    residuals = fwd + bwd + rt + ct
    forward_ok = all(r.is_zero() for _, r in fwd + bwd)
    inverse_ok = all(r.is_zero() for _, r in rt + ct)
    rep = VerificationReport(forward_ok, inverse_ok, m.order(), minv.order(),
                             residuals, cm.assumptions | ci.assumptions)
    if rep.ok:
        for mm, side in ((m, "map"), (minv, "inverse")):
            if mm.v_order() > mm.order() + 1:
                raise StructureViolation(
                    "%s has control order %d above the bound J+1 = %d despite verifying"
                    % (side, mm.v_order(), mm.order() + 1))
    return rep


def verify_scalar_theorem(m, minv, N=3):
    """For single-control systems a genuine equivalence must be static:
    verified pairs with s = 1 and orders other than (-1, -1) contradict
    the band structure of the mutual pullbacks.  Raises ScalarContradiction
    naming the orders when one arises."""
    if m.src.s != 1 or m.tgt.s != 1:
        raise DimensionMismatch("scalar check needs single-control systems")
    rep = verify_pair(m, minv, N)
    if not rep.ok:
        rep.notes.append("pair does not verify; nothing to conclude")
        return rep
    J, K = m.order(), minv.order()
    if J == -1 and K == -1:
        rep.notes.append("orders (-1, -1): the equivalence is static, as it must be")
        return rep
    # a verified s=1 pair with J or K >= 0 cannot exist
    raise ScalarContradiction("s=1 pair verified with orders (%d, %d)"
                              % (J, K))


# ---------------------------------------------------------------------------
# block matrices

class BlockMatrix:
    """Sparse matrix over frame labels (level, index), stored per entry.

    Its shape is two ordered {level: size} dicts, rows and columns; the
    levels are their keys, in order.  entries maps (row, col) to a nonzero
    RatFn.  Beside it the matrix indexes its nonzero labels: _rows[r] is
    the set of columns of row r that hold an entry, and _cols[c] the set
    of rows of column c (a label with none may keep an empty set).  Every
    method that changes entries keeps both current, so entries is written
    only through the methods."""

    def __init__(self, row_sizes, col_sizes, meta=None):
        self.row_sizes = dict(row_sizes)
        self.col_sizes = dict(col_sizes)
        self.entries = {}
        self._rows, self._cols = {}, {}
        self.meta = dict(meta or {})

    # -- label plumbing ------------------------------------------------

    def row_labels(self):
        return [(l, i) for l, m in self.row_sizes.items()
                for i in range(1, m + 1)]

    def col_labels(self):
        return [(l, i) for l, m in self.col_sizes.items()
                for i in range(1, m + 1)]

    def get(self, r, c):
        return self.entries.get((r, c), ZERO)

    def set(self, r, c, val):
        key = (r, c)
        if val.is_zero():
            if self.entries.pop(key, None) is not None:
                self._rows[r].discard(c)
                self._cols[c].discard(r)
            return
        if key not in self.entries:
            self._rows.setdefault(r, set()).add(c)
            self._cols.setdefault(c, set()).add(r)
        self.entries[key] = val

    def _add(self, r, c, val):
        """entries[(r, c)] += val, dropping the entry when the sum cancels."""
        self.set(r, c, self.entries.get((r, c), ZERO) + val)

    def _index(self):
        """Rebuild both label indexes from entries."""
        self._rows, self._cols = {}, {}
        for r, c in self.entries:
            self._rows.setdefault(r, set()).add(c)
            self._cols.setdefault(c, set()).add(r)

    def block(self, rl, cl):
        if rl not in self.row_sizes or cl not in self.col_sizes:
            raise DimensionMismatch("no block (%d, %d): row levels %s, col levels %s"
                                    % (rl, cl, list(self.row_sizes),
                                       list(self.col_sizes)))
        return [[self.get((rl, i), (cl, j)) for j in range(1, self.col_sizes[cl] + 1)]
                for i in range(1, self.row_sizes[rl] + 1)]

    def copy(self):
        m = BlockMatrix(self.row_sizes, self.col_sizes, self.meta)
        m.entries = dict(self.entries)
        m._index()
        return m

    @staticmethod
    def identity(sizes):
        m = BlockMatrix(sizes, sizes)
        for lab in m.row_labels():
            m.set(lab, lab, ONE)
        return m

    # -- algebra ---------------------------------------------------------

    def matmul(self, other):
        if list(self.col_sizes.items()) != list(other.row_sizes.items()):
            raise DimensionMismatch("block shapes do not compose")
        out = BlockMatrix(self.row_sizes, other.col_sizes, self.meta)
        by_row = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, []).append((c, v))
        by_col = {}
        for (r, c), v in other.entries.items():
            by_col.setdefault(r, []).append((c, v))
        for r, pairs in by_row.items():
            for mid, v in pairs:
                for c, w in by_col.get(mid, ()):
                    add_term(out.entries, (r, c), v * w)
        out._index()
        return out

    def transpose(self):
        out = BlockMatrix(self.col_sizes, self.row_sizes, self.meta)
        for (r, c), v in self.entries.items():
            out.set(c, r, v)
        return out

    def __eq__(self, o):
        return (isinstance(o, BlockMatrix)
                and list(self.row_sizes.items()) == list(o.row_sizes.items())
                and list(self.col_sizes.items()) == list(o.col_sizes.items())
                and self.entries == o.entries)

    def is_block_lower(self):
        """No nonzero entry strictly above the block diagonal."""
        return all(c[0] <= r[0] for (r, c) in self.entries)

    def is_identity(self):
        labels = self.row_labels()
        return (labels == self.col_labels()
                and self.entries == {(lab, lab): ONE for lab in labels})

    def dt_column_clean(self):
        """No row other than dt itself holds a dt-column entry."""
        return all(c != (-1, 1) or r == (-1, 1) for (r, c) in self.entries)

    # -- in-place elementary ops (used by the factorizer) ----------------
    # Each walks the nonzero labels of one row or column in sorted order,
    # which is label order when the levels ascend, as frame_sizes has them.

    def row_add(self, dst, src, c):
        for col in sorted(self._rows.get(src, ())):
            self._add(dst, col, c * self.entries[(src, col)])

    def row_scale(self, r, c):
        for col in sorted(self._rows.get(r, ())):
            self.set(r, col, c * self.entries[(r, col)])

    def col_add(self, dst, src, c):
        for row in sorted(self._cols.get(src, ())):
            self._add(row, dst, c * self.entries[(row, src)])

    def col_scale(self, c, s):
        for row in sorted(self._cols.get(c, ())):
            self.set(row, c, s * self.entries[(row, c)])

    def relabel_rows(self, to):
        """Row r moves to row to[r] for each key r; to permutes its keys."""
        self.entries = {(to.get(r, r), c): v for (r, c), v in self.entries.items()}
        self._index()

    def relabel_cols(self, to):
        """Column c moves to column to[c] for each key c; to permutes its keys."""
        self.entries = {(r, to.get(c, c)): v for (r, c), v in self.entries.items()}
        self._index()


# ---------------------------------------------------------------------------
# pullback

def default_frame_kind(sys_):
    if sys_.n == 3 and sys_.s == 2:
        f = sys_.f
        if f[0] == RatFn.var(U(1)) and f[1] == RatFn.var(U(2)):
            return ADAPTED
    return CONTACT


def pullback_matrix(m, N=4, strict=True):
    """Matrix of m* from the target's level-N coframe to the source's
    level-(N+J+1) coframe.  Rows are target labels, columns source labels.

    The frames are of the adapted kind when a system is in the normalized
    3-state 2-control shape and of the contact kind otherwise.

    Raises DtResidue when a pulled-back contact form keeps a dt component
    (the map does not send solutions to solutions) and StructureViolation
    when the band A^i_j = 0 for j > J+i+1 fails, unless strict=False.
    """
    J = m.order()
    colN = N + J + 1
    frame_src = Coframe(m.src, colN, default_frame_kind(m.src))
    frame_tgt = Coframe(m.tgt, N, default_frame_kind(m.tgt))
    ctx = PullbackContext(m)

    A = BlockMatrix(
        frame_sizes(m.tgt.n, m.tgt.s, N), frame_sizes(m.src.n, m.src.s, colN),
        meta={"J": J, "N": N, "map": m.name,
              "kind_src": frame_src.kind, "kind_tgt": frame_tgt.kind})

    for lab in frame_tgt.labels:
        pulled = {}
        for v, c in frame_tgt.elements[lab].items():
            cc = ctx.pull(c) if not c.is_const() else c
            if v == T:
                add_term(pulled, T, cc)
                continue
            image = ctx.binding.get(v)
            if image is None:
                ctx._ensure(v[1])
                image = ctx.binding[v]
            for w in sorted(image.vars()):
                add_term(pulled, w, image.diff(w) * cc)
        row = frame_src.to_frame(pulled)
        for clab, val in row.items():
            if clab == (-1, 1) and lab != (-1, 1):
                if strict:
                    raise DtResidue("pullback of %s keeps a dt component: %s"
                                    % (lab, val.to_text()))
            A.set(lab, clab, val)

    if strict:
        bad = [(r, c) for (r, c) in A.entries
               if r[0] >= 0 and c[0] > J + r[0] + 1]
        if bad:
            raise StructureViolation("pullback entries beyond the J-band: %s" % bad)
    A.meta["assumptions"] = sorted(ctx.assumptions)
    return A


# ---------------------------------------------------------------------------
# structural checks on pullback matrices

def check_arepeats(A):
    """Blocks A^i_{J+i+1} for i >= 1 must all equal A^1_{J+2}."""
    J = A.meta["J"]
    N = A.meta["N"]
    if N < 2 or J + 2 > max(A.col_sizes):
        return None
    ref = A.block(1, J + 2)
    for i in range(2, N + 1):
        cl = J + i + 1
        if cl > max(A.col_sizes):
            break
        if A.block(i, cl) != ref:
            raise RepeatViolation("block (%d, %d) differs from block (1, %d)"
                                  % (i, cl, J + 2))
    return ref


def block_rank(A, rl, cl):
    """The rank of block (rl, cl) over the rational functions: exact, the
    pivot count of ratfn.gauss_jordan.  Elimination swells on dense high
    blocks, so callers take it on level-0 and level-1 blocks."""
    return len(gauss_jordan(A.block(rl, cl), A.col_sizes[cl]))


class StaticPairReport:
    """Triangularity must be mutual: a map's pullback is block-triangular
    exactly when its inverse's is."""

    def __init__(self, fwd_lower, inv_lower):
        self.fwd_lower = fwd_lower
        self.inv_lower = inv_lower

    @property
    def consistent(self):
        return self.fwd_lower == self.inv_lower

    @property
    def static(self):
        return self.fwd_lower and self.inv_lower

    def summary(self):
        return "forward %s, inverse %s -> %s" % (
            "triangular" if self.fwd_lower else "full",
            "triangular" if self.inv_lower else "full",
            "consistent" if self.consistent else "INCONSISTENT")


def check_nonaut_static_pair(A, Ainv):
    """Biconditional triangularity report for a map and its inverse."""
    return StaticPairReport(A.is_block_lower(), Ainv.is_block_lower())
