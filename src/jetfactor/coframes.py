"""Contact coframes on truncated jet bundles and their structure equations.

A one-form is a dict {var: RatFn} over the differentials dt, dx_i, du_j^(k)
(keyed by the same variable tuples the kernel uses); a two-form is a dict
{(va, vb): RatFn} with va < vb.  A Coframe replaces that coordinate basis by
frame elements labeled (level, index):

    (-1, 1)           dt
    (0, i)            dx_i - f_i dt          (level 0, possibly adapted)
    (k, j), k=1..N    du_j^(k-1) - u_j^(k) dt

Every frame element is its principal differential plus corrections on
strictly earlier differentials, so the change of basis is unit triangular
and inverts by forward substitution.  Forms re-expressed over frame labels
are again dicts keyed by label (or label pairs).
"""

from .poly import T, X, U, var_name
from .ratfn import RatFn, ZERO, ONE, rsum
from .errors import NotNormalizedForm, TruncationExceeded, StructureViolation


# ---------------------------------------------------------------------------
# coordinate-basis forms

# The form helpers take any dict of RatFn values: one-forms over
# differentials, frame vectors over labels, two-forms over label pairs.
# Such a dict holds no zero value: add_term drops a key whose sum cancels,
# and to_frame keeps no label whose sum is zero.

def add_term(r, k, c):
    """r[k] += c in place, dropping the key when the sum cancels."""
    s = r.get(k, ZERO) + c
    if s.is_zero():
        r.pop(k, None)
    else:
        r[k] = s


def add_scaled(r, a, c):
    """r += a * c in place, term by term."""
    for k, v in a.items():
        add_term(r, k, v * c)


def _pair(a, b):
    """Normalize a wedge pair key; returns (key, sign) or (None, 0) if a == b."""
    if a == b:
        return None, 0
    if a < b:
        return (a, b), 1
    return (b, a), -1


def wedge(a, b):
    """Wedge of two one-forms -> two-form."""
    r = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            key, sg = _pair(va, vb)
            if key is not None:
                add_term(r, key, ca * cb * sg)
    return r


def exterior_d(a):
    """d of a one-form (coordinate basis) -> two-form."""
    r = {}
    for v, c in a.items():
        for w in c.vars():
            key, sg = _pair(w, v)
            if key is not None:
                add_term(r, key, c.diff(w) * sg)
    return r


def exterior_d2(a):
    """d of a two-form -> three-form {(va,vb,vc): RatFn}; used for d(d(.)) == 0."""
    r = {}
    for (vb, vc), c in a.items():
        for w in c.vars():
            trip = sorted([w, vb, vc])
            if len(set(trip)) < 3:
                continue
            # sign of the permutation sending (w, vb, vc) to sorted order
            perm = [w, vb, vc]
            sg = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sg = -sg
            add_term(r, tuple(trip), c.diff(w) * sg)
    return r


# ---------------------------------------------------------------------------
# coframes

CONTACT = "contact"
ADAPTED = "adapted3x2"


def frame_sizes(n, s, N):
    """The frame layout {level: size}, in level order: dt, the n states at
    level 0 and the s controls at each level 1..N."""
    return {-1: 1, 0: n, **{k: s for k in range(1, N + 1)}}


def _contact(v, rate):
    """The contact form dv - rate dt."""
    w = {v: ONE}
    add_term(w, T, -rate)
    return w


class Coframe:
    """Truncated coframe of a control system at jet level N, of kind
    CONTACT (dt and the contact forms of every state and control level)
    or ADAPTED (the normalized frame for x1' = u1, x2' = u2,
    x3' = f(x, u))."""

    def __init__(self, sys_, N, kind=CONTACT):
        if N < 1:
            raise ValueError("frame level must be >= 1")
        self.sys = sys_
        self.N = N
        self.kind = kind
        self.labels = [(l, i) for l, m in frame_sizes(sys_.n, sys_.s, N).items()
                       for i in range(1, m + 1)]
        self.elements = {(-1, 1): {T: ONE}}
        f = sys_.f
        if kind == CONTACT:
            for i in range(1, sys_.n + 1):
                self.elements[(0, i)] = _contact(X(i), f[i - 1])
        elif kind == ADAPTED:
            if sys_.n != 3 or sys_.s != 2:
                raise NotNormalizedForm("adapted frame needs 3 states, 2 controls")
            if f[0] != RatFn.var(U(1)) or f[1] != RatFn.var(U(2)):
                raise NotNormalizedForm("adapted frame needs f1 = u1 and f2 = u2")
            w = _contact(X(3), f[2])
            for j in (1, 2):
                self.elements[(0, j)] = _contact(X(j), f[j - 1])
                add_scaled(w, self.elements[(0, j)], -f[2].diff(U(j)))
            self.elements[(0, 3)] = w
        else:
            raise ValueError("unknown frame kind %r" % kind)
        for k in range(1, N + 1):
            for j in range(1, sys_.s + 1):
                self.elements[(k, j)] = _contact(U(j, k - 1), RatFn.var(U(j, k)))
        # invert by forward substitution: coordinate differential -> frame
        # vector; every element's principal differential has coefficient 1
        self._back = {}
        for lab in self.labels:
            new_v = None
            acc = {lab: ONE}
            for v, c in self.elements[lab].items():
                if v in self._back:
                    add_scaled(acc, self._back[v], -c)
                elif new_v is None:
                    new_v = v
                else:
                    raise StructureViolation("frame element %r is not triangular" % (lab,))
            self._back[new_v] = acc

    # -- basis conversion ------------------------------------------------

    def _vector(self, v):
        """The frame vector of the differential dv."""
        fv = self._back.get(v)
        if fv is None:
            raise TruncationExceeded("d(%s) is beyond frame level %d" %
                                     (var_name(v), self.N))
        return fv

    def to_frame(self, a):
        """One-form over differentials -> dict {label: RatFn}.  Each
        label's coefficient is summed in one pass (rsum); the labels come
        in the order they first appear."""
        parts = {}
        for v, c in a.items():
            for lab, fv in self._vector(v).items():
                parts.setdefault(lab, []).append(fv * c)
        out = {}
        for lab, ts in parts.items():
            s = rsum(ts)
            if not s.is_zero():
                out[lab] = s
        return out

    def to_frame2(self, a):
        """Two-form over differentials -> dict {(label, label): RatFn}."""
        out = {}
        for (va, vb), c in a.items():
            add_scaled(out, wedge(self._vector(va), self._vector(vb)), c)
        return out

    def from_frame(self, fv):
        """dict {label: RatFn} -> one-form over differentials."""
        out = {}
        for lab, c in fv.items():
            add_scaled(out, self.elements[lab], c)
        return out

    # -- structure equations ----------------------------------------------

    def structure_report(self):
        """Check the frame's structure equations level by level.

        Level-0 rows must satisfy, mod the level-0 span:
          contact:  d w0_i = -sum_j (df_i/du_j) w1_j ^ w-1
          adapted:  d w0_1 = -w1_1 ^ w-1,  d w0_2 = -w1_2 ^ w-1,  d w0_3 = 0
        Level-k rows (1 <= k <= N-1) satisfy, exactly (no mod needed):
          d wk_j = -w(k+1)_j ^ w-1
        """
        failures = []
        wm1 = (-1, 1)
        for i in range(1, self.sys.n + 1):
            diff = _drop_blocks(self.to_frame2(exterior_d(self.elements[(0, i)])), {0})
            if self.kind == CONTACT:
                for j in range(1, self.sys.s + 1):
                    # want -c * w1_j ^ w-1 = +c * w-1 ^ w1_j
                    add_term(diff, (wm1, (1, j)), -self.sys.f[i - 1].diff(U(j)))
            elif i in (1, 2):
                add_term(diff, (wm1, (1, i)), -ONE)
            if diff:
                failures.append(((0, i), _fv2_text(diff)))
        for k in range(1, self.N):
            for j in range(1, self.sys.s + 1):
                diff = self.to_frame2(exterior_d(self.elements[(k, j)]))
                add_term(diff, (wm1, (k + 1, j)), -ONE)
                if diff:
                    failures.append(((k, j), _fv2_text(diff)))
        return StructureReport(self, failures)

    def check_structure(self):
        rep = self.structure_report()
        if not rep.passed:
            raise StructureViolation("structure equations fail: %s" % rep.summary())
        return rep


class StructureReport:
    def __init__(self, frame, failures):
        self.frame = frame
        self.failures = failures
        self.passed = not failures

    def summary(self):
        if self.passed:
            return "all structure equations hold (levels 0..%d)" % (self.frame.N - 1)
        return "; ".join("row %s leftover %s" % (lab, txt) for lab, txt in self.failures)


# ---------------------------------------------------------------------------
# frame-vector helpers

def _drop_blocks(fv2, blocks):
    return {k: c for k, c in fv2.items()
            if k[0][0] not in blocks and k[1][0] not in blocks}


def label_text(lab):
    k, j = lab
    if k == -1:
        return "w[-1]"
    return "w%d_%d" % (k, j)


def _fv2_text(fv2):
    if not fv2:
        return "0"
    bits = []
    for (la, lb), c in sorted(fv2.items()):
        bits.append("(%s)*%s^%s" % (c.to_text(), label_text(la), label_text(lb)))
    return " + ".join(bits)
