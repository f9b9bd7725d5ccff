"""Deterministic text formats for systems, maps, and block matrices.

Three brace-keyed document kinds, whitespace-insensitive, 7-bit clean:

    system { states = 3 controls = 2 f1 = u1 f2 = u2 f3 = x2*u1 }

    map { y1 = x1*x2 - x3  y2 = u2  y3 = x2  v1 = x1*u2  v2 = u2' }

    matrix {
      rows = ((-1, 1), (0, 3))
      cols = ((-1, 1), (0, 3))
      meta N = 4
      block (-1, -1) = [[1]]
      block (0, -1) = zero
      block (0, 0) = [[0, x1, -1], [0, 0, 0], [0, 1, 0]]
      ...
    }

Expressions are infix over + - * / ^ with integer exponents; variables are
t, x<i>, and u<j> with derivative order written as trailing apostrophes
(u2'') or D(u2, 2).  Both derivative spellings parse identically; the
apostrophe form is what serialization emits.  Unary minus applies after
exponentiation (-x1^2 is the negative of x1^2), matching the canonical
printer so that parse(serialize(e)) is exactly e.

Unknown keys, duplicate keys, out-of-range indices, and control derivatives
inside a system right-hand side are semantic errors; token-level problems
raise ParseError carrying the line and column of the offending token.
Every zero block of a matrix is emitted explicitly as `block (r, c) = zero`
so a reader can see the elision; absent blocks are treated as zero on input.

Reports (verification outcomes, factorizations, ...) serialize as generic
keyed blocks under their own head word; parse_document re-reads any of
these without loss of the token stream, so everything this module emits
re-parses.
"""

import re

from .ratfn import RatFn, ZERO, ONE, T, X, U
from .jets import ControlSystem
from .equivalence import (EquivMap, BlockMatrix, VerificationReport,
                          StaticPairReport)
from .factorize import (StackpoleMatrix, Factorization, NonautReport,
                        NonautStatic)
from .errors import ParseError, SemanticError, ArityMismatch


class Document:
    """A parsed top-level block.

    kind is one of system / map / matrix-report / report; body is the typed
    payload (ControlSystem, EquivMap, BlockMatrix, or a key/value list for
    generic reports); spans maps keys to the (line, column) of their first
    occurrence, for error messages that point back into the source.
    """

    def __init__(self, kind, body, spans=None):
        self.kind = kind
        self.body = body
        self.spans = dict(spans or {})


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set("{}()[]=,+-*/^")


class _Tok:
    __slots__ = ("kind", "text", "line", "col", "primes")

    def __init__(self, kind, text, line, col, primes=0):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.primes = primes

    def __repr__(self):
        return "%s(%r)@%d:%d" % (self.kind, self.text, self.line, self.col)


def _tokenize(text):
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t":
            i += 1
            col += 1
            continue
        if ord(c) > 127:
            raise ParseError("non-ascii character %r" % c, line, col)
        start = col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, start))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            primes = 0
            while i < n and text[i] == "'":
                primes += 1
                i += 1
                col += 1
            toks.append(_Tok("ident", word, line, start, primes))
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError("unterminated string", line, start)
            toks.append(_Tok("str", text[i + 1:j], line, start))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _SYMBOLS:
            toks.append(_Tok("sym", c, line, start))
            i += 1
            col += 1
            continue
        if c == "'":
            raise ParseError("stray derivative mark", line, start)
        raise ParseError("unexpected character %r" % c, line, start)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _P:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at_sym(self, s):
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def expect_sym(self, s):
        t = self.next()
        if t.kind != "sym" or t.text != s:
            raise ParseError("expected %r" % s, t.line, t.col)
        return t

    def expect_ident(self, word=None):
        t = self.next()
        if t.kind != "ident":
            raise ParseError("expected a name", t.line, t.col)
        if word is not None and t.text != word:
            raise ParseError("expected %r" % word, t.line, t.col)
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise ParseError("expected an integer", t.line, t.col)
        return int(t.text)

    def signed_int(self):
        if self.at_sym("-"):
            self.next()
            return -self.expect_int()
        return self.expect_int()


# ---------------------------------------------------------------------------
# expression grammar

_XVAR = re.compile(r"x([1-9]\d*)\Z")
_UVAR = re.compile(r"u([1-9]\d*)\Z")


def _parse_var(p, spans):
    t = p.next()
    word, primes = t.text, t.primes
    if word == "t":
        if primes:
            raise ParseError("time has no derivative form", t.line, t.col)
        v = T
    elif word == "D":
        if primes:
            raise ParseError("D takes parenthesized arguments", t.line, t.col)
        p.expect_sym("(")
        ut = p.expect_ident()
        m = _UVAR.match(ut.text)
        if not m or ut.primes:
            raise ParseError("D expects a plain control like u2",
                             ut.line, ut.col)
        p.expect_sym(",")
        k = p.expect_int()
        p.expect_sym(")")
        v = U(int(m.group(1)), k)
    else:
        m = _XVAR.match(word)
        if m:
            if primes:
                raise ParseError("states have no derivative form here; "
                                 "express rates through the controls",
                                 t.line, t.col)
            v = X(int(m.group(1)))
        else:
            m = _UVAR.match(word)
            if m is None:
                raise ParseError("unknown variable %r" % word, t.line, t.col)
            v = U(int(m.group(1)), primes)
    spans.append((v, t.line, t.col))
    return RatFn.var(v)


def _ipow(e, k):
    if k < 0:
        return ONE / _ipow(e, -k)
    out = ONE
    for _ in range(k):
        out = out * e
    return out


def _parse_atom(p, spans):
    t = p.peek()
    if t.kind == "int":
        p.next()
        return RatFn.const(int(t.text))
    if t.kind == "sym" and t.text == "-":
        p.next()
        return ZERO - _parse_factor(p, spans)
    if t.kind == "sym" and t.text == "(":
        p.next()
        e = _parse_expr(p, spans)
        p.expect_sym(")")
        return e
    if t.kind == "ident":
        return _parse_var(p, spans)
    raise ParseError("expected a value", t.line, t.col)


def _parse_factor(p, spans):
    e = _parse_atom(p, spans)
    if p.at_sym("^"):
        p.next()
        e = _ipow(e, p.signed_int())
    return e


def _parse_term(p, spans):
    e = _parse_factor(p, spans)
    while p.peek().kind == "sym" and p.peek().text in "*/":
        op = p.next().text
        r = _parse_factor(p, spans)
        e = e * r if op == "*" else e / r
    return e


def _parse_expr(p, spans):
    e = _parse_term(p, spans)
    while p.peek().kind == "sym" and p.peek().text in "+-":
        op = p.next().text
        r = _parse_term(p, spans)
        e = e + r if op == "+" else e - r
    return e


def parse_expression(text):
    """One bare expression (no surrounding block)."""
    p = _P(_tokenize(text))
    spans = []
    e = _parse_expr(p, spans)
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input after the expression", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# keyed blocks

def _parse_pairs(p):
    """`{ key = expr ... }` with nothing after the closing brace."""
    p.expect_sym("{")
    pairs = []
    while not p.at_sym("}"):
        t = p.peek()
        if t.kind == "eof":
            raise ParseError("unclosed block", t.line, t.col)
        key = p.expect_ident()
        if key.primes:
            raise ParseError("keys take no derivative marks",
                             key.line, key.col)
        p.expect_sym("=")
        spans = []
        e = _parse_expr(p, spans)
        pairs.append((key, e, spans))
    p.expect_sym("}")
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input after the closing brace",
                         t.line, t.col)
    return pairs


def _unique(pairs):
    seen = {}
    for key, e, spans in pairs:
        if key.text in seen:
            raise SemanticError("duplicate key %r" % key.text,
                                key.line, key.col)
        seen[key.text] = (key, e, spans)
    return seen


def _const_count(seen, name):
    if name not in seen:
        raise SemanticError("missing %r" % name)
    key, e, _ = seen[name]
    if not e.is_const():
        raise SemanticError("%s must be an integer" % name, key.line, key.col)
    v = e.const_value()
    if v.denominator != 1 or v < 1:
        raise SemanticError("%s must be a positive integer" % name,
                            key.line, key.col)
    return int(v)


def parse_system(text, name=""):
    """system { states=n controls=s f1=... ... fn=... } -> ControlSystem.

    Right-hand sides may mention t, x1..xn, u1..us at order zero only;
    anything else is a SemanticError pointing at the offending variable.
    """
    p = _P(_tokenize(text))
    head = p.expect_ident()
    if head.text != "system":
        raise ParseError("expected 'system'", head.line, head.col)
    seen = _unique(_parse_pairs(p))
    n = _const_count(seen, "states")
    s = _const_count(seen, "controls")
    fs = []
    for i in range(1, n + 1):
        k = "f%d" % i
        if k not in seen:
            raise SemanticError("missing %s (system declares %d states)"
                                % (k, n))
        key, e, spans = seen[k]
        for v, ln, cl in spans:
            if v[0] == 2 and v[1] > 0:
                raise SemanticError(
                    "control derivative in a right-hand side", ln, cl)
            if v[0] == 2 and not 1 <= v[2] <= s:
                raise SemanticError(
                    "u%d out of range; controls = %d" % (v[2], s), ln, cl)
            if v[0] == 1 and not 1 <= v[2] <= n:
                raise SemanticError(
                    "x%d out of range; states = %d" % (v[2], n), ln, cl)
        fs.append(e)
    extra = sorted(set(seen) - {"states", "controls"}
                   - {"f%d" % i for i in range(1, n + 1)})
    if extra:
        key = seen[extra[0]][0]
        raise SemanticError("unknown key %r" % key.text, key.line, key.col)
    # regularity is the caller's concern; the format only fixes shape
    return ControlSystem(n, s, tuple(fs), name=name, check=False)


def parse_map(text, src, tgt, name=""):
    """map { y1=... ... v1=... } bound to src's variables -> EquivMap.

    Needs exactly tgt.n state components and tgt.s control components
    (ArityMismatch otherwise); control derivatives of any order are fine.
    """
    p = _P(_tokenize(text))
    head = p.expect_ident()
    if head.text != "map":
        raise ParseError("expected 'map'", head.line, head.col)
    seen = _unique(_parse_pairs(p))
    ys, vs = [], []
    for i in range(1, tgt.n + 1):
        k = "y%d" % i
        if k not in seen:
            raise ArityMismatch("missing %s: target has %d states"
                                % (k, tgt.n))
        ys.append(seen[k][1])
    for j in range(1, tgt.s + 1):
        k = "v%d" % j
        if k not in seen:
            raise ArityMismatch("missing %s: target has %d controls"
                                % (k, tgt.s))
        vs.append(seen[k][1])
    extra = sorted(set(seen) - {"y%d" % i for i in range(1, tgt.n + 1)}
                   - {"v%d" % j for j in range(1, tgt.s + 1)})
    if extra:
        key, _, _ = seen[extra[0]]
        if re.fullmatch(r"[yv][1-9]\d*", extra[0]):
            raise ArityMismatch("key %r out of range for a (%d, %d) target"
                                % (extra[0], tgt.n, tgt.s))
        raise SemanticError("unknown key %r" % key.text, key.line, key.col)
    for key, e, spans in seen.values():
        for v, ln, cl in spans:
            if v[0] == 1 and not 1 <= v[2] <= src.n:
                raise SemanticError(
                    "x%d out of range; source has %d states"
                    % (v[2], src.n), ln, cl)
            if v[0] == 2 and not 1 <= v[2] <= src.s:
                raise SemanticError(
                    "u%d out of range; source has %d controls"
                    % (v[2], src.s), ln, cl)
    return EquivMap(src, tgt, ys, vs, name=name)


# ---------------------------------------------------------------------------
# matrices

def _parse_level_pair(p):
    p.expect_sym("(")
    a = p.signed_int()
    p.expect_sym(",")
    b = p.signed_int()
    p.expect_sym(")")
    return a, b


def _parse_pair_list(p):
    p.expect_sym("(")
    out = [_parse_level_pair(p)]
    while p.at_sym(","):
        p.next()
        out.append(_parse_level_pair(p))
    p.expect_sym(")")
    return out


def _parse_row(p):
    p.expect_sym("[")
    spans = []
    out = [_parse_expr(p, spans)]
    while p.at_sym(","):
        p.next()
        out.append(_parse_expr(p, spans))
    p.expect_sym("]")
    return out


def _parse_block_rows(p):
    p.expect_sym("[")
    out = [_parse_row(p)]
    while p.at_sym(","):
        p.next()
        out.append(_parse_row(p))
    p.expect_sym("]")
    return out


def _parse_meta_value(p):
    t = p.peek()
    if t.kind == "str":
        p.next()
        return t.text
    if t.kind == "sym" and t.text == "[":
        p.next()
        out = []
        if not p.at_sym("]"):
            s = p.next()
            if s.kind != "str":
                raise ParseError("meta lists hold strings", s.line, s.col)
            out.append(s.text)
            while p.at_sym(","):
                p.next()
                s = p.next()
                if s.kind != "str":
                    raise ParseError("meta lists hold strings", s.line, s.col)
                out.append(s.text)
        p.expect_sym("]")
        return out
    return p.signed_int()


def parse_matrix(text):
    """matrix { rows = ... cols = ... meta ... block ... } -> BlockMatrix.

    Blocks not mentioned are zero; mentioned blocks are either the keyword
    zero or a row-major nested list matching the declared sizes.
    """
    p = _P(_tokenize(text))
    head = p.expect_ident()
    if head.text != "matrix":
        raise ParseError("expected 'matrix'", head.line, head.col)
    p.expect_sym("{")
    rows = cols = None
    meta = {}
    blocks = []
    while not p.at_sym("}"):
        t = p.peek()
        if t.kind == "eof":
            raise ParseError("unclosed block", t.line, t.col)
        key = p.expect_ident()
        if key.text in ("rows", "cols"):
            p.expect_sym("=")
            val = _parse_pair_list(p)
            if key.text == "rows":
                rows = val
            else:
                cols = val
        elif key.text == "meta":
            mk = p.expect_ident()
            p.expect_sym("=")
            meta[mk.text] = _parse_meta_value(p)
        elif key.text == "block":
            rl, cl = _parse_level_pair(p)
            p.expect_sym("=")
            t2 = p.peek()
            if t2.kind == "ident" and t2.text == "zero":
                p.next()
                blocks.append((key, rl, cl, None))
            else:
                blocks.append((key, rl, cl, _parse_block_rows(p)))
        else:
            raise ParseError("expected rows, cols, meta, or block",
                             key.line, key.col)
    p.expect_sym("}")
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input after the closing brace",
                         t.line, t.col)

    if rows is None or cols is None:
        raise SemanticError("matrix needs rows and cols declarations")
    m = BlockMatrix([l for l, _ in rows], [l for l, _ in cols],
                    dict(rows), dict(cols), meta=meta)
    declared = set()
    for key, rl, cl, data in blocks:
        if (rl, cl) in declared:
            raise SemanticError("block (%d, %d) declared twice" % (rl, cl),
                                key.line, key.col)
        declared.add((rl, cl))
        if rl not in m.row_sizes or cl not in m.col_sizes:
            raise SemanticError("block (%d, %d) outside the declared levels"
                                % (rl, cl), key.line, key.col)
        if data is None:
            continue
        if (len(data) != m.row_sizes[rl]
                or any(len(r) != m.col_sizes[cl] for r in data)):
            raise SemanticError("block (%d, %d) has the wrong shape"
                                % (rl, cl), key.line, key.col)
        for i, rowv in enumerate(data):
            for j, e in enumerate(rowv):
                m.set((rl, i + 1), (cl, j + 1), e)
    return m


# ---------------------------------------------------------------------------
# generic reports (anything else this module emitted)

def _parse_generic(p):
    p.expect_sym("{")
    items = []
    spans = {}
    while True:
        t = p.peek()
        if t.kind == "eof":
            raise ParseError("unclosed block", t.line, t.col)
        if t.kind == "sym" and t.text == "}":
            p.next()
            break
        key = p.expect_ident()
        spans.setdefault(key.text, (key.line, key.col))
        p.expect_sym("=")
        run = []
        depth = 0
        while True:
            t = p.peek()
            if t.kind == "eof":
                raise ParseError("unclosed block", t.line, t.col)
            if depth == 0 and t.kind == "sym" and t.text == "}":
                break
            if (depth == 0 and t.kind == "ident"
                    and p.peek(1).kind == "sym" and p.peek(1).text == "="):
                break
            tok = p.next()
            if tok.kind == "sym" and tok.text in "([{":
                depth += 1
            elif tok.kind == "sym" and tok.text in ")]}":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced %r" % tok.text,
                                     tok.line, tok.col)
            run.append(tok)
        if not run:
            raise ParseError("empty value", t.line, t.col)
        items.append((key.text,
                      " ".join('"%s"' % tk.text if tk.kind == "str"
                               else tk.text + "'" * tk.primes
                               for tk in run)))
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input after the closing brace",
                         t.line, t.col)
    return items, spans


def parse_document(text, src=None, tgt=None):
    """Any serialized artifact back in: dispatch on the head word.

    Maps need src and tgt for variable binding.  Unrecognized head words
    parse as generic reports (key / raw-value pairs) so that everything
    serialize() produces can be re-read.
    """
    p = _P(_tokenize(text))
    head = p.expect_ident()
    if head.text == "system":
        return Document("system", parse_system(text), _key_spans(text))
    if head.text == "map":
        if src is None or tgt is None:
            raise SemanticError("map documents need src and tgt systems")
        return Document("map", parse_map(text, src, tgt), _key_spans(text))
    if head.text == "matrix":
        return Document("matrix-report", parse_matrix(text),
                        _key_spans(text))
    items, spans = _parse_generic(p)
    return Document("report", items, spans)


def _key_spans(text):
    toks = _tokenize(text)
    spans = {}
    depth = 0
    for k, t in enumerate(toks):
        if t.kind == "sym" and t.text in "([{":
            depth += 1
        elif t.kind == "sym" and t.text in ")]}":
            depth -= 1
        elif (depth == 1 and t.kind == "ident" and k + 1 < len(toks)
              and toks[k + 1].kind == "sym" and toks[k + 1].text == "="):
            spans.setdefault(t.text, (t.line, t.col))
    return spans


# ---------------------------------------------------------------------------
# serialization

def serialize(value):
    """Canonical text for a system, map, matrix, or report object.

    Deterministic: structurally equal inputs give byte-identical output,
    and everything emitted re-parses through parse_document.
    """
    if isinstance(value, ControlSystem):
        return _ser_system(value)
    if isinstance(value, EquivMap):
        return _ser_map(value)
    if isinstance(value, BlockMatrix):
        return _ser_matrix(value)
    if isinstance(value, StackpoleMatrix):
        return _ser_matrix(value.mat)
    if isinstance(value, NonautStatic):
        return _ser_matrix(value.mat)
    if isinstance(value, VerificationReport):
        return _ser_verification(value)
    if isinstance(value, StaticPairReport):
        return serialize_report("pair", [("forward_lower", value.fwd_lower),
                                         ("inverse_lower", value.inv_lower),
                                         ("consistent", value.consistent)])
    if isinstance(value, NonautReport):
        items = [("passed", value.passed)]
        for lab, pairs in value.failures:
            items.append(("leak", [list(lab)] + [list(map(list, pairs))]))
        return serialize_report("structure", items)
    if isinstance(value, Factorization):
        return _ser_factorization(value)
    raise TypeError("no canonical text for %r" % type(value).__name__)


def _ser_system(s):
    lines = ["system {",
             "  states = %d" % s.n,
             "  controls = %d" % s.s]
    for i, f in enumerate(s.f):
        lines.append("  f%d = %s" % (i + 1, f.to_text()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ser_map(m):
    lines = ["map {"]
    for i, e in enumerate(m.y):
        lines.append("  y%d = %s" % (i + 1, e.to_text()))
    for j, e in enumerate(m.v):
        lines.append("  v%d = %s" % (j + 1, e.to_text()))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _meta_text(v):
    if isinstance(v, bool):
        raise TypeError("matrix meta holds ints, strings, string lists")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"%s"' % v
    if isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v):
        return "[%s]" % ", ".join('"%s"' % x for x in v)
    raise TypeError("matrix meta holds ints, strings, string lists; got %r"
                    % (v,))


def _ser_matrix(m):
    lines = ["matrix {"]
    lines.append("  rows = (%s)" % ", ".join(
        "(%d, %d)" % (l, m.row_sizes[l]) for l in m.row_levels))
    lines.append("  cols = (%s)" % ", ".join(
        "(%d, %d)" % (l, m.col_sizes[l]) for l in m.col_levels))
    for k in sorted(m.meta):
        lines.append("  meta %s = %s" % (k, _meta_text(m.meta[k])))
    for rl in m.row_levels:
        for cl in m.col_levels:
            blk = m.block(rl, cl)
            if all(e.is_zero() for row in blk for e in row):
                lines.append("  block (%d, %d) = zero" % (rl, cl))
            else:
                body = ", ".join("[%s]" % ", ".join(e.to_text() for e in row)
                                 for row in blk)
                lines.append("  block (%d, %d) = [%s]" % (rl, cl, body))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _rep_value(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"%s"' % v
    if isinstance(v, RatFn):
        return v.to_text()
    if isinstance(v, (list, tuple)):
        return "[%s]" % ", ".join(_rep_value(x) for x in v)
    raise TypeError("cannot put %r in a report" % type(v).__name__)


def serialize_report(head, items):
    """Generic keyed block: head { key = value ... }.

    Values may be bools, ints, strings, expressions, or nested lists;
    multi-line values (serialized matrices) indent under their key.
    """
    lines = ["%s {" % head]
    for k, v in items:
        if isinstance(v, str) and v.endswith("\n") and v.startswith(
                ("matrix {", "system {", "map {")):
            lines.append("  %s = %s" % (k, v.rstrip("\n").replace(
                "\n", "\n  ")))
        else:
            lines.append("  %s = %s" % (k, _rep_value(v)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ser_verification(r):
    items = [("forward_ok", r.forward_ok),
             ("inverse_ok", r.inverse_ok),
             ("detected_J", r.detected_J),
             ("detected_K", r.detected_K)]
    for lab, e in r.residuals:
        items.append(("residual", [lab, e]))
    items.append(("assumptions", list(r.assumptions)))
    for note in r.notes:
        items.append(("note", note))
    return serialize_report("verification", items)


def _ser_factorization(f):
    items = [("assumptions", list(f.assumptions)),
             ("edge_cols", [list(c) for c in f.edge_cols])]
    for op in f.ops:
        items.append(("op", op))
    items += [("g", serialize(f.g)),
              ("S", serialize(f.S)),
              ("G", serialize(f.G))]
    return serialize_report("factorization", items)
