"""Deterministic text formats for systems, maps, and block matrices.

Three brace-keyed document kinds, whitespace-insensitive; outside string
literals every character is ASCII:

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

A system declares from 1 to 32 states and from 1 to 32 controls
(MAX_COUNT); a larger count is a semantic error at its key.
Unknown keys, duplicate keys, out-of-range indices, and control derivatives
inside a system right-hand side are semantic errors; token-level problems
raise ParseError carrying the line and column of the offending token.  A
matrix may give rows, cols and each meta name once; its rows and cols name
each level once, with a size >= 0.  No key or meta name takes derivative
marks.  A division by zero or a zero to a negative power written in the
text is a SemanticError at the `/` or `^`, and so is a power of a sum whose
expansion may pass 1,000 terms (powers of a single term are not bounded).
An expression nests at most 100 levels, counting each open `(` and each
unary `-`; the token that opens level 101 is a ParseError.
Every zero block of a matrix is emitted explicitly as `block (r, c) = zero`
so a reader can see the elision; absent blocks are treated as zero on input.

Reports (verification outcomes, factorizations, ...) serialize as generic
keyed blocks under their own head word; parse_document re-reads any of
these without loss of the token stream, so everything this module emits
re-parses.

One reader, _read_block, reads every document: the head word, the braces,
the end of input after them, and the key that starts each entry, whose
first position it records for Document.spans.  Each kind supplies only the
reader of one entry after its key.  parse_document tokenizes its input
once and hands the tokens to the reader of its kind.
"""

import re
from math import comb

from .poly import T, X, U
from .ratfn import RatFn, ZERO
from .jets import ControlSystem
from .equivalence import (EquivMap, BlockMatrix, VerificationReport,
                          StaticPairReport)
from .factorize import Factorization, NonautReport, NonautStatic
from .errors import ParseError, SemanticError, ArityMismatch


class Document:
    """A parsed top-level block.

    kind is one of system / map / matrix-report / report; body is the typed
    payload (ControlSystem, EquivMap, BlockMatrix, or a key/value list for
    generic reports); spans maps keys to the (line, column) of their first
    occurrence, for error messages that point back into the source.  For a
    matrix the keys are rows, cols and each meta name (N, map, ...); the
    words `meta` and `block` are not recorded.  For a report they are the
    top-level keys only, not those of a matrix nested in a value.
    """

    def __init__(self, kind, body, spans=None):
        self.kind = kind
        self.body = body
        self.spans = dict(spans or {})


# ---------------------------------------------------------------------------
# tokenizer

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


# Blanks, then at most one token.  The token is optional so that trailing
# blanks end the match instead of being backtracked into the error branch
# (an atomic group would say so directly, but needs Python 3.11).
_TOKEN = re.compile(r"""[ \t]*(?:
      (?P<int>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    | (?P<str>"[^"]*")
    | (?P<sym>[{}()\[\]=,+\-*/^])
    | (?P<bad>.))?""", re.VERBOSE)


def _tokenize(text):
    # split on "\n" only: str.splitlines also breaks at \x0b, \x85, ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    toks = []
    for line, s in enumerate(lines, 1):
        for m in _TOKEN.finditer(s):
            kind = m.lastgroup
            if kind is None:
                continue
            word, col = m.group(kind), m.start(kind) + 1
            if kind == "ident":
                name = word.rstrip("'")
                toks.append(_Tok(kind, name, line, col, len(word) - len(name)))
            elif kind == "str":
                toks.append(_Tok(kind, word[1:-1], line, col))
            elif kind != "bad":
                toks.append(_Tok(kind, word, line, col))
            elif ord(word) > 127:
                raise ParseError("non-ascii character %r" % word, line, col)
            elif word == '"':
                raise ParseError("unterminated string", line, col)
            elif word == "'":
                raise ParseError("stray derivative mark", line, col)
            else:
                raise ParseError("unexpected character %r" % word, line, col)
    toks.append(_Tok("eof", "", len(lines), len(lines[-1]) + 1))
    return toks


class _P:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.depth = 0   # open `(` and unary `-` around the current atom

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


# each open `(` and each unary `-` is one level; the grammar recurses per level
_MAX_DEPTH = 100


def _parse_atom(p, spans):
    t = p.peek()
    if t.kind == "int":
        p.next()
        return RatFn.const(int(t.text))
    if t.kind == "sym" and t.text in "-(":
        p.next()
        p.depth += 1
        if p.depth > _MAX_DEPTH:
            raise ParseError("expression nests deeper than %d levels"
                             % _MAX_DEPTH, t.line, t.col)
        if t.text == "-":
            e = ZERO - _parse_factor(p, spans)
        else:
            e = _parse_expr(p, spans)
            p.expect_sym(")")
        p.depth -= 1
        return e
    if t.kind == "ident":
        return _parse_var(p, spans)
    raise ParseError("expected a value", t.line, t.col)


# a polynomial of t terms to the power k has at most C(t+k-1, k) terms
_MAX_POWER_TERMS = 1000


def _parse_factor(p, spans):
    e = _parse_atom(p, spans)
    if p.at_sym("^"):
        op = p.next()
        k = p.signed_int()
        if k < 0 and e.is_zero():
            raise SemanticError("zero to a negative power", op.line, op.col)
        if any(t and comb(t + abs(k) - 1, abs(k)) > _MAX_POWER_TERMS
               for t in (len(e.num), len(e.den))):
            raise SemanticError("power may expand past %d terms"
                                % _MAX_POWER_TERMS, op.line, op.col)
        e = e ** k
    return e


def _parse_term(p, spans):
    e = _parse_factor(p, spans)
    while p.peek().kind == "sym" and p.peek().text in "*/":
        op = p.next()
        r = _parse_factor(p, spans)
        if op.text == "*":
            e = e * r
        elif r.is_zero():
            raise SemanticError("division by zero", op.line, op.col)
        else:
            e = e / r
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

def _read_block(p, head, entry):
    """A whole document `head { entry ... }`; head None takes any word.

    entry(p, key) reads the rest of one entry after its key token and
    returns the token whose name goes into the spans, or None.  Returns
    the spans: name -> (line, col) of its first occurrence.
    """
    p.expect_ident(head)
    p.expect_sym("{")
    spans = {}
    while not p.at_sym("}"):
        t = p.peek()
        if t.kind == "eof":
            raise ParseError("unclosed block", t.line, t.col)
        name = entry(p, _key(p))
        if name is not None:
            spans.setdefault(name.text, (name.line, name.col))
    p.next()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError("trailing input after the closing brace",
                         t.line, t.col)
    return spans


def _key(p):
    """A key or meta name: a word without derivative marks."""
    t = p.expect_ident()
    if t.primes:
        raise ParseError("keys take no derivative marks", t.line, t.col)
    return t


def _comma_list(p, brackets, item):
    """One or more items, comma-separated, inside the bracket pair."""
    p.expect_sym(brackets[0])
    out = [item(p)]
    while p.at_sym(","):
        p.next()
        out.append(item(p))
    p.expect_sym(brackets[1])
    return out


def _unique(entries):
    """{key: entry} for entries that start with their key token."""
    seen = {}
    for entry in entries:
        key = entry[0]
        if key.text in seen:
            raise SemanticError("duplicate key %r" % key.text,
                                key.line, key.col)
        seen[key.text] = entry
    return seen


def _pairs(p, head):
    """`head { key = expr ... }` -> ({key: (key token, expr, variable
    spans)}, spans)."""
    pairs = []

    def entry(p, key):
        p.expect_sym("=")
        vs = []
        pairs.append((key, _parse_expr(p, vs), vs))
        return key

    spans = _read_block(p, head, entry)
    return _unique(pairs), spans


# Most states, and most controls, a system may declare.  A count sizes the
# work of every command, and a few bytes declare any count: 500 controls
# kept classify busy past 300 s (docs/decisions.md, "The -N bound").
MAX_COUNT = 32


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
    if v > MAX_COUNT:
        raise SemanticError("%s must be at most %d" % (name, MAX_COUNT),
                            key.line, key.col)
    return int(v)


def parse_system(text, name=""):
    """system { states=n controls=s f1=... ... fn=... } -> ControlSystem.

    Right-hand sides may mention t, x1..xn, u1..us at order zero only;
    anything else is a SemanticError pointing at the offending variable.
    """
    return _system(_P(_tokenize(text)), name)[0]


def _system(p, name):
    seen, spans = _pairs(p, "system")
    n = _const_count(seen, "states")
    s = _const_count(seen, "controls")
    fs = []
    for i in range(1, n + 1):
        k = "f%d" % i
        if k not in seen:
            raise SemanticError("missing %s (system declares %d states)"
                                % (k, n))
        key, e, vs = seen[k]
        for v, ln, cl in vs:
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
    return ControlSystem(n, s, tuple(fs), name=name, check=False), spans


def parse_map(text, src, tgt, name=""):
    """map { y1=... ... v1=... } bound to src's variables -> EquivMap.

    Needs exactly tgt.n state components and tgt.s control components
    (ArityMismatch otherwise); control derivatives of any order are fine.
    """
    return _map(_P(_tokenize(text)), src, tgt, name)[0]


def _map(p, src, tgt, name):
    seen, spans = _pairs(p, "map")
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
    for _, _, used in seen.values():
        for v, ln, cl in used:
            if v[0] == 1 and not 1 <= v[2] <= src.n:
                raise SemanticError(
                    "x%d out of range; source has %d states"
                    % (v[2], src.n), ln, cl)
            if v[0] == 2 and not 1 <= v[2] <= src.s:
                raise SemanticError(
                    "u%d out of range; source has %d controls"
                    % (v[2], src.s), ln, cl)
    return EquivMap(src, tgt, ys, vs, name=name), spans


# ---------------------------------------------------------------------------
# matrices

def _level_pair(p):
    p.expect_sym("(")
    a = p.signed_int()
    p.expect_sym(",")
    b = p.signed_int()
    p.expect_sym(")")
    return a, b


def _matrix_row(p):
    return _comma_list(p, "[]", lambda p: _parse_expr(p, []))


def _meta_string(p):
    s = p.next()
    if s.kind != "str":
        raise ParseError("meta lists hold strings", s.line, s.col)
    return s.text


def _meta_value(p):
    t = p.peek()
    if t.kind == "str":
        p.next()
        return t.text
    if t.kind == "sym" and t.text == "[":
        after = p.peek(1)
        if after.kind == "sym" and after.text == "]":
            p.next()
            p.next()
            return []
        return _comma_list(p, "[]", _meta_string)
    return p.signed_int()


def _level_sizes(key, pairs):
    """{level: size} in declaration order, from a rows or cols value."""
    sizes = {}
    for level, size in pairs:
        if level in sizes:
            raise SemanticError("%s declares level %d twice"
                                % (key.text, level), key.line, key.col)
        if size < 0:
            raise SemanticError("%s gives level %d a negative size"
                                % (key.text, level), key.line, key.col)
        sizes[level] = size
    return sizes


def parse_matrix(text):
    """matrix { rows = ... cols = ... meta ... block ... } -> BlockMatrix.

    Blocks not mentioned are zero; mentioned blocks are either the keyword
    zero or a row-major nested list matching the declared sizes.
    """
    return _matrix(_P(_tokenize(text)))[0]


def _matrix(p):
    sizes, meta, blocks = [], [], []

    def entry(p, key):
        if key.text == "block":
            rl, cl = _level_pair(p)
            p.expect_sym("=")
            t = p.peek()
            if t.kind == "ident" and t.text == "zero":
                p.next()
                blocks.append((key, rl, cl, None))
            else:
                blocks.append((key, rl, cl, _comma_list(p, "[]", _matrix_row)))
            return None
        if key.text == "meta":
            name = _key(p)
            p.expect_sym("=")
            meta.append((name, _meta_value(p)))
            return name
        if key.text not in ("rows", "cols"):
            raise ParseError("expected rows, cols, meta, or block",
                             key.line, key.col)
        p.expect_sym("=")
        sizes.append((key, _comma_list(p, "()", _level_pair)))
        return key

    spans = _read_block(p, "matrix", entry)
    sizes = {k: _level_sizes(*kv) for k, kv in _unique(sizes).items()}
    meta = {k: v for k, (_, v) in _unique(meta).items()}
    if "rows" not in sizes or "cols" not in sizes:
        raise SemanticError("matrix needs rows and cols declarations")
    rows, cols = sizes["rows"], sizes["cols"]
    m = BlockMatrix(rows, cols, meta=meta)
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
    return m, spans


# ---------------------------------------------------------------------------
# generic reports (anything else this module emitted)

def _report(p):
    """Each value is kept as its raw tokens, joined by single spaces; it
    runs up to the next `key =` or the closing brace at bracket depth 0."""
    items = []

    def entry(p, key):
        p.expect_sym("=")
        run, depth = [], 0
        while True:
            t = p.peek()
            # at the end of input _read_block reports the unclosed block
            if t.kind == "eof" or depth == 0 and (
                    (t.kind == "sym" and t.text == "}")
                    or (t.kind == "ident" and p.peek(1).kind == "sym"
                        and p.peek(1).text == "=")):
                break
            p.next()
            if t.kind == "sym" and t.text in "([{":
                depth += 1
            elif t.kind == "sym" and t.text in ")]}":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced %r" % t.text,
                                     t.line, t.col)
            run.append(t)
        if not run and t.kind != "eof":
            raise ParseError("empty value", t.line, t.col)
        items.append((key.text,
                      " ".join('"%s"' % tk.text if tk.kind == "str"
                               else tk.text + "'" * tk.primes
                               for tk in run)))
        return key

    return items, _read_block(p, None, entry)


def parse_document(text, src=None, tgt=None):
    """Any serialized artifact back in: dispatch on the head word.

    Maps need src and tgt for variable binding.  Unrecognized head words
    parse as generic reports (key / raw-value pairs) so that everything
    serialize() produces can be re-read.  The text is tokenized once.
    """
    p = _P(_tokenize(text))
    head = p.peek().text
    if head == "system":
        return Document("system", *_system(p, ""))
    if head == "map":
        if src is None or tgt is None:
            raise SemanticError("map documents need src and tgt systems")
        return Document("map", *_map(p, src, tgt, ""))
    if head == "matrix":
        return Document("matrix-report", *_matrix(p))
    return Document("report", *_report(p))


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
    return serialize_report("system", [("states", s.n), ("controls", s.s)] + [
        ("f%d" % (i + 1), f) for i, f in enumerate(s.f)])


def _ser_map(m):
    return serialize_report("map", [("y%d" % (i + 1), e) for i, e in enumerate(m.y)]
                            + [("v%d" % (j + 1), e) for j, e in enumerate(m.v)])


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
        "(%d, %d)" % lm for lm in m.row_sizes.items()))
    lines.append("  cols = (%s)" % ", ".join(
        "(%d, %d)" % lm for lm in m.col_sizes.items()))
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
