import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetfactor import (BlockMatrix, ControlSystem, EquivMap, RatFn, T, U, X,
                       ZERO, adapted_coframe_3x2, builtin_fixtures,
                       check_nonaut_static_pair, elkin_forms_32, factor_JK0,
                       parse_document, parse_expression, parse_map,
                       parse_matrix, parse_system, pullback_matrix,
                       random_nonaut_static_pair, random_static_transform,
                       serialize, serialize_report, validate_nonaut_static,
                       verify_pair)
from jetfactor.errors import (ArityMismatch, JetError, ParseError,
                              SemanticError)
from jetfactor.sysio import _Tok, _tokenize

x1, x2 = RatFn.var(X(1)), RatFn.var(X(2))
u1, u2 = RatFn.var(U(1)), RatFn.var(U(2))

PHI, PHI_INV = builtin_fixtures()[0]
SIGMA = PHI.src
LAMBDA = PHI.tgt


# -------------------------------------------------------------------
# expressions

def test_derivative_spellings_agree():
    assert parse_expression("D(u2, 1)") == parse_expression("u2'")
    assert parse_expression("D(u1, 3)") == parse_expression("u1'''")
    assert parse_expression("D(u2, 0)") == u2


def test_unary_minus_binds_looser_than_power():
    assert parse_expression("-x1^2") == -(x1 * x1)
    assert parse_expression("(-x1)^2") == x1 * x1
    assert parse_expression("-x1^2").to_text() == "-x1^2"


def test_expression_round_trips():
    for txt in ["x1*x2 - x3", "(-x1*u2 + 1)/(u2)", "(1/2)*x1", "u2'''",
                "x1^2 - 2*x1 + 1", "(7/3)", "-x1^2", "0", "1",
                "(x1)/(x2^2)"]:
        e = parse_expression(txt)
        assert parse_expression(e.to_text()) == e


def test_negative_exponent():
    assert parse_expression("x1^-2") == parse_expression("1/(x1^2)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 +\n  wat")
    assert (exc.value.line, exc.value.col) == (2, 3)
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 x2")
    assert exc.value.line == 1 and exc.value.col == 4
    for text, line, col, msg in [
            ("x1 + ?", 1, 6, "unexpected character '?'"),
            ("' + x1", 1, 1, "stray derivative mark"),
            ("x1 + α", 1, 6, "non-ascii character 'α'"),
            ('x1 +\n  "s"', 2, 3, "expected a value"),  # at the quote
            ('x1 +\t"s', 1, 6, "unterminated string")]:
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == \
            ("line %d, col %d: %s" % (line, col, msg), line, col)


def test_division_by_zero_points_at_the_operator():
    for text, msg, col in [("u1/(x1-x1)", "division by zero", 3),
                           ("1 + 1/0", "division by zero", 6),
                           ("x1*0^-1", "zero to a negative power", 5),
                           ("(x2-x2)^-2", "zero to a negative power", 8)]:
        with pytest.raises(SemanticError) as exc:
            parse_expression(text)
        assert str(exc.value) == "line 1, col %d: %s" % (col, msg)
    assert parse_expression("0^0") == parse_expression("1")
    assert parse_expression("0^2").is_zero()


def test_time_and_state_derivatives_are_rejected():
    with pytest.raises(ParseError):
        parse_expression("t'")
    with pytest.raises(ParseError):
        parse_expression("x1'")
    with pytest.raises(ParseError):
        parse_expression("D(x1, 1)")


# -------------------------------------------------------------------
# tokenizer: the character loop that the one pattern replaced is the
# reference on ASCII text

_SYMBOLS = set("{}()[]=,+-*/^")


def _loop_tokenize(text):
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


def _lex(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col, t.primes)
                for t in tokenize(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


_LEX_PIECES = list("x1u2' \t\n\r\"{}()[]=,+-*/^?#_aZ09\\") + ["\r\n"]
# non-ASCII characters, each with an ASCII stand-in that no piece above
# holds and no token takes
_STAND_INS = {"é": "$", "²": "&", "٣": "@", "\x85": ";", "\u2028": "|"}


def _random_texts(seed, pieces, count):
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(30)))
            for _ in range(count)]


def test_tokenizer_matches_the_character_loop():
    for text in ["", " ", "x1 \t", "u1'' \r\n", "\n\r\n  "] \
            + _random_texts(20, _LEX_PIECES, 20000):
        assert _lex(_tokenize, text) == _lex(_loop_tokenize, text), text


def test_tokenizer_rejects_non_ascii_outside_strings():
    """Where the reference, reading each stand-in for its non-ASCII
    character, stops at a stand-in, the lexer stops there with a
    non-ascii error; everywhere else, strings included, they agree."""
    to_ascii, back = str.maketrans(_STAND_INS), str.maketrans(
        {a: c for c, a in _STAND_INS.items()})
    stops = 0
    for text in _random_texts(21, _LEX_PIECES + list(_STAND_INS), 5000):
        want = _lex(_loop_tokenize, text.translate(to_ascii))
        if isinstance(want, list):
            want = [(kind, word.translate(back), line, col, primes)
                    for kind, word, line, col, primes in want]
        else:
            msg, line, col = want
            for c, a in _STAND_INS.items():
                stand_in = "unexpected character %r" % a
                if msg.endswith(stand_in):
                    msg = msg.replace(stand_in, "non-ascii character %r" % c)
                    stops += 1
            want = (msg, line, col)
        assert _lex(_tokenize, text) == want, text
    assert stops > 1000


# -------------------------------------------------------------------
# systems

def test_system_round_trip():
    sys_ = ControlSystem(3, 2, (u1, u2, x2 * u1))
    text = serialize(sys_)
    again = parse_system(text)
    assert again == sys_
    assert serialize(again) == text


def test_system_parses_the_documented_form():
    s = parse_system(
        "system { states = 3 controls = 2 f1 = u1 f2 = u2 f3 = x2*u1 }")
    assert (s.n, s.s) == (3, 2)
    assert s.f[2] == x2 * u1


def test_system_key_errors():
    with pytest.raises(SemanticError, match="duplicate key 'f1'"):
        parse_system("system { states = 1 controls = 1 f1 = u1 f1 = u1 }")
    with pytest.raises(SemanticError, match="unknown key 'g1'"):
        parse_system("system { states = 1 controls = 1 f1 = u1 g1 = u1 }")
    with pytest.raises(SemanticError, match="missing f2"):
        parse_system("system { states = 2 controls = 1 f1 = u1 }")
    with pytest.raises(SemanticError, match="positive integer"):
        parse_system("system { states = 0 controls = 1 }")


def test_declared_counts_are_bounded():
    wide = parse_system("system { states = 1 controls = 32 f1 = u32 }")
    assert (wide.n, wide.s) == (1, 32)
    with pytest.raises(SemanticError) as exc:
        parse_system("system {\n  states = 33 controls = 1 }")
    assert str(exc.value) == "line 2, col 3: states must be at most 32"


def test_system_range_errors_point_at_the_variable():
    with pytest.raises(SemanticError) as exc:
        parse_system("system { states = 2 controls = 1\n"
                     "  f1 = u1\n  f2 = x1 + x9 }")
    assert "x9 out of range" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, 13)
    with pytest.raises(SemanticError, match="u2 out of range"):
        parse_system("system { states = 1 controls = 1 f1 = u2 }")
    with pytest.raises(SemanticError, match="control derivative"):
        parse_system("system { states = 1 controls = 1 f1 = u1' }")


# -------------------------------------------------------------------
# maps

def test_map_round_trip():
    text = serialize(PHI)
    again = parse_map(text, SIGMA, LAMBDA)
    assert again.y == PHI.y and again.v == PHI.v
    assert serialize(again) == text
    assert verify_pair(again, PHI_INV, N=3).ok


def test_map_arity_errors():
    with pytest.raises(ArityMismatch, match="missing y3"):
        parse_map("map { y1 = x1 y2 = x2 v1 = u1 v2 = u2 }", SIGMA, LAMBDA)
    with pytest.raises(ArityMismatch, match="missing v2"):
        parse_map("map { y1 = x1 y2 = x2 y3 = x3 v1 = u1 }", SIGMA, LAMBDA)
    with pytest.raises(ArityMismatch, match="out of range"):
        parse_map("map { y1 = x1 y2 = x2 y3 = x3 y4 = x1 v1 = u1 v2 = u2 }",
                  SIGMA, LAMBDA)


def test_map_source_binding_errors():
    with pytest.raises(SemanticError, match="x4 out of range"):
        parse_map("map { y1 = x4 y2 = x2 y3 = x3 v1 = u1 v2 = u2 }",
                  SIGMA, LAMBDA)
    with pytest.raises(SemanticError, match="unknown key 'w1'"):
        parse_map("map { y1 = x1 y2 = x2 y3 = x3 v1 = u1 v2 = u2 w1 = u1 }",
                  SIGMA, LAMBDA)


def test_map_accepts_control_derivatives():
    m = parse_map("map { y1 = x1 y2 = x2 y3 = x3 v1 = u2'' v2 = u1 }",
                  SIGMA, LAMBDA)
    assert m.v[0] == parse_expression("D(u2, 2)")


# -------------------------------------------------------------------
# matrices

def test_matrix_round_trip_with_meta():
    a = pullback_matrix(PHI, N=4)
    text = serialize(a)
    again = parse_matrix(text)
    assert again == a
    assert again.meta == a.meta
    assert serialize(again) == text


def test_matrix_text_shows_the_level_zero_rows():
    text = serialize(pullback_matrix(PHI, N=4))
    assert "block (0, 0) = [[0, x1, -1], [0, 0, 0], [0, 1, 0]]" in text
    assert "block (-1, -1) = [[1]]" in text
    # zero blocks are written down, not implied
    assert "= zero" in text


def test_matrix_absent_blocks_default_to_zero():
    m = parse_matrix("matrix { rows = ((0, 2)) cols = ((0, 2)) }")
    assert all(e.is_zero() for row in m.block(0, 0) for e in row)
    m2 = parse_matrix("matrix { rows = ((0, 2)) cols = ((0, 2))"
                      " block (0, 0) = zero }")
    assert m == m2


def test_matrix_block_errors():
    head = "matrix { rows = ((0, 2)) cols = ((0, 2)) "
    with pytest.raises(SemanticError, match="declared twice"):
        parse_matrix(head + "block (0, 0) = zero block (0, 0) = zero }")
    with pytest.raises(SemanticError, match="outside the declared levels"):
        parse_matrix(head + "block (1, 0) = zero }")
    with pytest.raises(SemanticError, match="wrong shape"):
        parse_matrix(head + "block (0, 0) = [[1, 0]] }")
    with pytest.raises(SemanticError, match="rows and cols"):
        parse_matrix("matrix { }")


def test_matrix_repeated_keys_are_errors():
    head = "matrix { rows = ((0, 1)) cols = ((0, 1))\n"
    for extra, key, col in [("rows = ((0, 2))", "rows", 1),
                            ("cols = ((0, 1))", "cols", 1),
                            ("meta N = 4 meta N = 5", "N", 17)]:
        with pytest.raises(SemanticError) as exc:
            parse_matrix(head + extra + " }")
        assert "duplicate key %r" % key in str(exc.value)
        assert (exc.value.line, exc.value.col) == (2, col)


def test_matrix_levels_are_declared_once():
    with pytest.raises(SemanticError) as exc:
        parse_matrix("matrix { rows = ((0, 1)) cols = ((0, 1), (1, 2),"
                     " (0, 2)) }")
    assert "cols declares level 0 twice" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 26)


def test_matrix_sizes_are_not_negative():
    with pytest.raises(SemanticError) as exc:
        parse_matrix("matrix { rows = ((0, 1)) cols = ((0, 2), (1, -1)) }")
    assert "cols gives level 1 a negative size" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 26)
    # an empty level is allowed
    m = parse_matrix("matrix { rows = ((0, 0)) cols = ((0, 1)) }")
    assert m.row_sizes == {0: 0}


def test_matrix_meta_kinds():
    text = ("matrix { rows = ((0, 1)) cols = ((0, 1))\n"
            '  meta N = 4 meta map = "phi" meta assumptions = ["u2", "x1"]\n'
            "  block (0, 0) = [[x1]] }")
    m = parse_matrix(text)
    assert m.meta == {"N": 4, "map": "phi", "assumptions": ["u2", "x1"]}
    assert parse_matrix(serialize(m)).meta == m.meta


# -------------------------------------------------------------------
# documents and reports

def test_parse_document_dispatch():
    d = serialize(ControlSystem(2, 1, (u1, x1)))
    doc = parse_document(d)
    assert doc.kind == "system" and doc.body.n == 2
    assert doc.spans["f2"][0] == 5  # line of the f2 key

    doc = parse_document(serialize(PHI), src=SIGMA, tgt=LAMBDA)
    assert doc.kind == "map" and doc.body.y == PHI.y
    with pytest.raises(SemanticError, match="need src and tgt"):
        parse_document(serialize(PHI))

    doc = parse_document(serialize(pullback_matrix(PHI, N=2)))
    assert doc.kind == "matrix-report"


def test_reports_re_parse():
    rep = verify_pair(PHI, PHI_INV, N=3)
    doc = parse_document(serialize(rep))
    assert doc.kind == "report"
    items = dict(doc.items if hasattr(doc, "items") else doc.body)
    assert items["forward_ok"] == "true"
    assert items["detected_J"] == "0"

    fac = factor_JK0(pullback_matrix(PHI, N=4))
    doc = parse_document(serialize(fac))
    keys = [k for k, _ in doc.body]
    assert keys[0] == "assumptions" and "g" in keys and "S" in keys


def test_pair_and_structure_reports_re_parse():
    # serialize's promise for the two reports no command prints: a
    # mutual-triangularity pair, full and triangular, and a structure
    # report that passes, leaks into label pairs, or names a partner
    fwd, back, _ = random_nonaut_static_pair(SIGMA, 0)
    for maps, lower in (((PHI, PHI_INV), "false"), ((fwd, back), "true")):
        rep = check_nonaut_static_pair(*(pullback_matrix(m, N=3)
                                         for m in maps))
        doc = parse_document(serialize(rep))
        assert doc.kind == "report"
        assert doc.body == [("forward_lower", lower),
                            ("inverse_lower", lower), ("consistent", "true")]
    frame = adapted_coframe_3x2(SIGMA, 3)
    seen = set()
    for edits in ({}, {((1, 1), (-1, 1)): RatFn.var(U(2, 2))},
                  {((1, 2), (1, 2)): ZERO, ((2, 2), (2, 2)): ZERO}):
        m = BlockMatrix.identity({-1: 1, 0: 3, 1: 2, 2: 2})
        m.set((0, 2), (0, 1), x1)
        for (r, c), v in edits.items():
            m.set(r, c, v)
        rep = validate_nonaut_static(m, frame)
        doc = parse_document(serialize(rep))
        assert doc.kind == "report"
        assert doc.body[0] == ("passed", "true" if rep.passed else "false")
        # list values re-read as token text: "- 1" is the label level -1
        leaks = [json.loads(v.replace("- ", "-")) for k, v in doc.body[1:]]
        assert [k for k, _ in doc.body[1:]] == ["leak"] * len(rep.failures)
        assert leaks == json.loads(json.dumps(rep.failures))
        seen |= {type(pair[0]).__name__ for _, pairs in rep.failures
                 for pair in pairs} or {"passed"}
    assert seen == {"passed", "tuple", "str"}


def test_factorization_round_trips_to_its_product():
    A = pullback_matrix(PHI, N=4)
    fac = factor_JK0(A)
    items = dict(parse_document(serialize(fac)).body)
    g, S, G = (parse_matrix(items[k]) for k in "gSG")
    assert (g, S, G) == (fac.g.mat, fac.S, fac.G.mat)
    # the product is exact except on the edge columns, as in matches()
    edge = {tuple(c) for c in json.loads(items["edge_cols"])}
    assert edge == set(fac.edge_cols)
    prod = g.matmul(S).matmul(G)
    keys = [k for k in set(prod.entries) | set(A.entries) if k[1] not in edge]
    assert len(keys) > 20
    for key in keys:
        assert prod.entries.get(key, ZERO) == A.entries.get(key, ZERO), key


def test_verification_residuals_round_trip():
    wrong = EquivMap(PHI_INV.src, PHI_INV.tgt,
                     [PHI_INV.y[0] + x2**2 / 3] + list(PHI_INV.y[1:]),
                     PHI_INV.v)
    for inv in (PHI_INV, wrong):
        rep = verify_pair(PHI, inv, N=3)
        items = parse_document(serialize(rep)).body
        got = [v for k, v in items if k == "residual"]
        assert len(got) == len(rep.residuals)
        for text, (label, e) in zip(got, rep.residuals):
            head = '[ "%s" , ' % label
            assert text.startswith(head) and text.endswith(" ]"), text
            assert parse_expression(text[len(head):-2]) == e, text
    assert any(not e.is_zero() for _, e in rep.residuals)


def test_serialize_report_values():
    text = serialize_report("thing", [("ok", True), ("count", 3),
                                      ("tag", "x"), ("expr", x1 * x2),
                                      ("list", ["a", "b"])])
    doc = parse_document(text)
    got = dict(doc.body)
    assert got["ok"] == "true"
    assert got["expr"] == "x1 * x2"
    assert got["list"] == '[ "a" , "b" ]'


def test_serialize_rejects_strays():
    with pytest.raises(TypeError):
        serialize(42)


def test_serialize_is_deterministic():
    a = pullback_matrix(PHI, N=3)
    assert serialize(a) == serialize(pullback_matrix(PHI, N=3))


# -------------------------------------------------------------------
# print/parse round trip over random rational functions

_VARS = [T, X(1), X(2), X(3), U(1), U(2), U(1, 1), U(2, 2)]

_coeffs = st.builds(Fraction, st.integers(-30, 30).filter(bool),
                    st.sampled_from([1, 1, 1, 2, 3, 7, 12]))
_monos = st.dictionaries(st.sampled_from(_VARS), st.integers(1, 3),
                         max_size=3)


def _poly(terms):
    out = RatFn.const(0)
    for c, m in terms:
        term = RatFn.const(c)
        for v, e in m.items():
            term = term * RatFn.var(v) ** e
        out = out + term
    return out


_terms = st.lists(st.tuples(_coeffs, _monos), min_size=1, max_size=4)
# constant, one-term and two-term (binomial) denominators
_dens = st.lists(st.tuples(_coeffs, _monos), min_size=1, max_size=2)


@st.composite
def _ratfns(draw):
    den = _poly(draw(_dens))
    if den.is_zero():
        den = RatFn.const(draw(_coeffs))
    return _poly(draw(_terms)) / den


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ratfns())
def test_expression_text_round_trips(r):
    text = r.to_text()
    back = parse_expression(text)
    assert back == r
    assert back.to_text() == text


# -------------------------------------------------------------------
# pinned errors and spans: every keyed block is read by one loop, so each
# document kind must keep its messages and positions

_SYS = "system { states = 1 controls = 1 "
_MAP = "map { y1 = x1 y2 = x2 y3 = x3 v1 = u1 "
_MAT = "matrix { rows = ((0, 1)) cols = ((0, 1)) "

_ERRORS = [
    ("", (ParseError, "line 1, col 1: expected a name", 1, 1)),
    # systems
    (_SYS + "f1 = u1",
     (ParseError, "line 1, col 41: unclosed block", 1, 41)),
    (_SYS + "f1 = u1 } x1",
     (ParseError, "line 1, col 44: trailing input after the closing brace",
      1, 44)),
    (_SYS + "f1 = }",
     (ParseError, "line 1, col 39: expected a value", 1, 39)),
    (_SYS + "f1 = (u1 }",
     (ParseError, "line 1, col 43: expected ')'", 1, 43)),
    (_SYS + "f1' = u1 }",
     (ParseError, "line 1, col 34: keys take no derivative marks", 1, 34)),
    (_SYS + "f1 u1 }",
     (ParseError, "line 1, col 37: expected '='", 1, 37)),
    (_SYS + "= u1 }",
     (ParseError, "line 1, col 34: expected a name", 1, 34)),
    ("system states = 1",
     (ParseError, "line 1, col 8: expected '{'", 1, 8)),
    (_SYS + "f1 = u1 f1 = u1 }",
     (SemanticError, "line 1, col 42: duplicate key 'f1'", 1, 42)),
    (_SYS + "f1 = u1/(x1-x1) }",
     (SemanticError, "line 1, col 41: division by zero", 1, 41)),
    (_SYS + "f1 = 1/0 }",
     (SemanticError, "line 1, col 40: division by zero", 1, 40)),
    (_SYS + "f1 = 0^-1 }",
     (SemanticError, "line 1, col 40: zero to a negative power", 1, 40)),
    # maps
    (_MAP + "v2 = u2",
     (ParseError, "line 1, col 46: unclosed block", 1, 46)),
    (_MAP + "v2 = u2 } }",
     (ParseError, "line 1, col 49: trailing input after the closing brace",
      1, 49)),
    (_MAP + "v2 = }",
     (ParseError, "line 1, col 44: expected a value", 1, 44)),
    (_MAP + "v2 = u2) }",
     (ParseError, "line 1, col 46: expected a name", 1, 46)),
    (_MAP + "v2' = u2 }",
     (ParseError, "line 1, col 39: keys take no derivative marks", 1, 39)),
    # matrices
    (_MAT, (ParseError, "line 1, col 42: unclosed block", 1, 42)),
    (_MAT + "} trailing",
     (ParseError, "line 1, col 44: trailing input after the closing brace",
      1, 44)),
    (_MAT + "block (0, 0) = }",
     (ParseError, "line 1, col 57: expected '['", 1, 57)),
    (_MAT + "block (0, 0) = [[x1] }",
     (ParseError, "line 1, col 63: expected ']'", 1, 63)),
    (_MAT + "block (0, 0) = [[x1]]] }",
     (ParseError, "line 1, col 63: expected a name", 1, 63)),
    (_MAT + "wat = 1 }",
     (ParseError, "line 1, col 42: expected rows, cols, meta, or block",
      1, 42)),
    (_MAT + 'meta k = ["a", 1] }',
     (ParseError, "line 1, col 57: meta lists hold strings", 1, 57)),
    (_MAT + "meta k = [1] }",
     (ParseError, "line 1, col 52: meta lists hold strings", 1, 52)),
    (_MAT + 'meta k = ["a" "b"] }',
     (ParseError, "line 1, col 56: expected ']'", 1, 56)),
    (_MAT + "meta = 1 }",
     (ParseError, "line 1, col 47: expected a name", 1, 47)),
    (_MAT + "meta k 1 }",
     (ParseError, "line 1, col 49: expected '='", 1, 49)),
    ("matrix { rows = (0, 1) cols = ((0, 1)) }",
     (ParseError, "line 1, col 18: expected '('", 1, 18)),
    ("matrix { rows = () cols = ((0, 1)) }",
     (ParseError, "line 1, col 18: expected '('", 1, 18)),
    ("matrix { rows ((0, 1)) }",
     (ParseError, "line 1, col 15: expected '='", 1, 15)),
    ("matrix { block (0, 0) = zero }",
     (SemanticError, "matrix needs rows and cols declarations", None, None)),
    (_MAT + "rows = ((0, 2)) }",
     (SemanticError, "line 1, col 42: duplicate key 'rows'", 1, 42)),
    (_MAT + "meta k = 1 meta k = 2 }",
     (SemanticError, "line 1, col 58: duplicate key 'k'", 1, 58)),
    ("matrix { rows = ((0, 1), (0, 2)) cols = ((0, 1)) }",
     (SemanticError, "line 1, col 10: rows declares level 0 twice", 1, 10)),
    ("matrix { rows = ((0, -1)) cols = ((0, 1)) }",
     (SemanticError, "line 1, col 10: rows gives level 0 a negative size",
      1, 10)),
    # reports
    ("report { a = 1", (ParseError, "line 1, col 15: unclosed block", 1, 15)),
    ("report { a = [1 }",
     (ParseError, "line 1, col 18: unclosed block", 1, 18)),
    ("report {", (ParseError, "line 1, col 9: unclosed block", 1, 9)),
    ("report { a = 1 } x",
     (ParseError, "line 1, col 18: trailing input after the closing brace",
      1, 18)),
    ("report { a = }", (ParseError, "line 1, col 14: empty value", 1, 14)),
    ("report { a = b = 1 }",
     (ParseError, "line 1, col 14: empty value", 1, 14)),
    ("report { a = 1 ) }",
     (ParseError, "line 1, col 16: unbalanced ')'", 1, 16)),
    ("report { = 1 }", (ParseError, "line 1, col 10: expected a name", 1, 10)),
    ("report { a 1 }", (ParseError, "line 1, col 12: expected '='", 1, 12)),
    # bounds
    (_SYS + "f1 = (x1+u1)^1000 }",
     (SemanticError, "line 1, col 46: power may expand past 1000 terms",
      1, 46)),
]


@pytest.mark.parametrize("text, want", _ERRORS)
def test_pinned_parse_errors(text, want):
    cls, msg, line, col = want
    with pytest.raises(JetError) as exc:
        parse_document(text, src=SIGMA, tgt=LAMBDA)
    err = exc.value
    assert (type(err), str(err), getattr(err, "line", None),
            getattr(err, "col", None)) == (cls, msg, line, col)


def test_pinned_spans():
    """Document.spans for each kind: a matrix records rows, cols and the
    meta names, not `meta` or `block`; a report records its top-level
    keys, not the keys of the matrices nested in it."""
    def spans(value, **kw):
        return parse_document(serialize(value), **kw).spans

    assert spans(ControlSystem(2, 1, (u1, x1))) == {
        "states": (2, 3), "controls": (3, 3), "f1": (4, 3), "f2": (5, 3)}
    assert spans(PHI, src=SIGMA, tgt=LAMBDA) == {
        "y1": (2, 3), "y2": (3, 3), "y3": (4, 3), "v1": (5, 3),
        "v2": (6, 3)}
    assert spans(pullback_matrix(PHI, N=2)) == {
        "rows": (2, 3), "cols": (3, 3), "J": (4, 8), "N": (5, 8),
        "assumptions": (6, 8), "kind_src": (7, 8), "kind_tgt": (8, 8),
        "map": (9, 8)}
    assert spans(verify_pair(PHI, PHI_INV, N=3)) == {
        "forward_ok": (2, 3), "inverse_ok": (3, 3), "detected_J": (4, 3),
        "detected_K": (5, 3), "residual": (6, 3), "assumptions": (34, 3)}
    assert spans(factor_JK0(pullback_matrix(PHI, N=4))) == {
        "assumptions": (2, 3), "edge_cols": (3, 3), "op": (4, 3),
        "g": (30, 3), "S": (71, 3), "G": (120, 3)}


def test_primed_keys_outside_systems_and_maps():
    """Matrix keys, meta names and report keys reject derivative marks,
    as system and map keys do."""
    for text, col in [("matrix { rows' = ((0, 1)) cols = ((0, 1)) }", 10),
                      (_MAT + "meta k' = 1 }", 47),
                      (_MAT + "block' (0, 0) = zero }", 42),
                      ("report { k' = 1 }", 10)]:
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert str(exc.value) == \
            "line 1, col %d: keys take no derivative marks" % col


def test_powers_are_bounded_by_their_expansion():
    assert parse_expression("x2^400") == RatFn.var(X(2)) ** 400
    assert len(parse_expression("(x1+x2+x3+u1)^10").num) == 286
    for text in ["(x1+x2+x3+u1)^40", "1/(x1+u1)^-1000"]:
        with pytest.raises(SemanticError) as exc:
            parse_expression(text)
        assert str(exc.value).endswith(": power may expand past 1000 terms")


def test_nesting_is_bounded():
    """100 levels of `(` and unary `-` parse; the token that opens level
    101 is a ParseError at its position."""
    assert parse_expression("(" * 100 + "u1" + ")" * 100) == u1
    assert parse_expression("-" * 100 + "u1") == u1
    assert parse_expression("-(" * 50 + "u1" + ")" * 50) == u1
    for text, col in [("(" * 101 + "u1" + ")" * 101, 101),
                      ("-" * 101 + "u1", 101),
                      ("-(" * 50 + "-u1" + ")" * 50, 101),
                      ("x1 + " + "(" * 101, 106)]:
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert str(exc.value) == \
            "line 1, col %d: expression nests deeper than 100 levels" % col


# -------------------------------------------------------------------
# document fuzz: seeded transforms of the (3, 2) normal forms round-trip,
# and mutations of their text fail only with the input error classes

_FORMS = elkin_forms_32()


@lru_cache(maxsize=None)
def _transformed(form, seed):
    """(map, system, pullback matrix) of a seeded static transform."""
    fwd, _, sys_ = random_static_transform(_FORMS[form], seed)
    return fwd, sys_, pullback_matrix(fwd, N=2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(0, 40))
def test_transformed_documents_round_trip(form, seed):
    fwd, sys_, mat = _transformed(form, seed)
    for value in (sys_, fwd, mat):
        text = serialize(value)
        body = parse_document(text, src=fwd.src, tgt=fwd.tgt).body
        assert serialize(body) == text
    assert parse_system(serialize(sys_)) == sys_
    back = parse_map(serialize(fwd), fwd.src, fwd.tgt)
    assert (back.y, back.v) == (fwd.y, fwd.v)
    back = parse_matrix(serialize(mat))
    assert back == mat and back.meta == mat.meta


_PIECES = ["/0", "^-1", "/(x1-x1)", " f1 = x1", " y1 = x1",
           " rows = ((0, 1))", " meta N = 1", " block (0, 0) = zero", " x9",
           " u3", "'", "(", ")", "[", "]", "{", "}", "=", ",", '"', "\n"]
# (0 deletes as many characters as the piece has, 1-3 insert it; where,
# as a share of the token ends; piece)
_edits = st.lists(st.tuples(st.integers(0, 3),
                            st.floats(0, 1, exclude_max=True),
                            st.sampled_from(_PIECES)),
                  min_size=1, max_size=3)


def _mutate(text, edits):
    """Each edit acts where a name, number or closing bracket meets a
    blank, after the opening brace."""
    for op, share, piece in edits:
        ends = [i for i in range(text.find("{") + 1, len(text))
                if text[i] in " \n"
                and (text[i - 1].isalnum() or text[i - 1] in ")]'")] or [0]
        at = ends[int(share * len(ends))]
        if op == 0:
            text = text[:at] + text[at + len(piece):]
        else:
            text = text[:at] + piece + text[at:]
    return text


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2), _edits)
def test_mutated_documents_raise_input_errors(form, seed, which, edits):
    fwd, sys_, mat = _transformed(form, seed)
    text = _mutate(serialize((sys_, fwd, mat)[which]), edits)
    try:
        parse_document(text, src=fwd.src, tgt=fwd.tgt)
    except (ParseError, SemanticError, ArityMismatch):
        pass
