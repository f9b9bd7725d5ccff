from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetfactor import (ControlSystem, RatFn, T, U, X, builtin_fixtures,
                       factor_JK0, parse_document, parse_expression,
                       parse_map, parse_matrix, parse_system,
                       pullback_matrix, serialize, serialize_report,
                       verify_pair)
from jetfactor.errors import ArityMismatch, ParseError, SemanticError

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
    with pytest.raises(ParseError):
        parse_expression("x1 + ?")
    with pytest.raises(ParseError):
        parse_expression("' + x1")
    with pytest.raises(ParseError):
        parse_expression("x1 + α")  # non-ascii


def test_time_and_state_derivatives_are_rejected():
    with pytest.raises(ParseError):
        parse_expression("t'")
    with pytest.raises(ParseError):
        parse_expression("x1'")
    with pytest.raises(ParseError):
        parse_expression("D(x1, 1)")


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
