"""Expression grammar: parsing, rendering, and round-trip stability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metanov import (
    MagmaPoly,
    ParseError,
    WlcElement,
    WnElement,
    evaluate,
    parse_expr,
    parse_identity,
    render,
)
from metanov.fields import GF, QQ
from metanov.magma import Atom, Node, enumerate_words, tch, x


def test_parse_atoms_and_products():
    assert parse_expr("x1") == x(1)
    assert parse_expr("x1*x2") == x(1) * x(2)
    assert parse_expr("(x1*x2)*x3") == (x(1) * x(2)) * x(3)
    assert parse_expr("x1*(x2*x3)") == x(1) * (x(2) * x(3))
    assert parse_expr("(x1*x2)*(x3*x4)") == (x(1) * x(2)) * (x(3) * x(4))


def test_parse_coefficients():
    assert parse_expr("2 x1") == x(1).scaled(2)
    assert parse_expr("2/3 x1*x2") == (x(1) * x(2)).scaled(Fraction(2, 3))
    assert parse_expr("-x1") == x(1).scaled(-1)
    assert parse_expr("x1 - 2 x2") == x(1) - x(2).scaled(2)


def test_parse_sugar():
    assert parse_expr("A(x1,x2,x3)") == \
        (x(1) * x(2)) * x(3) - x(1) * (x(2) * x(3))
    assert parse_expr("C(x1,x2)") == x(1) * x(2) - x(2) * x(1)
    assert parse_expr("O(x1,x2)") == x(1) * x(2) + x(2) * x(1)
    assert parse_expr("T(x1,x2,x3,x4)") == tch(x(1), x(2), x(3), x(4))


def test_triple_product_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse_expr("x1*x2*x3")


def test_parse_errors():
    for bad in ("", "x0", "x1 +", "(x1*x2", "A(x1,x2)", "x1 x2", "q1", "1/0 x1"):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_expr(bad)
    with pytest.raises(ParseError):
        parse_expr("x1) + x2")  # trailing input


def test_parse_identity_strips_rhs():
    f = parse_identity("v1*v2 - v2*v1 = 0")
    assert f == parse_expr("v1*v2 - v2*v1")
    with pytest.raises(ParseError):
        parse_identity("v1*v2 = v2*v1")
    with pytest.raises(ParseError):
        parse_identity("x1*x2 = 0")  # identities use v-variables


def test_render_normal_forms():
    assert render(evaluate(parse_expr("(x2*x1)*x3"), WlcElement)) == "x1 L[x2] R[x3]"
    assert render(evaluate(parse_expr("x1*(x2*(x3*x4))"), WnElement)) == "-1 A(x1, x3*x2, x4)"
    e = evaluate(parse_expr("(((x1*x2)*x3)*x4)*x5"), WnElement)
    assert render(e) == "(x1*x2) R[x3,x4,x5]"


def test_render_magma_poly():
    f = x(1) * x(2) - (x(2) * x(1)).scaled(Fraction(2, 3))
    assert render(f) == "(x1*x2) - 2/3 (x2*x1)"
    assert render(MagmaPoly.zero()) == "0"
    assert render(f.scaled(-1)) == "-1 (x1*x2) + 2/3 (x2*x1)"


def test_render_rejects_unknown_types():
    with pytest.raises(TypeError):
        render("x1")


def _random_poly(rng: random.Random, field=QQ) -> MagmaPoly:
    words = []
    for md in ({1: 1}, {1: 1, 2: 1}, {1: 2, 3: 1}, {1: 1, 2: 1, 3: 1, 4: 1}):
        words.extend(enumerate_words(md))
    f = MagmaPoly.zero(field)
    for _ in range(rng.randint(1, 6)):
        w = rng.choice(words)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = f + MagmaPoly({w: c}, field)
    return f


def test_round_trip_thousand_random_polynomials():
    rng = random.Random(20260823)
    for _ in range(1000):
        f = _random_poly(rng)
        assert parse_expr(render(f)) == f


def test_round_trip_modular():
    rng = random.Random(7)
    F = GF(101)
    for _ in range(200):
        f = _random_poly(rng, F)
        assert parse_expr(render(f), F) == f


@st.composite
def _words(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return Atom("x", draw(st.integers(min_value=1, max_value=5)))
    return Node(draw(_words(depth=depth + 1)), draw(_words(depth=depth + 1)))


@given(st.dictionaries(_words(), st.fractions(min_value=-5, max_value=5),
                       min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_round_trip_hypothesis(terms):
    f = MagmaPoly(terms, QQ)
    assert parse_expr(render(f)) == f


def test_whitespace_insensitive():
    a = parse_expr("x1 * ( x2*x3 )  +  2  x4")
    b = parse_expr("x1*(x2*x3)+2 x4")
    assert a == b
