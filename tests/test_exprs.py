"""Element grammar: parsing, rendering, round-trip stability, errors."""

import random
import re
from unittest import mock

import pytest

from pinsep.exprs import (MAX_POWER_TERMS, ExprError, parse_element,
                          render_element)
from pinsep.perfect import CapExceeded, Context
from pinsep.polynomials import MultiPoly

from conftest import random_element


@pytest.fixture
def ctx():
    return Context(2, ("X", "Y", "Z"))


def test_parse_root(ctx):
    e = parse_element(ctx, "rt(X,2)")
    assert e.level == 2
    assert e == ctx.variable("X").frob(-2)


def test_parse_worked_generator(ctx):
    e = parse_element(ctx, "rt(X,2)*rt(Y,1)+rt(Z,1)")
    expected = (ctx.variable("X").frob(-2) * ctx.variable("Y").frob(-1)
                + ctx.variable("Z").frob(-1))
    assert e == expected


def test_parse_cancellation(ctx):
    assert parse_element(ctx, "X + X").is_zero()


def test_integer_literals_reduced_mod_p(ctx):
    assert parse_element(ctx, "3") == ctx.one()
    assert parse_element(ctx, "2").is_zero()


def test_precedence_and_parens(ctx):
    a = parse_element(ctx, "X*Y+Z")
    b = parse_element(ctx, "X*(Y+Z)")
    X, Y, Z = (ctx.variable(v) for v in "XYZ")
    assert a == X * Y + Z
    assert b == X * (Y + Z)
    assert parse_element(ctx, "X^3") == X * X * X
    assert parse_element(ctx, "rt(X,1)^2") == X


def test_negative_power_and_division(ctx):
    assert parse_element(ctx, "X^-1") == ctx.one() / ctx.variable("X")
    assert parse_element(ctx, "(X+Y)/(X+Y)") == ctx.one()


def test_unary_minus():
    ctx3 = Context(3, ("X",))
    e = parse_element(ctx3, "-X")
    assert e + ctx3.variable("X") == ctx3.zero()


def test_nested_rt(ctx):
    assert parse_element(ctx, "rt(rt(X,1),1)") == ctx.variable("X").frob(-2)


def test_errors_carry_position(ctx):
    with pytest.raises(ExprError) as err:
        parse_element(ctx, "X + + Y")
    assert err.value.pos == 4
    with pytest.raises(ExprError) as err:
        parse_element(ctx, "X + W")
    assert "unknown name 'W'" in str(err.value)
    with pytest.raises(ExprError):
        parse_element(ctx, "X Y")
    with pytest.raises(ExprError):
        parse_element(ctx, "rt(X)")
    with pytest.raises(ExprError):
        parse_element(ctx, "1/0")
    with pytest.raises(ExprError):
        parse_element(ctx, "X $ Y")


def test_cap_error_propagates():
    tight = Context(2, ("X",), ambient_cap=1)
    with pytest.raises(CapExceeded):
        parse_element(tight, "rt(X,4)")


def test_root_of_a_constant_lies_in_k(ctx):
    """A constant lies in k at level 0, whatever root of it is taken; no
    level is stripped one at a time."""
    ctx3 = Context(3, ("X", "Y"))
    one = parse_element(ctx3, "rt(1,99999999)")
    assert one == ctx3.one() and one.level == 0
    zero = parse_element(ctx, "rt(2*X^0,40000000)")
    assert zero.is_zero() and zero.level == 0


def test_bindings(ctx):
    a1 = parse_element(ctx, "rt(X,2)")
    e = parse_element(ctx, "a1*rt(Y,1)", bindings={"a1": a1})
    assert e == a1 * ctx.variable("Y").frob(-1)


def test_render_examples(ctx):
    assert render_element(parse_element(ctx, "rt(X,2)")) == "rt(X,2)"
    e = parse_element(ctx, "rt(X,2)*rt(Y,1)+rt(Z,1)")
    assert render_element(e) == "rt(X,2)*rt(Y,1)+rt(Z,1)"
    assert render_element(ctx.zero()) == "0"
    assert render_element(ctx.one()) == "1"


def test_roundtrip_random_elements():
    rng = random.Random(31)
    for p in (2, 3, 5):
        ctx = Context(p, ("X", "Y"))
        for _ in range(40):
            e = random_element(ctx, rng, max_level=3, max_terms=3)
            if rng.random() < 0.3:
                d = random_element(ctx, rng, max_level=2, max_terms=2)
                if not d.is_zero():
                    e = e / d
            assert parse_element(ctx, render_element(e)) == e


def test_roundtrip_is_bit_exact(ctx):
    e = parse_element(ctx, "(rt(X,1)+Y)/(Z+1)")
    text = render_element(e)
    again = parse_element(ctx, text)
    assert again == e
    assert render_element(again) == text


@pytest.mark.parametrize("p,text,message", [
    (2, "(X+Y)^131071", "power ^131071 at position 5: its 2-term numerator "
     "may reach 2^17 terms"),
    (2, "(X+Y)^-1073741823", "2-term numerator may reach 2^30 terms"),
    (2, "(1/(X+Y+Z))^4095", "3-term denominator may reach 3^12 terms"),
    (3, "(X+Y)^177146", "2-term numerator may reach 2^22 terms"),
])
def test_oversized_power_is_refused_before_any_product(p, text, message):
    """A power whose numerator or denominator may pass MAX_POWER_TERMS
    terms, len(f)^s for s the base-p digit sum of the exponent, raises
    CapExceeded naming the power and the bound; no polynomial power
    runs."""
    ctx = Context(p, ("X", "Y", "Z"))
    with mock.patch.object(MultiPoly, "__pow__",
                           side_effect=AssertionError("power formed")):
        with pytest.raises(CapExceeded, match=message.replace("^", r"\^")):
            parse_element(ctx, text)


def test_power_at_the_term_limit_parses():
    """(X+Y)^65535 over p = 2 has every one of its 2^16 terms, and powers
    whose digit sum is small parse however large they are."""
    ctx = Context(2, ("X", "Y"))
    assert len(parse_element(ctx, "(X+Y)^65535").body.num.terms) \
        == MAX_POWER_TERMS
    assert parse_element(ctx, "(X+Y)^1073741824") == parse_element(
        ctx, "X^1073741824+Y^1073741824")
    assert parse_element(ctx, "(X*Y)^1073741823").body.num.terms == {
        (1073741823, 1073741823): 1}


@pytest.mark.parametrize("text,message", [
    ("(X+Y)^1023*(X+Z)^1023",
     "product '*' at position 10: its numerator may reach 1048576 terms"),
    ("(X+Y)^1023/(1/(X+Z)^1023)",
     "quotient '/' at position 10: its numerator may reach 1048576 terms"),
    ("1/(X+Y)^511+1/(X+Z)^511",
     "sum '+' at position 11: its denominator may reach 262144 terms"),
    ("1/(X+Y)^511-rt(1/(X+Z)^511,1)",
     "difference '-' at position 11: its denominator may reach 262144 "
     "terms"),
])
def test_oversized_product_quotient_or_sum_is_refused(ctx, text, message,
                                                     monkeypatch):
    """A product, quotient or sum whose predicted numerator or
    denominator passes MAX_POWER_TERMS terms raises CapExceeded naming
    the operator, its position and the predicted size, before any
    polynomial product that could pass the limit is formed."""
    real = MultiPoly.__mul__

    def bounded(f, g):
        assert len(f.terms) * len(g.terms) <= MAX_POWER_TERMS, "formed"
        return real(f, g)

    monkeypatch.setattr(MultiPoly, "__mul__", bounded)
    with pytest.raises(CapExceeded, match=re.escape(message)):
        parse_element(ctx, text)


def test_sum_over_one_denominator_counts_the_numerators_only(ctx):
    """Over one denominator, at the same level or not, a sum predicts
    |num a| + |num b| terms, not the cross products of distinct
    denominators, which here would pass the limit."""
    den = "(X+Z)^511"
    assert len(parse_element(ctx, den).body.num.terms) ** 2 > MAX_POWER_TERMS
    assert parse_element(ctx, f"X/{den}+Y/{den}") == parse_element(
        ctx, f"(X+Y)/{den}")
    assert parse_element(ctx, f"rt(X,1)/{den}+Y/{den}") == parse_element(
        ctx, f"(rt(X,1)+Y)/{den}")


def test_overlong_integer_literal_is_a_parse_error(ctx):
    """A literal with more digits than the interpreter converts gets the
    parser's own message, with its position and digit count."""
    with pytest.raises(ExprError, match=r"integer literal of 5000 digits "
                       r"is too long \(at position 2\)") as info:
        parse_element(ctx, "X^" + "9" * 5000)
    assert "set_int_max_str_digits" not in str(info.value)
