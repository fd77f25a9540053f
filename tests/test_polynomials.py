"""Exact arithmetic: sparse polynomials and rational functions over F_p."""

import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pinsep import polynomials
from pinsep.exprs import render_element
from pinsep.perfect import Context, PerfElem
from pinsep.polynomials import (MultiPoly, RatFunc, VariableCountMismatch,
                                _gcd_core, _make_monic, _monomial_content,
                                _shift_down, mp_content, mp_exact_div,
                                mp_gcd)

from conftest import partial_derivative, quotients

SRC = Path(__file__).resolve().parent.parent / "src"


def poly(p, nvars, terms):
    return MultiPoly(p, nvars, terms)


def var(p, nvars, i):
    return MultiPoly.variable(p, nvars, i)


# ----------------------------------------------------------------------
# MultiPoly basics and the worked examples
# ----------------------------------------------------------------------


def test_add_cancels_in_characteristic_two():
    x, y = var(2, 2, 0), var(2, 2, 1)
    assert ((x + y) + (x + y)).is_zero()


def test_square_is_frobenius_in_characteristic_two():
    x, y = var(2, 2, 0), var(2, 2, 1)
    assert (x + y) ** 2 == poly(2, 2, {(2, 0): 1, (0, 2): 1})


def test_product_mod_three():
    # (x+1)(x+2) = x^2 + 3x + 2 = x^2 + 2
    x = var(3, 1, 0)
    one = MultiPoly.one(3, 1)
    two = MultiPoly.const(3, 1, 2)
    assert (x + one) * (x + two) == poly(3, 1, {(2,): 1, (0,): 2})


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        var(2, 2, 0) + var(2, 3, 0)


def test_no_zero_terms_stored():
    q = poly(3, 1, {(1,): 3, (0,): 1})
    assert q.terms == {(0,): 1}


def test_render_sorted_graded_lex():
    q = poly(3, 2, {(0, 0): 2, (1, 1): 1, (2, 0): 1})
    e = PerfElem(Context(3, ("x", "y")), 0, RatFunc.of_poly(q))
    assert render_element(e) == "x^2+x*y+2"


@st.composite
def polys(draw, p=None, nvars=2, max_deg=3, max_terms=4):
    p = p or draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[e] = draw(st.integers(1, p - 1))
    return MultiPoly(p, nvars, terms)


@given(st.data(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_ring_laws(data, p):
    a = data.draw(polys(p=p))
    b = data.draw(polys(p=p))
    c = data.draw(polys(p=p))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(st.data(), st.sampled_from([2, 3, 5]))
@settings(max_examples=40, deadline=None)
def test_frobenius_is_additive(data, p):
    a = data.draw(polys(p=p))
    b = data.draw(polys(p=p))
    assert (a + b) ** p == a ** p + b ** p
    assert (a + b) ** p == (a + b).scale_exponents(p)


@given(st.data(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_exponent_maps_match_comprehensions(data, p, nvars):
    """scale_exponents, exponents_divisible and divide_exponents agree
    with comprehensions over every exponent, on random polynomials, the
    zero polynomial among them, and on their exponents scaled by p."""
    f = data.draw(polys(p=p, nvars=nvars, max_deg=2 * p))
    for g in (f, f.scale_exponents(p)):
        for k in (1, 2, p, p * p):
            assert g.scale_exponents(k).terms == {
                tuple(x * k for x in e): c for e, c in g.terms.items()}
            divisible = all(x % k == 0 for e in g.terms for x in e)
            assert g.exponents_divisible(k) == divisible
            if divisible:
                assert g.divide_exponents(k).terms == {
                    tuple(x // k for x in e): c for e, c in g.terms.items()}
            else:
                with pytest.raises(ValueError):
                    g.divide_exponents(k)


def test_one_is_recognized_before_any_constant_of_its_variable_count():
    """A 1 built through the constructor, in a fresh interpreter where no
    constant with 7 variables was made before, is one and is constant;
    the constants made afterwards agree."""
    code = ("from pinsep.polynomials import MultiPoly\n"
            "one = MultiPoly(2, 7, {(0,) * 7: 1})\n"
            "two = MultiPoly(3, 7, {(0,) * 7: 2})\n"
            "x = MultiPoly.variable(2, 7, 6)\n"
            "print(one.is_one(), one.is_const(), two.is_one(),\n"
            "      two.is_const(), x.is_one(), x.is_const(),\n"
            "      one == MultiPoly.one(2, 7),\n"
            "      MultiPoly.one(2, 7).is_one())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "True", "True", "False", "True", "False", "False", "True", "True"]


def test_pow_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        f = MultiPoly(p, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                             rng.randint(1, p - 1) for _ in range(3)})
        n = rng.randint(0, 7)
        expected = MultiPoly.one(p, 2)
        for _ in range(n):
            expected = expected * f
        assert f ** n == expected


def test_partial_derivative_examples():
    # d(x^2)/dx = 2x = 0 over F_2; d(x^3)/dx = 3x^2 = x^2 over F_2
    x = var(2, 1, 0)
    assert partial_derivative(x ** 2, 0).is_zero()
    assert partial_derivative(x ** 3, 0) == x ** 2
    with pytest.raises(ValueError):
        partial_derivative(x, 1)


# ----------------------------------------------------------------------
# Division and gcd
# ----------------------------------------------------------------------


def mp_divmod(f, g):
    """Quotient and remainder of f by the single divisor g in graded-lex
    order, each built as a polynomial: the divisibility reference for
    mp_exact_div, which builds no remainder."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p, nv = f.p, f.nvars
    q = r = MultiPoly.zero(p, nv)
    ge, gc = g.leading()
    gcinv = pow(gc, p - 2, p)
    work = f
    while not work.is_zero():
        we, wc = work.leading()
        exp = tuple(a - b for a, b in zip(we, ge))
        if min(exp) >= 0:
            mono = MultiPoly.monomial(p, nv, exp, wc * gcinv)
            q = q + mono
            work = work - g * mono
        else:
            mono = MultiPoly.monomial(p, nv, we, wc)
            r = r + mono
            work = work - mono
    return q, r


def test_exact_division_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        f = MultiPoly(p, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                             rng.randint(1, p - 1) for _ in range(3)})
        g = MultiPoly(p, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                             rng.randint(1, p - 1) for _ in range(2)})
        if g.is_zero():
            continue
        assert mp_exact_div(f * g, g) == f


def test_divmod_remainder_smaller():
    p = 3
    f = poly(p, 2, {(3, 1): 1, (1, 0): 2, (0, 0): 1})
    g = poly(p, 2, {(1, 1): 1, (0, 0): 1})
    q, r = mp_divmod(f, g)
    assert q * g + r == f


def test_gcd_monic_and_divides():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        nv = rng.randint(1, 3)

        def rand():
            return MultiPoly(p, nv, {
                tuple(rng.randint(0, 2) for _ in range(nv)): rng.randint(1, p - 1)
                for _ in range(rng.randint(1, 3))})

        f, g, h = rand(), rand(), rand()
        d = mp_gcd(f * h, g * h)
        assert mp_divmod(f * h, d)[1].is_zero()
        assert mp_divmod(g * h, d)[1].is_zero()
        # the common factor h divides the gcd
        assert mp_divmod(d, h)[1].is_zero()
        # and d is the greatest: the cofactors are coprime
        assert mp_gcd(mp_exact_div(f * h, d), mp_exact_div(g * h, d)).is_one()
        # monic in graded-lex
        assert d.leading()[1] == 1


def test_gcd_of_coprime_is_one():
    x, y = var(5, 2, 0), var(5, 2, 1)
    one = MultiPoly.one(5, 2)
    assert mp_gcd(x + one, y + one).is_one()


def test_gcd_of_elimination_inputs_with_high_remainder_swell():
    """Coprime pairs met while reducing the products of a field equal to
    A_2 over F_2(X, Y, Z).  Taking each remainder's content ran for 12 s
    on the first pair and over 2 min on the second; the subresultant
    sequence answers both in milliseconds.  A common factor h comes back
    as the gcd."""
    def ones(*exps):
        return poly(2, 3, dict.fromkeys(exps, 1))

    pairs = [
        (ones((0, 1, 5), (1, 0, 0), (3, 0, 6)),
         ones((0, 0, 0), (0, 3, 6), (1, 0, 3), (1, 2, 1), (1, 5, 7),
              (1, 11, 6), (2, 5, 10), (2, 13, 7), (3, 2, 7), (3, 13, 10))),
        (ones((0, 4, 1), (0, 7, 7), (1, 0, 3), (1, 3, 9), (1, 4, 4),
              (1, 9, 8), (1, 15, 7), (2, 0, 6), (2, 2, 4), (2, 5, 10),
              (2, 9, 11), (2, 11, 9), (2, 14, 2), (2, 17, 8), (3, 3, 2),
              (3, 5, 13), (3, 9, 1), (3, 13, 10), (3, 17, 11), (4, 2, 10),
              (4, 3, 5), (4, 5, 3), (4, 8, 9), (4, 13, 13), (4, 14, 8),
              (4, 17, 1), (5, 8, 12), (5, 16, 9), (6, 5, 9), (6, 16, 12)),
         ones((0, 2, 0), (0, 5, 6), (1, 2, 3), (1, 4, 1), (1, 7, 7),
              (1, 13, 6), (2, 7, 10), (2, 15, 7), (3, 4, 7), (3, 15, 10))),
    ]
    h = ones((1, 1, 0), (0, 0, 2), (0, 0, 0))
    for f, g in pairs:
        assert mp_gcd(f, g).is_one()
        assert mp_gcd(f * h, g * h) == _make_monic(h)


@st.composite
def single_terms(draw, p, nvars, max_deg=3):
    """A nonzero one-term polynomial c*x^a."""
    a = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
    return MultiPoly.monomial(p, nvars, a, draw(st.integers(1, p - 1)))


@st.composite
def kernel_args(draw):
    """(f, c*x^a) over F_p, p in {2, 3, 5}, with 1 to 3 variables."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    return draw(polys(p=p, nvars=nvars)), draw(single_terms(p, nvars))


def general_gcd(f, g):
    """The primitive PRS route of mp_gcd, which the monomial case skips."""
    mf, mg = _monomial_content(f), _monomial_content(g)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    core = _gcd_core(_shift_down(f, mf), _shift_down(g, mg))
    return _make_monic(core.mul_monomial(common))


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_gcd_with_single_term_matches_general_route(args):
    f, m = args
    if f.is_zero():
        return
    d = mp_gcd(f, m)
    assert d == mp_gcd(m, f) == general_gcd(f, m) == general_gcd(m, f)
    assert mp_divmod(f, d)[1].is_zero()
    assert mp_divmod(m, d)[1].is_zero()


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_exact_div_by_single_term_matches_divmod(args):
    f, m = args
    q = mp_exact_div(f * m, m)
    assert q == f
    assert q == mp_divmod(f * m, m)[0]


@st.composite
def multi_term_divisions(draw):
    """(f, g) over F_p, p in {2, 3, 5}, with 1 to 3 variables and g of at
    least two terms."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    g = draw(polys(p=p, nvars=nvars).filter(lambda g: len(g.terms) > 1))
    return draw(polys(p=p, nvars=nvars)), g


@given(multi_term_divisions())
@settings(max_examples=150, deadline=None)
def test_exact_div_by_multi_term_divisor_matches_divmod(args):
    """mp_exact_div undoes a product, and raises exactly where mp_divmod
    leaves a remainder; division by 0 raises ZeroDivisionError."""
    f, g = args
    assert mp_exact_div(f * g, g) == f
    q, r = mp_divmod(f, g)
    if r.is_zero():
        assert mp_exact_div(f, g) == q
    else:
        with pytest.raises(ArithmeticError):
            mp_exact_div(f, g)
    with pytest.raises(ZeroDivisionError):
        mp_exact_div(f, MultiPoly.zero(f.p, f.nvars))
    assert mp_exact_div(g, MultiPoly(g.p, g.nvars, dict(g.terms))).is_one()


def test_sum_over_one_multi_term_denominator_runs_no_division_loop(
        monkeypatch):
    """1/(X+Y) + X/(X+Y): RatFunc.__add__ learns g = gcd(den, den) = den
    and divides den by it twice; mp_exact_div answers 1 for a divisor
    equal to the dividend before its graded-lex loop, so no leading term
    is sought inside it.  The other divisions, inside gcd(1 + X, X + Y),
    are by a single term or by the dividend itself."""
    X, Y = var(2, 2, 0), var(2, 2, 1)
    one = MultiPoly.one(2, 2)
    den = X + Y
    divisions, keys = [], []
    real_div, real_key = polynomials.mp_exact_div, polynomials.grlex_key

    def div(f, g):
        divisions.append((f, g))
        keys.append(None)
        try:
            return real_div(f, g)
        finally:
            keys.pop()

    def key(e):
        if keys:
            keys.append(e)
        return real_key(e)

    a, b, expected = RatFunc(one, den), RatFunc(X, den), RatFunc(one + X, den)
    monkeypatch.setattr(polynomials, "mp_exact_div", div)
    monkeypatch.setattr(polynomials, "grlex_key", key)
    assert a + b == expected
    assert divisions.count((den, den)) == 2
    assert keys == []


def schoolbook_product(f, g):
    """f*g as the sum of its term products, one polynomial per term."""
    out = MultiPoly.zero(f.p, f.nvars)
    for e, c in f.terms.items():
        for a, d in g.terms.items():
            out = out + MultiPoly.monomial(
                f.p, f.nvars, tuple(x + y for x, y in zip(e, a)), c * d)
    return out


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_product_by_single_term_matches_schoolbook(args):
    """A single-term factor shifts the other factor's terms, on either
    side; 1 returns the other factor itself."""
    f, m = args
    assert f * m == m * f == schoolbook_product(f, m)
    one = MultiPoly.one(f.p, f.nvars)
    assert one * f == f * one == f
    if not (f.is_zero() or f.is_one()):
        assert one * f is f and f * one is f


@given(kernel_args(), st.data())
@settings(max_examples=100, deadline=None)
def test_exact_div_by_non_dividing_single_term_raises(args, data):
    f, m = args
    if f.is_zero():
        return
    # raise one exponent of m above the monomial content of f
    i = data.draw(st.integers(0, f.nvars - 1))
    (a, c), = m.terms.items()
    a = list(a)
    a[i] = _monomial_content(f)[i] + data.draw(st.integers(1, 2))
    with pytest.raises(ArithmeticError):
        mp_exact_div(f, MultiPoly.monomial(f.p, f.nvars, a, c))


# ----------------------------------------------------------------------
# RatFunc
# ----------------------------------------------------------------------


def rf(num, den=None):
    if den is None:
        return RatFunc.of_poly(num)
    return RatFunc(num, den)


def test_rat_normalization_reduces_and_makes_den_monic():
    x = var(3, 1, 0)
    one = MultiPoly.one(3, 1)
    two = MultiPoly.const(3, 1, 2)
    r = RatFunc((x + one) * two * (x + two), (x + one) * two)
    assert r.num == x + two
    assert r.den.is_one()


def test_rat_identity_examples():
    x, y = var(2, 2, 0), var(2, 2, 1)
    a = rf(x + y)
    assert (a / a).is_one()
    assert (rf(x) / rf(y)) * (rf(y) / rf(x)) == RatFunc.one(2, 2)
    # 1/(x+y) + 1/(x+y) = 0 over F_2
    inv = rf(MultiPoly.one(2, 2), x + y)
    assert (inv + inv).is_zero()


def test_rat_mul_by_one_returns_the_other_factor():
    """A product with 1 is the other factor itself, not an equal copy.

    Products meet factors equal to 1 all the time (a fraction read off
    a reduced row is 1 at its pivot).  Returning the other factor lets
    the product share it instead of holding an equal copy.  A faster
    route for monomial factors, placed ahead of this shortcut, made those
    copies, and raised both the memory and the op time of the towers
    benchmark workload; MultiPoly products by 1 share the same way."""
    x, y = var(2, 2, 0), var(2, 2, 1)
    a = rf(x + y, x)
    one = RatFunc.one(2, 2)
    assert one * a is a
    assert a * one is a
    monomial = rf(x * y)
    assert one * monomial is monomial and monomial * one is monomial


def test_rat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc.one(2, 1).inverse().__truediv__(RatFunc.zero(2, 1))
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(2, 1).inverse()
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RatFunc(MultiPoly.one(2, 1), MultiPoly.zero(2, 1))


def test_rat_partial_derivative_quotient_rule():
    # d(1/y)/dx = 0; d(x/y)/dy = -x/y^2
    p = 3
    x, y = var(p, 2, 0), var(p, 2, 1)
    r = RatFunc(MultiPoly.one(p, 2), y)
    assert partial_derivative(r, 0).is_zero()
    s = RatFunc(x, y)
    expected = RatFunc(-x, y * y)
    assert partial_derivative(s, 1) == expected
    # a polynomial body: d(x^2 y)/dx = 2xy
    assert partial_derivative(RatFunc.of_poly(x * x * y), 0) == \
        RatFunc.of_poly((x * y).scale(2))


@given(st.data(), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_rat_field_laws(data, p):
    def draw_rf():
        num = data.draw(polys(p=p, max_deg=2, max_terms=3))
        den = data.draw(polys(p=p, max_deg=1, max_terms=2))
        if den.is_zero():
            den = MultiPoly.one(p, 2)
        return RatFunc(num, den)

    a, b, c = draw_rf(), draw_rf(), draw_rf()
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@given(st.data(), st.sampled_from([2, 3, 5]))
@settings(max_examples=30, deadline=None)
def test_rat_frobenius_additive(data, p):
    num1 = data.draw(polys(p=p, max_deg=2, max_terms=3))
    num2 = data.draw(polys(p=p, max_deg=2, max_terms=3))
    a, b = RatFunc.of_poly(num1), RatFunc.of_poly(num2)
    lhs = a + b
    assert (lhs.num ** p, lhs.den ** p) == ((a + b).num ** p, (a + b).den ** p)
    # (a+b)^p = a^p + b^p, computed through exponent scaling
    assert lhs.scale_exponents(p) == a.scale_exponents(p) + b.scale_exponents(p)


def test_normalization_idempotent():
    x = var(2, 2, 0)
    y = var(2, 2, 1)
    r = RatFunc(x * y + x, y * y + y)
    again = RatFunc(r.num, r.den)
    assert r == again


# ----------------------------------------------------------------------
# The fraction routes against the normalizing constructor
# ----------------------------------------------------------------------

QUOTIENT_CONTEXTS = {2: Context(2, ("X", "Y", "Z")), 3: Context(3, ("X", "Y"))}


def draw_bodies(data, p, count):
    """Bodies of random quotients (conftest.quotients): reduced fractions
    whose denominators often have several terms."""
    ctx = QUOTIENT_CONTEXTS[p]
    return [data.draw(quotients(ctx)).body for _ in range(count)]


@given(st.data(), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_rat_sum_matches_normalizing_constructor(data, p):
    """a + b over coprime, equal and shared-factor denominators is the
    fraction RatFunc builds from num a * den b + num b * den a over
    den a * den b, by its own gcd."""
    x, y = draw_bodies(data, p, 2)
    d = x.den
    t = MultiPoly.variable(p, d.nvars, 0)
    partners = {
        # any common factor of d and d*t + 1 divides 1
        "coprime": RatFunc(y.num, d * t + MultiPoly.one(p, d.nvars)),
        # gcd(num x + num y * d, d) = gcd(num x, d) = 1
        "equal": RatFunc(x.num + y.num * d, d),
        "shared": RatFunc(y.num, d * y.den),
    }
    assert mp_gcd(d, partners["coprime"].den).is_one()
    assert partners["equal"].den == d or partners["equal"].is_zero()
    for b in [x, y, *partners.values()]:
        expected = RatFunc(x.num * b.den + b.num * x.den, x.den * b.den)
        assert x + b == expected
        assert b + x == expected


@given(st.data(), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_rat_inverse_matches_normalizing_constructor_without_a_gcd(data, p):
    x, = draw_bodies(data, p, 1)
    assume(not x.is_zero())
    with mock.patch("pinsep.polynomials.mp_gcd",
                    side_effect=AssertionError("inverse ran a gcd")):
        got = x.inverse()
    assert got == RatFunc(x.den, x.num)
    assert got.inverse() == x


@given(st.data(), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_rat_sum_with_negative_is_zero_over_one(data, p):
    """A zero sum comes out as 0/1 over a multi-term denominator too,
    where the shared-factor route cancels the whole denominator."""
    x, = draw_bodies(data, p, 1)
    assume(len(x.den.terms) > 1)
    for s in (x + (-x), (-x) + x, x - x):
        assert s.num.is_zero() and s.den.is_one()
        assert s == RatFunc.zero(p, x.nvars)


@given(st.data(), st.sampled_from([2, 3]),
       st.sampled_from(["none", "const", "poly"]))
@settings(max_examples=100, deadline=None)
def test_content_matches_pairwise_gcd_fold(data, p, start):
    """mp_content is the pairwise mp_gcd fold up to a unit, zeros, an
    all-zero or empty list and a constant start included; with no start
    and nothing nonzero to fold it answers None."""
    factor = data.draw(polys(p=p, max_deg=2, max_terms=2))
    if factor.is_zero():
        factor = MultiPoly.one(p, 2)
    entries = [factor * f for f in data.draw(
        st.lists(polys(p=p, max_deg=2, max_terms=3), max_size=4))]
    g = {"none": None,
         "const": MultiPoly.const(p, 2, data.draw(st.integers(1, p - 1))),
         "poly": factor * data.draw(polys(p=p, max_deg=2, max_terms=3))}[start]
    if g is not None and g.is_zero():
        g = None
    got = mp_content(entries, g)
    fold = reduce(mp_gcd, entries, MultiPoly.zero(p, 2) if g is None else g)
    if got is None:
        assert g is None and fold.is_zero()
    else:
        assert _make_monic(got) == _make_monic(fold)


def test_content_edge_cases_and_early_stop():
    x, y = var(3, 2, 0), var(3, 2, 1)
    one, zero = MultiPoly.one(3, 2), MultiPoly.zero(3, 2)
    assert mp_content([]) is None
    assert mp_content([zero, zero]) is None
    # with no gcd run, the one entry comes back as given, not monic
    assert mp_content([zero, (x + y).scale(2)]) == (x + y).scale(2)
    # the fold stops at 1: the third entry is never read
    with mock.patch("pinsep.polynomials.mp_gcd", wraps=mp_gcd) as gcd:
        assert mp_content([x + one, y + one, x * y]).is_one()
    assert gcd.call_count == 1
