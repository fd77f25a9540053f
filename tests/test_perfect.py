"""Perfect-closure elements: levels, Frobenius, canonical minimal form."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pinsep.exprs import parse_element
from pinsep.perfect import CapExceeded, Context, PerfElem
from pinsep.polynomials import MultiPoly, RatFunc

from conftest import partial_derivative, quotients


@pytest.fixture
def ctx():
    return Context(2, ("X", "Y", "Z"))


@pytest.fixture
def ctx3():
    return Context(3, ("X", "Y"))


def test_context_validation():
    with pytest.raises(ValueError):
        Context(4, ("X",))
    with pytest.raises(ValueError):
        Context(2, ("X", "X"))


def test_element_validation(ctx):
    """A PerfElem needs a level >= 0 and a body over the context's field
    and variables."""
    x = ctx.variable("X").body
    with pytest.raises(ValueError, match="negative level"):
        PerfElem(ctx, -1, x)
    for p, nvars in ((3, 3), (2, 2)):
        with pytest.raises(ValueError, match="does not match the context"):
            PerfElem(ctx, 0, RatFunc.one(p, nvars))


def test_frob_roundtrip_examples(ctx):
    X = ctx.variable("X")
    a = X.frob(-2)
    assert a.level == 2
    assert a.frob(2) == X
    half = X.frob(-1)
    assert half.level == 1
    assert half.frob(1) == X


def test_equal_values_hash_equal(ctx):
    """Values equal by two routes hash equal, at every layer: an element
    parsed and the same one computed, a Frobenius round trip, and one
    fraction reduced two ways."""
    X, Y = ctx.variable("X"), ctx.variable("Y")
    e = parse_element(ctx, "(X+Y)^2/(X*Y) + rt(Z,1)")
    f = X / Y + Y / X + ctx.variable("Z").frob(-1)
    x, y = X.body.num, Y.body.num
    r, s = RatFunc(x * x + y * y, x * x + x * y), RatFunc(x + y, x)
    pairs = [(e, f), (e.body, f.body), (e.body.num, f.body.num),
             ((X * Y + Y).frob(-2).frob(2), (X + ctx.one()) * Y),
             (r, s), (r.num, s.num), (r.den, s.den),
             (MultiPoly(2, 3, {(1, 0, 0): 1, (0, 1, 0): 1}),
              MultiPoly(2, 3, {(0, 1, 0): 1, (1, 0, 0): 1}))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_frob_of_sum_is_sum_of_roots(ctx):
    X, Y = ctx.variable("X"), ctx.variable("Y")
    r = (X + Y).frob(-1)
    assert r == X.frob(-1) + Y.frob(-1)
    assert r.frob(1) == X + Y


def test_normalize_level_examples(ctx):
    # (level 1, t^2) is x at level 0
    body = RatFunc.of_poly(MultiPoly.monomial(2, 3, (2, 0, 0)))
    e = PerfElem(ctx, 1, body)
    assert e.level == 0
    assert e == ctx.variable("X")
    # (level 1, t) stays put
    body = RatFunc.of_poly(MultiPoly.monomial(2, 3, (1, 0, 0)))
    assert PerfElem(ctx, 1, body).level == 1
    # (level 2, t_x^2 t_y^2) drops to level 1: x^(1/2) y^(1/2)
    body = RatFunc.of_poly(MultiPoly.monomial(2, 3, (2, 2, 0)))
    e = PerfElem(ctx, 2, body)
    assert e.level == 1
    assert e == ctx.variable("X").frob(-1) * ctx.variable("Y").frob(-1)


def test_normalize_level_idempotent_and_value_preserving(ctx):
    rng = random.Random(9)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 4) for _ in range(3))
            terms[e] = 1
        body = RatFunc.of_poly(MultiPoly(2, 3, terms))
        e = PerfElem(ctx, rng.randint(0, 3), body)
        # re-normalizing an already canonical element changes nothing
        assert PerfElem(e.ctx, e.level, e.body) == e
        # value preserved: raise to p^level lands at level 0 consistently
        assert e.frob(e.level).level == 0


def test_exponent_over_base_examples(ctx):
    X, Y, Z = (ctx.variable(v) for v in "XYZ")
    assert X.frob(-2).level == 2
    assert (X + Y).level == 0
    # X^(1/4) Y^(1/2) + Z^(1/2): squaring twice first lands in k
    e = X.frob(-2) * Y.frob(-1) + Z.frob(-1)
    assert e.level == 2
    sq = e.frob(1)
    assert sq.level == 1
    assert sq == X.frob(-1) * Y + Z


def test_level_increments_under_roots(ctx):
    X, Y = ctx.variable("X"), ctx.variable("Y")
    e = X * Y + X
    for j in range(3):
        assert e.level == j
        e = e.frob(-1)


def test_cap_errors():
    tight = Context(2, ("X",), ambient_cap=2)
    X = tight.variable("X")
    X.frob(-2)
    with pytest.raises(CapExceeded):
        X.frob(-3)


@st.composite
def elements(draw, ctx):
    nv = ctx.nvars
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(nv))
        terms[e] = draw(st.integers(1, ctx.p - 1))
    level = draw(st.integers(0, 3))
    return PerfElem(ctx, level, RatFunc.of_poly(MultiPoly(ctx.p, nv, terms)))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_frob_is_field_morphism(data):
    ctx = Context(data.draw(st.sampled_from([2, 3])), ("X", "Y"))
    a = data.draw(elements(ctx))
    b = data.draw(elements(ctx))
    j = data.draw(st.integers(-2, 2))
    assert (a + b).frob(j) == a.frob(j) + b.frob(j)
    assert (a * b).frob(j) == a.frob(j) * b.frob(j)
    assert a.frob(j).frob(-j) == a


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_frob_of_a_leveled_element_keeps_its_body(p, data):
    """For an element of level >= 1, e.frob(j) is what the stripping
    constructor makes of e's body at level - j, for every j in
    [-2, level]: no level of it strips, and below level the body is
    kept as it is.  Polynomial bodies and quotients
    with real denominators are both drawn."""
    ctx = Context(p, ("X", "Y"))
    e = data.draw(st.one_of(elements(ctx), quotients(ctx)))
    if e.level == 0:
        e = e.frob(-1)
    assume(e.level >= 1)        # a constant stays in k
    for j in range(-2, e.level + 1):
        f = e.frob(j)
        ref = PerfElem(ctx, e.level - j, e.body)
        assert (f.level, f.body) == (ref.level, ref.body)
        if j < e.level:
            assert f.body is e.body


def test_frob_checks_the_cap_and_strips_level_zero_roots():
    """A root of an element of level >= 1 still checks the cap, and a
    root of a level-0 p-th power still strips: rt(X^2, 1) is X."""
    tight = Context(2, ("X", "Y"), ambient_cap=2)
    e = tight.variable("X").frob(-1) + tight.variable("Y")
    assert e.frob(-1).level == 2
    with pytest.raises(CapExceeded):
        e.frob(-2)
    with pytest.raises(CapExceeded):
        e.frob(-1).frob(-1)
    X = tight.variable("X")
    assert (X * X).frob(-1) == X
    assert (X * X).frob(-3) == X.frob(-2)
    with pytest.raises(CapExceeded):
        (X * X).frob(-4)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_root_raises_level_exactly_one(data):
    # holds for canonical a with level >= 1, or level 0 with a body that
    # is not itself a p-th power (e.g. the root of x^2 is just x)
    ctx = Context(data.draw(st.sampled_from([2, 3])), ("X", "Y"))
    a = data.draw(elements(ctx))
    root = a.frob(-1)
    if a.level >= 1 or not a.body.exponents_divisible(ctx.p):
        assert root.level == a.level + 1
    else:
        assert root.level <= a.level
        assert root.frob(1) == a


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_minimal_level_matches_derivative_criterion(data):
    """body in F_p(t^p) iff all partials vanish iff exponent divisibility."""
    ctx = Context(data.draw(st.sampled_from([2, 3])), ("X", "Y"))
    num = data.draw(elements(ctx)).body.num
    den = data.draw(elements(ctx)).body.num
    if den.is_zero():
        den = MultiPoly.one(ctx.p, 2)
    body = RatFunc(num, den)
    derivative_says = all(partial_derivative(body, i).is_zero()
                          for i in range(2))
    divisibility_says = body.exponents_divisible(ctx.p)
    assert derivative_says == divisibility_says


def test_arithmetic_mixes_levels(ctx):
    X, Y = ctx.variable("X"), ctx.variable("Y")
    e = X.frob(-2) + Y.frob(-1)
    assert e.level == 2
    assert e - X.frob(-2) == Y.frob(-1)
    q = e / e
    assert q == ctx.one()


def test_pow_negative_and_zero(ctx):
    X = ctx.variable("X")
    a = X.frob(-1)
    assert a ** 0 == ctx.one()
    assert a ** -2 == (a * a).inverse()


def is_canonical(r):
    """r equals its fully renormalized form, and its denominator is monic."""
    return r == RatFunc(r.num, r.den) and r.den.leading()[1] == 1


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40, deadline=None)
def test_arithmetic_of_quotients_is_canonical(p, data):
    """Sums, products, inverses, exponent division and powers of fractions
    with real denominators come out reduced with a monic denominator,
    also where the denominators share factors (u and u*v)."""
    ctx = Context(p, ("X", "Y"))
    u = data.draw(quotients(ctx))
    v = data.draw(quotients(ctx))
    m = max(u.level, v.level)
    a, b = u.body_at_level(m), (u * v).body_at_level(m)
    root = a.scale_exponents(p).divide_exponents(p)
    assert root == a
    results = [a + b, a - b, a * b, root, (u + v).body, (u * v).body]
    results += [(u ** n).body for n in (2, p, p + 1)]
    if not a.is_zero():
        results += [a.inverse(), b / a, (u ** -2).body]
    assert all(is_canonical(r) for r in results)
