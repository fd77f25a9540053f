"""Text grammar for elements of the perfect closure.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' int)?
    atom   := int | name | 'rt' '(' expr ',' int ')' | '(' expr ')'

Names refer to context variables or to named bindings; integer literals
are reduced mod p; rt(e, j) denotes e^(1/p^j).  render_element produces a
canonical string and parse(render(e)) == e holds bit-exactly.

A power, product, quotient or sum whose numerator or denominator could
pass MAX_POWER_TERMS terms is refused with CapExceeded before it is
formed.
"""

from __future__ import annotations

import re

from .perfect import CapExceeded, Context, PerfElem

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^,]))")

MAX_POWER_TERMS = 2 ** 16
"""The most terms the numerator or the denominator of a parsed power,
product, quotient or sum may be predicted to have: (X+Y)^65535 over
p = 2, 65,536 terms, still parses."""


class ExprError(ValueError):
    """Syntax or name error in an element expression, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def is_name(text: str) -> bool:
    """Whether the grammar reads text as one name token, as it must read
    every variable name so that rendered elements parse back."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.group(2) == text


def tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == m.start():
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r}",
                            len(text) - len(stripped))
        if m.group(1) is not None:
            digits = m.group(1)
            try:
                value = int(digits)
            except ValueError:
                # the interpreter refuses to convert this many digits
                raise ExprError(f"integer literal of {len(digits)} digits "
                                f"is too long", m.start(1)) from None
            tokens.append(("int", value, m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        i = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, ctx: Context, text: str, bindings=None):
        self.ctx = ctx
        self.text = text
        self.bindings = bindings or {}
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)

    def parse(self) -> PerfElem:
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprError("trailing input", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                _check_size(e, val, rhs, pos)
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "/" and rhs.is_zero():
                    raise ExprError("division by zero", pos)
                _check_size(e, val, rhs, pos)
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        e = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            n = self.integer(signed=True)
            if n < 0 and e.is_zero():
                raise ExprError("zero to a negative power", pos)
            _check_power_size(e, n, pos)
            e = e ** n
        return e

    def integer(self, signed=False):
        sign = 1
        kind, val, pos = self.peek()
        if signed and kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, pos = self.take()
        if kind != "int":
            raise ExprError("expected an integer", pos)
        return sign * val

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.ctx.const(val)
        if kind == "name":
            if val == "rt":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(",")
                j = self.integer()
                if j < 0:
                    raise ExprError("rt level must be nonnegative", pos)
                self.expect_op(")")
                return inner.frob(-j)
            if val in self.ctx.variables:
                return self.ctx.variable(val)
            if val in self.bindings:
                return self.bindings[val]
            raise ExprError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprError("expected an element", pos)


def _check_power_size(e: PerfElem, n: int, pos: int):
    """Refuse e^n when its numerator or denominator may pass
    MAX_POWER_TERMS terms.  A polynomial's power multiplies one
    Frobenius-scaled copy of it per unit of each base-p digit of the
    exponent, and a copy has as many terms as the polynomial, so f^n has
    at most len(f)^s terms, s the base-p digit sum of |n|; e^-n is the
    inverse of e^n, its numerator and denominator swapped."""
    p = e.ctx.p
    s, m = 0, abs(n)
    while m:
        s += m % p
        m //= p
    for part, f in (("numerator", e.body.num), ("denominator", e.body.den)):
        t = len(f.terms)
        if t > 1 and t ** s > MAX_POWER_TERMS:
            raise CapExceeded(
                f"power ^{n} at position {pos}: its {t}-term {part} may "
                f"reach {t}^{s} terms, more than the limit of "
                f"{MAX_POWER_TERMS}")


_OP_NAMES = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}


def _check_size(a: PerfElem, op: str, b: PerfElem, pos: int):
    """Refuse a op b when its numerator or denominator may pass
    MAX_POWER_TERMS terms.  A product of polynomials has at most the
    product of their term counts, so a*b has at most |num a|*|num b|
    terms over |den a|*|den b|, and a/b is a times b's inverse, its
    numerator and denominator swapped.  A sum over distinct denominators
    is num a*den b + num b*den a over den a*den b; over one denominator d
    it has at most |num a|+|num b| terms over |d|, the same count when d
    is a monomial.  Moving both to their common level renames exponents
    and keeps every count."""
    na, da = len(a.body.num.terms), len(a.body.den.terms)
    nb, db = len(b.body.num.terms), len(b.body.den.terms)
    m = max(a.level, b.level)
    if op == "/":
        nb, db = db, nb
    if op in "*/":
        sizes = na * nb, da * db
    elif da == db > 1 and a.body_at_level(m).den == b.body_at_level(m).den:
        sizes = na + nb, da
    else:
        sizes = na * db + nb * da, da * db
    for part, t in zip(("numerator", "denominator"), sizes):
        if t > MAX_POWER_TERMS:
            raise CapExceeded(
                f"{_OP_NAMES[op]} {op!r} at position {pos}: its {part} "
                f"may reach {t} terms, more than the limit of "
                f"{MAX_POWER_TERMS}")


def parse_element(ctx: Context, text: str, bindings=None) -> PerfElem:
    """Parse an element expression in the given context."""
    try:
        return _Parser(ctx, text, bindings).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", 0) from None


def render_element(e: PerfElem) -> str:
    """Canonical text for e; parses back to an equal element.

    Each variable power x^(a/p^m) is emitted at its own reduced level,
    e.g. t_Y^2 at level 2 prints as rt(Y,1) rather than rt(Y,2)^2.
    """
    num = _render_poly(e.body.num, e.ctx, e.level)
    if e.body.den.is_one():
        return num
    den = _render_poly(e.body.den, e.ctx, e.level)
    if len(e.body.num.terms) > 1:
        num = f"({num})"
    if "+" in den or "*" in den:
        # a bare 'a/b*c' would re-associate as (a/b)*c
        den = f"({den})"
    return f"{num}/{den}"


def _render_poly(poly, ctx, level) -> str:
    if poly.is_zero():
        return "0"
    p = ctx.p
    parts = []
    for exp, c in poly.sorted_terms():
        factors = []
        for i, a in enumerate(exp):
            if a == 0:
                continue
            v, lv = a, level
            while lv > 0 and v % p == 0:
                v //= p
                lv -= 1
            name = ctx.variables[i] if lv == 0 else f"rt({ctx.variables[i]},{lv})"
            factors.append(name if v == 1 else f"{name}^{v}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return "+".join(parts)
