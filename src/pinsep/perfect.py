"""Elements of the perfect closure of k = F_p(x_1, ..., x_nu).

A PerfElem is stored as a pair (level m, body), where the body is a
rational function in the scaled variables t_i = x_i^(1/p^m).  The level is
kept minimal: for a reduced fraction, the body lies in F_p(t^p) exactly
when every exponent of its numerator and denominator is divisible by p
(equivalently, all partial derivatives vanish), and in that case the
element is rewritten one level down by dividing exponents by p.  With the
minimal-level convention, equality is structural and the exponent of an
element over k is just its level.

All values are immutable; operations are pure and parallel-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import SMALL_PRIMES, MultiPoly, RatFunc


class CapExceeded(ValueError):
    """An operation would pass a fixed bound: the configured ambient level
    cap, or the term limit of a parsed power, product, quotient or sum
    (exprs.MAX_POWER_TERMS)."""


@dataclass(frozen=True)
class Context:
    """Fixed computation context: the prime p and the variable list.

    All elements and fields constructed in one context share these; the
    ambient cap bounds every level that may appear (exceeding it raises
    CapExceeded rather than truncating silently).
    """

    p: int
    variables: tuple
    ambient_cap: int = 6

    def __post_init__(self):
        if self.p not in SMALL_PRIMES:
            raise ValueError("p must be a prime in {2, 3, 5, 7}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if self.ambient_cap < 0:
            raise ValueError(f"the ambient cap must be >= 0, "
                             f"got {self.ambient_cap}")
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def check_level(self, m: int):
        if m > self.ambient_cap:
            raise CapExceeded(
                f"level {m} exceeds the ambient cap {self.ambient_cap}")

    def zero(self):
        return PerfElem(self, 0, RatFunc.zero(self.p, self.nvars))

    def one(self):
        return PerfElem(self, 0, RatFunc.one(self.p, self.nvars))

    def const(self, c: int):
        return PerfElem(self, 0, RatFunc.const(self.p, self.nvars, c))

    def variable(self, name: str):
        i = self.var_index(name)
        body = RatFunc.of_poly(MultiPoly.variable(self.p, self.nvars, i))
        return PerfElem(self, 0, body)

    def root_of_variable(self, name: str, j: int):
        """The element x^(1/p^j) for the named variable x."""
        return self.variable(name).frob(-j)


class PerfElem:
    """Canonical minimal-level element of the perfect closure."""

    __slots__ = ("ctx", "level", "body")

    def __init__(self, ctx: Context, level: int, body: RatFunc):
        if body.p != ctx.p or body.nvars != ctx.nvars:
            raise ValueError("body does not match the context")
        if level < 0:
            raise ValueError("negative level")
        # canonical form: strip p-divisible levels; a constant lies in k,
        # so its level drops to 0 at once
        while level > 0 and body.exponents_divisible(ctx.p):
            body = body.divide_exponents(ctx.p)
            level = 0 if body.is_const() else level - 1
        ctx.check_level(level)
        self.ctx = ctx
        self.level = level
        self.body = body

    @classmethod
    def _of(cls, ctx: Context, level: int, body: RatFunc) -> "PerfElem":
        """Wrap a body already canonical at `level`, within the cap."""
        out = cls.__new__(cls)
        out.ctx, out.level, out.body = ctx, level, body
        return out

    # -- helpers --------------------------------------------------------

    def body_at_level(self, m: int) -> RatFunc:
        """The body rewritten in the level-m scaled variables (m >= level)."""
        if m < self.level:
            raise ValueError("cannot lower the level of a canonical element")
        return self.body.scale_exponents(self.ctx.p ** (m - self.level))

    def _check(self, other: "PerfElem"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("elements from different contexts")

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        m = max(self.level, other.level)
        return PerfElem(self.ctx, m, self.body_at_level(m) + other.body_at_level(m))

    def __neg__(self):
        return PerfElem(self.ctx, self.level, -self.body)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        m = max(self.level, other.level)
        return PerfElem(self.ctx, m, self.body_at_level(m) * other.body_at_level(m))

    def inverse(self):
        return PerfElem(self.ctx, self.level, self.body.inverse())

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return self.ctx.one()
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime, and of a monic one monic
        body = RatFunc(self.body.num ** n, self.body.den ** n, _normalized=True)
        return PerfElem(self.ctx, self.level, body)

    def frob(self, j: int) -> "PerfElem":
        """Apply the p^j-power map; j < 0 takes p-th roots.

        frob(frob(e, j), -j) == e always; roots exist because the ambient
        perfect closure is closed under them (subject to the level cap).

        The map keeps the body and moves the level.  The body of an
        element of level >= 1 is canonical: some exponent of it is prime
        to p.  That holds at every other level >= 1 as well, so the
        result needs no stripping, and a root only checks its level
        against the cap.  A body that lands at level 0 is canonical
        there by definition.  A level-0 body may have every exponent
        divisible by p (the p-th root of X^p is X), so a root of it goes
        through the stripping constructor.
        """
        if j == 0:
            return self
        ctx, level = self.ctx, self.level
        if j < 0:
            if level == 0:
                return PerfElem(ctx, -j, self.body)
            ctx.check_level(level - j)
            return PerfElem._of(ctx, level - j, self.body)
        if j >= level:
            # lands in k; remaining powers act on level-0 exponents
            body = self.body.scale_exponents(ctx.p ** (j - level))
            return PerfElem._of(ctx, 0, body)
        return PerfElem._of(ctx, level - j, self.body)

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return self.body.is_zero()

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PerfElem) and self.ctx == other.ctx
                and self.level == other.level and self.body == other.body)

    def __hash__(self):
        return hash((self.level, self.body))

    def render(self) -> str:
        """Expression-grammar text; parse(render(e)) reproduces e exactly."""
        from .exprs import render_element
        return render_element(self)

    def __repr__(self):
        return f"PerfElem({self.render()})"
