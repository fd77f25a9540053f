"""Exact sparse multivariate polynomials and rational functions over F_p.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely across threads.

Polynomials are sparse term maps {exponent tuple: nonzero residue mod p}
with a graded-lexicographic term order used for all deterministic choices
(leading terms, rendering, pivoting).  Rational functions are kept in a
canonical form: gcd(num, den) = 1 and den monic in graded-lex, so equality
is structural.
"""

from __future__ import annotations

from itertools import chain
from operator import add, sub

SMALL_PRIMES = (2, 3, 5, 7)


class _ZeroExps(dict):
    """nvars -> (0,) * nvars, built on the first lookup of each count."""

    def __missing__(self, nvars):
        z = self[nvars] = (0,) * nvars
        return z


_ZERO_EXPS = _ZeroExps()
_CONSTS = {}        # (p, nvars, c) -> the one constant MultiPoly c


def grlex_key(exp: tuple) -> tuple:
    """Sort key for graded lexicographic order (total degree first)."""
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial over F_p.

    terms maps exponent tuples (length nvars, entries >= 0) to residues in
    [1, p).  Zero coefficients are never stored.
    """

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: int, nvars: int, terms=None):
        if p not in SMALL_PRIMES:
            raise ValueError(f"p must be one of {SMALL_PRIMES}, got {p}")
        self.p = p
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                c %= p
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent tuple of wrong length")
                    clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_clean(p, nvars, terms):
        """Wrap a term map that is already clean: residues in [1, p) and
        exponent tuples of length nvars.  The map is taken over, not
        copied, and nothing is checked."""
        out = MultiPoly.__new__(MultiPoly)
        out.p, out.nvars, out.terms = p, nvars, terms
        return out

    @classmethod
    def zero(cls, p, nvars):
        return cls.const(p, nvars, 0)

    @classmethod
    def const(cls, p, nvars, c):
        """The constant c; polynomials are immutable, so there is one
        object per (p, nvars, c), shared by every caller."""
        if p not in SMALL_PRIMES:
            raise ValueError(f"p must be one of {SMALL_PRIMES}, got {p}")
        c %= p
        key = (p, nvars, c)
        try:
            return _CONSTS[key]
        except KeyError:
            out = _CONSTS[key] = cls.from_clean(
                p, nvars, {_ZERO_EXPS[nvars]: c} if c else {})
            return out

    @classmethod
    def one(cls, p, nvars):
        return cls.const(p, nvars, 1)

    @classmethod
    def monomial(cls, p, nvars, exp, c=1):
        return cls(p, nvars, {tuple(exp): c % p})

    @classmethod
    def variable(cls, p, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls.monomial(p, nvars, tuple(exp))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        t = self.terms
        return not t or (len(t) == 1 and _ZERO_EXPS[self.nvars] in t)

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(_ZERO_EXPS[self.nvars]) == 1

    def is_monomial(self):
        return len(self.terms) == 1

    # -- term access -----------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=-1)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return used

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            s = (terms.get(e, 0) + c) % p
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly.from_clean(p, self.nvars, terms)

    def __neg__(self):
        p = self.p
        if p == 2:
            return self         # -1 = 1 in characteristic 2
        terms = {e: p - c for e, c in self.terms.items()}
        return MultiPoly.from_clean(p, self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p = self.p
        if not self.terms or not other.terms:
            return MultiPoly.zero(p, self.nvars)
        # multiply with the smaller factor outermost; a single term, the
        # smaller factor of most products during elimination, shifts the
        # other's terms apart, so nothing needs summing, and 1 returns it
        small, big = (self, other) if len(self.terms) <= len(other.terms) \
            else (other, self)
        a, b = small.terms, big.terms
        if len(a) == 1:
            (e, c), = a.items()
            if c == 1 and not any(e):
                return big
            if len(b) == 1:
                (f, d), = b.items()
                if d == 1 and not any(f):
                    return small
                return MultiPoly.from_clean(
                    p, self.nvars, {tuple(map(add, e, f)): c * d % p})
            return MultiPoly.from_clean(p, self.nvars, {
                tuple(map(add, e, f)): c * d % p for f, d in b.items()})
        acc: dict = {}
        for e, c in a.items():
            for f, d in b.items():
                g = tuple(map(add, e, f))
                s = (acc.get(g, 0) + c * d) % p
                if s:
                    acc[g] = s
                else:
                    acc.pop(g, None)
        return MultiPoly.from_clean(p, self.nvars, acc)

    def scale(self, c: int):
        """Multiply by the scalar c mod p."""
        c %= self.p
        if c == 0:
            return MultiPoly.zero(self.p, self.nvars)
        if c == 1:
            return self
        terms = {e: (v * c) % self.p for e, v in self.terms.items()}
        return MultiPoly.from_clean(self.p, self.nvars, terms)

    def mul_monomial(self, exp: tuple):
        terms = {tuple(map(add, e, exp)): v for e, v in self.terms.items()}
        return MultiPoly.from_clean(self.p, self.nvars, terms)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MultiPoly.one(self.p, self.nvars)
        # write n in base p and use f^(p^i) = f with exponents scaled by p^i,
        # which is exact in characteristic p over F_p
        result = None
        base = self
        digits = []
        m = n
        while m:
            digits.append(m % self.p)
            m //= self.p
        for i, d in enumerate(digits):
            if d == 0:
                continue
            block = base.scale_exponents(self.p ** i)
            piece = block
            for _ in range(d - 1):
                piece = piece * block
            result = piece if result is None else result * piece
        return result

    def scale_exponents(self, k: int):
        """Substitute x_i -> x_i^k; for k = p^j this equals the p^j-th power."""
        if k == 1:
            return self
        terms = {tuple([x * k for x in e]): c for e, c in self.terms.items()}
        return MultiPoly.from_clean(self.p, self.nvars, terms)

    def exponents_divisible(self, k: int) -> bool:
        return not any(map(k.__rmod__, chain.from_iterable(self.terms)))

    def divide_exponents(self, k: int):
        if not self.exponents_divisible(k):
            raise ValueError("exponents not divisible")
        terms = {tuple([x // k for x in e]): c for e, c in self.terms.items()}
        return MultiPoly.from_clean(self.p, self.nvars, terms)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.p == other.p
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"MultiPoly(p={self.p}, {self.sorted_terms()})"


class VariableCountMismatch(ValueError):
    pass


# ----------------------------------------------------------------------
# Division and gcd.
#
# Exact division and gcd by a single term c*x^a, the shape almost every
# call has during elimination, are answered directly: division shifts
# the exponents down by a and scales by 1/c (ArithmeticError if one would
# go negative), and gcd(h, c*x^a) = x^min(a, monomial content of h).
# Otherwise exact division runs the graded-lex division algorithm on a
# dict of the remaining terms, and raises at the first leading term that
# lt(g) does not divide: every multiple of g has a leading term that
# lt(g) divides.  The gcd is the classical recursive
# scheme: strip monomial content, take as the main variable the active
# one of least degree (the highest on ties), split into content and
# primitive part, and run the subresultant pseudo-remainder sequence on
# the primitive parts.  It divides each remainder by a factor known in
# advance (Brown and Traub 1971), where taking each remainder's content,
# one gcd per coefficient, ran for minutes on inputs of a few terms; both
# the sequence and the main-variable rule are needed for that.  The
# sequence ends at the first zero remainder, and its divisor is the gcd
# up to content; a remainder of degree 0 in the main variable means the
# primitive inputs are coprime.  This is the one route for every gcd
# without a single-term argument, univariate ones included: there the
# coefficients in the main variable are constants.  All choices are
# deterministic and results are normalized monic in graded-lex.
# RatFunc runs them once per fraction it makes, and not at all where
# the operands' canonical forms already settle the result.
# ----------------------------------------------------------------------


def mp_exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f / g, for a g that divides f; ArithmeticError if it does not."""
    f._check(g)
    p = f.p
    if len(g.terms) == 1:
        (a, c), = g.terms.items()
        inv = pow(c, p - 2, p)
        terms = {}
        for e, v in f.terms.items():
            q = tuple(map(sub, e, a))
            if min(q, default=0) < 0:
                raise ArithmeticError("division was expected to be exact")
            terms[q] = v * inv % p
        return MultiPoly.from_clean(p, f.nvars, terms)
    if not g.terms:
        raise ZeroDivisionError("polynomial division by zero")
    if g.terms == f.terms:  # a sum over equal denominators: den / den
        return MultiPoly.one(p, f.nvars)
    ge, gc = g.leading()
    inv = pow(gc, p - 2, p)
    tail = [(e, c) for e, c in g.terms.items() if e != ge]
    work = dict(f.terms)
    quot = {}
    while work:
        we = max(work, key=grlex_key)
        qe = tuple(map(sub, we, ge))
        if min(qe) < 0:
            raise ArithmeticError("division was expected to be exact")
        qc = work.pop(we) * inv % p
        quot[qe] = qc
        for e, c in tail:
            t = tuple(map(add, e, qe))
            s = (work.get(t, 0) - qc * c) % p
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return MultiPoly.from_clean(p, f.nvars, quot)


def _monomial_content(f: MultiPoly) -> tuple:
    terms = iter(f.terms)
    mins = next(terms, _ZERO_EXPS[f.nvars])
    for e in terms:
        mins = tuple(map(min, mins, e))
    return mins


def _shift_down(f: MultiPoly, mono: tuple) -> MultiPoly:
    terms = {tuple(map(sub, e, mono)): c for e, c in f.terms.items()}
    return MultiPoly.from_clean(f.p, f.nvars, terms)


def _to_univariate(f: MultiPoly, i: int):
    """Recursive dense view: list of MultiPoly coefficients in var i, low to high."""
    d = f.degree_in(i)
    coeffs = [dict() for _ in range(d + 1)]
    for e, c in f.terms.items():
        rest = list(e)
        k = rest[i]
        rest[i] = 0
        coeffs[k][tuple(rest)] = c
    return [MultiPoly(f.p, f.nvars, t) for t in coeffs]


def _from_univariate(coeffs, i: int, p: int, nvars: int) -> MultiPoly:
    terms = {}
    for k, poly in enumerate(coeffs):
        for e, c in poly.terms.items():
            f = list(e)
            f[i] += k
            terms[tuple(f)] = c
    return MultiPoly(p, nvars, terms)


def _uni_trim(u):
    while u and u[-1].is_zero():
        u.pop()
    return u


def _uni_prem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b, for dense univariate a and b
    over the polynomial ring with deg a >= deg b."""
    a = list(a)
    lc_b = b[-1]
    owed = len(a) - len(b) + 1      # factors lc(b) the remainder must carry
    while len(a) >= len(b) and a:
        lc_a = a[-1]
        shift = len(a) - len(b)
        a = [lc_b * c for c in a]
        for j, bc in enumerate(b):
            a[shift + j] = a[shift + j] - lc_a * bc
        _uni_trim(a)
        owed -= 1
    if owed and a:
        scale = lc_b ** owed
        a = [scale * c for c in a]
    return a


def mp_content(polys, g=None):
    """A gcd of g and the nonzero polys up to a unit, folded left to right
    from g (or the first nonzero entry) and stopped at 1; an entry or g
    comes back as given when no gcd runs, None when nothing is folded."""
    for c in polys:
        if c.is_zero():
            continue
        g = c if g is None else mp_gcd(g, c)
        if g.is_one():
            break
    return g


def _make_monic(f: MultiPoly) -> MultiPoly:
    if f.is_zero():
        return f
    _, c = f.leading()
    return f.scale(pow(c, f.p - 2, f.p))


def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd: direct for a single-term argument, else the subresultant
    PRS on the recursive dense form."""
    if f.p != g.p or f.nvars != g.nvars:
        raise ValueError("gcd of incompatible polynomials")
    if f.is_zero():
        return _make_monic(g)
    if g.is_zero():
        return _make_monic(f)
    if len(f.terms) == 1:
        f, g = g, f
    mono_f = _monomial_content(f)
    if len(g.terms) == 1:
        e, = g.terms
        common = tuple(map(min, mono_f, e))
        return MultiPoly.from_clean(f.p, f.nvars, {common: 1})
    mono_g = _monomial_content(g)
    common = tuple(map(min, mono_f, mono_g))
    f = _shift_down(f, mono_f)
    g = _shift_down(g, mono_g)
    core = _gcd_core(f, g)
    return _make_monic(core.mul_monomial(common))


def _gcd_core(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    p, nv = f.p, f.nvars
    if f.is_const() or g.is_const():
        return MultiPoly.one(p, nv)
    if f == g:
        return f
    i = min(f.variables_used() | g.variables_used(),
            key=lambda v: (max(f.degree_in(v), g.degree_in(v)), -v))
    uf = _to_univariate(f, i)
    ug = _to_univariate(g, i)
    cont_f = mp_content(uf)
    cont_g = mp_content(ug)
    pf = [mp_exact_div(c, cont_f) for c in uf]
    pg = [mp_exact_div(c, cont_g) for c in ug]
    cont = _gcd_core(cont_f, cont_g)
    prim = _prs(pf, pg, p, nv)
    prim_content = mp_content(prim)
    prim = [mp_exact_div(c, prim_content) for c in prim]
    return cont * _from_univariate(prim, i, p, nv)


def _prs(a, b, p, nv):
    """Subresultant pseudo-remainder sequence: the last nonzero term.

    Each pseudo-remainder is divided by g * h^delta, g the leading
    coefficient of the divisor before it and h the running subresultant
    factor, which divides every coefficient exactly (Brown and Traub
    1971); degrees strictly decrease, and the last nonzero term is the
    gcd of the primitive inputs up to content.
    """
    one = MultiPoly.one(p, nv)
    if len(a) < len(b):
        a, b = b, a
    g = h = one
    while True:
        delta = len(a) - len(b)
        r = _uni_prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [one]
        div = g * h ** delta
        a, b = b, [mp_exact_div(c, div) for c in r]
        g = a[-1]
        if delta:
            h = mp_exact_div(g ** delta, h ** (delta - 1))


# ----------------------------------------------------------------------
# Rational functions.
# ----------------------------------------------------------------------


class RatFunc:
    """Canonical fraction num/den of MultiPoly: reduced, den monic, den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _normalized:
            num, den = _rf_normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------

    @classmethod
    def of_poly(cls, num: MultiPoly):
        return cls(num, MultiPoly.one(num.p, num.nvars), _normalized=True)

    @classmethod
    def const(cls, p, nvars, c):
        return cls.of_poly(MultiPoly.const(p, nvars, c))

    @classmethod
    def zero(cls, p, nvars):
        return cls.of_poly(MultiPoly.zero(p, nvars))

    @classmethod
    def one(cls, p, nvars):
        return cls.of_poly(MultiPoly.one(p, nvars))

    # -- predicates ---------------------------------------------------

    @property
    def p(self):
        return self.num.p

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_const(self):
        return self.num.is_const() and self.den.is_one()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc.of_poly(self.num + other.num)
        # these sums come from element arithmetic (parsing, family
        # generators) and the tests' FractionEchelon reference, not from
        # elimination.  With g = gcd(den a, den b), da and db are coprime,
        # and a prime dividing da and num a * db + num b * da would divide
        # num a, against a being reduced; so only gcd(num, g) cancels.
        # Equal denominators are g = den (a zero sum comes out as 0/1),
        # coprime ones g = 1; den, from monic factors, stays monic
        g = mp_gcd(self.den, other.den)
        da = mp_exact_div(self.den, g)
        db = mp_exact_div(other.den, g)
        num = self.num * db + other.num * da
        h = mp_gcd(num, g)
        den = self.den * db
        if not h.is_one():
            num = mp_exact_div(num, h)
            den = mp_exact_div(den, h)
        return RatFunc(num, den, _normalized=True)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.p, self.nvars)
        if self.is_one():
            return other
        if other.is_one():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc.of_poly(self.num * other.num)
        # cross-cancel before multiplying to keep the factors small; the
        # quotients of the monic denominators stay monic, and so does b * d
        a, b = self.num, other.den
        g1 = mp_gcd(a, b)
        if not g1.is_one():
            a, b = mp_exact_div(a, g1), mp_exact_div(b, g1)
        c, d = other.num, self.den
        g2 = mp_gcd(c, d)
        if not g2.is_one():
            c, d = mp_exact_div(c, g2), mp_exact_div(d, g2)
        return RatFunc(a * c, b * d, _normalized=True)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # den/num is reduced already; only its denominator must be monic
        _, lc = self.num.leading()
        inv = pow(lc, self.p - 2, self.p)
        return RatFunc(self.den.scale(inv), self.num.scale(inv),
                       _normalized=True)

    def __truediv__(self, other):
        return self * other.inverse()

    def scale_exponents(self, k: int):
        """Substitute x_i -> x_i^k in num and den (Frobenius for k = p^j)."""
        return RatFunc(self.num.scale_exponents(k), self.den.scale_exponents(k),
                       _normalized=True)

    def exponents_divisible(self, k: int) -> bool:
        return self.num.exponents_divisible(k) and self.den.exponents_divisible(k)

    def divide_exponents(self, k: int):
        # for a reduced fraction, membership in F_p(x^k) with k a p-power is
        # exactly "all exponents of num and den divisible by k"; a common
        # factor h of the k-th roots would make h^k divide num and den,
        # and dividing exponents keeps the graded-lex leading term
        return RatFunc(self.num.divide_exponents(k), self.den.divide_exponents(k),
                       _normalized=True)

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return (f"RatFunc(p={self.p}, num={self.num.sorted_terms()}, "
                f"den={self.den.sorted_terms()})")


def _rf_normalize(num: MultiPoly, den: MultiPoly):
    if num.is_zero():
        return num, MultiPoly.one(num.p, num.nvars)
    if not den.is_const():
        g = mp_gcd(num, den)
        if not g.is_one():
            num = mp_exact_div(num, g)
            den = mp_exact_div(den, g)
    _, lc = den.leading()
    if lc != 1:
        inv = pow(lc, num.p - 2, num.p)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den
