"""Finitely generated purely inseparable subextensions K/k of an ambient level.

A Subfield is stored as a canonical reduced-echelon k-basis of sparse
vectors keyed by fractional monomials of its working level m: an element
of A_m = F_p(x^(1/p^m)) is uniquely a k-combination of the t-monomials
t^e with e in [0, p^m)^nu, where t_i = x_i^(1/p^m).  The full ambient
monomial basis is never materialized; only the monomials that actually
appear in a field's basis are touched.  The working level of a field is
the maximum level of its generators, which for canonical generators is
exactly o_1(K/k).

Construction follows the tower law: adjoining e to K multiplies the degree
by p^o(e/K), and the products of K's basis with 1, e, ..., e^(p^o - 1)
are a k-basis of K(e), so every Subfield is an honest field.  A field's
degree is known from the tower law as soon as it is constructed; its
basis, the base field's one row included, is built on first use, checked
to have exactly that dimension, and never changes afterwards.  K(e)'s
build starts from K's reduced rows and inserts only the products with
e, e^2, ..., each as it is made, so it holds its basis and at most one
layer of products.  A chain's fields hold only their parents.  Each
field memoizes its Frobenius images k(K^(p^j)), its compositum and
intersection with each field L and its greedy r-base, an RBase.  A span
adjoins in greedy order (largest relative exponent first), and is the
last field of that one chain, which keeps the greedy r-base.

Frobenius images follow Pickert's theorem (G. Pickert, "Inseparable
Körpererweiterungen", Math. Z. 52, 1950): if (g_1, o_1), ..., (g_r, o_r)
is a greedy r-base of K/k, the g_i^(p^j) with o_i > j, in that order,
are a greedy r-base of k(K^(p^j))/k with exponents o_i - j.  So
k(K^(p^j)) is the chain adjoining them with those exponents, its degree
is known at once, and nothing is spanned or scored to make it.

Questions that levels alone settle never build a basis: an element of
level 0 lies in k and so in every field, an element above a field's
level lies outside it, and o(a/K) is at most the level of a, since
a^(p^level(a)) lies in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .linalg import Echelon, intersect_spans, kernel
from .perfect import Context, PerfElem
from .polynomials import MultiPoly, RatFunc


class InternalInconsistency(AssertionError):
    """A structural invariant failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class RBase:
    """An r-base of K/k.  The greedy r-base a field keeps carries its
    exponents, the invariants o_1(K/k) >= o_2(K/k) >= ... of K/k."""

    elements: tuple
    exponents: tuple = None

    def __len__(self):
        return len(self.elements)


# ----------------------------------------------------------------------
# Ambient vector embedding: PerfElem <-> sparse k-vector at a level.
# ----------------------------------------------------------------------


def to_vector(e: PerfElem, m: int, support=None) -> dict:
    """The coordinates of d*e over k in the t-monomial basis of A_m, where
    d is e's own denominator read in x, the same at every m >= e.level;
    the vector stands for e's line.

    At e's own level L, with q = p^L, e = num(t)/den(t) =
    num(t) den(t)^(q-1) / den(t)^q, and den(t)^q is den read in x: the
    same exponent tuples, so the same MultiPoly, and that is d.
    den^(q-1) is the product of the L Frobenius-scaled copies of
    den^(p-1).  A term c t^a of num den^(q-1) is c x^(a // q) t^(a % q),
    so the terms grouped by a % q give one polynomial in x per
    coordinate, with no gcd.  Two terms with the same a % q differ in
    a // q, so nothing cancels: every term's key is a key of the vector.
    The level-L monomial t^b is the level-m monomial with exponents
    b * p^(m - L), so the keys at level m are those at level L times
    that factor.

    Given a set of keys `support`, the result is None as soon as one
    term's key lies outside it, before any coordinate is built: by the
    above, the vector then has a nonzero entry there.
    """
    ctx = e.ctx
    p = ctx.p
    if m < e.level:
        raise ValueError("cannot lower the level of a canonical element")
    q = p ** e.level
    f = p ** (m - e.level)
    poly, den = e.body.num, e.body.den
    if not den.is_one():
        block = den ** (p - 1)
        for j in range(e.level):
            poly = poly * block.scale_exponents(p ** j)
    coords: dict = {}
    for ex, c in poly.terms.items():
        key = tuple([x % q * f for x in ex])
        if support is not None and key not in support:
            return None
        coords.setdefault(key, {})[tuple([x // q for x in ex])] = c
    nvars = ctx.nvars
    return {key: MultiPoly.from_clean(p, nvars, terms)
            for key, terms in coords.items()}


def from_vector(ctx: Context, vec: dict, m: int) -> PerfElem:
    """The element whose level-m coordinates are vec's value: each entry
    over the entry at vec's smallest key, so a canonical row gives the
    element 1 at its pivot.

    Reading x as t^q puts each entry's terms at exponents that are
    multiples of q, so adding the coordinate's t-exponent, below q, keeps
    the coordinates' terms apart: the body is their union over the
    smallest key's entry read at t^q, reduced once."""
    p = ctx.p
    q = p ** m
    terms = {}
    for ex, c in vec.items():
        for f, a in c.terms.items():
            terms[tuple([x * q + y for x, y in zip(f, ex)])] = a
    body = RatFunc(MultiPoly.from_clean(p, ctx.nvars, terms),
                   vec[min(vec)].scale_exponents(q))
    return PerfElem(ctx, m, body)


def vec_mul(ctx: Context, m: int, a: dict, b: dict) -> dict:
    """Product of two level-m vectors; t-exponent overflow moves into k
    as a monomial factor of the entry.  Nothing is reduced."""
    q = ctx.p ** m
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            rem = tuple(map(add, e, f))
            coeff = c * d
            if max(rem) >= q:
                coeff = coeff.mul_monomial(tuple([x // q for x in rem]))
                rem = tuple([x % q for x in rem])
            prev = out.get(rem)
            if prev is None:
                out[rem] = coeff
            else:
                s = prev + coeff
                if s.terms:
                    out[rem] = s
                else:
                    del out[rem]
    return out


def _log_p(n: int, p: int) -> int:
    log = 0
    while n > 1:
        if n % p:
            raise InternalInconsistency(f"dimension {n} is not a power of {p}")
        n //= p
        log += 1
    return log


class Subfield:
    """A finitely generated purely inseparable extension K/k, with basis."""

    def __init__(self, ctx, level, gens, degree_log, build, *, _private=None):
        if _private is not _TOKEN:
            raise TypeError("use Subfield.span or the derived operations")
        self.ctx = ctx
        self.level = level
        self.gens = tuple(gens)
        self.degree_log = degree_log
        self._build = build         # () -> Echelon; dropped once run
        self._basis = None
        self._cache = {}

    @property
    def _echelon(self) -> Echelon:
        """The reduced k-basis, built on first access and then kept."""
        if self._basis is None:
            ech = self._build()
            if len(ech) != self.degree:
                raise InternalInconsistency(
                    f"built a basis of {len(ech)} rows for a field of "
                    f"degree {self.ctx.p}^{self.degree_log}")
            self._basis, self._build = ech, None
        return self._basis

    # -- constructors ------------------------------------------------

    @classmethod
    def base(cls, ctx: Context) -> "Subfield":
        """k itself; its one-row basis {1} is built on first use."""

        def build():
            ech = Echelon()
            ech.insert({(0,) * ctx.nvars: MultiPoly.one(ctx.p, ctx.nvars)})
            return ech

        return cls(ctx, 0, (), 0, build, _private=_TOKEN)

    @classmethod
    def span(cls, ctx: Context, gens) -> "Subfield":
        """k(g_1, ..., g_r), adjoining the generators in greedy order.

        Each round adjoins to the current field F a generator g of maximal
        o(g/F), the first by index.  o(g/F) only falls as F grows, so one
        with o(g/F) = 0 is dropped for good.  The rounds' generators and
        exponents are the result's greedy_rbase(), whose exponents are
        checked here to be non-increasing; its gens are the tuple given.
        It is the chain's last field, which nothing else holds yet.
        """
        field, elements, exponents = cls.base(ctx), [], []
        gens = remaining = tuple(gens)
        while remaining:
            scored = [(field.rel_exponent(g), g) for g in remaining]
            o, g = max(scored, key=lambda s: s[0])
            if not o:
                break
            elements.append(g)
            exponents.append(o)
            field = field._adjoin_by(g, o)
            remaining = [h for r, h in scored if r and h is not g]
        if any(a < b for a, b in zip(exponents, exponents[1:])):
            raise InternalInconsistency("canonical exponent list increased")
        field.gens = gens
        field.memo("greedy_rbase",
                   lambda: RBase(tuple(elements), tuple(exponents)))
        return field

    def adjoin(self, e: PerfElem) -> "Subfield":
        """K(e) by the tower law [K(e) : K] = p^r with r = o(e/K)."""
        return self._adjoin_by(e, self.rel_exponent(e))

    def greedy_rbase(self) -> RBase:
        """The one r-base kept on K: the greedy rounds' generators and
        exponents.  A span and a Frobenius image carry theirs; any other
        field (a truncation, an intersection, K.adjoin(e)) spans its
        generators once and keeps that span's."""

        def respan():
            field = Subfield.span(self.ctx, self.gens)
            if field.degree_log != self.degree_log:
                raise InternalInconsistency(
                    "K and the span of its generators differ in degree")
            return field.greedy_rbase()

        return self.memo("greedy_rbase", respan)

    def _adjoin_by(self, e: PerfElem, r: int) -> "Subfield":
        """K(e) for a caller that already knows r = o(e/K).

        The caller must pass exactly o(e/K), computed on this same field.
        The degree of K(e) is then [K : k] * p^r; the basis is built when
        it is first needed.  1, e, ..., e^(p^r - 1) is a K-basis of K(e),
        so the products b*e^l of the K-basis b with 0 <= l < p^r form a
        k-basis.  The build seeds its echelon with K's basis_vectors at
        K(e)'s level (layer l = 0), keyed by their pivots, as they stay
        reduced there.  Layer l + 1 is the rows `insert` returned for
        layer l times e, each inserted as it is made and checked to grow
        the span.
        The row returned for b*e^l is a nonzero k-multiple of b*e^l minus
        a vector of the span before it, so times e it is one of b*e^(l+1)
        minus a vector of the span before b's next insert: each insert
        grows the span exactly when the raw product would.  The row is
        used as returned, since a later clear may replace the row stored
        at its pivot with one mixing in later products.  It is kept only
        while e^(l+1) needs it, so a build holds its echelon and at most
        one layer.  The insert check catches an r that is too large; an r
        that is too small goes undetected and yields a proper subspace of
        K(e), not a field.

        Each call makes a new field.  It holds K, its parent, until its
        basis is built; K holds nothing of it.
        """
        if r == 0:
            return self
        ctx = self.ctx
        m = max(self.level, e.level)
        ctx.check_level(m)

        def build():
            layer = self.basis_vectors(m)
            ech = Echelon.from_reduced({min(v): v for v in layer})
            gvec = to_vector(e, m)
            last = ctx.p ** r - 1
            for l in range(1, last + 1):
                for i, v in enumerate(layer):
                    row = ech.insert(vec_mul(ctx, m, v, gvec))
                    if row is None:
                        raise InternalInconsistency(
                            f"adjoin: product by e^{l} fell in the span, "
                            f"against [K(e) : K] = {ctx.p}^{r}")
                    layer[i] = row if l < last else None
            return ech

        return Subfield(ctx, m, self.gens + (e,), self.degree_log + r, build,
                        _private=_TOKEN)

    @classmethod
    def _from_vectors(cls, ctx, level, vecs) -> "Subfield":
        """Internal: wrap the canonical reduced basis `vecs` of a field, at
        level `level`, at the least level that holds them all.  Dividing
        every key by the same power of p keeps lex order, so each row
        keeps its pivot and the rescaled rows seed the echelon as they are,
        with no insert.  The generators are the rows, in pivot order."""
        exps = [x for v in vecs for e in v for x in e]
        m = next(m for m in range(level + 1)
                 if not any(map((ctx.p ** (level - m)).__rmod__, exps)))
        factor = ctx.p ** (level - m)
        rows = [v if factor == 1 else
                {tuple([x // factor for x in e]): c for e, c in v.items()}
                for v in vecs]
        ech = Echelon.from_reduced({min(v): v for v in rows})
        gens = tuple(from_vector(ctx, r, m) for r in ech.basis_rows())
        return cls(ctx, m, gens, _log_p(len(ech), ctx.p), lambda: ech,
                   _private=_TOKEN)

    # -- basic queries ------------------------------------------------

    def memo(self, key, compute):
        """compute(), called on the first request for `key` and then kept
        on K.  Values derived from K alone live here, so they are built
        once per field and live as long as it does."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def degree(self) -> int:
        return self.ctx.p ** self.degree_log

    def basis_vectors(self, m=None):
        """K's reduced basis rows in pivot order at level m (K's own by
        default): the one upward re-keying of a stored basis.  Scaling
        every exponent by one power of p keeps lex order, so each row keeps
        its pivot and the rows stay reduced and canonical.  At K's level
        the stored rows come back themselves, as they are never mutated."""
        m = self.level if m is None else m
        if m < self.level:
            raise ValueError("cannot present the basis below the working level")
        rows = self._echelon.basis_rows()
        if m == self.level:
            return rows
        factor = self.ctx.p ** (m - self.level)
        return [{tuple([x * factor for x in ex]): c for ex, c in r.items()}
                for r in rows]

    def basis_elements(self):
        return [from_vector(self.ctx, v, self.level)
                for v in self._echelon.basis_rows()]

    def member(self, e: PerfElem) -> bool:
        """Whether e lies in K.  Levels settle two cases without a basis:
        an element of level 0 lies in k, which K contains, and one above
        K's level lies outside K ⊆ A_level.  Otherwise an element with a
        coordinate outside the support of K's span is not in K, with no
        elimination: every vector of the span is zero there.  to_vector
        stops at the first term keyed outside the support, before any
        coordinate polynomial is built.  The rest are decided by reducing
        against K's basis."""
        if e.ctx is not self.ctx and e.ctx != self.ctx:
            raise ValueError("element from a different context")
        if e.level == 0:
            return True
        if e.level > self.level:
            return False
        ech = self._echelon
        v = to_vector(e, self.level, ech.support)
        return v is not None and ech.member(v)

    def contains_field(self, other: "Subfield") -> bool:
        if other.degree_log > self.degree_log:
            return False
        return all(self.member(g) for g in other.gens)

    def __eq__(self, other):
        if not isinstance(other, Subfield) or self.ctx != other.ctx:
            return NotImplemented
        return (self.degree_log == other.degree_log
                and self.contains_field(other))

    def __repr__(self):
        names = ", ".join(g.render() for g in self.gens) or "-"
        return f"Subfield(deg=p^{self.degree_log}, gens=[{names}])"

    # -- lattice operations ------------------------------------------------

    def compositum(self, other: "Subfield") -> "Subfield":
        """KL, memoized on K per generators of L."""
        self._check(other)
        return self.memo(("compositum", other.gens), lambda: Subfield.span(
            self.ctx, self.gens + other.gens))

    def intersect(self, other: "Subfield") -> "Subfield":
        """K ∩ L, memoized on K per generators of L."""
        self._check(other)

        def build():
            m = max(self.level, other.level)
            vecs = intersect_spans(self.basis_vectors(m),
                                   other.basis_vectors(m))
            if not vecs:
                raise InternalInconsistency("field intersection lost the unit")
            return Subfield._from_vectors(self.ctx, m, vecs)

        return self.memo(("intersect", other.gens), build)

    def frobenius_image(self, j: int) -> "Subfield":
        """k(K^(p^j)), read off the greedy r-base of K/k by Pickert's
        theorem (module docstring): the chain adjoining g^(p^j) with
        exponent o - j for each pair (g, o) with o > j, a prefix of K's
        non-increasing exponents.  Those g^(p^j) are its generators, and
        with the o - j its greedy r-base; its degree,
        p^(sum of max(o - j, 0)), comes from the tower law, and no basis
        is built until one is needed, when the insert check of each
        adjunction runs.  The span of the p^j-th powers of all generators
        is the tests' reference route (tests/conftest.py), and the oracle
        checks each image's degree against the rank of the p^j-th powers
        of K's basis.

        Memoized per j: di, rp_chain and the disjointness test share it.
        """
        if j < 0:
            raise ValueError(f"frobenius_image takes j >= 0, got {j}")
        if j == 0:
            return self

        def build():
            rbase = self.greedy_rbase()
            r = sum(o > j for o in rbase.exponents)
            image = RBase(tuple(g.frob(j) for g in rbase.elements[:r]),
                          tuple(o - j for o in rbase.exponents[:r]))
            field = Subfield.base(self.ctx)
            for g, o in zip(image.elements, image.exponents):
                field = field._adjoin_by(g, o)
            field.memo("greedy_rbase", lambda: image)
            return field

        return self.memo(("frobenius_image", j), build)

    def truncation(self, n: int) -> "Subfield":
        """k_n = K ∩ A_n, read off the rows of K pivoted inside A_n.

        Each row of K's reduced basis is 1 at its own pivot and 0 at the
        other rows' pivots, so an element of K ∩ A_n, being 0 at every
        pivot outside A_n, is a combination of the rows pivoted inside
        A_n.  k_n is the kernel of the pairs (part outside A_n, part
        inside A_n) of those rows.
        """
        if n < 0:
            raise ValueError("truncation level must be nonnegative")
        if n >= self.level:
            return self
        off = (self.ctx.p ** (self.level - n)).__rmod__

        def split(row):
            parts = {}, {}
            for e, c in row.items():
                parts[not any(map(off, e))][e] = c
            return parts

        rows = sorted(self._echelon.rows.items())
        vecs = kernel(split(row) for piv, row in rows
                      if not any(map(off, piv)))
        field = Subfield._from_vectors(self.ctx, self.level, vecs)
        if field.level > n:
            raise InternalInconsistency("truncation left elements above the cut")
        return field

    def linearly_disjoint(self, other: "Subfield") -> bool:
        """Linear disjointness over the intersection, by degree counting:
        [KL : k] * [K ∩ L : k] = [K : k] * [L : k].

        Disjointness over k itself is this plus K ∩ L = k (equivalently
        [KL : k] = [K : k] * [L : k] on the nose).
        """
        self._check(other)
        comp = self.compositum(other)
        inter = self.intersect(other)
        return (comp.degree_log + inter.degree_log
                == self.degree_log + other.degree_log)

    def rel_exponent(self, a: PerfElem) -> int:
        """o(a/K): least j with a^(p^j) in K.

        a^(p^level(a)) lies in k and so in K, so only j < level(a) is
        tested; when none of them gives a member, o(a/K) = level(a).
        """
        for j in range(a.level):
            if self.member(a.frob(j)):
                return j
        return a.level

    def degree_log_over_lifted_base(self, n: int) -> int:
        """log_p [A_n(K) : A_n] with A_n = k^(1/p^n), read as [k(K^(p^n)) : k].

        The n-th power of Frobenius maps A_n onto k and A_n(K) onto
        k(K^(p^n)), and an isomorphism preserves degrees.
        """
        return self.frobenius_image(n).degree_log

    def _check(self, other: "Subfield"):
        if self.ctx != other.ctx:
            raise ValueError("fields from different contexts")


_TOKEN = object()
