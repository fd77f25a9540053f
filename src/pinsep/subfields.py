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
e, e^2, ....  Each field memoizes its adjunctions K(e), its Frobenius
images k(K^(p^j)), its compositum and intersection with each field L
and its greedy r-base, so each is built at most once.  A span adjoins in greedy order (largest relative exponent first),
so its one chain of fields yields, and keeps, the greedy r-base.

Questions that levels alone settle never build a basis: an element of
level 0 lies in k and so in every field, an element above a field's
level lies outside it, and o(a/K) is at most the level of a, since
a^(p^level(a)) lies in k.
"""

from __future__ import annotations

from .linalg import Echelon, intersect_spans
from .perfect import Context, PerfElem
from .polynomials import MultiPoly, RatFunc


class InternalInconsistency(AssertionError):
    """A structural invariant failed; indicates a bug, not bad input."""


# ----------------------------------------------------------------------
# Ambient vector embedding: PerfElem <-> sparse k-vector at a level.
# ----------------------------------------------------------------------


def to_vector(e: PerfElem, m: int) -> dict:
    """Coordinates of e over k in the t-monomial basis of A_m.

    Denominators are rationalized with den(t)^(p^m) = den read in x
    (exponent tuples unchanged), writing 1/den = den^(p^m - 1) / den_x;
    the power is assembled from Frobenius-scaled copies of den^(p-1), so
    it is a product of m small factors rather than a blind exponentiation.
    """
    ctx = e.ctx
    p = ctx.p
    q = p ** m
    body = e.body_at_level(m)
    num, den = body.num, body.den
    inv_den = None
    poly = num
    if not den.is_one():
        shift = p ** (m - e.level)
        block = e.body.den ** (p - 1)  # at the element's own minimal level
        for j in range(m):
            poly = poly * block.scale_exponents(shift * p ** j)
        # den(t)^(p^m): each t-term t^a maps to x^a, same term dict
        den_x = MultiPoly(p, ctx.nvars, dict(den.terms))
        inv_den = RatFunc.of_poly(den_x).inverse()
    vec: dict = {}
    for ex, c in poly.terms.items():
        carry = tuple(x // q for x in ex)
        rem = tuple(x % q for x in ex)
        coeff = RatFunc.monomial(p, ctx.nvars, carry, c)
        if inv_den is not None:
            coeff = coeff * inv_den
        prev = vec.get(rem)
        s = coeff if prev is None else prev + coeff
        if s.is_zero():
            vec.pop(rem, None)
        else:
            vec[rem] = s
    return vec


def from_vector(ctx: Context, vec: dict, m: int) -> PerfElem:
    """Inverse of to_vector: rebuild the element from level-m coordinates."""
    q = ctx.p ** m
    body = RatFunc.zero(ctx.p, ctx.nvars)
    for ex, c in sorted(vec.items()):
        mono = RatFunc.monomial(ctx.p, ctx.nvars, ex)
        body = body + c.scale_exponents(q) * mono
    return PerfElem(ctx, m, body)


def vec_mul(ctx: Context, m: int, a: dict, b: dict) -> dict:
    """Product of two level-m vectors; t-exponent overflow moves into k."""
    p = ctx.p
    q = p ** m
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            rem = tuple(x + y for x, y in zip(e, f))
            coeff = c * d
            if max(rem) >= q:
                carry = tuple(x // q for x in rem)
                rem = tuple(x % q for x in rem)
                coeff = coeff * RatFunc.monomial(p, ctx.nvars, carry)
            prev = out.get(rem)
            s = coeff if prev is None else prev + coeff
            if s.is_zero():
                out.pop(rem, None)
            else:
                out[rem] = s
    return out


def _lift_vec(vec: dict, factor: int) -> dict:
    """A level-m vector re-keyed at level m + j, with factor = p^j.

    With factor 1 the vector itself is returned, not a copy; echelon rows
    are never mutated once stored, so sharing them is safe."""
    if factor == 1:
        return vec
    return {tuple(x * factor for x in ex): c for ex, c in vec.items()}


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
            ech.insert({(0,) * ctx.nvars: RatFunc.one(ctx.p, ctx.nvars)})
            return ech

        return cls(ctx, 0, (), 0, build, _private=_TOKEN)

    @classmethod
    def span(cls, ctx: Context, gens) -> "Subfield":
        """k(g_1, ..., g_r), adjoining the generators in greedy order.

        Each round adjoins to the current field F a generator g of maximal
        o(g/F), the first by index.  o(g/F) only falls as F grows, so one
        with o(g/F) = 0 is dropped for good.  The rounds' pairs (g, o) are
        the result's greedy_rbase(); its gens stay the tuple given.
        """
        field, pairs = cls.base(ctx), []
        gens = remaining = tuple(gens)
        while remaining:
            scored = [(field.rel_exponent(g), g) for g in remaining]
            o, g = max(scored, key=lambda s: s[0])
            if not o:
                break
            pairs.append((g, o))
            field = field._adjoin_by(g, o)
            remaining = [h for r, h in scored if r and h is not g]
        out = cls(ctx, field.level, gens, field.degree_log,
                  lambda: field._echelon, _private=_TOKEN)
        out.memo("greedy_rbase", lambda: tuple(pairs))
        return out

    def adjoin(self, e: PerfElem) -> "Subfield":
        """K(e) by the tower law [K(e) : K] = p^r with r = o(e/K)."""
        return self._adjoin_by(e, self.rel_exponent(e))

    def greedy_rbase(self) -> tuple:
        """Pairs (g, o(g/F)) of the greedy r-base of K/k, in round order.
        A field that span did not make (a truncation, an intersection,
        K.adjoin(e)) spans its generators once and keeps that span's."""

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
        k-basis.  The build starts from K's reduced rows lifted to K(e)'s
        level (layer l = 0): scaling every exponent by the same power of
        p keeps lex order, so each row keeps its pivot and stays reduced.
        It then inserts only the layers 1 <= l < p^r and checks that each
        insert grows the span.  That check catches an r that is too large
        when the basis is built; an r that is too small goes undetected
        and yields a proper subspace of K(e), not a field.

        The result is memoized on K per e, so each field of a chain is
        constructed, and its basis built, once.
        """
        if r == 0:
            return self
        key = ("adjoin", e)
        if key in self._cache:
            return self._cache[key]
        ctx = self.ctx
        m = max(self.level, e.level)
        ctx.check_level(m)

        def build():
            factor = ctx.p ** (m - self.level)
            ech = Echelon()
            layer = []
            for piv, row in sorted(self._echelon.rows.items()):
                row = _lift_vec(row, factor)
                ech.rows[tuple(x * factor for x in piv)] = row
                layer.append(row)
            gvec = to_vector(e, m)
            for l in range(1, ctx.p ** r):
                layer = [vec_mul(ctx, m, v, gvec) for v in layer]
                for v in layer:
                    if not ech.insert(v):
                        raise InternalInconsistency(
                            f"adjoin: product by e^{l} fell in the span, "
                            f"against [K(e) : K] = {ctx.p}^{r}")
            return ech

        field = Subfield(ctx, m, self.gens + (e,), self.degree_log + r, build,
                         _private=_TOKEN)
        self._cache[key] = field
        return field

    @classmethod
    def _from_vectors(cls, ctx, level, vecs) -> "Subfield":
        """Internal: wrap level-`level` vectors known to span a field, at the
        least level that holds them all (no re-closing).  The generators
        are the rows of the field's reduced basis, in pivot order."""
        m = next(m for m in range(level + 1)
                 if not any(x % ctx.p ** (level - m)
                            for v in vecs for e in v for x in e))
        factor = ctx.p ** (level - m)
        ech = Echelon()
        for v in vecs:
            ech.insert({tuple(x // factor for x in e): c for e, c in v.items()})
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
        m = self.level if m is None else m
        if m < self.level:
            raise ValueError("cannot present the basis below the working level")
        factor = self.ctx.p ** (m - self.level)
        return [_lift_vec(r, factor) for r in self._echelon.basis_rows()]

    def basis_elements(self):
        return [from_vector(self.ctx, v, self.level)
                for v in self._echelon.basis_rows()]

    def member(self, e: PerfElem) -> bool:
        """Whether e lies in K.  Levels settle two cases without a basis:
        an element of level 0 lies in k, which K contains, and one above
        K's level lies outside K ⊆ A_level."""
        if e.ctx != self.ctx:
            raise ValueError("element from a different context")
        if e.level == 0:
            return True
        if e.level > self.level:
            return False
        return self._echelon.member(to_vector(e, self.level))

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
        """k(K^(p^j)), spanned by the p^j-th powers of the generators.

        Memoized per j: di, rp_chain and the disjointness test share it.
        """
        if j < 0:
            raise ValueError("frobenius_image takes j >= 0; "
                             "use perfect_lift for roots")
        if j == 0:
            return self
        return self.memo(("frobenius_image", j), lambda: Subfield.span(
            self.ctx, tuple(g.frob(j) for g in self.gens)))

    def perfect_lift(self, n: int) -> "Subfield":
        """K^(1/p^n) = k(x^(1/p^n), g^(1/p^n)); degree grows by p^(nu*n)."""
        roots = tuple(self.ctx.root_of_variable(v, n) for v in self.ctx.variables)
        return Subfield.span(self.ctx, roots + tuple(g.frob(-n) for g in self.gens))

    def truncation(self, n: int) -> "Subfield":
        """k_n = K ∩ A_n, read off the rows of K pivoted inside A_n.

        Each row of K's reduced basis is 1 at its own pivot and 0 at the
        other rows' pivots, so an element of K ∩ A_n, being 0 at every
        pivot outside A_n, is a combination of the rows pivoted inside
        A_n.  Those rows go into an echelon with the columns outside A_n
        tagged 0 and those inside tagged 1; the rows it pivots in block 1
        are a basis of k_n.
        """
        if n < 0:
            raise ValueError("truncation level must be nonnegative")
        if n >= self.level:
            return self
        step = self.ctx.p ** (self.level - n)

        def outside(e):
            return any(x % step for x in e)

        ech = Echelon()
        for piv, row in sorted(self._echelon.rows.items()):
            if not outside(piv):
                ech.insert({(0 if outside(e) else 1, e): c
                            for e, c in row.items()})
        field = Subfield._from_vectors(self.ctx, self.level, ech.block1_rows())
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
