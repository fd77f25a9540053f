"""Subfield lattice operations: span, membership, compositum, intersection,
Frobenius images, truncations, linear disjointness, relative exponents."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pinsep import linalg, report, subfields
from pinsep.linalg import Echelon, nullspace, vec_add_scaled
from pinsep.perfect import Context
from pinsep.polynomials import RatFunc
from pinsep.subfields import (InternalInconsistency, Subfield, _log_p,
                              from_vector, to_vector, vec_mul)
from pinsep.towers import family

from conftest import (fields_equal, random_element, random_field,
                      random_fields, rank)


@pytest.fixture
def ctx():
    return Context(2, ("X", "Y", "Z"))


def roots(ctx, spec):
    """spec like [("X", 2), ("Y", 1)] -> [X^(1/4), Y^(1/2)]"""
    return [ctx.root_of_variable(v, j) for v, j in spec]


def section5_field(ctx):
    a1 = ctx.root_of_variable("X", 2)
    a2 = a1 * ctx.root_of_variable("Y", 1) + ctx.root_of_variable("Z", 1)
    return Subfield.span(ctx, (a1, a2))


# ----------------------------------------------------------------------
# span
# ----------------------------------------------------------------------


def test_span_of_nothing_is_k(ctx):
    k = Subfield.span(ctx, ())
    assert k.degree_log == 0
    assert k.member(ctx.one())


def test_span_tensor_example(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1), ("Y", 1)]))
    assert K.degree_log == 2   # degree 4


def test_span_section5_degree(ctx):
    # o-sequence (2, 1) forces degree p^3
    assert section5_field(ctx).degree_log == 3


def test_span_degree_is_power_of_p(ctx):
    rng = random.Random(received := 13)
    for _ in range(10):
        K = random_field(rng, p=2)
        if K is None:
            continue
        assert K.degree >= 1  # degree_log computed means power-of-p held


def test_span_brute_force_dimension_oracle(ctx):
    """Dimension of k(X^(1/2), Y^(1/2)) against an independent rank count."""
    gens = roots(ctx, [("X", 1), ("Y", 1)])
    K = Subfield.span(ctx, gens)
    # brute force: all products g1^a g2^b for a, b < p over the monomial
    # basis of A_1, rank over k
    vecs = []
    for a in range(2):
        for b in range(2):
            e = gens[0] ** a * gens[1] ** b
            vecs.append(to_vector(e, 1))
    assert rank(vecs) == 4
    assert K.degree_log == 2


# ----------------------------------------------------------------------
# member
# ----------------------------------------------------------------------


def test_member_trivials(ctx):
    K = section5_field(ctx)
    assert K.member(ctx.one())
    L = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert L.member(ctx.root_of_variable("X", 1))


def test_member_section5_negative(ctx):
    K = section5_field(ctx)
    assert not K.member(ctx.root_of_variable("Y", 1))
    assert not K.member(ctx.root_of_variable("Z", 1))


# ----------------------------------------------------------------------
# compositum / intersect / linear disjointness
# ----------------------------------------------------------------------


def test_compositum_with_base(ctx):
    K = section5_field(ctx)
    k = Subfield.span(ctx, ())
    assert fields_equal(K.compositum(k), K)


def test_compositum_disjoint_variables(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    L = Subfield.span(ctx, roots(ctx, [("Y", 1)]))
    assert K.compositum(L).degree_log == 2
    assert fields_equal(K.intersect(L), Subfield.span(ctx, ()))
    assert K.linearly_disjoint(L)


def test_compositum_nested(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    L = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    assert fields_equal(K.compositum(L), K)


def test_intersect_self(ctx):
    K = section5_field(ctx)
    assert fields_equal(K.intersect(K), K)


def test_linearly_disjoint_mixed(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    xy = ctx.root_of_variable("X", 1) * ctx.root_of_variable("Y", 1)
    L = Subfield.span(ctx, [xy])
    # intersection k, compositum degree 4: disjoint
    assert K.linearly_disjoint(L)
    assert fields_equal(K.intersect(L), Subfield.span(ctx, ()))
    assert K.compositum(L).degree_log == 2


def test_degree_multiplicativity_randomized():
    """[KL:k]*[K∩L:k] <= [K:k]*[L:k], equality iff linearly disjoint,
    with the compositum degree cross-checked by brute-force products."""
    rng = random.Random(99)
    done = 0
    while done < 12:
        K = random_field(rng, p=2)
        L = random_field(rng, p=2)
        if K is None or L is None or K.ctx != L.ctx:
            continue
        done += 1
        comp = K.compositum(L)
        inter = K.intersect(L)
        lhs = comp.degree_log + inter.degree_log
        rhs = K.degree_log + L.degree_log
        assert lhs <= rhs
        assert (lhs == rhs) == K.linearly_disjoint(L)
        # brute-force dimension of the compositum via pairwise products
        m = max(K.level, L.level)
        vecs = []
        for bk in K.basis_vectors(m):
            for bl in L.basis_vectors(m):
                vecs.append(vec_mul(K.ctx, m, bk, bl))
        assert rank(vecs) == comp.degree


@pytest.mark.parametrize("op", ["intersect", "compositum"])
def test_lattice_report_builds_each_lattice_field_once(op, monkeypatch):
    """The report's result and its disjointness verdict share one
    compositum span and one intersect_spans elimination."""
    fam = family("exe2", n=3)
    K, L = fam.stage(2), fam.stage(3)
    spans, eliminations = [], []
    real_span, real_intersect = Subfield.span.__func__, subfields.intersect_spans

    def span(cls, ctx, gens):
        spans.append(gens)
        return real_span(cls, ctx, gens)

    def intersect_spans(rows_a, rows_b):
        eliminations.append(rows_a)
        return real_intersect(rows_a, rows_b)

    monkeypatch.setattr(Subfield, "span", classmethod(span))
    monkeypatch.setattr(subfields, "intersect_spans", intersect_spans)
    report.lattice_report(op, K, L, ("exe2:2", "exe2:3"))
    assert len(spans) == 1 and len(eliminations) == 1


# ----------------------------------------------------------------------
# frobenius_image
# ----------------------------------------------------------------------


def test_frobenius_image_collapses_at_level(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert K.frobenius_image(2).degree_log == 0
    assert fields_equal(K.frobenius_image(1),
                        Subfield.span(ctx, roots(ctx, [("X", 1)])))


def test_frobenius_image_section5(ctx):
    K = section5_field(ctx)
    image = K.frobenius_image(1)
    assert fields_equal(image, Subfield.span(ctx, roots(ctx, [("X", 1)])))


def test_frobenius_image_composes(ctx):
    K = section5_field(ctx)
    a = K.frobenius_image(1).frobenius_image(1)
    b = K.frobenius_image(2)
    assert fields_equal(a, b)
    assert K.frobenius_image(2) is K.frobenius_image(2)


def test_frobenius_image_rejects_negative(ctx):
    with pytest.raises(ValueError):
        section5_field(ctx).frobenius_image(-1)


# ----------------------------------------------------------------------
# truncation
# ----------------------------------------------------------------------


def test_truncation_zero_is_base(ctx):
    K = section5_field(ctx)
    assert K.truncation(0).degree_log == 0


def test_truncation_chain_monotone(ctx):
    K = section5_field(ctx)
    prev = K.truncation(0)
    for n in range(1, 4):
        cur = K.truncation(n)
        assert cur.contains_field(prev)
        prev = cur
    assert fields_equal(K.truncation(K.level), K)


def test_truncation_tensor_degrees(ctx):
    # K = k(X^(1/8), Y^(1/8)): [k_n : k] = p^(2n)
    big = Context(2, ("X", "Y"))
    K = Subfield.span(big, [big.root_of_variable("X", 3),
                            big.root_of_variable("Y", 3)])
    for n in range(4):
        assert K.truncation(n).degree_log == 2 * n


def test_truncation_soundness_on_random_fields(small_corpus):
    """Every element of k_n lies in K and has exponent at most n, and
    the cut is exact at n = o_1 (equality with K)."""
    for K in small_corpus[:8]:
        for n in range(K.level + 1):
            t = K.truncation(n)
            for b in t.basis_elements():
                assert b.level <= n
                assert K.member(b)
        assert fields_equal(K.truncation(K.level), K)


def test_tower_law_on_truncations(ctx):
    K = section5_field(ctx)
    for n in range(K.level + 1):
        L = K.truncation(n)
        assert L.degree_log <= K.degree_log
        # [K:L] = degree ratio is a nonnegative power of p
        assert K.degree_log - L.degree_log >= 0


def truncation_by_nullspace(K, n):
    """Reference for k_n = K ∩ A_n, independent of K's pivots.

    One equation per column outside A_n asks a combination of all of K's
    basis rows to vanish there; linalg.nullspace solves the system, and
    the field is spanned afresh by the combinations it returns.
    """
    if n >= K.level:
        return K
    step = K.ctx.p ** (K.level - n)
    rows = K.basis_vectors()
    bad = sorted({e for r in rows for e in r if any(x % step for x in e)})
    eqs = [{i: r[e] for i, r in enumerate(rows) if e in r} for e in bad]
    elems = []
    for lam in nullspace(eqs, len(rows), K.ctx.p, K.ctx.nvars):
        v: dict = {}
        for i, c in lam.items():
            v = vec_add_scaled(v, rows[i], c)
        elems.append(from_vector(K.ctx, v, K.level))
    return Subfield.span(K.ctx, elems)


def check_truncations(K, renders=False):
    for n in range(1, K.level):
        got, ref = K.truncation(n), truncation_by_nullspace(K, n)
        assert got == ref, (K, n)
        if renders:
            gens = [g.render() for g in got.gens]
            assert gens == [b.render() for b in ref.basis_elements()], (K, n)
            assert gens == [b.render() for b in got.basis_elements()], (K, n)


def test_truncation_matches_nullspace_route(small_corpus):
    """k_n from the pivoted rows equals the equation-scan reference, and
    its generators are k_n's reduced basis in pivot order (exe2's k_2 is
    one where the rows of K pivoted inside A_2 are not that basis)."""
    stages = [family(name, n=3).stage(3) for name in ("exe1", "exe2", "exe4")]
    for K in small_corpus + stages:
        check_truncations(K, renders=True)


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_truncation_matches_nullspace_route_random(K):
    check_truncations(K)


def test_truncation_solves_no_nullspace(small_corpus, monkeypatch):
    calls = []
    real = linalg.nullspace

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "nullspace", counting)
    # and any binding of it imported by name into subfields
    monkeypatch.setattr(subfields, "nullspace", counting, raising=False)
    fam = family("exe1", n=3)
    assert all(fam.stage(3).truncation(n) == fam.stage(n) for n in range(3))
    for L in small_corpus[:8]:
        for n in range(L.level):
            L.truncation(n)
    assert calls == []


def test_truncation_inserts_pivoted_rows_once(monkeypatch):
    """k_1 of exe1 stage 3 costs one insert per row of K pivoted inside
    A_1 and one per row of k_1's basis, and nothing else."""
    K = family("exe1", n=3).stage(3)
    step = K.ctx.p ** (K.level - 1)
    inside = [e for e in K._echelon.rows if not any(x % step for x in e)]
    calls = []
    real = Echelon.insert

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(Echelon, "insert", counting)
    k1 = K.truncation(1)
    assert len(calls) == len(inside) + k1.degree
    assert len(inside) < K.degree


# ----------------------------------------------------------------------
# rel_exponent and lifted-base degrees
# ----------------------------------------------------------------------


def test_rel_exponent_examples(ctx):
    K = section5_field(ctx)
    a1 = ctx.root_of_variable("X", 2)
    assert K.rel_exponent(a1) == 0
    assert Subfield.span(ctx, ()).rel_exponent(ctx.root_of_variable("X", 3)) == 3
    L = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    assert L.rel_exponent(ctx.root_of_variable("X", 2)) == 1


def member_by_basis(K, e):
    """Membership read off K's basis, with no shortcut by level."""
    return e.level <= K.level and K._echelon.member(to_vector(e, K.level))


def rel_exponent_by_scan(K, a):
    """o(a/K) by testing a^(p^j) on K's basis for every j <= level(a)."""
    return next(j for j in range(a.level + 1)
                if member_by_basis(K, a.frob(j)))


def check_level_shortcuts(K, rng):
    """member and rel_exponent against the basis routes, on K's
    generators, their Frobenius powers down to k, elements of k and
    random elements of levels up to 2."""
    ctx = K.ctx
    probes = [ctx.zero(), ctx.one()]
    for g in K.gens:
        probes += [g.frob(j) for j in range(g.level + 1)]
    probes += [random_element(ctx, rng, max_level=0, max_terms=2)
               for _ in range(2)]
    probes += [random_element(ctx, rng, max_level=2, max_terms=2)
               for _ in range(4)]
    for e in probes:
        assert K.member(e) == member_by_basis(K, e), e
        assert K.rel_exponent(e) == rel_exponent_by_scan(K, e), e


def test_level_shortcuts_match_basis_routes(small_corpus):
    rng = random.Random(808)
    for K in small_corpus:
        check_level_shortcuts(K, rng)


@given(random_fields, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_level_shortcuts_match_basis_routes_random(K, rng):
    check_level_shortcuts(K, rng)


def test_level_zero_member_builds_no_basis(ctx):
    """An element of k is in every field; answering builds no basis."""
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 1)]))
    assert K.member(ctx.variable("X") * ctx.variable("Y") + ctx.one())
    assert K._basis is None
    k = Subfield.base(ctx)
    assert k.member(ctx.variable("Z")) and k._basis is None


def test_adjoin_follows_tower_law(small_corpus):
    """[K(e) : K] = p^o(e/K), against the rank of all products b*e^l.

    The degree is read before the basis of K(e) is built; the basis
    built afterwards has exactly that many rows.
    """
    rng = random.Random(7)
    checked = 0
    for K in small_corpus:
        if K.degree_log > 3:
            continue
        for _ in range(3):
            e = random_element(K.ctx, rng, max_level=2, max_terms=2)
            KE = K.adjoin(e)
            degree_log = KE.degree_log
            assert degree_log == K.degree_log + K.rel_exponent(e)
            m = max(K.level, e.level)
            gvec = to_vector(e, m)
            prods = []
            for b in K.basis_vectors(m):
                for _l in range(K.ctx.p ** e.level):
                    prods.append(b)
                    b = vec_mul(K.ctx, m, b, gvec)
            dim = rank(prods)
            assert K.ctx.p ** degree_log == dim
            assert len(KE.basis_vectors()) == dim
            assert all(KE.member(g) for g in K.gens) and KE.member(e)
            checked += 1
    assert checked >= 20


def adjoin_rows_from_scratch(F, e, r):
    """Reference build of F(e): every product b*e^l of F's basis with
    0 <= l < p^r, layer 0 included, inserted into a fresh echelon."""
    m = max(F.level, e.level)
    gvec = to_vector(e, m)
    ech = Echelon()
    layer = F.basis_vectors(m)
    for l in range(F.ctx.p ** r):
        if l:
            layer = [vec_mul(F.ctx, m, v, gvec) for v in layer]
        for v in layer:
            assert ech.insert(v)
    return ech.rows


def check_adjoin_from_reduced_rows(K):
    """For k, k(K^p) and every proper prefix k(g_1, ..., g_i) of K's
    generators, each of fresh spans F, and each generator e of K with
    o(e/F) >= 1: the rows of F(e), seeded with F's reduced rows, equal
    the reference build's, and F's own row dicts are the same objects
    with the same contents afterwards."""
    bases = [K.gens[:i] for i in range(len(K.gens))]
    bases.append(K.frobenius_image(1).gens)
    checked = 0
    for gens in bases:
        for e in K.gens:
            F = Subfield.span(K.ctx, gens)
            r = F.rel_exponent(e)
            if r == 0:
                continue
            before = {piv: (row, dict(row))
                      for piv, row in F._echelon.rows.items()}
            rows = F._adjoin_by(e, r)._echelon.rows
            assert (sorted(rows.items())
                    == sorted(adjoin_rows_from_scratch(F, e, r).items()))
            assert F._echelon.rows.keys() == before.keys()
            for piv, (row, copy) in before.items():
                assert F._echelon.rows[piv] is row and row == copy
            checked += 1
    return checked


def test_adjoin_from_reduced_rows_matches_full_build(small_corpus):
    assert sum(check_adjoin_from_reduced_rows(K) for K in small_corpus) >= 30


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_adjoin_from_reduced_rows_matches_full_build_random(K):
    check_adjoin_from_reduced_rows(K)


def test_adjoin_is_memoized(ctx):
    """K(e) is constructed once per field and element; r = 0 gives K."""
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    e = ctx.root_of_variable("Y", 1)
    assert K.adjoin(e) is K.adjoin(e)
    assert K.adjoin(ctx.root_of_variable("X", 1)) is K


def test_adjoin_checks_tower_law(ctx, monkeypatch):
    """An overstated o(e/K) makes a product fall in the span: building
    the basis of K(e) raises."""
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    e = ctx.root_of_variable("Y", 1)
    real = Subfield.rel_exponent
    monkeypatch.setattr(Subfield, "rel_exponent",
                        lambda self, a: real(self, a) + 1)
    with pytest.raises(InternalInconsistency, match="fell in the span"):
        K.adjoin(e).basis_vectors()


def test_degree_over_lifted_base(ctx):
    # K = k(X^(1/4)): [A_1(K) : A_1] = 2 (only X^(1/4) survives)
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert K.degree_log_over_lifted_base(1) == 1
    assert K.degree_log_over_lifted_base(2) == 0


def lifted_degree_log_by_rank(K, n):
    """Reference for log_p [A_n(K) : A_n], independent of Frobenius images.

    A_M is a free A_n-module on the t-monomials with exponents below
    p^(M-n); re-keying K's basis accordingly turns the degree into a rank
    over F_p(x^(1/p^n)) and never materializes A_n over k.
    """
    if n >= K.level:
        return 0
    p = K.ctx.p
    step = p ** (K.level - n)
    scale = p ** n
    ech = Echelon()
    for r in K.basis_vectors():
        v: dict = {}
        for e, c in r.items():
            rem = tuple(x % step for x in e)
            carry = tuple(x // step for x in e)
            coeff = c.scale_exponents(scale)
            if any(carry):
                coeff = coeff * RatFunc.monomial(p, K.ctx.nvars, carry)
            prev = v.get(rem)
            s = coeff if prev is None else prev + coeff
            if s.is_zero():
                v.pop(rem, None)
            else:
                v[rem] = s
        ech.insert(v)
    return _log_p(len(ech), p)


def test_degree_over_lifted_base_matches_rank(small_corpus):
    """[A_n(K) : A_n] through Frobenius equals the rank over A_n."""
    for K in small_corpus:
        for n in range(1, K.level + 1):
            assert (K.degree_log_over_lifted_base(n)
                    == lifted_degree_log_by_rank(K, n)), (K, n)


def test_perfect_lift_degree(ctx):
    small = Context(2, ("X", "Y"))
    K = Subfield.span(small, [small.root_of_variable("X", 1)])
    lifted = K.perfect_lift(1)
    # [K^(1/p) : k] = [K : k] * p^nu = 2 * 4 = 8
    assert lifted.degree_log == 3
    assert lifted.member(small.root_of_variable("X", 2))
    assert lifted.member(small.root_of_variable("Y", 1))


def test_spans_are_multiplicatively_closed(small_corpus):
    """Products of basis elements stay inside the span (field check)."""
    rng = random.Random(41)
    for K in small_corpus[:8]:
        elems = K.basis_elements()
        for _ in range(min(10, len(elems) ** 2)):
            a, b = rng.choice(elems), rng.choice(elems)
            assert K.member(a * b)
            if not a.is_zero():
                assert K.member(a.inverse())


def test_equality_and_repr(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    L = Subfield.span(ctx, [ctx.root_of_variable("X", 1) + ctx.one()])
    assert K == L
    assert "deg=p^1" in repr(K)
