"""Subfield lattice operations: span, membership, compositum, intersection,
Frobenius images, truncations, linear disjointness, relative exponents."""

import gc
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pinsep import invariants, linalg, report, subfields
from pinsep.linalg import Echelon, InconsistentSystem, nullspace, solve
from pinsep.perfect import Context, PerfElem
from pinsep.polynomials import MultiPoly, RatFunc
from pinsep.subfields import (InternalInconsistency, RBase, Subfield, _log_p,
                              from_vector, to_vector, vec_mul)
from pinsep.towers import family

from conftest import (FractionEchelon, family_stages, fields_equal,
                      fractions, frobenius_image_by_span, greedy_rbase_by_span,
                      greedy_rbase_over, perfect_lift, quotients,
                      random_element, random_field, random_fields, rank,
                      truncation_by_kernel, vec_add_scaled,
                      vec_mul_by_products, vector)


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
# vector embedding
# ----------------------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40, deadline=None)
def test_to_vector_of_quotients(p, data):
    """On elements with a denominator, the coordinates are keyed below
    q = p^m, with no zero entry, and they are those of d*e, d the
    element's own denominator read in x at every level: from_vector,
    which reads a vector over its entry at the smallest key, gives
    d*e/vec[min] at the element's own level and two levels above it,
    and the vector at level m is the one at the element's level with
    its keys times p^(m - level).  Zero has no coordinates."""
    ctx = Context(p, ("X", "Y"))
    e = data.draw(quotients(ctx))
    own = to_vector(e, e.level)
    for m in range(e.level, e.level + 3):
        vec = to_vector(e, m)
        if e.is_zero():
            assert vec == {}
            continue
        assert all(x < p ** m for key in vec for x in key)
        assert all(not c.is_zero() for c in vec.values())
        scale = RatFunc(e.body.den, vec[min(vec)])
        assert from_vector(ctx, vec, m) == e * PerfElem(ctx, 0, scale)
        f = p ** (m - e.level)
        assert vec == {tuple(x * f for x in key): c
                       for key, c in own.items()}


@given(random_fields, st.data())
@settings(max_examples=20, deadline=None)
def test_to_vector_given_a_support_stops_exactly_off_it(K, data):
    """to_vector(e, m, support) is None exactly when some key of
    to_vector(e, m) lies outside support, and is that vector otherwise.
    Elements: quotients with multi-term denominators among them, a
    basis element of K and a generator; supports: K's own, the vector's
    keys with and without its smallest one, none, and a random subset
    of the keys joined with K's."""
    ctx = K.ctx
    elements = [data.draw(quotients(ctx)), data.draw(quotients(ctx)),
                data.draw(st.sampled_from(K.basis_elements())),
                data.draw(st.sampled_from(K.gens))]
    for e in elements:
        m = max(K.level, e.level)
        full = to_vector(e, m)
        keys = sorted(full)
        subset = set(data.draw(st.lists(st.sampled_from(keys), unique=True))
                     if keys else ())
        supports = [K._echelon.support, set(keys), set(keys[1:]), set(),
                    subset | K._echelon.support]
        for support in supports:
            got = to_vector(e, m, support)
            if full.keys() <= support:
                assert got == full
            else:
                assert got is None


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=30, deadline=None)
def test_vec_mul_of_quotients_is_vector_of_product(p, data):
    ctx = Context(p, ("X", "Y"))
    a = data.draw(quotients(ctx))
    b = data.draw(quotients(ctx))
    low = max(a.level, b.level)
    for m in range(low, low + 2):
        assert fractions(vec_mul(ctx, m, to_vector(a, m), to_vector(b, m))) \
            == fractions(to_vector(a * b, m))


def entry_terms(v):
    """A vector's entries as plain term dicts, to see that none changed."""
    return {k: dict(c.terms) for k, c in v.items()}


def check_vec_mul_against_products(ctx, m, a, b):
    """vec_mul equals the entry-by-entry product route and leaves both
    operands, their entries included, as they were."""
    before = entry_terms(a), entry_terms(b), dict(a), dict(b)
    assert vec_mul(ctx, m, a, b) == vec_mul_by_products(ctx, m, a, b)
    after = entry_terms(a), entry_terms(b)
    assert after == before[:2]
    assert all(a[k] is c for k, c in before[2].items())
    assert all(b[k] is c for k, c in before[3].items())


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=30, deadline=None)
def test_vec_mul_with_unit_entries_matches_products(p, data):
    """An entry 1 on either side, or on both, at a drawn key: the product
    vec_mul takes as the other entry itself matches the product formed
    by MultiPoly.__mul__."""
    ctx = Context(p, ("X", "Y"))
    one = MultiPoly.one(p, ctx.nvars)
    a = data.draw(quotients(ctx))
    b = data.draw(quotients(ctx))
    m = max(a.level, b.level, 1)
    keys = st.tuples(*[st.integers(0, p ** m - 1)] * ctx.nvars)
    va, vb = to_vector(a, m), to_vector(b, m)
    unit_a = {**va, data.draw(keys): one}
    unit_b = {**vb, data.draw(keys): one}
    for x, y in [(unit_a, vb), (va, unit_b), (unit_a, unit_b),
                 ({(0,) * ctx.nvars: one}, vb)]:
        check_vec_mul_against_products(ctx, m, x, y)
        check_vec_mul_against_products(ctx, m, y, x)


@pytest.mark.parametrize("name,n", [("exe1", 3), ("exe2", 3), ("exe4", 3),
                                    ("exe6", 2), ("modular_diag", 3)])
def test_vec_mul_of_canonical_rows_matches_products(name, n):
    """The products an adjunction makes: K's canonical rows, each 1 at
    its pivot, times the vector of each generator of K; and each row
    times the next, where both sides hold a 1."""
    K = family(name).stage(n)
    rows = K.basis_vectors()
    assert any(row[min(row)].is_one() for row in rows)
    for g in K.gens:
        gvec = to_vector(g, K.level)
        for row in rows:
            check_vec_mul_against_products(K.ctx, K.level, row, gvec)
    for row, nxt in zip(rows, rows[1:]):
        check_vec_mul_against_products(K.ctx, K.level, row, nxt)


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


def test_refusals_across_contexts_and_levels(ctx):
    """An element or a field of another context is refused, and so is a
    basis below K's level."""
    K = section5_field(ctx)
    other = Context(2, ("X", "Y", "W"))
    with pytest.raises(ValueError, match="element from a different context"):
        K.member(other.root_of_variable("X", 1))
    L = Subfield.span(other, [other.root_of_variable("X", 1)])
    for op in (K.intersect, K.compositum, K.linearly_disjoint):
        with pytest.raises(ValueError, match="fields from different contexts"):
            op(L)
    with pytest.raises(ValueError, match="below the working level"):
        K.basis_vectors(K.level - 1)


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
    rows = [fractions(r) for r in K.basis_vectors()]
    bad = sorted({e for r in rows for e in r if any(x % step for x in e)})
    eqs = [vector({i: r[e] for i, r in enumerate(rows) if e in r})
           for e in bad]
    elems = []
    for lam in nullspace(eqs, len(rows), K.ctx.p, K.ctx.nvars):
        v: dict = {}
        for i, c in fractions(lam).items():
            v = vec_add_scaled(v, rows[i], c)
        elems.append(from_vector(K.ctx, vector(v), K.level))
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
    A_1 that crosses A_1, 11 of the 13, and nothing else: a row wholly
    inside A_1 is a row of k_1 as it is, and the rows pivoted in block 1
    of the kernel are already k_1's reduced basis and seed its echelon
    as they are."""
    K = family("exe1", n=3).stage(3)
    step = K.ctx.p ** (K.level - 1)
    off = lambda e: any(x % step for x in e)
    inside = [row for piv, row in K._echelon.rows.items() if not off(piv)]
    crossing = [row for row in inside if any(map(off, row))]
    calls = []
    real = Echelon.insert

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(Echelon, "insert", counting)
    k1 = K.truncation(1)
    assert (len(calls), len(inside)) == (len(crossing), 13) == (11, 13)
    assert len(inside) < K.degree and k1.degree > 1


def check_truncations_against_kernel(K):
    """Each k_n, n below K's level, has exactly the reduced rows of the
    kernel over every row of K pivoted inside A_n."""
    for n in range(K.level):
        assert (K.truncation(n).basis_vectors(K.level)
                == truncation_by_kernel(K, n)), (K, n)


def test_truncation_matches_kernel_of_all_inside_rows(small_corpus):
    for K in small_corpus:
        check_truncations_against_kernel(K)
    for K in family_stages():
        check_truncations_against_kernel(K)


def test_modular_diag_truncations_make_no_insert(monkeypatch):
    """Every row of modular_diag:3 pivoted inside A_n lies wholly inside
    A_n, so each of its truncations keeps those rows and inserts
    nothing."""
    K = family("modular_diag").stage(3)
    K.basis_vectors()
    calls = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: calls.append(v) or real(self, v))
    degrees = [K.truncation(n).degree_log for n in range(K.level)]
    assert calls == []
    assert degrees == [0, 2, 4]


def unspanned_fields(small_corpus):
    """Fields no span made, whose greedy r-base comes from the re-span:
    the truncations of the corpus and of every family stage, the
    intersections of corpus fields over one context, and K.adjoin(e)
    for a random e."""
    rng = random.Random(2909)
    stages = list(family_stages())
    for K in small_corpus + stages:
        for n in range(1, K.level):
            yield K.truncation(n)
    for K in small_corpus + stages[-4:]:
        yield K.adjoin(random_element(K.ctx, rng, max_level=1, max_terms=2))
    for K, L in zip(small_corpus, small_corpus[1:]):
        if K.ctx == L.ctx:
            yield K.intersect(L)


def test_respan_greedy_rbase_matches_full_span(small_corpus):
    """The re-span stops at the field's known degree; its RBase is that
    of a span whose rounds run until every generator left scores 0."""
    kinds = 0
    for F in unspanned_fields(small_corpus):
        assert F.greedy_rbase() == greedy_rbase_by_span(F), F
        kinds += F.degree_log > 0
    assert kinds >= 70


def test_respan_builds_no_basis_for_its_last_field():
    """k_2 of exe1:3: the re-span's chain reaches [k_2 : k] and stops, so
    its last field, whose basis a further round would build to score the
    leftover generators, is never built."""
    k2 = family("exe1", n=3).stage(3).truncation(2)
    chains = []
    real = Subfield._greedy_chain

    def recording(cls, ctx, gens, degree_log=None):
        out = real(ctx, gens, degree_log)
        chains.append(out[0])
        return out

    with mock.patch.object(Subfield, "_greedy_chain", classmethod(recording)):
        rbase = k2.greedy_rbase()
    last, = chains
    assert last.degree_log == k2.degree_log and len(rbase) > 1
    assert last._basis is None
    assert rbase == greedy_rbase_by_span(k2)


def row_fractions(rows):
    """Echelon rows {pivot: row} read as {pivot: {key: RatFunc}}."""
    return {piv: fractions(row) for piv, row in rows.items()}


def check_seeded_rows(K, L):
    """Each truncation k_n of K (n below its level) and K ∩ L wrap a
    reduced basis without inserting it: the seeded rows equal those of a
    fresh echelon into which the same vectors, rescaled to the field's
    level, are inserted one by one."""
    seen = []
    real = Subfield._from_vectors

    def recording(cls, ctx, level, vecs):
        field = real(ctx, level, vecs)
        seen.append((level, vecs, field))
        return field

    with mock.patch.object(Subfield, "_from_vectors", classmethod(recording)):
        for n in range(K.level):
            K.truncation(n)
        K.intersect(L)
    assert len(seen) == K.level + 1
    for level, vecs, field in seen:
        factor = field.ctx.p ** (level - field.level)
        ech = Echelon()
        for v in vecs:
            assert ech.insert({tuple(x // factor for x in e): c
                               for e, c in v.items()})
        assert (row_fractions(field._echelon.rows)
                == row_fractions(ech.rows))


@given(random_fields, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_seeded_rows_match_inserted_rows_random(K, rng):
    L = Subfield.span(K.ctx, [K.gens[0], random_element(
        K.ctx, rng, max_level=1, max_terms=2)])
    check_seeded_rows(K, L)


def test_basis_build_holds_its_basis_and_one_layer():
    """Building the basis of exe2 stage 3 (64 rows) peaks within 1.15
    times what it keeps: the products are inserted as they are made, a
    product is kept only while the next power needs it, and no row is
    copied twice."""
    K = family("exe2", n=3).stage(3)
    assert K._basis is None
    tracemalloc.start()
    try:
        assert len(K._echelon) == 2 ** 6
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * retained, (peak, retained)


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


def random_monomial(ctx, rng, max_level):
    """A product of roots x^(1/p^j) of the variables, each j <= max_level."""
    t = ctx.one()
    for v in ctx.variables:
        t = t * ctx.root_of_variable(v, rng.randint(0, max_level)) ** \
            rng.randint(0, 2)
    return t


def membership_outcome(K, e):
    """How e's membership in K is decided: by levels, by a coordinate
    where every row of K's basis is zero, or by elimination, which
    finds a member or not."""
    if e.level == 0 or e.level > K.level:
        return "level"
    rows = K._echelon.rows.values()
    if any(all(key not in row for row in rows)
           for key in to_vector(e, K.level)):
        return "support"
    return "member" if member_by_basis(K, e) else "eliminated"


def check_level_shortcuts(K, rng):
    """member and rel_exponent against the basis routes, on K's
    generators, their Frobenius powers down to k, elements of k, random
    elements of levels up to 2, basis elements of K and sums of two of
    them, a basis element times a random monomial of level <= K.level,
    and quotients.  Returns how many probes each route of
    membership_outcome decided."""
    ctx = K.ctx
    probes = [ctx.zero(), ctx.one()]
    for g in K.gens:
        probes += [g.frob(j) for j in range(g.level + 1)]
    probes += [random_element(ctx, rng, max_level=0, max_terms=2)
               for _ in range(2)]
    probes += [random_element(ctx, rng, max_level=2, max_terms=2)
               for _ in range(4)]
    basis = rng.sample(K.basis_elements(), min(3, K.degree))
    probes += basis + [a + b for a, b in zip(basis, basis[1:])]
    probes += [b * random_monomial(ctx, rng, K.level) for b in basis[:2]]
    for _ in range(2):
        a, b = (random_element(ctx, rng, max_level=2, max_terms=2)
                for _ in range(2))
        probes.append(a if b.is_zero() else a / b)
    outcomes = Counter()
    for e in probes:
        assert K.member(e) == member_by_basis(K, e), e
        assert K.rel_exponent(e) == rel_exponent_by_scan(K, e), e
        outcomes[membership_outcome(K, e)] += 1
    return outcomes


def test_level_shortcuts_match_basis_routes(small_corpus):
    """Over the corpus, each of the support test, elimination and a
    member decides some probe, so each route is compared."""
    rng = random.Random(808)
    outcomes = Counter()
    for K in small_corpus:
        outcomes += check_level_shortcuts(K, rng)
    assert all(outcomes[o] for o in ("support", "eliminated", "member")), \
        outcomes


def test_support_rejects_without_elimination(ctx):
    """An element with a coordinate outside the support of K's span is
    refused before any elimination and before any coordinate is built:
    with Echelon.reduce and MultiPoly.from_clean made to raise, it still
    gets False, while a member reaches reduce."""
    K = section5_field(ctx)
    e = ctx.root_of_variable("Y", 2)
    assert not to_vector(e, K.level).keys() <= K._echelon.support
    with mock.patch.object(Echelon, "reduce",
                           side_effect=AssertionError("reduce ran")):
        with mock.patch.object(MultiPoly, "from_clean",
                               side_effect=AssertionError("built")):
            assert not K.member(e)
        with pytest.raises(AssertionError, match="reduce ran"):
            K.member(ctx.root_of_variable("X", 2))


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
            assert (row_fractions(rows)
                    == row_fractions(adjoin_rows_from_scratch(F, e, r)))
            assert F._echelon.rows.keys() == before.keys()
            for piv, (row, copy) in before.items():
                assert F._echelon.rows[piv] is row
                assert row == copy
            checked += 1
    return checked


def test_adjoin_from_reduced_rows_matches_full_build(small_corpus):
    assert sum(check_adjoin_from_reduced_rows(K) for K in small_corpus) >= 30


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_adjoin_from_reduced_rows_matches_full_build_random(K):
    check_adjoin_from_reduced_rows(K)


def test_adjoin_of_a_member_is_the_field(ctx):
    """r = o(e/K) = 0 gives K itself."""
    K = Subfield.span(ctx, roots(ctx, [("X", 1)]))
    assert K.adjoin(ctx.root_of_variable("X", 1)) is K


def test_span_makes_one_field_per_round(ctx, monkeypatch):
    """A span constructs k and one field per adjunction round, and is the
    last of them, with the generators given."""
    made = []
    init = Subfield.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subfield, "__init__", counting_init)
    # X^(1/2) lies in k(X^(1/4)), so it gets no round of its own
    gens = tuple(roots(ctx, [("Y", 1), ("X", 2), ("X", 1), ("Z", 1)]))
    K = Subfield.span(ctx, gens)
    assert K.greedy_rbase().exponents == (2, 1, 1)
    assert len(made) == 4 and made[-1] is K
    assert K.gens == gens and K.degree_log == 4


def test_fields_leave_no_cycles(small_corpus):
    """A field holds only its parents, so spans and the reports read off
    them are freed by reference counting alone: with the cycle collector
    off, a collection finds no Subfield among the unreachable objects."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for F in small_corpus[:10]:
            K = Subfield.span(F.ctx, F.gens)
            report.invariant_report(K)
            report.rbase_report(K)
            K2 = Subfield.span(F.ctx, F.gens[::-1])
            invariants.canonical_rbase(K2)
            invariants.rbase_extract(K2)
        del F, K, K2
        gc.collect()
        left = [o for o in gc.garbage[start:] if isinstance(o, Subfield)]
    finally:
        del gc.garbage[start:]
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    assert left == []


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


@pytest.mark.parametrize("p,level,r", [(2, 2, 3), (3, 1, 2)])
def test_overstated_exponent_caught_in_a_middle_layer(p, level, r):
    """o(e/k) = level for e = X^(1/p^level); with r above it, the layer
    of e^(p^level) = X, before the last layer p^r - 1, falls in the
    span.  Each layer multiplies the rows the last one stored, and the
    insert check still raises there."""
    ctx = Context(p, ("X", "Y"))
    e = ctx.root_of_variable("X", level)
    field = Subfield.base(ctx)._adjoin_by(e, r)
    assert p ** level < p ** r - 1
    with pytest.raises(InternalInconsistency,
                       match=rf"product by e\^{p ** level} fell in the span"):
        field.basis_vectors()


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
        for e, c in fractions(r).items():
            rem = tuple(x % step for x in e)
            carry = tuple(x // step for x in e)
            coeff = c.scale_exponents(scale)
            if any(carry):
                coeff = coeff * RatFunc.of_poly(
                    MultiPoly.monomial(p, K.ctx.nvars, carry))
            prev = v.get(rem)
            s = coeff if prev is None else prev + coeff
            if s.is_zero():
                v.pop(rem, None)
            else:
                v[rem] = s
        ech.insert(vector(v))
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
    lifted = perfect_lift(K, 1)
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


# ----------------------------------------------------------------------
# differential: the echelon against the route over fractions
# ----------------------------------------------------------------------

STAGES = [("exe1", 3), ("exe2", 3), ("exe4", 3), ("exe6", 2),
          ("modular_diag", 3), ("nonmodular_basic", None)]


def stage(name, n):
    fam = family(name)
    return fam.stage(fam.max_stage if n is None else n)


def mirror_inserts(monkeypatch):
    """Run every Echelon.insert also on a FractionEchelon, one per
    echelon, seeded with that echelon's rows read as fractions.  After
    each insert both must agree on whether the span grew and on the
    pivots, and every row the insert made or changed, read as
    fractions, must equal the reference row.  Returns the list of
    inserts checked."""
    mirrors, checked = {}, []
    real = Echelon.insert

    def insert(self, v):
        if id(self) not in mirrors:
            # the echelon is kept with its mirror, so its id stays unique
            mirrors[id(self)] = self, FractionEchelon(
                {piv: fractions(row) for piv, row in self.rows.items()})
        ref = mirrors[id(self)][1]
        before = dict(self.rows)
        stored = real(self, v)
        grew = stored is not None
        assert grew == ref.insert(fractions(v))
        assert self.rows.keys() == ref.rows.keys()
        for piv, row in self.rows.items():
            if before.get(piv) is not row:
                assert fractions(row) == ref.rows[piv], piv
        checked.append(grew)
        return stored

    monkeypatch.setattr(Echelon, "insert", insert)
    return checked


def build_everything(K):
    """Build K's basis afresh from its generators, its first Frobenius
    image and every truncation: adjunction products, lifted seeds and
    tagged rows all go through Echelon.insert."""
    F = Subfield.span(K.ctx, K.gens)
    F.basis_vectors()
    F.frobenius_image(1).basis_vectors()
    for n in range(F.level):
        F.truncation(n)
    return F


@pytest.mark.parametrize("name,n", STAGES)
def test_rows_match_fraction_route_on_stages(name, n, monkeypatch):
    checked = mirror_inserts(monkeypatch)
    build_everything(stage(name, n))
    assert any(checked)


@given(random_fields)
@settings(max_examples=20, deadline=None)
def test_rows_match_fraction_route_random(K):
    with pytest.MonkeyPatch.context() as mp:
        checked = mirror_inserts(mp)
        build_everything(K)
    assert any(checked)


def in_span(K, a):
    """Whether a lies in K, by a column solve in K's basis (linalg.solve),
    not a reduction against K's echelon."""
    if a.level > K.level:
        return False
    try:
        solve(K.basis_vectors(), to_vector(a, K.level), K.ctx.p, K.ctx.nvars)
    except InconsistentSystem:
        return False
    return True


def check_member_against_solve(K, rng):
    """member and rel_exponent agree with in_span on K's generators and
    their Frobenius powers, products of basis elements and random
    elements: o = rel_exponent(a) iff a^(p^o) lies in K and, for
    o >= 1, a^(p^(o-1)) does not."""
    ctx = K.ctx
    probes = [g.frob(j) for g in K.gens for j in range(g.level + 1)]
    basis = K.basis_elements()
    probes += [rng.choice(basis) * rng.choice(basis) + rng.choice(basis)
               for _ in range(3)]
    probes += [rng.choice(basis) / rng.choice(basis) + g.inverse()
               for g in K.gens if not g.is_zero()]
    probes += [random_element(ctx, rng, max_level=2, max_terms=2)
               for _ in range(4)]
    for a in probes:
        assert K.member(a) == in_span(K, a), a
        o = K.rel_exponent(a)
        assert in_span(K, a.frob(o)), (a, o)
        assert o == 0 or not in_span(K, a.frob(o - 1)), (a, o)


@pytest.mark.parametrize("name,n", STAGES)
def test_member_matches_solve_on_stages(name, n):
    check_member_against_solve(stage(name, n), random.Random(1701))


@given(random_fields, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_member_matches_solve_random(K, rng):
    check_member_against_solve(K, rng)


# ----------------------------------------------------------------------
# Frobenius images against the span of the powered generators
# ----------------------------------------------------------------------


def check_frobenius_images_against_span(K):
    """For 1 <= j <= level + 1, k(K^(p^j)) is the chain of the g^(p^j)
    with exponents o - j over the pairs (g, o) of K's greedy r-base with
    o > j: its generators and greedy r-base are those, its degree is
    p^(sum of max(o - j, 0)), it equals the span of the p^j-th powers
    of all of K's generators, and the greedy walk over its generators
    finds those pairs again."""
    rbase = K.greedy_rbase()
    pairs = list(zip(rbase.elements, rbase.exponents))
    for j in range(1, K.level + 2):
        image = K.frobenius_image(j)
        chain = [(g.frob(j), o - j) for g, o in pairs if o > j]
        expected = RBase(tuple(g for g, _ in chain),
                         tuple(o for _, o in chain))
        assert image.greedy_rbase() == expected
        assert image.gens == expected.elements
        assert image.degree_log == sum(max(o - j, 0) for _, o in pairs)
        assert fields_equal(image, frobenius_image_by_span(K, j))
        assert greedy_rbase_over(image, Subfield.base(K.ctx)) == expected


def test_frobenius_images_match_span_route(small_corpus):
    for K in small_corpus:
        check_frobenius_images_against_span(K)


@pytest.mark.parametrize("name,n", STAGES)
def test_frobenius_images_match_span_route_on_stages(name, n):
    check_frobenius_images_against_span(stage(name, n))


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_frobenius_images_match_span_route_random(K):
    check_frobenius_images_against_span(K)


def check_lifted_degrees_against_span(K):
    """degree_log_over_lifted_base(j), read off K's greedy exponents, is
    the degree of the span of the p^j-th powers of K's generators for
    every 0 <= j <= level + 1, and the report's rp chain degrees are
    those of the image fields."""
    for j in range(K.level + 2):
        assert (K.degree_log_over_lifted_base(j)
                == frobenius_image_by_span(K, j).degree_log), (K, j)
    assert (report.invariant_report(K)["rp_chain_degree_logs"]
            == [L.degree_log for L in invariants.rp_chain(K)])


def test_lifted_degrees_match_span_route(small_corpus):
    """Spans (small_corpus, every family stage), the fields no span made
    (truncations, intersections, K.adjoin(e)) and images of images."""
    stages = list(family_stages())
    fields = small_corpus + stages + list(unspanned_fields(small_corpus))
    fields += [K.frobenius_image(1).frobenius_image(1)
               for K in small_corpus + stages]
    for K in fields:
        check_lifted_degrees_against_span(K)


def test_base_field_basis_makes_no_insert(ctx, monkeypatch):
    """k's one row {0: 1} is canonical and reduced, so it seeds k's
    echelon as it is."""
    calls = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: calls.append(v) or real(self, v))
    one = (0, 0, 0)
    assert Subfield.base(ctx).basis_vectors() == [{one: MultiPoly.one(2, 3)}]
    assert calls == []

