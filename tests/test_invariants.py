"""Invariant computations: r-bases, exponents, defining equations,
modularity, equiexponentiality, rp chains, U-tables, parity lengths."""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from pinsep import exprs, invariants as inv, report, subfields
from pinsep.cli import load_config
from pinsep.exprs import parse_element
from pinsep.linalg import Echelon
from pinsep.perfect import Context, PerfElem
from pinsep.subfields import InternalInconsistency, RBase, Subfield
from pinsep.towers import family

from conftest import (defining_equations_by_products, family_stages,
                      fields_equal, greedy_exponents_over, greedy_rbase_over,
                      perfect_lift, random_element, random_field,
                      random_fields)


@pytest.fixture
def ctx():
    return Context(2, ("X", "Y", "Z"))


def roots(ctx, spec):
    return [ctx.root_of_variable(v, j) for v, j in spec]


def section5(ctx):
    a1 = ctx.root_of_variable("X", 2)
    a2 = a1 * ctx.root_of_variable("Y", 1) + ctx.root_of_variable("Z", 1)
    return Subfield.span(ctx, (a1, a2))


# ----------------------------------------------------------------------
# r-base extraction
# ----------------------------------------------------------------------


def test_rbase_extract_base_field(ctx):
    assert len(inv.rbase_extract(Subfield.span(ctx, ()))) == 0


def test_rbase_extract_tensor(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1), ("Y", 1)]))
    B = inv.rbase_extract(K)
    assert len(B) == 2
    assert set(B.elements) == set(K.gens)


def test_rbase_extract_section5(ctx):
    K = section5(ctx)
    B = inv.rbase_extract(K)
    assert len(B) == 2
    assert inv.di(K) == 2


def test_rbase_extract_drops_redundant(ctx):
    # X^(1/2) is already inside k(X^(1/4))
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("X", 1)]))
    B = inv.rbase_extract(K)
    assert B.elements == (ctx.root_of_variable("X", 2),)


def rbase_in_order(K):
    """The generators of K outside the span of k(K^p) and of the ones kept
    before them, in order: the reference walk for rbase_extract."""
    current = K.frobenius_image(1)
    kept = []
    for g in K.gens:
        if not current.member(g):
            kept.append(g)
            current = current.adjoin(g)
    return tuple(kept)


def test_rbase_extract_matches_in_order_walk(small_corpus):
    """rbase_extract keeps the same generators, in the same order, as the
    plain walk from k(K^p) that keeps each generator not yet a member."""
    for K in small_corpus:
        assert inv.rbase_extract(K).elements == rbase_in_order(K)


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_rbase_extract_matches_in_order_walk_random(K):
    assert inv.rbase_extract(K).elements == rbase_in_order(K)


def test_rbase_extract_failures_are_internal(ctx, monkeypatch):
    """A size mismatch with di, or a walk that never reaches K, is a bug
    (InternalInconsistency, exit 4), not bad input."""
    K = section5(ctx)
    K.frobenius_image(1)
    with monkeypatch.context() as mp:
        mp.setattr(inv, "di", lambda K: 3)
        with pytest.raises(InternalInconsistency,
                           match="found 2 elements, expected 3"):
            inv.rbase_extract(K)
    monkeypatch.setattr(Subfield, "adjoin", lambda self, e: self)
    with pytest.raises(InternalInconsistency, match="does not generate"):
        inv.rbase_extract(K)


def test_rbase_cardinality_invariance(ctx, small_corpus):
    """All r-bases of one extension have the same cardinality."""
    rng = random.Random(4)
    for K in small_corpus[:12]:
        expected = inv.di(K)
        for _ in range(4):
            gens = list(K.gens)
            rng.shuffle(gens)
            K2 = Subfield.span(K.ctx, gens)
            assert len(inv.rbase_extract(K2)) == expected


def test_exchange_lemma(ctx, small_corpus):
    """For r-bases B1, B2 and x in B2 there is x1 in B1 with
    (B1 - x1) + x still an r-base."""
    rng = random.Random(8)
    checked = 0
    for K in small_corpus:
        if inv.di(K) < 2:
            continue
        checked += 1
        if checked > 6:
            break
        B1 = inv.rbase_extract(K).elements
        gens = list(K.gens)
        rng.shuffle(gens)
        B2 = inv.rbase_extract(Subfield.span(K.ctx, gens)).elements
        kKp = K.frobenius_image(1)
        for x in B2:
            found = False
            for x1 in B1:
                candidate = tuple(b for b in B1 if b != x1) + (x,)
                F = kKp
                ok = True
                for b in candidate:
                    if F.member(b):
                        ok = False
                        break
                    F = F.adjoin(b)
                if ok and F.degree_log == K.degree_log:
                    found = True
                    break
            assert found


# ----------------------------------------------------------------------
# canonical r-bases and exponents
# ----------------------------------------------------------------------


def test_canonical_rbase_section5(ctx):
    B = inv.canonical_rbase(section5(ctx))
    assert B.exponents == (2, 1)


def test_canonical_rbase_simple(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert inv.canonical_rbase(K).exponents == (2,)


def test_canonical_rbase_tensor(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1), ("Y", 1)]))
    assert inv.canonical_rbase(K).exponents == (1, 1)


def three_gens(ctx):
    """X^(1/4), Y^(1/2) and X^(1/2)*Y^(1/2), which lies in the span of
    the first two: degree 2^3, exponents (2, 1)."""
    xy = ctx.root_of_variable("X", 1) * ctx.root_of_variable("Y", 1)
    return roots(ctx, [("X", 2), ("Y", 1)]) + [xy]


def test_canonical_rbase_scans_each_generator_once_per_round(ctx,
                                                            monkeypatch):
    """The span is the greedy walk: each round computes o(g/F) once for
    every generator still in play and drops those with o = 0, so on
    three_gens it makes 3 + 2 + 1 = 6 rel_exponent calls (the last
    round finds X^(1/2)*Y^(1/2) inside and ends the walk).  Adjoining
    the chosen generator reuses its exponent, and canonical_rbase reads
    the pairs the span kept, with no call of its own."""
    calls = []
    real = Subfield.rel_exponent
    monkeypatch.setattr(Subfield, "rel_exponent",
                        lambda self, a: calls.append(a) or real(self, a))
    K = Subfield.span(ctx, three_gens(ctx))
    assert len(calls) == 6
    B = inv.canonical_rbase(K)
    assert B.exponents == (2, 1)
    assert len(calls) == 6


def test_canonical_rbase_is_memoized(ctx, monkeypatch):
    """A second canonical_rbase(K) makes no rel_exponent call and returns
    the same RBase object."""
    K = Subfield.span(ctx, three_gens(ctx))
    first = inv.canonical_rbase(K)
    calls = []
    real = Subfield.rel_exponent
    monkeypatch.setattr(Subfield, "rel_exponent",
                        lambda self, a: calls.append(a) or real(self, a))
    assert inv.canonical_rbase(K) is first
    assert calls == []


def test_one_rbase_object_per_field(small_corpus):
    """Every field keeps one RBase: canonical_rbase(K) is
    K.greedy_rbase() on spans, truncations and Frobenius images alike,
    and after the full reports no field's memo holds a second copy under
    a key of its own."""
    for K in small_corpus[:10]:
        report.invariant_report(K, oracle=True)
        report.rbase_report(K)
        fields = [K, K.truncation(1)] + inv.rp_chain(K)
        for F in fields:
            assert inv.canonical_rbase(F) is F.greedy_rbase()
            assert isinstance(F.greedy_rbase(), RBase)
            assert "canonical_rbase" not in F._cache


def test_span_refuses_a_rising_exponent_list(ctx, monkeypatch):
    """The span checks its greedy exponents once, as it records them: a
    rel_exponent that scores the second round above the first makes the
    list (1, 2), which no greedy walk can produce."""
    gens = roots(ctx, [("X", 1), ("Y", 2)])
    scores = iter([1, 1, 2])
    monkeypatch.setattr(Subfield, "rel_exponent",
                        lambda self, a: next(scores))
    with pytest.raises(InternalInconsistency,
                       match="canonical exponent list increased"):
        Subfield.span(ctx, gens)


def _drop_first_seed_row(ctx, mp):
    """K(e)'s build seeds its echelon without one of K's rows, so the
    first basis built on top of k, k(X^(1/4))'s, ends one row short of
    its tower-law degree.  k's own one-row basis, which seeds its echelon
    the same way, is built before the patch, and the span starts from
    that k."""
    k = Subfield.base(ctx)
    k.basis_vectors()
    mp.setattr(Subfield, "base", classmethod(lambda cls, ctx: k))
    real = Echelon.from_reduced
    mp.setattr(Echelon, "from_reduced", classmethod(
        lambda cls, rows: real(dict(list(rows.items())[1:]))))
    return lambda: section5(ctx).basis_vectors()


def _respan_to_a_smaller_field(ctx, mp):
    F = Subfield.base(ctx)
    for g in roots(ctx, [("X", 1), ("Y", 1)]):
        F = F.adjoin(g)
    real = Subfield._greedy_chain
    mp.setattr(Subfield, "_greedy_chain", classmethod(
        lambda cls, ctx, gens, degree_log=None:
        real(ctx, gens[:1], degree_log)))
    return F.greedy_rbase


def _intersection_of_three_rows(ctx, mp):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    mp.setattr(subfields, "intersect_spans",
               lambda a, b: K.basis_vectors()[:3])
    return lambda: K.intersect(K)


def _intersection_of_nothing(ctx, mp):
    K = section5(ctx)
    mp.setattr(subfields, "intersect_spans", lambda a, b: [])
    return lambda: K.intersect(K)


def _truncation_of_everything(ctx, mp):
    K = section5(ctx)
    mp.setattr(Subfield, "_from_vectors",
               classmethod(lambda cls, ctx, level, vecs: K))
    return lambda: K.truncation(1)


def _solve_not_unique(ctx, mp):
    def solve(*args):
        raise ArithmeticError("solution is not unique")
    mp.setattr(inv, "solve", solve)
    return lambda: inv.defining_equations(section5(ctx))


def _disjointness_says_otherwise(ctx, mp):
    real = inv._modular_by_disjointness
    mp.setattr(inv, "_modular_by_disjointness",
               lambda K: (not real(K)[0], None))
    return lambda: inv.is_modular(section5(ctx))


def _constant_exponents_claimed(ctx, mp):
    mp.setattr(inv, "canonical_rbase",
               lambda K: RBase(K.gens, (2, 2)))
    return lambda: inv.is_equiexponential(section5(ctx))


def _exponents_growing_with_the_level(ctx, mp):
    mp.setattr(inv, "canonical_rbase", lambda K: RBase((), (3 * K.level,)))
    return lambda: inv.u_table(family("modular_diag"), 2, 1)


def _exponents_by_di_off(ctx, mp):
    mp.setattr(inv, "exponents_by_di", lambda K, s: 7)
    return lambda: report.oracle_checks(section5(ctx))


def _lifted_degree_off_by_one(ctx, mp):
    real = Subfield.degree_log_over_lifted_base
    mp.setattr(Subfield, "degree_log_over_lifted_base",
               lambda self, n: real(self, n) + 1)
    return lambda: report.oracle_checks(section5(ctx))


def _truncation_is_the_field(ctx, mp):
    mp.setattr(Subfield, "truncation", lambda self, n: self)
    return lambda: report.oracle_checks(section5(ctx))


@pytest.mark.parametrize("fire,needle", [
    (_intersection_of_three_rows, "dimension 3 is not a power of 2"),
    (_drop_first_seed_row,
     r"built a basis of 3 rows for a field of degree 2\^2$"),
    (_respan_to_a_smaller_field, "span of its generators differ"),
    (_intersection_of_nothing, "lost the unit"),
    (_truncation_of_everything, "left elements above the cut"),
    (_solve_not_unique, "defining equation 2 has no unique solution"),
    (_disjointness_says_otherwise, "modularity methods disagree"),
    (_constant_exponents_claimed, "equiexponential degree test disagrees"),
    (_exponents_growing_with_the_level, "U-table row 1 decreased"),
    (_exponents_by_di_off, "exponent computations disagree"),
    (_lifted_degree_off_by_one,
     r"greedy exponents give it p\^2, but the p\^1-th powers of K's basis "
     r"span 2 dimensions"),
    (_truncation_is_the_field, "outside its Frobenius bounds"),
], ids=["intersection_dimension", "basis_size", "respan_degree",
        "intersection_unit", "truncation_cut", "defining_equations",
        "modularity_methods", "equiexponential", "utable_row",
        "oracle_exponents", "oracle_lifted_degree",
        "oracle_truncation_bounds"])
def test_internal_checks_fire(ctx, monkeypatch, fire, needle):
    """Each structural check raises InternalInconsistency when one of
    its collaborators is patched to break the invariant it guards."""
    with pytest.raises(InternalInconsistency, match=needle):
        fire(ctx, monkeypatch)()


def test_bases_are_built_on_first_use(ctx, monkeypatch):
    """Echelon inserts behind span, canonical_rbase and di.  A field's
    basis is built when a generator of level >= 1 and at most its level
    is tested as a member, and K(e) starts from K's reduced rows, so it
    inserts only the layers b*e^l with l >= 1.  The span builds k (its
    one row, seeded with no insert), k(X^(1/4)) (3 inserts) and
    k(X^(1/4), Y^(1/2)) (4 more), the last of which is K, built when the
    last round tests X^(1/2)*Y^(1/2) against it.  canonical_rbase reads
    the greedy pairs the span kept and inserts nothing.  di reads the
    degree of k(K^2) off those pairs' exponents and builds nothing."""
    calls = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: calls.append(v) or real(self, v))
    K = Subfield.span(ctx, three_gens(ctx))
    assert len(calls) == 3 + 4
    inv.canonical_rbase(K)
    assert len(calls) == 7
    assert inv.di(K) == 2
    assert len(calls) == 7


def test_canonical_rbase_reuses_the_span_fields(monkeypatch):
    """On exe2:3, once the span's fields are built, the greedy r-base
    makes no Echelon insert: the span kept it."""
    K = family("exe2").stage(3)
    K.basis_vectors()
    calls = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: calls.append(v) or real(self, v))
    assert inv.canonical_rbase(K).exponents == (3, 2, 1)
    assert calls == []


def test_canonical_rbase_builds_nothing_once_bases_are_built(
        acceptance_corpus, monkeypatch):
    """The span adjoins in greedy order, so the canonical r-base comes
    off the span's own chain: on every acceptance-corpus field, and on a
    span of its generators shuffled, canonical_rbase makes no Echelon
    insert once the field's basis is built.  A greedy walk along a chain
    of its own builds fields wherever the greedy order differs from the
    generator order: 27 of the 200 fields and 19 of the shuffled spans."""
    rng = random.Random(5)
    fields = []
    for K in acceptance_corpus:
        gens = list(K.gens)
        rng.shuffle(gens)
        fields += [K, Subfield.span(K.ctx, gens)]
    for F in fields:
        F.basis_vectors()
    calls = []
    real = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: calls.append(v) or real(self, v))
    inserted = []
    for i, F in enumerate(fields):
        inv.canonical_rbase(F)
        if calls:
            inserted.append(i)
            calls.clear()
    assert inserted == []


def test_span_greedy_pairs_match_reference_walk(small_corpus):
    for K in small_corpus:
        assert K.greedy_rbase() == greedy_rbase_over(K, Subfield.base(K.ctx))


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_span_greedy_pairs_match_reference_walk_random(K):
    assert K.greedy_rbase() == greedy_rbase_over(K, Subfield.base(K.ctx))


def test_truncation_greedy_pairs_match_reference_walk():
    """The truncations k_j of exe1:3, which u_table reads, are not spans:
    their greedy r-base comes from one span of their generators."""
    K = family("exe1", n=3).stage(3)
    for j in range(1, K.level):
        k_j = K.truncation(j)
        assert k_j.greedy_rbase() == greedy_rbase_over(
            k_j, Subfield.base(K.ctx))


def test_oracle_builds_what_the_report_only_counted(ctx, monkeypatch):
    """An overstated o(e/K) is caught by the insert check once the basis
    is built, and the oracle builds K's basis before anything else.  The
    span of (X^(1/4), Y^(1/2)) adjoins Y^(1/2) last, to k(X^(1/4));
    saying o = 2 there, one more than the truth, makes a field of claimed
    degree 2^4 that no later round tests against, so the span leaves it
    unbuilt."""
    gens = roots(ctx, [("X", 2), ("Y", 1)])
    real = Subfield.rel_exponent
    with monkeypatch.context() as mp:
        mp.setattr(Subfield, "rel_exponent", lambda self, a: real(self, a)
                   + (a is gens[-1] and self.degree_log > 0))
        K = Subfield.span(ctx, gens)
    assert K.degree_log == 4
    with pytest.raises(InternalInconsistency, match="fell in the span"):
        report.oracle_checks(K)


def test_oracle_builds_the_frobenius_images(ctx, monkeypatch):
    """The same check inside a Frobenius image of K, which is read off
    K's greedy r-base ((X^(1/4), 2), (Y^(1/2), 1)).  Saying o = 2 for
    Y^(1/2) there, one more than the truth, puts (Y, 1) into the chain
    of k(K^2), though Y lies in k, and makes an image of claimed degree
    2^2.  The oracle builds that image's basis before it compares any
    degree, so the insert check reports it."""
    K = Subfield.span(ctx, three_gens(ctx))
    rbase = K.greedy_rbase()
    ox, oy = rbase.exponents
    with monkeypatch.context() as mp:
        mp.setattr(Subfield, "greedy_rbase",
                   lambda self: RBase(rbase.elements, (ox, oy + 1)))
        assert K.frobenius_image(1).degree_log == 2
    with pytest.raises(InternalInconsistency, match="fell in the span"):
        report.oracle_checks(K)


def test_oracle_checks_image_degrees_by_rank(ctx, monkeypatch):
    """An understated exponent passes every insert check: saying o = 1
    for X^(1/4) in K's greedy r-base leaves no pair with o > 1, so
    k(K^2) reads as k, a field, but too small.  The oracle compares each
    image's degree with the rank of the squares of K's basis, 2 here,
    and reports it."""
    K = Subfield.span(ctx, three_gens(ctx))
    rbase = K.greedy_rbase()
    ox, *rest = rbase.exponents
    with monkeypatch.context() as mp:
        mp.setattr(Subfield, "greedy_rbase",
                   lambda self: RBase(rbase.elements, (ox - 1, *rest)))
        assert K.frobenius_image(1).degree_log == 0
    with pytest.raises(InternalInconsistency,
                       match="p\\^1-th powers of K's basis span 2"):
        report.oracle_checks(K)


def test_exponent_list_invariance(ctx, small_corpus):
    rng = random.Random(15)
    for K in small_corpus[:12]:
        expected = inv.canonical_rbase(K).exponents
        for _ in range(4):
            gens = list(K.gens)
            rng.shuffle(gens)
            assert inv.canonical_rbase(Subfield.span(K.ctx, gens),
                                       ).exponents == expected


def test_exponents_by_di_agrees(ctx, small_corpus):
    K5 = section5(ctx)
    assert inv.exponents_by_di(K5, 1) == 2
    assert inv.exponents_by_di(K5, 2) == 1
    assert inv.exponents_by_di(K5, 3) == 0    # s > di
    with pytest.raises(ValueError, match="s must be >= 1"):
        inv.exponents_by_di(K5, 0)
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert inv.exponents_by_di(K, 1) == 2
    for K in small_corpus[:10]:
        exps = inv.canonical_rbase(K).exponents
        for s in range(1, len(exps) + 2):
            want = exps[s - 1] if s <= len(exps) else 0
            assert inv.exponents_by_di(K, s) == want


def test_exponent_monotonicity_under_truncation(small_corpus):
    """o_j(L/k) <= o_j(K/k) for truncations L of K."""
    for K in small_corpus[:10]:
        big = inv.canonical_rbase(K).exponents
        for n in range(K.level + 1):
            L = K.truncation(n)
            small = inv.canonical_rbase(L).exponents
            for j, e in enumerate(small):
                assert e <= big[j]


def test_exponents_under_disjoint_base_change(ctx):
    """Linearly disjoint K1, K2: the exponents of K1(K2)/K2 match K1/k."""
    K1 = section5(ctx)
    K2 = Subfield.span(ctx, [ctx.root_of_variable("Y", 1)
                             + ctx.root_of_variable("X", 1)])
    # disjoint over k: disjoint over the (trivial) intersection
    assert K1.linearly_disjoint(K2)
    assert K1.intersect(K2).degree_log == 0
    assert greedy_exponents_over(K1, K2) == \
        inv.canonical_rbase(K1).exponents


def test_base_change_exponents_never_grow(small_corpus):
    """o_j(L(K)/L) <= o_j(K/k) for random K, L in one context."""
    pairs = 0
    for K, L in zip(small_corpus, small_corpus[1:]):
        if K.ctx != L.ctx:
            continue
        pairs += 1
        if pairs > 6:
            break
        over_L = greedy_exponents_over(K, L)
        over_k = inv.canonical_rbase(K).exponents
        for j, e in enumerate(over_L):
            assert e <= over_k[j]


def test_compositum_di_bound(small_corpus):
    """di(K1(K2)/k) <= di(K1/k) + di(K2/k), equality when disjoint over k
    (disjoint over the intersection with the intersection trivial)."""
    pairs = 0
    for K, L in zip(small_corpus, small_corpus[1:]):
        if K.ctx != L.ctx:
            continue
        pairs += 1
        if pairs > 8:
            break
        comp = K.compositum(L)
        bound = inv.di(K) + inv.di(L)
        assert inv.di(comp) <= bound
        disjoint_over_k = (K.linearly_disjoint(L)
                           and K.intersect(L).degree_log == 0)
        if disjoint_over_k:
            assert inv.di(comp) == bound


def test_frobenius_image_exponent_lists(ctx, small_corpus):
    """The exponents of k(K^(p^n))/k are (m_1 - n, ..., m_j - n) over the
    m_j exceeding n."""
    K5 = section5(ctx)
    assert inv.canonical_rbase(K5.frobenius_image(1)).exponents == (1,)
    for K in small_corpus[:10]:
        exps = inv.canonical_rbase(K).exponents
        for n in range(1, (exps[0] if exps else 0) + 1):
            expected = tuple(m - n for m in exps if m > n)
            got = inv.canonical_rbase(K.frobenius_image(n)).exponents
            assert got == expected


def test_rbase_is_minimal_generating_set(ctx, small_corpus):
    """At finite exponent an r-base also generates K over k itself."""
    for K in small_corpus[:10]:
        B = inv.rbase_extract(K)
        assert Subfield.span(K.ctx, B.elements).degree_log == K.degree_log


def test_di_bounded_by_imperfection_degree(small_corpus):
    """di(K/k) <= di(k) = number of variables of the base field."""
    for K in small_corpus:
        assert inv.di(K) <= K.ctx.nvars


def test_modular_truncations_have_stable_di(small_corpus):
    """For modular K/k, di(k_n/k) = di(k_1/k) for every n >= 1."""
    for K in small_corpus:
        verdict, _ = inv.is_modular(K, "criterion")
        if not verdict or K.level < 2:
            continue
        first = inv.di(K.truncation(1))
        for n in range(2, K.level + 1):
            assert inv.di(K.truncation(n)) == first


# ----------------------------------------------------------------------
# defining equations
# ----------------------------------------------------------------------


def test_defining_equations_section5(ctx):
    K = section5(ctx)
    B = inv.canonical_rbase(K)
    eqs = inv.defining_equations(K)
    assert eqs[(2, (0,))].render() == "Z"
    assert eqs[(2, (1,))].render() == "Y"
    # reconstruct: alpha_2^p = Y alpha_1^p + Z exactly
    a1, a2 = B.elements
    Y, Z = ctx.variable("Y"), ctx.variable("Z")
    assert a2.frob(1) == Y * a1.frob(1) + Z


def test_defining_equations_single_generator_empty(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert inv.defining_equations(K) == {}


def test_defining_equations_tensor(ctx):
    # k(X^(1/4), Y^(1/2)): alpha_2^p = Y, so C_(0) = Y and C_(1) = 0
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 1)]))
    eqs = inv.defining_equations(K)
    assert eqs[(2, (0,))].render() == "Y"
    assert eqs[(2, (1,))].is_zero()


def test_defining_equations_solved_once_per_field(ctx, monkeypatch):
    """The modularity criterion and the r-base report share one solve:
    the equations are kept on K, and a second request solves nothing."""
    K = section5(ctx)
    calls = []
    real = inv.solve

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(inv, "solve", counting)
    assert inv.is_modular(K, method="criterion")[0] is False
    assert len(calls) == 1
    rep = report.rbase_report(K)
    assert len(calls) == 1
    eqs = inv.defining_equations(K)
    assert eqs is inv.defining_equations(K)
    assert [eq["coefficient"] for eq in rep["defining_equations"]] == [
        c.render() for _, c in sorted(eqs.items())]


def check_defining_equations_reconstruct(K):
    """alpha_j^(p^m_j) equals the asserted combination exactly, and each
    coefficient prints in the element grammar and reads back."""
    B = inv.canonical_rbase(K)
    eqs = inv.defining_equations(K)
    for c in eqs.values():
        assert parse_element(K.ctx, c.render()) == c
    for j in range(2, len(B) + 1):
        m_j = B.exponents[j - 1]
        lhs = B.elements[j - 1].frob(m_j)
        rhs = K.ctx.zero()
        for (jj, eps), c in eqs.items():
            if jj != j:
                continue
            w = K.ctx.one()
            for t, e_t in enumerate(eps):
                w = w * B.elements[t].frob(m_j) ** e_t
            rhs = rhs + c * w
        assert lhs == rhs


def test_defining_equations_reconstruct(small_corpus):
    """alpha_j^(p^m_j) equals the asserted combination, for random fields."""
    for K in small_corpus[:10]:
        check_defining_equations_reconstruct(K)


def rational_fields(seed, count):
    """`count` fields over p = 2 and 3 spanned by two or three quotients
    a/b of random elements, so r-base elements and the monomials w carry
    multi-term denominators.  Levels stay <= 2 for p = 2 and <= 1 for
    p = 3; a draw whose r-base has fewer than two elements, and so no
    defining equation, is skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = (2, 3)[len(out) % 2]
        ctx = Context(p, ("X", "Y", "Z")[:rng.randint(2, 3)])
        top = 2 if p == 2 else 1
        gens = []
        for _ in range(rng.randint(2, 3)):
            a = random_element(ctx, rng, top, max_terms=2)
            b = random_element(ctx, rng, top, max_terms=2)
            gens.append(a if b.is_zero() else a / b)
        K = Subfield.span(ctx, gens)
        if len(K.greedy_rbase()) >= 2:
            out.append(K)
    return out


def test_defining_equations_reconstruct_over_rational_rbases():
    """Over fields spanned by quotients the coefficients C are rational
    functions; each still reconstructs alpha_j^(p^m_j) = sum C * w
    exactly and parses back.  Most of these fields have a coefficient
    with a nonconstant denominator, so the solve's denominators are
    exercised."""
    fields = rational_fields(2201, 40)
    rational = 0
    for K in fields:
        check_defining_equations_reconstruct(K)
        rational += any(not c.body.den.is_one()
                        for c in inv.defining_equations(K).values())
    assert rational >= len(fields) // 2


def rational_yaml_fields():
    """K, L, K ∩ L and KL of the golden document rational.yaml, whose
    generators carry multi-term denominators."""
    text = (Path(__file__).parent / "golden" / "rational.yaml").read_text()
    cfg = load_config(text)
    K, L = (Subfield.span(cfg.ctx, cfg.fields[name]) for name in "KL")
    return [K, L, K.intersect(L), K.compositum(L)]


def test_defining_equations_match_perfelem_route(small_corpus):
    """The columns are vec_mul products of the powers' vectors, scaled by
    the product of the powers' denominators; the coefficients equal those
    of the route that multiplies PerfElem powers and embeds each w_eps
    afresh."""
    fields = (small_corpus + rational_yaml_fields()
              + rational_fields(2201, 40))
    solved = 0
    for K in fields:
        eqs = inv.defining_equations(K)
        assert eqs == defining_equations_by_products(K), K
        solved += bool(eqs)
    assert solved >= 50


def test_defining_equations_make_no_perfelem_product(monkeypatch):
    """exe1:3's ten equations are solved from vectors alone: no PerfElem
    product or power is formed."""
    K = family("exe1", n=3).stage(3)
    K.greedy_rbase()
    calls = []
    for name in ("__mul__", "__pow__"):
        real = getattr(PerfElem, name)
        monkeypatch.setattr(PerfElem, name, lambda a, b, real=real:
                            calls.append(b) or real(a, b))
    assert len(inv.defining_equations(K)) == 10
    assert calls == []


# ----------------------------------------------------------------------
# modularity
# ----------------------------------------------------------------------


def test_modular_base_field(ctx):
    k = Subfield.span(ctx, ())
    assert inv.is_modular(k, "both") == (True, None)


def test_modular_tensor_true(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 1)]))
    verdict, witness = inv.is_modular(K, "both")
    assert verdict and witness is None


def test_modular_section5_false_with_witness(ctx):
    K = section5(ctx)
    verdict, witness = inv.is_modular(K, "both")
    assert verdict is False
    assert witness["coefficient"] in ("Y", "Z")
    verdict_d, witness_d = inv.is_modular(K, "disjointness")
    assert verdict_d is False
    assert witness_d["n"] in (1, 2)


def test_modular_methods_agree(small_corpus):
    for K in small_corpus:
        v_c, _ = inv.is_modular(K, "criterion")
        v_d, _ = inv.is_modular(K, "disjointness")
        assert v_c == v_d


def modular_by_every_truncation(K):
    """The disjointness test computing k_n at every n, without bounds."""
    for n in range(1, K.level + 1):
        lifted = K.degree_log_over_lifted_base(n)
        relative = K.degree_log - K.truncation(n).degree_log
        if lifted != relative:
            witness = {
                "method": "disjointness",
                "n": n,
                "reason": (f"[k^(1/p^{n})(K) : k^(1/p^{n})] = p^{lifted} "
                           f"but [K : k_{n}] = p^{relative}"),
            }
            return False, witness
    return True, None


def check_disjointness_bounds(K):
    """lifted <= log_p [K : k_n] <= upper at every n, and the bounded
    test gives the verdict and witness of the unbounded one."""
    for n in range(1, K.level + 1):
        lifted = K.degree_log_over_lifted_base(n)
        relative = K.degree_log - K.truncation(n).degree_log
        upper = K.degree_log - K.frobenius_image(K.level - n).degree_log
        assert lifted <= relative <= upper, (K, n)
    assert (inv.is_modular(K, "disjointness")
            == modular_by_every_truncation(K)), K


def test_disjointness_bounds(small_corpus):
    for K in small_corpus:
        check_disjointness_bounds(K)


@given(random_fields)
@settings(max_examples=25, deadline=None)
def test_disjointness_bounds_random(K):
    check_disjointness_bounds(K)


def count_truncations(monkeypatch):
    calls = []
    real = Subfield.truncation
    monkeypatch.setattr(Subfield, "truncation",
                        lambda self, n: calls.append(n) or real(self, n))
    return calls


def test_disjointness_bounds_skip_truncation(ctx, monkeypatch):
    """k(X^(1/4)): at n = 1 both bounds read [K : k(X^(1/2))] = p, at
    n = 2 both read 1, so no k_n is computed."""
    calls = count_truncations(monkeypatch)
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    assert inv.is_modular(K, "disjointness") == (True, None)
    assert calls == []


def test_disjointness_open_bound_computes_truncation(monkeypatch):
    """nonmodular_basic: at n = 1, [k^(1/p)(K) : k^(1/p)] = p but
    [K : k(K^p)] = p^2, so k_1 is computed, and it gives the witness."""
    calls = count_truncations(monkeypatch)
    K = family("nonmodular_basic").stage(1)
    assert inv.is_modular(K, "disjointness") == (False, {
        "method": "disjointness",
        "n": 1,
        "reason": "[k^(1/p^1)(K) : k^(1/p^1)] = p^1 but [K : k_1] = p^2",
    })
    assert calls == [1]


def test_modular_bad_method(ctx):
    with pytest.raises(ValueError):
        inv.is_modular(section5(ctx), "magic")


def test_modular_deep_p3_field():
    """Degree 3^4; [A_1(K) : A_1] by a rank over A_1 ran for minutes here."""
    ctx = Context(3, ("X", "Y", "Z"))
    gens = ("rt(X,2)*rt(Y,2)*rt(Z,1)+2*rt(X,2)*rt(Y,2)*rt(Z,2)",
            "2*rt(Y,2)^2*Z^2+rt(X,1)^2*Y*rt(Z,2)^2")
    K = Subfield.span(ctx, [parse_element(ctx, g) for g in gens])
    assert inv.is_modular(K, "both") == (True, None)
    assert inv.canonical_rbase(K).exponents == (2, 2)
    report.oracle_checks(K)


def test_invariant_report_spans_each_field_once(monkeypatch):
    """One oracle report constructs each k(K^(p^j)) once, however often
    asked, and builds one basis per generator tuple for every field of
    degree above 1: a second chain to the same field would build a
    second echelon.  (A span shares its basis with the last field of
    its chain, which has the same generators when it adjoins them in
    the order given.)"""
    K = family("exe2").stage(3)
    real_image = Subfield.frobenius_image
    images = {}

    def counting_image(self, j):
        field = real_image(self, j)
        if j:
            images.setdefault((id(self), j), set()).add(id(field))
        return field

    real_basis = Subfield._echelon
    builds = {}

    def recording_basis(self):
        ech = real_basis.fget(self)
        if self.degree_log:
            builds.setdefault(tuple(g.render() for g in self.gens),
                              set()).add(id(ech))
        return ech

    monkeypatch.setattr(Subfield, "frobenius_image", counting_image)
    monkeypatch.setattr(Subfield, "_echelon", property(recording_basis))
    report.invariant_report(K, oracle=True)
    assert {j for _, j in images} == set(range(1, K.level + 2))
    assert all(len(ids) == 1 for ids in images.values()), images
    for j in range(1, K.level + 2):
        image = K.frobenius_image(j)
        if image.degree_log:
            assert tuple(g.render() for g in image.gens) in builds
    assert builds and all(len(ids) == 1 for ids in builds.values()), builds


def check_report_work(K, monkeypatch):
    """The invariant and r-base reports of K read the degrees of its
    Frobenius images off the greedy exponents, so neither asks for an
    image, and they render each generator of K once, for the header and
    the r-base alike."""
    images = []
    real_image = Subfield.frobenius_image
    monkeypatch.setattr(Subfield, "frobenius_image",
                        lambda self, j: images.append(j) or real_image(self, j))
    rendered = []
    real_render = exprs.render_element
    monkeypatch.setattr(exprs, "render_element",
                        lambda e: rendered.append(e) or real_render(e))
    report.invariant_report(K)
    report.rbase_report(K)
    monkeypatch.undo()
    assert images == []
    ids = {id(g) for g in K.gens}
    renders = Counter(id(e) for e in rendered if id(e) in ids)
    assert renders == Counter(ids), K


@pytest.mark.parametrize("name,n", [("exe1", 3), ("exe2", 3), ("exe4", 3),
                                    ("exe6", 2), ("modular_diag", 3)])
def test_reports_build_no_frobenius_image(name, n, monkeypatch):
    check_report_work(family(name).stage(n), monkeypatch)


def test_reports_of_every_stage_and_corpus_field_make_no_image(
        small_corpus, monkeypatch):
    """check_report_work on every stage of every built-in family and on
    a fresh span of each small_corpus field's generators."""
    fields = list(family_stages())
    fields += [Subfield.span(K.ctx, K.gens) for K in small_corpus]
    for K in fields:
        check_report_work(K, monkeypatch)


# ----------------------------------------------------------------------
# equiexponentiality
# ----------------------------------------------------------------------


def test_equiexponential_examples(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 1), ("Y", 1)]))
    assert inv.is_equiexponential(K) == (True, 1)
    K2 = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 2)]))
    assert inv.is_equiexponential(K2) == (True, 2)
    assert inv.is_equiexponential(section5(ctx)) == (False, None)
    assert inv.is_equiexponential(Subfield.span(ctx, ())) == (True, 0)


def test_equiexponential_truncation_degree_law(ctx):
    """Equiexponential K: [k_n : k] = p^(n * di) for n <= e."""
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 2)]))
    ok, e = inv.is_equiexponential(K)
    assert ok
    d = inv.di(K)
    for n in range(e + 1):
        assert K.truncation(n).degree_log == n * d


# ----------------------------------------------------------------------
# rp chain and di decomposition
# ----------------------------------------------------------------------


def test_rp_chain_examples(ctx):
    K = Subfield.span(ctx, roots(ctx, [("X", 2)]))
    chain = inv.rp_chain(K)
    assert [L.degree_log for L in chain] == [1, 0, 0]
    assert chain[-1].degree_log == 0   # rp = k for finite extensions
    K5 = section5(ctx)
    assert [L.degree_log for L in inv.rp_chain(K5)] == [1, 0, 0]
    k = Subfield.span(ctx, ())
    assert [L.degree_log for L in inv.rp_chain(k)] == [0]


def test_rp_chain_is_the_images_up_to_o1_plus_one(small_corpus):
    """rp_chain(K) is the list of the memoized images k(K^(p^j)) for
    1 <= j <= o_1(K/k) + 1, and o_1(K/k) is K's level."""
    for K in small_corpus[:10]:
        exps = inv.canonical_rbase(K).exponents
        assert K.level == (exps[0] if exps else 0)
        chain = inv.rp_chain(K)
        assert len(chain) == K.level + 1
        for j, L in enumerate(chain, start=1):
            assert L is K.frobenius_image(j)


def test_rp_chain_strictly_decreasing_then_stationary(small_corpus):
    for K in small_corpus[:10]:
        logs = [L.degree_log for L in inv.rp_chain(K)]
        if len(logs) == 1:
            assert logs == [0]
            continue
        body, last = logs[:-1], logs[-1]
        assert all(a > b for a, b in zip(body, body[1:]))
        assert last == body[-1] == 0


def test_di_decomposition(ctx, small_corpus):
    """At finite exponent rp(K/k) = k, so di(K/k) = di(K/k(K^p)): an
    r-base taken from the generators has di(K) elements."""
    fields = [section5(ctx), Subfield.span(ctx, roots(ctx, [("X", 2)]))]
    for K in fields + small_corpus[:10]:
        assert len(inv.rbase_extract(K)) == inv.di(K)


# ----------------------------------------------------------------------
# U-tables
# ----------------------------------------------------------------------


def test_u_table_modular_diag_rows_zero():
    fam = family("modular_diag", t=2, m=3)
    table = inv.u_table(fam, 3, 2)
    assert table.entries == ((0, 0, 0), (0, 0, 0))
    assert table.ilqm_lower_bound is None


def test_u_table_exe1_rows():
    fam = family("exe1", n=3)
    table = inv.u_table(fam, 3, 3)
    for s in range(1, 4):
        row = table.entries[s - 1]
        for j in range(1, 4):
            expected = s - 1 if j >= s else j
            assert row[j - 1] == expected
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_u_table_single_column():
    fam = family("modular_diag", t=2, m=2)
    table = inv.u_table(fam, 1, 2)
    assert table.entries == ((0,), (0,))


# ----------------------------------------------------------------------
# parity lengths
# ----------------------------------------------------------------------


def test_parity_examples():
    assert inv.parity_lengths(1).lpi == 1
    assert inv.parity_lengths(1).lps == 1
    five = inv.parity_lengths(5)
    assert (five.lpi, five.lps) == (3, 4)
    assert five.seq_lower == (5, 2, 1)
    assert five.seq_upper == (6, 3, 2, 1)
    four = inv.parity_lengths(4)
    assert four.lpi == four.lps == 3
    assert four.seq_lower == (4, 2, 1)


def test_parity_invariants_to_1024():
    for n in range(1, 1025):
        lengths = inv.parity_lengths(n)
        p1, p2 = lengths.lpi, lengths.lps
        assert 2 ** (p1 - 1) <= n < 2 ** p1
        assert 2 ** (p2 - 2) < n <= 2 ** (p2 - 1)
        assert p2 - p1 in (0, 1)
        assert (p2 == p1) == (n & (n - 1) == 0)


def test_parity_rejects_nonpositive():
    with pytest.raises(ValueError):
        inv.parity_lengths(0)


# ----------------------------------------------------------------------
# truncation formulas
# ----------------------------------------------------------------------


def test_truncation_formula_exe6_smoke():
    fam = family("exe6", i_max=2, n_max=2)
    assert inv.truncation_formula_check(fam, 1)
    assert inv.truncation_formula_check(fam, 2)


def lifted_truncation_check(family, s, n):
    """K_s^(1/p^n) ∩ K, by brute force through the lifted field, against
    the span the family predicts; the lift multiplies degrees by
    p^(nu*n), so this only suits small families."""
    predicted = family.predicted_truncation(s, n)
    big = family.stage(family.max_stage)
    lhs = perfect_lift(family.stage(s), n).intersect(big)
    return lhs == Subfield.span(family.ctx, predicted)


def test_truncation_formula_exe6_lifted_base():
    # s = 1: K_1^(1/p) ∩ K = K_1(theta_1^2), via the lifted intersection
    fam = family("exe6", i_max=1, n_max=2)
    assert lifted_truncation_check(fam, 1, 1)


def test_truncation_formula_horizon_error():
    fam = family("exe6", i_max=2, n_max=2)
    with pytest.raises(inv.HorizonInsufficient):
        inv.truncation_formula_check(fam, 5)   # lpi(5) = 3 > n_max


def modular_rbase_truncation_check(K, B):
    """Check the truncation formula for a modular r-base B of K/k.

    With n_a = o(a/k), B_1 = {a : n_a > j} and B_2 = B \\ B_1, the j-th
    truncation must equal k((a^(p^(n_a - j)))_{a in B_1}, B_2) for every
    j < o_1(K/k).  B must be modular: the tensor degree test
    sum n_a = log_p [K : k] is verified first.
    """
    levels = [a.level for a in B.elements]
    if sum(levels) != K.degree_log:
        raise ValueError("B is not a modular r-base (tensor degree test failed)")
    o1 = max(levels, default=0)
    for j in range(o1):
        predicted = []
        for a, n_a in zip(B.elements, levels):
            predicted.append(a.frob(n_a - j) if n_a > j else a)
        if Subfield.span(K.ctx, predicted) != K.truncation(j):
            return False
    return True


def test_modular_rbase_truncation_thm(ctx):
    # k(X^(1/4), Y^(1/2)): k_1 = k(X^(1/2), Y^(1/2))
    K = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 1)]))
    B = inv.canonical_rbase(K)
    assert modular_rbase_truncation_check(K, B)
    # equiexponential: truncation at the exponent is K itself
    K2 = Subfield.span(ctx, roots(ctx, [("X", 2), ("Y", 2)]))
    assert modular_rbase_truncation_check(K2, inv.canonical_rbase(K2))


def test_modular_rbase_truncation_rejects_nonmodular(ctx):
    K = section5(ctx)
    with pytest.raises(ValueError):
        modular_rbase_truncation_check(K, inv.canonical_rbase(K))
