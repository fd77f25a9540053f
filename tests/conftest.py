"""Shared fixtures: deterministic randomized field corpus and helpers."""

import random

import pytest
from hypothesis import strategies as st

from pinsep.linalg import Echelon
from pinsep.perfect import Context
from pinsep.polynomials import MultiPoly, RatFunc
from pinsep.subfields import Subfield

VAR_NAMES = ("X", "Y", "Z")


def random_element(ctx, rng, max_level=2, max_terms=3):
    """A random element of bounded level with small polynomial body."""
    e = ctx.zero()
    for _ in range(rng.randint(1, max_terms)):
        t = ctx.const(rng.randint(1, ctx.p - 1))
        for v in ctx.variables:
            if rng.random() < 0.6:
                lvl = rng.randint(0, max_level)
                t = t * ctx.root_of_variable(v, lvl) ** rng.randint(1, 2)
        e = e + t
    return e


def random_field(rng, p=None):
    """One random finitely generated extension, or None if rejected.

    Bounds: <= 3 variables, <= 3 generators, generator levels <= 2.  The
    summed generator levels bound the degree, so oversized instances are
    rejected before any span is computed.
    """
    p = p or rng.choice([2, 2, 2, 3])
    nv = rng.randint(2, 3)
    ctx = Context(p, VAR_NAMES[:nv])
    ngens = rng.randint(1, 3)
    max_terms = 3 if p == 2 else 2
    budget = 6 if p == 2 else 4
    gens = [random_element(ctx, rng, max_level=2, max_terms=max_terms)
            for _ in range(ngens)]
    if sum(g.level for g in gens) > budget:
        return None
    K = Subfield.span(ctx, gens)
    if K.degree_log == 0:
        return None
    return K


# Hypothesis strategy: the fields random_field draws, rejections skipped.
random_fields = st.builds(random_field, st.randoms(use_true_random=False)
                          ).filter(lambda K: K is not None)


def field_corpus(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        K = random_field(rng)
        if K is not None:
            out.append(K)
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """30 random fields for the property suites."""
    return field_corpus(1702, 30)


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The >= 200 field corpus shared by the acceptance criteria."""
    return field_corpus(20240817, 200)


def fields_equal(a, b):
    return (a.degree_log == b.degree_log and a.contains_field(b)
            and b.contains_field(a))


def greedy_rbase_over(K, L):
    """Pairs (g, o(g/F)) of a greedy r-base of L(K)/L, walked through the
    public rel_exponent, adjoin and compositum: from F = L, every
    generator of K is tested every round, one of maximal o(g/F) (the
    first by index) is adjoined, and the rounds stop at the degree of
    the compositum L(K).  With L = k this is the reference for the
    greedy r-base a span keeps."""
    target = L.compositum(K).degree_log
    current, pairs = L, []
    while current.degree_log < target:
        exps = [current.rel_exponent(g) for g in K.gens]
        best = max(range(len(exps)), key=exps.__getitem__)
        assert exps[best] > 0, "greedy walk stalled below L(K)"
        pairs.append((K.gens[best], exps[best]))
        current = current.adjoin(K.gens[best])
    assert current.degree_log == target
    return tuple(pairs)


def greedy_exponents_over(K, L):
    """The exponent list of greedy_rbase_over(K, L)."""
    return tuple(o for _, o in greedy_rbase_over(K, L))


def echelon_of(vectors) -> Echelon:
    """A fresh echelon holding the span of the given sparse vectors."""
    e = Echelon()
    for v in vectors:
        e.insert(v)
    return e


def rank(vectors) -> int:
    """Rank of a family of sparse vectors, through a fresh echelon."""
    return len(echelon_of(vectors))


def partial_derivative(f, i):
    """d f / d x_i of a MultiPoly, or of a RatFunc by the quotient rule.

    The library never differentiates; this is the independent reference
    for the derivative criterion of minimal levels."""
    if isinstance(f, RatFunc):
        num = (partial_derivative(f.num, i) * f.den
               - f.num * partial_derivative(f.den, i))
        return RatFunc(num, f.den * f.den)
    if not 0 <= i < f.nvars:
        raise ValueError("variable index out of range")
    terms = {}
    for e, c in f.terms.items():
        m = (c * e[i]) % f.p
        if m:
            terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = m
    return MultiPoly(f.p, f.nvars, terms)
