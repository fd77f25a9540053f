"""Shared fixtures: deterministic randomized field corpus and helpers."""

import itertools
import random
from operator import add

import pytest
from hypothesis import strategies as st

from pinsep.linalg import Echelon, InconsistentSystem, kernel, solve
from pinsep.perfect import Context, PerfElem
from pinsep.polynomials import MultiPoly, RatFunc, mp_exact_div, mp_gcd
from pinsep.subfields import RBase, Subfield, to_vector
from pinsep.towers import family

VAR_NAMES = ("X", "Y", "Z")


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Without --hypothesis-seed, draw a random seed and force it through
    that option, so a run can be replayed, slow draws included, with
    --hypothesis-seed=N: hypothesis prints no seed for a passing
    example.  Under a forced seed hypothesis neither replays nor saves
    examples in its database.  This hook runs before the hypothesis
    plugin reads the option."""
    if config.option.hypothesis_seed is None:
        config.option.hypothesis_seed = random.getrandbits(32)


def pytest_terminal_summary(terminalreporter, config):
    terminalreporter.write_line(
        f"hypothesis seed: {config.option.hypothesis_seed}")


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


@st.composite
def quotients(draw, ctx):
    """a/b of random elements (b = 1 if it drew 0), so the body carries a
    real denominator.  Levels stay <= 2 for p = 2 and <= 1 for p = 3, so
    that den^(p^m - 1) stays small two levels above the element's."""
    rng = draw(st.randoms(use_true_random=False))
    top = 2 if ctx.p == 2 else 1
    a = random_element(ctx, rng, top, max_terms=2)
    b = random_element(ctx, rng, top, max_terms=2)
    return a if b.is_zero() else a / b


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


def family_stages():
    """Every stage of every built-in family, at its default parameters."""
    for name in ("exe1", "exe2", "exe4", "exe6", "modular_diag",
                 "nonmodular_basic"):
        fam = family(name)
        for s in range(fam.max_stage + 1):
            yield fam.stage(s)


def fields_equal(a, b):
    return (a.degree_log == b.degree_log and a.contains_field(b)
            and b.contains_field(a))


def perfect_lift(K, n):
    """K^(1/p^n) = k(x^(1/p^n), g^(1/p^n)), whose degree over k is
    [K : k] * p^(nu*n): the brute-force side of the truncation formula
    K_s^(1/p^n) ∩ K for s >= 1."""
    ctx = K.ctx
    roots = [ctx.root_of_variable(v, n) for v in ctx.variables]
    return Subfield.span(ctx, roots + [g.frob(-n) for g in K.gens])


def greedy_rbase_over(K, L):
    """The RBase of generators g and exponents o(g/F) of a greedy r-base
    of L(K)/L, walked through the
    public rel_exponent, adjoin and compositum: from F = L, every
    generator of K is tested every round, one of maximal o(g/F) (the
    first by index) is adjoined, and the rounds stop at the degree of
    the compositum L(K).  With L = k this is the reference for the
    greedy r-base a span keeps."""
    target = L.compositum(K).degree_log
    current, elements, exponents = L, [], []
    while current.degree_log < target:
        exps = [current.rel_exponent(g) for g in K.gens]
        best = max(range(len(exps)), key=exps.__getitem__)
        assert exps[best] > 0, "greedy walk stalled below L(K)"
        elements.append(K.gens[best])
        exponents.append(exps[best])
        current = current.adjoin(K.gens[best])
    assert current.degree_log == target
    return RBase(tuple(elements), tuple(exponents))


def frobenius_image_by_span(K, j):
    """k(K^(p^j)) as the span of the p^j-th powers of all of K's
    generators: the reference route for Subfield.frobenius_image, which
    reads the image off K's greedy r-base."""
    return Subfield.span(K.ctx, [g.frob(j) for g in K.gens])


def greedy_rbase_by_span(K):
    """The greedy r-base of a full span of K's generators, every round run
    until all generators left score 0: the reference for the re-span of
    Subfield.greedy_rbase, which stops at K's known degree."""
    return Subfield.span(K.ctx, K.gens).greedy_rbase()


def truncation_by_kernel(K, n):
    """The reduced basis rows of k_n = K ∩ A_n at K's level, in pivot
    order: the kernel of the pairs (part outside A_n, part inside A_n) of
    every row of K pivoted inside A_n, rows wholly inside A_n included.
    The reference for Subfield.truncation, which keeps those rows as they
    are and hands `kernel` only the rows that cross A_n."""
    step = K.ctx.p ** (K.level - n)
    inside = lambda e: not any(x % step for x in e)
    pairs = []
    for piv, row in sorted(K._echelon.rows.items()):
        if inside(piv):
            pairs.append(({e: c for e, c in row.items() if not inside(e)},
                          {e: c for e, c in row.items() if inside(e)}))
    return kernel(pairs)


def vec_mul_by_products(ctx, m, a, b):
    """Product of two level-m vectors with every entry product formed by
    MultiPoly.__mul__: the reference for subfields.vec_mul, which takes
    the other factor itself where one entry is 1."""
    q = ctx.p ** m
    out: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            rem = tuple(map(add, e, f))
            coeff = c * d
            if max(rem) >= q:
                coeff = coeff.mul_monomial(tuple([x // q for x in rem]))
                rem = tuple([x % q for x in rem])
            s = out[rem] + coeff if rem in out else coeff
            if s.terms:
                out[rem] = s
            else:
                del out[rem]
    return out


def defining_equations_by_products(K):
    """The coefficients of invariants.defining_equations by PerfElem
    arithmetic: each w_eps a product of PerfElem powers, embedded afresh
    by to_vector at the highest level of the w_eps and the right side;
    the solve finds C*d/d_w, d_w and d the denominators of w_eps and
    alpha_j^(p^m_j), so each C is that times d_w/d."""
    B = K.greedy_rbase()
    ctx, p = K.ctx, K.ctx.p
    out = {}
    for j in range(2, len(B) + 1):
        m_j = B.exponents[j - 1]
        powers = [B.elements[t].frob(m_j) for t in range(j - 1)]
        rhs_elem = B.elements[j - 1].frob(m_j)
        box = list(itertools.product(
            *(range(p ** (o - m_j)) for o in B.exponents[:j - 1])))
        monomials = []
        for eps in box:
            w = ctx.one()
            for a, e_t in zip(powers, eps):
                w = w * a ** e_t
            monomials.append(w)
        level = max([w.level for w in monomials] + [rhs_elem.level])
        coeffs = solve([to_vector(w, level) for w in monomials],
                       to_vector(rhs_elem, level), p, ctx.nvars)
        d = rhs_elem.body.den
        for eps, w, c in zip(box, monomials, coeffs):
            out[(j, eps)] = PerfElem(
                ctx, 0, RatFunc(c.num * w.body.den, c.den * d))
    return out


def greedy_exponents_over(K, L):
    """The exponent list of greedy_rbase_over(K, L)."""
    return greedy_rbase_over(K, L).exponents


def vector(entries) -> dict:
    """The vector of the fractions {key: RatFunc}: the entries times the
    lcm of their denominators, a vector on the same line over k."""
    entries = {k: c for k, c in entries.items() if not c.is_zero()}
    if not entries:
        return {}
    lcm = next(iter(entries.values())).den
    for c in entries.values():
        lcm = mp_exact_div(lcm * c.den, mp_gcd(lcm, c.den))
    return {k: c.num * mp_exact_div(lcm, c.den) for k, c in entries.items()}


def fractions(v: dict) -> dict:
    """A vector read as {key: RatFunc}, scaled to 1 at its smallest key:
    the value of a canonical row, and one point of any vector's line."""
    if not v:
        return {}
    lead = v[min(v)]
    return {k: RatFunc(n, lead) for k, n in v.items()}


def is_canonical(row: dict) -> bool:
    """Whether a nonzero vector is a canonical row: monic at its smallest
    key, with no factor common to all its entries."""
    lead = row[min(row)]
    g = lead
    for n in row.values():
        g = mp_gcd(g, n)
    return lead.leading()[1] == 1 and g.is_one()


def assert_canonical(ech: Echelon):
    """Every stored row pivots on its smallest column and is canonical."""
    for piv, row in ech.rows.items():
        assert piv == min(row)
        assert is_canonical(row), (piv, row)


def vec_add_scaled(v: dict, w: dict, c: RatFunc) -> dict:
    """v + c*w on dicts of fractions, dropping exact zeros."""
    if c.is_zero():
        return v
    out = dict(v)
    for k, val in w.items():
        s = out.get(k)
        s = val * c if s is None else s + val * c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


class FractionEchelon:
    """Reference reduced echelon over dicts of fractions {key: RatFunc},
    each entry its own reduced fraction: the pivot of a row is its
    smallest column, and the row is 1 there.  An independent route for
    linalg.Echelon, whose rows hold polynomials and stand for their
    lines."""

    def __init__(self, rows=None):
        self.rows = dict(rows or {})     # pivot -> {key: RatFunc}

    def reduce(self, v: dict) -> dict:
        out = dict(v)
        for k in [k for k in v if k in self.rows]:
            out = vec_add_scaled(out, self.rows[k], -out[k])
        return out

    def insert(self, v: dict) -> bool:
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        inv = r[piv].inverse()
        r = {k: val * inv for k, val in r.items()}
        for pk, row in self.rows.items():
            c = row.get(piv)
            if c is not None:
                self.rows[pk] = vec_add_scaled(row, r, -c)
        self.rows[piv] = r
        return True


def solve_by_kernel(columns, rhs, p, nvars):
    """Reference route for linalg.solve, through the transposed system:
    the kernel of the pairs (columns[j], e_j) and (rhs, e_n), n the number
    of unknowns, holds each c with sum c_j*columns[j] + c_n*rhs = 0.  rhs
    lies in the columns' span iff some kernel row has c_n != 0, and the
    solution is unique iff that row is the only one; then
    x_j = -c_j/c_n.  Raises as solve does: InconsistentSystem when there
    is no solution, else ArithmeticError when it is not unique."""
    n = len(columns)
    one = MultiPoly.one(p, nvars)
    rows = kernel([(col, {j: one}) for j, col in enumerate(columns)]
                  + [(rhs, {n: one})])
    if not any(n in row for row in rows):
        raise InconsistentSystem("no solution")
    if len(rows) > 1:
        raise ArithmeticError("solution is not unique")
    row, = rows
    return [RatFunc(-row[j], row[n]) if j in row else RatFunc.zero(p, nvars)
            for j in range(n)]


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
