"""Exact linear algebra: echelon rank, nullspace, solve, subspace intersection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pinsep import invariants as inv
from pinsep.linalg import (Echelon, InconsistentSystem, intersect_spans,
                           kernel, nullspace, solve)
from pinsep.polynomials import MultiPoly, RatFunc
from pinsep.subfields import Subfield, to_vector

from conftest import (FractionEchelon, assert_canonical, echelon_of, fractions,
                      is_canonical, random_fields, rank, solve_by_kernel,
                      vec_add_scaled, vector)


def c(v, p=3, nv=1):
    return RatFunc.const(p, nv, v)


def x_poly(p=3, nv=1):
    return RatFunc.of_poly(MultiPoly.variable(p, nv, 0))


def test_rank_of_identity():
    rows = [vector({i: c(1)}) for i in range(3)]
    assert rank(rows) == 3


def test_rank_counts_independent_rows():
    dependent = [vector({0: c(1), 1: c(2)}),
                 vector({0: c(2), 1: c(1)})]  # (2,1) = 2*(1,2) mod 3
    assert rank(dependent) == 1
    independent = [vector({0: c(1), 1: c(2)}), vector({0: c(2)}), vector({})]
    assert rank(independent) == 2


def test_nullspace_single_row():
    # [x, x] over F_3(x): nullspace is span{(1, -1)} normalized
    x = x_poly()
    ns = nullspace([vector({0: x, 1: x})], 2, 3, 1)
    assert len(ns) == 1
    v = fractions(ns[0])
    assert v[0].is_one()
    assert v[1] == c(-1)


def test_nullspace_of_full_rank_is_empty():
    rows = [vector({0: c(1)}), vector({1: c(1)})]
    assert nullspace(rows, 2, 3, 1) == []


def test_solve_unique():
    # x0 + 2 x1 = 5ish over F_7? use F_3: x0 + 2x1 = 1; x1 = 2
    cols = [{0: c(1)}, {0: c(2), 1: c(1)}]
    rhs = {0: c(1), 1: c(2)}
    xs = solve([vector(col) for col in cols], vector(rhs), 3, 1)
    # substitute back: residual must vanish
    acc = {}
    for xj, col in zip(xs, cols):
        acc = vec_add_scaled(acc, col, xj)
    acc = vec_add_scaled(acc, rhs, c(-1))
    assert acc == {}


def test_solve_inconsistent_vs_zero():
    # 0*x = b is inconsistent; 1*x = 0 has the zero solution
    with pytest.raises(InconsistentSystem):
        solve([vector({})], vector({0: c(1)}), 3, 1)
    assert solve([vector({0: c(1)})], vector({}), 3, 1)[0].is_zero()


def test_solve_underdetermined_raises():
    with pytest.raises(ArithmeticError):
        solve([vector({0: c(1)}), vector({0: c(2)})], vector({0: c(1)}),
              3, 1)


def solve_outcome(route, *args):
    """The solution route(*args) returns, or the class of the
    ArithmeticError it raises."""
    try:
        return route(*args)
    except ArithmeticError as exc:
        return type(exc)


def test_solve_matches_the_transposed_kernel_on_random_systems():
    """solve and the transposed-kernel reference agree, values and
    exception classes, on random systems over F_2 and F_3: unique ones,
    inconsistent ones and underdetermined ones."""
    rng = random.Random(2718)
    seen = {"unique": 0, InconsistentSystem: 0, ArithmeticError: 0}
    for _ in range(160):
        p, nv = rng.choice([2, 3]), rng.randint(1, 2)
        n, neq = rng.randint(1, 4), rng.randint(1, 5)

        def poly():
            return MultiPoly(p, nv, {
                tuple(rng.randint(0, 2) for _ in range(nv)):
                rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))})

        cols = [{i: poly() for i in range(neq) if rng.random() < 0.7}
                for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            f = poly()
            cols[-1] = {i: v * f for i, v in cols[0].items()}
        if rng.random() < 0.5:
            rhs = {i: poly() for i in range(neq) if rng.random() < 0.7}
        else:
            rhs = {}
            for col in cols:
                x = poly()
                for i, v in col.items():
                    rhs[i] = rhs[i] + v * x if i in rhs else v * x
            rhs = {i: v for i, v in rhs.items() if not v.is_zero()}
        want = solve_outcome(solve_by_kernel, cols, rhs, p, nv)
        assert solve_outcome(solve, cols, rhs, p, nv) == want
        seen["unique" if isinstance(want, list) else want] += 1
    assert min(seen.values()) >= 20, seen


def test_solve_matches_the_transposed_kernel_on_defining_equations(
        small_corpus, monkeypatch):
    """Every system the defining equations of the small corpus solve has
    the same unique solution by the transposed-kernel reference."""
    systems = []
    real = inv.solve

    def recording(*args):
        systems.append(args)
        return real(*args)

    monkeypatch.setattr(inv, "solve", recording)
    for K in small_corpus:
        inv.defining_equations(Subfield.span(K.ctx, K.gens))
    assert max(len(columns) for columns, *_ in systems) > 1
    for args in systems:
        assert solve(*args) == solve_by_kernel(*args)


def test_intersection_example():
    # span{(1,0),(0,1)} ∩ span{(1,1)} = span{(1,1)}
    a = [vector({0: c(1)}), vector({1: c(1)})]
    b = [vector({0: c(1), 1: c(1)})]
    got = intersect_spans(a, b)
    assert [fractions(v) for v in got] == [{0: c(1), 1: c(1)}]


def test_intersection_transverse_planes():
    # two 2-planes in 3-space meeting in a line
    a = [vector({0: c(1)}), vector({1: c(1)})]
    b = [vector({1: c(1)}), vector({2: c(1)})]
    got = intersect_spans(a, b)
    assert [fractions(v) for v in got] == [{1: c(1)}]


def test_echelon_canonical_under_insertion_order():
    rng = random.Random(3)
    rows = [
        {0: c(1), 1: c(2), 2: c(1)},
        {1: c(1), 2: c(2)},
        {0: c(2), 2: c(1)},
    ]
    reference = None
    for _ in range(6):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        e = Echelon()
        for r in shuffled:
            e.insert(vector(r))
        snapshot = [(pk, sorted(fractions(row).items()))
                    for pk, row in sorted(e.rows.items())]
        if reference is None:
            reference = snapshot
        assert snapshot == reference
        assert_canonical(e)


def rbase_products(K):
    """The vectors of the products g_1^a_1 ... g_r^a_r, a_i < p^o_i, over
    K's greedy r-base (g_i, o_i): a k-basis of K, entered as to_vector
    gives them, with a common factor where the product has one."""
    elems = [K.ctx.one()]
    rbase = K.greedy_rbase()
    for g, o in zip(rbase.elements, rbase.exponents):
        powers = [K.ctx.one()]
        for _ in range(1, K.ctx.p ** o):
            powers.append(powers[-1] * g)
        elems = [e * w for e in elems for w in powers]
    return [to_vector(e, K.level) for e in elems]


@given(random_fields.filter(lambda K: K.degree <= 8),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_rows_canonical_under_insertion_orders(K, rng):
    """Whatever the insertion order, after every insert each stored row
    is monic at its pivot and has no factor common to all its entries;
    the rows come out identical and equal K's own.  (Fields of degree
    above 8 are left out: eliminating all their products in a random
    order can run for minutes, with fractions as with polynomial
    rows.)"""
    vecs = rbase_products(K)
    own = K._echelon.rows
    for _ in range(3):
        rng.shuffle(vecs)
        ech = Echelon()
        for v in vecs:
            assert ech.insert(v)
            assert_canonical(ech)
        assert ech.rows == own


def test_solve_substitute_residual_zero_randomized():
    """Solve then substitute: the residual must be exactly zero."""
    rng = random.Random(77)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        x = RatFunc.of_poly(MultiPoly.variable(p, 1, 0))

        def entry():
            k = rng.randint(0, 2)
            base = RatFunc.const(p, 1, rng.randint(0, p - 1))
            return (base + x * RatFunc.const(p, 1, rng.randint(0, 1))
                    if k == 2 else base)

        cols = []
        for j in range(n):
            col = {i: entry() for i in range(n)}
            col = {i: v for i, v in col.items() if not v.is_zero()}
            cols.append(col)
        xs_true = [entry() for _ in range(n)]
        rhs = {}
        for xj, col in zip(xs_true, cols):
            rhs = vec_add_scaled(rhs, col, xj)
        try:
            xs = solve([vector(col) for col in cols], vector(rhs), p, 1)
        except ArithmeticError:
            continue  # singular draw: not unique, nothing to verify
        residual = dict(rhs)
        for xj, col in zip(xs, cols):
            residual = vec_add_scaled(residual, col, RatFunc.const(p, 1, -1) * xj)
        assert residual == {}



@given(st.frozensets(st.integers(0, 5)),
       st.lists(st.dictionaries(st.integers(0, 5), st.integers(1, 2),
                                max_size=4), max_size=6))
@settings(max_examples=100, deadline=None)
def test_block1_rows_hold_no_block0_column(block0, vectors):
    """With the columns in block0 tagged 0 and the rest 1: after every
    insert, each row pivots on its smallest column, each row pivoted in
    block 1 holds no block-0 column, the rows span exactly what was
    inserted, and the block-1 rows span its vectors that vanish on
    block 0 (dimension: rank minus the rank of the block-0 parts).
    kernel on the same vectors, split into their block-0 and block-1
    parts, returns exactly those block-1 rows with the tags stripped."""
    x = x_poly()
    vecs = [vector({(0 if k in block0 else 1, k): c(v) * x if k % 2 else c(v)
                    for k, v in d.items()}) for d in vectors]
    ech = Echelon()
    for i, v in enumerate(vecs):
        inserted = vecs[:i + 1]
        grew = ech.insert(v) is not None
        assert grew == (rank(inserted) > rank(vecs[:i]))
        block1 = []
        for piv, row in ech.rows.items():
            assert piv == min(row)
            if piv[0] == 1:
                assert all(k[0] == 1 for k in row)
                block1.append(row)
        assert_canonical(ech)
        kept = list(ech.rows.values())
        assert rank(kept) == rank(inserted) == rank(kept + inserted)
        block0_parts = [vector({k: a for k, a in fractions(w).items()
                                if k[0] == 0}) for w in inserted]
        assert len(block1) == rank(inserted) - rank(block0_parts)
    pairs = [tuple({k[1]: a for k, a in v.items() if k[0] == tag}
                   for tag in (0, 1)) for v in vecs]
    assert kernel(pairs) == [{k[1]: a for k, a in ech.rows[piv].items()}
                             for piv in sorted(ech.rows) if piv[0] == 1]


def reduce_by_vec_add_scaled(ech, v):
    """Reference reduction on fractions: one fresh vector per pivot
    cleared.  The remainder comes scaled to 1 at its smallest key, as
    fractions reads a vector."""
    v = fractions(v)
    for k in [k for k in v if k in ech.rows]:
        v = vec_add_scaled(v, fractions(ech.rows[k]), -v[k])
    if not v:
        return v
    inv = v[min(v)].inverse()
    return {k: c * inv for k, c in v.items()}


sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 7), st.tuples(st.integers(1, 2),
                                                st.integers(0, 2)),
                    max_size=5), max_size=8)


def sparse_vec(d):
    """A sparse vector from a draw of sparse_vectors: entry (a, e) is
    a * (1, x or 1/(x + 1))[e] over F_3(x)."""
    x = x_poly()
    entries = (c(1), x, (x + c(1)).inverse())
    return vector({k: c(a) * entries[e] for k, (a, e) in d.items()})


@given(sparse_vectors, sparse_vectors)
@settings(max_examples=100, deadline=None)
def test_reduce_in_place_matches_reference(basis, queries):
    """In-place reduce equals the vec_add_scaled reduction and leaves its
    argument alone; stored rows are never mutated by later inserts."""
    ech = Echelon()
    stored = []
    for d in basis:
        ech.insert(sparse_vec(d))
        stored.extend((row, dict(row)) for row in ech.rows.values())
    for row, copy in stored:
        assert row == copy
    for d in queries:
        v = sparse_vec(d)
        before = dict(v)
        assert fractions(ech.reduce(v)) == reduce_by_vec_add_scaled(ech, v)
        assert v == before


@given(sparse_vectors)
@settings(max_examples=100, deadline=None)
def test_insert_never_mutates_its_argument(vectors):
    """insert leaves every argument as it was.  When the span grows, the
    new row is the argument itself exactly when the argument held no
    pivot column and was a canonical row; a vector that had to be
    cleared or scaled is stored as a new dict."""
    ech = Echelon()
    for d in vectors:
        v = sparse_vec(d)
        before = dict(v)
        clean = (v and not any(k in ech.rows for k in v)
                 and is_canonical(v))
        old = set(ech.rows)
        grew = ech.insert(v)
        assert v == before
        if grew:
            piv, = set(ech.rows) - old
            assert (ech.rows[piv] is v) == bool(clean)


@given(sparse_vectors)
@settings(max_examples=100, deadline=None)
def test_insert_returns_the_row_it_stores(vectors):
    """insert returns the very dict it stores at the new pivot, the
    smallest key of that row, and None for a vector in the span."""
    ech = Echelon()
    for d in vectors:
        v = sparse_vec(d)
        inside = ech.member(v)
        r = ech.insert(v)
        if inside:
            assert r is None
        else:
            assert ech.rows[min(r)] is r
        assert ech.insert(v) is None


@given(sparse_vectors, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_support_is_the_union_of_row_keys(vectors, rng):
    """support is the union of the keys of the inserted vectors, a
    spanning set, so the same set for every insertion order.  Read
    before each insert, it is right again after it, and an echelon
    seeded by from_reduced reads the same set off its rows."""
    vecs = [sparse_vec(d) for d in vectors]
    expected = set().union(*vecs)
    for _ in range(3):
        rng.shuffle(vecs)
        ech = Echelon()
        for v in vecs:
            before = set(ech.support)
            ech.insert(v)
            assert before <= ech.support == set().union(*ech.rows.values())
        assert ech.support == expected
        assert Echelon.from_reduced(dict(ech.rows)).support == expected


class _UnprobedRows(dict):
    """A row map whose items() raises, so a loop over the stored rows
    fails."""

    def items(self):
        raise AssertionError("stored rows probed")


def test_insert_outside_support_probes_no_row():
    """Only a column in the support can sit in a stored row, so an insert
    whose pivot lies outside it clears nothing and reads no stored row."""
    x = x_poly()
    row = vector({1: c(1), 2: x})
    ech = Echelon.from_reduced(_UnprobedRows({1: row}))
    assert ech.support == {1, 2}
    assert ech.insert(vector({0: c(1), 3: c(2)}))
    assert ech.insert(vector({4: x}))
    assert ech.rows[1] is row
    assert ech.support == {0, 1, 2, 3, 4}


def test_insert_clears_a_new_pivot_from_the_rows_holding_it():
    """A new pivot that is a non-pivot column of a stored row lies in the
    support, and the row is cleared of it."""
    x = x_poly()
    vecs = [{1: c(1), 2: x, 3: c(1)}, {2: x + c(1), 3: c(2)}]
    ech, ref = Echelon(), FractionEchelon()
    for v in vecs:
        assert ech.insert(vector(v)) and ref.insert(v)
    assert 2 not in ech.rows[1]
    assert_canonical(ech)
    assert {pk: fractions(row) for pk, row in ech.rows.items()} == ref.rows


@given(sparse_vectors, sparse_vectors)
@settings(max_examples=50, deadline=None)
def test_intersect_spans_dimension_formula(rows_a, rows_b):
    """Every returned row lies in both spans, the rows are independent,
    and dim(A ∩ B) = dim A + dim B - dim(A + B)."""
    a, b = [sparse_vec(d) for d in rows_a], [sparse_vec(d) for d in rows_b]
    got = intersect_spans(a, b)
    span_a, span_b = echelon_of(a), echelon_of(b)
    assert all(span_a.member(v) and span_b.member(v) for v in got)
    assert rank(got) == len(got) == len(span_a) + len(span_b) - rank(a + b)


@given(sparse_vectors, st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_nullspace_annihilates_rows(rows, n):
    """Every kernel vector annihilates every row, there are n - rank of
    them, and each is a canonical row."""
    eqs = [vector({j: a for j, a in fractions(sparse_vec(d)).items()
                   if j < n}) for d in rows]
    kernel = nullspace(eqs, n, 3, 1)
    assert all(is_canonical(lam) for lam in kernel)
    for lam in map(fractions, kernel):
        for row in map(fractions, eqs):
            acc = c(0)
            for j, a in row.items():
                if j in lam:
                    acc = acc + a * lam[j]
            assert acc.is_zero()
    assert len(kernel) == rank(kernel) == n - rank(eqs)
