"""Exact linear algebra: echelon rank, nullspace, solve, subspace intersection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pinsep.linalg import (Echelon, InconsistentSystem, intersect_spans,
                           nullspace, solve, vec_add_scaled)
from pinsep.polynomials import MultiPoly, RatFunc

from conftest import echelon_of, rank


def c(v, p=3, nv=1):
    return RatFunc.const(p, nv, v)


def x_poly(p=3, nv=1):
    return RatFunc.of_poly(MultiPoly.variable(p, nv, 0))


def test_rank_of_identity():
    rows = [{i: c(1)} for i in range(3)]
    assert rank(rows) == 3


def test_rank_counts_independent_rows():
    dependent = [{0: c(1), 1: c(2)}, {0: c(2), 1: c(1)}]  # (2,1) = 2*(1,2) mod 3
    assert rank(dependent) == 1
    independent = [{0: c(1), 1: c(2)}, {0: c(2)}, {}]
    assert rank(independent) == 2


def test_nullspace_single_row():
    # [x, x] over F_3(x): nullspace is span{(1, -1)} normalized
    x = x_poly()
    ns = nullspace([{0: x, 1: x}], 2, 3, 1)
    assert len(ns) == 1
    v = ns[0]
    assert v[0].is_one()
    assert v[1] == c(-1)


def test_nullspace_of_full_rank_is_empty():
    rows = [{0: c(1)}, {1: c(1)}]
    assert nullspace(rows, 2, 3, 1) == []


def test_solve_unique():
    # x0 + 2 x1 = 5ish over F_7? use F_3: x0 + 2x1 = 1; x1 = 2
    cols = [{0: c(1)}, {0: c(2), 1: c(1)}]
    rhs = {0: c(1), 1: c(2)}
    xs = solve(cols, rhs, 3, 1)
    # substitute back: residual must vanish
    acc = {}
    for xj, col in zip(xs, cols):
        acc = vec_add_scaled(acc, col, xj)
    acc = vec_add_scaled(acc, rhs, c(-1))
    assert acc == {}


def test_solve_inconsistent_vs_zero():
    # 0*x = b is inconsistent; 1*x = 0 has the zero solution
    with pytest.raises(InconsistentSystem):
        solve([{}], {0: c(1)}, 3, 1)
    assert solve([{0: c(1)}], {}, 3, 1)[0].is_zero()


def test_solve_underdetermined_raises():
    with pytest.raises(ArithmeticError):
        solve([{0: c(1)}, {0: c(2)}], {0: c(1)}, 3, 1)


def test_intersection_example():
    # span{(1,0),(0,1)} ∩ span{(1,1)} = span{(1,1)}
    a = [{0: c(1)}, {1: c(1)}]
    b = [{0: c(1), 1: c(1)}]
    got = intersect_spans(a, b)
    assert got == [{0: c(1), 1: c(1)}]


def test_intersection_transverse_planes():
    # two 2-planes in 3-space meeting in a line
    a = [{0: c(1)}, {1: c(1)}]
    b = [{1: c(1)}, {2: c(1)}]
    got = intersect_spans(a, b)
    assert got == [{1: c(1)}]


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
            e.insert(dict(r))
        snapshot = [(pk, sorted(row.items()))
                    for pk, row in sorted(e.rows.items())]
        if reference is None:
            reference = snapshot
        assert snapshot == reference


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
            return base + x.scale(rng.randint(0, 1)) if k == 2 else base

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
            xs = solve(cols, rhs, p, 1)
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
    block 0 (dimension: rank minus the rank of the block-0 parts)."""
    x = x_poly()
    vecs = [{(0 if k in block0 else 1, k): c(v) * x if k % 2 else c(v)
             for k, v in d.items()} for d in vectors]
    ech = Echelon()
    for i, v in enumerate(vecs):
        inserted = vecs[:i + 1]
        assert ech.insert(v) == (rank(inserted) > rank(vecs[:i]))
        block1 = []
        for piv, row in ech.rows.items():
            assert piv == min(row) and row[piv].is_one()
            if piv[0] == 1:
                assert all(k[0] == 1 for k in row)
                block1.append(row)
        kept = list(ech.rows.values())
        assert rank(kept) == rank(inserted) == rank(kept + inserted)
        block0_parts = [{k: a for k, a in w.items() if k[0] == 0}
                        for w in inserted]
        assert len(block1) == rank(inserted) - rank(block0_parts)


def reduce_by_vec_add_scaled(ech, v):
    """Reference reduction: one fresh vector per pivot cleared."""
    for k in [k for k in v if k in ech.rows]:
        v = vec_add_scaled(v, ech.rows[k], -v[k])
    return dict(v)


sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 7), st.tuples(st.integers(1, 2),
                                                st.integers(0, 2)),
                    max_size=5), max_size=8)


def sparse_vec(d):
    """A sparse vector from a draw of sparse_vectors: entry (a, e) is
    a * (1, x or 1/(x + 1))[e] over F_3(x)."""
    x = x_poly()
    entries = (c(1), x, (x + c(1)).inverse())
    return {k: c(a) * entries[e] for k, (a, e) in d.items()}


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
        assert ech.reduce(v) == reduce_by_vec_add_scaled(ech, v)
        assert v == before


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
    them, and each is 1 at its smallest index."""
    eqs = [{j: a for j, a in sparse_vec(d).items() if j < n} for d in rows]
    kernel = nullspace(eqs, n, 3, 1)
    for lam in kernel:
        assert lam[min(lam)].is_one()
        for row in eqs:
            acc = c(0)
            for j, a in row.items():
                if j in lam:
                    acc = acc + a * lam[j]
            assert acc.is_zero()
    assert len(kernel) == rank(kernel) == n - rank(eqs)
