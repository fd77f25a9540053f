"""Exact linear algebra: echelon rank, nullspace, solve, subspace intersection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pinsep.linalg import (Echelon, InconsistentSystem, intersect_spans,
                           nullspace, solve, vec_add_scaled)
from pinsep.polynomials import MultiPoly, RatFunc

from conftest import rank


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
def test_defective_rows_hold_no_pivotable_column(accepted, vectors):
    """After every insert, each defective row lives on rejected columns
    only (so a new pivot never reaches it), and the basis rows together
    with the defective rows span exactly what was inserted."""
    x = x_poly()
    vecs = [{k: c(v) * x if k % 2 else c(v) for k, v in d.items()}
            for d in vectors]
    ech = Echelon(pivot_ok=lambda k: k in accepted)
    for i, v in enumerate(vecs):
        ech.insert(v)
        for row in ech.defective:
            assert row and not any(k in accepted for k in row)
        kept = list(ech.rows.values()) + ech.defective
        assert rank(kept) == rank(vecs[:i + 1]) == rank(kept + vecs[:i + 1])


def reduce_by_vec_add_scaled(ech, v):
    """Reference reduction: one fresh vector per pivot cleared."""
    for k in [k for k in v if k in ech.rows]:
        v = vec_add_scaled(v, ech.rows[k], -v[k])
    return dict(v)


sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 7), st.tuples(st.integers(1, 2),
                                                st.integers(0, 2)),
                    max_size=5), max_size=8)


@given(sparse_vectors, sparse_vectors)
@settings(max_examples=100, deadline=None)
def test_reduce_in_place_matches_reference(basis, queries):
    """In-place reduce equals the vec_add_scaled reduction and leaves its
    argument alone; stored rows are never mutated by later inserts."""
    x = x_poly()
    entries = (c(1), x, (x + c(1)).inverse())

    def vec(d):
        return {k: c(a) * entries[e] for k, (a, e) in d.items()}

    ech = Echelon()
    stored = []
    for d in basis:
        ech.insert(vec(d))
        stored.extend((row, dict(row)) for row in ech.rows.values())
    for row, copy in stored:
        assert row == copy
    for d in queries:
        v = vec(d)
        before = dict(v)
        assert ech.reduce(v) == reduce_by_vec_add_scaled(ech, v)
        assert v == before
