"""Deterministic exact linear algebra over the rational function field.

Vectors are sparse dicts mapping hashable, totally ordered column keys to
RatFunc entries.  The single engine is a reduced row echelon basis with
one pivot rule: the pivot of a row is its smallest column in the key
order, and every pivot column is eliminated from all other rows.  The
reduced basis of a subspace is therefore canonical: it depends only on
the spanned subspace, never on the order in which generating vectors
were inserted.

A caller that must keep some columns from pivoting tags the keys: (0, k)
for the columns that may pivot and (1, k) for the rest.  Tuples compare
on their first element, so a row pivots in block 1 only when it holds no
block-0 column; the rows pivoted in block 1 are a canonical reduced basis
of the inserted span's vectors that vanish on block 0.  Kernels,
intersections, truncations and inconsistent solves are read off them.
"""

from __future__ import annotations

from .polynomials import RatFunc


class InconsistentSystem(ArithmeticError):
    """A linear solve hit an inconsistent equation (distinct from x = 0)."""


def vec_add_scaled(v: dict, w: dict, c: RatFunc) -> dict:
    """v + c*w, dropping exact zeros."""
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


class Echelon:
    """Mutable reduced row echelon basis over sparse RatFunc vectors; the
    pivot of each row is its smallest column.

    A row dict is never mutated once it is stored: clearing a new pivot
    from a row replaces the row with a new dict.  Two echelons may
    therefore share row dicts, and a reduced basis can seed a larger one
    by copying its `rows` mapping.
    """

    def __init__(self):
        self.rows = {}            # pivot_key -> row_dict, pivot entry 1

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """Remainder of v after eliminating every pivot column present.

        Every row is zero at the other rows' pivots, so clearing one pivot
        neither brings in another nor changes v's entry there: one pass
        over the pivots present in v clears them all, on one copy of v.
        """
        rows = self.rows
        out = dict(v)
        for k in [k for k in v if k in rows]:
            c = -out.pop(k)       # row k is 1 at k: that entry cancels
            for col, val in rows[k].items():
                if col == k:
                    continue
                s = out.get(col)
                if s is None:
                    out[col] = val * c
                else:
                    s = s + val * c
                    if s.is_zero():
                        del out[col]
                    else:
                        out[col] = s
        return out

    def insert(self, v: dict) -> bool:
        """Reduce v and add it to the basis; True iff the span grew."""
        r = self.reduce(v)
        if not r:
            return False
        piv = min(r)
        lead = r[piv]
        if not lead.is_one():     # r is reduce's own copy: scale in place
            inv = lead.inverse()
            for k, val in r.items():
                r[k] = val * inv
        # keep the basis fully reduced: clear the new pivot everywhere
        for pk, row in self.rows.items():
            c = row.get(piv)
            if c is not None:
                self.rows[pk] = vec_add_scaled(row, r, -c)
        self.rows[piv] = r
        return True

    def member(self, v: dict) -> bool:
        return not self.reduce(v)

    def basis_rows(self):
        """The rows in increasing pivot order."""
        return [self.rows[k] for k in sorted(self.rows)]

    def block1_rows(self):
        """The rows pivoted in block 1 of tagged keys, in pivot order, with
        the tags stripped."""
        return [{k[1]: c for k, c in self.rows[piv].items()}
                for piv in sorted(self.rows) if piv[0] == 1]


def nullspace(rows, n_unknowns, p, nvars):
    """Nullspace basis of the system sum_j row[j]*x_j = 0 for each row.

    rows are sparse dicts {j: RatFunc}; unknown indices are 0..n-1.
    Returns the kernel's reduced basis as sparse dicts: each vector is 1
    at its smallest unknown index and 0 at the others' smallest indices,
    and the vectors come in increasing order of that index.
    """
    # unknown j enters as its column (0, i) -> rows[i][j] tagged with
    # (1, j) -> 1; the rows pivoted among the tags are kernel combinations
    cols = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols.setdefault(j, {})[(0, i)] = c
    ech = Echelon()
    for j in range(n_unknowns):
        v = dict(cols.get(j, {}))
        v[(1, j)] = RatFunc.one(p, nvars)
        ech.insert(v)
    return ech.block1_rows()


def solve(columns, rhs, p, nvars):
    """Solve sum_j x_j * columns[j] = rhs exactly.

    columns is a list of sparse vectors, rhs a sparse vector.  Returns the
    list [x_0, ..., x_{n-1}] of RatFunc when the solution exists and is
    unique; raises InconsistentSystem when no solution exists and
    ArithmeticError when the solution is not unique.
    """
    # one equation per key: unknown j at (0, j), the right side at (1, 0)
    eqs = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            eqs.setdefault(key, {})[(0, j)] = c
    for key, c in rhs.items():
        eqs.setdefault(key, {})[(1, 0)] = c
    ech = Echelon()
    for key in sorted(eqs):
        ech.insert(eqs[key])
    if (1, 0) in ech.rows:
        raise InconsistentSystem("no solution")
    if len(ech) < len(columns):
        raise ArithmeticError("solution is not unique")
    zero = RatFunc.zero(p, nvars)
    xs = [zero] * len(columns)
    for (_, j), row in ech.rows.items():
        xs[j] = row.get((1, 0), zero)
    return xs


def intersect_spans(rows_a, rows_b):
    """Canonical reduced basis of span(rows_a) ∩ span(rows_b).

    Zassenhaus augmentation: rows of a enter as [v | v], rows of b as
    [v | 0], the left half tagged 0 and the right half 1.  A vector of
    the joint span whose left half vanishes has its right half in the
    intersection, so the rows pivoted in the right half are its basis.
    """
    ech = Echelon()
    for v in rows_a:
        aug = {(0, k): c for k, c in v.items()}
        aug.update({(1, k): c for k, c in v.items()})
        ech.insert(aug)
    for v in rows_b:
        ech.insert({(0, k): c for k, c in v.items()})
    return ech.block1_rows()
