"""Deterministic exact linear algebra over the rational function field.

Vectors are sparse dicts mapping hashable, totally ordered column keys to
RatFunc entries.  The single engine is a reduced row echelon basis with a
fixed pivot rule: the pivot of a row is its smallest column in the fixed
key order, rows are processed in input order, and every pivot column is
eliminated from all other rows.  The reduced basis of a subspace is
therefore canonical: it depends only on the spanned subspace, never on
the order in which generating vectors were inserted.

Column keys must sort consistently; tuples of ints (monomials) and tagged
tuples are what the callers use.
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
    """Mutable reduced row echelon basis over sparse RatFunc vectors.

    pivot_ok, when given, restricts which columns may serve as pivots;
    rows whose support shrinks to non-pivotable columns are collected in
    self.defective (read by nullspace, solve, intersect_spans, truncation).

    A row dict is never mutated once it is stored: clearing a new pivot
    from a row replaces the row with a new dict.  Two echelons may
    therefore share row dicts, and a reduced basis can seed a larger one
    by copying its `rows` mapping.
    """

    def __init__(self, pivot_ok=None):
        self.rows = {}            # pivot_key -> row_dict, pivot entry 1
        self.pivot_ok = pivot_ok
        self.defective = []       # reduced rows with no pivotable support

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
        """Reduce v and add it to the basis; True iff the span grew.  A
        defective row holds only columns that pivot_ok rejects, so it never
        holds the new pivot and is left as it is."""
        r = self.reduce(v)
        if not r:
            return False
        candidates = [k for k in r if self.pivot_ok is None or self.pivot_ok(k)]
        if not candidates:
            self.defective.append(r)
            return False
        piv = min(candidates)
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


def nullspace(rows, n_unknowns, p, nvars):
    """Nullspace basis of the system sum_j row[j]*x_j = 0 for each row.

    rows are sparse dicts {j: RatFunc}; unknown indices are 0..n-1.
    Returned vectors are sparse dicts, each normalized so its smallest
    unknown index carries coefficient 1; ordering is deterministic.
    """
    # augment each unknown's "column vector" with a tag coordinate; rows of
    # the transposed system that reduce to pure tags are kernel combinations
    eqs = Echelon(pivot_ok=lambda k: k[0] == 0)
    cols = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols.setdefault(j, {})[(0, i)] = c
    out = []
    for j in range(n_unknowns):
        v = cols.get(j, {})
        v = dict(v)
        v[(1, j)] = RatFunc.one(p, nvars)
        before = len(eqs.defective)
        eqs.insert(v)
        for r in eqs.defective[before:]:
            out.append({k[1]: c for k, c in r.items()})
    normed = []
    for v in out:
        lead = min(v)
        inv = v[lead].inverse()
        normed.append({k: c * inv for k, c in v.items()})
    normed.sort(key=lambda v: min(v))
    return normed


def solve(columns, rhs, p, nvars):
    """Solve sum_j x_j * columns[j] = rhs exactly.

    columns is a list of sparse vectors, rhs a sparse vector.  Returns the
    list [x_0, ..., x_{n-1}] of RatFunc when the solution exists and is
    unique; raises InconsistentSystem when no solution exists and
    ArithmeticError when the solution is not unique.
    """
    eqs = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            eqs.setdefault(key, {})[j] = c
    for key, c in rhs.items():
        eqs.setdefault(key, {})["rhs"] = c
    ech = Echelon(pivot_ok=lambda k: k != "rhs")
    for key in sorted(eqs):
        row = eqs[key]
        if "rhs" in row:
            row = dict(row)
            row["rhs"] = -row["rhs"]
        ech.insert(row)
    for r in ech.defective:
        if r:
            raise InconsistentSystem("no solution")
    if len(ech) < len(columns):
        raise ArithmeticError("solution is not unique")
    zero = RatFunc.zero(p, nvars)
    xs = [zero] * len(columns)
    for piv, row in ech.rows.items():
        val = row.get("rhs", zero)
        xs[piv] = -val
    return xs


def intersect_spans(rows_a, rows_b):
    """Canonical reduced basis of span(rows_a) ∩ span(rows_b).

    Zassenhaus augmentation: rows of a enter as [v | v], rows of b as
    [v | 0]; combinations whose left half vanishes have their right half
    in the intersection.  The collected vectors can be dependent (a b-row
    lying in the span of a plus earlier b-rows), so they are re-reduced
    into a fresh echelon before returning.
    """
    ech = Echelon(pivot_ok=lambda k: k[0] == 0)
    for v in rows_a:
        aug = {(0, k): c for k, c in v.items()}
        aug.update({(1, k): c for k, c in v.items()})
        ech.insert(aug)
    found = Echelon()
    for v in rows_b:
        aug = {(0, k): c for k, c in v.items()}
        before = len(ech.defective)
        ech.insert(aug)
        for r in ech.defective[before:]:
            vec = {k[1]: c for k, c in r.items()}
            if vec:
                found.insert(vec)
    return found.basis_rows()
