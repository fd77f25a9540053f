"""Deterministic exact linear algebra over the rational function field.

A vector (Vec) is a sparse dict of polynomial numerators over one monic
denominator: it maps hashable, totally ordered column keys to nonzero
MultiPoly numerators, and its value at a key is that numerator over the
shared denominator.  Arithmetic on vectors runs over F_p[x]; a vector
need not be in lowest terms.  Elimination against a row whose
denominator is 1 runs no gcd.

The single engine is a reduced row echelon basis with one pivot rule:
the pivot of a row is its smallest column in the key order, and every
pivot column is eliminated from all other rows.  A stored row is
canonical: its numerator at the pivot equals its denominator, and no
factor is common to the denominator and all numerators.  Each vector
value has exactly one canonical form, so the reduced basis of a subspace
is canonical: it depends only on the spanned subspace, never on the
order in which generating vectors were inserted.

A caller that must keep some columns from pivoting tags the keys: (0, k)
for the columns that may pivot and (1, k) for the rest.  Tuples compare
on their first element, so a row pivots in block 1 only when it holds no
block-0 column; the rows pivoted in block 1 are a canonical reduced basis
of the inserted span's vectors that vanish on block 0.  Kernels,
intersections, truncations and inconsistent solves are read off them.
"""

from __future__ import annotations

from .polynomials import MultiPoly, RatFunc, mp_exact_div, mp_gcd


class InconsistentSystem(ArithmeticError):
    """A linear solve hit an inconsistent equation (distinct from x = 0)."""


class Vec:
    """Sparse vector over F_p(x): numerators {key: nonzero MultiPoly} over
    one monic denominator den.  Never mutated once made."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: MultiPoly):
        self.num = num
        self.den = den

    def __repr__(self):
        return f"Vec({self.num!r}, den={self.den!r})"


def _eliminate(out: dict, k, row: Vec) -> MultiPoly:
    """Clear column k of the numerators `out` with `row`, in place, and
    return the factor f their denominator takes.

    row is canonical with pivot k, so its numerator there is d = row.den.
    With c = out[k] and h = gcd(c, d), the numerators become
    out*(d/h) - (c/h)*row.num over a denominator f = d/h times larger;
    column k cancels.  Dividing by h keeps a long reduction from
    carrying every row denominator it meets.  When d = 1 no gcd runs and
    nothing is scaled.
    """
    c = out.pop(k)
    f = row.den
    if not f.is_one():
        h = mp_gcd(c, f)
        if not h.is_one():
            c, f = mp_exact_div(c, h), mp_exact_div(f, h)
        if not f.is_one():
            for col, val in out.items():
                out[col] = val * f
    c = -c
    for col, val in row.num.items():
        if col == k:
            continue
        s = out.get(col)
        if s is None:
            out[col] = val * c
        else:
            s = s + val * c
            if s.terms:
                out[col] = s
            else:
                del out[col]
    return f


def _canonical(v: Vec, piv, bound=None) -> Vec:
    """The canonical row of v's value scaled to 1 at piv: every numerator
    over num[piv], with their common factor divided out and the
    denominator made monic.  The denominator of v drops out.  A caller
    that knows a divisor of num[piv] which the common factor divides
    passes it as `bound`, and the gcds start from it; a constant bound
    means there is no common factor.  v itself is returned when it is
    already that row."""
    num = v.num
    lead = num[piv]
    if lead.is_one():
        return v if v.den.is_one() else Vec(num, lead)
    g = lead if bound is None else bound
    if not g.is_const():
        for val in num.values():
            if val is not lead:
                g = mp_gcd(g, val)
                if g.is_one():
                    break
        if not g.is_one():
            num = {k: mp_exact_div(val, g) for k, val in num.items()}
            lead = num[piv]
    _, lc = lead.leading()
    if lc != 1:
        inv = pow(lc, lead.p - 2, lead.p)
        num = {k: val.scale(inv) for k, val in num.items()}
        lead = num[piv]
    if num is v.num and (lead is v.den or lead == v.den):
        return v
    return Vec(num, lead)


def _clear_pivot(row: Vec, pk, piv, r: Vec) -> Vec:
    """Canonical row pk after clearing column piv with the new row r.

    With row = R/e, c = R[piv], r = N/d and h = gcd(c, d), the row becomes
    (R*(d/h) - (c/h)*N) / (e*(d/h)).  A factor common to that denominator
    and all numerators shares nothing with d/h (it would divide every
    N_j, against r being canonical), so it divides e: when e = 1 the row
    is canonical as it stands.
    """
    out = dict(row.num)
    f = _eliminate(out, piv, r)
    e = row.den
    return _canonical(Vec(out, e if f.is_one() else e * f), pk, e)


class Echelon:
    """Mutable reduced row echelon basis of sparse vectors; the pivot of
    each row is its smallest column, and each row is canonical.

    A Vec is never mutated once it is stored: clearing a new pivot from a
    row replaces the row with a new Vec.  Two echelons may therefore
    share rows, and `insert` stores a vector as given when it is already
    canonical and holds no pivot column.  A reduced basis seeds a larger
    echelon through `from_reduced`, without being inserted again.
    """

    def __init__(self):
        self.rows = {}            # pivot_key -> canonical row Vec

    @classmethod
    def from_reduced(cls, rows: dict) -> "Echelon":
        """The echelon whose rows are `rows` (pivot -> row), taken over as
        they are.  They must already be a reduced basis of canonical rows:
        each 1 at its pivot, its smallest column, and 0 at every other
        row's pivot."""
        ech = cls()
        ech.rows = rows
        return ech

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Remainder of v after eliminating every pivot column present.

        Every row is zero at the other rows' pivots, so clearing one pivot
        neither brings in another nor changes v's entry there: one pass
        over the pivots present in v clears them all, on one copy of v's
        numerators.  Only numerators are combined, and a row whose
        denominator is 1 runs no gcd.  A v that holds no pivot is its own
        remainder and is returned itself, not copied; the caller must not
        change the result.
        """
        rows = self.rows
        hits = [k for k in v.num if k in rows]
        if not hits:
            return v
        out = dict(v.num)
        den = v.den
        for k in hits:
            f = _eliminate(out, k, rows[k])
            if not f.is_one():
                den = den * f
        return Vec(out, den)

    def insert(self, v: Vec) -> bool:
        """Reduce v and add it to the basis; True iff the span grew.

        The new row and every row it changes are made canonical once.
        v is handed over: a v that holds no pivot column and is already
        canonical is stored as it is, so the caller must not change v
        afterwards.  v itself is never mutated.
        """
        r = self.reduce(v)
        if not r.num:
            return False
        piv = min(r.num)
        r = _canonical(r, piv)
        # keep the basis fully reduced: clear the new pivot everywhere
        rows = self.rows
        for pk, row in rows.items():
            if piv in row.num:
                rows[pk] = _clear_pivot(row, pk, piv, r)
        rows[piv] = r
        return True

    def member(self, v: Vec) -> bool:
        return not self.reduce(v).num

    def basis_rows(self):
        """The rows in increasing pivot order."""
        return [self.rows[k] for k in sorted(self.rows)]

    def block1_rows(self):
        """The rows pivoted in block 1 of tagged keys, in pivot order, with
        the tags stripped."""
        out = []
        for piv in sorted(self.rows):
            if piv[0] == 1:
                row = self.rows[piv]
                out.append(Vec({k[1]: c for k, c in row.num.items()}, row.den))
        return out


def nullspace(rows, n_unknowns, p, nvars):
    """Nullspace basis of the system sum_j row[j]*x_j = 0 for each row.

    rows are vectors keyed by unknown indices 0..n-1; an equation keeps
    its solutions when scaled, so only its numerators enter.  Returns the
    kernel's reduced basis as canonical vectors: each is 1 at its
    smallest unknown index and 0 at the others' smallest indices, and
    they come in increasing order of that index.
    """
    # unknown j enters as its column (0, i) -> rows[i][j] tagged with
    # (1, j) -> 1; the rows pivoted among the tags are kernel combinations
    one = MultiPoly.one(p, nvars)
    cols = {}
    for i, row in enumerate(rows):
        for j, c in row.num.items():
            cols.setdefault(j, {})[(0, i)] = c
    ech = Echelon()
    for j in range(n_unknowns):
        v = dict(cols.get(j, {}))
        v[(1, j)] = one
        ech.insert(Vec(v, one))
    return ech.block1_rows()


def solve(columns, rhs, p, nvars):
    """Solve sum_j x_j * columns[j] = rhs exactly.

    columns is a list of vectors, rhs a vector.  Returns the list
    [x_0, ..., x_{n-1}] of RatFunc when the solution exists and is
    unique; raises InconsistentSystem when no solution exists and
    ArithmeticError when the solution is not unique.
    """
    # With columns N_j/d_j and rhs N/d, the unknowns z_j = x_j*d/d_j solve
    # sum_j z_j N_j = N: one polynomial equation per key, unknown j at
    # (0, j) and the right side at (1, 0).
    one = MultiPoly.one(p, nvars)
    eqs = {}
    for j, col in enumerate(columns):
        for key, c in col.num.items():
            eqs.setdefault(key, {})[(0, j)] = c
    for key, c in rhs.num.items():
        eqs.setdefault(key, {})[(1, 0)] = c
    ech = Echelon()
    for key in sorted(eqs):
        ech.insert(Vec(eqs[key], one))
    if (1, 0) in ech.rows:
        raise InconsistentSystem("no solution")
    if len(ech) < len(columns):
        raise ArithmeticError("solution is not unique")
    zero = RatFunc.zero(p, nvars)
    xs = [zero] * len(columns)
    for (_, j), row in ech.rows.items():
        z = row.num.get((1, 0))
        if z is not None:
            xs[j] = RatFunc(z * columns[j].den, row.den * rhs.den)
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
        aug = {(0, k): c for k, c in v.num.items()}
        aug.update({(1, k): c for k, c in v.num.items()})
        ech.insert(Vec(aug, v.den))
    for v in rows_b:
        ech.insert(Vec({(0, k): c for k, c in v.num.items()}, v.den))
    return ech.block1_rows()
