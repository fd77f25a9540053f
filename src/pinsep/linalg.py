"""Deterministic exact linear algebra over the rational function field.

A vector is a sparse dict mapping hashable, totally ordered column keys
to nonzero MultiPoly entries, and it stands for its line over k = F_p(x):
a vector and its multiples by nonzero elements of k are the same line.
Arithmetic on vectors runs over F_p[x], and no vector carries a
denominator.

The single engine is a reduced row echelon basis with one pivot rule:
the pivot of a row is its smallest column in the key order, and every
pivot column is eliminated from all other rows.  A stored row is
canonical: its entries share no common factor and its entry at the
pivot is monic.  Its value is each entry divided by the pivot entry, so
it is 1 at its pivot.  Each line has exactly one canonical row, so the
reduced basis of a subspace is canonical: it depends only on the
spanned subspace, never on the order in which generating vectors were
inserted.  Elimination against a row whose pivot entry is 1 runs no gcd.

`kernel` reads every answer that needs some columns kept from pivoting,
and is the only code that tags keys: one part of each inserted vector
(0, k), the other (1, k).  Tuples compare on their first element, so a
row pivots in block 1 only when its block-0 part is gone.  Kernels,
intersections and truncations call it.  `solve` keeps its own augmented
read: unknown j keyed by the int j, the right side by n, the number of
unknowns.
"""

from __future__ import annotations

from .polynomials import MultiPoly, RatFunc, mp_content, mp_exact_div, mp_gcd


class InconsistentSystem(ArithmeticError):
    """A linear solve hit an inconsistent equation (distinct from x = 0)."""


def _eliminate(out: dict, k, row: dict):
    """Clear column k of the vector `out` with `row`, in place.

    row is canonical with pivot k; let d = row[k].  With c = out[k] and
    h = gcd(c, d), out becomes out*(d/h) - (c/h)*row, which is d/h times
    the remainder, and column k cancels.  Dividing by h keeps a long
    reduction from carrying every pivot entry it meets.  When d = 1 no
    gcd runs and nothing is scaled.
    """
    c = out.pop(k)
    f = row[k]
    if not f.is_one():
        h = mp_gcd(c, f)
        if not h.is_one():
            c, f = mp_exact_div(c, h), mp_exact_div(f, h)
        if not f.is_one():
            for col, val in out.items():
                out[col] = val * f
    c = -c
    for col, val in row.items():
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


def _canonical(v: dict, piv, bound=None) -> dict:
    """The canonical row of v's line with pivot piv: v with its entries'
    common factor divided out and the entry at piv made monic.  A caller
    that knows a divisor of v[piv] which the common factor divides
    passes it as `bound`, and the gcds start from it; a constant bound
    means there is no common factor.  v itself is returned when it is
    already that row."""
    lead = v[piv]
    if lead.is_one():
        return v
    out = v
    g = lead if bound is None else bound
    if not g.is_const():
        g = mp_content((val for val in v.values() if val is not lead), g)
        if not g.is_one():
            out = {k: mp_exact_div(val, g) for k, val in v.items()}
            lead = out[piv]
    _, lc = lead.leading()
    if lc != 1:
        inv = pow(lc, lead.p - 2, lead.p)
        out = {k: val.scale(inv) for k, val in out.items()}
    return out


def _clear_pivot(row: dict, pk, piv, r: dict) -> dict:
    """Canonical row pk after clearing column piv with the new row r.

    With e = row[pk], c = row[piv], d = r[piv] and h = gcd(c, d), the row
    becomes row*(d/h) - (c/h)*r, whose entry at pk is e*(d/h), as r is 0
    there.  A factor common to all its entries shares nothing with d/h
    (it would divide every entry of r, against r being canonical), so it
    divides e: when e = 1 the row is canonical as it stands.
    """
    out = dict(row)
    _eliminate(out, piv, r)
    return _canonical(out, pk, row[pk])


class Echelon:
    """Mutable reduced row echelon basis of sparse vectors; the pivot of
    each row is its smallest column, and each row is canonical.

    A row is never mutated once it is stored: clearing a new pivot from a
    row replaces the row with a new dict.  Two echelons may therefore
    share rows, and `insert` stores a vector as given when it is already
    canonical and holds no pivot column.  A reduced basis seeds a larger
    echelon through `from_reduced`, without being inserted again.

    `support` is the set of columns where some vector of the span is
    nonzero.  It is the union of the keys of any spanning set, so of the
    rows, and `insert` keeps it exact by adding the keys of each new
    row.  A vector with a nonzero entry outside it is not in the span.
    Callers must not change it, as they must not change a stored row.
    """

    def __init__(self):
        self.rows = {}            # pivot_key -> canonical row
        self.support = set()

    @classmethod
    def from_reduced(cls, rows: dict) -> "Echelon":
        """The echelon whose rows are `rows` (pivot -> row), taken over as
        they are.  They must already be a reduced basis of canonical rows:
        each pivoted on its smallest column and 0 at every other row's
        pivot.  The support is read off them once."""
        ech = cls()
        ech.rows = rows
        ech.support = set().union(*rows.values())
        return ech

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """A multiple of v's remainder after eliminating every pivot
        column present; the remainder is a line, so the factor over k
        does not matter.

        Every row is zero at the other rows' pivots, so clearing one pivot
        neither brings in another nor changes v's entry there: one pass
        over the pivots present in v clears them all, on one copy of v.
        A row whose pivot entry is 1 runs no gcd.  A v that holds no
        pivot is its own remainder and is returned itself, not copied;
        the caller must not change the result.
        """
        rows = self.rows
        hits = [k for k in v if k in rows]
        if not hits:
            return v
        out = dict(v)
        for k in hits:
            _eliminate(out, k, rows[k])
        return out

    def insert(self, v: dict):
        """Reduce v and add it to the basis.  Returns the canonical row
        it stores, the very dict, or None when v lies in the span.

        The new row and every row it changes are made canonical once; a
        later insert may replace the stored row, never change it.  v is
        handed over: a v that holds no pivot column and is already
        canonical is stored as it is, so the caller must not change v
        afterwards.  v itself is never mutated.
        """
        r = self.reduce(v)
        if not r:
            return None
        piv = min(r)
        r = _canonical(r, piv)
        # keep the basis fully reduced: clear the new pivot from every
        # row that holds it; only a column in the support can sit in a
        # stored row, so a pivot outside it needs no probe
        rows = self.rows
        if piv in self.support:
            for pk, row in rows.items():
                if piv in row:
                    rows[pk] = _clear_pivot(row, pk, piv, r)
        self.support.update(r)
        rows[piv] = r
        return r

    def member(self, v: dict) -> bool:
        return not self.reduce(v)

    def basis_rows(self):
        """The rows in increasing pivot order."""
        return [self.rows[k] for k in sorted(self.rows)]


def kernel(pairs):
    """Canonical reduced basis of {sum c_i*b_i : sum c_i*a_i = 0} over
    the pairs of vectors (a_i, b_i), in increasing pivot order.

    Each pair enters one echelon as one vector, a's keys tagged (0, k)
    and b's (1, k).  A row pivots in block 1 only when its a-part is
    gone, so those rows span that space, and with the tags stripped
    they are reduced and canonical.
    """
    ech = Echelon()
    for a, b in pairs:
        v = {(0, k): c for k, c in a.items()}
        v.update({(1, k): c for k, c in b.items()})
        ech.insert(v)
    return [{k[1]: c for k, c in ech.rows[piv].items()}
            for piv in sorted(ech.rows) if piv[0] == 1]


def nullspace(rows, n_unknowns, p, nvars):
    """Nullspace basis of the system sum_j row[j]*x_j = 0 for each row,
    the rows keyed by the unknowns 0..n-1: the kernel of the pairs
    (column j, e_j), as canonical rows in increasing pivot order.
    """
    one = MultiPoly.one(p, nvars)
    cols = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols.setdefault(j, {})[i] = c
    return kernel((cols.get(j, {}), {j: one}) for j in range(n_unknowns))


def solve(columns, rhs, p, nvars):
    """Solve sum_j x_j * columns[j] = rhs exactly, entry by entry, for
    the polynomial entries the vectors hold.

    columns is a list of vectors, rhs a vector.  Returns the list
    [x_0, ..., x_{n-1}] of RatFunc when the solution exists and is
    unique; raises InconsistentSystem when no solution exists and
    ArithmeticError when the solution is not unique.  Scaling columns[j]
    by a factor in k divides x_j by it and scaling rhs multiplies every
    x_j by it; neither changes consistency or uniqueness.
    """
    # one equation per key: unknown j keyed j, the right side n, after
    # them all; the row pivoted at j states x_j * row[j] = row[n]
    n = len(columns)
    eqs = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            eqs.setdefault(key, {})[j] = c
    for key, c in rhs.items():
        eqs.setdefault(key, {})[n] = c
    ech = Echelon()
    for key in sorted(eqs):
        ech.insert(eqs[key])
    if n in ech.rows:
        raise InconsistentSystem("no solution")
    if len(ech) < n:
        raise ArithmeticError("solution is not unique")
    xs = [RatFunc.zero(p, nvars)] * n
    for j, row in ech.rows.items():
        z = row.get(n)
        if z is not None:
            xs[j] = RatFunc(z, row[j])
    return xs


def intersect_spans(rows_a, rows_b):
    """Canonical reduced basis of span(rows_a) ∩ span(rows_b).

    Zassenhaus: the kernel of the pairs (v, v) for the rows a_i of a
    and (v, 0) for the rows b_j of b, as sum c_i*a_i + sum d_j*b_j = 0
    puts sum c_i*a_i in both spans.
    """
    return kernel([(v, v) for v in rows_a] + [(v, {}) for v in rows_b])
