"""Finite-level invariants of purely inseparable extensions.

r-bases and the degree of irrationality, canonically ordered r-bases with
their exponent lists, defining equations, modularity (by the coefficient
criterion and by linear disjointness), equiexponentiality, relatively
perfect closure chains, U-tables, and the lower/upper parity lengths.

All procedures are deterministic: ties in the greedy r-base completion
are broken by generator index, and every linear solve uses the fixed
pivot rule of the linalg module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import InconsistentSystem, solve
from .perfect import PerfElem
from .polynomials import MultiPoly, RatFunc
from .subfields import (InternalInconsistency, RBase, Subfield, to_vector,
                        vec_mul)


# ----------------------------------------------------------------------
# r-bases and di
# ----------------------------------------------------------------------


def rbase_extract(K: Subfield) -> RBase:
    """An r-base of K/k taken from K's generators in order (unordered).

    The walk starts from k(K^p) and keeps each generator that enlarges
    the field reached so far, until that field is K.  Its size is checked
    against di(K) = log_p [K : k(K^p)]; a mismatch, or a walk that does
    not reach K, is a bug and raises InternalInconsistency.
    """
    current = K.frobenius_image(1)
    kept = []
    for g in K.gens:
        if current.degree_log == K.degree_log:
            break
        nxt = current.adjoin(g)
        if nxt is not current:
            kept.append(g)
            current = nxt
    if current.degree_log != K.degree_log:
        raise InternalInconsistency(
            "r-base extraction: K.gens does not generate K over k(K^p)")
    if len(kept) != di(K):
        raise InternalInconsistency(
            f"r-base extraction found {len(kept)} elements, expected {di(K)}")
    return RBase(tuple(kept))


def di(K: Subfield) -> int:
    """Degree of irrationality di(K/k) = log_p [K : k(K^p)]."""
    return K.degree_log - K.degree_log_over_lifted_base(1)


def canonical_rbase(K: Subfield) -> RBase:
    """K.greedy_rbase(), the one RBase kept on K.  Its exponent list
    (o_1(K/k), o_2(K/k), ...), checked by the span that recorded it not
    to increase, does not depend on the choices made."""
    return K.greedy_rbase()


def exponents_by_di(K: Subfield, s: int) -> int:
    """o_s(K/k) as inf{m : di(k(K^(p^m))/k) < s}; cross-check oracle.

    Returns 0 when s exceeds di(K/k), matching the convention o_i = 0
    for i past the r-base size.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    m = 0
    while True:
        if (K.degree_log_over_lifted_base(m)
                - K.degree_log_over_lifted_base(m + 1)) < s:
            return m
        m += 1


# ----------------------------------------------------------------------
# Defining equations and modularity
# ----------------------------------------------------------------------


def _box_columns(ctx, level, powers, sizes):
    """(vector, D) for each w_eps = prod powers[t]^eps_t, eps in the box
    {0 <= eps_t < sizes[t]} in itertools.product order: the vec_mul
    product of the powers' level-`level` vectors, so the coordinates of
    D*w_eps with D = prod d_t^eps_t, d_t the denominator of powers[t]
    read in x (to_vector's scale)."""
    one = MultiPoly.one(ctx.p, ctx.nvars)
    unit = {(0,) * ctx.nvars: one}
    cols = [(unit, one)]
    for a, size in zip(powers, sizes):
        if size == 1:       # eps_t = 0 only
            continue
        v, d = to_vector(a, level), a.body.den
        steps = [(unit, one)]
        for _ in range(1, size):
            w, dw = steps[-1]
            steps.append((vec_mul(ctx, level, w, v), dw * d))
        cols = [(vec_mul(ctx, level, w, s), dw * ds)
                for w, dw in cols for s, ds in steps]
    return cols


def defining_equations(K: Subfield) -> dict:
    """Coefficients C of alpha_j^(p^m_j) = sum_eps C[(j, eps)] * w_eps.

    alpha_j and m_j are the elements and exponents of K.greedy_rbase().
    w_eps runs over the monomials (alpha_1, ..., alpha_{j-1})^(p^m_j * eps)
    with eps in the box {0 <= eps_t < p^(m_t - m_j)}; the coefficients are
    the unique elements of k expressing the relation, solved exactly, and
    are returned as level-0 PerfElem.  The columns are the vec_mul
    products of the powers' vectors at the solve level, the coordinates
    of D*w_eps with D the product of the powers' denominators read in x;
    to_vector gives those of d*alpha_j^(p^m_j), d its own denominator.
    So the solve finds C*d/D, and each C is that times D/d.  They are
    solved once per field and kept on K (the modularity criterion and
    the r-base report both ask), so the returned dict is shared and
    must not be changed.
    """

    def solve_all():
        B = K.greedy_rbase()
        ctx = K.ctx
        p = ctx.p
        out = {}
        for j in range(2, len(B) + 1):
            m_j = B.exponents[j - 1]
            sizes = [p ** (o - m_j) for o in B.exponents[:j - 1]]
            powers = [a.frob(m_j) for a in B.elements[:j - 1]]
            rhs_elem = B.elements[j - 1].frob(m_j)
            level = max(a.level for a in [*powers, rhs_elem])
            cols = _box_columns(ctx, level, powers, sizes)
            rhs = to_vector(rhs_elem, level)
            try:
                coeffs = solve([v for v, _ in cols], rhs, p, ctx.nvars)
            except (InconsistentSystem, ArithmeticError) as exc:
                raise InternalInconsistency(
                    f"defining equation {j} has no unique solution: "
                    f"{exc}") from exc
            d = rhs_elem.body.den
            box = itertools.product(*map(range, sizes))
            for eps, (_, D), c in zip(box, cols, coeffs):
                if D != d:
                    c = RatFunc(c.num * D, c.den * d)
                out[(j, eps)] = PerfElem(ctx, 0, c)
        return out

    return K.memo("defining_equations", solve_all)


def is_modular(K: Subfield, method: str = "both"):
    """Modularity of K/k; returns (verdict, witness).

    criterion: every defining-equation coefficient C must lie in
    k ∩ K^(p^m_j), tested as C^(1/p^m_j) in K via the Frobenius
    isomorphism.  disjointness: for each 1 <= n <= o_1(K/k), K and
    k^(1/p^n) must be linearly disjoint over k_n, tested by the degree
    identity [k^(1/p^n)(K) : k^(1/p^n)] = [K : k_n], whose left side is
    [k(K^(p^n)) : k] through the n-th power of Frobenius.  With
    e = o_1(K/k), k(K^(p^(e-n))) ⊆ k_n bounds [K : k_n] by
    [K : k(K^(p^(e-n)))], so k_n is computed only at the n where that
    bound exceeds the left side.  With method "both" the two verdicts
    must agree, and the criterion's result, witness included, is
    returned.
    """
    if method not in ("criterion", "disjointness", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method == "disjointness":
        return _modular_by_disjointness(K)
    result = _modular_by_criterion(K)
    if method == "both":
        other = _modular_by_disjointness(K)
        if result[0] != other[0]:
            raise InternalInconsistency(
                f"modularity methods disagree on {K!r}: criterion {result}, "
                f"disjointness {other}")
    return result


def _modular_by_criterion(K: Subfield):
    B = canonical_rbase(K)
    eqs = defining_equations(K)
    for (j, eps), c in sorted(eqs.items()):
        if c.body.is_const():
            continue
        m_j = B.exponents[j - 1]
        if not K.member(c.frob(-m_j)):
            text = c.render()
            witness = {
                "method": "criterion",
                "j": j,
                "eps": eps,
                "coefficient": text,
                "reason": f"{text} not in K^(p^{m_j})",
            }
            return False, witness
    return True, None


def frobenius_bounds(K: Subfield, n: int):
    """(lifted, upper): log_p [k(K^(p^n)) : k] = log_p [A_n(K) : A_n] and
    log_p [K : k(K^(p^(e-n)))], e = K.level.  A k_n-basis of K spans
    A_n(K) over A_n = k^(1/p^n), and K ⊆ A_e gives k(K^(p^(e-n))) ⊆
    K ∩ A_n = k_n, so lifted <= log_p [K : k_n] <= upper."""
    lifted = K.degree_log_over_lifted_base(n)
    return lifted, K.degree_log - K.degree_log_over_lifted_base(K.level - n)


def _modular_by_disjointness(K: Subfield):
    for n in range(1, K.level + 1):
        lifted, upper = frobenius_bounds(K, n)
        if upper == lifted:     # equal bounds settle n
            continue
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


def is_equiexponential(K: Subfield):
    """(verdict, e): K/k equiexponential of exponent e.

    Equivalent to the canonical exponent list being constant, i.e. the
    degree test [K : k] = p^(e * di) with e = o_1(K/k).
    """
    B = canonical_rbase(K)
    if not B.elements:
        return True, 0
    e = B.exponents[0]
    verdict = all(m == e for m in B.exponents)
    degree_test = K.degree_log == e * len(B)
    if verdict != degree_test:
        raise InternalInconsistency("equiexponential degree test disagrees")
    return (verdict, e) if verdict else (False, None)


# ----------------------------------------------------------------------
# Relatively perfect chain
# ----------------------------------------------------------------------


def rp_chain(K: Subfield):
    """The descending chain k(K^p) ⊇ k(K^(p^2)) ⊇ ... down to rp(K/k).

    By Pickert's theorem [k(K^(p^j)) : k] = p^(sum of max(o_i - j, 0)),
    so the chain falls strictly to k at j = o_1(K/k), K's level, and is
    returned through its first repeated term k, at j = o_1(K/k) + 1.
    For K = k it is just [k].  Its degrees alone are
    K.degree_log_over_lifted_base(j), which makes no field.
    """
    return [K.frobenius_image(j) for j in range(1, K.level + 2)]


# ----------------------------------------------------------------------
# U-tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UTable:
    """U[s][j] = j - o_s(k_j/k) for 1 <= s <= s_max, 1 <= j <= horizon.

    Boundedness of a row is unknowable at a finite horizon, so the table
    only reports per-row sups at the horizon plus which rows were still
    growing at the last step; ilqm_lower_bound is the first such row (or
    None), and e_at_horizon the sup over the rows that look bounded.
    """

    horizon: int
    s_max: int
    entries: tuple          # entries[s-1][j-1]
    row_sups: tuple
    growing_rows: tuple     # rows with U[s][horizon] > U[s][horizon-1]
    ilqm_lower_bound: int
    e_at_horizon: int


def u_table(family, horizon: int, s_max: int) -> UTable:
    """Tabulate U_s^j on the truncation fields of a tower family."""
    if horizon < 1 or s_max < 1:
        raise ValueError(f"u_table needs horizon >= 1 and s_max >= 1, "
                         f"got horizon={horizon}, s_max={s_max}")
    exps = {}
    for j in range(1, horizon + 1):
        k_j = family.stage(horizon).truncation(j)
        exps[j] = canonical_rbase(k_j).exponents
    entries = []
    for s in range(1, s_max + 1):
        row = []
        for j in range(1, horizon + 1):
            o_s = exps[j][s - 1] if s <= len(exps[j]) else 0
            row.append(j - o_s)
        for a, b in zip(row, row[1:]):
            if b < a:
                raise InternalInconsistency(
                    f"U-table row {s} decreased: {row}")
        entries.append(tuple(row))
    row_sups = tuple(max(row) for row in entries)
    growing = tuple(s for s in range(1, s_max + 1)
                    if horizon >= 2 and entries[s - 1][-1] > entries[s - 1][-2])
    ilqm = growing[0] if growing else None
    bounded_sups = [row_sups[s - 1] for s in range(1, s_max + 1)
                    if s not in growing]
    e_at_horizon = max(bounded_sups) if bounded_sups else 0
    return UTable(horizon, s_max, tuple(entries), row_sups, growing,
                  ilqm, e_at_horizon)


# ----------------------------------------------------------------------
# Parity lengths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParityLengths:
    """Lower and upper parity lengths of n with their halving sequences.

    Invariants: 2^(lpi-1) <= n < 2^lpi, 2^(lps-2) < n <= 2^(lps-1),
    and lps - lpi is 0 exactly when n is a power of two, else 1.
    """

    n: int
    lpi: int
    lps: int
    seq_lower: tuple
    seq_upper: tuple


def parity_lengths(n: int) -> ParityLengths:
    """Evaluate both halving recurrences for n >= 1.

    Lower: n_1 = n, n_{s+1} = floor(n_s / 2), length = first index with
    value 1.  Upper: n'_1 = n rounded up to even, n'_{s+1} = round-up
    half, length = first index with value 1; n = 1 is the degenerate case
    where the sequence starts at 1 already, keeping the power-of-two
    equivalence lps(n) = lpi(n) exact.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    lower = [n]
    while lower[-1] != 1:
        lower.append(lower[-1] // 2)
    if n == 1:
        upper = [1]
    else:
        upper = [n if n % 2 == 0 else n + 1]
        while upper[-1] != 1:
            upper.append((upper[-1] + 1) // 2)
    return ParityLengths(n, len(lower), len(upper), tuple(lower), tuple(upper))


# ----------------------------------------------------------------------
# Truncation formulas
# ----------------------------------------------------------------------


class HorizonInsufficient(ValueError):
    """A check needs a larger family horizon; the message says how much."""


def truncation_formula_check(family, n: int) -> bool:
    """Check k^(1/p^n) ∩ K = (predicted span) on a family at finite level.

    The left side is the truncation k_n of the top stage, computed by
    brute force; the right side is the span the family predicts for the
    base stage s = 0.
    """
    predicted = family.predicted_truncation(0, n)
    lhs = family.stage(family.max_stage).truncation(n)
    return lhs == Subfield.span(family.ctx, predicted)
