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
from .subfields import InternalInconsistency, Subfield, to_vector


@dataclass(frozen=True)
class RBase:
    """An r-base of K/k; ordered variants carry the exponent list.

    For a canonically ordered r-base the exponents are the invariants
    o_1(K/k) >= o_2(K/k) >= ... of K/k.
    """

    elements: tuple
    exponents: tuple = None

    def __len__(self):
        return len(self.elements)


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
    return K.degree_log - K.frobenius_image(1).degree_log


def canonical_rbase(K: Subfield) -> RBase:
    """K.greedy_rbase() as an RBase, built once per field and kept on K.
    Its exponent list (o_1(K/k), o_2(K/k), ...) does not depend on the
    choices made, and is checked here to be non-increasing.
    """

    def build():
        elements, exponents = tuple(zip(*K.greedy_rbase())) or ((), ())
        if any(a < b for a, b in zip(exponents, exponents[1:])):
            raise InternalInconsistency("canonical exponent list increased")
        return RBase(elements, exponents)

    return K.memo("canonical_rbase", build)


def exponents_by_di(K: Subfield, s: int) -> int:
    """o_s(K/k) as inf{m : di(k(K^(p^m))/k) < s}; cross-check oracle.

    Returns 0 when s exceeds di(K/k), matching the convention o_i = 0
    for i past the r-base size.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    m = 0
    while True:
        if (K.frobenius_image(m).degree_log
                - K.frobenius_image(m + 1).degree_log) < s:
            return m
        m += 1


# ----------------------------------------------------------------------
# Defining equations and modularity
# ----------------------------------------------------------------------


def _lambda_exponents(exponents, j, p):
    """The exponent box for the j-th defining equation (1-based, j >= 2)."""
    ranges = [range(p ** (exponents[t] - exponents[j - 1]))
              for t in range(j - 1)]
    return [tuple(eps) for eps in itertools.product(*ranges)]


def defining_equations(K: Subfield, B: RBase) -> dict:
    """Coefficients C of alpha_j^(p^m_j) = sum_eps C[(j, eps)] * w_eps.

    w_eps runs over the monomials (alpha_1, ..., alpha_{j-1})^(p^m_j * eps)
    with eps in the box {0 <= eps_t < p^(m_t - m_j)}; the coefficients are
    the unique elements of k expressing the relation, solved exactly, and
    are returned as level-0 PerfElem.
    """
    if B.exponents is None:
        raise ValueError("defining equations need an ordered r-base")
    p = K.ctx.p
    out = {}
    for j in range(2, len(B) + 1):
        m_j = B.exponents[j - 1]
        powers = [B.elements[t].frob(m_j) for t in range(j - 1)]
        rhs_elem = B.elements[j - 1].frob(m_j)
        monomials = []
        box = _lambda_exponents(B.exponents, j, p)
        for eps in box:
            w = K.ctx.one()
            for t, e_t in enumerate(eps):
                if e_t:
                    w = w * powers[t] ** e_t
            monomials.append(w)
        level = max([w.level for w in monomials] + [rhs_elem.level])
        cols = [to_vector(w, level) for w in monomials]
        rhs = to_vector(rhs_elem, level)
        try:
            coeffs = solve(cols, rhs, p, K.ctx.nvars)
        except (InconsistentSystem, ArithmeticError) as exc:
            raise InternalInconsistency(
                f"defining equation {j} has no unique solution: {exc}") from exc
        for eps, c in zip(box, coeffs):
            out[(j, eps)] = PerfElem(K.ctx, 0, c)
    return out


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
    eqs = defining_equations(K, B)
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


def _modular_by_disjointness(K: Subfield):
    for n in range(1, K.level + 1):
        lifted = K.degree_log_over_lifted_base(n)
        # K ⊆ A_e with e = K.level, so k(K^(p^(e-n))) ⊆ K ∩ A_n = k_n;
        # and a k_n-basis of K spans k^(1/p^n)(K) over k^(1/p^n).  Hence
        # lifted <= log_p [K : k_n] <= upper, and equal bounds settle n.
        upper = K.degree_log - K.frobenius_image(K.level - n).degree_log
        if upper == lifted:
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

    The chain is returned from k(K^p) through the first repeated term
    (the stabilization witness); for finite-exponent K the final term is
    always k.  For K = k the chain is just [k].
    """
    chain = []
    prev = K
    j = 1
    while True:
        current = K.frobenius_image(j)
        chain.append(current)
        if current.degree_log == prev.degree_log:
            break
        prev = current
        j += 1
    return chain


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

    def row(self, s):
        return self.entries[s - 1]


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


def truncation_formula_check(family, s: int, n: int) -> bool:
    """Check K_s^(1/p^n) ∩ K = (predicted span) on a family at finite level.

    The left side is computed by brute force: a plain truncation for
    s = 0, and intersection with the lifted field K_s^(1/p^n) otherwise
    (the lift multiplies degrees by p^(nu*n), so s >= 1 only suits small
    chunks).  The right side is the span the family predicts.
    """
    predicted = family.predicted_truncation(s, n)
    big = family.stage(family.max_stage)
    if s == 0:
        lhs = big.truncation(n)
    else:
        lhs = family.stage(s).perfect_lift(n).intersect(big)
    return lhs == Subfield.span(family.ctx, predicted)
