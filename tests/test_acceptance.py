"""Acceptance suite: the ten exit criteria, one test each, each printing a
PASS line with its measured runtime.  Run with `pytest -s` to see the tally.

All checks are exact (no tolerances); the runtime ceilings are generous
upper bounds from the criteria, asserted to catch pathological regressions.
"""

import random
import time

import pytest

from pinsep import invariants as inv
from pinsep.perfect import Context, PerfElem
from pinsep.subfields import Subfield
from pinsep.towers import family

from conftest import fields_equal


def announce(number, text, elapsed):
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {text}")


def section5():
    ctx = Context(2, ("X", "Y", "Z"))
    a1 = ctx.root_of_variable("X", 2)
    a2 = a1 * ctx.root_of_variable("Y", 1) + ctx.root_of_variable("Z", 1)
    return ctx, Subfield.span(ctx, (a1, a2))


def test_criterion_1_section5_invariants():
    """Canonical exponents (2,1), di = 2, non-modular with a coefficient
    witness, in under 5 seconds."""
    t0 = time.time()
    ctx, K = section5()
    base = inv.canonical_rbase(K)
    assert base.exponents == (2, 1)
    assert len(base) == 2
    verdict, witness = inv.is_modular(K, method="both")
    assert verdict is False
    assert witness["coefficient"] in ("Y", "Z")
    elapsed = time.time() - t0
    assert elapsed < 5
    announce(1, "section-5 field: exponents (2,1), di 2, non-modular "
                f"(witness {witness['coefficient']})", elapsed)


def test_criterion_2_defining_equations_exact():
    """alpha_2^2 = Y alpha_1^2 + Z recovered exactly: C_(0) = Z, C_(1) = Y."""
    t0 = time.time()
    ctx, K = section5()
    base = inv.canonical_rbase(K)
    eqs = inv.defining_equations(K)
    assert eqs[(2, (0,))].render() == "Z"
    assert eqs[(2, (1,))].render() == "Y"
    a1, a2 = base.elements
    assert a2.frob(1) == ctx.variable("Y") * a1.frob(1) + ctx.variable("Z")
    announce(2, "defining equation alpha2^2 = Y alpha1^2 + Z exact",
             time.time() - t0)


def test_criterion_3_modular_diag_truncation_degrees():
    """modular_diag(t=2, m=3) at p=2: [k_n : k] = 2^(2n) for n = 0..3."""
    t0 = time.time()
    fam = family("modular_diag", t=2, m=3)
    K = fam.stage(3)
    for n in range(4):
        assert K.truncation(n).degree_log == 2 * n
    elapsed = time.time() - t0
    assert elapsed < 10
    announce(3, "modular_diag truncations have degree p^(2n), n <= 3", elapsed)


def test_criterion_4_exe1_truncation_identity():
    """exe1 (p=2): k^(1/p^n) ∩ K_m = K_n for all 0 <= n <= m <= 3, by
    degree equality plus mutual membership."""
    t0 = time.time()
    fam = family("exe1", n=3)
    for m in range(4):
        big = fam.stage(m)
        for n in range(m + 1):
            lhs = big.truncation(n)
            rhs = fam.stage(n)
            assert lhs.degree_log == rhs.degree_log
            assert all(lhs.member(g) for g in rhs.gens)
            assert all(rhs.member(g) for g in lhs.gens)
    elapsed = time.time() - t0
    assert elapsed < 60
    announce(4, "exe1 truncations: k^(1/p^n) ∩ K_m = K_n for n <= m <= 3",
             elapsed)


def test_criterion_5_exe4_truncations():
    """exe4 (p=2): k_1 = k(X^(1/2)) and k_2 = k(X^(1/4), theta_1), by
    intersect-with-ambient versus predicted span."""
    t0 = time.time()
    fam = family("exe4", n=3)
    ctx = fam.ctx
    big = fam.stage(3)
    k1 = big.truncation(1)
    expected1 = Subfield.span(ctx, [ctx.root_of_variable("X", 1)])
    assert fields_equal(k1, expected1)
    theta1 = (ctx.root_of_variable("Y1", 1) * ctx.root_of_variable("X", 2)
              + ctx.root_of_variable("Z1", 1))
    k2 = big.truncation(2)
    expected2 = Subfield.span(ctx, [ctx.root_of_variable("X", 2), theta1])
    assert fields_equal(k2, expected2)
    elapsed = time.time() - t0
    assert elapsed < 60
    announce(5, "exe4 truncations k_1 = k(X^(1/2)), k_2 = k(X^(1/4), theta_1)",
             elapsed)


def test_criterion_6_modularity_method_agreement(acceptance_corpus):
    """Criterion and disjointness verdicts agree on >= 200 random fields
    (p in {2,3}, <= 3 variables, generator levels <= 2, <= 3 generators)."""
    t0 = time.time()
    assert len(acceptance_corpus) >= 200
    disagreements = []
    for i, K in enumerate(acceptance_corpus):
        v_criterion, _ = inv.is_modular(K, method="criterion")
        v_disjoint, _ = inv.is_modular(K, method="disjointness")
        if v_criterion != v_disjoint:
            disagreements.append(i)
    assert disagreements == []
    elapsed = time.time() - t0
    assert elapsed < 600
    announce(6, f"modularity methods agree on {len(acceptance_corpus)} "
                "random extensions", elapsed)


def test_criterion_7_rbase_invariance(acceptance_corpus):
    """Cardinality and exponent-list invariance under >= 10 random
    generator permutations per instance, on the same corpus."""
    t0 = time.time()
    rng = random.Random(555)
    for K in acceptance_corpus:
        expected_di = inv.di(K)
        expected_exps = inv.canonical_rbase(K).exponents
        gens = list(K.gens)
        for _ in range(10):
            rng.shuffle(gens)
            K2 = Subfield.span(K.ctx, tuple(gens))
            assert len(inv.rbase_extract(K2)) == expected_di
            assert inv.canonical_rbase(K2).exponents == expected_exps
    elapsed = time.time() - t0
    announce(7, f"r-base cardinality and exponent lists invariant under 10 "
                f"permutations x {len(acceptance_corpus)} fields", elapsed)


def test_criterion_8_parity_invariants():
    """For 1 <= n <= 1024: 2^(p1-1) <= n < 2^p1, 2^(p2-2) < n <= 2^(p2-1),
    p2 - p1 in {0,1} with equality exactly on powers of two."""
    t0 = time.time()
    for n in range(1, 1025):
        lengths = inv.parity_lengths(n)
        p1, p2 = lengths.lpi, lengths.lps
        assert 2 ** (p1 - 1) <= n < 2 ** p1
        assert 2 ** (p2 - 2) < n <= 2 ** (p2 - 1)
        assert p2 - p1 in (0, 1)
        assert (p2 == p1) == (n & (n - 1) == 0)
    elapsed = time.time() - t0
    assert elapsed < 1
    announce(8, "parity-length invariants hold for 1 <= n <= 1024", elapsed)


def test_criterion_9_utable_rows():
    """U-table monotonicity at horizon 3; modular_diag rows identically 0;
    exe1 row s equals s-1 for j >= s."""
    t0 = time.time()
    diag = inv.u_table(family("modular_diag", t=2, m=3), 3, 2)
    assert diag.entries == ((0, 0, 0), (0, 0, 0))
    exe1_table = inv.u_table(family("exe1", n=3), 3, 3)
    for s in range(1, 4):
        row = exe1_table.entries[s - 1]
        assert all(a <= b for a, b in zip(row, row[1:]))
        for j in range(s, 4):
            assert row[j - 1] == s - 1
    announce(9, "U-tables: rows monotone, modular_diag ≡ 0, exe1 row s = s-1",
             time.time() - t0)


def test_criterion_10_exe6_halving_truncation():
    """exe6 smoke check: k^(1/p) ∩ K = k(theta_1^1), brute-force
    truncation versus the predicted span, exactly."""
    t0 = time.time()
    fam = family("exe6", i_max=2, n_max=2)
    assert inv.truncation_formula_check(fam, 1)
    # the prediction is k(X^(1/2)) on the nose
    lhs = fam.stage(2).truncation(1)
    expected = Subfield.span(fam.ctx, [fam.ctx.root_of_variable("X", 1)])
    assert fields_equal(lhs, expected)
    elapsed = time.time() - t0
    assert elapsed < 300
    announce(10, "exe6: k^(1/p) ∩ K = k(theta_1^1) (brute force = predicted)",
             elapsed)
