"""Tower families: schedules, recurrences, claims, caps."""

import pytest

from pinsep import invariants as inv
from pinsep.invariants import HorizonInsufficient
from pinsep.perfect import Context
from pinsep.subfields import Subfield
from pinsep.towers import FAMILIES, NotConstructible, TowerFamily, family

from conftest import fields_equal, greedy_exponents_over


def test_registry_contents():
    assert set(FAMILIES) == {"modular_diag", "nonmodular_basic", "exe1",
                             "exe2", "exe4", "exe6", "exe3"}


def test_exe3_not_constructible():
    with pytest.raises(NotConstructible):
        family("exe3")


def test_unknown_family():
    with pytest.raises(KeyError):
        family("exe99")


def test_stage_monotone_all_families():
    for name, kw in [("modular_diag", {}), ("exe1", {"n": 3}),
                     ("exe2", {"n": 3}), ("exe4", {"n": 3}),
                     ("exe6", {"i_max": 2, "n_max": 2})]:
        fam = family(name, **kw)
        prev = fam.stage(0)
        for n in range(1, fam.max_stage + 1):
            cur = fam.stage(n)
            assert cur.contains_field(prev), (name, n)
            prev = cur


def test_stage_out_of_range():
    fam = family("exe1", n=3)
    with pytest.raises(HorizonInsufficient):
        fam.stage(4)


def test_horizon_caps():
    with pytest.raises(ValueError):
        family("exe1", n=7)
    with pytest.raises(ValueError):
        family("exe6", i_max=3, n_max=3)   # variable budget exceeded


def test_exe1_power_recurrence_elementwise():
    fam = family("exe1", n=3)
    ctx = fam.ctx
    for m in (2,):
        for j in range(1, m):
            upper = fam.generators(m + 1)[j]   # a_j at stage m+1
            lower = fam.generators(m)[j]
            assert upper.frob(1) == lower


def test_exe1_relative_perfection():
    fam = family("exe1", n=3)
    assert fields_equal(fam.stage(3).frobenius_image(1), fam.stage(2))


def test_exe1_stage_generators_are_rbase_over_previous_stage():
    # the stage-(m+1) generator family is an r-base of K_{m+1}/K_m
    fam = family("exe1", n=3)
    for m in (1, 2):
        over_prev = greedy_exponents_over(fam.stage(m + 1), fam.stage(m))
        assert len(over_prev) == m + 1


def test_exe1_z_independence():
    fam = family("exe1", n=3)
    K3 = fam.stage(3)
    for j in (1, 2):
        assert not K3.member(fam.ctx.root_of_variable(f"Z{j}", 1))


def test_exe2_recurrence_structure():
    fam = family("exe2", n=3)
    gens3 = fam.generators(3)
    gens2 = fam.generators(2)
    # theta_{3,i} = theta_{2,i}^(1/p) for i < 3
    assert gens3[0] == gens2[0].frob(-1)
    assert gens3[1] == gens2[1].frob(-1)
    # theta_{3,3} = Z2^(1/p) theta_{3,2} + Z3^(1/p)
    ctx = fam.ctx
    expected = (ctx.root_of_variable("Z2", 1) * gens3[1]
                + ctx.root_of_variable("Z3", 1))
    assert gens3[2] == expected


def test_exe2_truncation_identity():
    fam = family("exe2", n=3)
    K3 = fam.stage(3)
    for n in range(4):
        assert fields_equal(K3.truncation(n), fam.stage(n))


def test_exe4_truncations_match_schedule():
    fam = family("exe4", n=3)
    K3 = fam.stage(3)
    assert fields_equal(K3.truncation(1), fam.stage(1))
    assert fields_equal(K3.truncation(2), fam.stage(2))
    # k_2 = k(X^(1/4), theta_1) explicitly
    ctx = fam.ctx
    theta1 = (ctx.root_of_variable("Y1", 1) * ctx.root_of_variable("X", 2)
              + ctx.root_of_variable("Z1", 1))
    expected = Subfield.span(ctx, [ctx.root_of_variable("X", 2), theta1])
    assert fields_equal(K3.truncation(2), expected)


def test_exe6_first_stage_is_roots():
    fam = family("exe6", i_max=2, n_max=2)
    K1 = fam.stage(1)
    assert fields_equal(K1, Subfield.span(
        fam.ctx, [fam.ctx.root_of_variable("X", 4)]))


def test_exe6_relative_exponent_of_next_stage_generator():
    # theta_1^(j+1) has exponent 1 over K_j: its p-th power lands there
    fam = family("exe6", i_max=2, n_max=2)
    K1 = fam.stage(1)
    theta_12 = fam.generators(2)[-2]   # theta_1^2
    assert K1.rel_exponent(theta_12) == 1


def test_truncation_di_monotone():
    # di(L/k) <= di(K/k) along the truncation chain
    for name, kw in [("exe1", {"n": 3}), ("exe4", {"n": 3})]:
        fam = family(name, **kw)
        K = fam.stage(fam.max_stage)
        top = inv.di(K)
        for n in range(K.level + 1):
            assert inv.di(K.truncation(n)) <= top


def test_exe6_predicted_truncation_errors():
    fam = family("exe6", i_max=2, n_max=2)
    with pytest.raises(HorizonInsufficient):
        fam.predicted_truncation(0, 4)  # lpi(4) = 3 > n_max = 2
    with pytest.raises(HorizonInsufficient):
        fam.predicted_truncation(2, 1)  # s + lpi(1) > n_max


def test_all_builtin_claims_pass():
    for name, kw in [("modular_diag", {}), ("nonmodular_basic", {}),
                     ("exe1", {"n": 3}), ("exe2", {"n": 3}),
                     ("exe4", {"n": 3}), ("exe6", {"i_max": 2, "n_max": 2})]:
        fam = family(name, **kw)
        for claim in fam.claims():
            assert claim.run(), (name, claim.id)


def test_claims_reference_operations():
    fam = family("exe1", n=3)
    for claim in fam.claims():
        assert "." in claim.op           # module-qualified operation name
        assert claim.horizon
        assert isinstance(claim.surrogate, bool)


def test_custom_family_direct():
    ctx = Context(2, ("X", "Y"))
    fam = TowerFamily("diag", ctx,
                      lambda n: [ctx.root_of_variable("X", n)] if n else [],
                      3)
    assert fam.stage(2).degree_log == 2
    assert fam.stage(3).truncation(1).degree_log == 1
    with pytest.raises(ValueError):
        fam.predicted_truncation(0, 1)


def test_describe():
    fam = family("exe1", n=2)
    d = fam.describe()
    assert d["name"] == "exe1"
    assert d["params"]["n"] == 2
    assert d["max_stage"] == 2
