"""Named tower families: generator schedules with machine-checkable claims.

Each family fixes its own context (prime and variable list) and exposes
stages K_0 ⊆ K_1 ⊆ ... as generator schedules.  Every property a family
is known to satisfy is packaged as a Claim whose `run` re-derives it with
the invariants machinery at a finite horizon; claims about infinite
unions are finite-horizon surrogates and say so.

Horizons are capped so that the variable count stays <= 7 and the stage
degrees stay around p^10 (exact linear algebra cost); each builder
documents and enforces its own cap.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from . import invariants as inv
from .invariants import HorizonInsufficient, parity_lengths
from .perfect import Context
from .subfields import Subfield


class NotConstructible(ValueError):
    """The family is catalogued but has no finite-level truncations."""


@dataclass(frozen=True)
class Claim:
    """One executable statement about a family at a finite horizon."""

    id: str
    description: str
    op: str               # invariants/subfields operation doing the work
    horizon: str
    surrogate: bool
    run: callable


class TowerFamily:
    """A generator schedule n -> stage K_n plus its documented claims."""

    def __init__(self, name, ctx, schedule, max_stage, params=None,
                 predicted=None, claims_builder=None, notes=""):
        self.name = name
        self.ctx = ctx
        self.params = dict(params or {})
        self.max_stage = max_stage
        self.notes = notes
        self._schedule = schedule
        self._predicted = predicted
        self._claims_builder = claims_builder
        self._stages = {}

    def generators(self, n: int):
        if not 0 <= n <= self.max_stage:
            raise HorizonInsufficient(
                f"{self.name} supports stages 0..{self.max_stage}, got {n}")
        return list(self._schedule(n))

    def stage(self, n: int) -> Subfield:
        if n not in self._stages:
            self._stages[n] = Subfield.span(self.ctx, self.generators(n))
        return self._stages[n]

    def predicted_truncation(self, s: int, n: int):
        if self._predicted is None:
            raise ValueError(f"{self.name} has no predicted truncation formula")
        return self._predicted(self, s, n)

    def claims(self):
        if self._claims_builder is None:
            return []
        return self._claims_builder(self)

    def describe(self):
        return {
            "name": self.name,
            "p": self.ctx.p,
            "variables": list(self.ctx.variables),
            "params": dict(self.params),
            "max_stage": self.max_stage,
            "notes": self.notes,
        }

    def __repr__(self):
        return f"TowerFamily({self.name}, params={self.params})"


# ----------------------------------------------------------------------
# modular_diag(t, m): K = k(x_1^(1/p^m), ..., x_t^(1/p^m))
# ----------------------------------------------------------------------


def modular_diag(t: int = 2, m: int = 3, p: int = 2) -> TowerFamily:
    if not 1 <= t <= 4:
        raise ValueError("modular_diag supports 1 <= t <= 4 variables")
    ctx = Context(p, tuple(f"X{i}" for i in range(1, t + 1)))
    ctx.check_level(m)

    def schedule(n):
        if n == 0:
            return []
        level = min(n, m)
        return [ctx.root_of_variable(v, level) for v in ctx.variables]

    def claims_builder(fam):
        def degrees():
            big = fam.stage(m)
            return all(big.truncation(n).degree_log == t * n
                       for n in range(m + 1))

        def equiexponential_truncations():
            big = fam.stage(m)
            for n in range(1, m + 1):
                ok, e = inv.is_equiexponential(big.truncation(n))
                if not ok or e != n:
                    return False
            return True

        return [
            Claim("diag_degrees", f"[k_n : k] = p^({t}*n) for n <= {m}",
                  "subfields.truncation", f"n <= {m}", False, degrees),
            Claim("diag_equiexponential",
                  "every truncation k_n is equiexponential of exponent n",
                  "invariants.is_equiexponential", f"n <= {m}", False,
                  equiexponential_truncations),
        ]

    return TowerFamily("modular_diag", ctx, schedule, m,
                       params={"t": t, "m": m, "p": p},
                       claims_builder=claims_builder,
                       notes="tensor product of t simple extensions of "
                             "exponent m; truncations have degree p^(t*n)")


# ----------------------------------------------------------------------
# nonmodular_basic: k(X^(1/p^2), X^(1/p^2) Y^(1/p) + Z^(1/p))
# ----------------------------------------------------------------------


def nonmodular_basic(p: int = 2) -> TowerFamily:
    ctx = Context(p, ("X", "Y", "Z"))
    alpha1 = ctx.root_of_variable("X", 2)
    alpha2 = (ctx.root_of_variable("X", 2) * ctx.root_of_variable("Y", 1)
              + ctx.root_of_variable("Z", 1))

    def schedule(n):
        return [] if n == 0 else [alpha1, alpha2]

    def claims_builder(fam):
        def exponents():
            return inv.canonical_rbase(fam.stage(1)).exponents == (2, 1)

        def not_modular():
            verdict, _ = inv.is_modular(fam.stage(1), method="both")
            return verdict is False

        return [
            Claim("exponent_list", "canonical exponents are (2, 1) and di = 2",
                  "invariants.canonical_rbase", "fixed field", False, exponents),
            Claim("not_modular", "the extension is not modular (both methods)",
                  "invariants.is_modular", "fixed field", False, not_modular),
        ]

    return TowerFamily("nonmodular_basic", ctx, schedule, 1,
                       params={"p": p},
                       claims_builder=claims_builder,
                       notes="smallest non-modular example: the defining "
                             "equation has coefficients outside K^p")


def _truncation_identity(fam):
    """k^(1/p^j) ∩ K_m = K_j for every j <= m <= max_stage."""
    return all(fam.stage(m).truncation(j) == fam.stage(j)
               for m in range(fam.max_stage + 1) for j in range(m + 1))


def _relative_perfection(fam, start):
    """k(K_{m+1}^p) = K_m for start <= m < max_stage."""
    return all(fam.stage(m + 1).frobenius_image(1) == fam.stage(m)
               for m in range(start, fam.max_stage))


# ----------------------------------------------------------------------
# exe1(n): X^(1/p^n) and a_j = Z_j^(1/p^(n-j)) X^(1/p^n) + Y_j^(1/p^(n-j))
# ----------------------------------------------------------------------


def exe1(n: int = 3, p: int = 2) -> TowerFamily:
    if not 2 <= n <= 4:
        raise ValueError("exe1 supports 2 <= n <= 4 (variable/degree caps)")
    names = ["X"]
    for j in range(1, n):
        names += [f"Y{j}", f"Z{j}"]
    ctx = Context(p, tuple(names))

    def gen(m, j):
        return (ctx.root_of_variable(f"Z{j}", m - j) * ctx.root_of_variable("X", m)
                + ctx.root_of_variable(f"Y{j}", m - j))

    def schedule(m):
        if m == 0:
            return []
        if m == 1:
            # finite-level stand-in for the inductive-limit stage K_1
            return [ctx.root_of_variable("X", 1)]
        return [ctx.root_of_variable("X", m)] + [gen(m, j) for j in range(1, m)]

    def claims_builder(fam):
        N = fam.max_stage

        def di_growth():
            return all(inv.di(fam.stage(m)) == m for m in range(N + 1))

        def power_recurrence():
            for m in range(2, N):
                for j in range(1, m):
                    if gen(m + 1, j).frob(1) != gen(m, j):
                        return False
            return True

        def z_independence():
            big = fam.stage(N)
            return not any(big.member(ctx.root_of_variable(f"Z{j}", 1))
                           for j in range(1, N))

        return [
            Claim("di_growth", f"di(K_m/k) = m for m <= {N} "
                  "(surrogate: di(K/k) is infinite in the limit)",
                  "invariants.di", f"m <= {N}", True, di_growth),
            Claim("truncation_identity",
                  "k^(1/p^j) ∩ K_m = K_j for j <= m (lq-finiteness witness)",
                  "subfields.truncation", f"j <= m <= {N}", False,
                  lambda: _truncation_identity(fam)),
            Claim("relative_perfection", "k(K_{m+1}^p) = K_m",
                  "subfields.frobenius_image", f"2 <= m < {N}", False,
                  lambda: _relative_perfection(fam, 2)),
            Claim("power_recurrence",
                  "(a_j at stage m+1)^p = (a_j at stage m), elementwise",
                  "perfect.frob", f"m < {N}", False, power_recurrence),
            Claim("z_independence",
                  "Z_j^(1/p) stays outside the top stage",
                  "subfields.member", f"j < {N}", False, z_independence),
        ]

    return TowerFamily("exe1", ctx, schedule, n, params={"n": n, "p": p},
                       claims_builder=claims_builder,
                       notes="lq-finite tower whose degree of irrationality "
                             "grows with the stage; stage 1 is the finite "
                             "stand-in k(X^(1/p)) for the limit stage")


# ----------------------------------------------------------------------
# exe2(n): theta_{m,i} rows with theta_{m,m} = Z_{m-1}^(1/p) theta_{m,m-1}
#          + Z_m^(1/p)
# ----------------------------------------------------------------------


def exe2(n: int = 3, p: int = 2) -> TowerFamily:
    if not 1 <= n <= 4:
        raise ValueError("exe2 supports 1 <= n <= 4 (variable/degree caps)")
    ctx = Context(p, ("X",) + tuple(f"Z{i}" for i in range(1, n + 1)))
    memo = {(1, 1): ctx.root_of_variable("X", 1)}

    def theta(m, i):
        if (m, i) not in memo:
            if i < m:
                memo[(m, i)] = theta(m - 1, i).frob(-1)
            else:
                memo[(m, m)] = (ctx.root_of_variable(f"Z{m-1}", 1) * theta(m, m - 1)
                                + ctx.root_of_variable(f"Z{m}", 1))
        return memo[(m, i)]

    def schedule(m):
        return [theta(m, i) for i in range(1, m + 1)] if m else []

    def claims_builder(fam):
        N = fam.max_stage

        def rbase_size():
            return all(len(inv.rbase_extract(fam.stage(m))) == m
                       for m in range(N + 1))

        return [
            Claim("truncation_identity",
                  "k^(1/p^j) ∩ K_m = K_j for j <= m", "subfields.truncation",
                  f"j <= m <= {N}", False, lambda: _truncation_identity(fam)),
            Claim("relative_perfection", "k(K_{m+1}^p) = K_m",
                  "subfields.frobenius_image", f"1 <= m < {N}", False,
                  lambda: _relative_perfection(fam, 1)),
            Claim("rbase_size", "the m-th stage has an r-base of size m "
                  "(surrogate: di grows without bound)",
                  "invariants.rbase_extract", f"m <= {N}", True, rbase_size),
        ]

    return TowerFamily("exe2", ctx, schedule, n, params={"n": n, "p": p},
                       claims_builder=claims_builder,
                       notes="lq-finite tower witnessing that lq-finiteness "
                             "is not transitive in the limit")


# ----------------------------------------------------------------------
# exe4(n): theta_i = Y_i^(1/p) X^(1/p^(i+1)) + Z_i^(1/p), plus X^(1/p^n)
# ----------------------------------------------------------------------


def exe4(n: int = 3, p: int = 2) -> TowerFamily:
    if not 1 <= n <= 4:
        raise ValueError("exe4 supports 1 <= n <= 4 (variable/degree caps)")
    names = ["X"]
    for i in range(1, n):
        names += [f"Y{i}", f"Z{i}"]
    ctx = Context(p, tuple(names))

    def theta(i):
        return (ctx.root_of_variable(f"Y{i}", 1) * ctx.root_of_variable("X", i + 1)
                + ctx.root_of_variable(f"Z{i}", 1))

    def schedule(m):
        if m == 0:
            return []
        return [ctx.root_of_variable("X", m)] + [theta(i) for i in range(1, m)]

    def claims_builder(fam):
        N = fam.max_stage

        def truncation_identity():
            big = fam.stage(N)
            return all(big.truncation(k) == fam.stage(k)
                       for k in range(N + 1))

        def rp_trend():
            # finite surrogate of rp(K/k) = k(X^(1/p^oo)): the first
            # Frobenius image of each stage still contains a deep X-root
            return all(fam.stage(m).frobenius_image(1)
                       .member(ctx.root_of_variable("X", m - 1))
                       for m in range(2, N + 1))

        return [
            Claim("truncation_identity",
                  "k_j = k(X^(1/p^j), theta_1, ..., theta_{j-1})",
                  "subfields.truncation", f"j <= {N}", False,
                  truncation_identity),
            Claim("rp_trend",
                  "k(K_m^p) contains X^(1/p^(m-1)) (surrogate: the "
                  "relatively perfect closure is k(X^(1/p^oo)))",
                  "subfields.frobenius_image", f"2 <= m <= {N}", True,
                  rp_trend),
        ]

    return TowerFamily("exe4", ctx, schedule, n, params={"n": n, "p": p},
                       claims_builder=claims_builder,
                       notes="lq-finite but not absolutely lq-finite; the "
                             "theta_i form an unbounded r-base over k(K^p)")


# ----------------------------------------------------------------------
# exe6(i_max, n_max): doubly indexed theta_i^n
# ----------------------------------------------------------------------


def exe6(i_max: int = 2, n_max: int = 2, p: int = 2) -> TowerFamily:
    if n_max < 1 or i_max < 1:
        raise ValueError("exe6 needs i_max, n_max >= 1")
    # stage j carries indices up to I_j; references theta_{2i}^{j-1} force
    # the doubling towards lower stages
    index_cap = {j: i_max * 2 ** (n_max - j) for j in range(1, n_max + 1)}
    names = ["X"]
    for j in range(2, n_max + 1):
        for i in range(1, index_cap[j] + 1):
            names += [f"Z{i}_{j}", f"Y{i}_{j}"]
    if len(names) > 7:
        raise ValueError(
            f"exe6({i_max}, {n_max}) needs {len(names)} variables; cap is 7")
    ctx = Context(p, tuple(names))
    memo = {}

    def theta(i, j):
        # theta_i^1 = X^(1/p^i), the canonical choice for the stage-1 roots
        if j == 1:
            return ctx.root_of_variable("X", i)
        if (i, j) not in memo:
            head = ctx.root_of_variable(f"Z{i}_{j}", 1) * theta(2 * i, j - 1)
            tail = ctx.root_of_variable(f"Y{i}_{j}", 1)
            if i == 1:
                memo[(i, j)] = head + tail
            else:
                memo[(i, j)] = head + theta(i - 1, j).frob(-1) + tail
        return memo[(i, j)]

    def schedule(m):
        gens = []
        for j in range(1, min(m, n_max) + 1):
            for i in range(1, index_cap[j] + 1):
                gens.append(theta(i, j))
        return gens

    def predicted(fam, s, k):
        lengths = parity_lengths(k)
        p1 = lengths.lpi
        if s + p1 > n_max:
            raise HorizonInsufficient(
                f"exe6 truncation (s={s}, n={k}) needs stage {s + p1}; "
                f"configured n_max is {n_max}")
        gens = list(fam.generators(s))
        for t in range(1, p1 + 1):
            idx = lengths.seq_lower[t - 1]
            if s + t > 1 and idx > index_cap[s + t]:
                raise HorizonInsufficient(
                    f"exe6 truncation (s={s}, n={k}) needs index {idx} at "
                    f"stage {s + t}; configured cap is {index_cap[s + t]}")
            gens.append(theta(idx, s + t))
        return gens

    def claims_builder(fam):
        def smoke():
            return inv.truncation_formula_check(fam, 1)

        def parity_step():
            return inv.truncation_formula_check(fam, 2) if n_max >= 2 else True

        return [
            Claim("halving_truncation_n1",
                  "k^(1/p) ∩ K = k(theta_1^1), brute force vs predicted span",
                  "invariants.truncation_formula_check", "n = 1", True, smoke),
            Claim("halving_truncation_n2",
                  "k^(1/p^2) ∩ K = k(theta_2^1, theta_1^2)",
                  "invariants.truncation_formula_check", "n = 2", True,
                  parity_step),
        ]

    fam = TowerFamily("exe6", ctx, schedule, n_max,
                      params={"i_max": i_max, "n_max": n_max, "p": p},
                      predicted=predicted, claims_builder=claims_builder,
                      notes="absolutely lq-finite example; truncations are "
                            "governed by the parity-length halving sequences")
    return fam


def exe3(*_args, **_kwargs):
    raise NotConstructible(
        "exe3 (K_n generated by X_i^(1/p^i) for i >= n) needs unboundedly "
        "many variables at every truncation and supports no finite-level "
        "claim; it is catalogued but not constructible")


FAMILIES = {
    "modular_diag": modular_diag,
    "nonmodular_basic": nonmodular_basic,
    "exe1": exe1,
    "exe2": exe2,
    "exe4": exe4,
    "exe6": exe6,
    "exe3": exe3,
}


def family(name: str, **params) -> TowerFamily:
    """Instantiate a built-in family by name."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    builder = FAMILIES[name]
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValueError(f"family {name!r}: {exc}") from None
    return builder(**params)
