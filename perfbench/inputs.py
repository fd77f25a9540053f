"""Seeded input generators for the benchmark workloads.

They live beside the benchmark, not in the test suite, so that editing a
test fixture never moves the benchmark's inputs.  The corpus generator
follows the distribution of the random fields the acceptance tests use:
p in {2, 2, 2, 3}, 2 or 3 variables, 1 to 3 generators of level <= 2, and
the same level budget (6 for p = 2, 4 for p = 3).
"""

from __future__ import annotations

import random

from pinsep.perfect import Context
from pinsep.towers import family

VAR_NAMES = ("X", "Y", "Z")

# (family, params, stage) of the fields the membership queries run against
MEMBERSHIP_STAGES = (
    ("exe1", {}, 3),
    ("exe2", {}, 3),
    ("exe4", {}, 3),
    ("exe6", {}, 2),
    ("modular_diag", {}, 3),
    ("nonmodular_basic", {}, 1),
)


def random_element(ctx, rng, max_level=2, max_terms=3):
    """A random element of level <= max_level with a small polynomial body."""
    e = ctx.zero()
    for _ in range(rng.randint(1, max_terms)):
        t = ctx.const(rng.randint(1, ctx.p - 1))
        for v in ctx.variables:
            if rng.random() < 0.6:
                lvl = rng.randint(0, max_level)
                t = t * ctx.root_of_variable(v, lvl) ** rng.randint(1, 2)
        e = e + t
    return e


def random_field_gens(rng):
    """(ctx, generators) of one random field, or None if rejected.

    A draw is rejected when the summed generator levels exceed the budget
    (which bounds the degree) or when every generator lies in k (level 0),
    so every accepted draw spans a proper extension.
    """
    p = rng.choice([2, 2, 2, 3])
    nv = rng.randint(2, 3)
    ctx = Context(p, VAR_NAMES[:nv])
    ngens = rng.randint(1, 3)
    max_terms = 3 if p == 2 else 2
    budget = 6 if p == 2 else 4
    gens = [random_element(ctx, rng, max_level=2, max_terms=max_terms)
            for _ in range(ngens)]
    levels = [g.level for g in gens]
    if sum(levels) > budget or max(levels) == 0:
        return None
    return ctx, tuple(gens)


def corpus_population(seed, size):
    """The first `size` accepted draws from `seed`, as (ctx, generators).

    Drawing from seed 20240817 reproduces the acceptance-test corpus.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        drawn = random_field_gens(rng)
        if drawn is not None:
            out.append(drawn)
    return out


def membership_pool(seed, per_stage):
    """([(name, K)] for MEMBERSHIP_STAGES, [(stage index, element, built
    as a member)]) with `per_stage` queries per stage drawn from `seed`."""
    rng = random.Random(seed)
    stages, queries = [], []
    for s, (name, params, n) in enumerate(MEMBERSHIP_STAGES):
        K = family(name, **params).stage(n)
        stages.append((f"{name}:{n}", K))
        queries += [(s, e, built)
                    for e, built in membership_queries(K, rng, per_stage)]
    return stages, queries


def membership_queries(K, rng, count):
    """`count` pairs (element, built as a member) to test against K.

    About half are k-combinations of basis elements, so members by
    construction; the rest are random elements of level <= K.level.
    """
    basis = K.basis_elements()
    ctx = K.ctx
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            e = ctx.zero()
            for b in rng.sample(basis, min(len(basis), rng.randint(1, 3))):
                c = ctx.const(rng.randint(1, ctx.p - 1))
                for v in ctx.variables:
                    if rng.random() < 0.3:
                        c = c * ctx.variable(v) ** rng.randint(1, 2)
                e = e + c * b
            if e.is_zero():
                e = ctx.one()
            out.append((e, True))
        else:
            out.append((random_element(ctx, rng, max_level=K.level,
                                       max_terms=2), False))
    return out
