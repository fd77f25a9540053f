"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 30 \
        --trace 0 [--setup-only]

With --setup-only the worker imports pinsep.cli, builds the workload's
inputs and exits; run.py times that as set-up.  Otherwise it measures the
workload, checks every answer outside the timed region, and prints one
JSON object as its last line of standard output.

With --trace 1 the worker runs a fixed amount of work (a function of the
seed and --seconds only) twice on the same inputs: once plain, once with
the per-layer tracer installed.  Counts therefore repeat exactly, and the
ratio of the two busy times (summed op times) is the tracing overhead.
Spans go to perfbench/out/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# importing pinsep.cli is part of the set-up a user waits for
from pinsep import cli, invariants, report  # noqa: E402
from pinsep.linalg import InconsistentSystem, solve  # noqa: E402
from pinsep.subfields import Subfield, to_vector  # noqa: E402

import inputs  # noqa: E402

clock = time.perf_counter

EXPECTED = HERE / "expected"
GOLDEN = ROOT / "tests" / "golden"

# The corpus is the acceptance-test corpus: the first 200 accepted draws of
# the random-field distribution from seed 20240817, each with one fixed
# permutation of its generators.  The run's seed picks the order of each
# pass.
CORPUS_SEED = 20240817
CORPUS_SIZE = 200

# The membership pool: MEMBERSHIP_POOL elements per stage, drawn from
# MEMBERSHIP_SEED.
MEMBERSHIP_SEED = 1701
MEMBERSHIP_POOL = 64
TRACE_MEMBERSHIP_QUERIES = 150  # per second of --seconds, traced run

# After the first pass only ops faster than this many times the median op
# of that pass are repeated: the repeats go to the ops the gated median is
# made of.
REPEAT_BELOW_MEDIAN = 2

# The machine's speed drifts with its neighbours' load, by up to half again
# for a minute at a time, and every op slows with it.  So between ops, at
# least every REF_EVERY_S seconds, the worker times a fixed reference loop
# (reference() below), and an op's relative time is its wall time divided
# by the mean of the two reference times around it.  Each op keeps a
# uniform sample of at most REL_SAMPLE relative times over the whole run.
REF_EVERY_S = 0.1
REF_ITERS = 20000
REL_SAMPLE = 101
REF_TABLE = {i: (i * 2654435761) % 1000003 for i in range(1024)}

# name of the golden file -> CLI arguments (as scripts/make_goldens.py)
GOLDEN_COMMANDS = {
    "invariants_nonmodular_basic.json":
        ["--json", "invariants", "nonmodular_basic"],
    "invariants_modular_diag.json":
        ["--json", "family", "modular_diag", "invariants"],
    "invariants_exe1_3.json": ["--json", "invariants", "exe1:3"],
    "invariants_exe2_3.json": ["--json", "invariants", "exe2:3"],
    "invariants_exe4_3.json": ["--json", "invariants", "exe4:3"],
    "invariants_exe6_2.json": ["--json", "invariants", "exe6:2"],
    "utable_exe1_h3.json":
        ["--json", "utable", "exe1", "--horizon", "3", "--smax", "3"],
    "utable_modular_diag_h3.json":
        ["--json", "utable", "modular_diag", "--horizon", "3", "--smax", "2"],
    "parity_5.json": ["--json", "parity", "5"],
}

# metric name -> (CLI arguments, expected report stored beside the bench)
SCALE_COMMANDS = {
    "exe2_n4_s": (["--json", "family", "exe2", "invariants", "--n", "4"],
                  "family_exe2_invariants_n4.json"),
    "utable_h4_s": (["--json", "utable", "exe1", "--horizon", "4",
                     "--smax", "4", "--params", "n=4"],
                    "utable_exe1_h4_n4.json"),
}


def reference():
    """Fixed pure-Python work of dict lookups and integer arithmetic, about
    2 ms.  It allocates no containers, so it never runs the cyclic
    garbage collector on the ops' garbage."""
    table = REF_TABLE
    s = 0
    for i in range(REF_ITERS):
        s = (s * 31 + table[i & 1023]) % 1000003
    return s


def time_reference():
    t0 = clock()
    reference()
    return clock() - t0


class Outcome:
    """Timed ops, attempted checks and the failures among them.

    Only the span between start() and stop() is an op: it is timed, and a
    tracer, when given, records calls only inside it, so the checks that
    follow an op never show up in the per-layer counts.  Every op has a
    key.  Per key it keeps the fastest time and a bounded sample of
    relative times (see REF_EVERY_S), so the bookkeeping does not grow
    with the number of passes.  Call finish() after the last op.
    """

    def __init__(self, tracer=None):
        self.best = {}          # op key -> fastest seconds
        self.rel = {}           # op key -> sample of relative times
        self.rel_seen = {}      # op key -> relative times offered
        self.sampler = random.Random(0)
        self.pending = []       # (key, seconds) since the last reference
        self.ref_prev = time_reference()
        self.ref_at = clock()
        self.refs = 1           # reference loops timed
        self.repeats = 0        # timed runs of ops, all passes
        self.scale = {}         # towers scale command -> seconds
        self.busy = 0.0
        self.passes = 0
        self.cutoff = math.inf  # ops at least this slow are not repeated
        self.attempted = 0
        self.failures = []
        self.tracer = tracer
        self._t0 = 0.0

    def start(self):
        if self.tracer is not None:
            self.tracer.enabled = True
        self._t0 = clock()

    def stop(self, key, table=None):
        dur = clock() - self._t0
        if self.tracer is not None:
            self.tracer.enabled = False
        self.busy += dur
        if table is not None:
            table[key] = dur
            return
        self.repeats += 1
        if dur < self.best.get(key, math.inf):
            self.best[key] = dur
        self.pending.append((key, dur))
        if clock() - self.ref_at >= REF_EVERY_S:
            self.finish()

    def finish(self):
        """Time the reference loop and turn the ops since the last one
        into relative times."""
        ref = time_reference()
        self.ref_at = clock()
        self.refs += 1
        scale = (self.ref_prev + ref) / 2
        self.ref_prev = ref
        for key, dur in self.pending:
            n = self.rel_seen[key] = self.rel_seen.get(key, 0) + 1
            sample = self.rel.get(key)
            if sample is None:
                sample = self.rel[key] = array.array("d")
            if len(sample) < REL_SAMPLE:
                sample.append(dur / scale)
            else:
                j = self.sampler.randrange(n)
                if j < REL_SAMPLE:
                    sample[j] = dur / scale
        self.pending.clear()

    def wants(self, key):
        """Whether a pass should run op `key`: every op runs in the first
        pass, later passes only the ops faster than the cutoff."""
        return self.best.get(key, 0.0) < self.cutoff

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv):
    """cli.main on argv with stdout captured: (exit code, output)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


# ----------------------------------------------------------------------
# corpus: many small random fields
# ----------------------------------------------------------------------


class Corpus:
    """One op spans a field, builds its invariant and r-base reports, and
    re-spans it from a fixed permutation of its generators."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.fields = inputs.corpus_population(CORPUS_SEED, CORPUS_SIZE)
        perm_rng = random.Random(CORPUS_SEED + 1)
        self.perms = [tuple(perm_rng.sample(gens, len(gens)))
                      for _, gens in self.fields]
        self.expected = json.loads(
            (EXPECTED / "corpus.json").read_text(encoding="utf-8"))
        self.checked = set()    # fields whose first-visit checks ran

    def one_pass(self, out, order=None):
        if order is None:
            order = list(range(len(self.fields)))
            self.rng.shuffle(order)
        for i in order:
            if not out.wants(i):
                continue
            ctx, gens = self.fields[i]
            out.start()
            K = Subfield.span(ctx, gens)
            inv_rep = report.invariant_report(K)
            rb_rep = report.rbase_report(K)
            K2 = Subfield.span(ctx, self.perms[i])
            canon2 = invariants.canonical_rbase(K2)
            extract2 = invariants.rbase_extract(K2)
            out.stop(i)
            self._check(i, K, K2, inv_rep, rb_rep, canon2, extract2, out)

    def _check(self, i, K, K2, inv_rep, rb_rep, canon2, extract2, out):
        """Both reports match the expected ones on every visit; the first
        visit of a field also checks the permuted span and runs the
        oracle checks."""
        exp = self.expected[i]
        out.check(digest(report.to_json(inv_rep)) == exp["invariants"],
                  f"corpus field {i}: invariant report differs from expected")
        out.check(digest(report.to_json(rb_rep)) == exp["rbase"],
                  f"corpus field {i}: r-base report differs from expected")
        if i in self.checked:
            return
        self.checked.add(i)
        out.check(K2.degree_log == K.degree_log and K.contains_field(K2)
                  and K2.contains_field(K),
                  f"corpus field {i}: permuted generators span another field")
        out.check(list(canon2.exponents) == inv_rep["exponents"],
                  f"corpus field {i}: exponents change under permutation")
        out.check(len(extract2) == inv_rep["di"] == len(canon2),
                  f"corpus field {i}: r-base size disagrees with di")
        try:
            report.oracle_checks(K)
            ok = True
        except invariants.InternalInconsistency:
            ok = False
        out.check(ok, f"corpus field {i}: oracle checks disagree")

    def run(self, seconds, out):
        run_passes(self.one_pass, seconds, out)

    def fixed_work(self, seconds, out):
        """The traced run's work: 10 fields per second of --seconds, at
        most the whole corpus, in an order drawn from the seed."""
        order = list(range(len(self.fields)))
        random.Random(self.seed).shuffle(order)
        self.one_pass(out, order[:max(1, 10 * seconds)])


# ----------------------------------------------------------------------
# towers: the built-in families at their largest stages
# ----------------------------------------------------------------------


class Towers:
    """One op is one golden command through cli.main.  The two scale
    commands run once per run: at several seconds each they cannot be
    repeated often enough to time steadily, so they are printed, checked
    and traced, but are not ops."""

    def __init__(self, seed):
        self.goldens = {name: (GOLDEN / name).read_text(encoding="utf-8")
                        for name in GOLDEN_COMMANDS}
        self.expected = {
            metric: (EXPECTED / fname).read_text(encoding="utf-8")
            for metric, (_, fname) in SCALE_COMMANDS.items()}

    def one_pass(self, out):
        for name, argv in GOLDEN_COMMANDS.items():
            if not out.wants(name):
                continue
            out.start()
            rc, text = run_cli(argv)
            out.stop(name)
            out.check(rc == 0 and text == self.goldens[name],
                      f"towers: {name} differs from its golden (exit {rc})")

    def scale_runs(self, out):
        for metric, (argv, _) in SCALE_COMMANDS.items():
            out.start()
            rc, text = run_cli(argv)
            out.stop(metric, out.scale)
            out.check(rc == 0 and text == self.expected[metric],
                      f"towers: {' '.join(argv)} differs from expected "
                      f"(exit {rc})")

    def run(self, seconds, out):
        self.scale_runs(out)
        run_passes(self.one_pass, seconds, out)

    def fixed_work(self, seconds, out):
        """One pass and the scale commands, whatever --seconds says."""
        self.one_pass(out)
        self.scale_runs(out)


# ----------------------------------------------------------------------
# membership: the read path of the echelon, no inserts
# ----------------------------------------------------------------------


class Membership:
    """One op asks Subfield.member and Subfield.rel_exponent of one element.

    The query pool is fixed (drawn from MEMBERSHIP_SEED); the run's seed
    picks the order of each pass.  Every answer is compared with the one
    stored in expected/membership.json, and after the timed passes every
    stored answer is confirmed again by confirm_answer.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seed = seed
        self.stages, self.queries = inputs.membership_pool(
            MEMBERSHIP_SEED, MEMBERSHIP_POOL)
        self.expected = [tuple(a) for a in json.loads(
            (EXPECTED / "membership.json").read_text(encoding="utf-8"))]

    def _ask(self, qi, out):
        s, e, _ = self.queries[qi]
        K = self.stages[s][1]
        out.start()
        is_member = K.member(e)
        rel = K.rel_exponent(e)
        out.stop(qi)
        out.check((is_member, rel) == self.expected[qi],
                  f"membership {self.stages[s][0]} query {qi}: answer "
                  f"{(is_member, rel)}, expected {self.expected[qi]}")

    def one_pass(self, out, order=None):
        if order is None:
            order = list(range(len(self.queries)))
            self.rng.shuffle(order)
        for qi in order:
            if out.wants(qi):
                self._ask(qi, out)

    def run(self, seconds, out):
        run_passes(self.one_pass, seconds, out)
        self.confirm(out)

    def confirm(self, out):
        for qi, (s, e, built) in enumerate(self.queries):
            name, K = self.stages[s]
            ok, why = confirm_answer(K, e, built, *self.expected[qi])
            out.check(ok, f"membership {name} query {qi}: {why}")

    def fixed_work(self, seconds, out):
        """The traced run's work: 150 queries per second of --seconds, in
        an order drawn from the seed."""
        rng = random.Random(self.seed)
        todo = max(1, TRACE_MEMBERSHIP_QUERIES * seconds)
        while todo > 0:
            order = list(range(len(self.queries)))
            rng.shuffle(order)
            self.one_pass(out, order[:todo])
            todo -= len(order)
        self.confirm(out)


def in_span(K, a):
    """Whether a lies in K, decided by solving for its coordinates in the
    basis of K (a column solve, not a reduction against K's echelon)."""
    if a.level > K.level:
        return False
    try:
        solve(K.basis_vectors(), to_vector(a, K.level), K.ctx.p, K.ctx.nvars)
    except InconsistentSystem:
        return False
    return True


def confirm_answer(K, e, built, is_member, rel):
    """(ok, reason): check an answer by the independent route in_span.

    r = o(e/K) is right iff e^(p^r) lies in K and, for r >= 1, e^(p^(r-1))
    does not.  A k-combination of basis elements must be a member.
    """
    if is_member != (rel == 0):
        return False, "member and rel_exponent disagree"
    if built and not is_member:
        return False, "basis combination reported as not a member"
    if not in_span(K, e.frob(rel)):
        return False, f"e^(p^{rel}) has no coordinates in the basis of K"
    if rel and in_span(K, e.frob(rel - 1)):
        return False, f"e^(p^{rel - 1}) already lies in K"
    return True, ""


WORKLOADS = {"corpus": Corpus, "towers": Towers, "membership": Membership}


# ----------------------------------------------------------------------
# summary and entry point
# ----------------------------------------------------------------------


def run_passes(one_pass, seconds, out):
    """Start passes while the timed work has used less than `seconds`;
    always at least one."""
    while out.passes == 0 or out.busy < seconds:
        one_pass(out)
        out.passes += 1
        if out.passes == 1:
            out.cutoff = REPEAT_BELOW_MEDIAN * statistics.median(
                out.best.values())


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def summarize(out: Outcome) -> dict:
    """Op metrics: the gated op_p50_ref over each op's median relative
    time, the wall-clock ones over each op's fastest repeat."""
    out.finish()
    best = sorted(out.best.values())
    rel = sorted(statistics.median(v) for v in out.rel.values())
    res = {
        "ops": len(best),
        "timed_runs": out.repeats,
        "passes": out.passes,
        "refs": out.refs,
        "busy_s": out.busy,
        "ops_per_s": len(best) / sum(best),
        "op_p50_ref": percentile(rel, 0.50),
        "op_p50_ms": percentile(best, 0.50) * 1e3,
        "op_p90_ms": percentile(best, 0.90) * 1e3,
    }
    res.update(out.scale)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    out = Outcome()
    result = {}
    if args.trace:
        from layertrace import NOTE, Tracer

        first = Outcome()
        work.fixed_work(args.seconds, first)
        plain = first.busy
        tracer = Tracer()
        out = Outcome(tracer)
        tracer.install()
        try:
            work.fixed_work(args.seconds, out)
        finally:
            tracer.uninstall()
        traced = out.busy
        out.attempted += first.attempted
        out.failures += first.failures
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = (traced / plain, "ratio")
        result["layer"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in layer.items()}
        result["note"] = NOTE
        spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "plain_busy_s": plain, "traced_busy_s": traced})
    else:
        work.run(args.seconds, out)
    result.update(summarize(out))
    result["attempted"] = out.attempted
    result["failed"] = len(out.failures)
    result["failures"] = out.failures[:20]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
