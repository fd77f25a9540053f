"""Per-layer tracing of pinsep from outside the package.

The tracer wraps the public functions of each layer (the modules of
`src/pinsep`) in place, counts their calls and times them, and records a
span for each call: name, start, end and the id of the enclosing span.
Nothing under `src/` is edited; the wrappers replace every module binding
of a wrapped function (modules import functions by name, so e.g.
`invariants.to_vector` is the same object as `subfields.to_vector`) and
the class attribute of a wrapped method.

A span's self time is its duration minus the time covered by its child
spans.  The program is single-threaded and has no queue, so there is no
waiting time to report.

Calls into the `polynomials` kernels run into the millions per run; they
are counted and timed like every other function, and their time counts
as child time of the enclosing span, but they get no span record of
their own so the span list stays small.
"""

from __future__ import annotations

import importlib
import json
import time

# (metric name, module, attribute path, keeps span records)
TARGETS = (
    ("polynomials.MultiPoly.mul", "polynomials", "MultiPoly.__mul__", False),
    ("polynomials.RatFunc.mul", "polynomials", "RatFunc.__mul__", False),
    ("polynomials.RatFunc.add", "polynomials", "RatFunc.__add__", False),
    ("polynomials.mp_gcd", "polynomials", "mp_gcd", False),
    ("linalg.Echelon.insert", "linalg", "Echelon.insert", True),
    ("linalg.Echelon.reduce", "linalg", "Echelon.reduce", True),
    ("linalg.nullspace", "linalg", "nullspace", True),
    ("linalg.solve", "linalg", "solve", True),
    ("perfect.PerfElem.frob", "perfect", "PerfElem.frob", True),
    ("subfields.to_vector", "subfields", "to_vector", True),
    ("subfields.vec_mul", "subfields", "vec_mul", True),
    ("subfields.Subfield.member", "subfields", "Subfield.member", True),
    ("subfields.Subfield.adjoin", "subfields", "Subfield.adjoin", True),
    ("subfields.Subfield.frobenius_image", "subfields",
     "Subfield.frobenius_image", True),
    ("subfields.Subfield.truncation", "subfields", "Subfield.truncation", True),
    ("subfields.Subfield.degree_log_over_lifted_base", "subfields",
     "Subfield.degree_log_over_lifted_base", True),
    ("invariants.canonical_rbase", "invariants", "canonical_rbase", True),
    ("invariants.rp_chain", "invariants", "rp_chain", True),
    ("invariants.defining_equations", "invariants", "defining_equations", True),
    ("invariants.u_table", "invariants", "u_table", True),
    ("invariants.is_modular.criterion", "invariants",
     "_modular_by_criterion", True),
    ("invariants.is_modular.disjointness", "invariants",
     "_modular_by_disjointness", True),
    ("towers.TowerFamily.stage", "towers", "TowerFamily.stage", True),
    ("report.invariant_report", "report", "invariant_report", True),
    ("report.to_json", "report", "to_json", True),
    ("cli.main", "cli", "main", True),
)

MODULES = ("polynomials", "linalg", "perfect", "subfields", "invariants",
           "towers", "report", "cli", "exprs")

NOTE = ("single process, single thread, no queue: no waiting time exists, "
        "so none is reported")


class Tracer:
    """Counts, times and records spans of the TARGETS while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.total = [0.0] * len(TARGETS)
        self.self_time = [0.0] * len(TARGETS)
        self.active = [0] * len(TARGETS)    # recursion depth per function
        self.counters = {
            "polynomials.mp_gcd.monomial_arg": 0,
            "linalg.Echelon.insert.grew": 0,
            "linalg.Echelon.insert.dependent": 0,
            "linalg.Echelon.max_rows": 0,
            "subfields.Subfield.member.hits": 0,
        }
        self.enabled = False    # calls are recorded only while True
        self.spans = []         # (span id, parent id, name index, start, end)
        self._stack = []        # [span id or -1, child time] per open call
        self._next_id = 0
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"pinsep.{m}") for m in MODULES}
        mods["pinsep"] = importlib.import_module("pinsep")
        hooks = {
            "polynomials.mp_gcd": self._gcd_hook,
            "linalg.Echelon.insert": self._insert_hook,
            "subfields.Subfield.member": self._member_hook,
        }
        for idx, (name, mod, path, spans) in enumerate(TARGETS):
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(idx, orig, spans, hooks.get(name))
            if outer:
                self._set(owner, attr, wrapped)
            else:
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, idx, fn, keep_span, hook):
        clock = time.perf_counter
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        active, spans = self.active, self.spans
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if keep_span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = -1
            frame = [sid, 0.0]
            stack.append(frame)
            active[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[idx] -= 1
                dur = t1 - t0
                calls[idx] += 1
                if not active[idx]:
                    total[idx] += dur     # outermost activation only
                self_time[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    parent = -1
                    for f in reversed(stack):
                        if f[0] >= 0:
                            parent = f[0]
                            break
                    spans.append((sid, parent, idx, t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters -----------------------------------------------------

    def _gcd_hook(self, args, result):
        f, g = args[0], args[1]
        if f.is_monomial() or g.is_monomial():
            self.counters["polynomials.mp_gcd.monomial_arg"] += 1

    def _insert_hook(self, args, grew):
        c = self.counters
        c["linalg.Echelon.insert.grew" if grew
          else "linalg.Echelon.insert.dependent"] += 1
        rows = len(args[0])
        if rows > c["linalg.Echelon.max_rows"]:
            c["linalg.Echelon.max_rows"] = rows

    def _member_hook(self, args, hit):
        if hit:
            self.counters["subfields.Subfield.member.hits"] += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric: name -> (value, unit)."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.total_s"] = (self.total[i], "s")
            out[f"{name}.self_s"] = (self.self_time[i], "s")
        c = self.counters
        idx = self.names.index
        gcd_calls = self.calls[idx("polynomials.mp_gcd")]
        inserts = self.calls[idx("linalg.Echelon.insert")]
        members = self.calls[idx("subfields.Subfield.member")]
        out["polynomials.mp_gcd.monomial_arg_ratio"] = (
            _ratio(c["polynomials.mp_gcd.monomial_arg"], gcd_calls), "ratio")
        out["linalg.Echelon.insert.grew"] = (
            c["linalg.Echelon.insert.grew"], "count")
        out["linalg.Echelon.insert.dependent"] = (
            c["linalg.Echelon.insert.dependent"], "count")
        out["linalg.Echelon.insert.useful_ratio"] = (
            _ratio(c["linalg.Echelon.insert.grew"], inserts), "ratio")
        out["linalg.Echelon.max_rows"] = (c["linalg.Echelon.max_rows"], "count")
        out["subfields.Subfield.member.hit_ratio"] = (
            _ratio(c["subfields.Subfield.member.hits"], members), "ratio")
        return out

    def write(self, path, extra=None):
        """Write the metrics and every recorded span as one JSON document."""
        doc = {
            "note": NOTE,
            "unrecorded_spans": [t[0] for t in TARGETS if not t[3]],
            "metrics": {k: v for k, (v, _) in self.metrics().items()},
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "names": self.names,
            "spans": [list(s) for s in self.spans],
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0
