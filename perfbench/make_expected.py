#!/usr/bin/env python3
"""Regenerate the expected outputs under perfbench/expected/.

The benchmark compares every run against these files.  Regenerate them
only after an intentional change of report output, then review the diff:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys

import worker
from pinsep import report
from pinsep.subfields import Subfield


def main() -> int:
    fields = []
    for ctx, gens in worker.inputs.corpus_population(worker.CORPUS_SEED,
                                                     worker.CORPUS_SIZE):
        K = Subfield.span(ctx, gens)
        fields.append({
            "invariants": worker.digest(report.to_json(report.invariant_report(K))),
            "rbase": worker.digest(report.to_json(report.rbase_report(K))),
        })
    (worker.EXPECTED / "corpus.json").write_text(
        json.dumps(fields, indent=1) + "\n", encoding="utf-8")
    print("wrote corpus.json")
    stages, queries = worker.inputs.membership_pool(worker.MEMBERSHIP_SEED,
                                                    worker.MEMBERSHIP_POOL)
    answers = []
    for qi, (s, e, built) in enumerate(queries):
        name, K = stages[s]
        answer = (K.member(e), K.rel_exponent(e))
        ok, why = worker.confirm_answer(K, e, built, *answer)
        if not ok:
            print(f"FAILED: membership {name} query {qi}: {why}",
                  file=sys.stderr)
            return 1
        answers.append(list(answer))
    (worker.EXPECTED / "membership.json").write_text(
        json.dumps(answers) + "\n", encoding="utf-8")
    print("wrote membership.json")
    for argv, fname in worker.SCALE_COMMANDS.values():
        rc, text = worker.run_cli(argv)
        if rc != 0:
            print(f"FAILED ({rc}): {' '.join(argv)}", file=sys.stderr)
            return rc
        (worker.EXPECTED / fname).write_text(text, encoding="utf-8")
        print(f"wrote {fname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
