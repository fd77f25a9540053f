#!/usr/bin/env python3
"""Survey every built-in family: stage invariants, claims, and U-tables.

This is the one-stop reproduction driver for the worked examples:

    python scripts/run_families.py [--json]

With --json, stdout is a sequence of JSON reports (invariants with the
oracle section, claims, U-table) and the closing summary goes to stderr.
"""

import argparse
import sys
from pathlib import Path

# the checkout's sources, ahead of any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pinsep import report as rpt  # noqa: E402
from pinsep.towers import family  # noqa: E402

SURVEY = [
    ("nonmodular_basic", {}, None),
    ("modular_diag", {"t": 2, "m": 3}, (3, 2)),
    ("exe1", {"n": 3}, (3, 3)),
    ("exe2", {"n": 3}, (3, 3)),
    ("exe4", {"n": 3}, (3, 2)),
    ("exe6", {"i_max": 2, "n_max": 2}, None),
]


def run(as_json: bool) -> int:
    emit = rpt.to_json if as_json else rpt.to_text
    failures = 0
    for name, params, utable in SURVEY:
        fam = family(name, **params)
        K = fam.stage(fam.max_stage)
        print(emit(rpt.invariant_report(K, name=f"{name}:{fam.max_stage}",
                                        oracle=True)))
        claims = rpt.claims_report(fam)
        failures += sum(not c["passed"] for c in claims["claims"])
        print(emit(claims))
        if utable:
            horizon, smax = utable
            print(emit(rpt.utable_report(fam, horizon, smax)))
        print()
    if failures:
        print(f"{failures} claim(s) FAILED", file=sys.stderr)
        return 1
    # under --json, stdout holds only the JSON reports
    print("all documented claims hold at their horizons",
          file=sys.stderr if as_json else sys.stdout)
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.exit(run(args.json))
