#!/usr/bin/env python3
"""Survey every built-in family: stage invariants, claims, and U-tables.

This is the one-stop reproduction driver for the worked examples:

    python scripts/run_families.py [--json]
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
    failures = 0
    for name, params, utable in SURVEY:
        fam = family(name, **params)
        K = fam.stage(fam.max_stage)
        rep = rpt.invariant_report(K, name=f"{name}:{fam.max_stage}",
                                   oracle=True)
        print(rpt.to_json(rep) if as_json else rpt.to_text(rep))
        for claim in fam.claims():
            ok = claim.run()
            failures += not ok
            tag = "PASS" if ok else "FAIL"
            surrogate = " [surrogate]" if claim.surrogate else ""
            print(f"  {tag} {claim.id}{surrogate}: {claim.description}")
        if utable:
            horizon, smax = utable
            table = rpt.utable_report(fam, horizon, smax)
            print(rpt.to_json(table) if as_json else rpt.to_text(table))
        print()
    if failures:
        print(f"{failures} claim(s) FAILED", file=sys.stderr)
        return 1
    print("all documented claims hold at their horizons")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.exit(run(args.json))
