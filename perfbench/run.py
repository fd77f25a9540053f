#!/usr/bin/env python3
"""pinsep benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up is timed as the median wall time
of several fresh interpreters that import pinsep.cli and build the
workload's inputs, half of them before and half after one more fresh
interpreter that measures the workload for --seconds and checks every
answer.  With --trace 0 the last line of
standard output carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run (spans go to perfbench/out/).
Each process runs one thread; they run one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "towers", "membership")
SETUP_REPEATS = 10
DEADLINE_S = 170            # the whole run, set-up included


def child(args, seconds_left):
    """Run worker.py with args; (wall seconds, stdout).  Raises on failure."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, seconds_left))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: "
                           f"{' '.join(args)}")
    return wall, proc.stdout


def fmt(name, value, unit, note=""):
    return f"  {name:<14}{value:>14.6g} {unit:<6}{note}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pinsep" / "cli.py").is_file():
        print(f"error: no pinsep sources under {ROOT / 'src'}; run from the "
              "root of a pinsep checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            _, stdout = child(common + ["--trace", "1"], DEADLINE_S)
        else:
            # half the set-ups run before the measuring process and half
            # after it, so that one slow spell of the machine, which can
            # last tens of seconds, sways fewer of them
            setups = []
            for i in range(SETUP_REPEATS + 1):
                left = DEADLINE_S - (time.perf_counter() - start)
                if i == SETUP_REPEATS // 2:
                    _, stdout = child(common + ["--trace", "0"], left)
                else:
                    wall, _ = child(common + ["--setup-only"], left)
                    setups.append(wall)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(stdout.strip().splitlines()[-1])

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        print(f"workload {args.workload}, seed {args.seed}, traced: "
              f"{res['timed_runs']} timed op runs, made once plain and then "
              "once traced")
    else:
        print(f"workload {args.workload}, seed {args.seed}: {res['ops']} ops "
              f"timed {res['timed_runs']} times in {res['passes']} passes; "
              "op_p50_ref is the median op's time over the reference "
              "loop's, the ms are fastest repeats")
    for msg in res["failures"]:
        print(f"  FAILED: {msg}")
    print(fmt("failed_ratio", failed / attempted if attempted else 1.0,
              "ratio", f"  ({failed} of {attempted} checks failed)"))
    if args.trace:
        print(f"  note: {res['note']}")
        metrics = res["layer"]
        for name, m in metrics.items():
            print(f"  {name:<56}{m['value']:>14.6g} {m['unit']}")
    else:
        n = res["ops"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ref": {"value": res["op_p50_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        notes = {
            "setup_s": f"  (median of {len(setups)} fresh interpreters)",
            "op_p50_ref": f"  (n = {n}; {res['refs']} reference loops)",
            "peak_rss_mb": "  (ru_maxrss of the measuring process)",
        }
        for name, m in metrics.items():
            print(fmt(name, m["value"], m["unit"], notes[name]))
        print("  not gated:")
        print(fmt("op_p50_ms", res["op_p50_ms"], "ms", f"  (n = {n})"))
        print(fmt("op_p90_ms", res["op_p90_ms"], "ms", f"  (n = {n})"))
        print(fmt("ops_per_s", res["ops_per_s"], "1/s",
                  f"  ({n} ops; {res['busy_s']:.3f} s busy in all)"))
        for name in ("exe2_n4_s", "utable_h4_s"):
            if name in res:
                print(fmt(name, res[name], "s", "  (one run)"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
