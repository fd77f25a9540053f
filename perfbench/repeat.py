#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/repeat.py --workload corpus --seeds 1-10 [--trace 0]

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
A spread at or above a third of its bound is flagged: the run is not
steady enough to resolve a change of that size.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append",
                    help="repeat for several workloads")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every value and its median, "
                    "quartiles and spread here, with the Python version, "
                    "CPU count and src/ line count")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in (ROOT / "src").rglob("*.py"))
    record = {"meta": {"python": platform.python_version(),
                       "nproc": os.cpu_count(), "src_lines": src_lines,
                       "seeds": args.seeds, "trace": args.trace},
              "workloads": {}}
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record["meta"]["seconds"] = seconds
    status = 0
    for workload in args.workload:
        values = {}
        failed = 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()
                if k in bounds or args.trace), flush=True)
        stats = record["workloads"][workload] = {}
        print(f"\n{workload}: {len(next(iter(values.values()), []))} runs, "
              f"{failed} failed checks")
        print(f"  {'metric':<50}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'bound':>7}")
        for name, vals in values.items():
            stats[name] = {"values": vals}
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            stats[name].update(median=med, q1=q1, q3=q3, spread=share)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share >= bound / 3:
                flag = "  <- spread >= bound/3"
            print(f"  {name:<50}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{share:>9.3f}{bound if bound is not None else '':>7}"
                  f"{flag}")
        print()
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1),
                                   encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
