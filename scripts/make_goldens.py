#!/usr/bin/env python3
"""Regenerate the golden CLI reports under tests/golden/.

Run after an intentional schema or output change, then review the diff:

    python scripts/make_goldens.py
"""

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's sources, ahead of any installed copy
sys.path.insert(0, str(ROOT / "src"))

from pinsep.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
RATIONAL = str(GOLDEN / "rational.yaml")

REPORTS = {
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
    # rational.yaml spans generators with multi-term denominators
    "invariants_rational_K.json":
        ["--json", "--context", RATIONAL, "invariants", "K"],
    "rbase_rational_K.json": ["--json", "--context", RATIONAL, "rbase", "K"],
    "truncate_rational_K_n1.json":
        ["--json", "--context", RATIONAL, "truncate", "K", "--n", "1"],
    "intersect_rational_K_L.json":
        ["--json", "--context", RATIONAL, "intersect", "K", "L"],
}


def run(argv=None):
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, args in REPORTS.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(args)
        if rc != 0:
            print(f"FAILED ({rc}): {name}", file=sys.stderr)
            return rc
        (GOLDEN / name).write_text(buf.getvalue())
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
