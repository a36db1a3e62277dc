#!/usr/bin/env python3
"""Gate: the workflow benchmark's simulated outputs match its reference.

Runs perfbench/run.py once per workload with --seconds 0 (one untraced
iteration) and exits 1 unless its result line, the last line of
stdout, reports "correct": true. run.py itself exits 0 on an output
mismatch, so the gate has to read that JSON.

    python3 scripts/check_bench_outputs.py serve_fleet serve_faults
    python3 scripts/check_bench_outputs.py --tamper serve_fleet

--tamper checks the gate itself. It runs against a copy of
perfbench/reference.json with one recorded output changed, and exits 1
unless the gate reports the mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN = REPO_ROOT / "perfbench" / "run.py"
REFERENCE = REPO_ROOT / "perfbench" / "reference.json"


def outputs_match(workload: str, seed: int, reference: Path) -> bool:
    """One benchmark iteration; True when run.py reports correct."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", "0",
         "--reference", str(reference)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: run.py printed no result line")
        return False
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: correct={result.get('correct')}, "
          f"{result.get('failed')} of {result.get('attempted')} "
          f"iterations mismatched")
    return result.get("correct") is True


def tampered_reference(workload: str, seed: int, directory: str) -> Path:
    """A reference copy whose serving `workload` entry for `seed`
    records one completed request too many."""
    references = json.loads(REFERENCE.read_text())
    references[workload][str(seed)]["completed"] += 1
    path = Path(directory) / "reference.json"
    path.write_text(json.dumps(references))
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    failures = 0
    for workload in args.workloads:
        if args.tamper:
            with tempfile.TemporaryDirectory() as directory:
                reference = tampered_reference(workload, args.seed,
                                               directory)
                if outputs_match(workload, args.seed, reference):
                    print(f"{workload}: gate missed a tampered reference")
                    failures += 1
        elif not outputs_match(workload, args.seed, REFERENCE):
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
