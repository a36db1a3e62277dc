#!/usr/bin/env python3
"""Self-tests of the workflow benchmark itself.

    python3 perfbench/selftest.py

1. A tampered reference must fail the run: `correct` false and
   `failed` (output_mismatches) > 0.
2. Changing --seed must change the serve_* output fingerprints and
   leave plan_fleet's and jsim_fig07's unchanged.

Exits 0 when both hold, 1 otherwise.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run as run_py  # noqa: E402  (perfbench/run.py)

HERE = run_py.HERE
ROOT = run_py.ROOT


def run(workload, seed, *extra):
    """One single-iteration run; returns (fingerprint, result)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", *extra],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900,
        cwd=ROOT).stdout.splitlines()
    fingerprint = next(json.loads(line.split(": ", 1)[1]) for line in out
                       if line.startswith("fingerprint: "))
    return fingerprint, json.loads(out[-1])


def main():
    failures = []

    run_py.build_root().mkdir(parents=True, exist_ok=True)
    tampered = run_py.build_root() / "tampered_reference.json"
    reference = json.loads((HERE / "reference.json").read_text())
    reference["plan_fleet"]["any"]["interval_cycles"] += 1
    tampered.write_text(json.dumps(reference))
    _, result = run("plan_fleet", 1, "--reference", str(tampered))
    print(f"tampered reference: correct={result['correct']}"
          f" failed={result['failed']}")
    if result["correct"] or result["failed"] < 1:
        failures.append("a tampered reference did not fail the run")

    for workload, seeded in (("plan_fleet", False), ("serve_fleet", True),
                             ("serve_faults", True), ("jsim_fig07", False)):
        first, _ = run(workload, 1)
        second, _ = run(workload, 2)
        changed = first != second
        print(f"{workload}: seed 1 vs 2 outputs"
              f" {'differ' if changed else 'identical'}")
        if changed != seeded:
            failures.append(f"{workload}: seed sensitivity is wrong")

    for failure in failures:
        print("FAIL: " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
