#!/usr/bin/env python3
"""Workflow benchmark entry point.

Builds perfbench/workflow_bench from the repository sources (CMake,
Release, into $CARGO_TARGET_DIR or .bench_build under the checkout),
runs one workload for a fixed wall-clock budget, checks every
iteration's simulated outputs against perfbench/reference.json and
prints the result as the last line of stdout:

    python3 perfbench/run.py --workload plan_fleet --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. --record stores the current outputs as the
reference for the workload (and, for seeded workloads, the seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan_fleet", "serve_fleet", "serve_faults", "jsim_fig07")
# Workloads whose simulated outputs depend on --seed.
SEEDED = ("serve_fleet", "serve_faults")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    """Build tree root: $CARGO_TARGET_DIR, else .bench_build, in ROOT."""
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configure once and build workflow_bench; returns its path."""
    build_dir = build_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "workflow_bench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "workflow_bench"


def reference_key(workload, seed):
    return str(seed) if workload in SEEDED else "any"


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(name, values, unit):
    if values:
        print(f"  {name}: median {median(values):.6g} {unit}"
              f" (min {min(values):.6g}, max {max(values):.6g},"
              f" n={len(values)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    raw = json.loads(proc.stdout)
    samples = raw["samples"]

    ref_path = Path(args.reference)
    references = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    key = reference_key(args.workload, args.seed)
    if args.record:
        if samples[0]["problems"]:
            log(f"not recording: {samples[0]['problems']}")
            return 1
        references.setdefault(args.workload, {})[key] = samples[0]["fingerprint"]
        ref_path.write_text(json.dumps(references, indent=1, sort_keys=True)
                            + "\n")
        log(f"recorded {args.workload}[{key}] in {ref_path}")
        return 0

    # A sample fails when an invariant broke or its outputs differ
    # from the recorded reference. Seeds with no recorded reference
    # fall back to the invariants plus identical outputs on every
    # iteration of the run.
    expected = references.get(args.workload, {}).get(key)
    basis = "recorded reference" if expected else "repeat identity"
    if expected is None:
        expected = samples[0]["fingerprint"]
    mismatches = 0
    for sample in samples:
        if sample["problems"] or sample["fingerprint"] != expected:
            mismatches += 1
            log(f"mismatch: {sample['problems']} {sample['fingerprint']}"
                f" != {expected}")

    print("machine: " + json.dumps(raw["machine"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(samples)} iterations")
    print("fingerprint: " + json.dumps(samples[0]["fingerprint"],
                                       sort_keys=True))
    print(f"output_mismatches: {mismatches} of {len(samples)}"
          f" (checked against {basis})")

    plain = [s for s in samples if not s["traced"]]
    metrics = {}
    if args.trace == 0:
        values = {
            "setup_s": [s["setup_s"] for s in plain],
            "run_s": [s["run_s"] for s in plain],
            "items_per_s": [s["items"] / s["core_s"] for s in plain],
            "peak_rss_mb": [raw["peak_rss_mb"]],
        }
        wanted = spec["end_to_end"]
    else:
        traced = [s for s in samples if s["traced"]]
        values = {}
        for s in traced:
            for group in ("setup_spans", "run_spans", "layers"):
                for name, value in s[group].items():
                    values.setdefault(name, []).append(value)
        values["trace.overhead_s"] = [
            median([s["run_s"] for s in traced]) -
            median([s["run_s"] for s in plain])]
        wanted = spec["per_layer"]
        known = {m["name"] for m in wanted}
        unknown = sorted(set(values) - known)
        if unknown:
            log(f"measured layers missing from BENCHMARK.json: {unknown}")
            return 1
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        # A layer the workload never enters reads 0.
        series = values.get(name, [])
        summarize(name, series, unit)
        metrics[name] = {"value": median(series), "unit": unit}

    print(json.dumps({"correct": mismatches == 0,
                      "attempted": len(samples),
                      "failed": mismatches,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
