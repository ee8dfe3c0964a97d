#!/usr/bin/env python3
"""Run every benchmark workload, untraced and traced, and print the tables.

    python3 perfbench/report.py --seed 1

Each workload runs for BENCHMARK.json's `run_seconds`, in its own process,
one after another: first with `--trace 0` for the end-to-end metrics, then
with `--trace 1` for the per-layer metrics.  The report prints every end-to-end metric by name and
unit for each workload, the probe outcomes, and the self-time share of each
module in the traced run with the tracing overhead beside it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "run_seconds"]
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, LAYER_MODULES, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload, seed, trace):
    """(result object, probe lines) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace",
         str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    probes = [line for line in lines if line.startswith("probe ")]
    return json.loads(lines[-1]), probes


def table(title, names, units, results):
    cols = list(results)
    print(f"\n{title}")
    print(f"{'metric':<42}{'unit':<7}" + "".join(f"{c:>13}" for c in cols))
    for name in names:
        cells = "".join(
            f"{results[c]['metrics'][name]['value']:>13.5g}" for c in cols)
        print(f"{name:<42}{units[name]:<7}{cells}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    plain, traced, probes = {}, {}, {}
    for workload in WORKLOADS:
        plain[workload], probes[workload] = run_one(workload, args.seed, 0)
        traced[workload], _ = run_one(workload, args.seed, 1)

    table("end-to-end metrics (untraced runs)", END_TO_END_UNITS,
          END_TO_END_UNITS, plain)
    print("\nprobes of known defects (count in completed_frac only)")
    for workload in WORKLOADS:
        for line in probes[workload] or ["no probes"]:
            print(f"  {workload}: {line}")

    print("\nself-time share by module (traced runs)")
    print(f"{'workload':<10}" + "".join(f"{m:>9}" for m in LAYER_MODULES)
          + f"{'overhead':>22}")
    for workload, result in traced.items():
        m = result["metrics"]
        shares = "".join(
            f"{100 * m[f'{mod}.self_share']['value']:>8.1f}%"
            for mod in LAYER_MODULES)
        overhead = (f"{m['trace.overhead_s']['value']:.3f} s "
                    f"({100 * m['trace.overhead_frac']['value']:.1f} %)")
        print(f"{workload:<10}{shares}{overhead:>22}")
    table("per-layer metrics (traced runs)", PER_LAYER_UNITS, PER_LAYER_UNITS,
          traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
