"""Run-to-run spread of the end-to-end metrics: run one workload once for
each of seeds 0-9 and report, per metric, the median, the quartiles and the
quartile distance as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --workload train-tiny-64x32
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SEEDS = range(10)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = ap.parse_args()

    values = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=run.ROOT, text=True, stdout=subprocess.PIPE, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.4f} "
              f"{bounds[name]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
