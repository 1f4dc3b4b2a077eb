"""Regenerate pins.json: the step-0 check values of every workload (and of
its smoke size) for a set of seeds, with one relative tolerance per check.

A tolerance is the largest f32 rounding gap measured over the seeds: the
relative difference between the f32 value the benchmark computes and the
same step computed in f64 on the same inputs. Run it only when the program's
outputs are meant to change:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

os.environ.update(run.thread_env())
sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402  (after the thread variables are set)

SEEDS = range(20)
DEFAULT_SEED, HELD_OUT_SEED = 0, 19


def step0(spec: workloads.Spec, seed: int, precision: str) -> dict:
    workdir = run.OUT / "tmp" / f"pin-{os.getpid()}"

    def stop():
        raise workloads.Stop

    try:
        wl = workloads.make(spec, seed, workdir, precision)
        wl.run(stop)
        values = wl.pinned_values()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {key: values[key] for key in spec.pins}


def ceil2(x: float) -> float:
    """x rounded up to two significant digits."""
    if x == 0:
        return 0.0
    scale = 10.0 ** (math.floor(math.log10(x)) - 1)
    return float("%.1e" % (math.ceil(x / scale) * scale))


def pin(spec: workloads.Spec) -> dict:
    seeds, gaps = {}, {key: 0.0 for key in spec.pins}
    for seed in SEEDS:
        f32, f64 = step0(spec, seed, "f32"), step0(spec, seed, "f64")
        seeds[str(seed)] = f32
        for key in spec.pins:
            gaps[key] = max(gaps[key], abs(f32[key] - f64[key]) / abs(f64[key]))
        print(f"  seed {seed}: {f32}", file=sys.stderr, flush=True)
    return {"rel_tol": {key: ceil2(gap) for key, gap in gaps.items()},
            "max_f32_gap": gaps, "seeds": seeds}


def main() -> None:
    table = {"threads": run.BLAS_THREADS, "default_seed": DEFAULT_SEED,
             "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for prefix, specs in (("smoke/", workloads.SMOKE), ("", workloads.WORKLOADS)):
        for name, spec in specs.items():
            print(prefix + name, file=sys.stderr, flush=True)
            table["workloads"][prefix + name] = pin(spec)
    (run.BENCH / "pins.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
