"""litedepth benchmark: train/eval throughput, set-up time, peak RSS and
per-layer time on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke --workload all --seconds 1

Each run is closed-loop on one process: every step (a train step, or one
evaluated frame) starts when the previous one ends. Each workload run gets
fresh child processes with a fixed BLAS/OpenMP thread count, so peak RSS
belongs to that workload. With ``--trace 0`` the run reports end-to-end
metrics: its timed window is split over ``CHILDREN`` processes run one after
another, each set up anew, so the set-ups are spread over the whole run.
With ``--trace 1`` one process reports per-layer metrics from traced steps,
interleaved with untraced steps (for the tracing overhead) and tracemalloc
steps (for memory peaks), and writes the spans under ``.perfbench/trace/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count. A full record, with the environment,
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-tiny-64x32", "eval-base-640x192")
CHILDREN = 4           # processes of an untraced run, each set up anew
TAIL = 10              # samples a percentile needs above it to be reported
RUN_LIMIT_S = 170.0    # a run ends (killing its child) within this
# BLAS/OpenMP threads of the measured process. One: on a shared 2-vCPU host
# a second thread made train steps slower and their run-to-run spread wider,
# and one thread rounds the same way on every host.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")

OPS = tuple(tracer.OPS)
# per-layer self times per step (ms): metric name -> span name
LAYER_TIMES = {
    "data.triplet_ms": "data.triplet",
    "data.augment_ms": "data.augment",
    "pngio.read_ms": "pngio.read",
    "encoder.fwd_ms": "encoder.fwd",
    "decoder.fwd_ms": "decoder.fwd",
    "posenet.fwd_ms": "posenet.fwd",
    "warp.synthesize_ms": "warp.synthesize",
    "losses.fwd_self_ms": "losses.fwd",
    "engine.backward_ms": "engine.backward",
    "trainer.optim_ms": "trainer.optim",
    "trainer.predict_ms": "trainer.predict",
    "metrics.depth_metrics_ms": "metrics.depth_metrics",
    **{f"engine.fwd.{op}_ms": f"engine.fwd.{op}" for op in OPS},
    **{f"engine.bw.{op}_ms": f"engine.bw.{op}" for op in OPS + ("other",)},
}


def thread_env() -> dict:
    return {var: str(BLAS_THREADS) for var in THREAD_VARS}


# ---------------------------------------------------------------- child side


def child_main(args) -> None:
    """Run one workload's program loop: the warm-up steps end set-up, then
    timed steps run until ``--seconds`` have passed.
    Prints a JSON report as the last stdout line."""
    sys.path.insert(0, str(ROOT / "src"))
    import resource

    import numpy as np

    import litedepth
    if Path(litedepth.__file__).resolve().parent != ROOT / "src" / "litedepth":
        raise SystemExit(f"imported litedepth from {litedepth.__file__}, not from {ROOT / 'src'}")
    import scipy
    import workloads

    spec = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    pins = json.loads((BENCH / "pins.json").read_text())["workloads"].get(
        ("smoke/" if args.smoke else "") + args.workload)
    workdir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(spec, args.seed, workdir)
        # built before wl.run() hooks the program, so the tracer finds its sites
        steps = _Steps(args, wl, workloads.Stop, lambda: workloads.compare_pins(
            wl.pinned_values(), spec, pins, args.seed))
        try:
            wl.run(steps.boundary)
        except Exception as exc:   # the program raised: the step in flight failed
            if "setup_s" not in steps.report:
                raise   # during set-up: no result
            steps.abort(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = steps.finish(OUT / "trace" / f"{args.workload}-seed{args.seed}.tsv")
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report["env"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                     "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
                     "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    print(json.dumps(report))


class _Steps:
    """The step-boundary callback. It times each step, runs its checks and,
    in a traced run, cycles untraced, traced and tracemalloc steps. It raises
    ``workloads.Stop`` when the run is over."""

    # "allocs" turns tracemalloc on a step before "memory" measures, so the
    # memory a step inherits from the one before it is counted
    KINDS = ("plain", "traced", "allocs", "memory")

    def __init__(self, args, wl, stop, check_pins):
        self.args, self.wl, self.stop, self.check_pins = args, wl, stop, check_pins
        self.tracer = tracer.Tracer() if args.trace else None
        self.warmup = wl.spec.warmup
        self.step, self.kind = 0, "plain"
        self.report = {"attempted": 1, "failed": 0, "failures": [], "pinned": False}
        self.walls = {kind: [] for kind in self.KINDS}
        self.traced, self.memory = [], []
        self.probe = None
        self.start = self.t_step = time.perf_counter()

    def boundary(self) -> None:
        now = time.perf_counter()
        self._end_step(now)
        timed = self.step - self.warmup + 1      # timed steps completed
        if timed == 0:
            self.report["setup_s"] = time.monotonic() - self.args.t0
            self.start = time.perf_counter()
        elif (timed > 0 and now - self.start >= self.args.seconds
              and timed >= (len(self.KINDS) if self.tracer else 1)):
            self.report["elapsed_s"] = now - self.start
            raise self.stop
        self.step += 1
        self.report["attempted"] += 1
        if self.tracer is not None and timed >= 0:
            self.kind = self.KINDS[timed % len(self.KINDS)]
            if self.kind == "traced":
                self.tracer.install(self.step)
            elif self.kind == "allocs":
                self.probe = tracer.MemoryProbe()
            elif self.kind == "memory":
                self.probe.begin()
                self.wl.probe = self.probe
        self.t_step = time.perf_counter()

    def _end_step(self, now: float) -> None:
        if self.step >= self.warmup:
            self.walls[self.kind].append(now - self.t_step)
        self._stop_tracing()
        failures = self.wl.check(self.step)
        if self.step == 0:
            pin_failures = self.check_pins()
            self.report["pinned"] = pin_failures is not None
            failures += pin_failures or []
        self._fail(failures)

    def _stop_tracing(self) -> None:
        if self.kind == "traced":
            self.traced.append(self.tracer.uninstall())
        elif self.kind == "memory":
            self.wl.probe = None
            self.probe.stop()
            self.memory.append((self.probe.graph_peak, self.probe.backward_peak))
        self.kind = "plain"

    def _fail(self, failures) -> None:
        if failures:
            self.report["failed"] += 1
            self.report["failures"] += [f"step {self.step}: {f}" for f in failures]

    def abort(self, exc: Exception) -> None:
        """The program raised during a timed step: count it and end the run."""
        self._stop_tracing()
        self._fail([repr(exc)])
        self.report["elapsed_s"] = time.perf_counter() - self.start

    def finish(self, spans: Path) -> dict:
        report = self.report
        if self.probe is not None:   # the run may end after an "allocs" step
            self.probe.stop()
        report["step_s"] = self.walls["plain"]
        report["samples"] = len(self.walls["plain"]) * self.wl.spec.batch
        if self.tracer is not None:
            self.tracer.write(spans)
            report["layers"] = self._layers()
            report["counts"] = {kind: len(w) for kind, w in self.walls.items()}
        return report

    def _layers(self) -> dict:
        def med(values):
            return statistics.median(values) if values else 0.0

        traced = self.traced
        layers = {name: med([t["self_s"].get(span, 0.0) for t in traced]) * 1e3
                  for name, span in LAYER_TIMES.items()}
        enc_s = layers["encoder.fwd_ms"] / 1e3
        layers["encoder.gmac_per_s"] = self.wl.encoder_macs / enc_s / 1e9 if enc_s else 0.0
        for op in OPS:
            layers[f"engine.{op}_calls"] = med([t["calls"].get(f"engine.fwd.{op}", 0)
                                                for t in traced])
        layers["engine.ops_per_step"] = med([t["nodes"] for t in traced])
        layers["losses.diag_mib"] = med(getattr(self.wl, "diag_bytes", [])) / 2 ** 20
        layers["engine.graph_peak_mib"] = med([m[0] for m in self.memory]) / 2 ** 20
        layers["engine.backward_peak_mib"] = med([m[1] for m in self.memory]) / 2 ** 20
        layers["trace.overhead_ms"] = (med(self.walls["traced"]) - med(self.walls["plain"])) * 1e3
        return layers


# --------------------------------------------------------------- parent side


MEMORY_LAYERS = ("engine.graph_peak_mib", "engine.backward_peak_mib")


def layer_units() -> dict:
    """Unit and direction of every per-layer metric, in report order."""
    units = {name: ("ms", "lower") for name in LAYER_TIMES}
    units["encoder.gmac_per_s"] = ("GMAC/s", "higher")
    units.update({f"engine.{op}_calls": ("count", "lower") for op in OPS})
    units["engine.ops_per_step"] = ("count", "lower")
    units.update({name: ("MiB", "lower") for name in
                  ("losses.diag_mib", "engine.graph_peak_mib", "engine.backward_peak_mib")})
    units["trace.overhead_ms"] = ("ms", "lower")
    return units


def p90(values: list) -> float:
    """The 90th percentile as statistics.quantiles gives it; the value
    itself if there is only one."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class ChildFailed(RuntimeError):
    pass


def _spawn(args, workload: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke
    env = {**os.environ, **thread_env()}
    t0 = time.monotonic()   # CLOCK_MONOTONIC is shared by parent and child
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child exceeded the run limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> dict:
    """All child processes of one workload run; returns the result record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    n = 1 if args.trace else CHILDREN
    children = [_spawn(args, workload, args.seconds / n, deadline) for _ in range(n)]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [f for c in children for f in c["failures"]],
        "pinned": all(c["pinned"] for c in children),
        "env": {**children[0]["env"], "git_rev": _git_rev(),
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "platform": platform.platform()},
    }
    if args.trace:
        main = children[0]
        units = layer_units()
        record["metrics"] = {k: {"value": main["layers"][k], "unit": units[k][0]} for k in units}
        counts = main["counts"]
        record["samples"] = {k: counts["memory"] if k in MEMORY_LAYERS else counts["traced"]
                             for k in units}
        record["samples"]["trace.overhead_ms"] = counts["plain"]
        return record
    step_ms = [[s * 1e3 for s in c["step_s"]] for c in children]
    steps = [v for child in step_ms for v in child]
    setups = [c["setup_s"] for c in children]
    samples = sum(c["samples"] for c in children)
    record["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "samples_per_s": {"value": samples / sum(c["elapsed_s"] for c in children),
                          "unit": "1/s"},
        "peak_rss_mib": {"value": max(c["peak_rss_mib"] for c in children), "unit": "MiB"},
    }
    record["samples"] = {"setup_s": n, "samples_per_s": samples, "peak_rss_mib": n}
    # printed and recorded, but not in the JSON line: a bound on the median
    # would repeat samples_per_s, and p90 lacks tail samples in most runs
    tail = p90(steps)
    record["report_only"] = {
        "step_ms_p50": {"value": statistics.median(steps), "unit": "ms", "n": len(steps)},
        "step_ms_p90": {"value": tail, "unit": "ms", "n": len(steps),
                        "above": sum(v > tail for v in steps)},
    }
    record["setup_s"] = setups
    record["step_ms"] = step_ms
    return record


def _git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_record(record: dict) -> None:
    step = "frame" if record["workload"].startswith("eval") else "train step"
    print(f"== {record['workload']}  seed {record['seed']}  {record['seconds']} s  "
          f"trace {record['trace']}  (one step = one {step})")
    env = record["env"]
    print(f"   env: git {env['git_rev']}  nproc {env['nproc']}  threads "
          f"{env['threads']['OPENBLAS_NUM_THREADS']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']['name']} "
          f"{env['blas']['version']}")
    for name, m in record["metrics"].items():
        n = record["samples"][name]
        print(f"   {name:32s} {m['value']:14.4f} {m['unit']:8s} n={n}")
    for name, m in record.get("report_only", {}).items():
        if m.get("above", TAIL) >= TAIL:   # only p90 counts the samples above it
            print(f"   {name:32s} {m['value']:14.4f} {m['unit']:8s} n={m['n']}")
        else:
            print(f"   {name:32s} {'not reported':>14s} {'':8s} n={m['n']}, only "
                  f"{m['above']} above p90 (needs {TAIL})")
    rate = record["failed"] / record["attempted"]
    pinned = "pinned values checked" if record["pinned"] else "no pinned values for this seed"
    print(f"   {'error_rate':32s} {rate:14.4f} {'':8s} failed {record['failed']} "
          f"of {record['attempted']} steps; {pinned}")
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes: every path and check in seconds")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")
    if args.child:
        child_main(args)
        return 0
    if not (ROOT / "src" / "litedepth").is_dir():
        print(f"error: no litedepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(args, name)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        tag = "smoke-" * args.smoke
        (results / f"{tag}{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print_record(record)
        records.append(record)

    failed = sum(r["failed"] for r in records)
    metrics = (records[0]["metrics"] if len(records) == 1 else
               {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()})
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and finite,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
