"""gblab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload chi-disk --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; gblab is imported from its ``src``.
Each measurement happens in a fresh worker process (worker.py) with BLAS
threads pinned to one and ``workers = 1``, one closed-loop run at a time.

--trace 0 reports the end-to-end metrics: the median wall time of a run in a
warmed process, the set-up time (median of several fresh processes), both
rescaled to a nominal machine speed (worker.reference_seconds), the
work-normalized variance stderr^2 * wall, the peak resident memory and the
share of runs that passed the correctness gate.  --trace 1 alternates traced
and untraced runs and reports the per-layer metrics and the tracing overhead.
Every metric is printed by name and unit; the last stdout line is the JSON
result.  Workloads and metric definitions are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3        # fresh processes whose set-up times give the median setup_s
WORKER_TIMEOUT_S = 170
REQUIRED = ("src/gblab/__init__.py", "docs/report.schema.json",
            "docs/examples/local-limit-disk-boundary.cfg")
# exact counts of a traced run; they must repeat bit for bit at one seed
EXACT = ("stochastic.path_steps", "stochastic.contact_fraction", "stochastic.touch_fraction",
         "stochastic.alive_fraction")


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def is_exact(name: str) -> bool:
    return name in EXACT or name.endswith("_calls_per_step")


def worker(args, out, *extra):
    """Run worker.py in a fresh process and return its JSON result."""
    out.mkdir(parents=True, exist_ok=True)
    result = out / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env.pop("GBLAB_OUTPUT_DIR", None)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out), "--result", str(result), *extra]
    if getattr(args, "small", False):
        command.append("--small")
    proc = subprocess.run(command, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(args, out):
    setups = [worker(args, out / f"setup{i}", "--setup-only")["setup"]["norm_setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    result = worker(args, out / "measure")
    setups.append(result["setup"]["norm_setup_s"])
    runs = result["runs"]
    walls = [run["norm_wall_s"] for run in runs]
    wall = statistics.median(walls)
    # one variance estimate per pooled seed (worker.SEED_POOL), averaged
    variances = {run["seed_index"]: run["stderr"] ** 2 for run in runs if "stderr" in run}
    variance = statistics.fmean(variances.values()) if variances else float("nan")
    failed = sum(1 for run in runs if run["failures"])
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "wnv": variance * wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_rate": (len(runs) - failed) / len(runs),
    }
    spread = {"wall_s": (*quartiles(walls), len(walls)),
              "setup_s": (*quartiles(setups), len(setups))}
    return result, runs, metrics, spread


def per_layer(args, out):
    result = worker(args, out / "measure")
    runs = result["runs"]
    layers = result["layers"]
    for later, run in zip(layers[1:], [r for r in runs if r["traced"]][1:]):
        differ = [k for k in later if is_exact(k) and later[k] != layers[0].get(k)]
        if differ:
            run["failures"].append(f"exact counts differ between traced runs: {differ}")
    metrics = {name: (layers[0][name] if is_exact(name) else
                      statistics.median(layer[name] for layer in layers))
               for name in layers[0]}
    metrics["kernels.setup_s"] = result["setup"]["kernel_s"]
    traced = [run["norm_wall_s"] for run in runs if run["traced"]]
    untraced = [run["norm_wall_s"] for run in runs if not run["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return result, runs, metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"perfbench: not a gblab checkout, missing {absent}", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        result, runs, metrics, spread = (per_layer if args.trace else end_to_end)(args, out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = declared_units()
    machine = result["machine"]
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for i, run in enumerate(runs):
        recorded = ", ".join(f"{k} {run[k]:+.4f}" for k in ("z", "ratio") if run.get(k) is not None)
        status = "; ".join(run["failures"]) or "ok"
        print(f"run {i} {'traced' if run['traced'] else 'untraced'}: "
              f"wall {run['wall_s']:.4f} s, reference {run['ref_s']:.4f} s, "
              f"rescaled wall {run['norm_wall_s']:.4f} s, {recorded}, {status}")
    for name, value in metrics.items():
        extra = ""
        if name in spread:
            q1, q3, n = spread[name]
            extra = f"  (q1 {q1:.4f}, q3 {q3:.4f}, n {n})"
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    failed = sum(1 for run in runs if run["failures"])
    # a metric that could not be measured (no run produced a stderr) is left
    # out; such a run has failed the gate
    metrics = {name: value for name, value in metrics.items() if math.isfinite(value)}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
