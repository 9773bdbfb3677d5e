"""Self-test of the benchmark's tracer and exact counts.

    python3 perfbench/selftest.py

Checks, on small budgets of every workload:
  * the exact counts of a traced run (path-steps, contact, touch and alive
    fractions, geometry calls per step) repeat bit for bit across two traced
    runs at one seed, each in a fresh process;
  * traced and end-to-end runs pass the correctness gate and report exactly
    the metrics BENCHMARK.json declares;
  * every attribute the tracer replaced is the original again afterwards;
  * a wrap point that does not exist leaves its metric out instead of failing.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (benchmark module next to this file)
from tracer import WRAP_POINTS, Tracer, layer_metrics  # noqa: E402


def check_workload(workload, seed, out, declared):
    """Two traced runs in fresh processes and one end-to-end run, small budgets."""
    problems = []
    layers = []
    for i in (1, 2):
        args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=1, small=True)
        _, runs, metrics, _ = run.per_layer(args, out / f"{workload}-trace{i}")
        problems += [f"{workload}: traced run failed: {r['failures']}" for r in runs if r["failures"]]
        layers.append({k: v for k, v in metrics.items() if run.is_exact(k)})
        if set(metrics) != declared["per_layer"]:
            problems.append(f"{workload}: per-layer metrics {sorted(set(metrics) ^ declared['per_layer'])} "
                            "differ from BENCHMARK.json")
    if not layers[0] or layers[0] != layers[1]:
        problems.append(f"{workload}: exact counts differ between traced runs")
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=0, small=True)
    _, runs, metrics, _ = run.end_to_end(args, out / f"{workload}-e2e")
    problems += [f"{workload}: run failed: {r['failures']}" for r in runs if r["failures"]]
    if set(metrics) != declared["end_to_end"]:
        problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
    return problems


def snapshot(modules):
    """Every module attribute and class attribute, by identity."""
    state = {}
    for module in modules:
        for name, value in vars(module).items():
            state[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[(module.__name__, name, attr)] = member
    return state


def check_restore_and_missing():
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    from gblab import cli, estimator, exterior, geometry, kernels, stochastic

    modules = (cli, estimator, exterior, geometry, kernels, stochastic)
    before = snapshot(modules)
    gone = ("stochastic.gone", "gblab.stochastic", "_no_such_function")
    tracer = Tracer(WRAP_POINTS + (gone,))
    tracer.install()
    problems = []
    try:
        if stochastic._orthonormalize is before[("gblab.stochastic", "_orthonormalize")]:
            problems.append("install did not wrap stochastic._orthonormalize")
        model = geometry.model_catalog("hemisphere", dimension=2)
        estimator.estimate_chi(model, 0.1, 8, 4, seed=5, steps=10)
    finally:
        tracer.restore()
    after = snapshot(modules)
    changed = sorted(str(k) for k in before if after.get(k) is not before[k])
    if changed:
        problems.append(f"attributes not restored after tracing: {changed[:5]}")
    if tracer.missing != ["stochastic.gone"]:
        problems.append(f"missing wrap points {tracer.missing}, expected ['stochastic.gone']")
    metrics = layer_metrics(tracer.spans, tracer.counts, 0, ["stochastic.orthonormalize"])
    if "stochastic.orthonormalize_s" in metrics or "stochastic.drift_s" not in metrics:
        problems.append("a missing wrap point must drop exactly its own metrics")
    if not np.isfinite(list(metrics.values())).all():
        problems.append("per-layer metrics are not finite")
    return problems


def main():
    problems = check_restore_and_missing()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    out = HERE / "out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    for workload in run.WORKLOADS:
        problems += check_workload(workload, 7, out, declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
