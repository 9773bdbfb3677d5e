"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 --summary perfbench/out/summary.json

Every workload in BENCHMARK.json runs once per seed.  The spread is the
distance between the first and third quartile of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median; a
benchmark is steady when every end-to-end spread, ``setup_s`` included,
stays below a third of the metric's bound in BENCHMARK.json.  Every run's
JSON result is appended to perfbench/out/spread.jsonl.  --summary appends
this set's medians and quartiles, at full precision, to the JSON list in
the given file (creating it); perfbench/baseline.json is such a list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = HERE / "out" / "spread.jsonl"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", help="append medians and quartiles to the JSON list here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    LOG.parent.mkdir(parents=True, exist_ok=True)

    steady = True
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        units = {}
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed = time.perf_counter() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                steady = False
                continue
            lines = proc.stdout.splitlines()
            summary["machine"] = next((ln.split(": ", 1)[1] for ln in lines
                                       if ln.startswith("machine: ")), "?")
            result = json.loads(lines[-1])
            with open(LOG, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "elapsed_s": elapsed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: correctness gate failed")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        rows = summary["workloads"][workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "  ok" if share < bound / 3 else "  WIDE"
                steady &= share < bound / 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                          "n": len(vals), "unit": units[name]}
            print(f"{workload:18s} {name:36s} median {median:.6g}  spread {share:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{mark}  n {len(vals)}")
    if args.summary:
        path = Path(args.summary)
        sets = json.loads(path.read_text()) if path.is_file() else []
        path.write_text(json.dumps(sets + [summary], indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
