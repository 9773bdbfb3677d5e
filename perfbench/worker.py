"""One fresh benchmark process: set up gblab, then run one workload repeatedly.

Started by run.py with BLAS threads pinned to one and ``src`` on the path.
The set-up (``import gblab``, model construction and the first kernel call,
which builds the Bessel mode tables) is timed first; then ``gblab.cli.run``
executes the workload's config, one run after another, for the given number
of seconds and at least until every pooled seed has run.  Every run is
checked (exit code, report schema, statistical gate, byte-identical reports
at one seed).  With ``--trace 1`` traced and untraced runs alternate,
starting traced, and the per-layer numbers come from the traced ones.  The
result is one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = ROOT / "docs" / "report.schema.json"
# derived seeds whose stderr^2 wnv pools; an end-to-end measurement covers all
# of them however many runs fit in --seconds, so two commits pool the same seeds
SEED_POOL = 10
# median reference_seconds() on the baseline machine (NOTES.md); reported
# times are rescaled to this speed
REFERENCE_NOMINAL_S = 0.1


def reference_seconds():
    """Time a fixed mix of the numeric work gblab does: batched elementwise
    steps on 32k two-vectors, batched 3x3 products and Bessel values.

    Timed next to every run, it measures how fast the shared machine is at
    that moment, so run times can be rescaled to a nominal speed.
    """
    import numpy as np
    from scipy import special

    rng = np.random.Generator(np.random.Philox(key=np.array([7, 11], dtype=np.uint64)))
    started = time.perf_counter()
    x = rng.standard_normal((32768, 2))
    for _ in range(16):
        xi = rng.standard_normal((32768, 2))
        d = np.einsum("pk,pk->p", x, x)
        x = x + 0.01 * xi - 0.001 * x * np.exp(-d)[:, None]
        norm = np.linalg.norm(x, axis=1)
        x = np.where((norm > 3.0)[:, None], 3.0 * x / norm[:, None], x)
    m = rng.standard_normal((8192, 3, 3))
    for _ in range(6):
        m = np.einsum("pij,pjk->pik", m, m) / 3.0
    special.jv(3, np.linspace(0.0, 60.0, 40000))
    return time.perf_counter() - started


def set_up(workload, seed, output_dir, small):
    """Import gblab, build the model and make the first kernel call; timed."""
    started = time.perf_counter()
    import numpy as np
    from gblab import cli
    from gblab import kernels

    from workloads import config_settings, first_kernel_time

    settings = config_settings(workload, ROOT, seed, 0, output_dir, small)
    cfg = cli.resolve_config(settings, workload.experiment)
    model = cli.build_model(cfg)
    built = time.perf_counter()
    if workload.experiment == "local-limit":
        point = model.boundary_point()[None, :]
    else:
        point = model.sample_volume(np.random.default_rng(0), 1)
    kernels.heat_kernel_diag(model, first_kernel_time(workload, settings), point)
    done = time.perf_counter()
    return {"setup_s": done - started, "kernel_s": done - built}


def machine_facts():
    """nproc, CPU model, cache sizes and the numeric stack's versions."""
    import numpy as np
    import scipy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        facts["cpu"] = models[0] if models else "?"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches.append(f"L{(index / 'level').read_text().strip()} "
                              f"{(index / 'size').read_text().strip()}")
        except OSError:
            continue
    facts["caches"] = " ".join(caches)
    return facts


def run_once(config_path, experiment, output_dir):
    """One closed-loop run through the public entry point: (exit code, wall s, stdout)."""
    from gblab import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        code = cli.run(str(config_path), experiment, str(output_dir))
        wall = time.perf_counter() - started
    return code, wall, stdout.getvalue()


def check(workload, code, stdout, output_dir, validator, digests, small):
    """Correctness gate of one run: (failures, recorded values, file digests)."""
    from workloads import gate

    if code != 0:
        return [f"exit code {code}: {stdout.strip()}"], {}, {}
    failures = []
    lines = stdout.splitlines()
    try:
        if len(lines) != 1 or "files" not in json.loads(lines[0]):
            failures.append("stdout is not one JSON summary line")
    except ValueError:
        failures.append("stdout is not JSON")
    files = sorted(p for p in Path(output_dir).iterdir() if p.name.startswith(workload.experiment))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    try:
        report = json.loads((Path(output_dir) / f"{workload.experiment}.json").read_text())
    except (OSError, ValueError) as exc:
        return failures + [f"no readable report: {exc}"], {}, written
    failures += [f"schema: {e.message}" for e in validator.iter_errors(report)]
    gate_failures, values = gate(workload, report, small)
    failures += gate_failures
    if digests and written != digests:
        failures.append("report bytes differ from the first run at this seed")
    return failures, values, written


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for configs and reports")
    parser.add_argument("--result", required=True, help="JSON file this process writes")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true", help="tiny budgets for the self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, config_text

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    setup = set_up(workload, args.seed, reports, args.small)
    reference_seconds()  # first call pays one-time costs
    setup["ref_s"] = reference_seconds()
    setup["norm_setup_s"] = setup["setup_s"] * REFERENCE_NOMINAL_S / setup["ref_s"]
    result = {"setup": setup}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import jsonschema

    from workloads import config_settings

    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    runs = []
    digests = {}
    # a traced run needs one traced and one untraced run; an end-to-end run
    # needs the byte-identity pair and every pooled seed
    min_runs = 2 if tracer is not None else SEED_POOL + 1
    before = setup["ref_s"]
    started = time.perf_counter()
    while len(runs) < min_runs or time.perf_counter() - started < args.seconds:
        # Runs 0 and 1 share a seed (the byte-identity check); later runs
        # cycle through the SEED_POOL seeds, and a repeated seed must write
        # the same bytes again.  Traced runs all keep the first seed, so
        # their exact counts must agree.
        index = 0 if tracer is not None or not runs else (len(runs) - 1) % SEED_POOL
        output_dir = reports / str(index)
        config_path = out / f"config-{index}.cfg"
        if not config_path.exists():
            config_path.write_text(config_text(
                config_settings(workload, ROOT, args.seed, index, output_dir, args.small)))
        traced = tracer is not None and len(runs) % 2 == 0
        if traced:
            tracer.run_id = len(runs)
            tracer.install()
        try:
            code, wall, stdout = run_once(config_path, workload.experiment, output_dir)
        finally:
            if traced:
                tracer.restore()
        failures, values, written = check(workload, code, stdout, output_dir, validator,
                                          digests.get(index), args.small)
        digests.setdefault(index, written)
        # the machine's speed during the run: references timed before and after
        after = reference_seconds()
        ref = (before + after) / 2.0
        before = after
        runs.append({"seed_index": index, "traced": traced, "wall_s": wall,
                     "ref_s": ref, "norm_wall_s": wall * REFERENCE_NOMINAL_S / ref,
                     "failures": failures, **values})

    result["runs"] = runs
    result["machine"] = machine_facts()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import layer_metrics

        per_run = [layer_metrics(tracer.spans, tracer.counts, i, tracer.missing)
                   for i, run in enumerate(runs) if run["traced"]]
        result["layers"] = per_run
        result["missing_wrap_points"] = tracer.missing
        tracer.write_spans(out / "spans.csv.gz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
