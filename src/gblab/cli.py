"""Command-line driver: configs in, reproducible report files out.

Configuration files are flat ``key = value`` text ('#' starts a comment).
Each experiment kind is a subcommand; the config is fully echoed into
every output file together with the artifact version and the sha256 of
the canonicalized config, and identical configs produce byte-identical
outputs.  Progress goes to stderr; stdout carries one machine-readable
JSON summary line.  Exit codes: 0 success, 2 validation failure, 3
numerical abort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import estimator as est
from . import exterior as ext
from . import geometry as geo
from . import stochastic as st
from .errors import (
    CalibrationRankError,
    ConfigError,
    GblabError,
    NumericalAbortError,
    SeriesConvergenceError,
)

EXPERIMENTS = ("estimate-chi", "local-limit", "calibrate", "cancellation-suite", "diagnostics")

OUTPUT_DIR_ENV = "GBLAB_OUTPUT_DIR"

# key -> (parser, experiments that accept it, required-for, default)
_ALL = EXPERIMENTS
_MODEL_EXPERIMENTS = ("estimate-chi", "local-limit")  # the experiments that build a model
# the experiments that draw random numbers; calibrate is deterministic
_SEEDED = ("estimate-chi", "local-limit", "cancellation-suite", "diagnostics")
_CSV_EXPERIMENTS = ("local-limit",)  # the experiments whose report has csv rows


def _list_of(name, parse_item):
    """Parser of a comma-separated list that must hold at least one item."""
    def parse(s):
        values = [parse_item(v.strip()) for v in s.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"{name} must list at least one value, got {s!r}")
        return values
    return parse


def _positive_float(name):
    """Parser of a float that must be finite and > 0."""
    def parse(s):
        value = float(s)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        return value
    return parse


def _integer(name, low, high=math.inf):
    """Parser of an integer that must lie in [low, high)."""
    return lambda s: est.check_integer(name, int(s), low, high)


def _choice(name, options):
    """Parser of a word that must be one of options."""
    def parse(s):
        if s not in options:
            raise ConfigError(f"{name} must be one of {', '.join(options)}; got {s!r}")
        return s
    return parse


def _serial_workers(s):
    """Parser of the workers key, which only 1 passes: every run is serial."""
    value = int(s)
    if value != 1:
        raise ConfigError(f"workers must be 1, got {value!r}: the process pool was removed "
                          "and every experiment runs in one process")
    return value


CONFIG_SCHEMA = {
    "experiment": (str, _ALL, (), None),
    "seed": (_integer("seed", 0, 2**64), _SEEDED, _SEEDED, None),
    "output_dir": (str, _ALL, (), "out"),
    "formats": (_list_of("formats", _choice("formats", ("json", "csv"))), _ALL, (), ["json"]),
    "workers": (_serial_workers, _ALL, (), None),
    "model": (str, _MODEL_EXPERIMENTS, _MODEL_EXPERIMENTS, None),
    "model.dimension": (int, _MODEL_EXPERIMENTS, (), None),
    "model.radius": (_positive_float("model.radius"), _MODEL_EXPERIMENTS, (), None),
    "model.aperture": (float, _MODEL_EXPERIMENTS, (), None),
    "model.sphere_dim": (int, _MODEL_EXPERIMENTS, (), None),
    "model.ball_dim": (int, _MODEL_EXPERIMENTS, (), None),
    "model.sphere_radius": (_positive_float("model.sphere_radius"), _MODEL_EXPERIMENTS, (), None),
    "model.ball_radius": (_positive_float("model.ball_radius"), _MODEL_EXPERIMENTS, (), None),
    "model.length": (_positive_float("model.length"), _MODEL_EXPERIMENTS, (), None),
    "model.circumference": (_positive_float("model.circumference"), _MODEL_EXPERIMENTS, (), None),
    "t": (lambda s: est.check_lifetime(float(s)), ("estimate-chi",), ("estimate-chi",), None),
    "t_sequence": (_list_of("t_sequence", lambda v: est.check_lifetime(float(v))),
                   ("local-limit",), ("local-limit",), None),
    "base_points": (_integer("base_points", 2), ("estimate-chi",), ("estimate-chi",), None),
    "bridges": (_integer("bridges", 1), _MODEL_EXPERIMENTS, _MODEL_EXPERIMENTS, None),
    "steps": (_integer("steps", 2), _MODEL_EXPERIMENTS, (), None),
    "point": (_choice("point", ("interior", "boundary")), ("local-limit",), (), "interior"),
    "depth_nodes": (_integer("depth_nodes", 1, est.MAX_DEPTH_NODES + 1), ("local-limit",), (), 10),
    "dimension": (int, ("calibrate",), ("calibrate",), None),
    # below 2 a dimension has no cancellation case; above MAX_DIMENSION no algebra
    "dims": (_list_of("dims", _integer("dims", 2, ext.MAX_DIMENSION + 1)),
             ("cancellation-suite",), (), [2, 3, 4, 5, 6]),
    "instances": (_integer("instances", 1), ("cancellation-suite",), (), 100),
    "tolerance": (_positive_float("tolerance"), ("cancellation-suite",), (), 1e-10),
    "samples": (_integer("samples", 1), ("diagnostics",), (), 2000),
}

_MODEL_PARAM_KEYS = [k for k in CONFIG_SCHEMA if k.startswith("model.")]


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines into raw string values."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {ln}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw: dict, experiment: str | None) -> dict:
    """Validate and type a raw config for the given experiment kind."""
    if experiment is None:
        experiment = raw.get("experiment")
    if experiment is None:
        raise ConfigError("missing required key: experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    if "experiment" in raw and raw["experiment"] != experiment:
        raise ConfigError(
            f"config sets experiment = {raw['experiment']!r} but the subcommand is {experiment!r}"
        )
    cfg = {"experiment": experiment}
    for key, value in raw.items():
        if key == "experiment":
            continue
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        parser, accepted, _, _ = CONFIG_SCHEMA[key]
        if experiment not in accepted:
            raise ConfigError(f"config key {key!r} does not apply to experiment {experiment!r}")
        try:
            cfg[key] = parser(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key, (_, accepted, required_for, default) in CONFIG_SCHEMA.items():
        if key in cfg:
            continue
        if experiment in required_for:
            raise ConfigError(f"missing required key: {key}")
        if experiment in accepted and default is not None:
            cfg[key] = default
    if "csv" in cfg["formats"] and experiment not in _CSV_EXPERIMENTS:
        raise ConfigError(f"formats: {experiment} writes no csv table; only "
                          f"{', '.join(_CSV_EXPERIMENTS)} does")
    return cfg


def build_model(cfg: dict) -> geo.ManifoldModel:
    params = {}
    for key in _MODEL_PARAM_KEYS:
        if key in cfg and cfg[key] is not None:
            params[key.split(".", 1)[1]] = cfg[key]
    return geo.model_catalog(cfg["model"], **params)


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def config_canonical_text(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(config_canonical_text(cfg).encode()).hexdigest()


CSV_COLUMNS = ("t", "value", "stderr", "analytic", "ratio")


def report_render(payload: dict, outdir: Path, stem: str, formats, cfg: dict) -> list:
    """Write the report files; identical payload and config give identical bytes.

    Payloads carry no timing, so reruns of the same seed and config are
    byte-identical.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "artifact_version": __version__,
        "config_sha256": config_hash(cfg),
        "config": {k: v for k, v in cfg.items()},
    }
    body = dict(payload)
    body.update(meta)
    written = []
    if "json" in formats:
        path = outdir / f"{stem}.json"
        path.write_text(canonical_json(body) + "\n", encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        path = outdir / f"{stem}.csv"
        lines = [f"# gblab {__version__} config_sha256={meta['config_sha256']}"]
        lines.append(",".join(CSV_COLUMNS))
        for row in payload["rows"]:
            lines.append(
                ",".join(
                    _fmt_float(float(row[c])) if row[c] is not None else "nan"
                    for c in CSV_COLUMNS
                )
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _run_estimate_chi(cfg):
    model = build_model(cfg)
    _progress(f"estimate-chi: {model!r} t={cfg['t']} base_points={cfg['base_points']} "
              f"bridges={cfg['bridges']}")
    return est.estimate_chi(model, cfg["t"], cfg["base_points"], cfg["bridges"], cfg["seed"],
                            steps=cfg.get("steps"))


def _run_local_limit(cfg):
    model = build_model(cfg)
    point = model.boundary_point() if cfg["point"] == "boundary" else model.interior_point()
    _progress(f"local-limit: {model!r} at {cfg['point']} point, t in {cfg['t_sequence']}")
    return est.local_limit_check(
        model, point, cfg["t_sequence"], cfg["bridges"], cfg["seed"],
        steps=cfg.get("steps"), depth_nodes=cfg["depth_nodes"],
    )


def _run_calibrate(cfg):
    table = est.calibrate_constants(cfg["dimension"])
    payload = table.to_dict()
    payload["experiment"] = "calibrate"
    even = cfg["dimension"] if cfg["dimension"] % 2 == 0 else cfg["dimension"] + 1
    ratio, cv = est.pfaffian_ratio(even)
    payload["pfaffian_ratios"] = {str(even): ratio}
    payload["pfaffian_ratio_cv"] = cv
    return payload


def _run_cancellation_suite(cfg):
    tol = cfg["tolerance"]
    values = ext.cancellation_battery(cfg["dims"], cfg["instances"],
                                      np.random.default_rng(cfg["seed"]))
    cases = len(values)
    failures = sum(v > tol for v in values)
    worst = max(values, default=0.0)
    summary = f"{failures} failures"
    _progress(f"cancellation-suite: {cases} cases, {summary}, worst |Str| = {worst:.3e}")
    return {
        "experiment": "cancellation-suite",
        "dims": cfg["dims"],
        "instances": cfg["instances"],
        "tolerance": tol,
        "cases": cases,
        "failures": failures,
        "worst_abs_supertrace": worst,
        "summary": summary,
    }


def _run_diagnostics(cfg):
    """The stochastic property battery; a check that finds nothing to measure fails."""
    seed = cfg["seed"]
    samples = cfg["samples"]
    checks = []

    # E lam_t ~ sqrt(2t/pi) from a boundary point, lifted by the boundary's curvature: the
    # slope reads 0.52 on the unit disk (E lam 11 % high at t = 0.1), 0.50 on this one.
    disk = geo.model_catalog("ball", dimension=2, radius=10.0)
    z = np.broadcast_to(np.array([10.0, 0.0]), (samples, 2)).copy()
    ts = np.array([1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
    total_steps = 2500
    marks = {int(round(total_steps * ti / ts[-1])): i for i, ti in enumerate(ts)}
    lam_at = np.empty((len(ts), samples))  # the local time of every walk at each mark

    def record(k, rows, state, info):
        if k + 1 in marks:
            lam_at[marks[k + 1], rows] = state.lam

    st.simulate_bridges(disk, z, ts[-1], total_steps, st.RngStream(seed, 1), pinned=False,
                        on_step=record)
    slope = float(np.polyfit(np.log(ts), np.log(lam_at.mean(axis=1)), 1)[0])
    checks.append({"name": "local_time_exponent", "value": slope,
                   "target": 0.5, "tolerance": 0.05, "passed": abs(slope - 0.5) < 0.05})

    hemi = geo.model_catalog("hemisphere", dimension=2)
    anchors = np.broadcast_to(hemi.interior_point(), (samples, 3)).copy()
    hol_means = []
    hol_ts = [1e-3, 1e-2, 1e-1]
    for i, t in enumerate(hol_ts):
        batch = st.simulate_bridges(hemi, anchors, t, 150, st.RngStream(seed, 10 + i))
        O = batch.factor_O["cap"]
        hol_means.append(float(np.linalg.norm(O - np.eye(2), axis=(1, 2)).mean()))
    hslope = float(np.polyfit(np.log(hol_ts), np.log(hol_means), 1)[0])
    checks.append({"name": "holonomy_slope", "value": hslope,
                   "target": 1.0, "tolerance": 0.2, "passed": abs(hslope - 1.0) < 0.2})

    # about a tenth of the loops leave the ball at rho^2/2, 0.3 % at rho^2/4, none at rho^2/100
    unit_disk = geo.model_catalog("ball", dimension=2)
    rho = 0.4
    x = np.array([0.3, 0.0])
    fracs = [
        st.confinement_fraction(unit_disk, x, rho, tt, samples, st.RngStream(seed, 20 + i))
        for i, tt in enumerate([rho**2 / 2.0, rho**2 / 4.0, rho**2 / 100.0])
    ]
    margin = 2.0 * math.sqrt(0.25 / samples)
    conf_ok = (fracs[1] >= fracs[0] - margin and fracs[2] >= fracs[1] - margin
               and fracs[0] < 0.999 and fracs[2] > 0.999)
    checks.append({"name": "confinement_monotone", "value": fracs, "passed": bool(conf_ok),
                   "target": "nondecreasing as t falls, < 0.999 at rho^2/2, > 0.999 at rho^2/100"})

    # A penalty jump keeps exp(-dlam / eps) of the normal part the exact jump removes and every
    # factor is a contraction, so the gap is at most their sum: below 0.007, 1e-21 and 0 per
    # contact at eps = the path's smallest dlam / 5, / 50, / 500, so the gap falls to rounding.
    gap_sets = []
    pseed = 0
    while len(gap_sets) < 3 and pseed < 30:
        path = st.simulate_path(unit_disk, np.array([1.0, 0.0]), 0.04, 150,
                                st.RngStream(seed, 30 + pseed))
        pseed += 1
        dlam = path.dlam[path.contact]
        # a contact exactly on the boundary, which a float32 walk can reach, has dlam = 0
        # and so no eps scale: such a path is not measured
        if dlam.size >= 3 and dlam.min() > 0:
            M_exact = st.evolve_functional(path, mode="exact-jump").mat
            gap_sets.append([[float(np.linalg.norm(
                st.evolve_functional(path, mode="epsilon", eps=e).mat - M_exact, 2)),
                float(np.exp(-dlam / e).sum())] for e in dlam.min() / np.array([5, 50, 500])])
    eps_ok = len(gap_sets) == 3 and all(
        s[-1][0] < 1e-2 and all(g <= b + 1e-12 for g, b in s) for s in gap_sets)
    checks.append({"name": "epsilon_jump_convergence", "value": gap_sets, "passed": bool(eps_ok),
                   "target": "[gap, bound] at eps = dlam_min/5, /50, /500; gap <= bound, < 1e-2"})

    passed = all(c["passed"] for c in checks)
    _progress(f"diagnostics: {'all checks passed' if passed else 'CHECK FAILURES'}")
    return {"experiment": "diagnostics", "samples": samples, "checks": checks,
            "passed": bool(passed)}


_RUNNERS = {
    "estimate-chi": _run_estimate_chi,
    "local-limit": _run_local_limit,
    "calibrate": _run_calibrate,
    "cancellation-suite": _run_cancellation_suite,
    "diagnostics": _run_diagnostics,
}


def run(config_path, experiment: str | None = None, output_dir=None) -> int:
    """Execute one experiment from a config file; returns the exit code."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(canonical_json({"error": {"kind": "config", "message": str(exc)}}))
        return 2
    try:
        cfg = resolve_config(parse_config_text(text), experiment)
        outdir = output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg["output_dir"]
        payload = _RUNNERS[cfg["experiment"]](cfg)
    except (ConfigError, CalibrationRankError) as exc:
        print(canonical_json({"error": {"kind": "validation", "message": str(exc)}}))
        return 2
    except (NumericalAbortError, SeriesConvergenceError) as exc:
        print(canonical_json({"error": {"kind": "numerical", "message": str(exc)}}))
        return 3
    except GblabError as exc:
        print(canonical_json({"error": {"kind": "validation", "message": str(exc)}}))
        return 2
    files = report_render(payload, Path(outdir), cfg["experiment"], cfg["formats"], cfg)
    summary = {
        "experiment": cfg["experiment"],
        "config_sha256": config_hash(cfg),
        "files": [str(f) for f in files],
    }
    for key in ("estimate", "stderr", "reference", "failures", "passed"):
        if key in payload:
            summary[key] = payload[key]
    print(canonical_json(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gblab",
        description="Monte Carlo laboratory for Euler-characteristic curvature integrals",
    )
    parser.add_argument("--version", action="version", version=f"gblab {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--output-dir", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    return run(args.config, args.experiment, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
