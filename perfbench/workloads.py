"""The benchmark's workloads: generated gblab configs and their correctness gates.

Each workload is one experiment config that ``gblab.cli.run`` executes.
The gblab seed is derived from the benchmark's ``--seed`` and the workload
name, so the same seed always gives the same config; every other value is
fixed here.  Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

# |z| against the exact Euler characteristic above this flags breakage; the
# discretization bias of the shipped scheme sits near |z| ~ 1 at these budgets.
Z_BOUND = 6.0
# acceptance criterion 6: the smallest-t local-limit ratio lies within 1 +- 0.15
RATIO_TOLERANCE = 0.15

LOCAL_LIMIT_EXAMPLE = Path("docs") / "examples" / "local-limit-disk-boundary.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    settings: dict = field(default_factory=dict)  # config keys besides seed/output_dir
    example: Path | None = None                   # a shipped config the settings amend
    small: dict = field(default_factory=dict)     # overrides for the quick self-test


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chi-disk",
            "estimate-chi",
            {"model": "ball", "model.dimension": "2", "t": "0.1",
             "base_points": "130", "bridges": "260", "steps": "250"},
            small={"base_points": "24", "bridges": "20", "steps": "40"},
        ),
        Workload(
            "chi-hemisphere",
            "estimate-chi",
            {"model": "hemisphere", "model.dimension": "2", "t": "0.1",
             "base_points": "1000", "bridges": "10", "steps": "220"},
            small={"base_points": "40", "bridges": "6", "steps": "40"},
        ),
        Workload(
            "chi-ball3-points",
            "estimate-chi",
            {"model": "ball", "model.dimension": "3", "t": "0.01",
             "base_points": "1500", "bridges": "4", "steps": "300"},
            small={"base_points": "60", "bridges": "4", "steps": "40"},
        ),
        Workload(
            "local-limit-disk",
            "local-limit",
            {"bridges": "2000"},
            example=LOCAL_LIMIT_EXAMPLE,
            small={"bridges": "300", "steps": "40"},
        ),
    )
}


def gblab_seed(workload: str, seed: int, index: int) -> int:
    """The index-th nonnegative 32-bit gblab seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_settings(workload: Workload, root: Path, seed: int, index: int, output_dir: Path,
                    small: bool = False) -> dict:
    """Config keys and values of one run, in file order."""
    settings = {}
    if workload.example is not None:
        from gblab.cli import parse_config_text

        settings = parse_config_text((root / workload.example).read_text(encoding="utf-8"))
    settings.update(workload.settings)
    if small:
        settings.update(workload.small)
    settings.update(seed=str(gblab_seed(workload.name, seed, index)), workers="1",
                    output_dir=str(output_dir))
    return settings


def config_text(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def first_kernel_time(workload: Workload, settings: dict) -> float:
    """Lifetime of the set-up kernel call: the smallest t the run uses.

    The Bessel mode tables grow with 1/t, so a table built at the smallest
    t serves every later call of the run.
    """
    if workload.experiment == "local-limit":
        return min(float(v) for v in settings["t_sequence"].split(",") if v.strip())
    return float(settings["t"])


def gate(workload: Workload, report: dict, small: bool) -> tuple[list, dict]:
    """Statistical checks of one report: (failures, recorded values).

    The signed z (estimate-chi) and the smallest-t ratio (local-limit) are
    recorded on every run whether or not they pass.
    """
    failures = []
    if workload.experiment == "estimate-chi":
        z = (report["estimate"] - report["reference"]) / report["stderr"]
        values = {"z": z, "stderr": report["stderr"], "estimate": report["estimate"]}
        if not small and abs(z) > Z_BOUND:
            failures.append(f"|z| = {abs(z):.2f} exceeds {Z_BOUND}")
        return failures, values
    smallest = min(report["rows"], key=lambda row: row["t"])
    ratio = smallest["ratio"]
    values = {"ratio": ratio, "stderr": smallest["stderr"]}
    if not small and (ratio is None or abs(ratio - 1.0) > RATIO_TOLERANCE):
        failures.append(f"smallest-t ratio {ratio} outside 1 +- {RATIO_TOLERANCE}")
    return failures, values
