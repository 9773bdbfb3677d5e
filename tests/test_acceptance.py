"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Monte Carlo budgets are pilot-tuned so every statistical criterion meets
its stderr target within the runtime caps; all random seeds are fixed.
"""

import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gblab import cli
from gblab import estimator as est
from gblab import exterior as ext
from gblab import geometry as geo

from oracles import degree_block, gauss_equation_check

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


def _verdict(num, passed, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared expensive runs (criteria 4 and 5 share the chi estimates)
# ---------------------------------------------------------------------------

CHI_BUDGETS = {
    "disk": dict(model=("ball", dict(dimension=2)), t=0.1,
                 base_points=400, bridges=260, steps=250, seed=1301),
    "hemisphere": dict(model=("hemisphere", dict(dimension=2)), t=0.1,
                       base_points=460, bridges=240, steps=220, seed=1302),
    "ball3": dict(model=("ball", dict(dimension=3)), t=0.01,
                  base_points=760, bridges=240, steps=300, seed=1303),
    "cylinder": dict(model=("cylinder", dict(length=1.0)), t=0.1,
                     base_points=64, bridges=60, steps=100, seed=1304),
    "solid-torus": dict(model=("sphere-ball", dict(sphere_dim=1, ball_dim=2)), t=0.1,
                        base_points=64, bridges=60, steps=100, seed=1305),
}


@pytest.fixture(scope="session")
def chi_runs():
    """Euler-characteristic estimates at t and 2t for every catalog model."""
    runs = {}
    for label, spec in CHI_BUDGETS.items():
        name, params = spec["model"]
        model = geo.model_catalog(name, **params)
        for factor in (1, 2):
            started = time.perf_counter()
            report = est.estimate_chi(
                model, spec["t"] * factor, spec["base_points"], spec["bridges"],
                seed=spec["seed"] + 10 * factor, steps=spec["steps"],
            )
            runs[(label, factor)] = (report, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="session")
def constants2():
    return est.calibrate_constants(2)


@pytest.fixture(scope="session")
def constants3():
    return est.calibrate_constants(3)


# ---------------------------------------------------------------------------
# criterion 1: algebraic cancellation suite
# ---------------------------------------------------------------------------


def test_criterion_1_berezin_patodi_cancellations():
    started = time.perf_counter()
    values = ext.cancellation_battery((2, 3, 4, 5, 6), 100, np.random.default_rng(7001))
    tol = 1e-10
    cases = len(values)
    worst = max(values)
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        cases == 4500 and worst < tol and elapsed < 60.0,
        f"supertrace cancellation below total degree: {cases} cases "
        f"(interior bound n, boundary bound n-1), worst |Str| = {worst:.2e} < 1e-10, "
        f"runtime {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 2: Weitzenboeck convention lock
# ---------------------------------------------------------------------------


def test_criterion_2_weitzenboeck_lock():
    worst = 0.0
    for n in (2, 3, 4):
        for kappa in (1.0, 2.3, -0.7):
            op = ext.curvature_to_operator(ext.CurvatureTensor.constant_curvature(n, kappa))
            for p in range(n + 1):
                block = degree_block(op, p)
                dev = np.abs(block - kappa * p * (n - p) * np.eye(block.shape[0])).max()
                worst = max(worst, dev)
    _verdict(
        2, worst < 1e-8,
        f"curvature operator on constant-curvature spheres equals "
        f"kappa*p*(n-p)*I per degree, worst deviation {worst:.2e} < 1e-8",
    )


# ---------------------------------------------------------------------------
# criterion 3: Gauss equation
# ---------------------------------------------------------------------------


def test_criterion_3_gauss_equation():
    models = [
        geo.model_catalog("ball", dimension=3),
        geo.model_catalog("hemisphere", dimension=3),
        geo.model_catalog("cap", dimension=3, aperture=0.7),
        geo.model_catalog("cap", dimension=3, aperture=1.2),
    ]
    worst = max(gauss_equation_check(m, samples=32) for m in models)
    _verdict(
        3, worst < 1e-10,
        f"ambient restriction + Gauss form = boundary curvature on "
        f"D3, S3+, and spherical caps; worst deviation {worst:.2e} < 1e-10",
    )


# ---------------------------------------------------------------------------
# criteria 4 and 5: chi reproduction and Witten-index t-constancy
# ---------------------------------------------------------------------------


def test_criterion_4_chi_reproduction(chi_runs):
    details = []
    ok = True
    for label, spec in CHI_BUDGETS.items():
        report, elapsed = chi_runs[(label, 1)]
        inside = abs(report["estimate"] - report["reference"]) <= 1.96 * report["stderr"] + 1e-12
        ok &= inside and report["stderr"] <= 0.08 and elapsed < 600.0
        note = " = chi(S2)/2" if label == "ball3" else ""
        details.append(
            f"{label}: {report['estimate']:+.3f}+-{report['stderr']:.3f} "
            f"(ref {report['reference']:+.0f}{note}, {elapsed:.0f}s)"
        )
    _verdict(4, ok, "chi within 95% interval at stderr <= 0.08; " + "; ".join(details))


def test_criterion_5_witten_index_t_constancy(chi_runs):
    details = []
    ok = True
    for label in CHI_BUDGETS:
        r1, _ = chi_runs[(label, 1)]
        r2, _ = chi_runs[(label, 2)]
        gap = abs(r1["estimate"] - r2["estimate"])
        bound = 1.96 * math.hypot(r1["stderr"], r2["stderr"]) + 1e-12
        ok &= gap <= bound
        details.append(f"{label}: |{r1['estimate']:.3f} - {r2['estimate']:.3f}| = {gap:.3f} "
                       f"<= {bound:.3f}")
    _verdict(5, ok, "estimates at t and 2t agree within combined intervals; " + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: local limits
# ---------------------------------------------------------------------------


def test_criterion_6_local_limits():
    hemi = geo.model_catalog("hemisphere", dimension=2)
    interior = est.local_limit_check(
        hemi, hemi.interior_point(), [0.32, 0.16, 0.08],
        bridges=12_000, seed=1601, steps=200,
    )
    r_int = interior["rows"][-1]["ratio"]
    disk = geo.model_catalog("ball", dimension=2)
    boundary = est.local_limit_check(
        disk, disk.boundary_point(), [0.08, 0.04, 0.02],
        bridges=6_000, seed=1602, steps=250, depth_nodes=8,
    )
    r_bdy = boundary["rows"][-1]["ratio"]
    ok = abs(r_int - 1.0) < 0.1 and abs(r_bdy - 1.0) < 0.15
    _verdict(
        6, ok,
        f"scaled supertrace expectation vs calibrated integrand: hemisphere interior "
        f"ratio {r_int:.3f} (1 +- 0.1), disk boundary ratio {r_bdy:.3f} (1 +- 0.15, "
        f"geodesic curvature term)",
    )


# ---------------------------------------------------------------------------
# criterion 7: calibration sanity
# ---------------------------------------------------------------------------


def test_criterion_7_calibration_sanity(constants2, constants3):
    bulk_err = abs(constants2.bulk * (-4 * math.pi) - 1.0)
    bdry_err = abs(constants2.boundary[(0, 1)] * (-2 * math.pi) - 1.0)
    e_err = abs(constants3.e_half - 0.5)
    ok = bulk_err < 0.02 and bdry_err < 0.02 and e_err < 1e-2
    _verdict(
        7, ok,
        f"classical 1/(2 pi) normalizations recovered (relative errors "
        f"{bulk_err:.1e}, {bdry_err:.1e} < 2%); odd-ball half ratio "
        f"|e3 - 1/2| = {e_err:.1e} < 1e-2",
    )


# ---------------------------------------------------------------------------
# criterion 8: the stochastic property battery (the diagnostics experiment)
# ---------------------------------------------------------------------------


def test_criterion_8_stochastic_properties(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "out"
    config = tmp_path / "diagnostics.cfg"
    config.write_text(f"samples = 6000\nseed = 1801\noutput_dir = {out}\n", encoding="utf-8")
    code = cli.run(config, "diagnostics")
    capsys.readouterr()  # the summary line, which the report repeats
    report = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, SCHEMA)
    elapsed = time.perf_counter() - started
    value = {c["name"]: c["value"] for c in report["checks"]}
    _verdict(
        8, code == 0 and report["passed"] and elapsed < 300.0,
        f"gblab diagnostics at 6000 samples: local-time exponent "
        f"{value['local_time_exponent']:.3f} (0.5 +- 0.05); holonomy slope "
        f"{value['holonomy_slope']:.3f} (1 +- 0.2); confinement fractions "
        f"{[f'{f:.4f}' for f in value['confinement_monotone']]} nondecreasing as t "
        f"decreases; epsilon gaps within their bounds and falling to "
        f"{max(s[-1][0] for s in value['epsilon_jump_convergence']):.1e} < 1e-2 on "
        f"{len(value['epsilon_jump_convergence'])} paths; runtime {elapsed:.0f}s < 300s",
    )


# ---------------------------------------------------------------------------
# criterion 9: totally geodesic corollary
# ---------------------------------------------------------------------------


def test_criterion_9_totally_geodesic_corollary():
    worst = 0.0
    for n in (2, 3):
        model = geo.model_catalog("hemisphere", dimension=n)
        rng = np.random.default_rng(1900 + n)
        points = list(model.sample_boundary(rng, 6)) + [model.boundary_point()]
        for z in points:
            for key, value in est.boundary_integrand_terms(model, z).items():
                if key[1] >= 1:
                    worst = max(worst, abs(value))
    _verdict(
        9, worst < 1e-12,
        f"every boundary integrand with a shape factor vanishes pointwise on "
        f"totally geodesic equators (S2+/S3+), worst |term| = {worst:.2e} < 1e-12",
    )
