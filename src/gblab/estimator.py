"""Euler-characteristic estimation and its analytic reference machinery.

The estimator evaluates the path-integral identity

    chi(X) = integral over X of  K0(t; x, x) * E[ Str(M_t V_t) ]  dX

by volume Monte Carlo over base points (half of them drawn from the
COLLAR_FACTOR sqrt(t) boundary collar, where the integrand concentrates)
and bridge Monte Carlo for the inner expectation, whose per-point means
all come from _node_means.  The identity holds at every lifetime t, which
the Witten-index constancy check exploits.  estimate_chi and
local_limit_check return the report payloads that the CLI writes.

The analytic side: supertrace integrands built from the curvature and
shape operators.  In even dimension the bulk field is a multiple of
Str DR^(n/2) and the boundary field a combination of Str DR^k DA^l over
the boundary exterior algebra with 2k + l = n - 1; in odd dimension the
boundary field is a multiple of the boundary's own Gauss-Bonnet
integrand Str DR_Z^((n-1)/2).  The universal constants in front are
never hard-coded: they are calibrated by a deterministic least-squares
solve of the known Euler characteristics of the model family against
the closed-form supertrace integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exterior as ext
from . import kernels as hk
from .errors import CalibrationRankError, ConfigError, NumericalAbortError
from .geometry import ManifoldModel, boundary_geometry, model_catalog
from .stochastic import RngStream, simulate_bridges

DEFAULT_STEPS = 2000  # default grid of estimate_chi: h = t / 2000
LOCAL_LIMIT_STEPS = 400  # default grid of local_limit_check: h = t / 400
COLLAR_FACTOR = 3.0  # base-point sampling collar width, in units of sqrt(t)
DEPTH_COLLAR_FACTOR = 5.0  # local-limit depth quadrature width, in units of sqrt(t)


# ---------------------------------------------------------------------------
# analytic supertrace integrands
# ---------------------------------------------------------------------------


def bulk_supertrace(model: ManifoldModel) -> float:
    """Str DR^(n/2) of the model's curvature operator (0 for odd n)."""
    if model.dimension % 2 != 0:
        return 0.0
    return ext.pfaffian_supertrace(model.frame_curvature())


def boundary_integrand_terms(model: ManifoldModel, z) -> dict:
    """Supertraces of the boundary operator monomials at the point z.

    Even n: keys (k, l) with 2k + l = n - 1 map to Str(DR_tan^k DA^l)
    over the boundary exterior algebra.  Odd n: keys (k, m) with
    k + m = (n - 1) / 2 map to Str(DR_tan^k DGauss^m), where DGauss is
    the paired extension of the Gauss form (the square of the shape
    contribution); every term with a shape factor vanishes when the
    boundary is totally geodesic.
    """
    n = model.dimension
    bg = boundary_geometry(model, z)
    nb = n - 1
    terms = {}
    if nb == 0:
        return terms
    dr_tan = ext.curvature_to_operator(bg.ambient_restriction)
    # Str(DR_tan^k X^j) over stride * k + j = top: X = DA with 2k + l = n - 1
    # for even n, X = DGauss with k + m = (n - 1) / 2 for odd n
    if n % 2 == 0:
        x, top, stride = ext.derivation_extend(bg.shape_tangential), n - 1, 2
    else:
        x, top, stride = ext.curvature_to_operator(bg.gauss_form), (n - 1) // 2, 1
    for k in range(top // stride + 1):
        j = top - stride * k
        op = ext.GradedOperator.identity(nb)
        for _ in range(k):
            op = op @ dr_tan
        for _ in range(j):
            op = op @ x
        terms[(k, j)] = op.supertrace()
    return terms


def boundary_closed_supertrace(model: ManifoldModel, z) -> float:
    """Str DR_Z^((n-1)/2) of the induced boundary curvature (odd n)."""
    return ext.pfaffian_supertrace(boundary_geometry(model, z).induced_curvature)


# ---------------------------------------------------------------------------
# constants: calibration table
# ---------------------------------------------------------------------------


@dataclass
class ConstantTable:
    """Universal constants recovered from the calibration family."""

    n: int
    bulk: float | None = None                  # even n
    boundary: dict = field(default_factory=dict)  # (k, l) -> constant, even n
    d_odd: float | None = None                 # odd n
    e_half: float | None = None                # odd n: chi(X) / chi(Z) target 1/2
    family: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    condition: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "bulk_constant": self.bulk,
            "boundary_constants": {f"k{k}_l{l}": v for (k, l), v in self.boundary.items()},
            "odd_boundary_constant": self.d_odd,
            "boundary_half_ratio": self.e_half,
            "family": list(self.family),
            "residuals": list(self.residuals),
            "condition": self.condition,
        }


def _default_family(n: int):
    if n == 2:
        return [
            model_catalog("ball", dimension=2),
            model_catalog("hemisphere", dimension=2),
        ]
    if n == 3:
        return [
            model_catalog("ball", dimension=3),
            model_catalog("hemisphere", dimension=3),
            model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
        ]
    raise CalibrationRankError(
        f"no calibration family spans dimension {n}: the catalog has no "
        f"model with a nonvanishing {n}-dimensional bulk integrand "
        f"(a dimension-{n} hemisphere would be needed)"
    )


def _design_row(model: ManifoldModel, keys):
    """Closed-form supertrace integrals for one calibration equation."""
    n = model.dimension
    zs = [model.boundary_point()]
    rng = np.random.default_rng(12345)
    zs.extend(model.sample_boundary(rng, 2))
    row = []
    for key in keys:
        if key == "bulk":
            row.append(bulk_supertrace(model) * model.volume)
            continue
        vals = []
        for z in zs:
            if key == "closed":
                vals.append(boundary_closed_supertrace(model, z))
            else:
                vals.append(boundary_integrand_terms(model, z)[key])
        vals = np.array(vals)
        if np.abs(vals - vals[0]).max() > 1e-8 * max(1.0, np.abs(vals[0])):
            raise CalibrationRankError(
                f"boundary integrand {key} is not constant on the boundary of {model!r}"
            )
        row.append(vals[0] * model.boundary_area)
    return row


PFAFFIAN_SAMPLES = 20  # random curvature tensors behind pfaffian_ratio
PFAFFIAN_SEED = 7


def pfaffian_ratio(n: int) -> tuple[float, float]:
    """Ratio Str DR^(n/2) / delta-contraction over random curvature tensors.

    Returns (mean ratio, coefficient of variation) over PFAFFIAN_SAMPLES
    tensors; the ratio is the dimensional constant tying the supertrace
    form to the Pfaffian.
    """
    rng = np.random.default_rng(PFAFFIAN_SEED)
    ratios = []
    while len(ratios) < PFAFFIAN_SAMPLES:
        R = ext.CurvatureTensor.random(n, rng)
        denom = ext.delta_contraction(R)
        if abs(denom) < 1e-8:
            continue
        ratios.append(ext.pfaffian_supertrace(R) / denom)
    ratios = np.array(ratios)
    return float(ratios.mean()), float(ratios.std() / abs(ratios.mean()))


def calibrate_constants(n: int, models=None) -> ConstantTable:
    """Solve the model family's Euler characteristics for the constants.

    The design matrix holds closed-form supertrace integrals, so the
    solve is deterministic; Monte Carlo enters only in validation runs.
    Raises CalibrationRankError when the family cannot pin every
    constant, naming what is missing.
    """
    models = list(models) if models is not None else _default_family(n)
    if n % 2 == 0:
        keys = ["bulk"] + [(k, n - 1 - 2 * k) for k in range((n - 1) // 2, -1, -1)]
    else:
        keys = ["closed"]
    A = np.array([_design_row(m, keys) for m in models], dtype=float)
    rhs = np.array([m.euler_characteristic for m in models], dtype=float)
    col_norm = np.abs(A).max(axis=0)
    dead = [keys[j] for j in range(len(keys)) if col_norm[j] < 1e-12]
    if dead:
        raise CalibrationRankError(
            f"calibration family {[m.name for m in models]} gives no information on "
            f"{dead}; add a model whose boundary/bulk integrand activates these terms"
        )
    if np.linalg.matrix_rank(A, tol=1e-10 * max(1.0, np.abs(A).max())) < len(keys):
        raise CalibrationRankError(
            f"calibration design matrix is rank-deficient for the family "
            f"{[m.name for m in models]}; the constants {keys} are not separated "
            f"(add a model mixing them differently)"
        )
    sol, _, _, svals = np.linalg.lstsq(A, rhs, rcond=None)
    residuals = (A @ sol - rhs).tolist()
    table = ConstantTable(
        n=n,
        family=[repr(m) for m in models],
        residuals=residuals,
        condition=float(svals.max() / svals.min()),
    )
    if n % 2 == 0:
        table.bulk = float(sol[0])
        for j, key in enumerate(keys[1:], start=1):
            table.boundary[key] = float(sol[j])
    else:
        table.d_odd = float(sol[0])
        closed_bulk = calibrate_constants(n - 1).bulk
        table.e_half = float(table.d_odd / closed_bulk)
    return table


def local_integrand(model: ManifoldModel, constants: ConstantTable, point, *,
                    on_boundary: bool) -> float:
    """The calibrated local Gauss-Bonnet integrand at a point of the model.

    With on_boundary it is the boundary field, otherwise the bulk field,
    which is constant on every catalog model and zero in odd dimension.
    Integrating the bulk field over the model and the boundary field over
    its boundary recovers the Euler characteristic.
    """
    n = model.dimension
    if constants is None or constants.n != n:
        raise CalibrationRankError(f"constants for dimension {n} are required")
    if not on_boundary:
        return 0.0 if n % 2 else float(constants.bulk * bulk_supertrace(model))
    if n % 2:
        return float(constants.d_odd * boundary_closed_supertrace(model, point))
    terms = boundary_integrand_terms(model, point)
    return float(sum(constants.boundary[key] * val for key, val in terms.items()))


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _node_means(model: ManifoldModel, points, t, steps: int, bridges, rng, *, paired=False,
                group_points=None):
    """Per-node mean and standard error of Str(M_t V_t) over the bridge loops at each point.

    t is one lifetime for every point or one per point, and bridges one
    loop count for every point or one per point; the loops of each point
    are consecutive rows of one batch, in point order.
    rng is a list of generators, generator i drawing the rows of the next
    group_points[i] points (one point each by default; see
    simulate_bridges).  With paired=True (even counts) the loops step as
    antithetic pairs, and the mean and standard error come from the pair
    means, which are independent where the bridges of a pair are not.
    Every bridge is one sample of the integrand, so none is dropped: raises
    NumericalAbortError when any bridge ended in an invalid state or with a
    non-finite supertrace.
    """
    counts = np.broadcast_to(bridges, len(points))
    sizes = np.ones(len(rng), dtype=np.int64) if group_points is None else group_points
    groups = np.add.reduceat(counts, np.cumsum(sizes) - sizes)
    batch = simulate_bridges(model, np.repeat(points, counts, axis=0),
                             np.repeat(t, counts) if np.ndim(t) else t, steps, rng,
                             paired=paired, group_rows=groups)
    values = batch.supertraces()
    bad = int(np.count_nonzero(~(batch.alive & np.isfinite(values))))
    if bad:
        lifetimes = np.unique(t).tolist() if np.ndim(t) else t
        raise NumericalAbortError(
            f"{bad} of {values.size} bridges at t={lifetimes} ended in an invalid state or "
            "with a non-finite supertrace; refine steps or shrink t"
        )
    if paired:
        values = (values[0::2] + values[1::2]) / 2.0
        counts = counts // 2
    if counts.min() == counts.max():  # one reduction over equal rows
        rows = values.reshape(len(points), -1)
        mean = rows.sum(axis=1) / counts
        var = ((rows - mean[:, None]) ** 2).sum(axis=1)
    else:
        segments = np.split(values, np.cumsum(counts)[:-1])
        mean = np.array([seg.sum() for seg in segments]) / counts
        var = np.array([((seg - m) ** 2).sum() for seg, m in zip(segments, mean)])
    var = var / np.maximum(counts - 1, 1)
    return mean, np.sqrt(var / counts)


def _antithetic(model: ManifoldModel, bridges: int) -> bool:
    """Whether the bridges of a node or base point step as antithetic pairs.

    The one rule of every estimator: the depth nodes of local_limit_check,
    the point of supertrace_expectation and the base points of
    estimate_chi.  Negating a loop's noise turns its outward excursions
    inward, so the local times of a loop and its mirror are negatively
    correlated, and the pair mean varies less than that of two independent
    loops.  Where base points dominate the variance the pairs still pay:
    a pair draws the normals of one loop, so the batch draws half of them.
    Models that carry frames draw independent loops: a loop and its mirror
    enclose about the same signed area, so their holonomies agree and
    pairing doubles the holonomy's share of the variance.  An odd count
    draws independent loops too.
    """
    return not model.needs_frames and bridges % 2 == 0


# The second stream of estimate_chi's chunk ci is RngStream(seed, HALF_STREAMS + ci + 1),
# above every chunk stream ci + 1 and the point stream 0.
HALF_STREAMS = 1 << 62


def _chunk_streams(model: ManifoldModel, ci: int, points: int) -> list:
    """(stream id, base points) of each stream of estimate_chi's chunk ci, in point order.

    The loops of a chunk's base points draw from RngStream(seed, ci + 1).
    On models that carry frames a chunk of two or more points draws the
    loops of its second half from a stream of their own, so its batch holds
    two row groups that simulate_bridges can step in two processes (see the
    stochastic module); flat batches are never split, and flat chunks keep
    one stream.  Like _antithetic, this decides how a chunk's loops are drawn.
    """
    if not model.needs_frames or points < 2:
        return [(ci + 1, points)]
    return [(ci + 1, points - points // 2), (HALF_STREAMS + ci + 1, points // 2)]


def supertrace_expectation(model: ManifoldModel, x, t: float, bridges: int, rng, *,
                           steps: int | None = None):
    """Monte Carlo mean and standard error of Str(M_t V_t) at one base point."""
    steps = check_integer("steps", DEFAULT_STEPS if steps is None else steps, 2)
    mean, se = _node_means(model, check_point(model, x)[None, :], t, steps, bridges, [rng],
                           paired=_antithetic(model, bridges))
    return float(mean[0]), float(se[0])


def _stratified_points(model: ManifoldModel, count: int, t: float, rng):
    """Base points with their mixture-density importance weights.

    Half the points come from the COLLAR_FACTOR sqrt(t) boundary collar and
    half from the whole volume; once the collar covers 99.9 percent of the
    volume, or its volume rounds to 0, all of them come from the whole volume.
    """
    width = COLLAR_FACTOR * math.sqrt(t)
    v_col = model.collar_volume(width)
    if v_col >= model.volume * 0.999 or v_col == 0.0:
        pts = model.sample_volume(rng, count)
        return pts, np.full(count, model.volume)
    n_col = count // 2
    n_uni = count - n_col
    pts = np.concatenate(
        [model.sample_volume(rng, n_uni), model.sample_collar(rng, n_col, width)], axis=0
    )
    in_collar = model.boundary_distance(pts) <= width + 1e-12
    frac_uni = n_uni / count
    frac_col = n_col / count
    density = frac_uni / model.volume + np.where(in_collar, frac_col / v_col, 0.0)
    return pts, 1.0 / density


def check_lifetime(t):
    """Return t if it is finite and > 0; raise ConfigError otherwise."""
    if not (math.isfinite(t) and t > 0):
        raise ConfigError(f"t must be finite and > 0, got {t!r}")
    return t


def check_point(model: ManifoldModel, point):
    """Return point as a float array if it is a point of the model; raise ConfigError otherwise.

    It needs the model's state_dim coordinates, and must be a state of the
    model (model.simulation_valid: finite, with each embedded sphere factor
    on its sphere) that lies outside the boundary by at most 1e-9.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (model.state_dim,):
        raise ConfigError(f"point must have {model.state_dim} coordinates, got shape {x.shape}")
    if not model.simulation_valid(x[None, :])[0]:
        raise ConfigError(f"point {x.tolist()} is not finite or lies off a sphere factor")
    if model.boundary_distance(x[None, :])[0] < -1e-9:
        raise ConfigError(f"point {x.tolist()} lies outside the model")
    return x


def check_integer(name, value, low, high=math.inf):
    """Return value if it is an integer in [low, high); raise ConfigError otherwise."""
    if not (isinstance(value, (int, np.integer)) and low <= value < high):
        raise ConfigError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return value


# Rows of one bridge batch: estimate_chi's chunks hold the loops of at most
# max(1, CHUNK_PATHS // bridges) points, and local_limit_check's batches the
# consecutive depth nodes whose loops fit in CHUNK_PATHS (one node at least),
# which bounds the arrays of a batch.  Chunk i of estimate_chi draws from
# its _chunk_streams, so its chunking is part of a seed's result.
CHUNK_PATHS = 250_000


def _chi_chunk(model, anchors_block, t, steps, bridges, seed, ci):
    """Per-anchor bridge means of chunk ci (deterministic given the seed)."""
    streams = _chunk_streams(model, ci, len(anchors_block))
    return _node_means(model, anchors_block, t, steps, bridges,
                       [RngStream(seed, stream).generator() for stream, _ in streams],
                       paired=_antithetic(model, bridges),
                       group_points=[points for _, points in streams])[0]


def estimate_chi(model: ManifoldModel, t: float, base_points: int, bridges: int, seed: int, *,
                 steps: int | None = None) -> dict:
    """Estimate the Euler characteristic from bridge loops at sampled base points.

    Every base point contributes an independent unbiased sample
    Y_i = weight_i * K0(t; x_i, x_i) * mean_i(Str M V).  On models that
    carry no frames an even bridge count steps as antithetic pairs (see
    _antithetic), and mean_i is the mean of the point's pair means: its
    expectation is unchanged, and the batch draws half the normals, which
    pays even where the spread of the base points dominates the variance.
    Frame-carrying models and odd counts draw independent bridges, and on
    frame-carrying models each half of a chunk's base points draws from a
    stream of its own (_chunk_streams).
    Returns the estimate-chi report payload: their mean, standard error
    and 95 percent interval next to the model's exact Euler
    characteristic, with the run's budget and validity window.
    """
    check_lifetime(t)
    check_integer("seed", seed, 0, 2**64)
    check_integer("base_points", base_points, 2)
    check_integer("bridges", bridges, 1)
    steps = check_integer("steps", DEFAULT_STEPS if steps is None else steps, 2)
    point_rng = RngStream(seed, 0).generator()
    pts, weights = _stratified_points(model, base_points, t, point_rng)
    kernel_diag = hk.heat_kernel_diag(model, t, pts)
    chunk_anchors = max(1, CHUNK_PATHS // bridges)
    means = np.concatenate([
        _chi_chunk(model, pts[lo:lo + chunk_anchors], t, steps, bridges, seed, ci)
        for ci, lo in enumerate(range(0, base_points, chunk_anchors))
    ])
    samples = weights * kernel_diag * means
    # samples that overflow the spread make it inf or nan, which the check
    # below turns into the abort; numpy need not warn about them first
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(base_points))
    if not (math.isfinite(estimate) and math.isfinite(stderr)):
        raise NumericalAbortError(f"the estimate {estimate} +- {stderr} at t={t} is not finite")
    info = hk.kernel_info(model, t)
    return {
        "experiment": "estimate-chi",
        "model": model.name,
        "params": model.params,
        "t": t,
        "estimate": estimate,
        "stderr": stderr,
        "ci95": [estimate - 1.96 * stderr, estimate + 1.96 * stderr],
        "reference": float(model.euler_characteristic),
        "base_points": base_points,
        "bridges": bridges,
        "steps": steps,
        "seed": seed,
        # the identity holds at every t; the window brackets the regime where
        # the kernel series converges and pinned loops stay local
        "validity": {
            "kernel": info,
            "t_min_series": info["t_min"],
            "t_max_confinement": (0.5 * model.confinement_scale()) ** 2,
            "step_size": t / steps,
        },
    }


# ---------------------------------------------------------------------------
# local limits
# ---------------------------------------------------------------------------


# Each lifetime of local_limit_check spends depth_nodes * bridges loops in two
# phases: a pilot of at most 1 / PILOT_SHARE of them, split equally over the
# depth nodes, measures each node's spread, and the rest goes to the nodes by
# Neyman allocation.  A pilot needs MIN_UNITS sampling units (loops, or
# antithetic pairs) per node to measure a spread.
PILOT_SHARE = 8
MIN_UNITS = 2
# Node j of lifetime i draws from RngStream(seed, MAX_DEPTH_NODES * i + j), and
# its pilot from PILOT_STREAMS plus that id, above every main stream.
MAX_DEPTH_NODES = 1000
PILOT_STREAMS = 1 << 63


def _node_stream(it: int, j: int, pilot: bool = False) -> int:
    """Stream id of depth node j of lifetime it, in its main phase or its pilot."""
    return (PILOT_STREAMS if pilot else 0) + MAX_DEPTH_NODES * it + j


def _pilot_loops(nodes: int, bridges: int, unit: int) -> int:
    """Loops per node of a lifetime's pilot; 0 (no pilot) for one node or too small a budget.

    The pilot takes the largest multiple of unit within bridges / PILOT_SHARE
    and needs MIN_UNITS units, which leaves the main phase at least
    PILOT_SHARE - 1 times as many.
    """
    pilot = bridges // PILOT_SHARE // unit * unit
    return pilot if nodes > 1 and pilot >= MIN_UNITS * unit else 0


def _neyman_units(total: int, scores, minimum: int) -> np.ndarray:
    """Sampling units per node that sum to total: minimum each, the rest by Neyman allocation.

    The spare units go to the nodes in proportion to their scores
    |w_j J_j K0_j| sigma_j (Cochran, Sampling Techniques, 3rd ed., 5.5), or
    equally when every score is 0, and are rounded by largest remainder.
    """
    scores = np.asarray(scores, dtype=float)
    spare = total - minimum * len(scores)
    weights = scores if scores.sum() > 0.0 else np.ones(len(scores))
    share = spare * weights / weights.sum()
    units = np.floor(share).astype(np.int64)
    # the largest remainders take what flooring left; ties go to the shallower node
    units[np.argsort(units - share, kind="stable")[:spare - units.sum()]] += 1
    return minimum + units


def _lockstep_means(model, points, t, steps, counts, seed, streams, paired):
    """Node means and stderrs of counts[j] loops at points[j] on RngStream(seed, streams[j]).

    t is one lifetime for every node or one per node.  Consecutive nodes
    step together, as many in one batch as hold at most CHUNK_PATHS loops
    (one node at least); every node keeps its own stream, so the batching
    changes no draw.
    """
    means, ses = [], []
    lo = 0
    while lo < len(points):
        hi, loops = lo + 1, counts[lo]
        while hi < len(points) and loops + counts[hi] <= CHUNK_PATHS:
            loops += counts[hi]
            hi += 1
        gens = [RngStream(seed, stream).generator() for stream in streams[lo:hi]]
        mean, se = _node_means(model, points[lo:hi], t[lo:hi] if np.ndim(t) else t, steps,
                               counts[lo:hi], gens, paired=paired)
        means.extend(mean.tolist())
        ses.extend(se.tolist())
        lo = hi
    return np.array(means), np.array(ses)


def local_limit_check(model: ManifoldModel, point, t_sequence, bridges: int, seed: int, *,
                      steps: int | None = None, depth_nodes: int = 10) -> dict:
    """Track the kernel-weighted supertrace expectation along shrinking lifetimes.

    Interior points compare K0(t;x,x) E[Str M V] with the bulk integrand,
    from `bridges` loops.  Boundary points integrate the same quantity
    across a collar of depth DEPTH_COLLAR_FACTOR sqrt(t) (Gauss-Legendre in
    the normal direction, capped at 0.9 times the confinement scale, each
    node weighted by the model's shell_jacobian) and compare with the
    boundary integrand; there `bridges` is the mean number of loops per
    node of a lifetime's budget of depth_nodes * bridges loops.  A pilot of
    at most 1 / PILOT_SHARE of the budget, split equally over the nodes on
    streams of its own, measures each node's spread sigma_j, and the rest
    goes to node j in proportion to |w_j J_j K0_j| sigma_j (_neyman_units),
    each node keeping at least its pilot's count; only these main-phase
    loops enter the row.  A single node, or a budget whose pilot cannot
    hold MIN_UNITS sampling units per node, runs no pilot and gives every
    node `bridges` loops.  The ratio column approaches one as t decreases.

    The pilots of all lifetimes step together, and so do the main-phase
    nodes of one lifetime: consecutive nodes, as many in one batch as hold
    at most CHUNK_PATHS loops; node j of lifetime it keeps its own streams
    (_node_stream), so the batching never changes a draw.  On models that
    carry no frames an even bridge count steps as antithetic pairs (see
    _antithetic), every node's count stays even, and each node's mean and
    stderr come from its pair means; frame-carrying models and odd counts
    draw independent bridges.  Returns the local-limit report payload;
    each row lists the main-phase loops of its nodes (node_bridges) and
    their weighted stderrs (node_stderr).
    """
    if len(t_sequence) == 0:
        raise ConfigError("t_sequence must hold at least one lifetime")
    for t in t_sequence:
        check_lifetime(t)
    check_integer("seed", seed, 0, 2**64)
    check_integer("bridges", bridges, 1)
    steps = check_integer("steps", LOCAL_LIMIT_STEPS if steps is None else steps, 2)
    check_integer("depth_nodes", depth_nodes, 1, MAX_DEPTH_NODES + 1)
    point = check_point(model, point)
    constants = calibrate_constants(model.dimension)
    on_boundary = abs(float(model.boundary_distance(point[None, :])[0])) < 1e-9
    analytic = local_integrand(model, constants, point, on_boundary=on_boundary)
    paired = _antithetic(model, bridges)
    unit = 2 if paired else 1
    lifetimes = sorted(t_sequence, reverse=True)
    # per lifetime: its nodes and their weights w_j J_j K0_j; an interior
    # point is one node of weight K0
    layers = []
    for t in lifetimes:
        points, scale = point[None, :], np.ones(1)
        if on_boundary:
            nodes, gl_weights = np.polynomial.legendre.leggauss(depth_nodes)
            width = min(DEPTH_COLLAR_FACTOR * math.sqrt(t), 0.9 * model.confinement_scale())
            depths = 0.5 * width * (nodes + 1.0)
            points = model.offset_from_boundary(np.repeat(points, depth_nodes, axis=0), depths)
            scale = 0.5 * width * gl_weights * model.shell_jacobian(depths)
        layers.append((points, scale * hk.heat_kernel_diag(model, t, points)))
    count = len(layers[0][0])
    pilot = _pilot_loops(count, bridges, unit)
    if pilot:
        # the pilots of every lifetime step together, each node on its own stream
        _, pilot_se = _lockstep_means(
            model, np.concatenate([points for points, _ in layers]),
            np.repeat(lifetimes, count), steps, np.full(count * len(lifetimes), pilot), seed,
            [_node_stream(it, j, pilot=True) for it in range(len(lifetimes))
             for j in range(count)], paired)
        pilot_se = pilot_se.reshape(len(lifetimes), count)
    rows = []
    for it, (t, (points, scale)) in enumerate(zip(lifetimes, layers)):
        counts = np.full(count, bridges)
        if pilot:
            # every node keeps at least its pilot's loops: a node whose pilot
            # met no boundary may still touch it, rarely, and a handful of
            # loops would turn those touches into a heavy-tailed row
            counts = unit * _neyman_units(count * (bridges - pilot) // unit,
                                          np.abs(scale) * pilot_se[it], pilot // unit)
        means, ses = _lockstep_means(model, points, t, steps, counts, seed,
                                     [_node_stream(it, j) for j in range(count)], paired)
        node_stderr = np.abs(scale) * ses
        value = var = 0.0
        for k, mean, se in zip(scale, means, node_stderr):
            value += k * mean
            var += se ** 2
        value, stderr = float(value), math.sqrt(var)
        ratio = value / analytic if analytic != 0.0 else None
        rows.append({"t": t, "value": value, "stderr": stderr, "analytic": analytic,
                     "ratio": ratio, "node_bridges": counts.tolist(),
                     "node_stderr": node_stderr.tolist()})
    order = None
    # a slope over log t needs at least 3 distinct lifetimes
    if all(r["ratio"] is not None for r in rows) and len(set(t_sequence)) >= 3:
        ts = np.array([r["t"] for r in rows])
        errs = np.array([abs(r["ratio"] - 1.0) for r in rows])
        if np.all(errs > 1e-12):
            order = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    return {
        "experiment": "local-limit",
        "model": model.name,
        "point_kind": "boundary" if on_boundary else "interior",
        "point": point.tolist(),
        "rows": rows,
        "observed_order": order,
    }
