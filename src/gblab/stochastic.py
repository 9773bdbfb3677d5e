"""Reflected Brownian motion, bridges, transport and the jump functional.

The simulation uses geodesic Euler-Maruyama stepping in a parallel
orthonormal frame: each step draws a Gaussian increment in frame
components, pushes it through the frame into walk coordinates (the
embedding coordinates of a frame-carrying model, see the geometry
module), and moves along the geodesic while transporting the frame
(exactly, for the catalog models).  A step that crosses the boundary is
reflected back along the inward normal; the local time picks up twice
the penetration depth per crossing, which is the Skorokhod decomposition
of the reflected chain (one step from the boundary then reproduces the
flat half-space law E[lam] = sqrt(2h/pi) exactly).  The factor 2 is
fixed: it is the normalization of the local time that the
absolute-boundary functional runs on, not a tuning knob.
Steps and cap reflections are exact rotations, so frames stay orthonormal
and sphere points on their spheres up to rounding (both drift below 1e-12
over 20 000 steps) and are never renormalized on the way; simulate_bridges
orthonormalizes the final frames once, where the holonomy reads them.

Bridges add the logarithmic heat-kernel drift toward the anchor: a
two-well surrogate that augments the squared-distance gradient with a
single boundary image, so the drift satisfies the Neumann condition at
the boundary and reduces to the exact Euclidean bridge drift away from
it (image_pull holds its image weight for every model).  The drift and
the increment are built in walk coordinates, so a curved step never
projects onto its frame and back.  The final step snaps to the anchor.
Free walks step on the noise alone and never snap.

Each step, the model's bridge_step, asks for its boundary data once.  In
general_step the walk state carries the distance and inward normal of its
point, and one collar_data call at the new point serves the contact test,
the reflection, the contact normals and the next drift.  A flat ball's
closed form x2 = alpha x + beta a + sqrt(h) xi carries |x| instead and
forms normals on the contact rows alone.  Validity (simulation_valid) is read
once, on a batch's final states: a non-finite coordinate stays non-finite
through every later step, and the rotations keep every point's radius.

Walk precision.  A model names the precision its walks step in,
walk_dtype: float64, but float32 on a flat ball, whose closed-form step
runs about twice as fast in it and whose reflection stays exact (|x| =
r - depth by Sterbenz's lemma, in any binary format).  A float32 walk
rounds each coordinate by up to u r (u = 2**-24), however short its steps,
so a flat batch steps in float32 only where that was measured harmless
(FlatBall.walk_precision): u r at most 1e-4 of the shortest step's root
sqrt(h), which the diagnostics battery's disk walks reach (r = 10, h =
4e-5), and a radius and steps whose squared coordinates are normal float32
numbers; any other batch steps in float64.  The precision belongs to the
batch, so a path keeps its bits in another batch of its lifetime only
when that batch steps in the same precision.  simulate_bridges is
the one place that rounds to it: each tile's start state and anchors, the
step h and its root, and the remaining time, which is formed in float64
and rounded once per step.  The step functions follow the precision of
their inputs.  Python floats are weak scalars under numpy's promotion
rules (NEP 50) and keep a float32 step in float32, where a float64 numpy
scalar or array would silently promote it back.  The draws do not change:
they are float64, and the copy into the step's noise array rounds them.
What leaves the walk is float64: each dlam = -2 depth, summed into lam;
the contact rows' normals, formed from the contact points in float64, so
|nu| = 1 to float64 rounding and I - nu nu^T stays a projection; and m,
the contact counts, the supertraces and every reduction.  The snap decides
its contacts from the anchors' float64 depth, because a boundary anchor
rounded to float32 lies about 6e-8 r inside or outside the boundary.

simulate_bridges, the one stepping loop, draws its noise from one
generator or from a sequence of G generators, one stream per contiguous
row group (equal groups, or the sizes the caller gives), and steps the
batch as equal row tiles of at most TILE_ROWS paths, so each step's
temporaries stay cache-sized and the allocator reuses them.  Tiles and
groups never change a draw: every step visits the tiles in row order and
each tile fills its rows group by group, so every group takes exactly the
numbers its own stream gives a separate batch of its rows, and every path
is bitwise the same as in that separate, untiled batch (when it steps in
the same walk precision), also when each
path has a lifetime of its own (its step and remaining time are then
per-row vectors, with the same arithmetic in every row).  Paired batches
(paired=True) step antithetic pairs: rows 2j and 2j + 1 take one draw and
its negation, and each group draws half its rows' normals.  The same
invariants hold for them, because a tile never splits a pair: groups have
even sizes and every tile cut falls on an even row, so each tile draws a
whole number of pairs from each group's stream, in row order.

Which process draws or steps a row never changes a number either.  A batch
that draws at least noise.HELPER_MIN_NORMALS normals (_RowStreams.normals:
P * n * (steps - 1), steps for free walks, or half that when paired) sends
one job to a helper process forked on first use.  A flat batch's job draws:
the helper makes the same fill calls in the same order into a shared ring
of tile-sized slots, step_bridge copies each tile's normals out of its
slot, and the helper's final generator states are copied back into the
caller's generators.  A batch of a frame-carrying model with two or more
row groups and no on_step hook is split instead, at the group boundary
nearest its middle row (each group owns its generator, so none draws in
both processes): the helper steps the trailing groups while this process
steps the leading ones, both drawing inline, and every BridgeBatch field of
the two halves is joined in row order.  A hemisphere row-step costs about
four times its draws, so the ring, which overlaps only the draws, leaves
the second CPU mostly idle; a flat row-step costs about 0.6 times its
draws, and split flat batches ran 10-34 % slower than ringed ones
(BENCH_split_steps.json).  A draw depends only on a generator's state and
the calls made on it (Philox is counter-based), and a group takes exactly
the numbers its own stream gives a separate batch of its rows, so paths,
reports and the generators' end states are bitwise those of a one-process,
inline batch; a split batch that raises leaves the trailing groups'
generators at their start.  Smaller batches and processes with one usable
CPU draw and step inline (see the noise module).

Walks of models that carry frames keep x and the frames column-major (the
logical shapes (P, d) and (P, d, k) laid out as (d, P) and (d, k, P)), because
their steps run column by column over length-P columns; flat walks keep
C-order rows.  The layout never changes a draw: the noise fills C-order rows
and is added to the drift in the drift's layout.  Nor does it change a
result, since the only layout-dependent arithmetic, einsum's summation
order, runs on C-order copies.

The multiplicative functional starts at the identity, decays through
the curvature operator during interior evolution, and at every boundary
contact is multiplied by exp(-DA * dlam) followed by the tangential
projection (absolute boundary conditions).  All catalog models are
products of isotropic factors, so the batch engine tracks one small
n x n matrix for the bounded factor and assembles supertraces from
elementary symmetric polynomials.  Their boundaries are umbilic, so a
jump is the scalar exp(-a dlam) times the projection, and a scalar
commutes with every projection: the engine projects at each contact and
multiplies by exp(-a lam) once per path.  The general 2**n-dimensional
functional of one recorded path is kept in evolve_functional, the
reference the fast path is checked against on coupled noise; it alone
also offers the penalty form exp(-(DA + Pi_nor/eps) * dlam) (epsilon
mode), whose eps -> 0 limit is the exact jump.  simulate_path records that
path step by step through the on_step hook of a one-row simulate_bridges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import exterior as ext
from .geometry import ManifoldModel, _rowdot, _scale_columns
from .noise import _RowStreams, _step, batch_noise, helper_job

# Row cap of the lockstep tiles simulate_bridges splits a batch into: a
# memory layout that keeps each step's temporaries cache-sized and reused,
# never a change of any draw.
TILE_ROWS = 16_384


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream) keys Philox, whose counter starts at 0."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def _row_streams(rng, rows: int, paired: bool = False, group_rows=None) -> _RowStreams:
    """One generator for all rows, or G distinct generators splitting them into contiguous groups.

    The groups are equal, or group_rows[i] rows long for generator i.
    Paired, every group fills antithetic pairs and must have an even row
    count.
    """
    gens = [_as_generator(r) for r in (rng if isinstance(rng, (list, tuple)) else [rng])]
    if len({id(g) for g in gens}) < len(gens):
        raise ValueError("a generator is given for two row groups")
    if group_rows is None:
        if not gens or rows % len(gens):
            raise ValueError(f"{len(gens)} generators cannot split {rows} rows into equal groups")
        group_rows = [rows // len(gens)] * len(gens)
    sizes = [int(r) for r in group_rows]
    if len(sizes) != len(gens) or sum(sizes) != rows or min(sizes, default=0) < 1:
        raise ValueError(f"{len(gens)} generators cannot split {rows} rows into groups of "
                         f"{sizes} rows")
    if paired and any(r % 2 for r in sizes):
        raise ValueError(f"row groups of {sizes} rows cannot hold antithetic pairs")
    return _RowStreams(tuple(gens), tuple(np.cumsum([0] + sizes).tolist()), paired)


# ---------------------------------------------------------------------------
# walk state and single steps
# ---------------------------------------------------------------------------


@dataclass
class WalkState:
    """Batched state of reflected walks: positions, frames, local time and boundary data.

    x, depth and norm are in the batch's walk precision; lam is float64.
    """

    x: np.ndarray                 # (P, state_dim); column-major when frames are carried
    frames: np.ndarray | None     # (P, state_dim, n) laid out (state_dim, n, P), or None
    lam: np.ndarray               # (P,)
    depth: np.ndarray             # (P,) boundary distance of x
    nu: np.ndarray | None         # (P, w) inward normal at x, in walk coordinates, or None
    norm: np.ndarray | None = None  # (P,) |x|, which a flat ball's steps carry instead of nu


@dataclass
class ContactInfo:
    """The contact rows of one step: every array is indexed like ``idx``.

    The shape operator needs no row: every catalog boundary is umbilic, so
    the model's one shape_coefficient fixes it at every contact.
    """

    idx: np.ndarray               # (C,) indices of the paths in contact
    dlam: np.ndarray              # (C,) local-time increments, float64
    nu: np.ndarray                # (C, d_bounded) bounded-factor normal components, float64


def _columns_contiguous(a):
    """A copy of a with its row axis last in memory, so every a[:, i] or a[:, i, j] is contiguous."""
    return np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)


def make_walk_state(model: ManifoldModel, x0) -> WalkState:
    """Walks starting at x0.

    Frame-carrying models keep x and the frames column-major, because their
    steps run column by column; flat walks keep C-order rows.  The frames are
    built from C-order points, so the layout never changes a value.
    """
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    frames = None
    if model.needs_frames:
        frames = _columns_contiguous(model.initial_frames(x))
        x = _columns_contiguous(x)
    depth, nu = model.collar_data(x)
    return WalkState(x=x, frames=frames, lam=np.zeros(x.shape[0]), depth=depth, nu=nu)


def _orthonormalize(frames):
    """Modified Gram-Schmidt over the frame columns (batched), once per bridge batch.

    Works on one length-P column (one coordinate of one frame column) at a
    time; a zero column stays zero.
    """
    out = np.empty_like(frames)
    dim = frames.shape[1]
    for a in range(frames.shape[2]):
        v = [frames[:, d, a] for d in range(dim)]
        for b in range(a):
            q = [out[:, d, b] for d in range(dim)]
            proj = v[0] * q[0]
            for d in range(1, dim):
                proj += v[d] * q[d]
            v = [v[d] - proj * q[d] for d in range(dim)]
        norm = v[0] * v[0]
        for d in range(1, dim):
            norm += v[d] * v[d]
        norm = np.sqrt(norm)
        norm[norm == 0.0] = 1.0
        for d in range(dim):
            np.divide(v[d], norm, out=out[:, d, a])
    return out


def _finish_step(model, state, x2, u2, depth, nu, idx, dlam, u_c, nu_c):
    """Move the state to (x2, u2) and its boundary data; return the contact rows idx.

    u_c and nu_c are the frames (None without frames) and normals of the rows idx.
    """
    state.x, state.frames, state.depth, state.nu, state.norm = x2, u2, depth, nu, None
    nu_c = model.boundary_data(u_c, nu_c) if idx.size else np.empty((0, model.bounded_factor.dim))
    return ContactInfo(idx=idx, dlam=dlam, nu=nu_c)


def _take_rows(a, idx):
    """The rows idx of a, gathered the way its layout is fastest at.

    take is several times faster on C-ordered 2-d and 3-d arrays, a[idx] on
    1-d ones and on the column-major walks of frame-carrying models.
    """
    return a.take(idx, axis=0) if a.ndim > 1 and a.flags.c_contiguous else a[idx]


def _apply_increment(model, state, x2, u2, depth, nu):
    """Move the state to the stepped points x2 (frames u2), reflecting at the boundary.

    depth and nu are the boundary data of x2.  Each contact row is gathered
    and scattered once; reflect returns its new boundary distance and normal,
    so it needs no second boundary query, and forms the normals where nu is None.
    """
    idx = (depth <= 0.0).nonzero()[0]
    dlam = np.empty(0)
    u_c = nu_c = None
    if idx.size:
        depth_c = depth[idx]
        nu_in = None if nu is None else _take_rows(nu, idx)
        x_c, u_c, depth[idx], nu_c = model.reflect(
            _take_rows(x2, idx), None if u2 is None else _take_rows(u2, idx), depth_c, nu_in)
        x2[idx] = x_c
        if u2 is not None:
            u2[idx] = u_c
        if nu_c is not nu_in and nu is not None:  # a flat image keeps its normal
            nu[idx] = nu_c
        # Skorokhod decomposition X = W + nu L: the reflection pushes the step
        # back along the normal by twice its penetration -depth, and that push is dL
        dlam = np.multiply(depth_c, -2.0, dtype=float)  # summed into lam in float64
        state.lam[idx] += dlam
    return _finish_step(model, state, x2, u2, depth, nu, idx, dlam, u_c, nu_c)


def bridge_drift(model, state: WalkState, anchor, remaining, *, d_anchor):
    """Logarithmic heat-kernel drift toward the anchor, in walk coordinates.

    A two-well surrogate: the squared-distance gradient toward the anchor
    plus a pull toward a boundary image of the anchor, Gaussian-weighted by
    the two squared distances, so the drift satisfies the Neumann condition
    on the boundary and reduces to the direct drift in the deep interior.
    The image sits across the tangent plane of the nearest boundary point at
    normal separation g = d_z + d_anchor; the tangent-plane image (rather
    than the exact geodesic mirror) slightly overweights the image pull for
    convex boundaries, which empirically matches the mean-curvature
    enhancement of the true reflected kernel.  With ell the log map, nu the
    inward normal, ell_nu = ell . nu and s the remaining time, the two-well
    average is exactly ell / s - rho (ell_nu + g) / ((1 + rho) s) nu, with
    image weight rho = exp(clip((ell_nu - g)(ell_nu + g) / 2s, -60, 0))
    (image_pull), because |nu| = 1, or nu = 0 and ell_nu = 0 at a ball's
    centre.  d_z and nu are the ones the walk state carries for its point;
    d_anchor is the anchors' boundary distance, and remaining is one time
    for every row or one per row.
    """
    ell = model.log_frame(state.x, anchor)
    nu = state.nu
    ell_nu = _rowdot(ell, nu)
    drift = _scale_columns(ell, remaining, np.divide, out=ell)  # ell is a new array
    drift -= _scale_columns(nu, image_pull(ell_nu, state.depth + d_anchor, remaining), np.multiply)
    return drift


def image_pull(ell_nu, gap, remaining):
    """bridge_drift's pull rho (ell_nu + g) / ((1 + rho) s) along -nu; overwrites ell_nu."""
    plus = ell_nu + gap
    rho = np.subtract(ell_nu, gap, out=ell_nu)  # becomes the image weight, in place
    rho *= plus
    rho /= 2.0 * remaining
    np.maximum(rho, -60.0, out=rho)
    np.minimum(rho, 0.0, out=rho)
    np.exp(rho, out=rho)
    pull = np.multiply(plus, rho, out=plus)
    rho += 1.0
    rho *= remaining
    pull /= rho
    return pull


def step_bridge(model, state: WalkState, remaining, anchor, scales, noise, *,
                d_anchor=None) -> ContactInfo:
    """One step of the reflected Brownian bridge toward the anchor, or a free step.

    With anchor None the step is free: the scaled noise alone, no drift.  A
    bridge step needs the anchors' boundary distance d_anchor.  remaining is
    the time left and scales = (h, sqrt h) the step, which scales the drift,
    and its root, which scales the noise; each is one value for every row or
    one per row.  noise.fill(xi) writes the step's standard normals into xi:
    noise is a tile's source of noise.batch_noise, or a _row_streams, and
    rounds its float64 draws to xi's walk precision.  The model's
    bridge_step (general_step or its closed form) moves the walks.
    """
    xi = np.empty((state.x.shape[0], model.dimension), dtype=state.x.dtype)
    noise.fill(xi)
    return model.bridge_step(state, anchor, remaining, scales, xi, d_anchor)


def general_step(model, state: WalkState, anchor, remaining, scales, xi, d_anchor) -> ContactInfo:
    """step_bridge's step for any model: bridge_drift, the increment h drift + U sqrt(h) xi,
    the geodesic step, one collar_data query at the new points and the reflection."""
    h, root_h = scales
    v = model.frame_vector(state.frames, _scale_columns(xi, root_h, np.multiply, xi))
    if anchor is not None:  # the increment, in the drift's layout: the draws fill C-order rows
        g = bridge_drift(model, state, anchor, remaining, d_anchor=d_anchor)
        v = np.add(_scale_columns(g, h, np.multiply, g), v, out=g)
    x2, u2 = model.geodesic_step(state.x, state.frames, v)
    return _apply_increment(model, state, x2, u2, *model.collar_data(x2))


def snap_to_anchor(model, state: WalkState, anchor, d_anchor) -> ContactInfo:
    """Deterministic final bridge step: land exactly on the anchor.

    An anchor lying on the boundary counts as a (zero-local-time) contact,
    so the functional receives its final tangential projection there.
    d_anchor is the anchors' float64 depth, from before they were rounded
    to the walk precision (see the module docstring), and the boundary
    query at the snapped points runs in float64.
    """
    v = model.log_frame(state.x, anchor)
    x2, u2 = model.geodesic_step(state.x, state.frames, v)
    depth, nu = model.collar_data(x2.astype(float, copy=False))
    idx = (d_anchor <= 1e-12).nonzero()[0]
    return _finish_step(model, state, x2, u2, depth, nu, idx, np.zeros(idx.size),
                        None if u2 is None else _take_rows(u2, idx), _take_rows(nu, idx))


# ---------------------------------------------------------------------------
# the multiplicative functional on factor matrices
# ---------------------------------------------------------------------------


def _jump_update(m, info: ContactInfo):
    """Multiply the contact rows of the bounded-factor matrices m by I - nu nu^T, in place.

    That is the jump exp(-DA dlam) Pi_tan = exp(-a dlam) Pi_tan but for its
    scalar decay, which simulate_bridges applies as one exp(-a lam) per path.
    The contact rows of the C-ordered (P, d, d) matrices m are gathered and
    scattered once, as length-C entry columns, on which m - (m nu) nu^T
    runs as a few (d, d, C) operations.  Against (C, d, d) broadcasts they
    measured 20-25 % faster at 400 rows, level at 200 and 5-25 % slower at
    30-120 (BENCH_flat_step.json); benchmark steps hold 50-400 contact rows.
    """
    idx = info.idx
    if idx.size == 0:
        return
    d = m.shape[1]
    rows = m.reshape(m.shape[0], d * d)
    entries = rows.take(idx, axis=0).T.copy()  # entries[i d + j] is m_ij of every contact
    sub = entries.reshape(d, d, idx.size)
    nu = info.nu.T
    mnu = sub[:, 0] * nu[0]
    for j in range(1, d):
        mnu += sub[:, j] * nu[j]
    sub -= mnu[:, None, :] * nu
    rows.T[:, idx] = entries


def _elementary_symmetric(B, d):
    """Elementary symmetric polynomials e_0..e_d of batched d x d matrices."""
    P = B.shape[0]
    es = [np.ones(P)]
    p1 = np.einsum("pii->p", B)
    es.append(p1)
    if d >= 2:
        B2 = B @ B
        p2 = np.einsum("pii->p", B2)
        es.append((es[1] * p1 - p2) / 2.0)
    if d >= 3:
        p3 = np.einsum("pij,pji->p", B2, B)
        es.append((es[2] * p1 - es[1] * p2 + p3) / 3.0)
    if d >= 4:
        p4 = np.einsum("pij,pji->p", B2, B2)
        es.append((es[3] * p1 - es[2] * p2 + es[1] * p3 - p4) / 4.0)
    return es[: d + 1]


@dataclass
class BridgeBatch:
    """Final state of a batch of bridge loops (or free walks), ready for supertraces."""

    model: ManifoldModel
    t: float | np.ndarray                # one lifetime, or one per path
    lam: np.ndarray
    contacts: np.ndarray                 # contact-step counts per path
    alive: np.ndarray                    # simulation_valid of the final states
    m: np.ndarray                        # (P, d, d) functional of the bounded factor
    factor_O: dict                       # factor name -> (P, d, d) or None

    def supertraces(self) -> np.ndarray:
        """Per-path supertrace of (functional x inverse transport)."""
        P = self.lam.shape[0]
        total = np.ones(P)
        for spec in self.model.factors:
            d = spec.dim
            m = self.m if spec.bounded else None
            O = self.factor_O.get(spec.name)
            if m is None and O is None:
                B = np.broadcast_to(np.eye(d), (P, d, d))
            elif m is None:
                B = np.transpose(O, (0, 2, 1))
            elif O is None:
                B = m
            else:
                B = np.einsum("pij,pkj->pik", m, O)
            es = _elementary_symmetric(np.ascontiguousarray(B), d)
            acc = np.zeros(P)
            for p in range(d + 1):
                c = _exp(-spec.kappa * p * (d - p) * self.t / 2.0)
                acc += (-1.0) ** p * c * es[p]
            total *= acc
        return total


def _exp(x):
    """math.exp of a scalar, or of each entry of an array: a path rounds as in its own batch."""
    if not isinstance(x, np.ndarray):
        return math.exp(x)
    values, where = np.unique(x, return_inverse=True)
    return np.array([math.exp(v) for v in values.tolist()])[where]


def simulate_bridges(model: ManifoldModel, anchors, t, steps: int, rng, *,
                     pinned=True, paired=False, group_rows=None, on_step=None) -> BridgeBatch:
    """Simulate reflected Brownian bridge loops pinned at the given anchors, or free walks.

    anchors: (P, state_dim); each path runs on [0, t] with the fixed step
    t / steps and ends exactly at its anchor, or, with pinned=False, only
    starts there and takes `steps` free steps.  t is one lifetime for every
    path or a (P,) array of one per path; a path steps as it would in a
    batch of its own lifetime and walk precision (model.walk_precision of
    the batch's steps).  rng is one generator, or a sequence of G
    distinct generators that split the P rows into G contiguous groups,
    equal ones or group_rows[i] rows for generator i (ValueError when they
    do not split P or a generator repeats); group i draws exactly what a
    separate batch of its rows draws from generator i.  With paired=True
    the rows are antithetic pairs: rows 2j and 2j + 1 step on one draw and
    its negation, so every group needs an even row count (ValueError
    otherwise).
    The rows step as lockstep tiles of at most TILE_ROWS paths, and a
    large batch of a frame-carrying model steps its trailing row groups in
    the noise helper (see the module docstring).
    on_step(k, rows, state, info) runs after step k of the tile of the
    batch rows `rows`; info.idx counts from the tile's first row.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    P = anchors.shape[0]
    streams = _row_streams(rng, P, paired, group_rows)
    if np.ndim(t):
        t = np.asarray(t, dtype=float)
        if t.shape != (P,):
            raise ValueError(f"{t.shape[0]} lifetimes for {P} paths")
    cut = _half_cut(streams) if model.needs_frames and on_step is None else None
    if cut is None:
        return _step_rows(model, anchors, t, steps, streams, pinned, on_step)
    lead, trail = [(model, anchors[rows], t[rows] if np.ndim(t) else t, steps,
                    streams.tile(rows), pinned) for rows in (slice(0, cut), slice(cut, P))]
    drawn = streams.normals(model.dimension, steps - 1 if pinned else steps)
    with helper_job(_step, (_step_rows, trail), streams.gens[streams.bounds.index(cut):],
                    drawn) as job:
        if job is None:
            return _step_rows(model, anchors, t, steps, streams, pinned)
        halves = _step_rows(*lead), job.result(lambda: _step_rows(*trail))
    return BridgeBatch(**{field.name: _joined(*(getattr(half, field.name) for half in halves))
                          for field in fields(BridgeBatch)})


def _half_cut(streams: _RowStreams):
    """The row group boundary nearest the middle row, or None for one group."""
    return min(streams.bounds[1:-1], key=lambda b: abs(2 * b - streams.bounds[-1]), default=None)


def _joined(lead, trail):
    """A BridgeBatch field of a split batch from its values in the two halves.

    Arrays, and the arrays of a dict, join in row order; anything else (the
    model, a shared lifetime, None) is the leading half's.
    """
    if isinstance(lead, dict):
        return {key: _joined(value, trail[key]) for key, value in lead.items()}
    return np.concatenate([lead, trail]) if isinstance(lead, np.ndarray) else lead


def _step_rows(model, anchors, t, steps, streams: _RowStreams, pinned, on_step=None):
    """simulate_bridges' stepping loop in this process, over the rows of streams."""
    P = anchors.shape[0]
    paired = streams.paired
    h = t / steps
    root = np.sqrt(h)  # scales the noise, as h scales the drift
    dtype = model.walk_precision(h)
    bounded = model.bounded_factor
    m = np.broadcast_to(np.eye(bounded.dim), (P, bounded.dim, bounded.dim)).copy()
    contacts = np.zeros(P, dtype=np.int64)
    tiles = _row_tiles(P, 2 if paired else 1)
    states = [make_walk_state(model, anchors[rows]) for rows in tiles]
    depths = [s.depth for s in states]  # float64: they decide the snap's contacts
    for s in states:
        _round_walk(s, dtype)
    # per tile: its lifetimes and steps in float64, which form the remaining time, and
    # the steps and their roots in the walk precision; scalars when every path shares them
    walk_scales = _rounded(h, dtype), _rounded(root, dtype)
    clocks = [(t[rows], h[rows], tuple(v[rows] for v in walk_scales)) if np.ndim(t)
              else (t, h, walk_scales)
              for rows in tiles]
    # per tile: its anchors and their depth in the walk precision, and that depth in
    # float64; or none.  They are its start state's arrays, which no step writes into:
    # every step gives the state fresh ones.
    targets = [(None, None, None)] * len(tiles)
    if pinned:
        targets = [(s.x, s.depth, d) for s, d in zip(states, depths)]
    noise_steps = steps - 1 if pinned else steps
    frames0 = _join([s.frames for s in states]).copy() if model.needs_frames else None
    with batch_noise(streams, tiles, model.dimension, noise_steps) as tile_noise:
        for k in range(steps):
            for rows, state, noise, (anchor, d_rows, d_snap), (t_rows, h_rows, scales) in zip(
                    tiles, states, tile_noise, targets, clocks):
                if k == noise_steps:
                    info = snap_to_anchor(model, state, anchor, d_snap)
                else:
                    info = step_bridge(model, state, _rounded(t_rows - k * h_rows, dtype),
                                       anchor, scales, noise, d_anchor=d_rows)
                _jump_update(m[rows], info)
                contacts[rows][info.idx] += 1
                if on_step is not None:
                    on_step(k, rows, state, info)
    frames = None if frames0 is None else _orthonormalize(_join([s.frames for s in states]))
    lam = _join([s.lam for s in states])
    if model.shape_coefficient:  # every contact's decay, exp(-a lam) in all
        m *= np.exp(-model.shape_coefficient * lam)[:, None, None]
    return BridgeBatch(
        model=model, t=t, lam=lam, contacts=contacts,
        alive=model.simulation_valid(_join([s.x for s in states])), m=m,
        factor_O={spec.name: model.holonomy(frames0, frames, spec) for spec in model.factors},
    )


def _round_walk(state: WalkState, dtype):
    """Round a walk's point and boundary data to the walk precision dtype, in place.

    lam stays float64, and a float64 walk keeps its arrays.
    """
    state.x = state.x.astype(dtype, copy=False)
    state.depth = state.depth.astype(dtype, copy=False)


def _rounded(value, dtype):
    """A clock value in the walk precision: a scalar stays a scalar, a float64 array itself."""
    return value.astype(dtype, copy=False) if isinstance(value, np.ndarray) else dtype(value)


def _row_tiles(P, unit=1):
    """Row slices of the fewest equal tiles of at most TILE_ROWS rows covering P rows.

    Every cut falls on a multiple of unit (2 keeps antithetic pairs whole);
    a tile holds at least one unit.
    """
    units = P // unit
    count = max(1, -(-units // max(1, TILE_ROWS // unit)))
    return [slice(i * units // count * unit, (i + 1) * units // count * unit)
            for i in range(count)]


def _join(parts):
    """The row concatenation of per-tile arrays; the array itself for one tile."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


CONFINEMENT_STEPS = 200  # grid of the bridge loops behind confinement_fraction


def confinement_fraction(model: ManifoldModel, x, rho: float, t: float, samples: int,
                         rng) -> float:
    """Fraction of bridge loops pinned at x that stay inside B_rho(x)."""
    if rho <= 0:
        raise ValueError("confinement radius must be positive")
    anchors = np.broadcast_to(np.asarray(x, dtype=float), (samples, model.state_dim)).copy()
    excursion = np.zeros(samples)  # the largest distance from x along each loop

    def track(k, rows, state, info):
        np.maximum(excursion[rows], model.distance(state.x, anchors[rows]), out=excursion[rows])

    simulate_bridges(model, anchors, t, CONFINEMENT_STEPS, rng, on_step=track)
    return float(np.mean(excursion <= rho))


# ---------------------------------------------------------------------------
# recorded single paths and the general operator route
# ---------------------------------------------------------------------------


@dataclass
class PathSample:
    """One recorded trajectory with everything the operator route needs."""

    model: ManifoldModel
    t: float
    steps: int
    positions: np.ndarray             # (steps + 1, state_dim)
    frames: np.ndarray | None         # (steps + 1, state_dim, n)
    lam: np.ndarray                   # (steps + 1,)
    contact: np.ndarray               # (steps,) bool
    dlam: np.ndarray                  # (steps,)
    nu_frame: np.ndarray              # (steps, n) full-frame normal components


def simulate_path(model: ManifoldModel, x0, t: float, steps: int, rng, *,
                  pinned=False) -> PathSample:
    """Record one free path from x0 (a bridge loop back to x0 when pinned)."""
    x0 = np.asarray(x0, dtype=float)
    n = model.dimension
    sd = model.state_dim
    positions = np.empty((steps + 1, sd))
    frames = np.empty((steps + 1, sd, n)) if model.needs_frames else None
    lam = np.zeros(steps + 1)
    contact = np.zeros(steps, dtype=bool)
    dlam = np.zeros(steps)
    nu_frame = np.zeros((steps, n))
    positions[0] = x0
    if frames is not None:
        frames[0] = model.initial_frames(x0[None, :])[0]
    cols = model.bounded_factor.cols

    def record(k, rows, state, info):
        positions[k + 1] = state.x[0]
        if frames is not None:
            frames[k + 1] = state.frames[0]
        lam[k + 1] = state.lam[0]
        if info.idx.size:
            contact[k] = True
            dlam[k] = info.dlam[0]
            nu_frame[k, cols] = info.nu[0]

    simulate_bridges(model, x0[None, :], t, steps, rng, pinned=pinned, on_step=record)
    return PathSample(
        model=model, t=t, steps=steps, positions=positions,
        frames=frames, lam=lam, contact=contact, dlam=dlam, nu_frame=nu_frame,
    )


def _contact_jump_matrix(model, nu, dl, mode, eps):
    """n x n jump factor exp(-A dl) (Pi_tan or penalty) in frame components."""
    n = model.dimension
    a = model.shape_coefficient
    proj_b = np.zeros((n, n))
    idx = np.arange(n)[model.bounded_factor.cols]
    proj_b[idx, idx] = 1.0
    shape_proj = proj_b - np.outer(nu, nu)
    decay = np.eye(n) + (math.exp(-a * dl) - 1.0) * shape_proj
    if mode == "exact-jump":
        return decay @ (np.eye(n) - np.outer(nu, nu))
    keep = math.exp(-dl / eps)
    return decay @ (np.eye(n) - (1.0 - keep) * np.outer(nu, nu))


def evolve_functional(path: PathSample, mode: str = "exact-jump", eps: float | None = None,
                      start: int = 0, stop: int | None = None) -> ext.GradedOperator:
    """Multiplicative functional over [start, stop] as a graded operator.

    Interior evolution multiplies by the exponential of minus half the
    curvature operator per step; boundary contacts multiply by the
    algebra lift of the contact jump.  Evolving consecutive windows and
    composing reproduces the full-interval operator (multiplicativity).
    """
    if mode == "epsilon" and (eps is None or eps <= 0):
        raise ValueError("epsilon mode requires a positive eps")
    stop = path.steps if stop is None else stop
    model = path.model
    n = model.dimension
    h = path.t / path.steps
    dr = ext.curvature_to_operator(model.frame_curvature()).mat
    # diagonal on every catalog model, so its exponential is entrywise
    if np.count_nonzero(dr - np.diag(np.diag(dr))):
        raise ValueError(f"the curvature operator of {model!r} is not diagonal")
    interior = np.diag(np.exp(-0.5 * h * np.diag(dr)))
    M = np.eye(1 << n)
    for k in range(start, stop):
        M = M @ interior
        if path.contact[k]:
            jump = _contact_jump_matrix(model, path.nu_frame[k], path.dlam[k], mode, eps)
            M = M @ ext.algebra_lift(jump).mat
    return ext.GradedOperator(n, M)

