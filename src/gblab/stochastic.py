"""Reflected Brownian motion, bridges, transport and the jump functional.

The simulation uses geodesic Euler-Maruyama stepping in a parallel
orthonormal frame: each step draws a Gaussian increment in frame
components, pushes it through the frame, and moves along the geodesic
while transporting the frame (exactly, for the catalog models).  A step
that crosses the boundary is reflected back along the inward normal; the
local time picks up twice the penetration depth per crossing, which is
the Skorokhod decomposition of the reflected chain (one step from the
boundary then reproduces the flat half-space law E[lam] = sqrt(2h/pi)
exactly).

Bridges add the logarithmic heat-kernel drift toward the anchor: a
two-well surrogate that augments the squared-distance gradient with a
single boundary image, so the drift satisfies the Neumann condition at
the boundary and reduces to the exact Euclidean bridge drift away from
it.  The final step snaps to the anchor.

simulate_bridges draws its noise from one generator or from a sequence of
G generators, one stream per equal contiguous row group, and steps the
batch as equal row tiles of at most TILE_ROWS paths, so each step's
temporaries stay cache-sized and the allocator reuses them.  Tiles and
groups never change a draw: every step visits the tiles in row order and
each tile fills its rows group by group, so every group takes exactly the
numbers its own stream gives a separate batch of its rows, and every path
is bitwise the same as in that separate, untiled batch.

Which process draws never changes a number either.  A batch of at least
noise.HELPER_MIN_NORMALS normals, P * n * (steps - 1), hands its generators
to a helper process forked on first use; the helper makes the same fill
calls in the same order into a shared ring of tile-sized slots, step_bridge
copies each tile's normals out of its slot, and the helper's final generator
states are copied back into the caller's generators.  A draw depends only
on a generator's state and the calls made on it (Philox is counter-based),
so paths, reports and the generators' end states are bitwise those of an
inline batch.  Smaller batches, processes with one usable CPU and
multiprocessing pool workers draw inline (see the noise module).

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
n x n matrix per bounded factor and assembles supertraces from
elementary symmetric polynomials.  The general 2**n-dimensional
functional of one recorded path is kept in evolve_functional, the
reference the fast path is checked against on coupled noise; it alone
also offers the penalty form exp(-(DA + Pi_nor/eps) * dlam) (epsilon
mode), whose eps -> 0 limit is the exact jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exterior as ext
from .geometry import ManifoldModel, _rowdot
from .noise import _RowStreams, batch_noise

DEFAULT_LAM_SCALE = 2.0  # Skorokhod increment per crossing = 2 x penetration depth
# Row cap of the lockstep tiles simulate_bridges splits a batch into: a
# memory layout that keeps each step's temporaries cache-sized and reused,
# never a change of any draw.
TILE_ROWS = 16_384


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream, counter) fixes all draws."""

    seed: int
    stream: int = 0
    counter: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        bitgen = np.random.Philox(counter=np.array([self.counter, 0, 0, 0], dtype=np.uint64), key=key)
        return np.random.Generator(bitgen)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    return RngStream(int(rng)).generator()


def _row_streams(rng, rows: int) -> _RowStreams:
    """One generator for all rows, or G generators splitting them into equal groups.

    A noise source that already has fill(xi) (see noise.batch_noise) passes through.
    """
    if hasattr(rng, "fill"):
        return rng
    gens = [_as_generator(r) for r in (rng if isinstance(rng, (list, tuple)) else [rng])]
    if not gens or rows % len(gens):
        raise ValueError(f"{len(gens)} generators cannot split {rows} rows into equal groups")
    size = rows // len(gens)
    return _RowStreams(tuple(gens), tuple(i * size for i in range(len(gens) + 1)))


# ---------------------------------------------------------------------------
# walk state and single steps
# ---------------------------------------------------------------------------


@dataclass
class WalkState:
    """Batched state of reflected walks (positions, frames, local time)."""

    x: np.ndarray                 # (P, state_dim); column-major when frames are carried
    frames: np.ndarray | None     # (P, state_dim, n) laid out (state_dim, n, P), or None
    lam: np.ndarray               # (P,)
    alive: np.ndarray             # (P,) validity mask


@dataclass
class ContactInfo:
    """The contact rows of one step: every array is indexed like ``idx``."""

    idx: np.ndarray               # (C,) indices of the paths in contact
    dlam: np.ndarray              # (C,) local-time increments
    nu: np.ndarray                # (C, d_bounded) bounded-factor normal components
    coeff: np.ndarray             # (C,) umbilic shape coefficient


def _columns_contiguous(a):
    """A copy of a with its row axis last in memory, so every a[:, i] or a[:, i, j] is contiguous."""
    return np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)


def _walk_rows(model: ManifoldModel, x):
    """Rows of points in the layout the walks of the model keep (see make_walk_state)."""
    return _columns_contiguous(x) if model.needs_frames else x


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
    return WalkState(
        x=x,
        frames=frames,
        lam=np.zeros(x.shape[0]),
        alive=np.ones(x.shape[0], dtype=bool),
    )


def _orthonormalize(frames):
    """Modified Gram-Schmidt over the frame columns (batched).

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


def _finish_step(model, state, x2, u2, idx, dlam):
    """Move the state to (x2, u2); return the contact rows idx with normal and shape coefficient."""
    if idx.size:
        nu, coeff = model.boundary_data(x2[idx], None if u2 is None else u2[idx])
    else:
        nu, coeff = np.empty((0, model.bounded_factor.dim)), np.empty(0)
    state.x = x2
    state.frames = None if u2 is None else _orthonormalize(u2)
    state.alive &= model.simulation_valid(x2)
    return ContactInfo(idx=idx, dlam=dlam, nu=nu, coeff=coeff)


def _apply_increment(model, state, xi, lam_scale):
    """Move every path by the frame increment xi, reflecting at the boundary."""
    x2, u2 = model.geodesic_step(state.x, state.frames, xi)
    idx = (model.boundary_distance(x2) <= 0.0).nonzero()[0]
    dlam = np.empty(0)
    if idx.size:
        x2[idx], ur, depth = model.reflect(x2[idx], None if u2 is None else u2[idx])
        if u2 is not None:
            u2[idx] = ur
        dlam = lam_scale * np.maximum(depth, 0.0)
        state.lam[idx] += dlam
    return _finish_step(model, state, x2, u2, idx, dlam)


def step_reflected_bm(model, state: WalkState, h: float, rng, lam_scale=DEFAULT_LAM_SCALE) -> ContactInfo:
    """One Euler-Maruyama step of normally reflected Brownian motion.

    Mutates the state in place and returns the contact data of the step.
    """
    gen = _as_generator(rng)
    xi = math.sqrt(h) * gen.standard_normal((state.x.shape[0], model.dimension))
    return _apply_increment(model, state, xi, lam_scale)


def bridge_drift(model, state: WalkState, anchor, remaining: float, *, d_anchor=None):
    """Logarithmic heat-kernel drift toward the anchor (frame components).

    A two-well surrogate: the squared-distance gradient toward the anchor
    plus a pull toward a boundary image of the anchor, Gaussian-weighted
    by the two squared distances, so the drift satisfies the Neumann
    condition on the boundary and
    reduces to the direct drift in the deep interior.  The image sits
    across the tangent plane of the nearest boundary point at normal
    separation g = d_z + d_anchor; the tangent-plane image (rather than the
    exact geodesic mirror) slightly overweights the image pull for convex
    boundaries, which empirically matches the mean-curvature enhancement
    of the true reflected kernel.  With ell the log map, nu the inward
    normal, ell_nu = ell . nu and s the remaining time, the two-well
    average is exactly ell / s - rho (ell_nu + g) / ((1 + rho) s) nu, with
    image weight rho = exp(clip((ell_nu - g)(ell_nu + g) / 2s, -60, 0)),
    because |nu| = 1 (or nu = 0 at the center of a ball, where ell_nu = 0).
    """
    ell = model.log_frame(state.x, state.frames, anchor)
    drift = ell / remaining
    d_z, nu = model.collar_data(state.x, state.frames)
    if d_anchor is None:
        d_anchor = model.boundary_distance(np.atleast_2d(np.asarray(anchor, dtype=float)))
    ell_nu = _rowdot(ell, nu)
    gap = d_z + d_anchor
    plus = ell_nu + gap
    rho = ell_nu - gap  # becomes the image weight, in place
    rho *= plus
    rho /= 2.0 * remaining
    np.maximum(rho, -60.0, out=rho)
    np.minimum(rho, 0.0, out=rho)
    np.exp(rho, out=rho)
    pull = rho * plus
    rho += 1.0
    rho *= remaining
    pull /= rho
    _sub_columns(drift, pull, nu)
    return drift


def _sub_columns(out, w, nu):
    """out[:, k] -= w * nu[:, k] for every column k, in place."""
    tmp = np.empty_like(w)
    for k in range(out.shape[1]):
        np.multiply(w, nu[:, k], out=tmp)
        out[:, k] -= tmp


def step_bridge(model, state: WalkState, remaining: float, anchor, h: float, rng, *,
                lam_scale=DEFAULT_LAM_SCALE, d_anchor=None) -> ContactInfo:
    """One step of the reflected Brownian bridge toward the anchor.

    rng is one generator, a sequence of G generators that split the rows
    into G equal contiguous groups (ValueError otherwise), or a noise source
    of noise.batch_noise.
    """
    streams = _row_streams(rng, state.x.shape[0])
    g = bridge_drift(model, state, anchor, remaining, d_anchor=d_anchor)
    xi = np.empty((state.x.shape[0], model.dimension))
    streams.fill(xi)
    xi *= math.sqrt(h)
    g *= h
    g += xi  # the increment, in the drift's layout: the draws fill C-order rows
    return _apply_increment(model, state, g, lam_scale)


def snap_to_anchor(model, state: WalkState, anchor, lam_scale=DEFAULT_LAM_SCALE) -> ContactInfo:
    """Deterministic final bridge step: land exactly on the anchor.

    An anchor lying on the boundary counts as a (zero-local-time) contact,
    so the functional receives its final tangential projection there.
    """
    xi = model.log_frame(state.x, state.frames, anchor)
    x2, u2 = model.geodesic_step(state.x, state.frames, xi)
    idx = (model.boundary_distance(x2) <= 1e-12).nonzero()[0]
    return _finish_step(model, state, x2, u2, idx, np.zeros(idx.size))


# ---------------------------------------------------------------------------
# the multiplicative functional on factor matrices
# ---------------------------------------------------------------------------


def _jump_update(m, info: ContactInfo):
    """Apply the boundary jumps exp(-DA dlam) Pi_tan to the bounded-factor matrices in place."""
    idx = info.idx
    if idx.size == 0:
        return
    nu = np.ascontiguousarray(info.nu)  # einsum's summation order follows the layout
    a = info.coeff
    dl = info.dlam
    sub = m[idx]
    mnu = np.einsum("cij,cj->ci", sub, nu)
    tangential = sub - mnu[:, :, None] * nu[:, None, :]
    decay = np.exp(-a * dl)[:, None, None]
    m[idx] = decay * tangential


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
    """Final state of a batch of bridge loops, ready for supertraces."""

    model: ManifoldModel
    t: float
    steps: int
    anchors: np.ndarray
    lam: np.ndarray
    contacts: np.ndarray                 # contact-step counts per path
    alive: np.ndarray
    factor_m: dict                       # factor name -> (P, d, d) or None
    factor_O: dict                       # factor name -> (P, d, d) or None
    max_excursion: np.ndarray | None = None

    def supertraces(self) -> np.ndarray:
        """Per-path supertrace of (functional x inverse transport)."""
        P = self.lam.shape[0]
        total = np.ones(P)
        for spec in self.model.factors:
            d = spec.dim
            m = self.factor_m.get(spec.name)
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
                c = math.exp(-spec.kappa * p * (d - p) * self.t / 2.0)
                acc += (-1.0) ** p * c * es[p]
            total *= acc
        return total


def simulate_bridges(model: ManifoldModel, anchors, t: float, steps: int, rng, *,
                     lam_scale=DEFAULT_LAM_SCALE, track_excursion=False) -> BridgeBatch:
    """Simulate reflected Brownian bridge loops pinned at the given anchors.

    anchors: (P, state_dim); each path runs on [0, t] with the fixed step
    t / steps and ends exactly at its anchor.  rng is one generator, or a
    sequence of G generators that split the P rows into G equal contiguous
    groups (ValueError otherwise); group i draws exactly what a separate
    batch of its rows draws from generator i.  The rows step as lockstep
    tiles of at most TILE_ROWS paths (see the module docstring).
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    P = anchors.shape[0]
    streams = _row_streams(rng, P)
    h = t / steps
    d_anchor = model.boundary_distance(anchors)
    bounded = model.bounded_factor
    m = np.broadcast_to(np.eye(bounded.dim), (P, bounded.dim, bounded.dim)).copy()
    contacts = np.zeros(P, dtype=np.int64)
    excursion = np.zeros(P) if track_excursion else None
    tiles = _row_tiles(P)
    states = [make_walk_state(model, anchors[rows]) for rows in tiles]
    tile_anchors = [_walk_rows(model, anchors[rows]) for rows in tiles]
    frames0 = _join([s.frames for s in states]).copy() if model.needs_frames else None
    with batch_noise([streams.tile(rows) for rows in tiles], model.dimension,
                     steps - 1) as tile_noise:
        for k in range(steps):
            remaining = t - k * h
            for rows, state, noise, anchor in zip(tiles, states, tile_noise, tile_anchors):
                if k == steps - 1:
                    info = snap_to_anchor(model, state, anchor, lam_scale)
                else:
                    info = step_bridge(model, state, remaining, anchor, h, noise,
                                       lam_scale=lam_scale, d_anchor=d_anchor[rows])
                _jump_update(m[rows], info)
                contacts[rows][info.idx] += 1
                if track_excursion:
                    np.maximum(excursion[rows], model.distance(state.x, anchor),
                               out=excursion[rows])
    frames = None if frames0 is None else _join([s.frames for s in states])
    factor_m = {}
    factor_O = {}
    for spec in model.factors:
        factor_m[spec.name] = m if spec.bounded else None
        factor_O[spec.name] = model.holonomy(frames0, frames, spec)
    return BridgeBatch(
        model=model, t=t, steps=steps, anchors=anchors,
        lam=_join([s.lam for s in states]), contacts=contacts,
        alive=_join([s.alive for s in states]), factor_m=factor_m,
        factor_O=factor_O, max_excursion=excursion,
    )


def _row_tiles(P):
    """Row slices of the fewest equal tiles of at most TILE_ROWS rows covering P rows."""
    count = max(1, -(-P // TILE_ROWS))
    return [slice(i * P // count, (i + 1) * P // count) for i in range(count)]


def _join(parts):
    """The row concatenation of per-tile arrays; the array itself for one tile."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def simulate_free_walks(model: ManifoldModel, starts, t: float, steps: int, rng, *,
                        lam_scale=DEFAULT_LAM_SCALE, checkpoints=()):
    """Reflected Brownian motion without conditioning.

    Returns (state, lam_at, touched): the final state, the local time
    recorded at the requested step indices, and a flag marking paths that
    ever contacted the boundary.
    """
    gen = _as_generator(rng)
    state = make_walk_state(model, starts)
    h = t / steps
    P = state.x.shape[0]
    touched = np.zeros(P, dtype=bool)
    lam_at = {}
    for k in range(steps):
        info = step_reflected_bm(model, state, h, gen, lam_scale)
        touched[info.idx] = True
        if (k + 1) in checkpoints:
            lam_at[k + 1] = state.lam.copy()
    return state, lam_at, touched


def confinement_fraction(model: ManifoldModel, x, rho: float, t: float, samples: int,
                         rng, steps: int = 200) -> float:
    """Fraction of bridge loops pinned at x that stay inside B_rho(x)."""
    if rho <= 0:
        raise ValueError("confinement radius must be positive")
    anchors = np.broadcast_to(np.asarray(x, dtype=float), (samples, model.state_dim)).copy()
    batch = simulate_bridges(model, anchors, t, steps, rng, track_excursion=True)
    return float(np.mean(batch.max_excursion <= rho))


# ---------------------------------------------------------------------------
# recorded single paths and the general operator route
# ---------------------------------------------------------------------------


@dataclass
class PathSample:
    """One recorded trajectory with everything the operator route needs."""

    model: ManifoldModel
    t: float
    steps: int
    times: np.ndarray                 # (steps + 1,)
    positions: np.ndarray             # (steps + 1, state_dim)
    frames: np.ndarray | None         # (steps + 1, state_dim, n)
    lam: np.ndarray                   # (steps + 1,)
    contact: np.ndarray               # (steps,) bool
    dlam: np.ndarray                  # (steps,)
    nu_frame: np.ndarray              # (steps, n) full-frame normal components
    shape_coeff: np.ndarray           # (steps,)
    valid: bool
    anchor: np.ndarray | None = None

    @property
    def dimension(self):
        return self.model.dimension


def simulate_path(model: ManifoldModel, x0, t: float, steps: int, rng, *,
                  anchor=None, lam_scale=DEFAULT_LAM_SCALE) -> PathSample:
    """Simulate and record a single path (a bridge loop when anchored)."""
    gen = _as_generator(rng)
    x0 = np.asarray(x0, dtype=float)
    state = make_walk_state(model, x0[None, :])
    h = t / steps
    n = model.dimension
    sd = model.state_dim
    times = np.linspace(0.0, t, steps + 1)
    positions = np.empty((steps + 1, sd))
    frames = None if state.frames is None else np.empty((steps + 1, sd, n))
    lam = np.zeros(steps + 1)
    contact = np.zeros(steps, dtype=bool)
    dlam = np.zeros(steps)
    nu_frame = np.zeros((steps, n))
    shape_coeff = np.zeros(steps)
    positions[0] = state.x[0]
    if frames is not None:
        frames[0] = state.frames[0]
    anchor_arr = None if anchor is None else np.asarray(anchor, dtype=float)[None, :]
    cols = model.bounded_factor.cols
    for k in range(steps):
        if anchor_arr is None:
            info = step_reflected_bm(model, state, h, gen, lam_scale)
        elif k == steps - 1:
            info = snap_to_anchor(model, state, anchor_arr, lam_scale)
        else:
            info = step_bridge(model, state, t - k * h, anchor_arr, h, gen, lam_scale=lam_scale)
        positions[k + 1] = state.x[0]
        if frames is not None:
            frames[k + 1] = state.frames[0]
        lam[k + 1] = state.lam[0]
        if info.idx.size:
            contact[k] = True
            dlam[k] = info.dlam[0]
            nu_frame[k, cols] = info.nu[0]
            shape_coeff[k] = info.coeff[0]
    return PathSample(
        model=model, t=t, steps=steps, times=times, positions=positions,
        frames=frames, lam=lam, contact=contact, dlam=dlam, nu_frame=nu_frame,
        shape_coeff=shape_coeff, valid=bool(state.alive[0]),
        anchor=None if anchor is None else np.asarray(anchor, dtype=float),
    )


def _contact_jump_matrix(model, nu, a, dl, mode, eps):
    """n x n jump factor exp(-A dl) (Pi_tan or penalty) in frame components."""
    n = model.dimension
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
    dr = ext.curvature_to_operator(model.frame_curvature())
    from scipy.linalg import expm

    interior = expm(-0.5 * h * dr.mat)
    M = np.eye(1 << n)
    for k in range(start, stop):
        M = M @ interior
        if path.contact[k]:
            jump = _contact_jump_matrix(
                model, path.nu_frame[k], path.shape_coeff[k], path.dlam[k], mode, eps
            )
            M = M @ ext.algebra_lift(jump).mat
    return ext.GradedOperator(n, M)

