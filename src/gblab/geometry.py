"""Closed-form model manifolds with boundary.

Each model supplies exact geometry to the simulation and estimation
layers: geodesic stepping with parallel frame transport, signed boundary
distance, Skorokhod reflection that returns the images' distance and
normal, one ``collar_data`` query for that distance with the inward normal,
curvature in orthonormal frame components, uniform volume/collar/boundary
samplers, and the ground-truth Euler characteristic.  Every catalog
boundary is umbilic on its bounded factor, so one number per model,
``shape_coefficient``, fixes the shape operator: it is that number times
the projection onto the bounded factor minus nu nu^T.  ``boundary_data``
(contact rows of the walk) and ``boundary_geometry`` (the analytic side)
both derive from these two.

Walks step in walk coordinates.  A tangent vector of the walk is U xi, the
moving frame U applied to its frame components xi: for a model that
carries frames these are the embedding (state) coordinates of the vector,
and for one that does not, the frame is the identity and they are the
frame components themselves.  ``geodesic_step``, ``log_frame``,
``collar_data`` and ``reflect`` all speak walk coordinates, so a step
never projects onto the frame and back; frames only map the noise, give
the frame components of contact normals (``boundary_data``) and carry the
holonomy.

Models are built from one or two isotropic factors (round sphere or cap,
flat ball; a 1-sphere is a circle and a 1-ball an interval, so the flat
cylinder is the sphere-ball product of the two); the factor metadata
drives the fast supertrace assembly in the stochastic engine.  Points of
spherical factors are stored embedded (which keeps stepping and
transport exact).
Each model also owns its analytic data: the diagonal K0(t; x, x) of its
Neumann heat kernel, the one kernel value the path integral needs (built
from the series, table and image functions of the kernels module), the
kernel's exactness and validity metadata, the confinement scale of its
pinned loops, and the curvature of its boundary.

All models are immutable and all operations are pure, so one instance can
serve every batch and call of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as hk
from .errors import ConfigError
from .exterior import CurvatureTensor

_POLE_EXCLUSION = 1e-6  # samplers keep this far (radians) from the cap apex; apertures exceed it
SPHERE_TOLERANCE = 1e-9  # relative distance of a valid state from an embedded sphere


@dataclass(frozen=True)
class FactorSpec:
    """Metadata describing one isotropic factor of a model.

    ``cols`` selects the factor's frame-component columns; ``bounded``
    marks the factor carrying the boundary; ``needs_frame`` marks factors
    with nontrivial holonomy (curved spheres and caps).
    """

    name: str
    dim: int
    kappa: float
    cols: slice
    bounded: bool
    needs_frame: bool


def _unit(v):
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(norm == 0.0, 1.0, norm)


def _rowdot(a, b):
    """Sum of a[..., k] * b[..., k] over the last axis, column by column (beats einsum for k <= 4)."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _scale_columns(x, w, op, out=None):
    """op(x[:, k], w) for every column k (one op for a scalar w), into out or a new array like x.

    A (P, 1) broadcast of a per-row w over rows of k entries costs several times as much.
    """
    out = np.empty_like(x) if out is None else out
    if np.ndim(w) == 0:
        return op(x, w, out=out)
    for k in range(x.shape[1]):
        op(x[:, k], w, out=out[:, k])
    return out


def _column_buffer(rows, cols):
    """An uninitialised (rows, cols) array whose columns are contiguous."""
    return np.empty((cols, rows)).T


def _sphere_step(p, u, v_amb, r):
    """Exact great-circle step and parallel transport on a round sphere.

    p: (P, d) embedded points, |p| = r; u: (P, d, k) tangent frame columns
    or None; v_amb: (P, d) tangent step vectors.  Returns the new points
    and transported frame in the layouts of p and u.  Every operation runs
    over one length-P column (a coordinate of the points, or one entry of
    the frames), which is contiguous in the column-major walk state, into
    arrays made once per call.  The step is a rotation: like the frames,
    the points are not renormalized (both drift below 1e-12 in 20 000 steps).
    """
    dim = p.shape[1]
    s = np.sqrt(_rowdot(v_amb, v_amb))
    angle = s / r
    # one sine per step: cos a - 1 = -2 sin^2(a/2), exact to rounding at
    # small angles where cos a - 1 cancels, and sin a = 2 sin(a/2) cos(a/2)
    # with cos(a/2) = sqrt(1 - sin^2(a/2)), which holds up to a half turn
    sh = np.sin(0.5 * angle)
    c1 = sh * sh
    si = np.sqrt(1.0 - c1)
    si *= sh
    si *= 2.0
    far = (angle > math.pi).nonzero()[0]
    if far.size:
        si[far] = np.sin(angle[far])
    c1 *= -2.0
    inv_s = 1.0 / np.maximum(s, 1e-300)
    # p2 = cos(a) p + r sin(a) v / s
    c = np.add(c1, 1.0, out=angle)
    k = np.multiply(si, r, out=sh)
    k *= inv_s
    tmp = np.empty_like(k)
    p2 = np.empty_like(p)
    for d in range(dim):
        col = p2[:, d]
        np.multiply(c, p[:, d], out=col)
        np.multiply(k, v_amb[:, d], out=tmp)
        col += tmp
    if u is None:
        return p2, None
    # u2 = u + (u . v) t with t = (cos a - 1) v / s^2 - sin(a) p / (r s): a
    # frame column's part along the step turns toward -p, the rest stays
    c1 *= inv_s
    c1 *= inv_s
    np.divide(si, r, out=k)
    k *= inv_s
    t = np.empty((dim, p.shape[0]))
    for d in range(dim):
        np.multiply(c1, v_amb[:, d], out=t[d])
        np.multiply(k, p[:, d], out=tmp)
        t[d] -= tmp
    w = c1  # the frame column's component along v, column by column
    u2 = np.empty_like(u)
    for a in range(u.shape[2]):
        np.multiply(u[:, 0, a], v_amb[:, 0], out=w)
        for d in range(1, dim):
            np.multiply(u[:, d, a], v_amb[:, d], out=tmp)
            w += tmp
        for d in range(dim):
            col = u2[:, d, a]
            np.multiply(w, t[d], out=col)
            col += u[:, d, a]
    return p2, u2


def _sphere_angle(x, y):
    """Angle between points of equal norm as 2 atan2(|x - y|, |x + y|): exactly 0 at x = y."""
    d = x - y
    s = x + y
    return 2.0 * np.arctan2(np.sqrt(_rowdot(d, d)), np.sqrt(_rowdot(s, s)))


def _sphere_log(x, y, r):
    """Ambient log map log_x(y) on the round sphere of radius r, per coordinate.

    The angle atan2(|perp|, x . y / r), perp the part of y normal to x, is
    accurate at every angle; an arccos of the cosine loses short steps' digits.
    """
    xy = _rowdot(x, y)
    cosg = xy / r**2
    perp = [y[:, d] - cosg * x[:, d] for d in range(x.shape[1])]
    norm = perp[0] * perp[0]
    for q in perp[1:]:
        norm += q * q
    np.sqrt(norm, out=norm)
    xy /= r
    scale = r * np.arctan2(norm, xy)  # then the length over |perp|
    scale /= np.maximum(norm, 1e-300)
    out = np.empty_like(x)
    for d, q in enumerate(perp):
        np.multiply(q, scale, out=out[:, d])
    return out


def _mirrored_collar(reach, depth, nu):
    """Depth and inward normal of the images of points at depth <= 0, stepped back by -2 depth.

    The step runs toward the centre (the ball's origin, the cap's apex) at
    distance reach from the boundary, along nu carried with it: the image's
    depth is -depth, or 2 reach + depth with nu reversed past the centre.
    """
    depth2 = -depth
    past = (depth < -reach).nonzero()[0]
    if past.size:
        depth2[past] += 2.0 * (reach + depth[past])
        nu = nu.copy()
        nu[past] *= -1.0
    return depth2, nu


def _set_sizes(model, sizes):
    """Set model.volume and model.boundary_area to sizes(), or raise ConfigError.

    Both, the square of the model's confinement scale and the square of
    each embedded sphere's radius (which every state check computes) must
    be finite and > 0; a size whose arithmetic overflows is not finite.
    """
    try:
        model.volume, model.boundary_area = sizes()
        checked = (model.volume, model.boundary_area, model.confinement_scale() ** 2,
                   *(r * r for _, r in model.embedded_spheres))
    except OverflowError:
        checked = (math.inf,)
    if not all(math.isfinite(v) and v > 0 for v in checked):
        raise ConfigError(f"{model.name} volume, boundary area, squared confinement scale and "
                          f"squared sphere radius must be finite and > 0, got {checked}")


def _rotation_from_pole(phat, axis_index):
    """Batched rotation taking the +axis unit vector onto phat (never antipodal)."""
    P, d = phat.shape
    a = np.zeros(d)
    a[axis_index] = 1.0
    b = phat
    dot = b[:, axis_index]
    R = np.broadcast_to(np.eye(d), (P, d, d)).copy()
    # R = I + (b a^T - a b^T) + (b a^T - a b^T)^2 / (1 + a . b)
    K = b[:, :, None] * a[None, None, :] - a[None, :, None] * b[:, None, :]
    K2 = K @ K
    denom = (1.0 + dot)[:, None, None]
    R += K + K2 / denom
    return R


def _householder_to_last(nu):
    """Orthogonal Q (n x n) whose last column is the unit vector nu."""
    n = nu.shape[0]
    e = np.zeros(n)
    e[-1] = 1.0
    w = nu - e if nu[-1] < 0.999999 else None
    if w is None:
        Q = np.eye(n)
        Q[:, -1] = nu
        # re-orthonormalize the remaining columns against nu
        for a in range(n - 1):
            col = Q[:, a] - (Q[:, a] @ nu) * nu
            for b in range(a):
                col -= (col @ Q[:, b]) * Q[:, b]
            Q[:, a] = col / np.linalg.norm(col)
        return Q
    H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    return -H if H[:, -1] @ nu < 0 else H


class ManifoldModel:
    """Shared behaviour for the catalog models; subclasses fill in geometry."""

    name = "abstract"

    # --- identification ------------------------------------------------
    @property
    def params(self) -> dict:
        return dict(self._params)

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"

    # --- frame plumbing -------------------------------------------------
    @property
    def needs_frames(self) -> bool:
        return any(f.needs_frame for f in self.factors)

    @property
    def bounded_factor(self) -> FactorSpec:
        for f in self.factors:
            if f.bounded:
                return f
        raise ConfigError(f"model {self.name} has no boundary")

    def initial_frames(self, x):
        """Orthonormal frame at each point; None when transport is trivial."""
        return None

    def holonomy(self, u0, u, factor: FactorSpec):
        """Frame development u0^T u restricted to a factor's columns."""
        if u0 is None or not factor.needs_frame:
            return None
        c = factor.cols
        # einsum's summation order follows the memory layout: fix it to C order
        u0, u = np.ascontiguousarray(u0), np.ascontiguousarray(u)
        return np.einsum("pda,pdb->pab", u0[:, :, c], u[:, :, c])

    # --- hooks subclasses must provide -----------------------------------
    # dimension, state_dim, euler_characteristic, volume, boundary_area, factors,
    # shape_coefficient (the umbilic shape operator's one number), frame_curvature(),
    # and, in walk coordinates (see the module docstring): geodesic_step(x, u, v),
    # collar_data(x) (boundary distance and inward normal), reflect(x, u, depth, nu)
    # (from collar_data's depth and normal at x, to the images, frames, and their
    # collar_data) and log_frame(x, y); then distance, the two sampling hooks
    # sample_collar(rng, count, width) (uniform on the points within width of the
    # boundary) and collar_volume(width), with collar_volume(inf) == volume,
    # shell_jacobian(depth) (collar_volume's derivative over boundary_area: the area
    # of the parallel hypersurface at each depth per unit boundary area),
    # boundary_point(), interior_point() (a point farthest from the boundary), and the
    # analytic data: heat_kernel_spec(), confinement_scale() and
    # boundary_curvature_parts().  A model whose state embeds round spheres lists them
    # in embedded_spheres.  boundary_distance, the volume and boundary samplers and
    # offset_from_boundary derive from these below.

    embedded_spheres = ()  # (state columns, radius) of each factor stored as an embedded sphere
    walk_dtype = np.float64  # see the stochastic module's "walk precision"

    def walk_precision(self, h):
        """The precision of a batch of walks on the steps h (one, or one per path)."""
        return self.walk_dtype

    def boundary_distance(self, x):
        """Signed distance of each row of x from the boundary (positive inside): collar_data's."""
        return self.collar_data(x)[0]

    def sample_volume(self, rng, count):
        """Uniform points of the model: the collar of infinite width."""
        return self.sample_collar(rng, count, math.inf)

    def sample_boundary(self, rng, count):
        """Uniform points of the boundary: the collar of width 0."""
        return self.sample_collar(rng, count, 0.0)

    def offset_from_boundary(self, z, depth):
        """The geodesic from each boundary point z along its inward normal, at its depth."""
        v = _scale_columns(self.collar_data(z)[1], np.asarray(depth), np.multiply)
        return self.geodesic_step(z, self.initial_frames(z), v)[0]

    def simulation_valid(self, x):
        """Rows of x that are states of the model.

        A state is finite, and each embedded sphere factor lies within
        SPHERE_TOLERANCE times its radius of that radius.  The boundary is
        not checked: a state may be a reflected walk's point outside it.
        """
        valid = np.isfinite(x).all(axis=1)
        for cols, radius in self.embedded_spheres:
            ps = x[:, cols]
            valid &= np.abs(np.sqrt(_rowdot(ps, ps)) - radius) <= SPHERE_TOLERANCE * radius
        return valid

    # --- frame plumbing of walk coordinates --------------------------------
    def frame_vector(self, u, xi):
        """Walk coordinates u xi of frame components xi, per coordinate; xi without frames.

        (P, d, k) frames and (P, k) components give column-major (P, d)
        vectors, the layout of the walk state of frame-carrying models.
        """
        if u is None:
            return xi
        out = _column_buffer(*u.shape[:2])
        for d in range(u.shape[1]):
            out[:, d] = _rowdot(u[:, d], xi)
        return out

    def frame_components(self, u, v):
        """Frame components u^T v of walk-coordinate tangent vectors, per frame column; v without frames."""
        if u is None:
            return v
        out = _column_buffer(u.shape[0], u.shape[2])
        for k in range(u.shape[2]):
            out[:, k] = _rowdot(u[:, :, k], v)
        return out

    def boundary_data(self, u, nu):
        """Bounded-factor frame components of inward normals.

        nu holds collar_data's normals (walk coordinates) at contact points
        and u their frames, so a contact costs no second boundary query.
        The shape operator there is shape_coefficient times the projection
        onto the bounded factor minus nu nu^T, one number per model.
        """
        return self.frame_components(u, nu)[:, self.bounded_factor.cols]

    def bridge_step(self, state, anchor, remaining, scales, xi, d_anchor):
        """The step of stochastic.step_bridge on the standard normals xi."""
        from .stochastic import general_step  # which imports this module
        return general_step(self, state, anchor, remaining, scales, xi, d_anchor)

    # --- Neumann heat kernel ---------------------------------------------
    def neumann_diag(self, t, x):
        """K0(t; x_p, x_p) of a batch of points; this default is the Gaussian parametrix."""
        return hk.parametrix(t, self.dimension, self.boundary_distance(x))


# ---------------------------------------------------------------------------
# flat ball D^n
# ---------------------------------------------------------------------------


class FlatBall(ManifoldModel):
    """Flat disk/ball of radius r in R^n; boundary is the round sphere."""

    name = "ball"
    walk_dtype = np.float32  # its closed-form step runs about twice as fast in float32
    # the largest rounding u r over a step's root sqrt(h) measured harmless in float32:
    # the diagnostics battery's disk walks, r = 10 at h = 4e-5, read 9.4e-5
    WALK_ROUNDING = 1e-4

    def __init__(self, dimension: int, radius: float = 1.0):
        if dimension < 1 or dimension > 4:
            raise ConfigError(f"ball dimension must be 1..4, got {dimension}")
        if radius <= 0:
            raise ConfigError(f"ball radius must be positive, got {radius}")
        self.dimension = int(dimension)
        self.state_dim = self.dimension
        self.radius = float(radius)
        self.euler_characteristic = 1
        self.shape_coefficient = 1.0 / self.radius
        n = self.dimension
        _set_sizes(self, lambda: (math.pi ** (n / 2) * radius**n / math.gamma(n / 2 + 1),
                                  2 * math.pi ** (n / 2) * radius ** (n - 1) / math.gamma(n / 2)))
        self.factors = (FactorSpec("ball", n, 0.0, slice(0, n), True, False),)
        self._params = {"dimension": dimension, "radius": radius}

    def frame_curvature(self) -> CurvatureTensor:
        return CurvatureTensor.zero(self.dimension)

    def geodesic_step(self, x, u, v):
        return x + v, u

    def walk_precision(self, h):
        """walk_dtype where its rounding was measured harmless, float64 elsewhere.

        A rounded coordinate is off by up to u r (u = 2**-24 in float32), and a
        shorter step does not shrink that: walk_dtype needs u r <= WALK_ROUNDING
        sqrt(h) at the batch's shortest step.  With 2**-40 <= r <= 2**40 and every
        sqrt(h) <= 2**16 r, each squared coordinate is a normal float32 number.
        """
        r, u = self.radius, np.finfo(self.walk_dtype).eps / 2.0
        shortest, longest = math.sqrt(np.min(h)), math.sqrt(np.max(h))
        if (2.0**-40 <= r <= 2.0**40 and longest <= 2.0**16 * r
                and u * r <= self.WALK_ROUNDING * shortest):
            return self.walk_dtype
        return np.float64

    def collar_data(self, x):
        rho = np.sqrt(_rowdot(x, x))
        # negate rho (P values), not x (P * n values)
        nu = _scale_columns(x, -np.maximum(rho, np.finfo(rho.dtype).tiny), np.divide)
        return self.radius - rho, nu

    def reflect(self, x, u, depth, nu):
        # radial mirror image.  A contact row has r <= |x|, so depth = r - |x|
        # and r - depth = |x| are exact up to |x| = 2 r (Sterbenz's lemma):
        # the norm comes from the depth
        rho = self.radius - depth
        x2 = _scale_columns(x, (self.radius + depth) / rho, np.multiply)
        if nu is None:  # from the points in float64, so |nu| = 1 to its rounding in any walk
            nu = x.astype(float)
            _scale_columns(nu, -np.sqrt(_rowdot(nu, nu)), np.divide, nu)
        return x2, u, *_mirrored_collar(self.radius, depth, nu)

    def log_frame(self, x, y):
        return y - x

    def bridge_step(self, state, anchor, remaining, scales, xi, d_anchor):
        """general_step in closed form, equal to it to rounding: one update per row.

        ell . nu = |x| - a . x / |x| gives x2 = alpha x + beta a + sqrt(h) xi, beta = h / s,
        alpha = 1 - beta + h image_pull / |x| (x + sqrt(h) xi free).  The walks carry |x|
        instead of nu, and reflect forms the contact rows' normals.
        """
        from . import stochastic as st  # which imports this module
        (h, root_h), x = scales, state.x
        rho = np.sqrt(_rowdot(x, x)) if state.norm is None else state.norm  # |x|
        x2 = _scale_columns(xi, root_h, np.multiply, xi)
        if anchor is None:
            x2 += x
        else:
            # keeps alpha x = 0 at the centre: |x| below sqrt(tiny) r lies within rounding of
            # it, and the guard is a normal number whose reciprocal times h image_pull stays
            # finite, at every radius the walk precision takes
            inv = 1.0 / np.maximum(rho, math.sqrt(np.finfo(rho.dtype).tiny) * self.radius)
            ell_nu = _rowdot(anchor, x)
            ell_nu *= inv
            np.subtract(rho, ell_nu, out=ell_nu)
            alpha = st.image_pull(ell_nu, state.depth + d_anchor, remaining)
            alpha *= h
            alpha *= inv
            beta = h / remaining
            alpha += 1.0 - beta
            x2 += _scale_columns(x, alpha, np.multiply)
            x2 += _scale_columns(anchor, beta, np.multiply)
        rho = _rowdot(x2, x2)
        np.sqrt(rho, out=rho)
        info = st._apply_increment(self, state, x2, None, self.radius - rho, None)
        rho[info.idx] = self.radius - state.depth[info.idx]  # the images' |x|
        state.norm = rho
        return info

    def distance(self, x, y):
        return np.linalg.norm(y - x, axis=-1)

    # samplers ------------------------------------------------------------
    def sample_collar(self, rng, count, width):
        n = self.dimension
        width = min(width, self.radius)
        q = ((self.radius - width) / self.radius) ** n
        direction = _unit(rng.standard_normal((count, n)))
        rho = self.radius * (q + rng.random(count) * (1.0 - q)) ** (1.0 / n)
        return direction * rho[:, None]

    def collar_volume(self, width):
        n = self.dimension
        width = min(width, self.radius)
        inner = (self.radius - width) ** n
        return self.volume * (1.0 - inner / self.radius**n)

    def shell_jacobian(self, depth):
        return ((self.radius - np.asarray(depth)) / self.radius) ** (self.dimension - 1)

    def boundary_point(self):
        z = np.zeros(self.state_dim)
        z[0] = self.radius
        return z

    def interior_point(self):
        """The center."""
        return np.zeros(self.state_dim)

    # analytic data ---------------------------------------------------------
    def neumann_diag(self, t, x):
        r = self.radius
        if self.dimension == 1:
            return hk.interval_kernel(t, 2 * r, x[:, 0] + r, x[:, 0] + r)
        if self.dimension in (2, 3):
            return hk.ball_diag(t, r, self.volume, x)
        return super().neumann_diag(t, x)

    def heat_kernel_spec(self):
        # the interval's image sum holds at every t, the disk and ball mode tables from a limit
        t_min = 0.0 if self.dimension == 1 else hk.ball_series_t_min(self.radius)
        return {"exact": self.dimension in (1, 2, 3), "kind": "ball", "t_min": t_min}

    def confinement_scale(self):
        """Length scale below which pinned loops stay local."""
        return self.radius

    def boundary_curvature_parts(self, tan):
        """(kappa, projection) pairs whose Kulkarni-Nomizu sum is the boundary curvature.

        tan holds the adapted tangent basis of the boundary in frame
        components, one column per direction.
        """
        return [(1.0 / self.radius**2, tan.T @ tan)]


# ---------------------------------------------------------------------------
# spherical cap (hemisphere when aperture = pi/2)
# ---------------------------------------------------------------------------


class SphereCap(ManifoldModel):
    """Geodesic cap of the round n-sphere of radius r with aperture alpha.

    Points are stored embedded in R^(n+1) with the cap centered on the
    positive last axis; colatitude runs from 0 (apex) to alpha (boundary).
    The boundary is umbilic with shape coefficient cot(alpha)/r for the
    inward normal, so the aperture pi/2 gives the totally geodesic
    equator of the hemisphere.
    """

    name = "cap"

    def __init__(self, dimension: int, radius: float = 1.0, aperture: float = math.pi / 2):
        if dimension not in (2, 3):
            raise ConfigError(f"cap dimension must be 2 or 3, got {dimension}")
        if radius <= 0:
            raise ConfigError(f"cap radius must be positive, got {radius}")
        if not _POLE_EXCLUSION < aperture < math.pi:
            raise ConfigError(f"cap aperture must lie in ({_POLE_EXCLUSION}, pi), got {aperture}")
        self.dimension = int(dimension)
        self.state_dim = self.dimension + 1
        self.radius = float(radius)
        self.aperture = float(aperture)
        self.euler_characteristic = 1
        self._axis = self.dimension  # index of the symmetry axis coordinate
        n, r, a = self.dimension, self.radius, self.aperture
        self.embedded_spheres = ((slice(0, n + 1), self.radius),)
        if n == 2:
            _set_sizes(self, lambda: (2 * math.pi * r**2 * (1 - math.cos(a)),
                                      2 * math.pi * r * math.sin(a)))
        else:
            _set_sizes(self, lambda: (2 * math.pi * r**3 * (a - math.sin(a) * math.cos(a)),
                                      4 * math.pi * (r * math.sin(a)) ** 2))
        self.constant_curvature = 1.0 / radius**2
        # the hemisphere's equator is a geodesic: its kernel is exact (see neumann_diag)
        self.shape_coefficient = 0.0 if self.is_hemisphere else math.cos(a) / math.sin(a) / r
        self.factors = (FactorSpec("cap", n, self.constant_curvature, slice(0, n), True, True),)
        self._params = {"dimension": dimension, "radius": radius, "aperture": aperture}

    @property
    def is_hemisphere(self) -> bool:
        return abs(self.aperture - math.pi / 2) < 1e-12

    def frame_curvature(self) -> CurvatureTensor:
        return CurvatureTensor.constant_curvature(self.dimension, self.constant_curvature)

    def collar_data(self, x):
        """Boundary distance and inward normal, in embedding coordinates.

        The normal is minus the meridian (the unit tangent toward increasing
        colatitude theta), built one coordinate at a time: -cos(theta) times
        the unit horizontal direction (0 at the apex), and sin(theta) along
        the axis.  Both come from the coordinates without trigonometry:
        cos(theta) = x_axis / r and sin(theta) = |x_horizontal| / r, and the
        one quotient x_axis / r also gives the distance.
        """
        axis = self._axis
        horiz = x[:, :axis]
        norm = np.sqrt(_rowdot(horiz, horiz))
        cos_theta = x[:, axis] / self.radius
        theta = np.arccos(np.minimum(np.maximum(cos_theta, -1.0), 1.0))
        scale = np.maximum(norm, 1e-300)  # then -cos(theta) / |x_horizontal|
        np.negative(scale, out=scale)
        np.divide(cos_theta, scale, out=scale)
        nu = np.empty_like(x)
        for d in range(axis):
            np.multiply(x[:, d], scale, out=nu[:, d])
        np.divide(norm, self.radius, out=nu[:, axis])
        return self.radius * (self.aperture - theta), nu

    def initial_frames(self, x):
        phat = x / self.radius
        R = _rotation_from_pole(phat, self._axis)
        # tangent basis at the apex: the first n ambient directions
        return R[:, :, : self.dimension]

    def geodesic_step(self, x, u, v):
        """Great-circle step along the embedded tangent vectors v, transporting the frames u."""
        return _sphere_step(x, u, v, self.radius)

    def reflect(self, x, u, depth, nu):
        """Step back along collar_data's inward normal nu (embedding coordinates) by twice -depth.

        The step is the rotation through a = -2 depth / r in the plane of x and
        nu, exact at every angle: x goes to cos(a) x + r sin(a) nu, nu to the
        meridian's tangent nu2 = cos(a) nu - sin(a) x / r at the image, and a
        frame column u, whose part along nu turns with them, to
        u + (u . nu)(nu2 - nu).  On a few hundred gathered contact rows,
        whole-row broadcasts make fewer numpy calls than a loop over columns.
        """
        r = self.radius
        angle = -2.0 * depth / r
        cos_a, sin_a = np.cos(angle)[:, None], np.sin(angle)[:, None]
        x2 = x * cos_a
        x2 += nu * (r * sin_a)
        nu2 = nu * cos_a
        nu2 -= x * (sin_a / r)
        u2 = u + (nu2 - nu)[:, :, None] * np.einsum("pdk,pd->pk", u, nu)[:, None, :]
        return x2, u2, *_mirrored_collar(r * self.aperture, depth, nu2)

    def log_frame(self, x, y):
        """Log map log_x(y) in embedding coordinates."""
        return _sphere_log(x, y, self.radius)

    def distance(self, x, y):
        return self.radius * _sphere_angle(x, y)

    # samplers ------------------------------------------------------------
    def _sample_theta(self, rng, count, theta_min, theta_max):
        if self.dimension == 2:
            c = rng.uniform(math.cos(theta_max), math.cos(theta_min), size=count)
            return np.arccos(c)
        f = lambda th: th - np.sin(th) * np.cos(th)
        lo, hi = f(theta_min), f(theta_max)
        target = lo + rng.random(count) * (hi - lo)
        theta = np.full(count, 0.5 * (theta_min + theta_max))
        for _ in range(40):
            val = f(theta) - target
            deriv = np.maximum(2.0 * np.sin(theta) ** 2, 1e-12)
            theta = np.clip(theta - val / deriv, theta_min, theta_max)
        return theta

    def _embed(self, theta, rng, count):
        r = self.radius
        if self.dimension == 2:
            phi = rng.uniform(0.0, 2 * math.pi, size=count)
            return r * np.stack(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
            )
        omega = _unit(rng.standard_normal((count, 3)))
        return r * np.concatenate(
            [np.sin(theta)[:, None] * omega, np.cos(theta)[:, None]], axis=-1
        )

    def sample_collar(self, rng, count, width):
        theta_w = max(self.aperture - width / self.radius, _POLE_EXCLUSION)
        theta = self._sample_theta(rng, count, theta_w, self.aperture)
        return self._embed(theta, rng, count)

    def collar_volume(self, width):
        theta_w = max(self.aperture - width / self.radius, 0.0)
        r, a = self.radius, self.aperture
        if self.dimension == 2:
            return 2 * math.pi * r**2 * (math.cos(theta_w) - math.cos(a))
        f = lambda th: th - math.sin(th) * math.cos(th)
        return 2 * math.pi * r**3 * (f(a) - f(theta_w))

    def shell_jacobian(self, depth):
        a = self.aperture
        return (np.sin(a - np.asarray(depth) / self.radius) / math.sin(a)) ** (self.dimension - 1)

    def boundary_point(self):
        z = np.zeros(self.state_dim)
        z[0] = self.radius * math.sin(self.aperture)
        z[self._axis] = self.radius * math.cos(self.aperture)
        return z

    def interior_point(self):
        """The apex: the point farthest from the boundary."""
        z = np.zeros(self.state_dim)
        z[self._axis] = self.radius
        return z

    # analytic data ---------------------------------------------------------
    def neumann_diag(self, t, x):
        if not self.is_hemisphere:
            return super().neumann_diag(t, x)
        # reflection doubling: the closed-sphere diagonal (one value) plus the mirrored-point term
        n, r = self.dimension, self.radius
        gamma_m = 2.0 * self.boundary_distance(x) / r
        return hk.sphere_kernel(t, n, r, np.zeros(1)) + hk.sphere_kernel(t, n, r, gamma_m)

    def heat_kernel_spec(self):
        return {"exact": self.is_hemisphere, "kind": "cap",
                "t_min": hk.sphere_series_t_min(self.radius)}

    def confinement_scale(self):
        return self.radius * min(self.aperture, math.pi / 2)

    def boundary_curvature_parts(self, tan):
        # the boundary is a round (n-1)-sphere of radius r sin(alpha)
        return [(1.0 / (self.radius * math.sin(self.aperture)) ** 2, tan.T @ tan)]


# ---------------------------------------------------------------------------
# product S^l x D^m
# ---------------------------------------------------------------------------

_SPHERE_VOLUME = {1: lambda r: 2 * math.pi * r, 2: lambda r: 4 * math.pi * r**2, 3: lambda r: 2 * math.pi**2 * r**3}


class SphereBall(ManifoldModel):
    """Product of a round sphere S^l and a flat ball D^m.

    State is the concatenation of the embedded sphere point (l + 1
    coordinates) and the ball point (m coordinates).  Frames are block
    frames: the first l columns span the sphere tangent space and the
    remaining m columns are the standard ball directions, so parallel
    transport never mixes the factors.  A circle factor (l = 1) carries no
    frame, so its walk coordinate is the arclength along the circle; a
    2- or 3-sphere's walk coordinates are its l + 1 embedding coordinates.
    """

    name = "sphere-ball"

    def __init__(self, sphere_dim: int, ball_dim: int, sphere_radius: float = 1.0, ball_radius: float = 1.0):
        if sphere_dim not in (1, 2, 3):
            raise ConfigError(f"sphere factor dimension must be 1..3, got {sphere_dim}")
        if ball_dim < 1 or sphere_dim + ball_dim > 4:
            raise ConfigError(
                f"need ball_dim >= 1 and sphere_dim + ball_dim <= 4, got {sphere_dim}+{ball_dim}"
            )
        if sphere_radius <= 0 or ball_radius <= 0:
            raise ConfigError("factor radii must be positive")
        self.sphere_dim = int(sphere_dim)
        self.ball_dim = int(ball_dim)
        self.sphere_radius = float(sphere_radius)
        self.ball_radius = float(ball_radius)
        self.dimension = self.sphere_dim + self.ball_dim
        self.state_dim = self.sphere_dim + 1 + self.ball_dim
        self.euler_characteristic = 2 if sphere_dim % 2 == 0 else 0
        l, m = self.sphere_dim, self.ball_dim
        ball = FlatBall(m, ball_radius)
        self._ball = ball
        self.shape_coefficient = ball.shape_coefficient
        self.embedded_spheres = ((slice(0, l + 1), self.sphere_radius),)
        _set_sizes(self, lambda: (_SPHERE_VOLUME[l](sphere_radius) * ball.volume,
                                  _SPHERE_VOLUME[l](sphere_radius) * ball.boundary_area))
        kappa_s = 0.0 if sphere_dim == 1 else 1.0 / sphere_radius**2
        self.kappa_sphere = kappa_s
        self.factors = (
            FactorSpec("sphere", l, kappa_s, slice(0, l), False, l >= 2),
            FactorSpec("ball", m, 0.0, slice(l, l + m), True, False),
        )
        self._sphere_width = l + 1 if self.needs_frames else 1  # the sphere's walk coordinates
        self._params = {
            "sphere_dim": sphere_dim,
            "ball_dim": ball_dim,
            "sphere_radius": sphere_radius,
            "ball_radius": ball_radius,
        }

    def _split(self, x):
        return x[..., : self.sphere_dim + 1], x[..., self.sphere_dim + 1 :]

    def frame_curvature(self) -> CurvatureTensor:
        n, l = self.dimension, self.sphere_dim
        comp = np.zeros((n, n, n, n))
        if self.kappa_sphere != 0.0:
            block = CurvatureTensor.constant_curvature(l, self.kappa_sphere).components
            comp[:l, :l, :l, :l] = block
        return CurvatureTensor(n, comp)

    def _circle_tangent(self, ps):
        """Oriented unit tangent of the S^1 factor (only when l == 1)."""
        t = np.stack([-ps[:, 1], ps[:, 0]], axis=-1)
        return t / self.sphere_radius

    def initial_frames(self, x):
        if not self.needs_frames:
            return None
        ps, _ = self._split(x)
        P = x.shape[0]
        u = np.zeros((P, self.state_dim, self.dimension))
        R = _rotation_from_pole(ps / self.sphere_radius, self.sphere_dim)
        u[:, : self.sphere_dim + 1, : self.sphere_dim] = R[:, :, : self.sphere_dim]
        for j in range(self.ball_dim):
            u[:, self.sphere_dim + 1 + j, self.sphere_dim + j] = 1.0
        return u

    def geodesic_step(self, x, u, v):
        """Step along v in walk coordinates: the sphere block's, then the ball's."""
        l, w = self.sphere_dim, self._sphere_width
        ps, pb = self._split(x)
        x2 = np.empty_like(x)  # keeps the layout of the walk state
        if u is None:  # only a circle factor (l == 1) moves without frames
            v_amb = v[:, 0][:, None] * self._circle_tangent(ps)
            x2[:, : l + 1], _ = _sphere_step(ps, None, v_amb, self.sphere_radius)
            u2 = None
        else:
            # only the sphere block of the block frame moves
            u2 = np.empty_like(u)
            u2[:, l + 1 :] = u[:, l + 1 :]
            u2[:, : l + 1, l:] = u[:, : l + 1, l:]
            x2[:, : l + 1], u2[:, : l + 1, :l] = _sphere_step(
                ps, u[:, : l + 1, :l], v[:, :w], self.sphere_radius)
        np.add(pb, v[:, w:], out=x2[:, l + 1 :])
        return x2, u2

    def reflect(self, x, u, depth, nu):
        """The ball factor's mirror image and depth; the normal (0 on the sphere) passes through."""
        ps, pb = self._split(x)
        pb2, _, depth2, nu2 = self._ball.reflect(pb, None, depth, nu)
        return np.concatenate([ps, pb2], axis=-1), u, depth2, nu2

    def collar_data(self, x):
        """The ball's distance and normal; the normal is 0 on the sphere block of walk coordinates."""
        w = self._sphere_width
        d, nu_b = self._ball.collar_data(self._split(x)[1])
        nu = np.zeros((x.shape[0], w + self.ball_dim))
        nu[:, w:] = nu_b
        return d, nu

    def log_frame(self, x, y):
        """The sphere block in embedding coordinates (arclength on a circle), then the ball's."""
        w = self._sphere_width
        xs, xb = self._split(x)
        ys, yb = self._split(y)
        out = np.zeros((x.shape[0], w + self.ball_dim))
        out[:, w:] = yb - xb
        r = self.sphere_radius
        if w == 1:
            dphi = np.arctan2(xs[:, 0] * ys[:, 1] - xs[:, 1] * ys[:, 0], _rowdot(xs, ys))
            out[:, 0] = r * dphi
        else:
            out[:, :w] = _sphere_log(xs, ys, r)
        return out

    def distance(self, x, y):
        xs, xb = self._split(x)
        ys, yb = self._split(y)
        ds = self.sphere_radius * _sphere_angle(xs, ys)
        db = np.linalg.norm(yb - xb, axis=-1)
        return np.hypot(ds, db)

    # samplers ------------------------------------------------------------
    def _sample_sphere(self, rng, count):
        return self.sphere_radius * _unit(rng.standard_normal((count, self.sphere_dim + 1)))

    def sample_collar(self, rng, count, width):
        return np.concatenate(
            [self._sample_sphere(rng, count), self._ball.sample_collar(rng, count, width)], axis=-1
        )

    def collar_volume(self, width):
        return _SPHERE_VOLUME[self.sphere_dim](self.sphere_radius) * self._ball.collar_volume(width)

    def shell_jacobian(self, depth):
        return self._ball.shell_jacobian(depth)

    def boundary_point(self):
        z = np.zeros(self.state_dim)
        z[0] = self.sphere_radius
        z[self.sphere_dim + 1] = self.ball_radius
        return z

    def interior_point(self):
        """A sphere point times the center of the ball."""
        z = np.zeros(self.state_dim)
        z[0] = self.sphere_radius
        return z

    # analytic data ---------------------------------------------------------
    def neumann_diag(self, t, x):
        k_s = hk.sphere_kernel(t, self.sphere_dim, self.sphere_radius, np.zeros(1))  # one value
        return k_s * self._ball.neumann_diag(t, self._split(x)[1])

    def heat_kernel_spec(self):
        # each factor's own limit: the circle's image sum holds at every t
        t_sphere = 0.0 if self.sphere_dim == 1 else hk.sphere_series_t_min(self.sphere_radius)
        ball = self._ball.heat_kernel_spec()
        return {"exact": ball["exact"], "kind": "sphere-ball",
                "t_min": max(t_sphere, ball["t_min"])}

    def confinement_scale(self):
        return min(self.ball_radius, math.pi * self.sphere_radius)

    def boundary_curvature_parts(self, tan):
        # sphere block with its curvature; the ball block's boundary sphere when m >= 3
        n, l = self.dimension, self.sphere_dim
        Ps = np.zeros((n, n))
        Ps[:l, :l] = np.eye(l)
        parts = [(self.kappa_sphere, tan.T @ Ps @ tan)]
        if self.ball_dim >= 3:
            Pb = np.eye(n) - Ps
            parts.append((1.0 / self.ball_radius**2, tan.T @ Pb @ tan))
        return parts


# ---------------------------------------------------------------------------
# catalog and boundary geometry
# ---------------------------------------------------------------------------


def model_catalog(name: str, **params) -> ManifoldModel:
    """Build a catalog model by name.

    Supported names: "ball" (dimension, radius), "hemisphere" (dimension,
    radius), "cap" (dimension, radius, aperture), "sphere-ball"
    (sphere_dim, ball_dim, sphere_radius, ball_radius), "cylinder"
    (length, circumference).  The flat cylinder S^1 x [0, L] is the product
    sphere-ball(1, 1) with sphere radius C / (2 pi) and ball radius L / 2,
    so its points are the embedded circle point, then the interval
    coordinate in [-L/2, L/2].
    """
    try:
        if name == "ball":
            return FlatBall(params.pop("dimension", 2), params.pop("radius", 1.0), **params)
        if name == "hemisphere":
            return SphereCap(
                params.pop("dimension", 2), params.pop("radius", 1.0), math.pi / 2, **params
            )
        if name == "cap":
            return SphereCap(
                params.pop("dimension", 2),
                params.pop("radius", 1.0),
                params.pop("aperture", math.pi / 3),
                **params,
            )
        if name == "sphere-ball":
            return SphereBall(
                params.pop("sphere_dim", 1),
                params.pop("ball_dim", 2),
                params.pop("sphere_radius", 1.0),
                params.pop("ball_radius", 1.0),
                **params,
            )
        if name == "cylinder":
            length = params.pop("length", 1.0)
            circumference = params.pop("circumference", 2 * math.pi)
            return SphereBall(1, 1, circumference / (2 * math.pi), length / 2, **params)
    except TypeError as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


@dataclass(frozen=True)
class BoundaryGeometry:
    """Boundary data at one point, in an adapted orthonormal frame.

    The adapted frame lists n-1 tangential directions first and the
    inward normal last, so the induced metric is the identity.
    """

    shape_tangential: np.ndarray       # (n-1, n-1)
    ambient_restriction: CurvatureTensor
    gauss_form: CurvatureTensor
    induced_curvature: CurvatureTensor


def _kulkarni(proj):
    return np.einsum("ac,bd->abcd", proj, proj) - np.einsum("ad,bc->abcd", proj, proj)


def boundary_geometry(model: ManifoldModel, z) -> BoundaryGeometry:
    """Assemble boundary data (shape operator, Gauss form, curvatures) at z."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    nu = model.frame_components(model.initial_frames(z), model.collar_data(z)[1])[0]
    nu = nu / np.linalg.norm(nu)
    n = model.dimension
    Q = _householder_to_last(nu)  # tangential columns first, the normal last
    # the umbilic shape operator a (projection onto the bounded factor - nu nu^T)
    bounded = np.zeros(n)
    bounded[model.bounded_factor.cols] = 1.0
    A_full = model.shape_coefficient * (np.diag(bounded) - np.outer(nu, nu))
    A_adapted = Q.T @ A_full @ Q
    A_tan = A_adapted[: n - 1, : n - 1]
    R_frame = model.frame_curvature().rotate(Q)
    R_tan = R_frame.restrict(range(n - 1))
    gauss = CurvatureTensor.from_symmetric_generator(A_tan)
    comp = np.zeros((n - 1,) * 4)
    for kappa, proj in model.boundary_curvature_parts(Q[:, : n - 1]):
        if kappa != 0.0:
            comp += kappa * _kulkarni(proj)
    r_z = CurvatureTensor(n - 1, comp)
    return BoundaryGeometry(
        shape_tangential=A_tan,
        ambient_restriction=R_tan,
        gauss_form=gauss,
        induced_curvature=r_z,
    )

