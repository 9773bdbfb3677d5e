"""Neumann heat kernels for the catalog models.

Each model in geometry.py picks its own construction from the pure
series, table and image functions here; heat_kernel_diag,
neumann_heat_kernel and kernel_info check t and call into the model.
All kernels are transition densities of normally reflected Brownian
motion (generator = half the Laplacian), so they integrate to one against
the Riemannian volume and approach 1/volume as t grows.

Exact constructions:

* flat disk / ball: eigenexpansion over Bessel (spherical Bessel) modes
  with Neumann zeros, from a mode table built at the first call for a
  radius and kept for later calls at the same or a larger t.  The disk's
  zeros of J_m' come from scipy's jnp_zeros; the 3-ball's zeros of j_l'
  are bracketed by a sign scan at spacing 0.5, which misses none because
  consecutive zeros lie more than pi apart (DLMF 10.21), then polished by
  Newton steps and a last bisection to full double precision.  Only these
  Bessel constructions import scipy.special, so the other models never
  load it.  The diagonal K0(t; x, x) depends only on rho = |x|:
  a batch reads it from a Chebyshev table in (rho/r)^2 built on 33, 65,
  129, ... nodes, until the trailing coefficients are below 1e-14 of the
  largest.  The table is built once per (model, t) and kept with the mode
  table, so a later batch at that t costs one Chebyshev evaluation.  A
  batch smaller than the next grid the table would need (all one-point
  calls among them) is summed point by point instead;
* interval and circle: method of images / wrapped Gaussian, switching to
  the cosine eigenseries for large times;
* hemisphere: reflection doubling of the closed-sphere series;
* products: product of the factor kernels.

Other caps and the 4-ball use a Gaussian parametrix and are flagged as
approximate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import chebyshev

from .errors import SeriesConvergenceError

if TYPE_CHECKING:
    from .geometry import ManifoldModel

_TAIL_LOG = 46.0  # truncate series once the exponential factor is below e^-46
_MAX_DIMLESS_FREQ = 320.0  # largest lambda * r supported by the mode tables
_SPHERE_MAX_TERMS = 4000  # largest degree the closed-sphere series sums

_CHEB_FIRST_INTERVALS = 32  # the first radial table grid has 33 nodes
_CHEB_TAIL = 8  # trailing coefficients that must be negligible
_CHEB_TOL = 1e-14  # ... relative to the largest coefficient

_SCAN_STEP = 0.5  # sign-scan spacing of the 3-ball Neumann zeros
_NEWTON_STEPS = 5  # Newton steps from each bracket's midpoint

_MODE_CACHE: dict = {}


def _gauss(t, z):
    return np.exp(-np.asarray(z) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------


def interval_kernel(t, length, a, b):
    """Neumann kernel on [0, length]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = float(length)
    if t <= 4.0 * L * L:
        reach = math.sqrt(2.0 * _TAIL_LOG * t) + L
        kmax = int(math.ceil(reach / (2.0 * L))) + 1
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for k in range(-kmax, kmax + 1):
            out = out + _gauss(t, a - b + 2 * k * L) + _gauss(t, a + b + 2 * k * L)
        return out
    kmax = int(math.ceil(L * math.sqrt(2.0 * _TAIL_LOG / t) / math.pi)) + 1
    out = np.full(np.broadcast_shapes(a.shape, b.shape), 1.0 / L)
    for k in range(1, kmax + 1):
        w = k * math.pi / L
        out = out + (2.0 / L) * np.cos(w * a) * np.cos(w * b) * math.exp(-w * w * t / 2.0)
    return out


def circle_kernel(t, circumference, delta):
    """Heat kernel on a circle as a function of (signed) arc separation."""
    d = np.asarray(delta, dtype=float)
    C = float(circumference)
    if t <= 4.0 * C * C:
        kmax = int(math.ceil((math.sqrt(2.0 * _TAIL_LOG * t) + C) / C)) + 1
        out = np.zeros(d.shape)
        for k in range(-kmax, kmax + 1):
            out = out + _gauss(t, d + k * C)
        return out
    kmax = int(math.ceil(C * math.sqrt(2.0 * _TAIL_LOG / t) / (2 * math.pi))) + 1
    out = np.full(d.shape, 1.0 / C)
    for k in range(1, kmax + 1):
        w = 2.0 * math.pi * k / C
        out = out + (2.0 / C) * np.cos(w * d) * math.exp(-w * w * t / 2.0)
    return out


# ---------------------------------------------------------------------------
# closed-sphere series
# ---------------------------------------------------------------------------


def _sphere_lmax(t, radius, rank):
    # smallest l with l (l + rank) t / (2 r^2) >= tail threshold
    target = 2.0 * _TAIL_LOG * radius * radius / t
    l = 0.5 * (-rank + math.sqrt(rank * rank + 4.0 * target))
    return int(math.ceil(l)) + 2


def sphere_kernel(t, dim, radius, gamma):
    """Heat kernel of the closed round sphere S^dim as a function of angle."""
    gamma = np.asarray(gamma, dtype=float)
    r2 = radius * radius
    if dim == 1:
        return circle_kernel(t, 2.0 * math.pi * radius, gamma * radius)
    if dim not in (2, 3):
        raise SeriesConvergenceError(f"no sphere series for dimension {dim}")
    lmax = _sphere_lmax(t, radius, dim - 1)
    if lmax > _SPHERE_MAX_TERMS:
        raise SeriesConvergenceError(
            f"sphere series needs {lmax} terms at t={t}", required_terms=lmax
        )
    if dim == 2:
        x = np.cos(gamma)
        out = np.zeros(gamma.shape)
        p_prev = np.ones_like(x)
        p = x.copy()
        out += 1.0 / (4.0 * math.pi * r2)
        for l in range(1, lmax + 1):
            out += (2 * l + 1) / (4.0 * math.pi * r2) * p * math.exp(-l * (l + 1) * t / (2 * r2))
            p_next = ((2 * l + 1) * x * p - l * p_prev) / (l + 1)
            p_prev, p = p, p_next
        # the alternating series cannot resolve the exponentially small far
        # tail; floor the (positive) density at the roundoff noise level
        return np.maximum(out, 0.0)
    out = np.zeros(gamma.shape)
    vol = 2.0 * math.pi**2 * radius**3
    sin_g = np.sin(gamma)
    small = np.abs(sin_g) < 1e-8
    for l in range(lmax + 1):
        # Chebyshev-U_l(cos gamma) = sin((l+1) gamma) / sin(gamma)
        u = np.where(
            small,
            (l + 1.0) * np.cos((l + 1) * gamma) / np.where(small, np.cos(gamma), 1.0),
            np.sin((l + 1) * gamma) / np.where(small, 1.0, sin_g),
        )
        out += (l + 1) * u / vol * math.exp(-l * (l + 2) * t / (2 * r2))
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Neumann modes of the flat disk and ball
# ---------------------------------------------------------------------------


def _ball_modes(dim, radius, lam_max):
    """Neumann modes (order, lambda, weight) of the disk (dim 2) or 3-ball series.

    weight multiplies exp(-lambda^2 t / 2) R(lambda rho_x) R(lambda rho_y)
    and the angular factor (cos(m dphi) on the disk, P_l(cos gamma) on the
    ball) in the kernel sum.  A cached table covering lam_max is reused;
    otherwise one is built up to lambda * r = max(lam_max * r, 60).  The
    entry's "diag" maps t to the (node count, coefficients) of the
    diagonal's converged Chebyshev table (see ball_diag); a new entry
    starts with none.
    """
    kind = "disk" if dim == 2 else "ball"
    x_max = lam_max * radius
    if x_max > _MAX_DIMLESS_FREQ:
        need = int(x_max * x_max / (2 * math.pi))
        raise SeriesConvergenceError(
            f"{kind} Neumann series needs modes up to lambda*r = {x_max:.1f} "
            f"(~{need} terms); reduce lambda_max or increase t",
            required_terms=need,
        )
    key = (kind, round(radius, 12))
    cached = _MODE_CACHE.get(key)
    if cached is None or cached["x_max"] < x_max:
        x_max_build = max(x_max, 60.0)
        orders = (_disk_orders if dim == 2 else _ball3_orders)(radius, x_max_build)
        cached = {"x_max": x_max_build, "orders": orders, "radius": radius, "diag": {}}
        _MODE_CACHE[key] = cached
    return cached


def _disk_orders(radius, x_max_build):
    from scipy import special

    per_order = int(x_max_build / math.pi) + 3
    orders = []
    for m in range(0, int(x_max_build) + 2):
        # the first zero of J_m' is >= m and the zeros lie more than pi apart,
        # so no more than this many of them can lie below x_max_build
        count = min(per_order, int((x_max_build - m) / math.pi) + 3)
        zeros = special.jnp_zeros(m, count)
        zeros = zeros[zeros <= x_max_build]
        if zeros.size == 0 and m > 0:
            break
        if m == 0:
            zeros = zeros[zeros > 1e-9]
        lam = zeros / radius
        jval = special.jv(m, zeros)
        norm = (radius**2 / 2.0) * (1.0 - (m / zeros) ** 2) * jval**2
        weight = (1.0 if m == 0 else 2.0) / (2.0 * math.pi * norm)
        orders.append((m, lam, weight))
    return orders


def _ball3_orders(radius, x_max_build):
    from scipy import special

    # The zeros of j_l' lie more than pi apart (DLMF 10.21), so a sign scan
    # at _SCAN_STEP brackets each of them alone.  Each order's scan starts at
    # the 0.02 lattice point just below sqrt(l(l+1)): at the first critical
    # point of j_l, j_l > 0 >= j_l'', which the Bessel ODE
    # x^2 j'' + 2x j' + (x^2 - l(l+1)) j = 0 allows only for x^2 >= l(l+1).
    # It ends at the last point of that lattice below x_max_build + 0.5, so
    # an order whose first zero lies just past x_max_build keeps its (empty)
    # entry, and the first order without a zero there ends the table.
    lattice = np.arange(0.2, x_max_build + 0.5, 0.02)
    end = lattice[-1]
    bracket_orders, bracket_lo, bracket_hi = [], [], []
    for l in range(0, int(x_max_build) + 2):
        start = lattice[max(int(np.searchsorted(lattice, math.sqrt(l * (l + 1)))) - 1, 0)]
        grid = np.append(np.arange(start, end, _SCAN_STEP), end)
        sgn = np.sign(special.spherical_jn(l, grid, derivative=True))
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if flips.size == 0 and l > 0:
            break
        bracket_orders.append(np.full(flips.size, l))
        bracket_lo.append(grid[flips])
        bracket_hi.append(grid[flips + 1])
    ls = np.concatenate(bracket_orders)

    def deriv(x):
        return special.spherical_jn(ls, x, derivative=True)

    def newton_step(x):  # j_l' / j_l'', with j_l'' from the Bessel ODE
        d = deriv(x)
        j = special.spherical_jn(ls, x)
        return d / (-(2.0 / x) * d - (1.0 - ls * (ls + 1) / (x * x)) * j)

    roots = _polish_roots(deriv, newton_step, np.concatenate(bracket_lo),
                          np.concatenate(bracket_hi))
    orders = []
    for l in range(len(bracket_orders)):
        zeros = roots[(ls == l) & (roots <= x_max_build)]
        lam = zeros / radius
        jval = special.spherical_jn(l, zeros)
        norm = (radius**3 / 2.0) * (1.0 - l * (l + 1) / zeros**2) * jval**2
        weight = (2 * l + 1) / (4.0 * math.pi * norm)
        orders.append((l, lam, weight))
    return orders


def _polish_roots(f, newton_step, lo, hi):
    """Roots of the vectorised f inside the sign-change brackets [lo, hi].

    newton_step(x) is f(x) / f'(x).  _NEWTON_STEPS Newton steps from the
    bracket midpoints, each clipped to its bracket, come within a few ulps
    of the root; _bisect_roots then settles the last bits on a bracket
    around the Newton point, widened until it holds the sign change of
    [lo, hi].  On the 3-ball tables the roots are bitwise those that
    _bisect_roots finds on the whole brackets, at a fraction of the calls.
    """
    sign_lo = np.sign(f(lo))
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        x = np.clip(x - newton_step(x), lo, hi)
    width = 4.0 * np.spacing(x)
    while True:
        # fmax / fmin: a NaN Newton point widens to its whole bracket
        a = np.fmax(x - width, lo)
        b = np.fmin(x + width, hi)
        holds = (np.sign(f(a)) == sign_lo) & (np.sign(f(b)) == -sign_lo)
        if holds.all():
            return _bisect_roots(f, a, b)
        width = np.where(holds, width, 2.0 * width)


def _bisect_roots(f, lo, hi):
    """Roots of the vectorised f inside the sign-change brackets [lo, hi].

    Bisects every bracket at once until no midpoint lies strictly inside
    it, i.e. to full double precision.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return mid
        f_mid = f(mid)
        left = np.sign(f_mid) == np.sign(f_lo)  # the root lies in [mid, hi]
        lo = np.where(left, mid, lo)
        f_lo = np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)


def _lambda_max(t):
    return math.sqrt(2.0 * _TAIL_LOG / t)


def _active_modes(modes, t):
    """(order, lambda, weight * exp(-lambda^2 t / 2)) of each order's modes above the tail cut."""
    for order, lam, weight in modes["orders"]:
        keep = lam * lam * t / 2.0 <= _TAIL_LOG
        lam = lam[keep]
        if lam.size:
            yield order, lam, weight[keep] * np.exp(-lam * lam * t / 2.0)


def disk_kernel(t, radius, x, y):
    """Neumann kernel of the flat disk of the given radius at point pairs (x_p, y_p)."""
    from scipy import special

    modes = _ball_modes(2, radius, _lambda_max(t))
    rho_x = np.linalg.norm(x, axis=-1)
    rho_y = np.linalg.norm(y, axis=-1)
    dphi = np.arctan2(x[:, 1], x[:, 0]) - np.arctan2(y[:, 1], y[:, 0])
    out = np.full(x.shape[0], 1.0 / (math.pi * radius * radius))
    for m, lam, coeff in _active_modes(modes, t):
        jx = special.jv(m, lam[:, None] * rho_x[None, :])
        jy = special.jv(m, lam[:, None] * rho_y[None, :])
        ang = np.cos(m * dphi)[None, :] if m > 0 else 1.0
        out = out + np.einsum("k,kp->p", coeff, jx * jy * (ang if m > 0 else 1.0))
    # eigen-series noise floor: the density is positive
    return np.maximum(out, 0.0)


def ball3_kernel(t, radius, volume, x, y):
    """Neumann kernel of the flat 3-ball of the given radius and volume at point pairs."""
    from scipy import special

    modes = _ball_modes(3, radius, _lambda_max(t))
    rho_x = np.linalg.norm(x, axis=-1)
    rho_y = np.linalg.norm(y, axis=-1)
    denom = np.where(rho_x * rho_y == 0.0, 1.0, rho_x * rho_y)
    cosg = np.clip(np.einsum("pd,pd->p", x, y) / denom, -1.0, 1.0)
    cosg = np.where(rho_x * rho_y == 0.0, 1.0, cosg)
    out = np.full(x.shape[0], 1.0 / volume)
    lmax_used = max((entry[0] for entry in modes["orders"]), default=0)
    legendre = _legendre_table(cosg, lmax_used)
    for l, lam, coeff in _active_modes(modes, t):
        jx = special.spherical_jn(l, lam[:, None] * rho_x[None, :])
        jy = special.spherical_jn(l, lam[:, None] * rho_y[None, :])
        out = out + np.einsum("k,kp->p", coeff, jx * jy) * legendre[l]
    # eigen-series noise floor: the density is positive
    return np.maximum(out, 0.0)


def _ball_diag_series(t, dim, radius, volume, rho):
    """K0(t; x, x) of the flat disk (dim 2) or 3-ball at radii rho, summed mode by mode.

    On the diagonal the angular factor is cos(0) = P_l(1) = 1, so each
    mode contributes weight * decay * R(lambda rho)^2.
    """
    from scipy import special

    modes = _ball_modes(dim, radius, _lambda_max(t))
    if dim == 2:
        radial = special.jv
        out = np.full(rho.shape[0], 1.0 / (math.pi * radius * radius))
    else:
        radial = special.spherical_jn
        out = np.full(rho.shape[0], 1.0 / volume)
    for order, lam, coeff in _active_modes(modes, t):
        j = radial(order, lam[:, None] * rho[None, :])
        out = out + np.einsum("k,kp->p", coeff, j * j)
    return np.maximum(out, 0.0)


def ball_diag(t, radius, volume, x):
    """K0(t; x, x) of the flat disk or 3-ball from a Chebyshev table in (rho/r)^2.

    The ball dimension is x.shape[1].  The diagonal is even in rho, so it
    is interpolated in u = 2 (rho/r)^2 - 1 on nested Chebyshev-Lobatto
    grids of 33, 65, 129, ... nodes.  Doubling stops once the trailing
    coefficients are below _CHEB_TOL of the largest; if the next grid would
    need more nodes than the batch has points, the batch is summed point by
    point instead.

    The converged table is kept with the mode table it was summed from, and
    a later batch at the same t with at least its node count reads it.  A
    cold build for such a batch converges to the same coefficients, and a
    smaller batch builds or sums as if cold, so no value depends on
    earlier calls.
    """
    r = radius
    dim = x.shape[1]
    rho = np.linalg.norm(x, axis=-1)
    n = _CHEB_FIRST_INTERVALS
    if rho.shape[0] < n + 1:
        return _ball_diag_series(t, dim, r, volume, rho)
    tables = _ball_modes(dim, r, _lambda_max(t))["diag"]
    if t in tables and tables[t][0] <= rho.shape[0]:
        return chebyshev.chebval(2.0 * (rho / r) ** 2 - 1.0, tables[t][1])
    vals = _ball_diag_series(t, dim, r, volume, _lobatto_radii(r, np.arange(n + 1), n))
    while True:
        coeffs = _lobatto_coefficients(vals)
        tail = np.abs(coeffs[-_CHEB_TAIL:]).max()
        if tail <= _CHEB_TOL * np.abs(coeffs).max():
            break
        if 2 * n + 1 > rho.shape[0]:
            return _ball_diag_series(t, dim, r, volume, rho)
        # the old nodes are the even nodes of the doubled grid
        fresh = _ball_diag_series(t, dim, r, volume,
                                  _lobatto_radii(r, 2 * np.arange(n) + 1, 2 * n))
        merged = np.empty(2 * n + 1)
        merged[0::2] = vals
        merged[1::2] = fresh
        vals = merged
        n *= 2
    tables[t] = (n + 1, coeffs)
    return chebyshev.chebval(2.0 * (rho / r) ** 2 - 1.0, coeffs)


def _lobatto_radii(r, j, n):
    """Radii of the Chebyshev-Lobatto nodes u_j = cos(pi j / n), u = 2 (rho/r)^2 - 1."""
    return r * np.sqrt(0.5 * (1.0 + np.cos(np.pi * j / n)))


def _lobatto_coefficients(vals):
    """Chebyshev coefficients of the interpolant through values at cos(pi j / n)."""
    n = vals.shape[0] - 1
    # a type-I discrete cosine transform, as the real FFT of the even extension
    coeffs = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
    coeffs[0] *= 0.5
    coeffs[-1] *= 0.5
    return coeffs


def _legendre_table(x, lmax):
    table = [np.ones_like(x)]
    if lmax >= 1:
        table.append(x.copy())
    for l in range(1, lmax):
        table.append(((2 * l + 1) * x * table[l] - l * table[l - 1]) / (l + 1))
    return table


def ball_series_t_min(radius):
    """Smallest t whose disk or 3-ball mode table stays below _MAX_DIMLESS_FREQ."""
    return 2.0 * _TAIL_LOG * (radius / _MAX_DIMLESS_FREQ) ** 2


def sphere_series_t_min(radius):
    """Smallest t the closed-sphere series sums within about _SPHERE_MAX_TERMS terms."""
    return 2.0 * _TAIL_LOG * radius**2 / _SPHERE_MAX_TERMS**2


def parametrix(t, dim, d, dx, dy):
    """Gaussian parametrix with a single boundary image (approximate).

    d is the distance between the points of each pair, dx and dy their
    distances to the boundary.
    """
    tan_sq = np.maximum(d**2 - (dx - dy) ** 2, 0.0)
    image_sq = tan_sq + (dx + dy) ** 2
    pref = (2.0 * math.pi * t) ** (-dim / 2.0)
    return pref * (np.exp(-(d**2) / (2 * t)) + np.exp(-image_sq / (2 * t)))


# ---------------------------------------------------------------------------
# model entry points
# ---------------------------------------------------------------------------


def kernel_info(model: ManifoldModel, t: float) -> dict:
    """Exactness and validity metadata for the model's kernel at time t."""
    info = model.heat_kernel_spec()
    info["valid"] = t >= info["t_min"]
    return info


def _check_time(t):
    if not (t > 0 and math.isfinite(t)):
        raise SeriesConvergenceError(f"heat kernel requires a finite t > 0, got t={t}")


def heat_kernel_diag(model: ManifoldModel, t: float, x) -> np.ndarray:
    """K0(t; x, x) for a batch of points."""
    _check_time(t)
    return model.neumann_diag(t, np.atleast_2d(np.asarray(x, dtype=float)))


def neumann_heat_kernel(model: ManifoldModel, t: float, x, y) -> float:
    """Neumann heat kernel K0(t; x, y) of a single point pair."""
    _check_time(t)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    return float(model.neumann_kernel(t, x, y)[0])
