"""Diagonals K0(t; x, x) of the catalog models' Neumann heat kernels.

Each model in geometry.py picks its own construction from the pure
series, table and image functions here; heat_kernel_diag checks t and
calls into the model.  The path integral needs only the diagonal, so no
model exposes the kernel at point pairs; that reference lives with the
tests (tests/oracles.py).  All kernels are transition
densities of normally reflected Brownian motion (generator = half the
Laplacian), so they integrate to one against the Riemannian volume and
approach 1/volume as t grows.

Exact constructions:

* flat disk / ball: eigenexpansion over Bessel (spherical Bessel) modes
  with Neumann zeros, from a mode table built at the first call for a
  radius and kept for later calls at the same or a larger t.  The zeros
  of J_m' and j_l' are bracketed by one sign scan of every order at
  spacing 0.5, which misses none because consecutive zeros lie more than
  pi apart (DLMF 10.21), then polished by Newton steps and a last
  bisection to full double precision.  Every Bessel value comes from
  bessel, a backward recurrence in numpy.  The diagonal K0(t; x, x)
  depends only on rho = |x|: a batch reads it from a Chebyshev table in
  (rho/r)^2 built on 33, 65, 129, ... nodes, until the trailing
  coefficients are below 1e-14 of the largest.  The table is built once
  per (model, t) and kept with the mode table, so a later batch at that t
  costs one Chebyshev evaluation.  A batch smaller than the next grid the
  table would need (all one-point calls among them) is summed point by
  point instead;
* interval and circle (the 1-ball and 1-sphere, and so the cylinder
  sphere-ball(1, 1)): method of images / wrapped Gaussian, exact at
  every t; the image count grows like sqrt(t) over the period, so a sum
  that would need more than _MAX_TERMS images a side is refused;
* hemisphere: reflection doubling of the closed-sphere series;
* products: product of the factor kernels.

A series that cannot reach its tail at t refuses with
SeriesConvergenceError.  Other caps and the 4-ball use the diagonal of a
Gaussian parametrix, (2 pi t)^(-n/2) (1 + exp(-2 d^2 / t)) at depth d;
their models' exact_kernel is False.
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
_MAX_TERMS = 4000  # largest degree the closed-sphere series sums, and images a side of an image sum

_CHEB_FIRST_INTERVALS = 32  # the first radial table grid has 33 nodes
_CHEB_TAIL = 8  # trailing coefficients that must be negligible
_CHEB_TOL = 1e-14  # ... relative to the largest coefficient

_SCAN_STEP = 0.5  # sign-scan spacing of the Neumann zeros
_NEWTON_STEPS = 5  # Newton steps from each bracket's midpoint
_BESSEL_PASS = 1 << 14  # Bessel values per backward-recurrence pass

_MODE_CACHE: dict = {}


def _gauss(t, z):
    return np.exp(-np.asarray(z) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------


def _image_count(t, reach, period):
    """Images a side that cover sqrt(2 _TAIL_LOG t) + reach at spacing period; at most _MAX_TERMS."""
    count = (math.sqrt(2.0 * _TAIL_LOG * t) + reach) / period
    if not count <= _MAX_TERMS:
        raise SeriesConvergenceError(
            f"image sum needs {count:.3g} images a side at t={t}, more than {_MAX_TERMS}")
    return int(math.ceil(count)) + 1


def interval_kernel(t, length, a, b):
    """Neumann kernel on [0, length]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = float(length)
    kmax = _image_count(t, L, 2.0 * L)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k in range(-kmax, kmax + 1):
        out = out + _gauss(t, a - b + 2 * k * L) + _gauss(t, a + b + 2 * k * L)
    return out


def circle_kernel(t, circumference, delta):
    """Heat kernel on a circle as a function of (signed) arc separation."""
    d = np.asarray(delta, dtype=float)
    C = float(circumference)
    kmax = _image_count(t, C, C)
    out = np.zeros(d.shape)
    for k in range(-kmax, kmax + 1):
        out = out + _gauss(t, d + k * C)
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
    if lmax > _MAX_TERMS:
        raise SeriesConvergenceError(f"sphere series needs {lmax} terms at t={t}")
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
# Bessel functions of integer order
# ---------------------------------------------------------------------------


def bessel(order, x, spherical=False):
    """(J_m(x), J_m'(x)), or (j_m(x), j_m'(x)) with spherical=True, at integer m >= 0, x >= 0.

    order and x broadcast; each element has its own order.  Miller's
    backward recurrence in the order (DLMF 10.74(iv)): an element starts
    from f_N = 1, f_{N+1} = 0 at N = max(m, x) + a max(m, x)^(1/3) + 10
    and recurs f_{k-1} = (2k + s) / x f_k - f_{k+1} (s = 0, or 1 for j)
    down to k = 0.  Since N > x, J_N(x) > 0, so f is a positive multiple
    of the Bessel sequence.  It is fixed by J_0 + 2 sum J_2k = 1
    (DLMF 10.12.4), which counts every term, so N must lie where J_N is
    below the rounding of that sum (a = 10); or by a least-squares fit of
    (f_0, f_1) to j_0 = sin x / x and j_1 = (j_0 - cos x) / x
    (DLMF 10.49.3), which only needs the recurrence to have settled on
    j (a = 6).  The derivatives are (J_{m-1} - J_{m+1}) / 2 and
    (m j_{m-1} - (m + 1) j_{m+1}) / (2m + 1) (DLMF 10.6.1, 10.51.2).
    Below x = 1e-30 the values at x = 0 are exact to rounding.

    Elements run in passes of _BESSEL_PASS, sorted by N, keeping only a
    few arrays of the pass's size.  Each element's arithmetic depends only
    on its own (m, x), and rescaling is by powers of two, so no value that
    does not underflow depends on the rest of the batch.
    """
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, dtype=float))
    shape = x.shape
    m = order.ravel().astype(np.intp)
    x = x.ravel()
    val = np.zeros(x.size)
    der = np.zeros(x.size)
    tiny = x < 1e-30
    val[tiny] = m[tiny] == 0
    der[tiny & (m == 1)] = 1.0 / 3.0 if spherical else 0.5
    live = np.flatnonzero(~tiny)
    big = np.maximum(m[live], x[live])
    top = (big + (6.0 if spherical else 10.0) * np.cbrt(big) + 10.0).astype(np.intp) + 1
    by_top = np.argsort(-top, kind="stable")
    live, top = live[by_top], top[by_top]
    for lo in range(0, live.size, _BESSEL_PASS):
        idx = live[lo:lo + _BESSEL_PASS]
        val[idx], der[idx] = _miller(m[idx], x[idx], top[lo:lo + _BESSEL_PASS], spherical)
    return val.reshape(shape), der.reshape(shape)


def _miller(m, x, top, spherical):
    """bessel's recurrence for one pass, top (each element's N) descending."""
    n = m.size
    s = 1.0 if spherical else 0.0
    K = int(top[0])
    # rows with top >= k step at k; they form a prefix, as top descends
    running = np.searchsorted(-top, -np.arange(K + 1), side="right").tolist()
    by_order = np.argsort(m, kind="stable")
    first = np.searchsorted(m[by_order], np.arange(K + 2)).tolist()
    # |f| grows by at most g = (2K + 1) / x + 1 a step; rows past 2^500 are
    # scaled by 2^-500 at least every 480 / log2(g) steps, so none overflows
    check = max(1, int(480.0 / math.log2((2 * K + 1) / x.min() + 1.0)))
    f, fp, fn = np.ones(n), np.zeros(n), np.empty(n)
    total = (top % 2 == 0).astype(float)  # the even terms of f: f_N = 1
    val, up, down = np.zeros(n), np.zeros(n), np.zeros(n)
    c = 0
    for k in range(K, 0, -1):
        if running[k] != c:  # rows starting at N = k
            f[c:running[k]] = 1.0
            fp[c:running[k]] = 0.0
            c = running[k]
            xc = x[:c]
        new = np.divide(2.0 * k + s, xc, out=fn[:c])
        new *= f[:c]
        new -= fp[:c]
        if k % 2 and not spherical:
            total[:c] += new
        lo, mid, hi = first[k - 1], first[k], first[k + 1]
        if lo < mid:  # m = k - 1
            rows = by_order[lo:mid]
            val[rows] = fn[rows]
            up[rows] = f[rows]
        if mid < hi:  # m = k
            rows = by_order[mid:hi]
            down[rows] = fn[rows]
        f, fp, fn = fn, f, fp
        if k % check == 0 or k == 1:  # and before f_0^2 + f_1^2 below
            over = np.flatnonzero(np.maximum(np.abs(f[:c]), np.abs(fp[:c])) > 2.0**500)
            if over.size:
                for a in (f, fp, val, up, down, total):
                    a[over] *= 2.0**-500
    if spherical:
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        norm = (f * f + fp * fp) / (j0 * f + j1 * fp)
        mf = m.astype(float)
        der = (mf * down - (mf + 1.0) * up) / (2.0 * mf + 1.0)
    else:
        norm = 2.0 * total - f  # J_0 + 2 sum J_2k = 1; total counts f_0 once
        der = 0.5 * (np.where(m == 0, -up, down) - up)  # J_{-1} = -J_1
    return val / norm, der / norm


# ---------------------------------------------------------------------------
# Neumann modes of the flat disk and ball
# ---------------------------------------------------------------------------


def _ball_modes(dim, radius, lam_max):
    """Neumann modes of the disk (dim 2) or 3-ball series up to lambda = lam_max.

    The entry's "order", "lam" and "weight" list every mode, sorted by
    order and then lambda; weight multiplies exp(-lambda^2 t / 2)
    R(lambda rho_x) R(lambda rho_y) and the angular factor (cos(m dphi) on
    the disk, P_l(cos gamma) on the ball) in the kernel sum.  A table
    cached for exactly this radius and covering lam_max is reused;
    otherwise one is built up to lambda * r = max(lam_max * r, 60).  The
    entry's "diag" maps t to the (node count, coefficients) of the
    diagonal's converged Chebyshev table (see ball_diag); a new entry
    starts with none.
    """
    kind = "disk" if dim == 2 else "ball"
    x_max = lam_max * radius
    if x_max > _MAX_DIMLESS_FREQ:
        need = x_max * x_max / (2 * math.pi)  # inf once t is too small for lam_max to exist
        raise SeriesConvergenceError(f"{kind} Neumann series needs modes up to lambda*r = "
                                     f"{x_max:.3g} (~{need:.3g} terms); increase t")
    key = (kind, radius)
    cached = _MODE_CACHE.get(key)
    if cached is None or cached["x_max"] < x_max:
        x_max_build = max(x_max, 60.0)
        order, lam, weight = _ball_orders(dim, radius, x_max_build)
        cached = {"x_max": x_max_build, "order": order, "lam": lam, "weight": weight, "diag": {}}
        _MODE_CACHE[key] = cached
    return cached


def _ball_orders(dim, radius, x_max_build):
    """(order, lambda, weight) of the disk (dim 2) or 3-ball modes up to lambda r = x_max_build.

    The Neumann zeros are those of J_m' or j_l'.  They lie more than pi
    apart (DLMF 10.21), so one sign scan of every order at _SCAN_STEP
    brackets each of them alone.  No zero of J_m' lies below m, and none
    of j_l' below sqrt(l(l+1)): at the first critical point of R, R > 0 >=
    R'', which the Bessel ODE x^2 R'' + p x R' + (x^2 - nu^2) R = 0
    (p = 1, nu^2 = m^2; p = 2, nu^2 = l(l+1)) allows only for x >= nu.  So
    each order's scan starts at the 0.02 lattice point just below nu and
    ends at the last point of that lattice below x_max_build + 0.5.
    """
    spherical = dim == 3
    p = 2.0 if spherical else 1.0
    orders = np.arange(int(x_max_build) + 2)
    nu2 = orders * (orders + 1.0) if spherical else orders**2.0
    lattice = np.arange(0.2, x_max_build + 0.5, 0.02)
    end = lattice[-1]
    start = lattice[np.maximum(np.searchsorted(lattice, np.sqrt(nu2)) - 1, 0)]
    points = np.maximum(np.ceil((end - start) / _SCAN_STEP).astype(np.intp), 0) + 1
    ls = np.repeat(orders, points)
    step = np.arange(ls.size) - np.repeat(np.cumsum(points) - points, points)
    grid = np.repeat(start, points) + _SCAN_STEP * step
    grid[np.cumsum(points) - 1] = end
    sgn = np.sign(bessel(ls, grid, spherical)[1])
    flips = np.flatnonzero((sgn[:-1] * sgn[1:] < 0) & (ls[:-1] == ls[1:]))
    ls = ls[flips]
    nu2 = nu2[ls]

    def deriv(x):
        return bessel(ls, x, spherical)[1]

    def newton_step(x):  # R' / R'', with R'' from the Bessel ODE
        r, d = bessel(ls, x, spherical)
        return d / (-(p / x) * d - (1.0 - nu2 / (x * x)) * r)

    zeros = _polish_roots(deriv, newton_step, grid[flips], grid[flips + 1])
    keep = zeros <= x_max_build
    ls, zeros = ls[keep], zeros[keep]
    return ls, zeros / radius, _mode_weights(dim, radius, ls, zeros)


def _mode_weights(dim, radius, order, zeros):
    """Weights of the disk's or 3-ball's Neumann modes at the zeros lambda r of R'."""
    if dim == 2:
        r = bessel(order, zeros)[0]
        norm = (radius**2 / 2.0) * (1.0 - (order / zeros) ** 2) * r**2
        return np.where(order == 0, 1.0, 2.0) / (2.0 * math.pi * norm)
    r = bessel(order, zeros, spherical=True)[0]
    norm = (radius**3 / 2.0) * (1.0 - order * (order + 1.0) / zeros**2) * r**2
    return (2 * order + 1) / (4.0 * math.pi * norm)


def _polish_roots(f, newton_step, lo, hi):
    """Roots of the vectorised f inside the sign-change brackets [lo, hi].

    newton_step(x) is f(x) / f'(x).  _NEWTON_STEPS Newton steps from the
    bracket midpoints, each clipped to its bracket, come within a few ulps
    of the root; _bisect_roots then settles the last bits on a bracket
    around the Newton point, widened until it holds the sign change of
    [lo, hi].  On the mode tables the roots are bitwise those that
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
    """(order, lambda, weight * exp(-lambda^2 t / 2)) of the modes above the tail cut."""
    lam = modes["lam"]
    keep = lam * lam * t / 2.0 <= _TAIL_LOG
    lam = lam[keep]
    return modes["order"][keep], lam, modes["weight"][keep] * np.exp(-lam * lam * t / 2.0)


def _mode_sum(t, dim, radius, rho):
    """sum over modes of coeff R(lambda rho)^2, per radius, in blocks of about _BESSEL_PASS terms."""
    order, lam, coeff = _active_modes(_ball_modes(dim, radius, _lambda_max(t)), t)
    out = np.empty(rho.shape[0])
    block = max(1, _BESSEL_PASS // max(order.size, 1))
    for lo in range(0, out.size, block):
        points = slice(lo, lo + block)
        r = bessel(order[:, None], lam[:, None] * rho[None, points], dim == 3)[0]
        out[points] = np.einsum("k,kp->p", coeff, r * r)
    return out


def _ball_diag_series(t, dim, radius, volume, rho):
    """K0(t; x, x) of the flat disk (dim 2) or 3-ball at radii rho, summed mode by mode.

    On the diagonal the angular factor is cos(0) = P_l(1) = 1, so each
    mode contributes weight * decay * R(lambda rho)^2.
    """
    base = 1.0 / (math.pi * radius * radius) if dim == 2 else 1.0 / volume
    # eigen-series noise floor: the density is positive
    return np.maximum(base + _mode_sum(t, dim, radius, rho), 0.0)


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


def parametrix(t, dim, depth):
    """Diagonal of the Gaussian parametrix with a single boundary image (approximate).

    depth is each point's distance to the boundary; its image lies at
    twice that distance.  The float power raises OverflowError when
    (2 pi t)^(-dim/2) is not a double.
    """
    pref = (2.0 * math.pi * t) ** (-dim / 2.0)
    return pref * (1.0 + np.exp(-(depth + depth) ** 2 / (2 * t)))


# ---------------------------------------------------------------------------
# model entry points
# ---------------------------------------------------------------------------


def heat_kernel_diag(model: ManifoldModel, t: float, x) -> np.ndarray:
    """K0(t; x, x) for a batch of points; SeriesConvergenceError where it is not finite."""
    if not (t > 0 and math.isfinite(t)):
        raise SeriesConvergenceError(f"heat kernel requires a finite t > 0, got t={t}")
    try:
        diag = model.neumann_diag(t, np.atleast_2d(np.asarray(x, dtype=float)))
    except OverflowError as exc:
        raise SeriesConvergenceError(f"heat kernel diagonal overflows at t={t}: {exc}") from exc
    if not np.isfinite(diag).all():
        raise SeriesConvergenceError(f"heat kernel diagonal is not finite at t={t}")
    return diag
