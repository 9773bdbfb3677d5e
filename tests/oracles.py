"""Reference computations that only the tests use.

The Gauss-equation check of the boundary data; the transport half of the
operator route and the operator-route supertrace of one recorded path;
and the multivector side of the exterior algebra: multivectors with their
wedge and inner products, an operator applied to a multivector, wedge and
contraction operators, boundary projections, shape-operator extensions
(plain and penalized), the parity operator, basis degrees and wedge signs,
the interior product of a vector with a multivector, a vector as a
degree-1 multivector, degree components and degree blocks.  Also the
reference mode tables of the flat disk and 3-ball, built the slow way on
kernels.bessel or with scipy.special, the diagonal summed with scipy, and
every model's Neumann heat kernel at point pairs, the reference of the
models' diagonals.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import special

from gblab import exterior as ext
from gblab import geometry as geo
from gblab import kernels as hk
from gblab import stochastic as st
from gblab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NumericalAbortError,
)


def gauss_equation_check(model, samples: int = 32) -> float:
    """Max deviation of (ambient restriction + Gauss form - induced curvature).

    For n = 2 the boundary curvature is trivial and the check returns 0.
    """
    if model.dimension < 3:
        return 0.0
    zs = model.sample_boundary(np.random.default_rng(0), samples)
    worst = 0.0
    for i in range(samples):
        bg = geo.boundary_geometry(model, zs[i])
        dev = np.abs(
            bg.ambient_restriction.components
            + bg.gauss_form.components
            - bg.induced_curvature.components
        ).max()
        worst = max(worst, float(dev))
    return worst


def path_supertrace(path) -> float:
    """Supertrace of (functional x inverse transport) via the operator route."""
    M = st.evolve_functional(path)
    _, V = evolve_transport(path)
    return (M @ V).supertrace()


def evolve_transport(path):
    """Transport U and its inverse V on forms along a whole recorded path.

    The lifts of the frame development u_0^T u_t and of its transpose.
    Raises NumericalAbortError when the development drifts from orthogonality
    by more than 1e-6.
    """
    n = path.model.dimension
    O = np.eye(n) if path.frames is None else path.frames[0].T @ path.frames[-1]
    drift = np.abs(O.T @ O - np.eye(n)).max()
    if drift > 1e-6:
        raise NumericalAbortError(f"transport orthogonality drift {drift:.2e} exceeds 1e-6")
    return ext.algebra_lift(O), ext.algebra_lift(O.T)


@lru_cache(maxsize=None)
def basis_degrees(n: int) -> np.ndarray:
    """Degree (subset cardinality) of each basis index."""
    ext._check_dimension(n)
    degrees = np.array([bin(s).count("1") for s in range(1 << n)], dtype=np.int64)
    degrees.setflags(write=False)
    return degrees


@lru_cache(maxsize=None)
def wedge_signs(n: int) -> np.ndarray:
    """sign[s, t] of e_s ^ e_t = sign * e_(s|t) for disjoint s, t; 0 where they overlap."""
    idx = np.arange(1 << n)
    s_grid = idx[:, None]
    t_grid = idx[None, :]
    degrees = basis_degrees(n)
    crossings = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for j in range(n):
        crossings += ((t_grid >> j) & 1) * degrees[s_grid >> (j + 1)]
    sign = np.where(crossings % 2 == 0, 1.0, -1.0)
    sign[(s_grid & t_grid) != 0] = 0.0
    sign.setflags(write=False)
    return sign


class MultiVector:
    """Element of Lambda(R^n) with one real coefficient per basis subset."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        ext._check_dimension(n)
        dim = 1 << n
        if coeffs is None:
            c = np.zeros(dim)
        else:
            c = np.array(coeffs, dtype=float)
            if c.shape != (dim,):
                raise DimensionMismatchError(
                    f"coefficients must have length {dim}, got {c.shape}"
                )
        c.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def scalar(cls, n: int, value: float = 1.0) -> "MultiVector":
        c = np.zeros(1 << n)
        c[0] = value
        return cls(n, c)

    @classmethod
    def basis(cls, n: int, indices) -> "MultiVector":
        """Basis form e_{i1} ^ ... ^ e_{ip} for 0-based ascending indices."""
        mask = 0
        prev = -1
        for i in indices:
            if not 0 <= i < n:
                raise DimensionMismatchError(f"basis index {i} out of range for n={n}")
            if i <= prev:
                raise InvariantViolationError("basis indices must be strictly ascending")
            prev = i
            mask |= 1 << i
        c = np.zeros(1 << n)
        c[mask] = 1.0
        return cls(n, c)

    def _require_same(self, other, what):
        if self.n != other.n:
            raise DimensionMismatchError(f"{what} operands have different dimension")

    def wedge(self, other: "MultiVector") -> "MultiVector":
        self._require_same(other, "wedge")
        dim = 1 << self.n
        out = np.zeros(dim)
        idx = np.arange(dim)
        union = idx[:, None] | idx[None, :]
        contrib = wedge_signs(self.n) * np.outer(self.coeffs, other.coeffs)
        np.add.at(out, union.ravel(), contrib.ravel())
        return MultiVector(self.n, out)

    def inner(self, other: "MultiVector") -> float:
        self._require_same(other, "inner-product")
        return float(self.coeffs @ other.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        self._require_same(other, "sum")
        return MultiVector(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._require_same(other, "difference")
        return MultiVector(self.n, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return MultiVector(self.n, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return MultiVector(self.n, -self.coeffs)


def apply(op: ext.GradedOperator, mv: MultiVector) -> MultiVector:
    """The operator applied to the multivector."""
    if mv.n != op.n:
        raise DimensionMismatchError("operator and multivector dimension differ")
    return MultiVector(op.n, op.mat @ mv.coeffs)


def wedge_operator(v) -> ext.GradedOperator:
    """Operator wedging on the left by the vector v."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    create = ext._tables(n)["create"]
    return ext.GradedOperator(n, sum(v[i] * create[i] for i in range(n)))


def contraction_operator(v) -> ext.GradedOperator:
    """Interior product by v; the inner-product adjoint of wedge_operator(v)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    annihilate = ext._tables(n)["annihilate"]
    return ext.GradedOperator(n, sum(v[i] * annihilate[i] for i in range(n)))


def parity(n: int) -> ext.GradedOperator:
    """Grading operator: +1 on even-degree forms, -1 on odd-degree forms."""
    return ext.GradedOperator(n, np.diag(ext.parity_signs(n)))


def boundary_projections(nu):
    """Orthogonal projections (tangential, normal) onto the parts of forms at a unit normal.

    Uses the splitting I = (nu -| nu ^) + (nu ^ -| nu); the first summand is
    the tangential projection.
    """
    nu = np.asarray(nu, dtype=float)
    n = nu.shape[0]
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise InvariantViolationError(
            f"normal vector must be unit length, |nu| = {np.linalg.norm(nu):.15f}"
        )
    pi_tan = contraction_operator(nu) @ wedge_operator(nu)
    return pi_tan, ext.GradedOperator(n, np.eye(1 << n) - pi_tan.mat)


def shape_operator_extension(A, nu) -> ext.GradedOperator:
    """Derivation extension of a shape operator (requires A nu = 0)."""
    A = np.asarray(A, dtype=float)
    nu = np.asarray(nu, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A @ nu).max() > 1e-12 * scale:
        raise InvariantViolationError("shape operator must annihilate the normal vector")
    return ext.derivation_extend(A)


def from_vector(v) -> MultiVector:
    """The vector v as a degree-1 multivector."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    ext._check_dimension(n)
    c = np.zeros(1 << n)
    for i in range(n):
        c[1 << i] = v[i]
    return MultiVector(n, c)


def degree_component(mv: MultiVector, p: int) -> MultiVector:
    """The degree-p part of a multivector."""
    keep = basis_degrees(mv.n) == p
    return MultiVector(mv.n, np.where(keep, mv.coeffs, 0.0))


def degree_block(op: ext.GradedOperator, p: int) -> np.ndarray:
    """The block of an operator's matrix that maps degree p to degree p."""
    idx = np.nonzero(basis_degrees(op.n) == p)[0]
    return op.mat[np.ix_(idx, idx)]


def off_block_norm(op: ext.GradedOperator) -> float:
    """Largest matrix entry connecting different degrees."""
    deg = basis_degrees(op.n)
    mask = deg[:, None] != deg[None, :]
    if not mask.any():
        return 0.0
    return float(np.abs(op.mat[mask]).max(initial=0.0))


def contract(v, a: MultiVector) -> MultiVector:
    """Interior product v -| a (degree-lowering antiderivation)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (a.n,):
        raise DimensionMismatchError("vector and multivector dimension differ")
    return apply(contraction_operator(v), a)


def penalized_shape_extension(A, nu, eps: float) -> ext.GradedOperator:
    """Shape extension plus the normal-projection penalty (1/eps) Pi_nor."""
    if eps <= 0:
        raise InvariantViolationError(f"penalty parameter must be positive, got {eps}")
    da = shape_operator_extension(A, nu)
    _, pi_nor = boundary_projections(nu)
    return ext.GradedOperator(da.n, da.mat + (1.0 / eps) * pi_nor.mat)


def mode_table_dense(dim, radius, x_max_build):
    """The disk (dim 2) or 3-ball mode table from a 0.02 sign scan and full bisection.

    Both run on kernels.bessel.  Each order's scan of R' starts at the
    grid point just below m (disk) or sqrt(l(l+1)) (3-ball); every
    bracket is bisected to full precision.
    """
    spherical = dim == 3
    grid = np.arange(0.2, x_max_build + 0.5, 0.02)
    bracket_orders, bracket_lo = [], []
    for l in range(0, int(x_max_build) + 2):
        nu = math.sqrt(l * (l + 1)) if spherical else l
        start = max(int(np.searchsorted(grid, nu)) - 1, 0)
        sgn = np.sign(hk.bessel(l, grid[start:], spherical)[1])
        flips = start + np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        bracket_orders.append(np.full(flips.size, l))
        bracket_lo.append(flips)
    ls = np.concatenate(bracket_orders)
    flips = np.concatenate(bracket_lo)
    roots = hk._bisect_roots(lambda x: hk.bessel(ls, x, spherical)[1],
                             grid[flips], grid[flips + 1])
    keep = roots <= x_max_build
    ls, roots = ls[keep], roots[keep]
    return ls, roots / radius, hk._mode_weights(dim, radius, ls, roots)


def mode_table_scipy(dim, radius, x_max_build):
    """The disk (dim 2) or 3-ball mode table from scipy.special alone.

    The disk's zeros of J_m' come from jnp_zeros; the 3-ball's from a 0.5
    sign scan of spherical_jn' (from sqrt(l(l+1)) on) and full bisection.
    """
    orders, zeros = [], []
    for l in range(0, int(x_max_build) + 2):
        if dim == 2:
            found = special.jnp_zeros(l, int((x_max_build - l) / math.pi) + 3)
        else:
            grid = np.arange(math.sqrt(l * (l + 1)), x_max_build + 0.5, 0.5)
            sgn = np.sign(special.spherical_jn(l, grid, derivative=True))
            flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
            found = hk._bisect_roots(lambda x, l=l: special.spherical_jn(l, x, derivative=True),
                                     grid[flips], grid[flips + 1])
        found = found[(found <= x_max_build) & (found > 1e-9)]
        if found.size == 0 and l > 0:
            break
        orders.append(np.full(found.size, l))
        zeros.append(found)
    ls = np.concatenate(orders)
    z = np.concatenate(zeros)
    if dim == 2:
        norm = (radius**2 / 2.0) * (1.0 - (ls / z) ** 2) * special.jv(ls, z) ** 2
        weight = np.where(ls == 0, 1.0, 2.0) / (2.0 * math.pi * norm)
    else:
        norm = ((radius**3 / 2.0) * (1.0 - ls * (ls + 1.0) / z**2)
                * special.spherical_jn(ls, z) ** 2)
        weight = (2 * ls + 1) / (4.0 * math.pi * norm)
    return ls, z / radius, weight


def ball_diag_scipy(table, t, dim, radius, volume, rho):
    """K0(t; x, x) at radius rho, summed with scipy.special over a mode table's modes."""
    order, lam, weight = table
    keep = lam * lam * t / 2.0 <= hk._TAIL_LOG
    order, lam, weight = order[keep], lam[keep], weight[keep]
    radial = special.jv(order, lam * rho) if dim == 2 else special.spherical_jn(order, lam * rho)
    base = 1.0 / (math.pi * radius**2) if dim == 2 else 1.0 / volume
    return base + np.sum(weight * np.exp(-lam * lam * t / 2.0) * radial**2)


def pair_kernel(model, t, x, y):
    """The model's Neumann heat kernel K0(t; x_p, y_p) at the point pairs, rows of x and y.

    Flat balls: the interval's image sum, and the disk's and 3-ball's mode
    series with the angular factors cos(m dphi) and P_l(cos gamma).
    Hemispheres: the closed-sphere series plus its mirror image.  Products:
    the product of the factor kernels.  Other caps and balls: the Gaussian
    parametrix with one boundary image, whose value at (x, x) is
    kernels.parametrix's bit for bit, since the distance of x from x is 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if isinstance(model, geo.SphereBall):
        (xs, xb), (ys, yb) = model._split(x), model._split(y)
        gamma = geo._sphere_angle(xs, ys)
        return (hk.sphere_kernel(t, model.sphere_dim, model.sphere_radius, gamma)
                * pair_kernel(model._ball, t, xb, yb))
    if isinstance(model, geo.FlatBall) and model.dimension == 1:
        r = model.radius
        return hk.interval_kernel(t, 2 * r, x[:, 0] + r, y[:, 0] + r)
    if isinstance(model, geo.FlatBall) and model.dimension in (2, 3):
        return ball_pair_series(model, t, x, y)
    if isinstance(model, geo.SphereCap) and model.is_hemisphere:
        n, r = model.dimension, model.radius
        mirror = y.copy()
        mirror[:, model._axis] *= -1.0
        return (hk.sphere_kernel(t, n, r, model.distance(x, y) / r)
                + hk.sphere_kernel(t, n, r, model.distance(x, mirror) / r))
    d, dx, dy = model.distance(x, y), model.boundary_distance(x), model.boundary_distance(y)
    image_sq = np.maximum(d**2 - (dx - dy) ** 2, 0.0) + (dx + dy) ** 2
    pref = (2.0 * math.pi * t) ** (-model.dimension / 2.0)
    return pref * (np.exp(-(d**2) / (2 * t)) + np.exp(-image_sq / (2 * t)))


def ball_pair_series(model, t, x, y):
    """The flat disk's or 3-ball's Neumann mode series at point pairs, on kernels' mode table."""
    dim = model.dimension
    order, lam, coeff = hk._active_modes(hk._ball_modes(dim, model.radius, hk._lambda_max(t)), t)
    order, lam = order[:, None], lam[:, None]
    rho_x, rho_y = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
    if dim == 2:
        base = 1.0 / (math.pi * model.radius**2)
        dphi = np.arctan2(x[:, 1], x[:, 0]) - np.arctan2(y[:, 1], y[:, 0])
        angular = np.cos(order * dphi)
    else:
        base = 1.0 / model.volume
        both = rho_x * rho_y
        cosg = np.clip(np.einsum("pd,pd->p", x, y) / np.where(both == 0.0, 1.0, both), -1.0, 1.0)
        angular = special.eval_legendre(order, np.where(both == 0.0, 1.0, cosg))
    rx = hk.bessel(order, lam * rho_x, dim == 3)[0]
    ry = hk.bessel(order, lam * rho_y, dim == 3)[0]
    # eigen-series noise floor: the density is positive
    return np.maximum(base + np.einsum("k,kp->p", coeff, rx * ry * angular), 0.0)
