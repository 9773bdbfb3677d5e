"""Reference computations that only the tests use.

The Gauss-equation check of the boundary data; the transport half of the
operator route and the operator-route supertrace of one recorded path;
and exterior-algebra helpers: basis degrees, the interior product of a
vector with a multivector, a vector as a degree-1 multivector, degree
components and degree blocks, and the penalized shape-operator extension.
"""

import numpy as np

from gblab import exterior as ext
from gblab import geometry as geo
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
    by more than 1e-6 (a resample signal).
    """
    n = path.model.dimension
    O = np.eye(n) if path.frames is None else path.frames[0].T @ path.frames[-1]
    drift = np.abs(O.T @ O - np.eye(n)).max()
    if drift > 1e-6:
        raise NumericalAbortError(f"transport orthogonality drift {drift:.2e} exceeds 1e-6")
    return ext.algebra_lift(O), ext.algebra_lift(O.T)


def basis_degrees(n: int) -> np.ndarray:
    """Degree (subset cardinality) of each basis index."""
    return ext._tables(n)["degrees"]


def from_vector(v) -> ext.MultiVector:
    """The vector v as a degree-1 multivector."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    ext._check_dimension(n)
    c = np.zeros(1 << n)
    for i in range(n):
        c[1 << i] = v[i]
    return ext.MultiVector(n, c)


def degree_component(mv: ext.MultiVector, p: int) -> ext.MultiVector:
    """The degree-p part of a multivector."""
    keep = basis_degrees(mv.n) == p
    return ext.MultiVector(mv.n, np.where(keep, mv.coeffs, 0.0))


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


def contract(v, a: ext.MultiVector) -> ext.MultiVector:
    """Interior product v -| a (degree-lowering antiderivation)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (a.n,):
        raise DimensionMismatchError("vector and multivector dimension differ")
    return ext.contraction_operator(v).apply(a)


def penalized_shape_extension(A, nu, eps: float) -> ext.GradedOperator:
    """Shape extension plus the normal-projection penalty (1/eps) Pi_nor."""
    if eps <= 0:
        raise InvariantViolationError(f"penalty parameter must be positive, got {eps}")
    da = ext.shape_operator_extension(A, nu)
    _, pi_nor = ext.boundary_projections(nu)
    return da + (1.0 / eps) * pi_nor
