"""Dense exterior-algebra calculus on Lambda(R^n).

Multivectors are coefficient arrays of length 2**n indexed by subset
bitmasks (bit i set means the basis vector e_i participates; basis forms
are written with indices ascending, which fixes all signs).  Graded
operators are dense 2**n x 2**n matrices acting on those coefficients.

The module provides the operator constructions used throughout the
package: derivation extensions of endomorphisms, paired extensions of
rank-4 tensors, the curvature operator entering the Weitzenboeck
identity, the supertrace, and the multiplicative ("algebra map") lift of
an n x n matrix.

Everything here supports n <= 8; all experiments live in n <= 4 and the
property tests in n <= 6.  Values are immutable after construction and
safe to share.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError

MAX_DIMENSION = 8

_TABLES: dict[int, dict] = {}


def _check_dimension(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_DIMENSION:
        raise DimensionMismatchError(
            f"dimension must be an integer in [1, {MAX_DIMENSION}], got {n!r}"
        )


def _tables(n: int) -> dict:
    """Cached per-dimension index tables (parity signs, creation and annihilation operators)."""
    _check_dimension(n)
    if n in _TABLES:
        return _TABLES[n]
    dim = 1 << n
    idx = np.arange(dim)
    degrees = np.array([bin(s).count("1") for s in range(dim)], dtype=np.int64)
    parity = np.where(degrees % 2 == 0, 1.0, -1.0)

    # Creation operators: create[i] is "wedge by e_i" on coefficients.
    create = []
    for i in range(n):
        mat = np.zeros((dim, dim))
        free = (idx & (1 << i)) == 0
        src = idx[free]
        dst = src | (1 << i)
        below = degrees[src & ((1 << i) - 1)]
        mat[dst, src] = np.where(below % 2 == 0, 1.0, -1.0)
        mat.setflags(write=False)
        create.append(mat)
    annihilate = [m.T for m in create]

    parity.setflags(write=False)
    table = {
        "parity": parity,
        "create": tuple(create),
        "annihilate": tuple(annihilate),
    }
    _TABLES[n] = table
    return table


def parity_signs(n: int) -> np.ndarray:
    """(-1)**degree per basis index."""
    return _tables(n)["parity"]


def _as_matrix(mat, n=None):
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise DimensionMismatchError(f"expected a {n}x{n} matrix, got {a.shape}")
    return a


class GradedOperator:
    """Linear endomorphism of Lambda(R^n) as a dense 2**n x 2**n matrix."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat):
        _check_dimension(n)
        dim = 1 << n
        m = np.array(mat, dtype=float)
        if m.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator matrix must be {dim}x{dim} for n={n}, got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("GradedOperator is immutable")

    @classmethod
    def identity(cls, n: int) -> "GradedOperator":
        _check_dimension(n)
        return cls(n, np.eye(1 << n))

    def _require_same(self, other):
        if not isinstance(other, GradedOperator) or other.n != self.n:
            raise DimensionMismatchError("operators act on different algebras")

    def __matmul__(self, other):
        self._require_same(other)
        return GradedOperator(self.n, self.mat @ other.mat)

    def power(self, k: int) -> "GradedOperator":
        return GradedOperator(self.n, np.linalg.matrix_power(self.mat, k))

    def supertrace(self) -> float:
        """Alternating sum of degree-block traces: trace composed with parity."""
        return float(parity_signs(self.n) @ np.diag(self.mat))

    def __repr__(self):
        return f"GradedOperator(n={self.n})"


def derivation_extend(B) -> GradedOperator:
    """Extend the endomorphism B of R^n to Lambda(R^n) as a derivation.

    The extension kills scalars, restricts to B on vectors and satisfies
    the Leibniz rule with respect to the wedge product.
    """
    B = _as_matrix(B)
    n = B.shape[0]
    t = _tables(n)
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for i in range(n):
        for j in range(n):
            if B[i, j] != 0.0:
                mat += B[i, j] * (t["create"][i] @ t["annihilate"][j])
    return GradedOperator(n, mat)


def pair_extend(terms) -> GradedOperator:
    """Paired extension sum(w * (-(DT o DU))) over a nonempty list of terms (T, U, w)."""
    n = _as_matrix(terms[0][0]).shape[0]
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for T, U, w in terms:
        T = _as_matrix(T, n)
        U = _as_matrix(U, n)
        mat -= float(w) * (derivation_extend(T).mat @ derivation_extend(U).mat)
    return GradedOperator(n, mat)


def elementary_rotation(n: int, i: int, j: int) -> np.ndarray:
    """Antisymmetric matrix E_ij - E_ji (the 2-form e_i ^ e_j as an operator)."""
    A = np.zeros((n, n))
    A[i, j] = 1.0
    A[j, i] = -1.0
    return A


class CurvatureTensor:
    """Algebraic curvature tensor: components R[i,j,k,l] with the usual symmetries."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components):
        _check_dimension(n)
        comp = np.array(components, dtype=float)
        if comp.shape != (n, n, n, n):
            raise DimensionMismatchError(
                f"curvature components must have shape {(n,) * 4}, got {comp.shape}"
            )
        comp.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "components", comp)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @classmethod
    def zero(cls, n: int) -> "CurvatureTensor":
        return cls(n, np.zeros((n, n, n, n)))

    @classmethod
    def constant_curvature(cls, n: int, kappa: float) -> "CurvatureTensor":
        """Round-space tensor R_ijkl = kappa (d_ik d_jl - d_il d_jk)."""
        eye = np.eye(n)
        comp = kappa * (
            np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
        )
        return cls(n, comp)

    @classmethod
    def from_symmetric_generator(cls, h) -> "CurvatureTensor":
        """Tensor h_ik h_jl - h_il h_jk built from a symmetric matrix h.

        Sums of such tensors span the space of algebraic curvature tensors,
        which makes this the workhorse for randomized property tests.
        """
        h = _as_matrix(h)
        h = 0.5 * (h + h.T)
        comp = np.einsum("ik,jl->ijkl", h, h) - np.einsum("il,jk->ijkl", h, h)
        return cls(h.shape[0], comp)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "CurvatureTensor":
        comp = np.zeros((n, n, n, n))
        for _ in range(3):
            h = rng.standard_normal((n, n))
            comp += cls.from_symmetric_generator(h).components
        return cls(n, comp / math.sqrt(3))

    def validate(self) -> None:
        r = self.components
        scale = max(1.0, float(np.abs(r).max()))
        checks = {
            "antisymmetry in (i,j)": np.abs(r + np.swapaxes(r, 0, 1)).max(),
            "antisymmetry in (k,l)": np.abs(r + np.swapaxes(r, 2, 3)).max(),
            "pair symmetry": np.abs(r - np.transpose(r, (2, 3, 0, 1))).max(),
            "first Bianchi identity": np.abs(
                r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
            ).max(),
        }
        for name, dev in checks.items():
            if dev > 1e-12 * scale:
                raise InvariantViolationError(
                    f"curvature tensor violates {name}: deviation {dev:.3e}"
                )

    def rotate(self, Q) -> "CurvatureTensor":
        """Components in the rotated frame f_a = sum_i Q[i, a] e_i."""
        Q = _as_matrix(Q, self.n)
        comp = np.einsum("ia,jb,kc,ld,ijkl->abcd", Q, Q, Q, Q, self.components, optimize=True)
        return CurvatureTensor(self.n, comp)

    def restrict(self, indices) -> "CurvatureTensor":
        """Restriction to the span of the listed (orthonormal) directions."""
        idx = np.asarray(indices, dtype=int)
        comp = self.components[np.ix_(idx, idx, idx, idx)]
        return CurvatureTensor(len(idx), comp)


def curvature_to_operator(R: CurvatureTensor) -> GradedOperator:
    """Curvature operator on Lambda(R^n) entering the Weitzenboeck identity.

    Built as the paired extension over the 2-form decomposition of R:
    -sum_{i<j,k<l} R_ijkl D(e_i^e_j) o D(e_k^e_l).  The normalization is
    pinned by the round-sphere identity: on the constant-curvature-kappa
    space the degree-p block equals kappa * p * (n - p) * I.
    """
    R.validate()
    n = R.n
    comp = R.components
    dim = 1 << n
    # Cache derivation extensions of the elementary rotations.
    rot_ext = {}
    for i in range(n):
        for j in range(i + 1, n):
            rot_ext[(i, j)] = derivation_extend(elementary_rotation(n, i, j)).mat
    mat = np.zeros((dim, dim))
    for (i, j), dij in rot_ext.items():
        acc = np.zeros((dim, dim))
        any_term = False
        for (k, l), dkl in rot_ext.items():
            w = comp[i, j, k, l]
            if w != 0.0:
                acc += w * dkl
                any_term = True
        if any_term:
            mat -= dij @ acc
    return GradedOperator(n, mat)


def cancellation_battery(dims, instances: int, rng: np.random.Generator) -> list:
    """|Str| of random operator products below top degree, which cancel (Berezin-Patodi).

    For each n in dims, on Lambda(R^m) for m = n (interior) and m = n - 1
    (boundary): ``instances`` products of i paired and j derivation
    extensions of random matrices of unit Frobenius norm, for every
    (i, j) != (0, 0) with 2 i + j < m.
    """
    values = []
    for n in dims:
        for m in (n, n - 1):
            for i in range(0, m // 2 + 1):
                for j in range(0, m - 2 * i):
                    if i == 0 and j == 0:
                        continue
                    for _ in range(instances):
                        op = GradedOperator.identity(m)
                        for _k in range(i):
                            T = rng.standard_normal((m, m))
                            U = rng.standard_normal((m, m))
                            T /= np.linalg.norm(T)
                            U /= np.linalg.norm(U)
                            op = op @ pair_extend([(T, U, 1.0)])
                        for _k in range(j):
                            B = rng.standard_normal((m, m))
                            B = (B - B.T) / np.linalg.norm(B)
                            op = op @ derivation_extend(B)
                        values.append(abs(op.supertrace()))
    return values


def algebra_lift(m) -> GradedOperator:
    """Multiplicative lift of an n x n matrix to Lambda(R^n).

    Sends e_{i1} ^ ... ^ e_{ip} to (m e_{i1}) ^ ... ^ (m e_{ip}); lifts of
    products are products of lifts, and the lift of exp(B) equals the
    exponential of the derivation extension of B.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    dim = 1 << n
    create = _tables(n)["create"]
    # Wedge operators of the matrix columns.
    col_ops = [sum(m[i, j] * create[i] for i in range(n)) for j in range(n)]
    out = np.zeros((dim, dim))
    for s in range(dim):
        vec = np.zeros(dim)
        vec[0] = 1.0
        for j in reversed(range(n)):
            if s >> j & 1:
                vec = col_ops[j] @ vec
        out[:, s] = vec
    return GradedOperator(n, out)


def pfaffian_supertrace(R: CurvatureTensor) -> float:
    """Supertrace of the (n/2)-th power of the curvature operator (n even).

    Up to a dimension-dependent constant this is the generalized
    Kronecker-delta contraction of n/2 curvature factors (the Pfaffian
    form); see delta_contraction for the independent evaluation.
    """
    if R.n % 2 != 0:
        raise DimensionMismatchError("pfaffian supertrace requires even dimension")
    op = curvature_to_operator(R)
    return op.power(R.n // 2).supertrace()


def delta_contraction(R: CurvatureTensor) -> float:
    """Brute-force generalized-delta contraction of n/2 curvature factors.

    Sums sgn(sigma) sgn(tau) R_{s1 s2 t1 t2} ... over both permutations of
    (1..n).  Exponential in n; intended as an oracle for n <= 6.
    """
    if R.n % 2 != 0:
        raise DimensionMismatchError("delta contraction requires even dimension")
    n = R.n
    comp = R.components
    perms = list(itertools.permutations(range(n)))
    signs = []
    for p in perms:
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])
        signs.append(-1.0 if inv % 2 else 1.0)
    total = 0.0
    half = n // 2
    for p, sp in zip(perms, signs):
        for q, sq in zip(perms, signs):
            prod = sp * sq
            for k in range(half):
                prod *= comp[p[2 * k], p[2 * k + 1], q[2 * k], q[2 * k + 1]]
                if prod == 0.0:
                    break
            total += prod
    return total
