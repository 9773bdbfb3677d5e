import numpy as np
import pytest
from scipy.linalg import expm

from gblab import exterior as ext
from gblab.errors import DimensionMismatchError, InvariantViolationError

from oracles import (
    MultiVector,
    apply,
    basis_degrees,
    boundary_projections,
    contract,
    contraction_operator,
    degree_block,
    degree_component,
    from_vector,
    off_block_norm,
    parity,
    penalized_shape_extension,
    shape_operator_extension,
    wedge_operator,
    wedge_signs,
)

ALG_TOL = 1e-12
CANCEL_TOL = 1e-10


def mv_basis(n, *idx):
    return MultiVector.basis(n, idx)


class TestWedge:
    def test_basis_product(self):
        e1 = mv_basis(2, 0)
        e2 = mv_basis(2, 1)
        e12 = mv_basis(2, 0, 1)
        assert np.allclose(e1.wedge(e2).coeffs, e12.coeffs)

    def test_nilpotency(self):
        e1 = mv_basis(3, 0)
        assert e1.wedge(e1).norm() == 0.0

    def test_bilinear_hand_oracle(self):
        # (e1+e2) ^ (e1-e2) = -2 e12, expanded by hand.
        e1 = mv_basis(2, 0)
        e2 = mv_basis(2, 1)
        lhs = (e1 + e2).wedge(e1 - e2)
        assert np.allclose(lhs.coeffs, (-2.0 * mv_basis(2, 0, 1)).coeffs, atol=ALG_TOL)

    def test_graded_anticommutativity(self):
        rng = np.random.default_rng(7)
        n = 4
        deg = basis_degrees(n)
        for s in range(1 << n):
            for t in range(1 << n):
                a = MultiVector(n, np.eye(1 << n)[s])
                b = MultiVector(n, np.eye(1 << n)[t])
                ab = a.wedge(b)
                ba = b.wedge(a)
                sign = (-1.0) ** (deg[s] * deg[t])
                assert np.allclose(ab.coeffs, sign * ba.coeffs, atol=ALG_TOL)
        # and on random elements
        for _ in range(5):
            a = MultiVector(n, rng.standard_normal(1 << n))
            b = MultiVector(n, rng.standard_normal(1 << n))
            c = MultiVector(n, rng.standard_normal(1 << n))
            lhs = a.wedge(b.wedge(c))
            rhs = (a.wedge(b)).wedge(c)
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mv_basis(2, 0).wedge(mv_basis(3, 0))


class TestContraction:
    def test_basis_contraction(self):
        e12 = mv_basis(2, 0, 1)
        out = contract(np.array([1.0, 0.0]), e12)
        assert np.allclose(out.coeffs, mv_basis(2, 1).coeffs)

    def test_absent_index(self):
        e12 = mv_basis(3, 0, 1)
        out = contract(np.array([0.0, 0.0, 1.0]), e12)
        assert out.norm() == 0.0

    def test_adjointness_dense(self):
        rng = np.random.default_rng(11)
        n = 4
        for _ in range(20):
            v = rng.standard_normal(n)
            a = MultiVector(n, rng.standard_normal(1 << n))
            b = MultiVector(n, rng.standard_normal(1 << n))
            lhs = contract(v, a).inner(b)
            rhs = a.inner(apply(wedge_operator(v), b))
            assert abs(lhs - rhs) < ALG_TOL * max(1.0, abs(lhs))

    def test_antiderivation(self):
        rng = np.random.default_rng(3)
        n = 4
        v = rng.standard_normal(n)
        par = parity(n)
        c = contraction_operator(v)
        for _ in range(5):
            a = MultiVector(n, rng.standard_normal(1 << n))
            b = MultiVector(n, rng.standard_normal(1 << n))
            lhs = apply(c, a.wedge(b))
            rhs = apply(c, a).wedge(b) + apply(par, a).wedge(apply(c, b))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


class TestMultiVectorInvariants:
    def test_degree_support(self):
        mv = mv_basis(3, 0, 2)
        comp = degree_component(mv, 2)
        assert np.allclose(comp.coeffs, mv.coeffs)
        assert degree_component(mv, 1).norm() == 0.0

    def test_basis_orthonormality(self):
        n = 3
        for s in range(1 << n):
            for t in range(1 << n):
                a = MultiVector(n, np.eye(1 << n)[s])
                b = MultiVector(n, np.eye(1 << n)[t])
                assert a.inner(b) == (1.0 if s == t else 0.0)

    def test_immutable(self):
        mv = mv_basis(2, 0)
        with pytest.raises(AttributeError):
            mv.n = 3
        with pytest.raises(ValueError):
            mv.coeffs[0] = 1.0


class TestDerivationExtend:
    def test_identity_counts_degree(self):
        n = 3
        db = ext.derivation_extend(np.eye(n))
        for p in range(n + 1):
            block = degree_block(db, p)
            assert np.allclose(block, p * np.eye(block.shape[0]), atol=ALG_TOL)

    def test_diagonal_top_degree(self):
        db = ext.derivation_extend(np.diag([2.0, 5.0]))
        e12 = mv_basis(2, 0, 1)
        out = apply(db, e12)
        assert np.allclose(out.coeffs, 7.0 * e12.coeffs, atol=ALG_TOL)

    def test_restricts_to_matrix_on_vectors(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 4))
        db = ext.derivation_extend(B)
        for k in range(4):
            out = apply(db, from_vector(np.eye(4)[k]))
            assert np.allclose(out.coeffs[[1, 2, 4, 8]], B[:, k], atol=ALG_TOL)
        assert apply(db, MultiVector.scalar(4)).norm() == 0.0

    def test_leibniz_random(self):
        rng = np.random.default_rng(17)
        n = 4
        B = rng.standard_normal((n, n))
        db = ext.derivation_extend(B)
        e1 = from_vector(np.eye(n)[0])
        e2 = from_vector(np.eye(n)[1])
        lhs = apply(db, e1.wedge(e2))
        rhs = apply(db, e1).wedge(e2) + e1.wedge(apply(db, e2))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=ALG_TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_leibniz_exhaustive_operator_identity(self, n):
        # DB(e_s ^ x) = DB(e_s) ^ x + e_s ^ DB(x) as a matrix identity per s
        # covers the Leibniz rule on every pair of basis forms.
        rng = np.random.default_rng(100 + n)
        B = rng.standard_normal((n, n))
        db = ext.derivation_extend(B).mat
        for s in range(1 << n):
            basis_s = np.zeros(1 << n)
            basis_s[s] = 1.0
            wedge_s = ext.algebra_lift(np.eye(n)).mat * 0.0
            wedge_s = _wedge_by_multivector(n, basis_s)
            lhs = db @ wedge_s
            rhs = _wedge_by_multivector(n, db @ basis_s) + wedge_s @ db
            assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_preservation(self, n):
        rng = np.random.default_rng(50 + n)
        db = ext.derivation_extend(rng.standard_normal((n, n)))
        assert off_block_norm(db) <= 1e-14


def _wedge_by_multivector(n, coeffs):
    """Matrix of left-wedging by the multivector with given coefficients."""
    sign = wedge_signs(n)
    dim = 1 << n
    mat = np.zeros((dim, dim))
    idx = np.arange(dim)
    for s in np.nonzero(coeffs)[0]:
        disjoint = (idx & s) == 0
        mat[idx[disjoint] | s, idx[disjoint]] += coeffs[s] * sign[s, idx[disjoint]]
    return mat


class TestPairExtend:
    def test_identity_pair(self):
        n = 2
        ds = ext.pair_extend([(np.eye(n), np.eye(n), 1.0)])
        for p in range(n + 1):
            block = degree_block(ds, p)
            assert np.allclose(block, -(p**2) * np.eye(block.shape[0]), atol=ALG_TOL)

    def test_kills_scalars(self):
        rng = np.random.default_rng(2)
        ds = ext.pair_extend([(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), 1.0)])
        assert apply(ds, MultiVector.scalar(3)).norm() == 0.0

    def test_composition_oracle(self):
        rng = np.random.default_rng(23)
        n = 3
        T = rng.standard_normal((n, n))
        U = rng.standard_normal((n, n))
        ds = ext.pair_extend([(T, U, 1.0)])
        oracle = -(ext.derivation_extend(T).mat @ ext.derivation_extend(U).mat)
        assert np.abs(ds.mat - oracle).max() < ALG_TOL

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_preservation(self, n):
        rng = np.random.default_rng(200 + n)
        ds = ext.pair_extend(
            [(rng.standard_normal((n, n)), rng.standard_normal((n, n)), 0.7),
             (rng.standard_normal((n, n)), rng.standard_normal((n, n)), -1.3)]
        )
        assert off_block_norm(ds) <= 1e-14 * max(1.0, np.abs(ds.mat).max())


class TestCurvatureTensor:
    def test_constant_curvature_validates(self):
        ext.CurvatureTensor.constant_curvature(4, 2.5).validate()

    def test_random_generators_validate(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            ext.CurvatureTensor.random(n, rng).validate()

    def test_bad_tensor_rejected(self):
        comp = np.zeros((2, 2, 2, 2))
        comp[0, 0, 0, 0] = 1.0  # breaks antisymmetry
        with pytest.raises(InvariantViolationError):
            ext.CurvatureTensor(2, comp).validate()

    def test_rotation_preserves_invariants_and_supertrace(self):
        rng = np.random.default_rng(41)
        R = ext.CurvatureTensor.random(4, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        R2 = R.rotate(Q)
        R2.validate()
        s1 = ext.pfaffian_supertrace(R)
        s2 = ext.pfaffian_supertrace(R2)
        assert abs(s1 - s2) < 1e-9 * max(1.0, abs(s1))


class TestCurvatureOperator:
    def test_flat_is_zero(self):
        op = ext.curvature_to_operator(ext.CurvatureTensor.zero(3))
        assert np.linalg.norm(op.mat) == 0.0

    def test_unit_three_sphere_degree_one(self):
        R = ext.CurvatureTensor.constant_curvature(3, 1.0)
        op = ext.curvature_to_operator(R)
        block = degree_block(op, 1)
        assert np.allclose(block, 2.0 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kappa", [1.0, 2.3, -0.7])
    def test_weitzenboeck_convention_lock(self, n, kappa):
        R = ext.CurvatureTensor.constant_curvature(n, kappa)
        op = ext.curvature_to_operator(R)
        for p in range(n + 1):
            block = degree_block(op, p)
            expected = kappa * p * (n - p)
            assert np.abs(block - expected * np.eye(block.shape[0])).max() < 1e-8

    def test_unit_two_sphere_supertrace_vs_delta(self):
        R = ext.CurvatureTensor.constant_curvature(2, 1.0)
        op = ext.curvature_to_operator(R)
        assert np.allclose(degree_block(op, 1), np.eye(2), atol=1e-12)
        # supertrace of DR against the brute-force delta contraction
        assert abs(op.supertrace() / ext.delta_contraction(R) - (-0.5)) < 1e-12

    def test_invalid_tensor_rejected(self):
        comp = np.zeros((2, 2, 2, 2))
        comp[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
        with pytest.raises(InvariantViolationError):
            ext.curvature_to_operator(ext.CurvatureTensor(2, comp))


class TestParitySupertrace:
    def test_identity_supertrace_vanishes(self):
        for n in range(1, 7):
            assert ext.GradedOperator.identity(n).supertrace() == 0.0

    @pytest.mark.parametrize("n", [0, -1, 9, 13, 40, 2.5])
    def test_dimension_checked_before_allocating(self, n, monkeypatch):
        # identity(13) would otherwise fill a 0.5 GB matrix before rejecting n
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before checking the dimension")

        monkeypatch.setattr(np, "eye", forbidden)
        monkeypatch.setattr(np, "zeros", forbidden)
        with pytest.raises(DimensionMismatchError):
            ext.GradedOperator.identity(n)

    def test_battery_rejects_unsupported_dimension(self):
        with pytest.raises(DimensionMismatchError):
            ext.cancellation_battery([40], 1, np.random.default_rng(0))

    def test_parity_squares_to_identity(self):
        for n in range(1, 6):
            eps = parity(n)
            assert np.allclose((eps @ eps).mat, np.eye(1 << n))
            assert eps.supertrace() == float(1 << n)

    def test_low_degree_product_cancellation(self):
        rng = np.random.default_rng(61)
        n = 4
        T = rng.standard_normal((n, n))
        U = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        B = B - B.T
        ds = ext.pair_extend([(T, U, 1.0)])
        db = ext.derivation_extend(B)
        # one paired + one derivation factor: total degree 3 < n = 4
        assert abs((ds @ db).supertrace()) < CANCEL_TOL


class TestBerezinPatodiCancellation:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_interior_variant(self, n):
        rng = np.random.default_rng(71 + n)
        for _ in range(10):
            for i in range(0, n // 2 + 1):
                for j in range(0, n - 2 * i):
                    if i == 0 and j == 0:
                        continue
                    op = ext.GradedOperator.identity(n)
                    for _k in range(i):
                        T = rng.standard_normal((n, n))
                        U = rng.standard_normal((n, n))
                        op = op @ ext.pair_extend([(T, U, 1.0)])
                    for _k in range(j):
                        B = rng.standard_normal((n, n))
                        op = op @ ext.derivation_extend(B - B.T)
                    assert abs(op.supertrace()) < CANCEL_TOL


class TestBoundaryProjections:
    def test_tangential_form_untouched(self):
        n = 3
        nu = np.eye(n)[2]
        pi_tan, pi_nor = boundary_projections(nu)
        omega = mv_basis(n, 0, 1)
        assert apply(pi_nor, omega).norm() < ALG_TOL
        assert np.allclose(apply(pi_tan, omega).coeffs, omega.coeffs, atol=ALG_TOL)

    def test_normal_form_killed_by_tangential(self):
        n = 3
        nu = np.eye(n)[2]
        pi_tan, pi_nor = boundary_projections(nu)
        omega = mv_basis(n, 0, 2)  # e_n ^ e_1 up to sign
        assert apply(pi_tan, omega).norm() < ALG_TOL
        assert np.allclose(apply(pi_nor, omega).coeffs, omega.coeffs, atol=ALG_TOL)

    def test_projection_algebra_random(self):
        rng = np.random.default_rng(83)
        for n in (2, 3, 4, 5, 6):
            nu = rng.standard_normal(n)
            nu /= np.linalg.norm(nu)
            pi_tan, pi_nor = boundary_projections(nu)
            eye = np.eye(1 << n)
            assert np.abs(pi_tan.mat + pi_nor.mat - eye).max() < ALG_TOL
            assert np.abs((pi_tan @ pi_tan).mat - pi_tan.mat).max() < ALG_TOL
            assert np.abs((pi_nor @ pi_nor).mat - pi_nor.mat).max() < ALG_TOL
            assert np.abs((pi_tan @ pi_nor).mat).max() < ALG_TOL
            assert np.abs(pi_tan.mat - pi_tan.mat.T).max() < ALG_TOL

    def test_projection_is_algebra_lift(self):
        rng = np.random.default_rng(89)
        n = 4
        nu = rng.standard_normal(n)
        nu /= np.linalg.norm(nu)
        pi_tan, _ = boundary_projections(nu)
        lift = ext.algebra_lift(np.eye(n) - np.outer(nu, nu))
        assert np.abs(pi_tan.mat - lift.mat).max() < 1e-12

    def test_non_unit_normal_rejected(self):
        with pytest.raises(InvariantViolationError):
            boundary_projections(np.array([1.0, 1.0]))


class TestShapeExtension:
    def test_zero_shape(self):
        nu = np.eye(3)[2]
        da = shape_operator_extension(np.zeros((3, 3)), nu)
        assert np.linalg.norm(da.mat) == 0.0

    def test_unit_circle_shape_on_tangent_line(self):
        # Unit disk, inward normal: the shape operator is +1 on the tangent
        # line, matching geodesic curvature one of the unit circle.
        nu = np.array([0.0, 1.0])
        A = np.diag([1.0, 0.0])
        da = shape_operator_extension(A, nu)
        e1 = mv_basis(2, 0)
        assert np.allclose(apply(da, e1).coeffs, e1.coeffs, atol=ALG_TOL)

    def test_penalized_equals_plain_on_tangential_forms(self):
        rng = np.random.default_rng(97)
        n = 4
        nu = rng.standard_normal(n)
        nu /= np.linalg.norm(nu)
        # random symmetric A with A nu = 0
        M = rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        P = np.eye(n) - np.outer(nu, nu)
        A = P @ M @ P
        da = shape_operator_extension(A, nu)
        da_eps = penalized_shape_extension(A, nu, eps=1e-3)
        pi_tan, _ = boundary_projections(nu)
        omega = apply(pi_tan, MultiVector(n, rng.standard_normal(1 << n)))
        assert np.allclose(apply(da, omega).coeffs, apply(da_eps, omega).coeffs, atol=1e-9)

    def test_nonannihilating_shape_rejected(self):
        nu = np.array([0.0, 1.0])
        with pytest.raises(InvariantViolationError):
            shape_operator_extension(np.eye(2), nu)


class TestAlgebraLift:
    def test_multiplicative(self):
        rng = np.random.default_rng(101)
        n = 3
        m1 = rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n))
        lhs = ext.algebra_lift(m1 @ m2).mat
        rhs = (ext.algebra_lift(m1) @ ext.algebra_lift(m2)).mat
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_exponential_of_derivation(self):
        rng = np.random.default_rng(103)
        n = 3
        B = rng.standard_normal((n, n))
        lhs = ext.algebra_lift(expm(B)).mat
        rhs = expm(ext.derivation_extend(B).mat)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_supertrace_of_lift_is_characteristic_determinant(self):
        rng = np.random.default_rng(107)
        for n in (2, 3, 4):
            m = rng.standard_normal((n, n))
            lift = ext.algebra_lift(m)
            assert abs(lift.supertrace() - np.linalg.det(np.eye(n) - m)) < 1e-10


class TestPfaffianSupertrace:
    def test_flat(self):
        assert ext.pfaffian_supertrace(ext.CurvatureTensor.zero(4)) == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ext.pfaffian_supertrace(ext.CurvatureTensor.zero(3))

    def test_two_dim_ratio(self):
        rng = np.random.default_rng(113)
        ratios = []
        for _ in range(10):
            R = ext.CurvatureTensor.random(2, rng)
            denom = ext.delta_contraction(R)
            if abs(denom) < 1e-9:
                continue
            ratios.append(ext.pfaffian_supertrace(R) / denom)
        ratios = np.array(ratios)
        assert np.abs(ratios - (-0.5)).max() < 1e-10

    def test_four_dim_universal_ratio(self):
        rng = np.random.default_rng(127)
        ratios = []
        for _ in range(20):
            R = ext.CurvatureTensor.random(4, rng)
            denom = ext.delta_contraction(R)
            if abs(denom) < 1e-8:
                continue
            ratios.append(ext.pfaffian_supertrace(R) / denom)
        ratios = np.array(ratios)
        assert len(ratios) >= 15
        cv = ratios.std() / abs(ratios.mean())
        assert cv < 1e-10
