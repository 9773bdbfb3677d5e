import hashlib
import math

import numpy as np
import pytest

from gblab import geometry as geo
from gblab import kernels as hk
from gblab.errors import ConfigError

import polar_charts
from oracles import gauss_equation_check

RNG = lambda s: np.random.default_rng(s)


def catalog_models():
    return [
        geo.model_catalog("ball", dimension=2, radius=1.0),
        geo.model_catalog("ball", dimension=3, radius=1.0),
        geo.model_catalog("hemisphere", dimension=2),
        geo.model_catalog("hemisphere", dimension=3),
        geo.model_catalog("cap", dimension=2, radius=1.0, aperture=1.0),
        geo.model_catalog("cap", dimension=3, radius=1.0, aperture=0.7),
        geo.model_catalog("cylinder", length=1.0),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
        geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
        geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=2),
        geo.model_catalog("sphere-ball", sphere_dim=3, ball_dim=1),
    ]


class TestCatalog:
    def test_euler_characteristics(self):
        assert geo.model_catalog("ball", dimension=2).euler_characteristic == 1
        assert geo.model_catalog("hemisphere", dimension=2).euler_characteristic == 1
        assert geo.model_catalog("cap", dimension=3, aperture=0.8).euler_characteristic == 1
        assert geo.model_catalog("cylinder").euler_characteristic == 0
        assert geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2).euler_characteristic == 0
        assert geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1).euler_characteristic == 2
        assert geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=2).euler_characteristic == 2

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            geo.model_catalog("torus")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            geo.model_catalog("ball", dimension=2, radius=-1.0)
        with pytest.raises(ConfigError):
            geo.model_catalog("cap", dimension=2, aperture=math.pi)
        with pytest.raises(ConfigError):
            geo.model_catalog("sphere-ball", sphere_dim=3, ball_dim=2)
        with pytest.raises(ConfigError):
            geo.model_catalog("ball", dimension=2, bogus=3)

    @pytest.mark.parametrize("model", catalog_models() + [
        geo.model_catalog("ball", dimension=2, radius=2.5),
        geo.model_catalog("cap", dimension=3, radius=1.5, aperture=0.9),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=3, ball_radius=0.5),
    ], ids=lambda m: repr(m))
    def test_umbilic_boundary(self, model):
        # the shape operator is the umbilic coefficient on the bounded
        # factor's boundary directions and 0 on the other factor's: 1/r on a
        # ball, cot(alpha)/r on a cap (0 on the hemisphere); the cylinder's
        # interval factor has no boundary directions, so its operator is 0
        p = model.params
        expected = {
            "ball": lambda: 1.0 / p["radius"],
            "cap": lambda: 1.0 / math.tan(p["aperture"]) / p["radius"],
            "sphere-ball": lambda: 1.0 / p["ball_radius"],
        }[model.name]()
        assert abs(model.shape_coefficient - expected) < 1e-12
        n, m = model.dimension, model.bounded_factor.dim
        z = model.sample_boundary(RNG(1), 8)
        for point in z:
            A = geo.boundary_geometry(model, point).shape_tangential
            if m == n:
                assert np.allclose(A, model.shape_coefficient * np.eye(n - 1), atol=1e-12)
            else:
                evals = np.sort(np.linalg.eigvalsh(A))
                want = np.sort([0.0] * (n - m) + [model.shape_coefficient] * (m - 1))
                assert np.allclose(evals, want, atol=1e-12)
        # the contact normal is the frame components of collar_data's normal
        # on the bounded columns
        u = model.initial_frames(z)
        nu = model.collar_data(z)[1]
        nu_b = model.boundary_data(u, nu)
        assert np.array_equal(nu_b, model.frame_components(u, nu)[:, model.bounded_factor.cols])


@pytest.mark.parametrize("length, circumference", [(1.0, 2 * math.pi), (1.3, 0.7)])
def test_cylinder_is_circle_times_interval(length, circumference):
    # the cylinder spelling builds the product S^1 x [0, L]: its sizes,
    # Euler characteristic and confinement scale, and a kernel diagonal that
    # is the interval's times the circle's at the interval coordinate + L/2
    model = geo.model_catalog("cylinder", length=length, circumference=circumference)
    assert model.volume == pytest.approx(length * circumference, rel=1e-15)
    assert model.boundary_area == pytest.approx(2 * circumference, rel=1e-15)
    assert model.euler_characteristic == 0
    assert model.confinement_scale() == pytest.approx(min(length, circumference) / 2, rel=1e-15)
    x = np.concatenate([model.sample_volume(RNG(5), 16), model.sample_boundary(RNG(6), 4)])
    s = x[:, -1] + length / 2
    for t in (0.01, 0.1, 1.0):
        ref = hk.interval_kernel(t, length, s, s) * hk.circle_kernel(t, circumference, 0.0)
        diag = hk.heat_kernel_diag(model, t, x)
        assert np.abs(diag / ref - 1.0).max() < 1e-14


def frame_step(model, x, u, xi):
    """A geodesic step along the frame components xi (mapped to walk coordinates)."""
    return model.geodesic_step(x, u, model.frame_vector(u, xi))


class TestGeodesics:
    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_step_distance_consistency(self, model):
        rng = RNG(3)
        x = model.sample_volume(rng, 64)
        u = model.initial_frames(x)
        xi = 0.05 * rng.standard_normal((64, model.dimension))
        x2, u2 = frame_step(model, x, u, xi)
        d = model.distance(x, x2)
        assert np.abs(d - np.linalg.norm(xi, axis=-1)).max() < 1e-8

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_sphere_log_of_short_and_long_steps(self, radius):
        # the log map undoes a great-circle step to rounding at every length;
        # an arccos of x . y / r^2 is 1e-8 off on the short ones
        rng = RNG(5)
        x = radius * geo._unit(rng.standard_normal((60, 3)))
        tangent = rng.standard_normal((60, 3))
        tangent = geo._unit(tangent - x * (geo._rowdot(tangent, x) / radius**2)[:, None])
        lengths = radius * np.geomspace(1e-9, 3.0, 60)
        y, _ = geo._sphere_step(x, None, tangent * lengths[:, None], radius)
        ell = geo._sphere_log(x, y, radius)
        assert np.abs(np.linalg.norm(ell, axis=-1) - lengths).max() <= 1e-14 * radius
        assert np.abs(ell - tangent * lengths[:, None]).max() <= 1e-14 * radius

    @pytest.mark.parametrize("model", [
        geo.model_catalog("hemisphere", dimension=2),
        geo.model_catalog("cap", dimension=2, aperture=1.0),
        geo.model_catalog("cap", dimension=3, aperture=1.0),
        geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
    ], ids=lambda m: repr(m))
    def test_distance_to_itself_is_zero(self, model):
        # the sphere angle 2 atan2(|x - y|, |x + y|) is exactly 0 at x = y,
        # where an arccos of x . y / r^2 leaves up to 3e-8 on a fifth of the points
        x = model.sample_volume(RNG(5), 2000)
        assert np.array_equal(model.distance(x, x), np.zeros(2000))

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_log_inverts_step(self, model):
        # both speak walk coordinates: the log of a step is the step, and its
        # frame components are the frame components the step was built from
        rng = RNG(4)
        x = model.sample_volume(rng, 32)
        u = model.initial_frames(x)
        xi = 0.1 * rng.standard_normal((32, model.dimension))
        v = model.frame_vector(u, xi)
        y, _ = model.geodesic_step(x, u, v)
        back = model.log_frame(x, y)
        assert np.abs(back - v).max() < 1e-8
        assert np.abs(model.frame_components(u, back) - xi).max() < 1e-8

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_frames_stay_orthonormal(self, model):
        if not model.needs_frames:
            pytest.skip("transport is trivial")
        rng = RNG(5)
        x = model.sample_volume(rng, 16)
        u = model.initial_frames(x)
        for _ in range(50):
            xi = 0.05 * rng.standard_normal((16, model.dimension))
            x, u = frame_step(model, x, u, xi)
        gram = np.einsum("pda,pdb->pab", u, u)
        assert np.abs(gram - np.eye(model.dimension)).max() < 1e-10

    def test_sphere_step_against_longdouble(self):
        # from the pole e0 along (e1 + e2) / sqrt 2, frame column e1 gains
        # (cos a - 1) / 2 on e2 and nothing else there; cos a - 1 computed as
        # cos(a) - 1 cancels at small a (its relative error reaches 1 at
        # a = 1e-8), the half-angle form -2 sin^2(a/2) keeps it to rounding
        angles = np.logspace(-8, -1, 400)
        p = np.zeros((angles.size, 3))
        p[:, 0] = 1.0
        u = np.zeros((angles.size, 3, 2))
        u[:, 1, 0] = 1.0
        u[:, 2, 1] = 1.0
        v = np.zeros((angles.size, 3))
        v[:, 1] = v[:, 2] = angles / math.sqrt(2.0)
        p2, u2 = geo._sphere_step(p, u, v, 1.0)
        L = np.longdouble
        a = np.sqrt((v.astype(L) ** 2).sum(axis=1))
        vhat = v.astype(L) / a[:, None]
        cos_m1 = -2.0 * np.sin(a / 2.0) ** 2
        ref_p = (1.0 + cos_m1)[:, None] * p + np.sin(a)[:, None] * vhat
        w = np.einsum("pdk,pd->pk", u.astype(L), vhat)
        ref_u = (u + cos_m1[:, None, None] * vhat[:, :, None] * w[:, None, :]
                 - np.sin(a)[:, None, None] * p[:, :, None] * w[:, None, :])
        assert (np.abs(u2[:, 2, 0] - ref_u[:, 2, 0]) / np.abs(cos_m1)).max() <= 4e-16
        assert np.abs(p2 - ref_p).max() <= 4e-16
        assert np.abs(u2 - ref_u).max() <= 4e-16

    def test_sphere_step_beyond_a_half_turn(self):
        # sin a comes from sin(a/2) and cos(a/2) = sqrt(1 - sin^2(a/2)) up to a
        # half turn; longer steps take their own sine, and every row still
        # lands at (cos a, sin a) with its frame turned by a
        angles = np.array([0.3, 3.0, math.pi, 3.5, 5.0, 2 * math.pi, 7.0])
        p = np.zeros((angles.size, 3))
        p[:, 0] = 2.0
        u = np.zeros((angles.size, 3, 2))
        u[:, 1, 0] = 1.0
        u[:, 2, 1] = 1.0
        v = np.zeros((angles.size, 3))
        v[:, 1] = 2.0 * angles
        p2, u2 = geo._sphere_step(p, u, v, 2.0)
        assert np.abs(p2[:, 0] - 2.0 * np.cos(angles)).max() < 1e-14
        assert np.abs(p2[:, 1] - 2.0 * np.sin(angles)).max() < 1e-14
        assert np.abs(u2[:, 0, 0] + np.sin(angles)).max() < 1e-14
        assert np.abs(u2[:, 1, 0] - np.cos(angles)).max() < 1e-14
        assert np.array_equal(u2[:, :, 1], u[:, :, 1])

    def test_sphere_triangle_holonomy(self):
        # Parallel transport around a geodesic triangle with three right
        # angles on the unit sphere rotates tangent vectors by pi/2
        # (the spherical excess).
        model = geo.model_catalog("hemisphere", dimension=2)
        x = np.array([[0.0, 0.0, 1.0]])  # apex
        u0 = model.initial_frames(x)
        u = u0.copy()
        quarter = math.pi / 2
        steps = 256
        vertices = [
            np.array([[1.0, 0.0, 0.0]]),
            np.array([[0.0, 1.0, 0.0]]),
            np.array([[0.0, 0.0, 1.0]]),
        ]
        for target in vertices:
            for _ in range(steps):
                # re-derive the geodesic direction at the current point
                v = model.log_frame(x, target)
                v *= (quarter / steps) / np.linalg.norm(v, axis=-1, keepdims=True)
                x, u = model.geodesic_step(x, u, v)
            # land exactly on the vertex
            x, u = model.geodesic_step(x, u, model.log_frame(x, target))
        O = np.einsum("pda,pdb->pab", u0, u)[0]
        angle = math.atan2(O[1, 0], O[0, 0])
        assert abs(abs(angle) - math.pi / 2) < 1e-3


SPHERE_MODELS = [
    geo.model_catalog("hemisphere", dimension=2),
    geo.model_catalog("cap", dimension=3, aperture=1.0),
    geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
    geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2, sphere_radius=2.0),
    geo.model_catalog("cylinder", length=1.0),
]
FLAT_MODELS = [
    geo.model_catalog("ball", dimension=2),
    geo.model_catalog("ball", dimension=3, radius=2.0),
]


class TestSimulationValid:
    @staticmethod
    def points(model):
        return np.concatenate([model.sample_volume(RNG(13), 20), model.sample_boundary(RNG(14), 4)])

    @pytest.mark.parametrize("model", SPHERE_MODELS, ids=lambda m: repr(m))
    def test_each_check_fires_on_sphere_factors(self, model):
        x = self.points(model)
        assert model.simulation_valid(x).all()
        cols, radius = model.embedded_spheres[0]
        bad = x.copy()
        bad[0, 0] = np.nan
        bad[1, -1] = np.inf
        bad[2, cols] *= 1.0 + 2e-9  # off the sphere by 2e-9 r
        bad[3, cols] *= 1.0 - 2e-9
        bad[4, cols] *= 1.0 + 5e-10  # within the tolerance
        bad[5, cols] = 0.0  # the centre of the sphere
        assert model.simulation_valid(bad).tolist() == [False] * 4 + [True, False] + [True] * 18
        if model.name == "sphere-ball":
            # the ball factor is free: a state outside the boundary is valid
            far = x.copy()
            far[:, model.sphere_dim + 1:] *= 10.0
            assert model.simulation_valid(far).all()

    @pytest.mark.parametrize("model", FLAT_MODELS, ids=lambda m: repr(m))
    def test_flat_models_check_finiteness_only(self, model):
        assert model.embedded_spheres == ()
        x = self.points(model)
        assert model.simulation_valid(x).all()
        assert model.simulation_valid(10.0 * x).all()  # outside the boundary, still a state
        bad = x.copy()
        bad[0, 0] = np.nan
        bad[1, -1] = -np.inf
        assert model.simulation_valid(bad).tolist() == [False, False] + [True] * 22


class TestBoundary:
    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_distance_zero_on_boundary(self, model):
        rng = RNG(6)
        z = model.sample_boundary(rng, 64)
        assert np.abs(model.boundary_distance(z)).max() < 1e-10

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_reflect_restores_interior(self, model):
        rng = RNG(7)
        z = model.sample_boundary(rng, 32)
        u = model.initial_frames(z)
        nu = model.collar_data(z)[1]
        # push outward through the boundary
        x_out, u_out = model.geodesic_step(z, u, -0.01 * nu)
        d, nu_out = model.collar_data(x_out)
        assert np.all(d < 0)
        assert np.array_equal(d, model.boundary_distance(x_out))
        x_in, _, depth, nu_in = model.reflect(x_out, u_out, d, nu_out)
        assert np.allclose(depth, 0.01, atol=1e-9)
        assert np.allclose(model.boundary_distance(x_in), 0.01, atol=1e-9)
        # reflect returns the boundary data of its images, so no second query runs
        depth_in, nu_query = model.collar_data(x_in)
        assert np.abs(depth - depth_in).max() < 1e-12
        assert np.abs(nu_in - nu_query).max() < 1e-12

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_normal_is_distance_gradient(self, model):
        # directional derivatives of the boundary distance along the frame
        # recover the inward normal's frame components; collar_data's
        # distance is boundary_distance
        rng = RNG(8)
        x = model.sample_collar(rng, 16, 0.2 * min(1.0, model.volume))
        u = model.initial_frames(x)
        d, nu = model.collar_data(x)
        assert np.array_equal(d, model.boundary_distance(x))
        eps = 1e-5
        grad = np.zeros((16, model.dimension))
        for a in range(model.dimension):
            xi = np.zeros((16, model.dimension))
            xi[:, a] = eps
            xp, _ = frame_step(model, x, u, xi)
            xm, _ = frame_step(model, x, u, -xi)
            grad[:, a] = (model.boundary_distance(xp) - model.boundary_distance(xm)) / (2 * eps)
        assert np.abs(grad - model.frame_components(u, nu)).max() < 1e-8

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_boundary_data_unit_normal(self, model):
        rng = RNG(9)
        z = model.sample_boundary(rng, 16)
        u = model.initial_frames(z)
        nu_b = model.boundary_data(u, model.collar_data(z)[1])
        assert np.abs(np.linalg.norm(nu_b, axis=-1) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_interior_point_is_deepest(self, model):
        # no sampled point lies farther from the boundary than interior_point()
        x = model.interior_point()
        assert x.shape == (model.state_dim,)
        deepest = model.boundary_distance(x[None, :])[0]
        assert deepest > 0.0
        samples = model.sample_volume(RNG(12), 4000)
        assert model.boundary_distance(samples).max() <= deepest

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_offset_from_boundary(self, model):
        rng = RNG(10)
        z = model.sample_boundary(rng, 16)
        depth = np.full(16, 0.07)
        x = model.offset_from_boundary(z, depth)
        assert np.abs(model.boundary_distance(x) - 0.07).max() < 1e-10

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_mirror_point_negates_depth(self, model):
        # reflect is the geodesic mirror across the boundary: depth d -> -d
        rng = RNG(11)
        x = model.sample_collar(rng, 16, 0.1)
        d, nu = model.collar_data(x)
        mirrored, _, depth, nu2 = model.reflect(x, model.initial_frames(x), d, nu)
        assert np.abs(depth + d).max() < 1e-9
        assert np.abs(model.boundary_distance(mirrored) + d).max() < 1e-9
        assert np.abs(nu2 - model.collar_data(mirrored)[1]).max() < 1e-12
        # mirroring a boundary point is the identity
        z = model.sample_boundary(rng, 8)
        mirrored, _, depth, nu2 = model.reflect(z, model.initial_frames(z), *model.collar_data(z))
        assert np.abs(mirrored - z).max() < 1e-9
        assert np.abs(depth).max() < 1e-12
        assert np.abs(nu2 - model.collar_data(z)[1]).max() < 1e-12


class TestFlatContactNorm:
    """FlatBall.reflect reads |x| = r - depth, where depth = r - |x| <= 0 on contact rows.

    Up to |x| = 2 r the subtraction r - |x| is exact (Sterbenz's lemma), so
    r - depth is the fresh norm bit for bit; past 2 r (a step longer than
    the radius) they differ by rounding.
    """

    @staticmethod
    def fresh_norm_reflect(model, x, depth):
        """Images, depths and normals of reflect with |x| taken anew from the rows."""
        rho = np.sqrt(geo._rowdot(x, x))
        x2 = geo._scale_columns(x, (model.radius + depth) / rho, np.multiply)
        nu = geo._scale_columns(x, -rho, np.divide)
        return (x2, *geo._mirrored_collar(model.radius, depth, nu))

    @staticmethod
    def rows(rng, dimension, radius, lo, hi, count=200):
        """Rows with lo r <= |x| <= hi r, both ends among them, on an axis and at random."""
        direction = geo._unit(rng.standard_normal((count, dimension)))
        direction[:4] = np.eye(dimension)[0]
        x = direction * (radius * rng.uniform(lo, hi, count))[:, None]
        x[0, 0], x[1, 0] = lo * radius, hi * radius
        rho = np.sqrt(geo._rowdot(x, x))
        return x[(rho >= lo * radius) & (rho <= hi * radius)]

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_exact_within_twice_the_radius(self, dimension):
        rng = RNG(40 + dimension)
        for radius in 10.0 ** rng.uniform(-3.0, 3.0, 25):
            model = geo.FlatBall(dimension, radius)
            x = self.rows(rng, dimension, radius, 1.0, 2.0)
            depth = model.collar_data(x)[0]
            assert np.all(depth <= 0.0)
            x2, _, depth2, nu2 = model.reflect(x, None, depth, None)
            for got, want in zip((x2, depth2, nu2), self.fresh_norm_reflect(model, x, depth)):
                assert np.array_equal(got, want)
            # the images' |x| that FlatBall.bridge_step reads, r minus their
            # depth, is |r + depth| bit for bit
            assert np.array_equal(radius - depth2, np.abs(radius + depth))

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_rounding_past_twice_the_radius(self, dimension):
        rng = RNG(50 + dimension)
        for radius in 10.0 ** rng.uniform(-3.0, 3.0, 25):
            model = geo.FlatBall(dimension, radius)
            x = self.rows(rng, dimension, radius, 2.0, 10.0)
            depth = model.collar_data(x)[0]
            x2, _, depth2, nu2 = model.reflect(x, None, depth, None)
            want_x2, want_depth2, want_nu2 = self.fresh_norm_reflect(model, x, depth)
            assert np.array_equal(depth2, want_depth2)
            np.testing.assert_allclose(x2, want_x2, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(nu2, want_nu2, rtol=1e-15, atol=0.0)


# sample_volume(rng, 7) of the per-model samplers it replaced, at seed 2024:
# (name, params, sha256 of the points' bytes, PCG64 state and has_uint32 after)
VOLUME_SAMPLES = [
    ("ball", {'dimension': 1}, "c6746a93a0931b99759e6346652ce38f9748254c515d218a89d0c69b6bbdd186", 325294137605446664650238027523124685848, 0),
    ("ball", {'dimension': 2}, "86761b10a1ae6a180e48e031230cbcc55e7d8e0103358f4f251d2e28698c8269", 115559893431073921979799044221480519995, 0),
    ("ball", {'dimension': 3}, "8a41f07162a7c68c881a54da4c918287a5a0e031cb2bad21f4acb2fab030e71c", 301464640639880176722514026754898071714, 0),
    ("ball", {'dimension': 4}, "dc2a8421485c08f1f6c0e8b4141125f0d273269eb3e66f0632c4c45f131ecc34", 285428837341284386286164645241248397803, 0),
    ("ball", {'dimension': 2, 'radius': 2.5}, "659c34921293a04e6bfda679750730ebcaf1e70be71f1633b40d580fd54d3b3d", 115559893431073921979799044221480519995, 0),
    ("hemisphere", {'dimension': 2}, "ee6c6a89a2b60208071ddbe348be710db14f6fa9c363498998a829b63fc37f8f", 325294137605446664650238027523124685848, 0),
    ("hemisphere", {'dimension': 3}, "356b1e48791f88b04c1134272b16219261f92eea2ea7dbf6cd7d47176ded3234", 262244773524709030991986015855808125320, 0),
    ("cap", {'dimension': 2, 'aperture': 1.0}, "564444933dcb926fb70463e3ad10b50bd8c8b3a4c892010441240323cb1b1e94", 325294137605446664650238027523124685848, 0),
    ("cap", {'dimension': 2, 'aperture': 2.5}, "d991920ce1f96fd4d5248a8182a42538b34fcddec58881b32ac2e3ee2e7eb985", 325294137605446664650238027523124685848, 0),
    ("cap", {'dimension': 3, 'aperture': 0.7}, "3b8db6d199e3e5da9a570eb8493b3e7f6b72871e4a0372b1cad6bfed6ffc9fb9", 262244773524709030991986015855808125320, 0),
    ("cap", {'dimension': 3, 'radius': 1.5, 'aperture': 0.9}, "4ff15d001a287dbbfe6e6d8b5b2a3f6a227a6c2af22ca93c290fd8154ede4f7a", 262244773524709030991986015855808125320, 0),
    ("sphere-ball", {'sphere_dim': 1, 'ball_dim': 2}, "e8d5fb815934cc23e5d596ea3abacfd11d7c5694e2c4640b7b8ebf6dca110d53", 285428837341284386286164645241248397803, 0),
    ("sphere-ball", {'sphere_dim': 1, 'ball_dim': 3, 'ball_radius': 0.5}, "75d00ef850c09158bc4481e5a52a85daf286225a6f07fc44c21540a5f0de5276", 315165607182331462703494434781461463954, 0),
    ("sphere-ball", {'sphere_dim': 2, 'ball_dim': 1}, "86b0f09a602c078b869507efc5e7d8d82e521bb6e20584b810c3d28f1369db2a", 285428837341284386286164645241248397803, 0),
    ("sphere-ball", {'sphere_dim': 2, 'ball_dim': 2}, "0430c5b48979efded34bb0fd082db5fccc47601f1a57fe5ad3675b8c786627a3", 315165607182331462703494434781461463954, 0),
    ("sphere-ball", {'sphere_dim': 3, 'ball_dim': 1}, "efcd7cdfac3ad842b6012a8916557eb50f36ceb6e2dc05967caae0299993248c", 315165607182331462703494434781461463954, 0),
]


class TestDerivedHooks:
    """The invariants behind the samplers ManifoldModel derives from sample_collar."""

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_infinite_collar_is_the_volume(self, model):
        assert model.collar_volume(math.inf) == model.volume

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_zero_width_collar_lies_on_the_boundary(self, model):
        z = model.sample_collar(RNG(5), 64, 0.0)
        assert np.abs(model.boundary_distance(z)).max() <= 1e-12
        assert model.simulation_valid(z).all()

    @pytest.mark.parametrize("name, params, digest, state, has_uint32", VOLUME_SAMPLES,
                             ids=lambda v: str(v)[:40])
    def test_volume_samples_are_the_per_model_ones(self, name, params, digest, state, has_uint32):
        rng = RNG(2024)
        x = geo.model_catalog(name, **params).sample_volume(rng, 7)
        assert hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest() == digest
        after = rng.bit_generator.state
        assert (after["state"]["state"], after["has_uint32"]) == (state, has_uint32)


class TestGaussEquation:
    def test_flat_ball_three(self):
        assert gauss_equation_check(geo.model_catalog("ball", dimension=3)) < 1e-10

    def test_hemisphere_three(self):
        assert gauss_equation_check(geo.model_catalog("hemisphere", dimension=3)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    def test_cap_three(self, alpha):
        model = geo.model_catalog("cap", dimension=3, aperture=alpha)
        assert gauss_equation_check(model) < 1e-10

    def test_products(self):
        for l, m in [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            model = geo.model_catalog("sphere-ball", sphere_dim=l, ball_dim=m)
            if model.dimension < 3:
                continue
            assert gauss_equation_check(model) < 1e-10

    def test_two_dim_is_trivial(self):
        assert gauss_equation_check(geo.model_catalog("ball", dimension=2)) == 0.0


class TestInvariants:
    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_metric_spd_everywhere(self, model):
        rng = RNG(11)
        x = model.sample_volume(rng, 1000)
        c = polar_charts.chart(model, x[polar_charts.valid(model, x)])
        g = polar_charts.metric(model, c)
        evals = np.linalg.eigvalsh(g)
        assert evals.min() > 0.0
        # and it is the metric that the embedding induces: J^T J
        eps = 1e-6
        jac = np.zeros((c.shape[0], model.state_dim, model.dimension))
        for k in range(model.dimension):
            cp = c.copy()
            cm = c.copy()
            cp[:, k] += eps
            cm[:, k] -= eps
            diff = polar_charts.chart_point(model, cp) - polar_charts.chart_point(model, cm)
            jac[:, :, k] = diff / (2 * eps)
        assert np.abs(np.einsum("pdi,pdj->pij", jac, jac) - g).max() < 1e-7

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_frame_curvature_valid(self, model):
        model.frame_curvature().validate()

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_chart_roundtrip(self, model):
        rng = RNG(12)
        x = model.sample_volume(rng, 128)
        x = x[polar_charts.valid(model, x)]
        back = polar_charts.chart_point(model, polar_charts.chart(model, x))
        assert np.abs(back - x).max() < 1e-9

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_shell_jacobian_is_the_collar_volume_derivative(self, model):
        # a central difference of collar_volume over the boundary area, at
        # depths across [0, 0.9] confinement scales
        depths = np.linspace(0.0, 0.9, 7) * model.confinement_scale()
        h = 1e-5 * model.confinement_scale()
        jac = model.shell_jacobian(depths)
        assert jac[0] == pytest.approx(1.0, rel=1e-14)
        for d, j in zip(depths[1:], jac[1:]):
            slope = (model.collar_volume(d + h) - model.collar_volume(d - h)) / (2 * h)
            assert j == pytest.approx(slope / model.boundary_area, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_collar_sampler_in_range(self, model):
        rng = RNG(13)
        width = 0.15
        x = model.sample_collar(rng, 512, width)
        d = model.boundary_distance(x)
        assert np.all(d >= -1e-12)
        assert np.all(d <= width + 1e-9)
        frac = model.collar_volume(width) / model.volume
        assert 0.0 < frac <= 1.0

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: repr(m))
    def test_sampler_mean_depth_matches_volume(self, model):
        # mean boundary distance under the uniform sampler agrees with the
        # quadrature of the distance over the model (moment check, 4 sigma)
        rng = RNG(14)
        m = 40_000
        x = model.sample_volume(rng, m)
        d = model.boundary_distance(x)
        # compare uniform-sampler collar mass with the exact collar volume
        w = 0.2
        frac_hat = float(np.mean(d <= w))
        frac = model.collar_volume(w) / model.volume
        se = math.sqrt(frac * (1 - frac) / m)
        assert abs(frac_hat - frac) < 4 * se + 1e-12


class TestChartConsistency:
    @pytest.mark.parametrize(
        "model",
        [
            geo.model_catalog("cap", dimension=2, aperture=1.2),
            geo.model_catalog("cap", dimension=3, aperture=1.0),
            geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
        ],
        ids=lambda m: repr(m),
    )
    def test_christoffel_matches_metric_derivatives(self, model):
        rng = RNG(15)
        x = model.sample_volume(rng, 8)
        c = polar_charts.chart(model, x)
        # keep away from coordinate degeneracies
        c[:, 0] = np.clip(c[:, 0], 0.3, None)
        if model.dimension >= 3:
            c[:, 1] = np.clip(c[:, 1], 0.4, math.pi - 0.4)
        n = model.dimension
        eps = 1e-6
        dg = np.zeros((8, n, n, n))
        for k in range(n):
            cp = c.copy()
            cm = c.copy()
            cp[:, k] += eps
            cm[:, k] -= eps
            dg[..., k] = (polar_charts.metric(model, cp) - polar_charts.metric(model, cm)) / (2 * eps)
        g = polar_charts.metric(model, c)
        ginv = np.linalg.inv(g)
        gamma_fd = np.zeros((8, n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    term = 0.0
                    for l in range(n):
                        term = term + ginv[:, k, l] * (
                            dg[:, j, l, i] + dg[:, i, l, j] - dg[:, i, j, l]
                        )
                    gamma_fd[:, k, i, j] = 0.5 * term
        gamma = polar_charts.christoffel(model, c)
        assert np.abs(gamma - gamma_fd).max() < 1e-5

    def test_chart_curvature_matches_frame_curvature(self):
        self.check_chart_curvature(geo.model_catalog("cap", dimension=2, aperture=1.3))

    @pytest.mark.parametrize(
        "model",
        [
            geo.model_catalog("cap", dimension=3, radius=2.0, aperture=1.0),
            geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
            geo.model_catalog("sphere-ball", sphere_dim=3, ball_dim=1, sphere_radius=1.5),
        ],
        ids=lambda m: repr(m),
    )
    def test_chart_curvature_matches_frame_curvature_in_higher_dimensions(self, model):
        self.check_chart_curvature(model)

    @staticmethod
    def check_chart_curvature(model):
        # finite-difference curvature of the polar chart: the sectional
        # curvature of every coordinate plane equals the model's frame
        # curvature on the matching frame plane (sphere block first)
        n = model.dimension
        c = np.array([[0.9, 1.1, 0.4, 0.2][:n]])
        eps = 1e-5

        def gamma_at(cc):
            return polar_charts.christoffel(model, cc)[0]

        dgamma = np.zeros((n, n, n, n))  # index [i, k, j, l] = d_i Gamma^k_{jl}
        for i in range(n):
            cp = c.copy()
            cm = c.copy()
            cp[:, i] += eps
            cm[:, i] -= eps
            dgamma[i] = (gamma_at(cp) - gamma_at(cm)) / (2 * eps)
        gam = gamma_at(c)
        # R^k_{lij} = d_i Gamma^k_{jl} - d_j Gamma^k_{il} + G^k_{ia}G^a_{jl} - G^k_{ja}G^a_{il}
        riem = np.zeros((n, n, n, n))
        for k in range(n):
            for l in range(n):
                for i in range(n):
                    for j in range(n):
                        val = dgamma[i, k, j, l] - dgamma[j, k, i, l]
                        for a in range(n):
                            val += gam[k, i, a] * gam[a, j, l] - gam[k, j, a] * gam[a, i, l]
                        riem[k, l, i, j] = val
        g = polar_charts.metric(model, c)[0]
        frame = model.frame_curvature().components
        for i in range(n):
            for j in range(i + 1, n):
                sectional = g[i] @ riem[:, j, i, j] / (g[i, i] * g[j, j])
                assert abs(sectional - frame[i, j, i, j]) < 1e-4, (i, j)


class TestBoundaryGeometryType:
    def test_fields(self):
        model = geo.model_catalog("ball", dimension=3)
        bg = geo.boundary_geometry(model, model.boundary_point())
        assert np.allclose(bg.shape_tangential, np.eye(2), atol=1e-12)
        bg.gauss_form.validate()
        bg.induced_curvature.validate()

    def test_cap_shape_value(self):
        alpha = 0.8
        model = geo.model_catalog("cap", dimension=3, aperture=alpha)
        bg = geo.boundary_geometry(model, model.boundary_point())
        assert np.allclose(bg.shape_tangential, math.cos(alpha) / math.sin(alpha) * np.eye(2), atol=1e-10)


# ---------------------------------------------------------------------------
# columnwise hot path against the broadcast formulas it replaced
# ---------------------------------------------------------------------------


def broadcast_sphere_step(p, u, v_amb, r):
    """Reference: great-circle step and transport with (P, d, k) broadcasts."""
    s = np.sqrt(geo._rowdot(v_amb, v_amb))
    vhat = v_amb / np.maximum(s, 1e-300)[:, None]
    phat = p / r
    c = np.cos(s / r)[:, None]
    si = np.sin(s / r)[:, None]
    p2 = c * p + si * r * vhat
    p2 *= r / np.sqrt(geo._rowdot(p2, p2))[:, None]
    if u is None:
        return p2, None
    wv = np.einsum("pdk,pd->pk", u, vhat)
    u2 = u + vhat[:, :, None] * ((c - 1.0) * wv)[:, None, :] - phat[:, :, None] * (si * wv)[:, None, :]
    return p2, u2


def _unit_or_zero(x):
    """Reference: rows of x over their norms, 0 for a zero row."""
    norm = np.sqrt(geo._rowdot(x, x))[..., None]
    return x / np.maximum(norm, 1e-300)


def colatitude(model, x):
    """Reference: colatitude of embedded cap points, from 0 at the apex."""
    return np.arccos(np.minimum(np.maximum(x[..., model._axis] / model.radius, -1.0), 1.0))


def broadcast_meridian_at(model, x, theta):
    """Reference: unit tangent toward increasing colatitude on a cap."""
    axis_part = np.zeros_like(x)
    axis_part[..., model._axis] = 1.0
    horiz = x.copy()
    horiz[..., model._axis] = 0.0
    ehat = _unit_or_zero(horiz)
    return np.cos(theta)[..., None] * ehat - np.sin(theta)[..., None] * axis_part


def broadcast_frame_components(u, v_amb):
    """Reference: frame components by einsum."""
    return np.einsum("pdk,pd->pk", u, v_amb)


def broadcast_orthonormalize(frames):
    """Reference: modified Gram-Schmidt with einsum, norm and broadcasts."""
    out = frames.copy()
    k = out.shape[2]
    for a in range(k):
        v = out[:, :, a]
        for b in range(a):
            proj = np.einsum("pd,pd->p", v, out[:, :, b])
            v = v - proj[:, None] * out[:, :, b]
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        out[:, :, a] = v / np.where(norm == 0.0, 1.0, norm)
    return out


def broadcast_sphere_log(x, y, r):
    xy = geo._rowdot(x, y)
    perp = y - (xy / r**2)[:, None] * x
    angle = np.arctan2(np.linalg.norm(perp, axis=-1), xy / r)
    return (r * angle)[:, None] * _unit_or_zero(perp)


COLUMNWISE_TOL = 1e-15


def sphere_factor_cases():
    """(name, points, frames, radius, cap model or None) on the sphere factors the
    stepping path moves: cap dimension 2, cap dimension 3 with aperture 1.0, and
    the sphere factor of sphere-ball (2 + 1).  Each batch includes the apex."""
    rng = RNG(41)
    cases = []
    for name, model in [("cap2", geo.model_catalog("hemisphere", dimension=2)),
                        ("cap3", geo.model_catalog("cap", dimension=3, aperture=1.0))]:
        x = np.concatenate([model.sample_volume(rng, 200), model.sample_collar(rng, 100, 0.1),
                            model.interior_point()[None, :].repeat(4, axis=0)])
        cases.append((name, x, model.initial_frames(x), model.radius, model))
    model = geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1)
    x = model.sample_volume(rng, 300)
    x[:4, :3] = [0.0, 0.0, 1.0]
    u = model.initial_frames(x)
    cases.append(("sphere-ball", x[:, :3], u[:, :3, :2], model.sphere_radius, None))
    return cases


SPHERE_CASES = sphere_factor_cases()


def _close(new, old):
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= COLUMNWISE_TOL


class TestColumnwiseAgainstBroadcast:
    @pytest.mark.parametrize("case", SPHERE_CASES, ids=lambda c: c[0])
    def test_sphere_step(self, case):
        _, x, u, r, _ = case
        rng = RNG(42)
        xi = 0.1 * rng.standard_normal((x.shape[0], u.shape[2]))
        xi[:10] = 0.0  # zero steps, the apex among them
        v = broadcast_frame_components(np.transpose(u, (0, 2, 1)), xi)
        _close(geo.SphereCap(2).frame_vector(u, xi), v)
        for frames in (u, None):
            p_new, u_new = geo._sphere_step(x, frames, v, r)
            p_old, u_old = broadcast_sphere_step(x, frames, v, r)
            _close(p_new, p_old)
            if frames is None:
                assert u_new is None
            else:
                _close(u_new, u_old)
        # a zero step leaves points and frames where they were
        p0, u0 = geo._sphere_step(x[:10], u[:10], np.zeros((10, x.shape[1])), r)
        assert np.array_equal(p0, x[:10])
        assert np.array_equal(u0, u[:10])

    @pytest.mark.parametrize("case", SPHERE_CASES, ids=lambda c: c[0])
    def test_frame_components_and_log(self, case):
        _, x, u, r, _ = case
        rng = RNG(43)
        y = x[rng.permutation(x.shape[0])]
        y[:4] = x[:4]  # log of the point itself
        v = geo._sphere_log(x, y, r)
        _close(v, broadcast_sphere_log(x, y, r))
        model = geo.model_catalog("hemisphere", dimension=2)
        _close(model.frame_components(u, v), broadcast_frame_components(u, v))
        assert model.frame_components(None, v) is v
        assert model.frame_vector(None, v) is v

    @pytest.mark.parametrize("case", [c for c in SPHERE_CASES if c[4] is not None], ids=lambda c: c[0])
    def test_meridian_and_cap_methods(self, case):
        _, x, u, r, model = case
        theta = colatitude(model, x)
        # the normal is minus the meridian, in embedding coordinates
        d, nu = model.collar_data(x)
        _close(nu, -broadcast_meridian_at(model, x, theta))
        assert np.array_equal(d, model.boundary_distance(x))
        # at the apex the horizontal part is zero and the meridian is -sin(0) e_axis = 0
        assert np.array_equal(nu[-4:], np.zeros((4, x.shape[1])))
        nu_old = broadcast_frame_components(u, -broadcast_meridian_at(model, x, theta))
        nu_b = model.boundary_data(u[:-4], nu[:-4])
        _close(nu_b, geo._unit(nu_old[:-4]))
        # reflect: a point pushed past the boundary steps back along the meridian
        z = model.sample_boundary(RNG(44), 50)
        uz = model.initial_frames(z)
        out, u_out = broadcast_sphere_step(z, uz, -0.01 * broadcast_meridian_at(model, z, colatitude(model, z)), r)
        x2, u2, depth, _ = model.reflect(out, u_out, *model.collar_data(out))
        theta_out = colatitude(model, out)
        depth_old = r * (theta_out - model.aperture)
        x_old, u_old = broadcast_sphere_step(
            out, u_out, -2.0 * depth_old[:, None] * broadcast_meridian_at(model, out, theta_out), r)
        _close(depth, depth_old)
        _close(x2, x_old)
        _close(u2, u_old)

    @pytest.mark.parametrize("dimension, aperture", [(2, math.pi / 2), (3, 1.0), (3, 2.0)])
    def test_trig_free_meridian_at_radius(self, dimension, aperture):
        # cos and sin of the colatitude come from the coordinates, not from trig
        model = geo.SphereCap(dimension, radius=2.5, aperture=aperture)
        rng = RNG(47)
        x = np.concatenate([model.sample_volume(rng, 200), model.sample_boundary(rng, 50),
                            model.boundary_point()[None, :], model.interior_point()[None, :]])
        nu = model.collar_data(x)[1]
        _close(nu, -broadcast_meridian_at(model, x, colatitude(model, x)))
        assert np.array_equal(nu[-1], np.zeros(x.shape[1]))  # the apex

    @pytest.mark.parametrize("case", SPHERE_CASES, ids=lambda c: c[0])
    def test_orthonormalize(self, case):
        from gblab.stochastic import _orthonormalize

        _, _, u, _, _ = case
        rng = RNG(45)
        frames = u + 1e-3 * rng.standard_normal(u.shape)
        frames[:5, :, 0] = 0.0  # a zero first column stays zero
        frames[5:10, :, -1] = 0.0  # and so does a zero last column
        new = _orthonormalize(frames)
        _close(new, broadcast_orthonormalize(frames))
        assert np.array_equal(new[:5, :, 0], np.zeros((5, u.shape[1])))
        assert new is not frames and not np.shares_memory(new, frames)

    def test_sphere_ball_factor(self):
        model = geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1)
        rng = RNG(46)
        x = model.sample_volume(rng, 200)
        u = model.initial_frames(x)
        xi = 0.1 * rng.standard_normal((200, 3))
        v = model.frame_vector(u, xi)
        # the walk coordinates are the sphere's embedding coordinates and the ball's
        assert np.array_equal(v[:, 3:], xi[:, 2:])
        x2, u2 = model.geodesic_step(x, u, v)
        us = u[:, :3, :2]
        ps_old, us_old = broadcast_sphere_step(x[:, :3], us, np.einsum("pdk,pk->pd", us, xi[:, :2]), 1.0)
        _close(x2[:, :3], ps_old)
        _close(u2[:, :3, :2], us_old)
        assert np.array_equal(x2[:, 3:], x[:, 3:] + xi[:, 2:])
        # the ball block and the zero blocks of the frame carry over unchanged
        assert np.array_equal(u2[:, 3:], u[:, 3:])
        assert np.array_equal(u2[:, :3, 2:], u[:, :3, 2:])
        y = model.sample_volume(rng, 200)
        ell = model.log_frame(x, y)
        _close(ell[:, :3], broadcast_sphere_log(x[:, :3], y[:, :3], 1.0))
        assert np.array_equal(ell[:, 3:], y[:, 3:] - x[:, 3:])
