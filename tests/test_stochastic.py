import dataclasses
import math

import numpy as np
import pytest

from gblab import exterior as ext
from gblab import geometry as geo
from gblab import noise
from gblab import stochastic as st
from gblab.errors import NumericalAbortError

from oracles import boundary_projections, evolve_transport, pair_kernel, path_supertrace


F32_EPS = float(np.finfo(np.float32).eps)  # the ulp of 1 in float32, a flat walk's precision


@pytest.fixture
def float64_walks(monkeypatch):
    """Flat balls walk in float64: for the tests of the step arithmetic, to 1e-12."""
    monkeypatch.setattr(geo.FlatBall, "walk_precision", lambda self, h: np.float64)


def disk():
    return geo.model_catalog("ball", dimension=2)


def ball3():
    return geo.model_catalog("ball", dimension=3)


def hemisphere():
    return geo.model_catalog("hemisphere", dimension=2)


class TestRngStream:
    def test_bit_exact_reproducibility(self):
        a = st.RngStream(seed=123, stream=7).generator().standard_normal(100)
        b = st.RngStream(seed=123, stream=7).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = st.RngStream(seed=123, stream=0).generator().standard_normal(100)
        b = st.RngStream(seed=123, stream=1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_counter_starts_at_zero(self):
        # (seed, stream) keys the generator, and Philox's counter starts at 0
        s = st.RngStream(seed=9, stream=2)
        key = np.array([9, 2], dtype=np.uint64)
        zero = np.random.Philox(counter=np.zeros(4, dtype=np.uint64), key=key)
        assert np.array_equal(s.generator().standard_normal(8),
                              np.random.Generator(zero).standard_normal(8))

    def test_path_reproducibility(self):
        model = disk()
        x0 = np.array([0.8, 0.0])
        p1 = st.simulate_path(model, x0, 0.05, 60, st.RngStream(5, 1), pinned=True)
        p2 = st.simulate_path(model, x0, 0.05, 60, st.RngStream(5, 1), pinned=True)
        assert np.array_equal(p1.positions, p2.positions)
        assert np.array_equal(p1.lam, p2.lam)
        assert np.array_equal(p1.dlam, p2.dlam)


class TestReflectedWalk:
    def test_flat_mean_square_displacement(self):
        # Brownian scaling E|x_t - x_0|^2 = n t before the boundary is felt;
        # 40 000 walks step as several row tiles
        model = ball3()
        t, steps, P = 0.01, 100, 40_000
        starts = np.zeros((P, 3))
        x = np.empty_like(starts)

        def record_ends(k, rows, state, info):
            if k == steps - 1:
                x[rows] = state.x

        batch = st.simulate_bridges(model, starts, t, steps, st.RngStream(11), pinned=False,
                                    on_step=record_ends)
        assert len(st._row_tiles(P)) > 1
        assert batch.contacts.max() == 0
        msd = np.einsum("pd,pd->p", x, x)
        se = msd.std() / math.sqrt(P)
        assert abs(msd.mean() - 3 * t) < 3 * se

    def test_path_sample_local_time_invariants(self):
        # recorded trajectories: lam nondecreasing and increments flagged
        model = disk()
        anchor = np.array([1.0, 0.0])
        path = st.simulate_path(model, anchor, 0.05, 150, st.RngStream(211), pinned=True)
        dlam = np.diff(path.lam)
        assert np.all(dlam >= -1e-15)
        assert np.all(dlam[~path.contact] == 0.0)
        assert path.contact.sum() > 0
        grew = dlam > 0
        assert np.all(path.contact[grew])

    def test_local_time_monotone_and_interior_flat(self):
        model = disk()
        starts = np.broadcast_to(np.array([0.97, 0.0]), (200, 2)).copy()
        prev = np.zeros(200)
        interior_dlam = []

        def check(k, rows, state, info):
            assert np.all(state.lam >= prev[rows] - 1e-15)
            interior = np.ones(len(state.lam), dtype=bool)
            interior[info.idx] = False
            interior_dlam.append(np.abs(state.lam[interior] - prev[rows][interior]).sum())
            prev[rows] = state.lam

        batch = st.simulate_bridges(model, starts, 0.02, 200, st.RngStream(13), pinned=False,
                                    on_step=check)
        assert len(interior_dlam) == 200 and sum(interior_dlam) == 0.0
        assert batch.contacts.sum() > 0

    def test_local_time_level_matches_half_space_law(self):
        # straight boundary: E[lam_t] from a boundary start must match the
        # half-line value sqrt(2 t / pi); this pins the factor two in the
        # Skorokhod increment (penetration depth alone gives half of it);
        # the starts lie on the end circle at interval coordinate -L/2
        model = geo.model_catalog("cylinder", length=4.0)
        t, steps, P = 0.04, 2000, 20_000
        starts = np.tile([math.cos(1.0), math.sin(1.0), -2.0], (P, 1))
        batch = st.simulate_bridges(model, starts, t, steps, st.RngStream(17), pinned=False)
        target = math.sqrt(2 * t / math.pi)
        ratio = batch.lam.mean() / target
        assert abs(ratio - 1.0) < 0.06

    def test_interior_start_rarely_touches(self):
        model = disk()
        d = 0.5
        t = d * d / 100.0
        starts = np.broadcast_to(np.array([1.0 - d, 0.0]), (5000, 2)).copy()
        batch = st.simulate_bridges(model, starts, t, 50, st.RngStream(23), pinned=False)
        assert (batch.contacts > 0).mean() < 0.01


class TestBridge:
    def test_flat_endpoint_snaps_to_anchor(self):
        model = disk()
        anchor = np.array([0.3, -0.2])
        path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(29), pinned=True)
        # a float32 walk: the anchor rounds by half an ulp of |a| <= r, and the snap
        # x + (a - x) by at most 1.5 ulps of r, since |x| and |a - x| stay below 2 r
        assert np.abs(path.positions[-1] - anchor).max() <= 2 * F32_EPS * model.radius

    def test_sphere_endpoint_snaps_to_anchor(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(31), pinned=True)
        assert np.abs(path.positions[-1] - anchor).max() < 1e-9

    def test_bridge_displacement_bound(self):
        # E d(x, x_s)^2 <= C s along the loop
        model = disk()
        anchor = np.array([0.5, 0.0])
        anchors = np.broadcast_to(anchor, (2000, 2)).copy()
        _, positions = single_batch_bridges(model, anchors, 0.08, 100, st.RngStream(37))
        times = np.linspace(0, 0.08, 101)
        for k in range(1, 101):
            d2 = ((positions[k] - anchor) ** 2).sum(axis=1).mean()
            assert d2 <= 4.0 * model.dimension * times[k] + 1e-9

    def test_drift_magnitude_bound_against_exact_kernel(self):
        # the exact disk kernel satisfies |grad log K0| <= C (d/s + 1/sqrt(s));
        # the simulation surrogate obeys the same envelope
        model = disk()
        rng = np.random.default_rng(41)
        worst_exact = 0.0
        worst_surrogate = 0.0
        for _ in range(40):
            s = rng.uniform(0.02, 0.3)
            z = model.sample_volume(rng, 1)
            x = model.sample_volume(rng, 1)
            if np.linalg.norm(z - x) < 0.05:
                continue
            eps = 1e-5
            grad = np.zeros(2)
            for a in range(2):
                zp = z.copy()
                zm = z.copy()
                zp[0, a] += eps
                zm[0, a] -= eps
                if model.boundary_distance(zp)[0] < 0 or model.boundary_distance(zm)[0] < 0:
                    break
                kp = pair_kernel(model, s, zp, x)[0]
                km = pair_kernel(model, s, zm, x)[0]
                grad[a] = (math.log(kp) - math.log(km)) / (2 * eps)
            else:
                bound = model.distance(z, x)[0] / s + 1.0 / math.sqrt(s)
                worst_exact = max(worst_exact, np.linalg.norm(grad) / bound)
                state = st.make_walk_state(model, z)
                g = st.bridge_drift(model, state, x, s, d_anchor=model.boundary_distance(x))
                worst_surrogate = max(worst_surrogate, np.linalg.norm(g[0]) / bound)
        assert 0 < worst_exact < 4.0
        assert 0 < worst_surrogate < 4.0

    def test_reflected_drift_matches_exact_kernel_gradient(self):
        # value-level cross-validation on the disk in the regime the bridge
        # actually operates in (separation up to a few diffusion lengths):
        # the two-well surrogate tracks the exact log-gradient up to the
        # curvature-correction scale.  Far boundary-hugging pairs are the
        # known weak spot of the tangent-plane image and are excluded here.
        model = disk()
        rng = np.random.default_rng(143)
        checked = 0
        rels = []
        for _ in range(80):
            s = rng.uniform(0.02, 0.08)
            z = model.sample_volume(rng, 1)
            x = model.sample_volume(rng, 1)
            sep = model.distance(z, x)[0]
            if not 0.08 <= sep <= 2.5 * math.sqrt(s):
                continue
            eps = 1e-5
            grad = np.zeros(2)
            usable = True
            for a in range(2):
                zp, zm = z.copy(), z.copy()
                zp[0, a] += eps
                zm[0, a] -= eps
                if model.boundary_distance(zp)[0] < 0 or model.boundary_distance(zm)[0] < 0:
                    usable = False
                    break
                kp = pair_kernel(model, s, zp, x)[0]
                km = pair_kernel(model, s, zm, x)[0]
                if kp < 1e-10 or km < 1e-10:
                    usable = False
                    break
                grad[a] = (math.log(kp) - math.log(km)) / (2 * eps)
            if not usable:
                continue
            checked += 1
            state = st.make_walk_state(model, z)
            g = st.bridge_drift(model, state, x, s, d_anchor=model.boundary_distance(x))[0]
            scale = np.linalg.norm(grad) + 1.0 / math.sqrt(s)
            rels.append(np.linalg.norm(g - grad) / scale)
        assert checked >= 12
        rels = np.array(rels)
        # typical agreement is tight; the tail (boundary-curvature and
        # multi-reflection effects the single image cannot see) stays bounded
        assert np.median(rels) < 0.06
        assert rels.max() < 0.35

    def test_boundary_pinned_normal_displacement_scales_like_sqrt_t(self):
        # mean distance to the boundary along a boundary-pinned loop is
        # O(sqrt(t)) (the collar-factor property)
        model = disk()
        ratios = []
        for t, seed in [(0.02, 43), (0.08, 47)]:
            anchors = np.broadcast_to(np.array([1.0, 0.0]), (1500, 2)).copy()
            _, positions = single_batch_bridges(model, anchors, t, 120, st.RngStream(seed))
            dist = model.boundary_distance(positions.reshape(-1, 2))
            ratios.append(np.abs(dist).mean() / math.sqrt(t))
        assert 0.05 < ratios[0] < 2.0
        assert 0.6 < ratios[0] / ratios[1] < 1.6


def two_well_drift(model, state, anchor, remaining, d_anchor):
    """Reference: the reflected drift as an explicit two-well average.

    The direct well pulls toward the anchor, the image well toward the
    anchor's tangent-plane mirror image; each is weighted by its Gaussian
    factor exp(-squared distance / 2s).
    """
    ell = model.log_frame(state.x, anchor)
    d_z, nu = model.collar_data(state.x)
    ell_nu = np.einsum("pk,pk->p", ell, nu)
    ell_tan = ell - ell_nu[:, None] * nu
    mirror_gap = d_z + d_anchor
    direct_sq = np.einsum("pk,pk->p", ell, ell)
    image_sq = np.einsum("pk,pk->p", ell_tan, ell_tan) + mirror_gap**2
    log_ratio = np.clip(-(image_sq - direct_sq) / (2.0 * remaining), -60.0, 0.0)
    rho = np.exp(log_ratio)
    ell_img = ell_tan - mirror_gap[:, None] * nu
    return (ell + rho[:, None] * ell_img) / ((1.0 + rho) * remaining)[:, None]


DRIFT_MODELS = {
    "disk": disk,
    "ball3": ball3,
    "hemisphere": hemisphere,
    "sphere-ball": lambda: geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
    "cylinder": lambda: geo.model_catalog("cylinder", length=1.0),
}


class TestClosedFormDrift:
    @staticmethod
    def assert_matches_two_well(model, x, anchors, remaining, d_anchor):
        state = st.make_walk_state(model, x)
        new = st.bridge_drift(model, state, anchors, remaining, d_anchor=d_anchor)
        old = two_well_drift(model, state, anchors, remaining, d_anchor=d_anchor)
        assert new.shape == old.shape
        err = np.linalg.norm(new - old, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(old, axis=1)), err.max()
        return state, new

    @pytest.mark.parametrize("name", list(DRIFT_MODELS))
    def test_matches_two_well_surrogate(self, name):
        model = DRIFT_MODELS[name]()
        rng = np.random.default_rng(151)
        P = 400
        # deep-interior and collar points; interior, collar and boundary anchors
        x = np.concatenate([model.sample_volume(rng, P // 2),
                            model.sample_collar(rng, P // 2, 0.1)])
        anchors = np.concatenate([model.sample_volume(rng, P // 2),
                                  model.sample_collar(rng, P // 4, 0.1),
                                  model.sample_boundary(rng, P // 4)])
        d_anchor = model.boundary_distance(anchors)
        for remaining in (0.3, 0.05, 0.002):
            self.assert_matches_two_well(model, x, anchors, remaining, d_anchor)

    def test_disk_center_and_boundary_anchor(self):
        # at the exact center nu = 0; a boundary anchor has d_anchor = 0
        model = disk()
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.9, 0.0], [0.999, 0.0]])
        anchors = np.array([[0.3, 0.4], [1.0, 0.0], [-0.9, 0.0], [0.0, 1.0]])
        d_anchor = model.boundary_distance(anchors)
        for remaining in (0.5, 0.05):
            state, new = self.assert_matches_two_well(model, x, anchors, remaining, d_anchor)
            _, nu = model.collar_data(state.x)
            assert np.all(nu[:2] == 0.0)
            # no image pull at the center: the plain Euclidean bridge drift
            assert np.array_equal(new[:2], (anchors[:2] - x[:2]) / remaining)

    def test_exponent_clip(self):
        # far apart on a short remaining time the exponent sits below -60; a
        # point and anchor on opposite sides of the center give ell_nu > g,
        # where the exponent is clipped at 0 (equal weights)
        model = disk()
        x = np.array([[0.9, 0.0], [0.9, 0.0]])
        anchors = np.array([[0.9, 0.01], [-0.9, 0.0]])
        d_anchor = model.boundary_distance(anchors)
        remaining = 1e-4
        _, new = self.assert_matches_two_well(model, x, anchors, remaining, d_anchor)
        ell = anchors - x
        ell_nu = np.einsum("pk,pk->p", ell, -x / np.linalg.norm(x, axis=1)[:, None])
        gap = model.boundary_distance(x) + d_anchor
        exponent = (ell_nu - gap) * (ell_nu + gap) / (2 * remaining)
        assert exponent[0] < -60.0 and exponent[1] > 0.0
        # clipped, the image weight is exactly e^-60 (e^-200 unclipped)
        pull = math.exp(-60.0) * (ell_nu[0] + gap[0]) / ((1.0 + math.exp(-60.0)) * remaining)
        assert new[0, 0] == pytest.approx(pull, rel=1e-12)
        assert new[0, 1] == ell[0, 1] / remaining
        # equal weights: the drift is the mean of the direct and image pulls
        image = ell[1] - (ell_nu[1] + gap[1]) * (-x[1] / 0.9)
        assert np.allclose(new[1], 0.5 * (ell[1] + image) / remaining, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rowdot_matches_einsum(n):
    rng = np.random.default_rng(157 + n)
    a = rng.random((50, n))
    b = rng.random((50, n))
    np.testing.assert_allclose(geo._rowdot(a, b), np.einsum("pk,pk->p", a, b),
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(geo._rowdot(a[0], b[0]), np.einsum("k,k->", a[0], b[0]),
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(geo._rowdot(a[0], b), np.einsum("k,pk->p", a[0], b),
                               rtol=1e-15, atol=0)
    assert np.ndim(geo._rowdot(a[0], b[0])) == 0


class TestTransport:
    def test_flat_transport_is_identity(self):
        model = disk()
        path = st.simulate_path(model, np.array([0.2, 0.1]), 0.05, 50, st.RngStream(53),
                                pinned=True)
        U, V = evolve_transport(path)
        assert np.array_equal(U.mat, np.eye(4))
        assert np.array_equal(V.mat, np.eye(4))

    def test_inverse_contract(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 200, st.RngStream(59), pinned=True)
        U, V = evolve_transport(path)
        assert np.abs((V @ U).mat - np.eye(4)).max() < 1e-8

    def test_ambient_transport_composition(self):
        # tau_{s,t} tau_{0,s} = tau_{0,t} for the ambient frame maps
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 100, st.RngStream(61), pinned=True)
        u0, u_mid, u_end = path.frames[0], path.frames[50], path.frames[-1]
        lhs = (u_end @ u_mid.T) @ (u_mid @ u0.T)
        rhs = u_end @ u0.T
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("model", [geo.SphereCap(3, aperture=1.0), hemisphere(),
                                       geo.SphereBall(2, 1)],
                             ids=["cap3-aperture1", "hemisphere", "sphere-ball-2+1"])
    def test_frames_drift_little_without_per_step_orthonormalization(self, model, monkeypatch):
        # the exact transport keeps 20 000 steps of frames orthonormal to
        # 1e-12 with no Gram-Schmidt on the way; the one final pass, where the
        # holonomy reads them, brings them back to rounding.  The steps are
        # rotations, so the points stay on their spheres to 1e-12 at every
        # step with no renormalization either (the final snap to the anchor
        # would hide a drift, so every step is read)
        calls, off_sphere = [], []
        orthonormalize = st._orthonormalize

        def spy(frames):
            out = orthonormalize(frames)
            calls.append((frames, out))
            return out

        def radius_drift(k, rows, state, info):
            off_sphere.append(max(
                np.abs(np.sqrt(geo._rowdot(state.x[:, block], state.x[:, block])) / r - 1.0).max()
                for block, r in model.embedded_spheres))

        monkeypatch.setattr(st, "_orthonormalize", spy)
        anchors = mixed_anchors(model, 8, 29)
        st.simulate_bridges(model, anchors, 0.1, 20_000, st.RngStream(31), on_step=radius_drift)
        assert len(calls) == 1 and len(off_sphere) == 20_000
        assert max(off_sphere) <= 1e-12

        def drift(u):
            gram = np.einsum("pda,pdb->pab", u, u)
            return np.abs(gram - np.eye(model.dimension)).max()

        before, after = calls[0]
        assert drift(before) <= 1e-12
        assert drift(after) <= 1e-14


def window(path, start, stop):
    """The steps [start, stop) of a recorded path as a path of their own."""
    steps = stop - start
    frames = None if path.frames is None else path.frames[start:stop + 1]
    return dataclasses.replace(
        path, t=path.t * steps / path.steps, steps=steps,
        positions=path.positions[start:stop + 1], frames=frames,
        lam=path.lam[start:stop + 1], contact=path.contact[start:stop],
        dlam=path.dlam[start:stop], nu_frame=path.nu_frame[start:stop])


class TestFunctional:
    def test_interior_only_flat_path_gives_identity(self):
        model = disk()
        x0 = np.zeros(2)
        path = st.simulate_path(model, x0, 0.01, 40, st.RngStream(71), pinned=True)
        assert not path.contact.any()
        M = st.evolve_functional(path)
        assert np.array_equal(M.mat, np.eye(4))

    def test_single_contact_hand_oracle(self):
        # one contact on the unit disk with local time 0.3 and normal e_1:
        # M = exp(-DA * 0.3) Pi_tan = diag(1, 0, e^{-0.3}, 0) on (1, e1, e2, e12)
        model = disk()
        steps = 3
        path = st.PathSample(
            model=model, t=0.03, steps=steps,
            positions=np.zeros((steps + 1, 2)),
            frames=None,
            lam=np.array([0.0, 0.3, 0.3, 0.3]),
            contact=np.array([False, True, False]),
            dlam=np.array([0.0, 0.3, 0.0]),
            nu_frame=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        )
        M = st.evolve_functional(path)
        expected = np.diag([1.0, 0.0, math.exp(-0.3), 0.0])
        assert np.abs(M.mat - expected).max() < 1e-12

    def test_normal_projection_annihilated_after_every_contact(self):
        model = disk()
        anchor = np.array([1.0, 0.0])
        path = st.simulate_path(model, anchor, 0.04, 120, st.RngStream(73), pinned=True)
        hits = np.nonzero(path.contact)[0]
        assert hits.size > 0
        for k in hits:
            M = st.evolve_functional(window(path, 0, k + 1))
            _, pi_nor = boundary_projections(path.nu_frame[k])
            assert np.abs((M @ pi_nor).mat).max() < 1e-10

    def test_multiplicativity(self):
        for model, anchor in [
            (disk(), np.array([1.0, 0.0])),
            (hemisphere(), geo.model_catalog("hemisphere", dimension=2).boundary_point()),
        ]:
            path = st.simulate_path(model, anchor, 0.05, 100, st.RngStream(83), pinned=True)
            mid = 50
            left = st.evolve_functional(window(path, 0, mid))
            right = st.evolve_functional(window(path, mid, path.steps))
            full = st.evolve_functional(path)
            assert np.abs((left @ right).mat - full.mat).max() < 1e-8

    def test_off_diagonal_curvature_operator_is_refused(self, monkeypatch):
        # the interior step exponentiates the diagonal of the curvature
        # operator, which is all of it on every catalog model; a random
        # 3-dimensional tensor has off-diagonal entries (a 2-dimensional one
        # is constant curvature, diagonal again)
        model = geo.model_catalog("hemisphere", dimension=3)
        path = st.simulate_path(model, model.interior_point(), 0.01, 10, st.RngStream(97))
        tensor = ext.CurvatureTensor.random(3, np.random.default_rng(5))
        monkeypatch.setattr(type(model), "frame_curvature", lambda self: tensor)
        with pytest.raises(ValueError, match="not diagonal"):
            st.evolve_functional(path)

    def test_degree_zero_block_is_one(self):
        # the degree-0 diagonal of M V is a probability-like mass: exactly
        # one per path, hence nonnegative in expectation
        for model, anchor in [
            (disk(), np.array([1.0, 0.0])),
            (hemisphere(), geo.model_catalog("hemisphere", dimension=2).boundary_point()),
        ]:
            path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(89), pinned=True)
            M = st.evolve_functional(path)
            assert M.mat[0, 0] == 1.0
            assert np.abs(M.mat[0, 1:]).max() < 1e-14
            _, V = evolve_transport(path)
            assert (M @ V).mat[0, 0] == 1.0


class TestFastPathAgainstOperators:
    @pytest.mark.parametrize(
        "model,anchor_kind",
        [
            ("disk-boundary", "boundary"),
            ("hemisphere-interior", "interior"),
            ("hemisphere-boundary", "boundary"),
            ("product-boundary", "boundary"),
            ("cap2-boundary", "boundary"),
        ],
    )
    def test_coupled_noise_agreement(self, model, anchor_kind):
        # the cap's boundary is curved and it carries frames, so the decay
        # simulate_bridges defers to the path's end meets the holonomy there
        if model == "disk-boundary":
            m = disk()
        elif model.startswith("hemisphere"):
            m = hemisphere()
        elif model == "cap2-boundary":
            m = geo.SphereCap(2, aperture=1.0)
        else:
            m = geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2)
        anchor = m.boundary_point() if anchor_kind == "boundary" else m.interior_point()
        for seed in (3, 4, 5):
            stream = st.RngStream(101, seed)
            path = st.simulate_path(m, anchor, 0.05, 60, stream, pinned=True)
            batch = st.simulate_bridges(m, anchor[None, :], 0.05, 60, stream)
            fast = batch.supertraces()[0]
            slow = path_supertrace(path)
            assert abs(fast - slow) < 1e-9
            # one stepping loop on both sides
            assert batch.lam[0] == path.lam[-1]


class TestFlatSanity:
    def test_flat_supertrace_identities(self):
        # on flat models every interior path contributes supertrace zero and
        # the degree-zero diagonal of the functional is exactly one
        model = disk()
        anchors = np.broadcast_to(np.array([0.1, 0.0]), (500, 2)).copy()
        batch = st.simulate_bridges(model, anchors, 0.01, 50, st.RngStream(107))
        vals = batch.supertraces()
        no_contact = batch.contacts == 0
        assert np.abs(vals[no_contact]).max() == 0.0

    def test_cylinder_supertrace_identically_zero(self):
        model = geo.model_catalog("cylinder", length=1.0)
        anchors = model.sample_collar(st.RngStream(109).generator(), 400, 0.2)
        batch = st.simulate_bridges(model, anchors, 0.04, 80, st.RngStream(109, 1))
        assert np.abs(batch.supertraces()).max() < 1e-14

    def test_product_supertrace_identically_zero(self):
        model = geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2)
        anchors = model.sample_collar(st.RngStream(113).generator(), 400, 0.2)
        batch = st.simulate_bridges(model, anchors, 0.04, 80, st.RngStream(113, 1))
        assert np.abs(batch.supertraces()).max() < 1e-14


class TestConfinement:
    def test_small_time_confined(self):
        model = disk()
        x = np.array([0.3, 0.0])
        rho = 0.5
        frac = st.confinement_fraction(model, x, rho, rho * rho / 100.0, 3000, st.RngStream(127))
        assert frac > 0.999

    def test_monotone_in_radius(self):
        model = disk()
        x = np.array([0.3, 0.0])
        t = 0.01
        f1 = st.confinement_fraction(model, x, 0.2, t, 3000, st.RngStream(137))
        f2 = st.confinement_fraction(model, x, 0.4, t, 3000, st.RngStream(137))
        assert f2 >= f1 - 2.0 * math.sqrt(0.25 / 3000)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            st.confinement_fraction(disk(), np.array([0.0, 0.0]), -1.0, 0.01, 10, st.RngStream(1))


class TestAbortSignals:
    def test_orthogonality_abort(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.02, 30, st.RngStream(139), pinned=True)
        path.frames[-1][:, 0] *= 1.01  # corrupt the frame
        with pytest.raises(NumericalAbortError):
            evolve_transport(path)

    def test_validity_tracked(self):
        model = disk()
        anchors = np.broadcast_to(np.array([0.5, 0.0]), (64, 2)).copy()
        batch = st.simulate_bridges(model, anchors, 0.02, 40, st.RngStream(149))
        assert batch.alive.all()


# ---------------------------------------------------------------------------
# lockstep row tiles, contact rows and the columnwise flat hot path, each
# against the code it replaced
# ---------------------------------------------------------------------------


class PairedNoise:
    """Reference antithetic noise: each fill draws P / 2 rows d; rows 2j and 2j + 1 get d[j], -d[j]."""

    def __init__(self, gen):
        self.gen = gen

    def fill(self, xi):  # assigning rounds the float64 draws to xi's precision
        d = self.gen.standard_normal((xi.shape[0] // 2, xi.shape[1]))
        xi[0::2] = d
        xi[1::2] = -d


def single_batch_bridges(model, anchors, t, steps, rng, pinned=True, paired=False):
    """Reference: the untiled stepping loop, one WalkState for the whole batch.

    Unpinned, the anchors are the starts of free walks; paired, the rows
    step as antithetic pairs (PairedNoise).  The walk steps in the model's
    walk precision: its state, anchors, step, root and remaining time are
    rounded to it, and the snap reads the anchors' float64 depth.  Returns
    the batch and the positions it visited, (steps + 1, P, state_dim).
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    P = anchors.shape[0]
    dtype = model.walk_precision(t / steps)
    gen = PairedNoise(st._as_generator(rng)) if paired else st._row_streams(rng, P)
    state = st.make_walk_state(model, anchors)
    st._round_walk(state, dtype)
    frames0 = None if state.frames is None else state.frames.copy()
    h = t / steps
    scales = (dtype(h), dtype(np.sqrt(h)))
    d_snap = model.boundary_distance(anchors)
    d_anchor = d_snap.astype(dtype)
    anchors = anchors.astype(dtype)
    bounded = model.bounded_factor
    m = np.broadcast_to(np.eye(bounded.dim), (P, bounded.dim, bounded.dim)).copy()
    contacts = np.zeros(P, dtype=np.int64)
    positions = np.empty((steps + 1, P, model.state_dim))
    positions[0] = state.x
    for k in range(steps):
        remaining = dtype(t - k * h)
        if not pinned:
            info = st.step_bridge(model, state, remaining, None, scales, gen)
        elif k == steps - 1:
            info = st.snap_to_anchor(model, state, anchors, d_snap)
        else:
            info = st.step_bridge(model, state, remaining, anchors, scales, gen, d_anchor=d_anchor)
        st._jump_update(m, info)
        contacts[info.idx] += 1
        positions[k + 1] = state.x
    if model.shape_coefficient:
        m *= np.exp(-model.shape_coefficient * state.lam)[:, None, None]
    frames = None if state.frames is None else st._orthonormalize(state.frames)
    factor_O = {spec.name: model.holonomy(frames0, frames, spec) for spec in model.factors}
    batch = st.BridgeBatch(
        model=model, t=t, lam=state.lam.copy(), contacts=contacts,
        alive=model.simulation_valid(state.x), m=m, factor_O=factor_O,
    )
    return batch, positions


TILE_MODELS = {**DRIFT_MODELS, "cap3-aperture1": lambda: geo.SphereCap(3, aperture=1.0)}
# the paired cases: the flat models the estimator pairs, and one that carries
# frames (simulate_bridges pairs any model it is asked to)
PAIRED_MODELS = {name: DRIFT_MODELS[name] for name in ("disk", "ball3", "hemisphere")}


def mixed_anchors(model, count, seed):
    """Interior, collar and boundary base points, three bridges each."""
    rng = np.random.default_rng(seed)
    k = -(-count // 9)
    pts = np.concatenate([model.sample_volume(rng, k), model.sample_collar(rng, k, 0.2),
                          model.sample_boundary(rng, k)])
    return np.repeat(pts, 3, axis=0)[:count]


def assert_batches_equal(a, b):
    for field in ("lam", "contacts", "alive", "m"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.factor_O.keys() == b.factor_O.keys()
    for name, O in a.factor_O.items():
        assert (O is None) == (b.factor_O[name] is None), name
        if O is not None:
            assert np.array_equal(O, b.factor_O[name]), name
    assert np.array_equal(a.supertraces(), b.supertraces())


# bridge length and step count: fine steps, and coarse ones whose deeper
# penetrations change every local-time increment and so every boundary jump's
# decay factor
REGIMES = {"fine": (0.05, 30), "coarse": (0.2, 10)}


class TestTiledBridges:
    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_bitwise_equal_to_single_batch(self, name, regime, pinned, monkeypatch):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 131, 167)
        t, steps = REGIMES[regime]
        ref = single_batch_bridges(model, anchors, t, steps, st.RngStream(173, 2), pinned)
        assert ref[0].contacts.sum() > 0
        # one tile at the default cap; then 64 rows -> 43, 44, 44; then one
        # 5-row tile, 13 rows -> 4, 4, 5 and 131 rows -> 27 tiles of 4 or 5
        cases = [(st.TILE_ROWS, 131), (64, 131), (5, 5), (5, 13), (5, 131)]
        for tile_rows, P in cases:
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            positions = np.empty((steps, P, model.state_dim))

            def record(k, rows, state, info):
                positions[k, rows] = state.x

            tiled = st.simulate_bridges(model, anchors[:P], t, steps, st.RngStream(173, 2),
                                        pinned=pinned, on_step=record)
            expected, expected_positions = ref if P == 131 else single_batch_bridges(
                model, anchors[:P], t, steps, st.RngStream(173, 2), pinned)
            assert_batches_equal(tiled, expected)
            # the hook sees every tile's rows after every step
            assert np.array_equal(positions, expected_positions[1:])

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("name", list(PAIRED_MODELS))
    def test_paired_bitwise_equal_to_single_batch(self, name, regime, pinned, monkeypatch):
        model = PAIRED_MODELS[name]()
        anchors = mixed_anchors(model, 130, 167)
        t, steps = REGIMES[regime]
        ref = single_batch_bridges(model, anchors, t, steps, st.RngStream(173, 2), pinned,
                                   paired=True)
        assert ref[0].contacts.sum() > 0
        # one tile at the default cap; 64 rows -> 42, 44, 44 (independent
        # rows would be cut at the odd row 43); 9 rows cut 80 rows into ten
        # tiles of 8 where independent rows are cut at 17, 35, 53 and 71;
        # 5 rows -> tiles of 1 or 2 pairs
        cases = [(st.TILE_ROWS, 130), (64, 130), (9, 80), (5, 130)]
        for tile_rows, P in cases:
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            if tile_rows < P:
                assert any(rows.start % 2 for rows in st._row_tiles(P))
            positions = np.empty((steps, P, model.state_dim))
            starts = set()

            def record(k, rows, state, info):
                positions[k, rows] = state.x
                starts.add(rows.start)

            tiled = st.simulate_bridges(model, anchors[:P], t, steps, st.RngStream(173, 2),
                                        pinned=pinned, paired=True, on_step=record)
            expected, expected_positions = ref if P == 130 else single_batch_bridges(
                model, anchors[:P], t, steps, st.RngStream(173, 2), pinned, paired=True)
            assert all(start % 2 == 0 for start in starts)
            assert_batches_equal(tiled, expected)
            assert np.array_equal(positions, expected_positions[1:])

    @pytest.mark.parametrize("tile_rows,P,sizes", [(5, 5, [5]), (5, 13, [4, 4, 5]),
                                                   (64, 131, [43, 44, 44]), (64, 128, [64, 64])])
    def test_row_tiles(self, tile_rows, P, sizes, monkeypatch):
        monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        tiles = st._row_tiles(P)
        assert [s.stop - s.start for s in tiles] == sizes
        assert tiles[0].start == 0 and tiles[-1].stop == P
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))

    @pytest.mark.parametrize("tile_rows,P,sizes", [(9, 80, [8] * 10), (64, 130, [42, 44, 44]),
                                                   (5, 6, [2, 4]), (1, 4, [2, 2]),
                                                   (64, 128, [64, 64])])
    def test_paired_row_tiles(self, tile_rows, P, sizes, monkeypatch):
        # cuts on even rows only, at most TILE_ROWS rows but at least one pair per tile
        monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        tiles = st._row_tiles(P, 2)
        assert [s.stop - s.start for s in tiles] == sizes
        assert tiles[0].start == 0 and tiles[-1].stop == P
        assert all(a.stop == b.start and a.stop % 2 == 0 for a, b in zip(tiles, tiles[1:]))


class TestBridgePaths:
    """The positions a bridge visits, read off the reference stepping loop."""

    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_loops_close_stay_inside_and_give_the_excursion(self, name):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 60, 271)
        ref, positions = single_batch_bridges(model, anchors, 0.05, 30, st.RngStream(277))
        assert ref.contacts.sum() > 0
        closure, outside = 1e-9, 1e-12
        if model.walk_precision(0.05 / 30) == np.float32:
            # float32 points: the closure as in test_flat_endpoint_snaps_to_anchor, and a
            # point the walk finds inside (a rounded anchor, an image) has a float32 |x|
            # of n + 1 roundings, and an image one more for its scale factor
            closure, outside = 2 * F32_EPS * model.radius, 4 * F32_EPS * model.radius
        assert np.abs(positions[-1] - anchors).max() <= closure
        assert model.boundary_distance(positions.reshape(-1, model.state_dim)).min() >= -outside
        # the excursion an on_step hook tracks (as confinement_fraction's does)
        # is the largest distance to the anchor along the path
        excursion = np.zeros(60)

        def track(k, rows, state, info):
            np.maximum(excursion[rows], model.distance(state.x, anchors[rows]),
                       out=excursion[rows])

        st.simulate_bridges(model, anchors, 0.05, 30, st.RngStream(277), on_step=track)
        dist = np.stack([model.distance(p, anchors) for p in positions])
        assert np.array_equal(excursion, dist.max(axis=0))


def full_contact_step(model, state, v):
    """Reference: one increment with full-size contact arrays, zero off contact.

    The contact normals come from a second boundary query at the reflected points.
    """
    x2, u2 = model.geodesic_step(state.x, state.frames, v)
    depth = model.boundary_distance(x2)
    contact = depth <= 0.0
    dlam = np.zeros(x2.shape[0])
    if contact.any():
        idx = np.nonzero(contact)[0]
        x2[idx], ur, _, _ = model.reflect(x2[idx], None if u2 is None else u2[idx],
                                          *model.collar_data(x2[idx]))
        if u2 is not None:
            u2[idx] = ur
        dlam[idx] = -2.0 * depth[idx]
    return contact, dlam, full_boundary_data(model, x2, u2, contact)


def full_boundary_data(model, x2, u2, contact):
    """Reference: a full-size normal array, zero off contact."""
    nu = np.zeros((x2.shape[0], model.bounded_factor.dim))
    if contact.any():
        idx = np.nonzero(contact)[0]
        nu[idx] = model.boundary_data(None if u2 is None else u2[idx],
                                      model.collar_data(x2[idx])[1])
    return nu


def full_jump_update(m, contact, dlam, nu, a):
    """Reference: the jump update reading contact rows out of full-size arrays."""
    idx = np.nonzero(contact)[0]
    if idx.size == 0:
        return
    nu = nu[idx]
    dl = dlam[idx]
    sub = m[idx]
    mnu = np.einsum("cij,cj->ci", sub, nu)
    tangential = sub - mnu[:, :, None] * nu[:, None, :]
    decay = np.exp(-a * dl)[:, None, None]
    m[idx] = decay * tangential


class TestContactRows:
    @pytest.mark.parametrize("scale", [0.08, 0.3], ids=list(REGIMES))
    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_rows_match_full_arrays(self, name, scale):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 120, 179)
        xi = scale * np.random.default_rng(181).standard_normal((120, model.dimension))
        xi[:6] = 0.0  # zero steps, boundary points among the anchors stay in contact
        new_state = st.make_walk_state(model, anchors)
        old_state = st.make_walk_state(model, anchors)
        v = model.frame_vector(new_state.frames, xi)
        x2, u2 = model.geodesic_step(new_state.x, new_state.frames, v)
        info = st._apply_increment(model, new_state, x2, u2, *model.collar_data(x2))
        contact, dlam, nu = full_contact_step(model, old_state, v)
        assert 0 < info.idx.size < 120
        assert np.array_equal(info.idx, np.flatnonzero(contact))
        assert np.array_equal(info.dlam, dlam[contact])
        # the contact normals are reflect's, which agree with a second query
        assert np.abs(info.nu - nu[contact]).max() < 1e-12
        assert np.array_equal(new_state.lam[contact], dlam[contact])
        assert not new_state.lam[~contact].any()
        # the state carries the boundary data of its new points: the query's
        # off contact, and reflect's on the reflected rows
        depth, nu_walk = model.collar_data(new_state.x)
        assert np.array_equal(new_state.depth[~contact], depth[~contact])
        assert np.array_equal(new_state.nu[~contact], nu_walk[~contact])
        assert np.abs(new_state.depth - depth).max() < 1e-12
        assert np.abs(new_state.nu - nu_walk).max() < 1e-12
        m_new = np.random.default_rng(191).standard_normal((120,) + (model.bounded_factor.dim,) * 2)
        m_old = m_new.copy()
        st._jump_update(m_new, info)
        nu[contact] = info.nu
        full_jump_update(m_old, contact, dlam, nu, 0.0)
        # the same projections; m nu is summed in column order, not in einsum's
        assert np.abs(m_new - m_old).max() < 1e-14

    @pytest.mark.parametrize("name", ["disk", "ball3"])
    def test_deferred_decay_is_the_per_contact_jumps(self, name):
        # simulate_bridges projects at each contact and decays each path once,
        # by exp(-a lam); the jumps exp(-a dlam) Pi_tan applied contact by
        # contact, from the rows the on_step hook sees, give the same matrices
        model = TILE_MODELS[name]()
        a = model.shape_coefficient
        d = model.bounded_factor.dim
        anchors = model.sample_collar(np.random.default_rng(433), 400, 0.1)
        t, steps = REGIMES["coarse"]
        m = np.broadcast_to(np.eye(d), (400, d, d)).copy()

        def jump(k, rows, state, info):
            contact = np.zeros(rows.stop - rows.start, dtype=bool)
            contact[info.idx] = True
            dlam = np.zeros(contact.size)
            dlam[info.idx] = info.dlam
            nu = np.zeros((contact.size, d))
            nu[info.idx] = info.nu
            full_jump_update(m[rows], contact, dlam, nu, a)

        batch = st.simulate_bridges(model, anchors, t, steps, st.RngStream(437), on_step=jump)
        assert a > 0 and np.count_nonzero(batch.contacts >= 3) > 100
        err = np.abs(batch.m - m).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.abs(m).max(axis=(1, 2)))

    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_snap_rows(self, name):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 60, 193)
        state = st.make_walk_state(model, anchors)
        v = model.log_frame(state.x, anchors)
        x2, u2 = model.geodesic_step(state.x, state.frames, v)
        contact = model.boundary_distance(x2) <= 1e-12
        nu = full_boundary_data(model, x2, u2, contact)
        info = st.snap_to_anchor(model, state, anchors, model.boundary_distance(anchors))
        assert contact.any()
        assert np.array_equal(info.idx, np.flatnonzero(contact))
        assert np.array_equal(info.dlam, np.zeros(contact.sum()))
        assert np.array_equal(info.nu, nu[contact])

    def test_no_contact_gives_empty_rows(self):
        model = hemisphere()
        x = np.broadcast_to(model.interior_point(), (7, 3)).copy()
        state = st.make_walk_state(model, x)
        info = st._apply_increment(model, state, state.x, state.frames, *model.collar_data(x))
        assert info.idx.size == info.dlam.size == 0
        assert info.nu.shape == (0, model.bounded_factor.dim)


# the models whose reflections can pass the centre of the boundary (the ball's
# origin, the cap's apex), with its distance from the boundary
LONG_STEP_MODELS = {
    "disk": (disk, 1.0),
    "ball3": (ball3, 1.0),
    "cap2-aperture1": (lambda: geo.SphereCap(2, aperture=1.0), 1.0),
    "sphere-ball-2+1": (lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1), 1.0),
}


class TestCarriedBoundaryData:
    @pytest.mark.usefixtures("float64_walks")
    @pytest.mark.parametrize("pinned", [True, False], ids=["bridges", "free"])
    @pytest.mark.parametrize("name", list(LONG_STEP_MODELS))
    def test_long_steps_carry_the_queried_data(self, name, pinned):
        # at t = 1 and 2 steps a step crosses more than the radius, and some
        # reflections pass the centre; the depth and normal the state carries
        # for reflected rows are those a query at the new point returns
        make, reach = LONG_STEP_MODELS[name]
        model = make()
        anchors = mixed_anchors(model, 600, 421)
        passed = []

        def check(k, rows, state, info):
            depth, nu = model.collar_data(state.x)
            assert np.abs(state.depth - depth).max() < 1e-12
            # a flat ball's steps carry |x| in place of the normal; the snap's
            # query carries the normal again
            carries_norm = isinstance(model, geo.FlatBall) and not (pinned and k == 1)
            assert (state.nu is None) == carries_norm == (state.norm is not None)
            if carries_norm:
                assert np.abs(state.norm - np.sqrt(geo._rowdot(state.x, state.x))).max() < 1e-12
            else:
                assert np.abs(state.nu - nu).max() < 1e-12
            passed.append(int((info.dlam > 2.0 * reach).sum()))

        st.simulate_bridges(model, anchors, 1.0, 2, st.RngStream(423), pinned=pinned,
                            on_step=check)
        assert len(passed) == 2
        assert passed[0] > 0

    @pytest.mark.parametrize("name", list(LONG_STEP_MODELS))
    def test_reflection_past_the_centre(self, name):
        # points pushed out by less and by more than reach: the image lies at
        # depth -depth, or past the centre at 2 reach + depth with the normal
        # reversed, and both are what a query at the image returns
        make, reach = LONG_STEP_MODELS[name]
        model = make()
        z = model.sample_boundary(np.random.default_rng(427), 40)
        u = model.initial_frames(z)
        nu_z = model.collar_data(z)[1]
        out = np.linspace(0.05, 0.6, 40) * reach
        push = np.where(np.arange(40) % 2 == 0, out, reach + out)  # short of and past the centre
        x, ux = model.geodesic_step(z, u, geo._scale_columns(nu_z, -push, np.multiply))
        depth, nu = model.collar_data(x)
        assert np.abs(depth + push).max() < 1e-12
        x2, _, depth2, nu2 = model.reflect(x, ux, depth, nu)
        query_depth, query_nu = model.collar_data(x2)
        assert np.abs(depth2 - query_depth).max() < 1e-12
        assert np.abs(nu2 - query_nu).max() < 1e-12
        past = push > reach
        assert np.abs(depth2[past] - (2.0 * reach - push[past])).max() < 1e-12
        assert np.abs(depth2[~past] - push[~past]).max() < 1e-12

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("aperture", [1.0, math.pi / 2, 2.0])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_cap_reflection_is_the_normal_rotation(self, dimension, aperture, radius):
        # the cap reflects by the rotation in the plane of x and nu; the general
        # great-circle step along -2 depth nu, its former route, lands on the
        # same image, frames, depth and normal, at pushes from 0 to nearly the
        # antipode of the apex: past the apex where the cap is narrow enough
        model = geo.SphereCap(dimension, radius=radius, aperture=aperture)
        reach = radius * aperture
        z = model.sample_boundary(np.random.default_rng(433), 60)
        nu_z = model.collar_data(z)[1]
        push = np.linspace(0.0, 0.95, 60) * radius * (math.pi - aperture)
        x, u = model.geodesic_step(z, model.initial_frames(z),
                                   geo._scale_columns(nu_z, -push, np.multiply))
        depth, nu = model.collar_data(x)
        assert np.abs(depth + push).max() < 1e-12
        assert np.any(push > reach) == (aperture == 1.0)
        rotated = model.reflect(x, u, depth, nu)
        stepped, u_stepped = geo._sphere_step(
            x, u, geo._scale_columns(nu, -2.0 * depth, np.multiply), radius)
        angle = -2.0 * depth / radius
        nu_stepped = nu * np.cos(angle)[:, None] - x * (np.sin(angle) / radius)[:, None]
        reference = (stepped, u_stepped, *geo._mirrored_collar(reach, depth, nu_stepped))
        for new, old in zip(rotated, reference):
            assert np.abs(new - old).max() <= 1e-13


JUMP_MODELS = {
    "disk": disk,
    "ball3": ball3,
    "hemisphere": hemisphere,
    "cap3-aperture2": lambda: geo.SphereCap(3, aperture=2.0),
    "sphere-ball-2+1": lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
    "sphere-ball-1+2": lambda: geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
}


@pytest.mark.parametrize("name", list(JUMP_MODELS))
def test_jump_update_is_the_contact_jump_matrix(name):
    # a batch whose contact rows take jumps of every size (dlam 0 among
    # them) while the other rows keep their matrices bitwise: each contact
    # row is multiplied by its projection, which times the decay
    # exp(-a dlam) that simulate_bridges defers is the bounded block of the
    # general route's jump
    model = JUMP_MODELS[name]()
    spec = model.bounded_factor
    d = spec.dim
    rng = np.random.default_rng(431)
    P = 50
    m = rng.standard_normal((P, d, d))
    idx = np.sort(rng.choice(P, 23, replace=False))
    nu = geo._unit(rng.standard_normal((idx.size, d)))
    dlam = np.concatenate([np.zeros(3), rng.exponential(0.3, idx.size - 3)])
    before = m.copy()
    st._jump_update(m, st.ContactInfo(idx=idx, dlam=dlam, nu=nu))
    untouched = np.setdiff1d(np.arange(P), idx)
    assert np.array_equal(m[untouched], before[untouched])
    for row, nu_b, dl in zip(idx, nu, dlam):
        nu_frame = np.zeros(model.dimension)
        nu_frame[spec.cols] = nu_b
        jump = st._contact_jump_matrix(model, nu_frame, dl, "exact-jump", None)
        decay = math.exp(-model.shape_coefficient * dl)
        assert np.abs(decay * m[row] - before[row] @ jump[spec.cols, spec.cols]).max() < 1e-13


def broadcast_collar_data(model, x):
    """Reference: FlatBall.collar_data with the per-path [:, None] divide."""
    rho = np.sqrt(geo._rowdot(x, x))
    return model.radius - rho, x / -np.maximum(rho, 1e-300)[:, None]


def broadcast_reflect(model, x, u):
    """Reference: FlatBall.reflect with np.linalg.norm and a [:, None] scale."""
    rho = np.linalg.norm(x, axis=-1)
    depth = rho - model.radius
    x2 = x * ((model.radius - depth) / rho)[:, None]
    return x2, u, depth


def broadcast_flat_drift(model, x, anchor, remaining, *, d_anchor):
    """Reference: bridge_drift on a flat ball with per-path [:, None] broadcasts."""
    ell = anchor - x
    d_z, nu = broadcast_collar_data(model, x)
    ell_nu = geo._rowdot(ell, nu)
    gap = d_z + d_anchor
    rho = np.exp(np.clip((ell_nu - gap) * (ell_nu + gap) / (2.0 * remaining), -60.0, 0.0))
    pull = rho * (ell_nu + gap) / ((1.0 + rho) * remaining)
    return ell / remaining - pull[:, None] * nu


def flat_points(model, seed):
    """Interior and collar points, boundary points, the centre, and the contact
    rows of one step (points pushed past the boundary, and boundary points
    after a zero step)."""
    rng = np.random.default_rng(seed)
    n = model.dimension
    inside = np.concatenate([model.sample_volume(rng, 100), model.sample_collar(rng, 100, 0.05),
                             model.sample_boundary(rng, 20), np.zeros((2, n))])
    x2 = model.sample_collar(rng, 300, 0.05) + 0.05 * rng.standard_normal((300, n))
    x2 = np.concatenate([x2, model.sample_boundary(rng, 10) + np.zeros((10, n))])
    contact = x2[model.boundary_distance(x2) <= 0.0]
    return inside, contact


class TestFlatColumnwise:
    @pytest.mark.parametrize("make", [disk, ball3], ids=["disk", "ball3"])
    def test_collar_data_and_reflect(self, make):
        model = make()
        inside, contact = flat_points(model, 197)
        assert contact.shape[0] > 20
        for x in (inside, contact):
            d, nu = model.collar_data(x)
            d_old, nu_old = broadcast_collar_data(model, x)
            assert np.array_equal(d, d_old) and np.array_equal(nu, nu_old)
        centre_nu = model.collar_data(inside[-2:])[1]
        assert np.array_equal(centre_nu, np.zeros((2, model.dimension)))
        d_in, nu_in = model.collar_data(contact)
        x2, u2, depth, nu2 = model.reflect(contact, None, d_in, nu_in)
        x_old, _, depth_old = broadcast_reflect(model, contact, None)
        assert u2 is None and nu2 is nu_in  # a step short of the centre keeps its normal
        assert np.array_equal(x2, x_old) and np.array_equal(depth, depth_old)
        assert np.any(depth == 0.0) and np.all(depth >= 0.0)

    @pytest.mark.parametrize("make", [disk, ball3], ids=["disk", "ball3"])
    def test_drift(self, make):
        model = make()
        inside, _ = flat_points(model, 199)
        rng = np.random.default_rng(211)
        anchors = inside[rng.permutation(inside.shape[0])]
        anchors[:10] = inside[:10]  # zero log: the anchor is the point itself
        anchors[-1] = inside[-1]    # the centre, anchored at itself
        state = st.make_walk_state(model, inside)
        d_anchor = model.boundary_distance(anchors)
        for remaining in (0.3, 0.002):
            new = st.bridge_drift(model, state, anchors, remaining, d_anchor=d_anchor)
            old = broadcast_flat_drift(model, inside, anchors, remaining, d_anchor=d_anchor)
            assert np.array_equal(new, old)


# ---------------------------------------------------------------------------
# the flat ball's closed-form step against the general step
# ---------------------------------------------------------------------------


def general_flat_step(model, state, anchor, remaining, scales, xi, d_anchor):
    """Reference: the general step from a copy of the state that carries collar_data's normal.

    It is the chain every model without a closed form takes: the drift,
    the frame vector, the geodesic step, one collar query and the reflection.
    """
    ref = st.WalkState(x=state.x.copy(), frames=None, lam=state.lam.copy(),
                       depth=state.depth.copy(), nu=model.collar_data(state.x)[1])
    return ref, st.general_step(model, ref, anchor, remaining, scales, xi.copy(), d_anchor)


def compare_with_general_steps(model):
    """Make every bridge_step of model check itself against the general step.

    Returns the list that collects, per step, the contact rows and the
    number of reflections that passed the centre.
    """
    closed = model.bridge_step
    seen = []

    def compared(state, anchor, remaining, scales, xi, d_anchor):
        ref, expected = general_flat_step(model, state, anchor, remaining, scales, xi, d_anchor)
        info = closed(state, anchor, remaining, scales, xi, d_anchor)
        assert np.array_equal(info.idx, expected.idx)
        for new, old in [(state.x, ref.x), (state.depth, ref.depth), (state.lam, ref.lam),
                         (info.dlam, expected.dlam), (info.nu, expected.nu)]:
            if anchor is None:  # a free step is the same arithmetic
                assert np.array_equal(new, old)
            else:
                assert np.abs(new - old).max(initial=0.0) <= 1e-12
        seen.append((info.idx.size, int((info.dlam > 2.0 * model.radius).sum())))
        return info

    model.bridge_step = compared
    return seen


@pytest.mark.usefixtures("float64_walks")
class TestFlatClosedForm:
    @pytest.mark.parametrize("lifetimes", ["scalar", "per-row"])
    @pytest.mark.parametrize("paired", [False, True], ids=["independent", "paired"])
    @pytest.mark.parametrize("pinned", [True, False], ids=["bridges", "free"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_general_step(self, n, pinned, paired, lifetimes):
        # every step, from the state the closed form reached, against the general
        # step on the same normals: tiles, groups and pairs draw as before.  Some
        # loops start exactly at the centre, where the state's normal is 0
        model = geo.FlatBall(n)
        sizes = [24, 36, 60]
        anchors = mixed_anchors(model, sum(sizes), 443)
        anchors[::10] = 0.0
        t = 0.2 if lifetimes == "scalar" else np.repeat([0.2, 0.08, 0.02], sizes)
        seen = compare_with_general_steps(model)
        st.simulate_bridges(model, anchors, t, 12, [st.RngStream(449, j) for j in range(3)],
                            pinned=pinned, paired=paired, group_rows=sizes)
        assert len(seen) == (11 if pinned else 12)
        assert sum(contacts for contacts, _ in seen) > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reflections_past_the_centre(self, n):
        # at t = 1 and 3 steps a step crosses more than the radius
        model = geo.FlatBall(n)
        seen = compare_with_general_steps(model)
        st.simulate_bridges(model, mixed_anchors(model, 600, 421), 1.0, 3, st.RngStream(423))
        assert sum(passed for _, passed in seen) > 0

    def test_centre_start(self):
        # |x| = 0: no image pull, so the first step is beta a + sqrt(h) xi
        model = disk()
        anchors = np.array([[0.3, 0.4], [1.0, 0.0], [0.0, 0.0], [-0.2, 0.0]])
        state = st.make_walk_state(model, np.zeros((4, 2)))
        assert not state.nu.any()
        xi = np.random.default_rng(457).standard_normal((4, 2))
        ref, expected = general_flat_step(model, state, anchors, 0.05, (0.01, 0.1), xi,
                                          model.boundary_distance(anchors))
        model.bridge_step(state, anchors, 0.05, (0.01, 0.1), xi, model.boundary_distance(anchors))
        assert np.abs(state.x - ref.x).max() <= 1e-15
        assert np.abs(state.norm - np.linalg.norm(ref.x, axis=1)).max() <= 1e-15


def concat_batches(parts):
    """The row concatenation of separate bridge batches, as one batch."""
    first = parts[0]

    def join(field):
        return np.concatenate([getattr(p, field) for p in parts])

    factor_O = {name: None if O is None else np.concatenate([p.factor_O[name] for p in parts])
                for name, O in first.factor_O.items()}
    return st.BridgeBatch(
        model=first.model, t=first.t, lam=join("lam"), contacts=join("contacts"),
        alive=join("alive"), m=join("m"), factor_O=factor_O,
    )


class TestGroupedStreams:
    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("name", list(DRIFT_MODELS))
    def test_bitwise_equal_to_separate_batches(self, name, regime, pinned, monkeypatch):
        model = DRIFT_MODELS[name]()
        anchors = mixed_anchors(model, 87, 193)
        t, steps = REGIMES[regime]
        streams = [st.RngStream(197, 10 + j) for j in range(3)]
        separate = concat_batches([
            st.simulate_bridges(model, anchors[29 * j:29 * (j + 1)], t, steps, s, pinned=pinned)
            for j, s in enumerate(streams)
        ])
        assert separate.contacts.sum() > 0
        # one tile at the default cap; 64 rows -> tiles of 43 and 44, so the
        # second 29-row group straddles them; 5 rows -> 18 tiles of 4 or 5
        for tile_rows in (st.TILE_ROWS, 64, 5):
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            grouped = st.simulate_bridges(model, anchors, t, steps,
                                          [s.generator() for s in streams], pinned=pinned)
            assert_batches_equal(grouped, separate)

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("name", list(PAIRED_MODELS))
    def test_paired_bitwise_equal_to_separate_batches(self, name, regime, pinned, monkeypatch):
        model = PAIRED_MODELS[name]()
        anchors = mixed_anchors(model, 84, 193)
        t, steps = REGIMES[regime]
        streams = [st.RngStream(197, 10 + j) for j in range(3)]
        separate = concat_batches([
            st.simulate_bridges(model, anchors[28 * j:28 * (j + 1)], t, steps, s,
                                pinned=pinned, paired=True)
            for j, s in enumerate(streams)
        ])
        assert separate.contacts.sum() > 0
        # 64 rows -> tiles of 42 rows, so the second 28-row group straddles
        # them; 9 rows -> tiles of 8 or 6, 5 rows -> tiles of 4
        for tile_rows in (st.TILE_ROWS, 64, 9, 5):
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            grouped = st.simulate_bridges(model, anchors, t, steps,
                                          [s.generator() for s in streams], pinned=pinned,
                                          paired=True)
            assert_batches_equal(grouped, separate)

    @pytest.mark.parametrize("paired", [False, True], ids=["independent", "paired"])
    @pytest.mark.parametrize("name", list(PAIRED_MODELS))
    def test_unequal_groups_bitwise_equal_to_separate_batches(self, name, paired, monkeypatch):
        # the pinned loops of local_limit_check's allocated depth nodes
        model = PAIRED_MODELS[name]()
        sizes = [4, 50, 2, 28]
        anchors = mixed_anchors(model, sum(sizes), 193)
        t, steps = REGIMES["fine"]
        streams = [st.RngStream(197, 20 + j) for j in range(len(sizes))]
        bounds = np.cumsum([0] + sizes)
        separate = concat_batches([
            st.simulate_bridges(model, anchors[a:b], t, steps, s, paired=paired)
            for a, b, s in zip(bounds, bounds[1:], streams)
        ])
        assert separate.contacts.sum() > 0
        # 64 rows -> tiles of 42, inside the 50-row group; 9 rows -> tiles of
        # 8 or 9 (8 when paired) that cut groups anywhere; 5 rows -> tiles of
        # 4 or 5, so the 2-row group shares a tile with both neighbours
        for tile_rows in (st.TILE_ROWS, 64, 9, 5):
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            grouped = st.simulate_bridges(model, anchors, t, steps,
                                          [s.generator() for s in streams], paired=paired,
                                          group_rows=sizes)
            assert_batches_equal(grouped, separate)

    @pytest.mark.parametrize("paired", [False, True], ids=["independent", "paired"])
    @pytest.mark.parametrize("name", list(PAIRED_MODELS))
    def test_per_row_lifetimes_bitwise_equal_to_separate_batches(self, name, paired,
                                                                 monkeypatch):
        # the pilots of local_limit_check: the nodes of several lifetimes in one batch
        model = PAIRED_MODELS[name]()
        sizes = [4, 50, 2, 28]
        lifetimes = [0.08, 0.05, 0.05, 0.02]
        anchors = mixed_anchors(model, sum(sizes), 193)
        streams = [st.RngStream(197, 30 + j) for j in range(len(sizes))]
        bounds = np.cumsum([0] + sizes)
        parts = [st.simulate_bridges(model, anchors[a:b], t, 30, s, paired=paired)
                 for a, b, t, s in zip(bounds, bounds[1:], lifetimes, streams)]
        assert sum(p.contacts.sum() for p in parts) > 0
        for tile_rows in (st.TILE_ROWS, 9):
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            grouped = st.simulate_bridges(model, anchors, np.repeat(lifetimes, sizes), 30,
                                          [s.generator() for s in streams], paired=paired,
                                          group_rows=sizes)
            separate = concat_batches(parts)
            separate.t = grouped.t
            assert_batches_equal(grouped, separate)
            assert np.array_equal(grouped.supertraces(),
                                  np.concatenate([p.supertraces() for p in parts]))

    def test_per_row_lifetimes_need_one_per_path(self):
        with pytest.raises(ValueError, match="lifetimes"):
            st.simulate_bridges(disk(), np.zeros((4, 2)), [0.05, 0.02], 10, st.RngStream(1))

    @pytest.mark.parametrize("rows, sizes, paired", [
        (8, [4, 3], False), (8, [8, 0], False), (8, [2, 2, 4], False), (8, [5, 3], True),
    ])
    def test_group_rows_that_do_not_split_raise(self, rows, sizes, paired):
        anchors = np.broadcast_to(np.array([0.5, 0.0]), (rows, 2)).copy()
        gens = [st.RngStream(227, j).generator() for j in range(2)]
        with pytest.raises(ValueError):
            st.simulate_bridges(disk(), anchors, 0.05, 10, gens, paired=paired, group_rows=sizes)

    def test_one_generator_for_two_groups_raises(self):
        # a row group owns its generator, so no generator draws in two processes
        anchors = np.broadcast_to(np.array([0.5, 0.0]), (8, 2)).copy()
        gen = st.RngStream(439).generator()
        with pytest.raises(ValueError, match="two row groups"):
            st.simulate_bridges(disk(), anchors, 0.05, 10, [gen, gen])

    def test_single_generator_in_a_sequence(self):
        model = disk()
        anchors = mixed_anchors(model, 40, 199)
        one = st.simulate_bridges(model, anchors, 0.05, 20, st.RngStream(211, 3))
        seq = st.simulate_bridges(model, anchors, 0.05, 20, [st.RngStream(211, 3)])
        assert np.array_equal(one.lam, seq.lam)
        assert np.array_equal(one.supertraces(), seq.supertraces())

    @pytest.mark.parametrize("rows, count", [(5, 2), (13, 3), (4, 0)])
    def test_unequal_split_raises(self, rows, count):
        model = disk()
        anchors = np.broadcast_to(np.array([0.5, 0.0]), (rows, 2)).copy()
        gens = [st.RngStream(223, j).generator() for j in range(count)]
        with pytest.raises(ValueError):
            st.simulate_bridges(model, anchors, 0.05, 10, gens)

    def test_step_bridge_groups(self):
        model = hemisphere()
        anchors = mixed_anchors(model, 24, 227)
        grouped = st.make_walk_state(model, anchors)
        gens = [st.RngStream(229, j).generator() for j in range(2)]
        d_anchor = model.boundary_distance(anchors)
        info = st.step_bridge(model, grouped, 0.05, anchors, (0.01, 0.1),
                              st._row_streams(gens, 24), d_anchor=d_anchor)
        parts = []
        for j in range(2):
            rows = slice(12 * j, 12 * (j + 1))
            state = st.make_walk_state(model, anchors[rows])
            part = st.step_bridge(model, state, 0.05, anchors[rows], (0.01, 0.1),
                                  st._row_streams(st.RngStream(229, j), 12),
                                  d_anchor=d_anchor[rows])
            parts.append((state, part.idx + 12 * j))
        assert np.array_equal(grouped.x, np.concatenate([s.x for s, _ in parts]))
        assert np.array_equal(grouped.frames, np.concatenate([s.frames for s, _ in parts]))
        assert np.array_equal(info.idx, np.concatenate([idx for _, idx in parts]))


class TestAntitheticFill:
    @pytest.mark.parametrize("sizes", [[2], [6, 6], [28, 28, 28], [2000]])
    def test_odd_rows_negate_even_rows(self, sizes):
        # each group draws its rows / 2 normals in order into its even rows
        # and their exact negations into its odd rows
        rows = sum(sizes)
        streams = st._row_streams([st.RngStream(601, j) for j in range(len(sizes))], rows,
                                  paired=True)
        xi = np.empty((rows, 3))
        streams.fill(xi)
        assert np.array_equal(xi[1::2], -xi[0::2])
        assert np.array_equal(np.signbit(xi[1::2]), ~np.signbit(xi[0::2]))
        expected = [st.RngStream(601, j).generator() for j in range(len(sizes))]
        draws = np.concatenate([g.standard_normal((n // 2, 3)) for g, n in zip(expected, sizes)])
        assert np.array_equal(xi[0::2], draws)
        # and leaves each generator where those draws left it
        assert all(np.array_equal(g.standard_normal(4), e.standard_normal(4))
                   for g, e in zip(streams.gens, expected))

    @pytest.mark.parametrize("pairs", list(range(1, 18)) + [63, 64, 65, 1000])
    def test_spread_pairs(self, pairs):
        rows = np.full((2 * pairs, 2), np.nan)
        rows[pairs:] = np.arange(2.0 * pairs).reshape(pairs, 2) + 1.0
        draws = rows[pairs:].copy()
        noise._spread_pairs(rows)
        assert np.array_equal(rows[0::2], draws)
        assert np.array_equal(rows[1::2], -draws)

    def test_rejects_odd_groups_and_split_pairs(self):
        model = disk()
        with pytest.raises(ValueError, match="antithetic"):
            st.simulate_bridges(model, np.zeros((5, 2)), 0.05, 10, st.RngStream(1), paired=True)
        gens = [st.RngStream(2, j).generator() for j in range(2)]
        with pytest.raises(ValueError, match="antithetic"):
            st.simulate_bridges(model, np.zeros((6, 2)), 0.05, 10, gens, paired=True)
        with pytest.raises(ValueError, match="splits an antithetic pair"):
            st._row_streams(st.RngStream(3), 8, paired=True).tile(slice(0, 3))


# ---------------------------------------------------------------------------
# one boundary query per bridge step
# ---------------------------------------------------------------------------


GEOMETRY_QUERIES = ("geodesic_step", "boundary_distance", "collar_data", "log_frame", "reflect",
                    "boundary_data", "frame_components", "frame_vector")


def spy_on_geometry(model, calls):
    """Record (query, rows) for every geometry query made on this model instance.

    The rows are those of the first array argument; the spies shadow the
    class methods on the instance, so calls one model method makes to
    another are recorded too.
    """
    for name in GEOMETRY_QUERIES:
        def spy(*args, _method=getattr(model, name), _name=name):
            rows = next(a.shape[0] for a in args if isinstance(a, np.ndarray))
            calls.append((_name, rows))
            return _method(*args)
        setattr(model, name, spy)


class TestGeometryQueriesPerStep:
    @pytest.mark.parametrize("name", ["disk", "hemisphere", "sphere-ball-2+1"])
    def test_one_collar_query_per_step(self, name, monkeypatch):
        model = {"disk": disk, "hemisphere": hemisphere,
                 "sphere-ball-2+1": lambda: geo.SphereBall(2, 1)}[name]()
        calls, steps_seen, sphere_steps = [], [], []
        spy_on_geometry(model, calls)
        step, sphere_step = st.step_bridge, geo._sphere_step

        def recording(model, state, *args, **kwargs):
            calls.clear()
            sphere_steps.clear()
            info = step(model, state, *args, **kwargs)
            steps_seen.append((state.x.shape[0], info.idx.size, list(calls), list(sphere_steps)))
            return info

        def sphere_spy(p, *args):
            sphere_steps.append(p.shape[0])
            return sphere_step(p, *args)

        monkeypatch.setattr(st, "step_bridge", recording)
        monkeypatch.setattr(geo, "_sphere_step", sphere_spy)
        st.simulate_bridges(model, mixed_anchors(model, 60, 281), 0.2, 20, st.RngStream(283))
        assert len(steps_seen) == 19
        assert sum(contacts for _, contacts, _, _ in steps_seen) > 0
        for rows, contacts, made, great_circles in steps_seen:
            assert contacts < rows
            # each quantity is asked for at most once per step
            assert len({q for q, _ in made}) == len(made)
            # one great-circle step of the whole batch on a curved model; the
            # contact rows rotate in reflect without a second one
            assert great_circles == ([] if name == "disk" else [rows])
            full = sorted(q for q, r in made if r == rows)
            # the drift's log map, the noise mapped into walk coordinates, the
            # step, and one collar query at the new points; no boundary_distance
            # and no frame_components on the whole batch.  The disk's closed form
            # asks for none of them: its step is x2 = alpha x + beta a + sqrt(h) xi,
            # its distance R - |x2|, and it forms normals on contact rows only
            assert full == ([] if name == "disk" else
                            ["collar_data", "frame_vector", "geodesic_step", "log_frame"])
            on_contacts = sorted(q for q, r in made if r != rows)
            if contacts:
                # reflect from that query's data, which returns the reflected
                # rows' boundary data too, and take the contact normals' frame
                # components there; no second collar query
                assert {r for q, r in made if r != rows} == {contacts}
                assert on_contacts == ["boundary_data", "frame_components", "reflect"]
            else:
                assert on_contacts == []

    @pytest.mark.parametrize("name", ["disk", "hemisphere", "sphere-ball-2+1"])
    def test_held_boundary_data_is_reused(self, name, monkeypatch):
        # the anchors' depth is the start states' depth, so a pinned batch
        # makes no boundary_distance call; a flat contact takes |x| from the
        # depth it is passed.  Only where FlatBall.reflect forms the normals, on
        # a flat ball's own walks, does it take one norm: in float64, of the
        # contact points, since the float32 walk's |x| would leave |nu| - 1 at 6e-8
        model = {"disk": disk, "hemisphere": hemisphere,
                 "sphere-ball-2+1": lambda: geo.SphereBall(2, 1)}[name]()
        rowdots, flat_reflects, inside = [], [], []
        rowdot, flat_reflect = geo._rowdot, geo.FlatBall.reflect

        def rowdot_spy(a, b):
            if inside:
                rowdots.append((a.shape, a.dtype))
            return rowdot(a, b)

        def reflect_spy(self, x, *args):
            flat_reflects.append(x.shape[0])
            inside.append(True)
            try:
                return flat_reflect(self, x, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(geo, "_rowdot", rowdot_spy)
        monkeypatch.setattr(geo.FlatBall, "reflect", reflect_spy)
        calls = []
        spy_on_geometry(model, calls)
        st.simulate_bridges(model, mixed_anchors(model, 60, 281), 0.2, 20, st.RngStream(283))
        assert "boundary_distance" not in {q for q, _ in calls}
        assert any(q == "reflect" for q, _ in calls)
        # the hemisphere rotates its contacts; the ball factors mirror them
        assert (len(flat_reflects) > 0) == (name != "hemisphere")
        normals = [((c, 2), np.float64) for c in flat_reflects] if name == "disk" else []
        assert rowdots == normals


# ---------------------------------------------------------------------------
# the column-major walk state of frame-carrying models
# ---------------------------------------------------------------------------


LAYOUT_MODELS = {
    **{f"cap{n}-aperture{a:.2f}": (lambda n=n, a=a: geo.SphereCap(n, aperture=a))
       for n in (2, 3) for a in (1.0, math.pi / 2, 2.0)},
    "sphere-ball-2+1": lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
    "sphere-ball-2+2": lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=2),
}
FLAT_MODELS = {
    "disk": disk,
    "ball3": ball3,
    "cylinder": lambda: geo.model_catalog("cylinder", length=1.0),
    "sphere-ball-1+2": lambda: geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
}


def assert_columns_contiguous(state):
    """Every coordinate column of x and every entry column of the frames is contiguous."""
    for d in range(state.x.shape[1]):
        assert state.x[:, d].flags.c_contiguous, ("x", d, state.x.strides)
        for a in range(state.frames.shape[2]):
            assert state.frames[:, d, a].flags.c_contiguous, ("frames", d, a, state.frames.strides)


class TestWalkLayout:
    @pytest.mark.parametrize("name", list(LAYOUT_MODELS))
    def test_make_walk_state(self, name):
        model = LAYOUT_MODELS[name]()
        anchors = mixed_anchors(model, 30, 233)
        state = st.make_walk_state(model, anchors)
        assert_columns_contiguous(state)
        # the layout changes no value: the frames are those of the C-order points
        assert np.array_equal(state.x, anchors)
        assert np.array_equal(state.frames, model.initial_frames(anchors))

    @pytest.mark.parametrize("tile_rows", [None, 5])
    @pytest.mark.parametrize("name", list(LAYOUT_MODELS))
    def test_kept_through_steps_reflections_and_snap(self, name, tile_rows, monkeypatch):
        model = LAYOUT_MODELS[name]()
        if tile_rows is not None:
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        checked = {"step_bridge": 0, "snap_to_anchor": 0}

        def checking(fn):
            def step(model, state, *args, **kwargs):
                info = fn(model, state, *args, **kwargs)
                assert_columns_contiguous(state)
                checked[fn.__name__] += 1
                return info
            return step

        for fn in (st.step_bridge, st.snap_to_anchor):
            monkeypatch.setattr(st, fn.__name__, checking(fn))
        tiles = len(st._row_tiles(30))
        batch = st.simulate_bridges(model, mixed_anchors(model, 30, 239), 0.05, 12,
                                    st.RngStream(241))
        assert batch.contacts.sum() > 0  # reflections happened on the way
        assert checked == {"step_bridge": 11 * tiles, "snap_to_anchor": tiles}

    @pytest.mark.parametrize("name", list(FLAT_MODELS))
    def test_flat_walks_keep_c_order(self, name):
        model = FLAT_MODELS[name]()
        anchors = mixed_anchors(model, 20, 251)
        state = st.make_walk_state(model, anchors)
        assert state.frames is None and state.x.flags.c_contiguous
        st.step_bridge(model, state, 0.05, anchors, (0.01, 0.1),
                       st._row_streams(st.RngStream(257), 20),
                       d_anchor=model.boundary_distance(anchors))
        assert state.x.flags.c_contiguous


class TestLayoutEquivalence:
    """A run on row-major walk state gives what the column-major run gives."""

    @staticmethod
    def row_major_run(model, anchors, t, steps, monkeypatch):
        make = st.make_walk_state

        def row_major_state(model, x0):
            state = make(model, x0)
            state.x = np.ascontiguousarray(state.x)
            if state.frames is not None:
                state.frames = np.ascontiguousarray(state.frames)
            return state

        with monkeypatch.context() as patch:
            patch.setattr(st, "make_walk_state", row_major_state)
            return st.simulate_bridges(model, anchors, t, steps, st.RngStream(263))

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("name", list(LAYOUT_MODELS) + list(FLAT_MODELS))
    def test_row_major_matches(self, name, regime, monkeypatch):
        model = {**LAYOUT_MODELS, **FLAT_MODELS}[name]()
        anchors = mixed_anchors(model, 60, 269)
        t, steps = REGIMES[regime]
        new = st.simulate_bridges(model, anchors, t, steps, st.RngStream(263))
        old = self.row_major_run(model, anchors, t, steps, monkeypatch)
        assert new.contacts.sum() > 0
        assert np.array_equal(new.contacts, old.contacts)
        pairs = [(new.lam, old.lam), (new.supertraces(), old.supertraces()), (new.m, old.m)]
        assert new.factor_O.keys() == old.factor_O.keys()
        pairs += [(O, old.factor_O[k]) for k, O in new.factor_O.items()
                  if O is not None or old.factor_O[k] is not None]
        for a, b in pairs:
            if name in FLAT_MODELS:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


class TestStartStateKept:
    """No step writes into a tile's start state, whose x and depth are its pinned anchors."""

    @pytest.mark.parametrize("mode", ["pinned", "free", "paired"])
    @pytest.mark.parametrize("name", list(LAYOUT_MODELS) + list(FLAT_MODELS))
    def test_read_only_start_state(self, name, mode, monkeypatch):
        model = {**LAYOUT_MODELS, **FLAT_MODELS}[name]()
        round_walk = st._round_walk

        def read_only_state(state, dtype):  # the start state, in the walk precision
            round_walk(state, dtype)
            state.x.flags.writeable = state.depth.flags.writeable = False

        monkeypatch.setattr(st, "_round_walk", read_only_state)
        monkeypatch.setattr(st, "TILE_ROWS", 5)
        batch = st.simulate_bridges(model, mixed_anchors(model, 30, 271), 0.05, 12,
                                    st.RngStream(277), pinned=mode != "free",
                                    paired=mode == "paired")
        assert batch.contacts.sum() > 0


# ---------------------------------------------------------------------------
# the walk precision: flat balls step in float32
# ---------------------------------------------------------------------------


PRECISION_MODELS = {"disk": disk, "ball3": ball3}


class TestWalkPrecision:
    """Flat walks step in float32; lam, m and the contact rows leave them in float64."""

    @pytest.mark.parametrize("lifetimes", ["scalar", "per-row"])
    @pytest.mark.parametrize("paired", [False, True], ids=["independent", "paired"])
    @pytest.mark.parametrize("pinned", [True, False], ids=["bridges", "free"])
    @pytest.mark.parametrize("name", list(PRECISION_MODELS))
    def test_steps_stay_float32(self, name, pinned, paired, lifetimes, monkeypatch):
        # a float64 numpy scalar (a root, a lifetime) would promote the step to
        # float64 silently where its results are written into float32 arrays, so
        # no scaling or image pull of a step may mix the two precisions
        model = PRECISION_MODELS[name]()
        mixed, steps = [], []
        scale, pull = geo._scale_columns, st.image_pull

        def scale_spy(x, w, op, out=None):
            if np.result_type(x, w) != x.dtype:
                mixed.append(("_scale_columns", x.dtype, np.result_type(w)))
            return scale(x, w, op, out)

        def pull_spy(ell_nu, gap, remaining):
            if np.result_type(ell_nu, gap, remaining) != np.float32:
                mixed.append(("image_pull", ell_nu.dtype, gap.dtype, np.result_type(remaining)))
            return pull(ell_nu, gap, remaining)

        def check(k, rows, state, info):
            if k < 11:  # the steps; the snap's boundary query runs in float64
                assert state.x.dtype == state.depth.dtype == state.norm.dtype == np.float32
            assert state.lam.dtype == info.dlam.dtype == info.nu.dtype == np.float64
            norms = np.sqrt(geo._rowdot(info.nu, info.nu))
            assert np.abs(norms - 1.0).max(initial=0.0) <= 4e-16
            steps.append(info.idx.size)

        monkeypatch.setattr(geo, "_scale_columns", scale_spy)
        monkeypatch.setattr(st, "image_pull", pull_spy)
        sizes = [24, 36, 60]
        anchors = mixed_anchors(model, sum(sizes), 443)
        t = 0.2 if lifetimes == "scalar" else np.repeat([0.2, 0.08, 0.02], sizes)
        assert model.walk_precision(np.divide(t, 12)) == np.float32
        batch = st.simulate_bridges(model, anchors, t, 12,
                                    [st.RngStream(449, j) for j in range(3)], pinned=pinned,
                                    paired=paired, group_rows=sizes, on_step=check)
        assert len(steps) == 12 and sum(steps) > 0
        assert batch.m.dtype == batch.lam.dtype == np.float64
        assert mixed == []

    @pytest.mark.parametrize("name", list(PRECISION_MODELS))
    def test_boundary_anchors_keep_their_snap_contact(self, name, monkeypatch):
        # an anchor on the boundary rounds to float32 up to 6e-8 r off it, inside
        # or out; the snap reads the anchors' float64 depth, so every such loop
        # ends in a contact and takes its final projection, as in float64
        model = PRECISION_MODELS[name]()
        anchors = model.sample_boundary(np.random.default_rng(461), 64)
        assert np.abs(model.boundary_distance(anchors)).max() <= 1e-15
        snapped = []

        def last(k, rows, state, info):
            if k == 39:
                snapped.append(info.idx)

        batch = st.simulate_bridges(model, anchors, 0.05, 40, st.RngStream(463), on_step=last)
        assert np.array_equal(snapped[0], np.arange(64))
        assert np.abs(model.boundary_distance(anchors.astype(np.float32))).max() > 1e-12
        monkeypatch.setattr(geo.FlatBall, "walk_precision", lambda self, h: np.float64)
        exact = st.simulate_bridges(model, anchors, 0.05, 40, st.RngStream(463))
        assert np.array_equal(batch.contacts, exact.contacts)

    @pytest.mark.parametrize("radius", [1.0, 0.2, 1e-3])
    @pytest.mark.parametrize("pinned", [True, False], ids=["bridges", "free"])
    @pytest.mark.parametrize("name", list(PRECISION_MODELS))
    def test_walks_from_the_centre_stay_valid(self, name, pinned, radius):
        # the centre guards are normal numbers of the walk precision, where
        # 1e-300 rounds to 0 in float32 and |x| = 0 divides by it; below r =
        # 0.25, tiny * r is subnormal in float32 and its reciprocal overflows
        model = geo.FlatBall(PRECISION_MODELS[name]().dimension, radius)
        t = 0.1 * radius**2
        assert model.walk_precision(t / 20) == np.float32
        centre = np.zeros((2, model.dimension), dtype=np.float32)
        assert not model.collar_data(centre)[1].any()
        anchors = np.zeros((32, model.dimension))
        batch = st.simulate_bridges(model, anchors, t, 20, st.RngStream(467), pinned=pinned)
        assert batch.alive.all()
        assert np.isfinite(batch.supertraces()).all()

    def test_float32_only_where_measured(self):
        # u r <= 1e-4 sqrt(h) at the shortest step, and a radius and steps whose
        # squared coordinates are normal float32 numbers; float64 elsewhere
        disk2 = geo.FlatBall(2)
        assert disk2.walk_precision(0.01 / 300) == np.float32  # chi-ball3-points' steps
        assert geo.FlatBall(2, 10.0).walk_precision(0.1 / 2500) == np.float32  # the battery's
        assert disk2.walk_precision(2.0) == np.float32
        assert disk2.walk_precision(1e-10 / 250) == np.float64
        assert disk2.walk_precision(np.array([0.1, 1e-10]) / 250) == np.float64
        assert geo.FlatBall(2, 1e20).walk_precision(1e18) == np.float64
        assert geo.FlatBall(2, 1e-20).walk_precision(1e-42) == np.float64
        assert disk2.walk_precision(2.0**34) == np.float64
        cap = geo.model_catalog("cap", dimension=2, aperture=1.0)
        assert cap.walk_precision(1e-12) == np.float64

    @pytest.mark.parametrize("radius, t", [(1e20, 1e38), (1.0, 1e-10)],
                             ids=["large-radius", "short-steps"])
    def test_walks_outside_the_range_step_in_float64(self, radius, t, monkeypatch):
        # a disk of radius 1e20 overflows float32 squares (|x|^2 > 3.4e38), and
        # at t = 1e-10 a float32 coordinate's rounding is about 10 % of a step:
        # both batches step in float64, bit for bit as float64 flat walks
        model = geo.FlatBall(2, radius)
        anchors = model.sample_collar(np.random.default_rng(479), 64, 3.0 * math.sqrt(t))
        batch = st.simulate_bridges(model, anchors, t, 250, st.RngStream(487))
        assert batch.alive.all() and batch.contacts.sum() > 0
        monkeypatch.setattr(geo.FlatBall, "walk_precision", lambda self, h: np.float64)
        exact = st.simulate_bridges(model, anchors, t, 250, st.RngStream(487))
        assert np.array_equal(batch.contacts, exact.contacts)
        assert np.array_equal(batch.lam, exact.lam) and np.array_equal(batch.m, exact.m)


# ---------------------------------------------------------------------------
# the same equivalences with every batch drawing through the noise helper
# ---------------------------------------------------------------------------


@pytest.fixture
def through_helper(monkeypatch):
    """Every bridge batch draws its normals in the helper process, however small."""
    if not noise._can_fork_helper():
        pytest.skip("this process cannot fork a noise helper")
    monkeypatch.setattr(noise, "HELPER_MIN_NORMALS", 0)


@pytest.mark.usefixtures("through_helper")
class TestTiledBridgesThroughHelper(TestTiledBridges):
    pass


@pytest.mark.usefixtures("through_helper")
class TestGroupedStreamsThroughHelper(TestGroupedStreams):
    pass


@pytest.mark.usefixtures("through_helper")
class TestLayoutEquivalenceThroughHelper(TestLayoutEquivalence):
    pass


@pytest.mark.usefixtures("through_helper")
class TestContactRowsThroughHelper(TestContactRows):
    pass


@pytest.mark.usefixtures("through_helper")
class TestWalkPrecisionThroughHelper(TestWalkPrecision):
    pass
