import math

import numpy as np
import pytest

from gblab import exterior as ext
from gblab import geometry as geo
from gblab import kernels as hk
from gblab import noise
from gblab import stochastic as st
from gblab.errors import NumericalAbortError

from oracles import evolve_transport, path_supertrace


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

    def test_counter_advances_reproducibly(self):
        s = st.RngStream(seed=9, stream=2, counter=5)
        assert np.array_equal(s.generator().standard_normal(8), s.generator().standard_normal(8))

    def test_path_reproducibility(self):
        model = disk()
        x0 = np.array([0.8, 0.0])
        p1 = st.simulate_path(model, x0, 0.05, 60, st.RngStream(5, 1), anchor=x0)
        p2 = st.simulate_path(model, x0, 0.05, 60, st.RngStream(5, 1), anchor=x0)
        assert np.array_equal(p1.positions, p2.positions)
        assert np.array_equal(p1.lam, p2.lam)
        assert np.array_equal(p1.dlam, p2.dlam)


class TestReflectedWalk:
    def test_flat_mean_square_displacement(self):
        # Brownian scaling E|x_t - x_0|^2 = n t before the boundary is felt
        model = ball3()
        t, steps, P = 0.01, 100, 40_000
        starts = np.zeros((P, 3))
        state, _, touched = st.simulate_free_walks(model, starts, t, steps, st.RngStream(11))
        assert touched.mean() == 0.0
        msd = np.einsum("pd,pd->p", state.x, state.x)
        se = msd.std() / math.sqrt(P)
        assert abs(msd.mean() - 3 * t) < 3 * se

    def test_path_sample_local_time_invariants(self):
        # recorded trajectories: lam nondecreasing and increments flagged
        model = disk()
        anchor = np.array([1.0, 0.0])
        path = st.simulate_path(model, anchor, 0.05, 150, st.RngStream(211), anchor=anchor)
        dlam = np.diff(path.lam)
        assert np.all(dlam >= -1e-15)
        assert np.all(dlam[~path.contact] == 0.0)
        assert path.contact.sum() > 0
        grew = dlam > 0
        assert np.all(path.contact[grew])

    def test_local_time_monotone_and_interior_flat(self):
        model = disk()
        starts = np.broadcast_to(np.array([0.97, 0.0]), (200, 2)).copy()
        gen = st.RngStream(13).generator()
        state = st.make_walk_state(model, starts)
        prev = state.lam.copy()
        interior_dlam = 0.0
        for _ in range(200):
            info = st.step_reflected_bm(model, state, 1e-4, gen)
            assert np.all(state.lam >= prev - 1e-15)
            interior = np.ones(len(prev), dtype=bool)
            interior[info.idx] = False
            interior_dlam += np.abs(state.lam[interior] - prev[interior]).sum()
            prev = state.lam.copy()
        assert interior_dlam == 0.0

    def test_local_time_level_matches_half_space_law(self):
        # straight boundary: E[lam_t] from a boundary start must match the
        # half-line value sqrt(2 t / pi); this pins the factor two in the
        # Skorokhod increment (penetration depth alone gives half of it)
        model = geo.model_catalog("cylinder", length=4.0)
        t, steps, P = 0.04, 2000, 20_000
        starts = np.zeros((P, 2))
        starts[:, 1] = 1.0
        state, _, _ = st.simulate_free_walks(model, starts, t, steps, st.RngStream(17))
        target = math.sqrt(2 * t / math.pi)
        ratio = state.lam.mean() / target
        assert abs(ratio - 1.0) < 0.06

    def test_local_time_exponent(self):
        # log-log slope of t -> E lam_t is 1/2 for a boundary start
        model = disk()
        z = np.broadcast_to(np.array([1.0, 0.0]), (6000, 2)).copy()
        ts = np.array([1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1])
        steps_total = 2500
        checkpoints = [int(round(steps_total * ti / ts[-1])) for ti in ts]
        _, lam_at, _ = st.simulate_free_walks(
            model, z, ts[-1], steps_total, st.RngStream(19), checkpoints=set(checkpoints)
        )
        means = np.array([lam_at[c].mean() for c in checkpoints])
        slope = np.polyfit(np.log(ts), np.log(means), 1)[0]
        assert abs(slope - 0.5) < 0.05

    def test_interior_start_rarely_touches(self):
        model = disk()
        d = 0.5
        t = d * d / 100.0
        starts = np.broadcast_to(np.array([1.0 - d, 0.0]), (5000, 2)).copy()
        _, _, touched = st.simulate_free_walks(model, starts, t, 50, st.RngStream(23))
        assert touched.mean() < 0.01


class TestBridge:
    def test_flat_endpoint_snaps_to_anchor(self):
        model = disk()
        anchor = np.array([0.3, -0.2])
        path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(29), anchor=anchor)
        assert np.abs(path.positions[-1] - anchor).max() < 1e-12

    def test_sphere_endpoint_snaps_to_anchor(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(31), anchor=anchor)
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
                kp = hk.neumann_heat_kernel(model, s, zp[0], x[0])
                km = hk.neumann_heat_kernel(model, s, zm[0], x[0])
                grad[a] = (math.log(kp) - math.log(km)) / (2 * eps)
            else:
                bound = model.distance(z, x)[0] / s + 1.0 / math.sqrt(s)
                worst_exact = max(worst_exact, np.linalg.norm(grad) / bound)
                state = st.make_walk_state(model, z)
                g = st.bridge_drift(model, state, x, s)
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
                kp = hk.neumann_heat_kernel(model, s, zp[0], x[0])
                km = hk.neumann_heat_kernel(model, s, zm[0], x[0])
                if kp < 1e-10 or km < 1e-10:
                    usable = False
                    break
                grad[a] = (math.log(kp) - math.log(km)) / (2 * eps)
            if not usable:
                continue
            checked += 1
            state = st.make_walk_state(model, z)
            g = st.bridge_drift(model, state, x, s)[0]
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


def two_well_drift(model, state, anchor, remaining, d_anchor=None):
    """Reference: the reflected drift as an explicit two-well average.

    The direct well pulls toward the anchor, the image well toward the
    anchor's tangent-plane mirror image; each is weighted by its Gaussian
    factor exp(-squared distance / 2s).
    """
    ell = model.log_frame(state.x, state.frames, anchor)
    d_z, nu = model.collar_data(state.x, state.frames)
    if d_anchor is None:
        d_anchor = model.boundary_distance(np.atleast_2d(np.asarray(anchor, dtype=float)))
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

    @pytest.mark.parametrize("with_d_anchor", [True, False])
    @pytest.mark.parametrize("name", list(DRIFT_MODELS))
    def test_matches_two_well_surrogate(self, name, with_d_anchor):
        model = DRIFT_MODELS[name]()
        rng = np.random.default_rng(151)
        P = 400
        # deep-interior and collar points; interior, collar and boundary anchors
        x = np.concatenate([model.sample_volume(rng, P // 2),
                            model.sample_collar(rng, P // 2, 0.1)])
        anchors = np.concatenate([model.sample_volume(rng, P // 2),
                                  model.sample_collar(rng, P // 4, 0.1),
                                  model.sample_boundary(rng, P // 4)])
        d_anchor = model.boundary_distance(anchors) if with_d_anchor else None
        for remaining in (0.3, 0.05, 0.002):
            self.assert_matches_two_well(model, x, anchors, remaining, d_anchor)

    @pytest.mark.parametrize("with_d_anchor", [True, False])
    def test_disk_center_and_boundary_anchor(self, with_d_anchor):
        # at the exact center nu = 0; a boundary anchor has d_anchor = 0
        model = disk()
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.9, 0.0], [0.999, 0.0]])
        anchors = np.array([[0.3, 0.4], [1.0, 0.0], [-0.9, 0.0], [0.0, 1.0]])
        d_anchor = model.boundary_distance(anchors) if with_d_anchor else None
        for remaining in (0.5, 0.05):
            state, new = self.assert_matches_two_well(model, x, anchors, remaining, d_anchor)
            _, nu = model.collar_data(state.x, None)
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
                                anchor=np.array([0.2, 0.1]))
        U, V = evolve_transport(path)
        assert np.array_equal(U.mat, np.eye(4))
        assert np.array_equal(V.mat, np.eye(4))

    def test_inverse_contract(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 200, st.RngStream(59), anchor=anchor)
        U, V = evolve_transport(path)
        assert np.abs((V @ U).mat - np.eye(4)).max() < 1e-8

    def test_ambient_transport_composition(self):
        # tau_{s,t} tau_{0,s} = tau_{0,t} for the ambient frame maps
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.05, 100, st.RngStream(61), anchor=anchor)
        u0, u_mid, u_end = path.frames[0], path.frames[50], path.frames[-1]
        lhs = (u_end @ u_mid.T) @ (u_mid @ u0.T)
        rhs = u_end @ u0.T
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_holonomy_slope_near_one(self):
        # pinned-loop holonomy shrinks linearly with lifetime on the sphere
        model = hemisphere()
        anchor = model.interior_point()
        ts = np.array([1e-3, 1e-2, 1e-1])
        means = []
        for i, t in enumerate(ts):
            anchors = np.broadcast_to(anchor, (1500, 3)).copy()
            batch = st.simulate_bridges(model, anchors, t, 150, st.RngStream(67, i))
            O = batch.factor_O["cap"]
            dev = np.linalg.norm(O - np.eye(2), axis=(1, 2))
            means.append(dev.mean())
        slope = np.polyfit(np.log(ts), np.log(means), 1)[0]
        assert abs(slope - 1.0) < 0.2


class TestFunctional:
    def test_interior_only_flat_path_gives_identity(self):
        model = disk()
        x0 = np.zeros(2)
        path = st.simulate_path(model, x0, 0.01, 40, st.RngStream(71), anchor=x0)
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
            times=np.linspace(0, 0.03, steps + 1),
            positions=np.zeros((steps + 1, 2)),
            frames=None,
            lam=np.array([0.0, 0.3, 0.3, 0.3]),
            contact=np.array([False, True, False]),
            dlam=np.array([0.0, 0.3, 0.0]),
            nu_frame=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
            shape_coeff=np.array([0.0, 1.0, 0.0]),
            valid=True,
        )
        M = st.evolve_functional(path)
        expected = np.diag([1.0, 0.0, math.exp(-0.3), 0.0])
        assert np.abs(M.mat - expected).max() < 1e-12

    def test_normal_projection_annihilated_after_every_contact(self):
        model = disk()
        anchor = np.array([1.0, 0.0])
        path = st.simulate_path(model, anchor, 0.04, 120, st.RngStream(73), anchor=anchor)
        hits = np.nonzero(path.contact)[0]
        assert hits.size > 0
        for k in hits:
            M = st.evolve_functional(path, stop=k + 1)
            _, pi_nor = ext.boundary_projections(path.nu_frame[k])
            assert np.abs((M @ pi_nor).mat).max() < 1e-10

    def test_epsilon_mode_converges_monotonically(self):
        # free reflected paths: every contact carries positive local time,
        # so the penalty mode converges to the projection mode as eps -> 0.
        # (A pinned loop ending exactly on the boundary differs by design:
        # its final zero-local-time tie projects in exact-jump mode but is
        # the identity in the penalty mode.)
        model = disk()
        start = np.array([1.0, 0.0])
        for seed in (79, 80, 81):
            path = st.simulate_path(model, start, 0.04, 150, st.RngStream(seed))
            assert path.contact.sum() >= 3
            M_exact = st.evolve_functional(path, mode="exact-jump")
            gaps = []
            for eps in (1e-1, 1e-2, 1e-3):
                M_eps = st.evolve_functional(path, mode="epsilon", eps=eps)
                gaps.append(np.linalg.norm(M_eps.mat - M_exact.mat, 2))
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-2

    def test_multiplicativity(self):
        for model, anchor in [
            (disk(), np.array([1.0, 0.0])),
            (hemisphere(), geo.model_catalog("hemisphere", dimension=2).boundary_point()),
        ]:
            path = st.simulate_path(model, anchor, 0.05, 100, st.RngStream(83), anchor=anchor)
            mid = 50
            left = st.evolve_functional(path, stop=mid)
            right = st.evolve_functional(path, start=mid)
            full = st.evolve_functional(path)
            assert np.abs((left @ right).mat - full.mat).max() < 1e-8

    def test_degree_zero_block_is_one(self):
        # the degree-0 diagonal of M V is a probability-like mass: exactly
        # one per path, hence nonnegative in expectation
        for model, anchor in [
            (disk(), np.array([1.0, 0.0])),
            (hemisphere(), geo.model_catalog("hemisphere", dimension=2).boundary_point()),
        ]:
            path = st.simulate_path(model, anchor, 0.05, 80, st.RngStream(89), anchor=anchor)
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
        ],
    )
    def test_coupled_noise_agreement(self, model, anchor_kind):
        if model == "disk-boundary":
            m = disk()
        elif model.startswith("hemisphere"):
            m = hemisphere()
        else:
            m = geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2)
        anchor = m.boundary_point() if anchor_kind == "boundary" else m.interior_point()
        for seed in (3, 4, 5):
            stream = st.RngStream(101, seed)
            path = st.simulate_path(m, anchor, 0.05, 60, stream, anchor=anchor)
            batch = st.simulate_bridges(m, anchor[None, :], 0.05, 60, stream)
            fast = batch.supertraces()[0]
            slow = path_supertrace(path)
            assert abs(fast - slow) < 1e-9
            assert abs(batch.lam[0] - path.lam[-1]) < 1e-12


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

    def test_monotone_in_time(self):
        model = disk()
        x = np.array([0.3, 0.0])
        rho = 0.4
        fracs = [
            st.confinement_fraction(model, x, rho, t, 3000, st.RngStream(131, i))
            for i, t in enumerate([rho**2 / 6.0, rho**2 / 25.0, rho**2 / 100.0])
        ]
        se = 2.0 * math.sqrt(0.25 / 3000)
        assert fracs[1] >= fracs[0] - se
        assert fracs[2] >= fracs[1] - se

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


class TestResampleSignal:
    def test_orthogonality_abort(self):
        model = hemisphere()
        anchor = model.interior_point()
        path = st.simulate_path(model, anchor, 0.02, 30, st.RngStream(139), anchor=anchor)
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


def single_batch_bridges(model, anchors, t, steps, rng, *, lam_scale=st.DEFAULT_LAM_SCALE):
    """Reference: the untiled stepping loop, one WalkState for the whole batch.

    Returns the batch and the positions it visited, (steps + 1, P, state_dim).
    """
    gen = st._as_generator(rng)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    state = st.make_walk_state(model, anchors)
    frames0 = None if state.frames is None else state.frames.copy()
    P = anchors.shape[0]
    h = t / steps
    d_anchor = model.boundary_distance(anchors)
    bounded = model.bounded_factor
    m = np.broadcast_to(np.eye(bounded.dim), (P, bounded.dim, bounded.dim)).copy()
    contacts = np.zeros(P, dtype=np.int64)
    excursion = np.zeros(P)
    positions = np.empty((steps + 1, P, model.state_dim))
    positions[0] = state.x
    for k in range(steps):
        remaining = t - k * h
        if k == steps - 1:
            info = st.snap_to_anchor(model, state, anchors, lam_scale)
        else:
            info = st.step_bridge(model, state, remaining, anchors, h, gen,
                                  lam_scale=lam_scale, d_anchor=d_anchor)
        st._jump_update(m, info)
        contacts[info.idx] += 1
        np.maximum(excursion, model.distance(state.x, anchors), out=excursion)
        positions[k + 1] = state.x
    factor_m = {}
    factor_O = {}
    for spec in model.factors:
        factor_m[spec.name] = m if spec.bounded else None
        factor_O[spec.name] = model.holonomy(frames0, state.frames, spec)
    batch = st.BridgeBatch(
        model=model, t=t, steps=steps, anchors=anchors, lam=state.lam.copy(),
        contacts=contacts, alive=state.alive.copy(), factor_m=factor_m,
        factor_O=factor_O, max_excursion=excursion,
    )
    return batch, positions


TILE_MODELS = {**DRIFT_MODELS, "cap3-aperture1": lambda: geo.SphereCap(3, aperture=1.0)}


def mixed_anchors(model, count, seed):
    """Interior, collar and boundary base points, three bridges each."""
    rng = np.random.default_rng(seed)
    k = -(-count // 9)
    pts = np.concatenate([model.sample_volume(rng, k), model.sample_collar(rng, k, 0.2),
                          model.sample_boundary(rng, k)])
    return np.repeat(pts, 3, axis=0)[:count]


def assert_batches_equal(a, b):
    for field in ("lam", "contacts", "alive", "max_excursion"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for factors in ("factor_m", "factor_O"):
        fa, fb = getattr(a, factors), getattr(b, factors)
        assert fa.keys() == fb.keys()
        for name in fa:
            assert (fa[name] is None) == (fb[name] is None), (factors, name)
            if fa[name] is not None:
                assert np.array_equal(fa[name], fb[name]), (factors, name)
    assert np.array_equal(a.supertraces(), b.supertraces())


# the default Skorokhod scale and a smaller one, which changes every local-time
# increment and so every boundary jump's decay factor
LAM_SCALES = [st.DEFAULT_LAM_SCALE, 0.5]


class TestTiledBridges:
    @pytest.mark.parametrize("lam_scale", LAM_SCALES)
    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_bitwise_equal_to_single_batch(self, name, lam_scale, monkeypatch):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 131, 167)
        ref, _ = single_batch_bridges(model, anchors, 0.05, 30, st.RngStream(173, 2),
                                      lam_scale=lam_scale)
        assert ref.contacts.sum() > 0
        # one tile at the default cap; then 64 rows -> 43, 44, 44; then one
        # 5-row tile, 13 rows -> 4, 4, 5 and 131 rows -> 27 tiles of 4 or 5
        cases = [(st.TILE_ROWS, 131), (64, 131), (5, 5), (5, 13), (5, 131)]
        for tile_rows, P in cases:
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            tiled = st.simulate_bridges(model, anchors[:P], 0.05, 30, st.RngStream(173, 2),
                                        lam_scale=lam_scale, track_excursion=True)
            expected = ref if P == 131 else single_batch_bridges(
                model, anchors[:P], 0.05, 30, st.RngStream(173, 2), lam_scale=lam_scale)[0]
            assert_batches_equal(tiled, expected)

    @pytest.mark.parametrize("tile_rows,P,sizes", [(5, 5, [5]), (5, 13, [4, 4, 5]),
                                                   (64, 131, [43, 44, 44]), (64, 128, [64, 64])])
    def test_row_tiles(self, tile_rows, P, sizes, monkeypatch):
        monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        tiles = st._row_tiles(P)
        assert [s.stop - s.start for s in tiles] == sizes
        assert tiles[0].start == 0 and tiles[-1].stop == P
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))


class TestBridgePaths:
    """The positions a bridge visits, read off the reference stepping loop."""

    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_loops_close_stay_inside_and_give_the_excursion(self, name):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 60, 271)
        ref, positions = single_batch_bridges(model, anchors, 0.05, 30, st.RngStream(277))
        assert ref.contacts.sum() > 0
        assert np.abs(positions[-1] - anchors).max() < 1e-9
        assert model.boundary_distance(positions.reshape(-1, model.state_dim)).min() >= -1e-12
        # the engine's excursion is the largest distance to the anchor along the path
        batch = st.simulate_bridges(model, anchors, 0.05, 30, st.RngStream(277),
                                    track_excursion=True)
        dist = np.stack([model.distance(p, anchors) for p in positions])
        assert np.array_equal(batch.max_excursion, dist.max(axis=0))


def full_contact_step(model, state, xi, lam_scale=st.DEFAULT_LAM_SCALE):
    """Reference: one increment with full-size contact arrays, zero off contact."""
    x2, u2 = model.geodesic_step(state.x, state.frames, xi)
    contact = model.boundary_distance(x2) <= 0.0
    dlam = np.zeros(x2.shape[0])
    if contact.any():
        idx = np.nonzero(contact)[0]
        x2[idx], ur, depth = model.reflect(x2[idx], None if u2 is None else u2[idx])
        if u2 is not None:
            u2[idx] = ur
        dlam[idx] = lam_scale * np.maximum(depth, 0.0)
    return (contact, dlam) + full_boundary_data(model, x2, u2, contact)


def full_boundary_data(model, x2, u2, contact):
    """Reference: full-size normal and shape-coefficient arrays, zero off contact."""
    nu = np.zeros((x2.shape[0], model.bounded_factor.dim))
    coeff = np.zeros(x2.shape[0])
    if contact.any():
        idx = np.nonzero(contact)[0]
        nu[idx], coeff[idx] = model.boundary_data(x2[idx], None if u2 is None else u2[idx])
    return nu, coeff


def full_jump_update(m, contact, dlam, nu, coeff):
    """Reference: the jump update reading contact rows out of full-size arrays."""
    idx = np.nonzero(contact)[0]
    if idx.size == 0:
        return
    nu = nu[idx]
    a = coeff[idx]
    dl = dlam[idx]
    sub = m[idx]
    mnu = np.einsum("cij,cj->ci", sub, nu)
    tangential = sub - mnu[:, :, None] * nu[:, None, :]
    decay = np.exp(-a * dl)[:, None, None]
    m[idx] = decay * tangential


class TestContactRows:
    @pytest.mark.parametrize("lam_scale", LAM_SCALES)
    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_rows_match_full_arrays(self, name, lam_scale):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 120, 179)
        xi = 0.08 * np.random.default_rng(181).standard_normal((120, model.dimension))
        xi[:6] = 0.0  # zero steps, boundary points among the anchors stay in contact
        new_state = st.make_walk_state(model, anchors)
        old_state = st.make_walk_state(model, anchors)
        info = st._apply_increment(model, new_state, xi, lam_scale)
        contact, dlam, nu, coeff = full_contact_step(model, old_state, xi, lam_scale)
        assert 0 < info.idx.size < 120
        assert np.array_equal(info.idx, np.flatnonzero(contact))
        assert np.array_equal(info.dlam, dlam[contact])
        assert np.array_equal(info.nu, nu[contact])
        assert np.array_equal(info.coeff, coeff[contact])
        assert np.array_equal(new_state.lam[contact], dlam[contact])
        assert not new_state.lam[~contact].any()
        m_new = np.random.default_rng(191).standard_normal((120,) + (model.bounded_factor.dim,) * 2)
        m_old = m_new.copy()
        st._jump_update(m_new, info)
        full_jump_update(m_old, contact, dlam, nu, coeff)
        assert np.array_equal(m_new, m_old)

    @pytest.mark.parametrize("name", list(TILE_MODELS))
    def test_snap_rows(self, name):
        model = TILE_MODELS[name]()
        anchors = mixed_anchors(model, 60, 193)
        state = st.make_walk_state(model, anchors)
        xi = model.log_frame(state.x, state.frames, anchors)
        x2, u2 = model.geodesic_step(state.x, state.frames, xi)
        contact = model.boundary_distance(x2) <= 1e-12
        nu, coeff = full_boundary_data(model, x2, u2, contact)
        info = st.snap_to_anchor(model, state, anchors)
        assert contact.any()
        assert np.array_equal(info.idx, np.flatnonzero(contact))
        assert np.array_equal(info.dlam, np.zeros(contact.sum()))
        assert np.array_equal(info.nu, nu[contact])
        assert np.array_equal(info.coeff, coeff[contact])

    def test_no_contact_gives_empty_rows(self):
        model = hemisphere()
        x = np.broadcast_to(model.interior_point(), (7, 3)).copy()
        info = st._apply_increment(model, st.make_walk_state(model, x), np.zeros((7, 2)), 2.0)
        assert info.idx.size == info.dlam.size == info.coeff.size == 0
        assert info.nu.shape == (0, model.bounded_factor.dim)


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


def broadcast_flat_drift(model, x, anchor, remaining, *, d_anchor=None):
    """Reference: bridge_drift on a flat ball with per-path [:, None] broadcasts."""
    ell = anchor - x
    d_z, nu = broadcast_collar_data(model, x)
    if d_anchor is None:
        d_anchor = model.boundary_distance(np.atleast_2d(np.asarray(anchor, dtype=float)))
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
            d, nu = model.collar_data(x, None)
            d_old, nu_old = broadcast_collar_data(model, x)
            assert np.array_equal(d, d_old) and np.array_equal(nu, nu_old)
        centre_nu = model.collar_data(inside[-2:], None)[1]
        assert np.array_equal(centre_nu, np.zeros((2, model.dimension)))
        x2, u2, depth = model.reflect(contact, None)
        x_old, _, depth_old = broadcast_reflect(model, contact, None)
        assert u2 is None
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
        for d_anchor in (None, model.boundary_distance(anchors)):
            for remaining in (0.3, 0.002):
                new = st.bridge_drift(model, state, anchors, remaining, d_anchor=d_anchor)
                old = broadcast_flat_drift(model, inside, anchors, remaining, d_anchor=d_anchor)
                assert np.array_equal(new, old)


def concat_batches(parts):
    """The row concatenation of separate bridge batches, as one batch."""
    first = parts[0]

    def join(field):
        return np.concatenate([getattr(p, field) for p in parts])

    def join_factors(field):
        return {name: None if first_value is None else
                np.concatenate([getattr(p, field)[name] for p in parts])
                for name, first_value in getattr(first, field).items()}

    return st.BridgeBatch(
        model=first.model, t=first.t, steps=first.steps, anchors=join("anchors"),
        lam=join("lam"), contacts=join("contacts"), alive=join("alive"),
        factor_m=join_factors("factor_m"), factor_O=join_factors("factor_O"),
        max_excursion=join("max_excursion"),
    )


class TestGroupedStreams:
    @pytest.mark.parametrize("lam_scale", LAM_SCALES)
    @pytest.mark.parametrize("name", list(DRIFT_MODELS))
    def test_bitwise_equal_to_separate_batches(self, name, lam_scale, monkeypatch):
        model = DRIFT_MODELS[name]()
        anchors = mixed_anchors(model, 87, 193)
        streams = [st.RngStream(197, 10 + j) for j in range(3)]
        separate = concat_batches([
            st.simulate_bridges(model, anchors[29 * j:29 * (j + 1)], 0.05, 30, s,
                                lam_scale=lam_scale, track_excursion=True)
            for j, s in enumerate(streams)
        ])
        assert separate.contacts.sum() > 0
        # one tile at the default cap; 64 rows -> tiles of 43 and 44, so the
        # second 29-row group straddles them; 5 rows -> 18 tiles of 4 or 5
        for tile_rows in (st.TILE_ROWS, 64, 5):
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
            grouped = st.simulate_bridges(model, anchors, 0.05, 30,
                                          [s.generator() for s in streams],
                                          lam_scale=lam_scale, track_excursion=True)
            assert_batches_equal(grouped, separate)

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
        state = st.make_walk_state(model, anchors)
        with pytest.raises(ValueError):
            st.step_bridge(model, state, 0.05, anchors, 0.005, gens)

    def test_step_bridge_groups(self):
        model = hemisphere()
        anchors = mixed_anchors(model, 24, 227)
        grouped = st.make_walk_state(model, anchors)
        gens = [st.RngStream(229, j).generator() for j in range(2)]
        info = st.step_bridge(model, grouped, 0.05, anchors, 0.01, gens)
        parts = []
        for j in range(2):
            state = st.make_walk_state(model, anchors[12 * j:12 * (j + 1)])
            part = st.step_bridge(model, state, 0.05, anchors[12 * j:12 * (j + 1)], 0.01,
                                  st.RngStream(229, j).generator())
            parts.append((state, part.idx + 12 * j))
        assert np.array_equal(grouped.x, np.concatenate([s.x for s, _ in parts]))
        assert np.array_equal(grouped.frames, np.concatenate([s.frames for s, _ in parts]))
        assert np.array_equal(info.idx, np.concatenate([idx for _, idx in parts]))


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
        state = st.make_walk_state(model, mixed_anchors(model, 20, 251))
        assert state.frames is None and state.x.flags.c_contiguous
        st.step_bridge(model, state, 0.05, mixed_anchors(model, 20, 251), 0.01, st.RngStream(257))
        assert state.x.flags.c_contiguous


class TestLayoutEquivalence:
    """A run on row-major walk state gives what the column-major run gives."""

    @staticmethod
    def row_major_run(model, anchors, lam_scale, monkeypatch):
        make = st.make_walk_state

        def row_major_state(model, x0):
            state = make(model, x0)
            state.x = np.ascontiguousarray(state.x)
            if state.frames is not None:
                state.frames = np.ascontiguousarray(state.frames)
            return state

        with monkeypatch.context() as patch:
            patch.setattr(st, "make_walk_state", row_major_state)
            patch.setattr(st, "_walk_rows", lambda model, x: x)
            return st.simulate_bridges(model, anchors, 0.05, 30, st.RngStream(263),
                                       lam_scale=lam_scale)

    @pytest.mark.parametrize("lam_scale", LAM_SCALES)
    @pytest.mark.parametrize("name", list(LAYOUT_MODELS) + list(FLAT_MODELS))
    def test_row_major_matches(self, name, lam_scale, monkeypatch):
        model = {**LAYOUT_MODELS, **FLAT_MODELS}[name]()
        anchors = mixed_anchors(model, 60, 269)
        new = st.simulate_bridges(model, anchors, 0.05, 30, st.RngStream(263),
                                  lam_scale=lam_scale)
        old = self.row_major_run(model, anchors, lam_scale, monkeypatch)
        assert new.contacts.sum() > 0
        assert np.array_equal(new.contacts, old.contacts)
        pairs = [(new.lam, old.lam), (new.supertraces(), old.supertraces())]
        for field in ("factor_m", "factor_O"):
            a, b = getattr(new, field), getattr(old, field)
            assert a.keys() == b.keys()
            pairs += [(a[k], b[k]) for k in a if a[k] is not None or b[k] is not None]
        for a, b in pairs:
            if name in FLAT_MODELS:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


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
