import math
import pickle
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gblab import estimator as est
from gblab import geometry as geo
from gblab import kernels as hk
from gblab import stochastic as st
from gblab.errors import CalibrationRankError, ConfigError, NumericalAbortError
from gblab.stochastic import RngStream


@pytest.fixture(scope="module")
def constants2():
    return est.calibrate_constants(2)


@pytest.fixture(scope="module")
def constants3():
    return est.calibrate_constants(3)


class TestCalibration:
    def test_two_dim_classical_constants(self, constants2):
        # bulk and boundary constants reproduce the classical 1/(2 pi)
        # normalizations of the curvature and geodesic-curvature integrals
        assert abs(constants2.bulk * (-4 * math.pi) - 1.0) < 1e-12
        assert abs(constants2.boundary[(0, 1)] * (-2 * math.pi) - 1.0) < 1e-12
        assert max(abs(r) for r in constants2.residuals) < 1e-12

    def test_three_dim_half_ratio(self, constants3):
        assert constants3.d_odd is not None
        assert abs(constants3.e_half - 0.5) < 1e-12

    def test_overdetermined_family_consistent(self, constants3):
        base = est.calibrate_constants(3, [geo.model_catalog("ball", dimension=3)])
        extended = est.calibrate_constants(
            3,
            [
                geo.model_catalog("ball", dimension=3),
                geo.model_catalog("hemisphere", dimension=3),
                geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
                geo.model_catalog("cap", dimension=3, aperture=0.9),
            ],
        )
        assert abs(base.d_odd - extended.d_odd) < 1e-12 * abs(base.d_odd)
        assert max(abs(r) for r in extended.residuals) < 1e-10

    def test_two_dim_overdetermined(self):
        table = est.calibrate_constants(
            2,
            [
                geo.model_catalog("ball", dimension=2),
                geo.model_catalog("hemisphere", dimension=2),
                geo.model_catalog("cap", dimension=2, aperture=1.1),
                geo.model_catalog("cylinder", length=1.0),
            ],
        )
        assert abs(table.bulk + 1.0 / (4 * math.pi)) < 1e-12
        assert max(abs(r) for r in table.residuals) < 1e-10

    def test_disjoint_family_reproduces_the_table(self):
        # calibrating on a family sharing no model with the default one
        # recovers the same constants (model independence)
        defaults = est.calibrate_constants(2)
        disjoint = est.calibrate_constants(
            2,
            [
                geo.model_catalog("cap", dimension=2, aperture=0.8),
                geo.model_catalog("cap", dimension=2, aperture=1.9),
            ],
        )
        assert abs(disjoint.bulk / defaults.bulk - 1.0) < 0.02
        assert abs(disjoint.boundary[(0, 1)] / defaults.boundary[(0, 1)] - 1.0) < 0.02
        d3 = est.calibrate_constants(3)
        d3_disjoint = est.calibrate_constants(
            3, [geo.model_catalog("cap", dimension=3, aperture=0.9)]
        )
        assert abs(d3_disjoint.d_odd / d3.d_odd - 1.0) < 0.02

    def test_rank_deficiency_names_missing_ingredient(self):
        # a family of flat models cannot pin the bulk constant
        with pytest.raises(CalibrationRankError) as err:
            est.calibrate_constants(
                2, [geo.model_catalog("ball", dimension=2), geo.model_catalog("cylinder")]
            )
        assert "bulk" in str(err.value)

    def test_dimension_without_family_raises(self):
        with pytest.raises(CalibrationRankError) as err:
            est.calibrate_constants(4)
        assert "hemisphere" in str(err.value)

    def test_pfaffian_ratio_two(self):
        assert abs(est.pfaffian_ratio(2)[0] + 0.5) < 1e-10
        ratio, cv = est.pfaffian_ratio(4)
        assert cv < 1e-10

    def test_table_serialization(self, constants2):
        d = constants2.to_dict()
        assert d["n"] == 2
        assert "k0_l1" in d["boundary_constants"]
        assert d["family"]


class TestAnalyticIntegrands:
    @pytest.mark.parametrize(
        "name,kw",
        [
            ("ball", dict(dimension=2)),
            ("hemisphere", dict(dimension=2)),
            ("cap", dict(dimension=2, aperture=0.8)),
            ("cap", dict(dimension=2, aperture=2.2)),
            ("cylinder", dict(length=1.3)),
        ],
    )
    def test_two_dim_integrals_recover_chi(self, name, kw, constants2):
        model = geo.model_catalog(name, **kw)
        x = model.sample_volume(np.random.default_rng(0), 4)[0]
        z = model.boundary_point()
        total = (est.local_integrand(model, constants2, x, on_boundary=False) * model.volume
                 + est.local_integrand(model, constants2, z, on_boundary=True)
                 * model.boundary_area)
        assert abs(total - model.euler_characteristic) < 1e-10

    @pytest.mark.parametrize(
        "name,kw",
        [
            ("ball", dict(dimension=3)),
            ("hemisphere", dict(dimension=3)),
            ("cap", dict(dimension=3, aperture=1.0)),
            ("sphere-ball", dict(sphere_dim=1, ball_dim=2)),
        ],
    )
    def test_three_dim_integrals_recover_chi(self, name, kw, constants3):
        model = geo.model_catalog(name, **kw)
        assert est.local_integrand(model, constants3, model.interior_point(),
                                   on_boundary=False) == 0.0
        total = (est.local_integrand(model, constants3, model.boundary_point(), on_boundary=True)
                 * model.boundary_area)
        assert abs(total - model.euler_characteristic) < 1e-10

    def test_disk_boundary_integrand_is_geodesic_curvature_over_two_pi(self, constants2):
        model = geo.model_catalog("ball", dimension=2)
        # unit circle: geodesic curvature one
        value = est.local_integrand(model, constants2, model.boundary_point(), on_boundary=True)
        assert abs(value - 1.0 / (2 * math.pi)) < 1e-12

    def test_hemisphere_bulk_integrand_is_gauss_curvature_over_two_pi(self, constants2):
        model = geo.model_catalog("hemisphere", dimension=2)
        bulk = est.local_integrand(model, constants2, model.interior_point(), on_boundary=False)
        assert abs(bulk - 1.0 / (2 * math.pi)) < 1e-12
        assert abs(est.local_integrand(model, constants2, model.boundary_point(),
                                       on_boundary=True)) < 1e-12

    def test_totally_geodesic_kills_shape_terms(self):
        # every boundary monomial with a shape factor vanishes pointwise on
        # the hemisphere equators
        for n in (2, 3):
            model = geo.model_catalog("hemisphere", dimension=n)
            rng = np.random.default_rng(3)
            for z in model.sample_boundary(rng, 4):
                terms = est.boundary_integrand_terms(model, z)
                for key, value in terms.items():
                    if key[1] >= 1:
                        assert abs(value) < 1e-12

    def test_four_dim_boundary_terms_hand_oracles(self):
        # the n = 4 boundary machinery against hand-computed supertraces:
        # D^4 boundary (umbilic, A = I/r): Str DA^3 = -6 / r^3;
        # S^2 x D^2 boundary (rank-one shape): Str DA^3 = 0 and
        # Str DR_tan DA = 2 kappa_s / r_ball.
        ball4 = geo.model_catalog("ball", dimension=4, radius=1.3)
        terms = est.boundary_integrand_terms(ball4, ball4.boundary_point())
        assert set(terms) == {(0, 3), (1, 1)}
        assert terms[(0, 3)] == pytest.approx(-6.0 / 1.3**3, rel=1e-12)
        assert abs(terms[(1, 1)]) < 1e-12  # flat ambient curvature

        prod = geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=2,
                                 sphere_radius=1.4, ball_radius=0.8)
        rng = np.random.default_rng(5)
        for z in [prod.boundary_point(), *prod.sample_boundary(rng, 3)]:
            terms = est.boundary_integrand_terms(prod, z)
            assert abs(terms[(0, 3)]) < 1e-10
            expected = 2.0 * (1.0 / 1.4**2) * (1.0 / 0.8)
            assert terms[(1, 1)] == pytest.approx(expected, rel=1e-9)
        # the product's bulk supertrace vanishes (flat factor in the product)
        assert abs(est.bulk_supertrace(prod)) < 1e-10

    def test_missing_constants_rejected(self, constants2):
        model = geo.model_catalog("ball", dimension=3)
        for on_boundary, point in ((False, model.interior_point()),
                                   (True, model.boundary_point())):
            with pytest.raises(CalibrationRankError):
                est.local_integrand(model, constants2, point, on_boundary=on_boundary)
            with pytest.raises(CalibrationRankError):
                est.local_integrand(model, None, point, on_boundary=on_boundary)


class TestSupertraceExpectation:
    def test_flat_interior_is_exactly_zero(self):
        model = geo.model_catalog("ball", dimension=2)
        mean, se = est.supertrace_expectation(
            model, np.array([0.1, 0.0]), 0.01, 400, RngStream(3), steps=60
        )
        assert mean == 0.0
        assert se == 0.0

    def test_invalid_final_states_abort(self, monkeypatch):
        # the one-row input check passes; every final state of the bridge batch is invalid
        model = geo.model_catalog("hemisphere", dimension=2)
        monkeypatch.setattr(
            type(model), "simulation_valid", lambda self, x: np.full(x.shape[0], x.shape[0] == 1)
        )
        with pytest.raises(NumericalAbortError, match="100 of 100 bridges"):
            est.supertrace_expectation(
                model, model.interior_point(), 0.01, 100, RngStream(5), steps=30
            )


    def test_hemisphere_pole_matches_the_closed_sphere(self):
        # at t = 0.1 the pole of the 2-hemisphere lies 5 sqrt(t) from the
        # boundary, whose share is about e^{-(pi/2)^2 / 2t} = 4e-6, so E[Str]
        # there is the closed sphere's chi(S^2) / (4 pi p_{S^2}(t; x, x));
        # the seed was fixed before the first run, which read 0.0983411 +-
        # 0.0000104, z = -0.32
        model = geo.model_catalog("hemisphere", dimension=2)
        t = 0.1
        target = 2.0 / (4.0 * math.pi * float(hk.sphere_kernel(t, 2, model.radius, 0.0)))
        assert target == pytest.approx(0.0983444, abs=5e-8)
        mean, se = est.supertrace_expectation(model, model.interior_point(), t, 20000,
                                              RngStream(2019), steps=220)
        assert abs(mean - target) <= 3.0 * se


class TestEstimateChi:
    def test_report_structure_and_determinism(self):
        model = geo.model_catalog("ball", dimension=2)
        kwargs = dict(steps=80)
        r1 = est.estimate_chi(model, 0.08, 24, 60, seed=99, **kwargs)
        r2 = est.estimate_chi(model, 0.08, 24, 60, seed=99, **kwargs)
        assert r1["estimate"] == r2["estimate"]
        assert r1["stderr"] == r2["stderr"]
        assert r1["reference"] == 1.0
        assert abs((r1["ci95"][1] - r1["ci95"][0]) - 2 * 1.96 * r1["stderr"]) < 1e-12
        assert "wall_time_seconds" not in r1
        assert r1["ci95"][0] <= r1["estimate"] <= r1["ci95"][1]
        assert est.estimate_chi(model, 0.08, 24, 60, seed=100, **kwargs)["estimate"] != r1["estimate"]

    def test_multi_chunk_estimate_is_pinned(self, monkeypatch):
        # 30 paths per chunk split 8 base points x 10 bridges into chunks of
        # 3, 3 and 2 anchors, each drawing from its own stream; the pinned
        # bits were re-pinned when estimate_chi began to step antithetic
        # pairs on models without frames, and when flat walks began to step
        # in float32 (moves of 1.2e-7 relative)
        monkeypatch.setattr(est, "CHUNK_PATHS", 30)
        sizes = []
        chunk = est._chi_chunk

        def spy(model, anchors_block, *args):
            sizes.append(len(anchors_block))
            return chunk(model, anchors_block, *args)

        monkeypatch.setattr(est, "_chi_chunk", spy)
        model = geo.model_catalog("ball", dimension=2)
        rep = est.estimate_chi(model, 0.08, 8, 10, seed=7, steps=40)
        assert sizes == [3, 3, 2]
        pinned = [float.fromhex("0x1.8394b90eee5efp-1"), float.fromhex("0x1.84c33a7c835e0p-2")]
        assert np.all(np.abs(np.subtract([rep["estimate"], rep["stderr"]], pinned))
                      <= 1e-12 * np.abs(pinned))

    def test_zero_characteristic_models_are_exact(self):
        for name, kw in [("cylinder", dict(length=1.0)),
                         ("sphere-ball", dict(sphere_dim=1, ball_dim=2))]:
            model = geo.model_catalog(name, **kw)
            rep = est.estimate_chi(model, 0.08, 16, 50, seed=3, steps=60)
            assert rep["estimate"] == 0.0
            assert rep["stderr"] == 0.0

    def test_stratified_and_plain_sampling_agree(self):
        # on the unit disk the 3 sqrt(t) collar covers 99.997 % of the area at
        # t = 0.11, so every base point comes from the whole disk; at t = 0.1
        # it covers 99.74 %, and half of them come from the collar
        model = geo.model_catalog("ball", dimension=2)
        rng = np.random.default_rng(0)
        assert np.all(est._stratified_points(model, 50, 0.11, rng)[1] == model.volume)
        assert np.all(est._stratified_points(model, 50, 0.1, rng)[1] != model.volume)
        r_strat = est.estimate_chi(model, 0.1, 500, 260, seed=31, steps=120)
        r_plain = est.estimate_chi(model, 0.11, 500, 260, seed=32, steps=120)
        gap = abs(r_strat["estimate"] - r_plain["estimate"])
        assert gap < 3.0 * math.hypot(r_strat["stderr"], r_plain["stderr"])

    def test_validity_window_reported(self):
        model = geo.model_catalog("ball", dimension=2)
        rep = est.estimate_chi(model, 0.08, 8, 30, seed=1, steps=40)
        assert rep["validity"]["kernel"]["exact"]
        assert rep["validity"]["t_min_series"] < 0.08 < 1.0
        assert rep["validity"]["t_max_confinement"] > 0.0


class TestLocalLimit:
    def test_flat_interior_rows(self):
        model = geo.model_catalog("ball", dimension=2)
        table = est.local_limit_check(
            model, np.array([0.0, 0.0]), [0.04, 0.02], 200, seed=5, steps=50,
        )
        assert table["point_kind"] == "interior"
        for row in table["rows"]:
            assert row["value"] == 0.0
            assert row["analytic"] == 0.0
            assert row["ratio"] is None

    def test_boundary_point_detection(self):
        model = geo.model_catalog("ball", dimension=2)
        table = est.local_limit_check(
            model, model.boundary_point(), [0.03], 200, seed=6, steps=50, depth_nodes=4,
        )
        assert table["point_kind"] == "boundary"
        assert table["rows"][0]["analytic"] == pytest.approx(1.0 / (2 * math.pi))
        assert table["rows"][0]["t"] == 0.03

    def test_odd_dimension_boundary_limit_level(self, constants3):
        # the collar-integrated layer at a boundary point of the 3-ball
        # approaches the closed Gauss-Bonnet integrand of the boundary
        # sphere (the bridge surrogate carries a known few-percent deficit
        # at this layer thickness, so the band is generous)
        model = geo.model_catalog("ball", dimension=3)
        table = est.local_limit_check(
            model, model.boundary_point(), [0.01], 3000, seed=8, steps=250, depth_nodes=8,
        )
        row = table["rows"][0]
        assert row["analytic"] == pytest.approx(
            constants3.d_odd * (-2.0), rel=1e-12
        )
        assert 0.80 < row["ratio"] < 1.15

    @pytest.mark.parametrize("t_sequence", [[0.04, 0.04, 0.04], [0.04, 0.02, 0.04]])
    def test_no_observed_order_without_three_distinct_lifetimes(self, t_sequence):
        # a slope over log t with fewer than 3 distinct abscissae means nothing
        model = geo.model_catalog("ball", dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = est.local_limit_check(model, model.boundary_point(), t_sequence, 40,
                                          seed=9, steps=20, depth_nodes=2)
        assert len(table["rows"]) == 3
        assert all(row["ratio"] is not None for row in table["rows"])
        assert table["observed_order"] is None


def per_node_rows(model, point, t_sequence, bridges, seed, *, steps, depth_nodes):
    """Reference: local_limit_check's (t, value, stderr, node_bridges) rows, a batch per node and phase.

    Every node steps its pilot and its main phase as batches of their own,
    through supertrace_expectation, on the streams 1000 it + j (main) and
    2**63 + 1000 it + j (pilot).  supertrace_expectation pairs a node's
    bridges by local_limit_check's rule (est._antithetic), so the flat cases
    compare paired nodes (an even bridge count keeps every count even).
    """
    point = np.asarray(point, dtype=float)
    on_boundary = abs(float(model.boundary_distance(point[None, :])[0])) < 1e-9
    unit = 2 if est._antithetic(model, bridges) else 1
    rows = []
    for it, t in enumerate(sorted(t_sequence, reverse=True)):
        points, scale = point[None, :], np.ones(1)
        if on_boundary:
            nodes, gl_weights = np.polynomial.legendre.leggauss(depth_nodes)
            width = min(5.0 * math.sqrt(t), 0.9 * model.confinement_scale())
            depths = 0.5 * width * (nodes + 1.0)
            points = model.offset_from_boundary(np.repeat(point[None, :], depth_nodes, axis=0),
                                                depths)
            scale = 0.5 * width * gl_weights * model.shell_jacobian(depths)
        scale = scale * hk.heat_kernel_diag(model, t, points)
        counts = [bridges] * len(points)
        pilot = est._pilot_loops(len(points), bridges, unit)
        if pilot:
            pilot_se = [est.supertrace_expectation(model, x, t, pilot,
                                                   RngStream(seed, 2**63 + 1000 * it + j),
                                                   steps=steps)[1]
                        for j, x in enumerate(points)]
            main_units = len(points) * (bridges - pilot) // unit
            counts = (unit * est._neyman_units(main_units, np.abs(scale) * pilot_se,
                                               pilot // unit)).tolist()
        value = var = 0.0
        for j, (x, k, count) in enumerate(zip(points, scale, counts)):
            mean, se = est.supertrace_expectation(model, x, t, count,
                                                  RngStream(seed, 1000 * it + j), steps=steps)
            value += k * mean
            var += (abs(k) * se) ** 2
        rows.append((t, float(value), math.sqrt(var), counts))
    return rows


LOCKSTEP_CASES = {
    "disk-boundary": (lambda: geo.model_catalog("ball", dimension=2), "boundary"),
    "ball3-boundary": (lambda: geo.model_catalog("ball", dimension=3), "boundary"),
    "hemisphere-boundary": (lambda: geo.model_catalog("hemisphere", dimension=2), "boundary"),
    "hemisphere-interior": (lambda: geo.model_catalog("hemisphere", dimension=2), "interior"),
}


class TestLockstepNodes:
    # 40 bridges over five nodes: a 4-loop pilot per node (two pairs on the
    # disk), then 180 main loops split unequally.  The default cap puts all
    # nodes of a phase in one batch; at 80 rows the main phase splits into
    # batches by its counts, and 9-row tiles (8 when paired) cut those
    # batches inside nodes
    @pytest.mark.parametrize("cap, tile_rows", [(est.CHUNK_PATHS, None), (80, 9)])
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_equal_to_per_node_loop(self, case, cap, tile_rows, monkeypatch):
        make, kind = LOCKSTEP_CASES[case]
        model = make()
        point = model.boundary_point() if kind == "boundary" else model.interior_point()
        ref = per_node_rows(model, point, [0.03, 0.015], 40, 233, steps=24, depth_nodes=5)
        monkeypatch.setattr(est, "CHUNK_PATHS", cap)
        if tile_rows is not None:
            monkeypatch.setattr(st, "TILE_ROWS", tile_rows)
        table = est.local_limit_check(model, point, [0.015, 0.03], 40, 233, steps=24,
                                      depth_nodes=5)
        assert table["point_kind"] == kind
        assert [(r["t"], r["value"], r["stderr"], r["node_bridges"])
                for r in table["rows"]] == ref
        assert any(r[1] != 0.0 for r in ref)
        if kind == "boundary":
            # unequal counts, some not a multiple of the 8- or 9-row tiles,
            # so some tile holds rows of two nodes
            assert all(len(set(r[3])) > 1 and any(c % 8 for c in r[3]) for r in ref)

    @pytest.mark.parametrize(
        "nodes, bridges, lifetimes, cap, pilot_sizes, pilot, main_sizes, main", [
        (8, 2000, 1, 8000, [8], 250, [4, 4], 1750),
        (8, 2000, 3, 4000, [16, 8], 250, [2] * 4, 1750),  # 24 pilots, then 3 x 8 nodes
        (10, 2000, 1, 8000, [10], 250, [4, 4, 2], 1750),
        (8, 9000, 1, 8000, [7, 1], 1124, [1] * 8, 7876),
        (1, 2000, 1, 8000, [], 0, [1], 2000),
        (5, 40, 1, 80, [5], 4, [2, 2, 1], 36),
        (5, 300, 1, 8000, [5], 36, [5], 264),
        (5, 30, 1, 8000, [], 0, [5], 30),  # a 3-loop pilot cannot hold two pairs
        ])
    def test_lockstep_groups(self, nodes, bridges, lifetimes, cap, pilot_sizes, pilot, main_sizes,
                             main, monkeypatch):
        # consecutive nodes share a batch of at most CHUNK_PATHS loops, one
        # node at least, and each node brings its own generator; the fake
        # pilot measures no spread, so the main phase splits equally
        batches = []

        def node_means(model, points, t, steps, bridges, rng, *, paired):
            batches.append((len(points), len(rng), paired, set(np.asarray(bridges).tolist())))
            return np.zeros(len(points)), np.zeros(len(points))

        monkeypatch.setattr(est, "CHUNK_PATHS", cap)
        monkeypatch.setattr(est, "_node_means", node_means)
        model = geo.model_catalog("ball", dimension=2)
        table = est.local_limit_check(model, model.boundary_point(),
                                      [0.05, 0.04, 0.03][:lifetimes], bridges, 1, steps=4,
                                      depth_nodes=nodes)
        # the disk carries no frames and every count is even: pairs throughout
        assert batches == ([(size, size, True, {pilot}) for size in pilot_sizes]
                           + [(size, size, True, {main}) for size in main_sizes] * lifetimes)
        assert all(row["node_bridges"] == [main] * nodes for row in table["rows"])

    @pytest.mark.parametrize("nodes, dead, bad_value", [
        (2, [20, 21, 22, 23], None),  # node 1 loses 4 of its 20 bridges
        (1, [39], None),  # 2.5 %: a rate the former 5 % resample limit let through
        (2, [], math.nan),
        (2, [], -math.inf),
    ])
    def test_any_invalid_bridge_aborts(self, nodes, dead, bad_value, monkeypatch):
        alive = np.ones(40, dtype=bool)
        alive[dead] = False
        values = np.arange(40.0)
        if bad_value is not None:
            values[7] = bad_value
        batch = SimpleNamespace(alive=alive, supertraces=lambda: values)
        monkeypatch.setattr(est, "simulate_bridges", lambda *args, **kwargs: batch)
        with pytest.raises(NumericalAbortError, match="of 40 bridges at t=0.01"):
            est._node_means(None, np.zeros((nodes, 2)), 0.01, 4, 40 // nodes, [None] * nodes)

    def test_node_means_of_valid_bridges(self, monkeypatch):
        batch = SimpleNamespace(alive=np.ones(40, dtype=bool), supertraces=lambda: np.arange(40.0))
        monkeypatch.setattr(est, "simulate_bridges", lambda *args, **kwargs: batch)
        mean, se = est._node_means(None, np.zeros((2, 2)), 0.01, 4, 20, [None] * 2)
        assert mean.tolist() == [9.5, 29.5]
        assert se[0] == pytest.approx(np.std(np.arange(20.0), ddof=1) / math.sqrt(20))

    def test_node_means_of_pairs(self, monkeypatch):
        # the mean and stderr of 20 bridges in pairs come from their 10 pair means
        batch = SimpleNamespace(alive=np.ones(40, dtype=bool), supertraces=lambda: np.arange(40.0))
        passed = []

        def simulate(*args, paired, group_rows):
            passed.append(paired)
            return batch

        monkeypatch.setattr(est, "simulate_bridges", simulate)
        mean, se = est._node_means(None, np.zeros((2, 2)), 0.01, 4, 20, [None] * 2, paired=True)
        assert passed == [True]
        assert mean.tolist() == [9.5, 29.5]
        pair_means = np.arange(0.5, 20.0, 2.0)
        assert se[0] == pytest.approx(np.std(pair_means, ddof=1) / math.sqrt(10))

    @pytest.mark.parametrize("paired", [False, True])
    def test_node_means_of_unequal_counts(self, paired, monkeypatch):
        # 6, 30 and 4 loops: each node reduces its own consecutive rows, and
        # every node's generator draws exactly its node's rows
        values = np.arange(40.0) ** 2
        batch = SimpleNamespace(alive=np.ones(40, dtype=bool), supertraces=lambda: values)
        passed = []

        def simulate(model, anchors, t, steps, rng, *, paired, group_rows):
            passed.append((len(anchors), list(group_rows)))
            return batch

        monkeypatch.setattr(est, "simulate_bridges", simulate)
        mean, se = est._node_means(None, np.zeros((3, 2)), 0.01, 4, [6, 30, 4], [None] * 3,
                                   paired=paired)
        assert passed == [(40, [6, 30, 4])]
        # two generators, the first drawing the loops of two points
        assert np.array_equal(
            est._node_means(None, np.zeros((3, 2)), 0.01, 4, [6, 30, 4], [None] * 2,
                            paired=paired, group_points=[2, 1])[0], mean)
        assert passed[1] == (40, [36, 4])
        for j, rows in enumerate([values[:6], values[6:36], values[36:]]):
            if paired:
                rows = (rows[0::2] + rows[1::2]) / 2.0
            assert mean[j] == pytest.approx(rows.mean(), rel=1e-15)
            assert se[j] == pytest.approx(np.std(rows, ddof=1) / math.sqrt(rows.size), rel=1e-13)


class TestNeymanAllocation:
    """A pilot measures each depth node's spread; the main phase allocates the rest of the budget."""

    @pytest.mark.parametrize("total, scores, minimum", [
        (7000, [3.1, 5.0, 2.2, 0.4, 0.0, 0.0, 0.0, 0.0], 125),
        (20, [1.0, 0.0, 0.0, 0.0, 0.0], 2),
        (11, [1.0, 1.0, 1.0, 1.0, 1.0], 2),
        (101, [1e-300, 2e-300, 0.0], 3),
        (1000, np.random.default_rng(3).random(37).tolist(), 2),
    ])
    def test_units_spend_the_budget_exactly(self, total, scores, minimum):
        units = est._neyman_units(total, scores, minimum)
        assert units.sum() == total
        assert units.min() >= minimum
        # every node is within one unit of its proportional share of the spare
        spare = total - minimum * len(scores)
        share = spare * np.asarray(scores) / np.sum(scores)
        assert np.all(np.abs(units - minimum - share) < 1.0)

    def test_equal_split_without_spread(self):
        assert est._neyman_units(40, np.zeros(5), 2).tolist() == [8] * 5

    @pytest.mark.parametrize("nodes, bridges, unit, pilot", [
        (8, 2000, 2, 250), (8, 2001, 1, 250), (8, 2002, 2, 250), (1, 2000, 2, 0),
        (5, 30, 2, 0), (5, 32, 2, 4), (5, 15, 1, 0), (5, 16, 1, 2),
    ])
    def test_pilot_loops(self, nodes, bridges, unit, pilot):
        assert est._pilot_loops(nodes, bridges, unit) == pilot

    @pytest.mark.parametrize("bridges, unit", [(100, 2), (101, 1)])
    def test_allocated_counts(self, bridges, unit):
        # paired (even bridges on the disk) every count is even; every node
        # keeps its pilot's count; the main phase spends the budget the pilot left
        model = geo.model_catalog("ball", dimension=2)
        table = est.local_limit_check(model, model.boundary_point(), [0.04, 0.02], bridges, 17,
                                      steps=12, depth_nodes=6)
        pilot = est._pilot_loops(6, bridges, unit)
        assert pilot > 0
        for row in table["rows"]:
            counts = np.array(row["node_bridges"])
            assert counts.sum() == 6 * (bridges - pilot)
            assert np.all(counts % unit == 0)
            assert counts.min() >= pilot
            assert len(set(counts.tolist())) > 1

    def test_equal_split_on_the_cylinder(self):
        # the cylinder's supertraces are all 0, so no node shows a spread
        model = geo.model_catalog("cylinder")
        table = est.local_limit_check(model, model.boundary_point(), [0.04], 40, 19, steps=10,
                                      depth_nodes=4)
        pilot = est._pilot_loops(4, 40, 2)
        assert table["rows"][0]["node_bridges"] == [40 - pilot] * 4
        assert table["rows"][0]["value"] == 0.0

    def test_deterministic_in_the_seed(self):
        model = geo.model_catalog("ball", dimension=2)
        runs = [est.local_limit_check(model, model.boundary_point(), [0.03], 80, seed, steps=12,
                                      depth_nodes=5)["rows"]
                for seed in (23, 23, 24)]
        assert runs[0] == runs[1]
        assert runs[0][0]["node_bridges"] != runs[2][0]["node_bridges"]

    def test_no_pilot_draw_reaches_a_row(self, monkeypatch):
        # given the allocation, the rows do not depend on the pilot's draws:
        # moved to other streams, the pilot measures other spreads, and with
        # the first allocation held the rows stay bitwise the same
        model = geo.model_catalog("ball", dimension=2)
        args = (model, model.boundary_point(), [0.04, 0.02], 80, 29)
        kwargs = {"steps": 12, "depth_nodes": 5}
        neyman_units = est._neyman_units
        scores, moved = [], []

        def spy(total, node_scores, minimum):
            scores.append(np.asarray(node_scores).tolist())
            return neyman_units(total, node_scores, minimum)

        monkeypatch.setattr(est, "_neyman_units", spy)
        first = est.local_limit_check(*args, **kwargs)["rows"]
        allocations = iter([np.array(r["node_bridges"]) // 2 for r in first])

        def held(total, node_scores, minimum):
            moved.append(np.asarray(node_scores).tolist())
            return next(allocations)

        monkeypatch.setattr(est, "PILOT_STREAMS", 1 << 62)
        monkeypatch.setattr(est, "_neyman_units", held)
        assert est.local_limit_check(*args, **kwargs)["rows"] == first
        assert len(moved) == len(scores) == 2
        assert all(a != b for a, b in zip(moved, scores))

    def test_streams_of_a_run(self, monkeypatch):
        # node j of lifetime it: main stream 1000 it + j, pilot 2**63 + 1000 it + j;
        # the pilots of both lifetimes step first, in one batch
        streams = []

        def recording(seed, stream=0):
            streams.append(stream)
            return RngStream(seed, stream)

        monkeypatch.setattr(est, "RngStream", recording)
        model = geo.model_catalog("ball", dimension=2)
        est.local_limit_check(model, model.boundary_point(), [0.04, 0.02], 40, 31, steps=6,
                              depth_nodes=3)
        main = [1000 * it + j for it in range(2) for j in range(3)]
        pilot = [2**63 + s for s in main]
        assert streams == pilot + main

    def test_pilot_streams_never_equal_main_streams(self):
        lifetimes = 40
        main = {est._node_stream(it, j) for it in range(lifetimes)
                for j in range(est.MAX_DEPTH_NODES)}
        pilot = {est._node_stream(it, j, pilot=True) for it in range(lifetimes)
                 for j in range(est.MAX_DEPTH_NODES)}
        assert len(main) == len(pilot) == lifetimes * est.MAX_DEPTH_NODES
        assert not main & pilot
        # every main id stays below 2**63, and every pilot id is a uint64
        assert max(main) < est.PILOT_STREAMS <= min(pilot) and max(pilot) < 2**64

    def test_most_depth_nodes(self):
        # MAX_DEPTH_NODES nodes run, one more is rejected (see TestArgumentRanges)
        model = geo.model_catalog("ball", dimension=2)
        table = est.local_limit_check(model, model.boundary_point(), [0.05, 0.04], 2, 37,
                                      steps=2, depth_nodes=est.MAX_DEPTH_NODES)
        assert [len(r["node_bridges"]) for r in table["rows"]] == [est.MAX_DEPTH_NODES] * 2

    def test_one_kernel_call_per_lifetime(self, monkeypatch):
        calls = []
        diag = hk.heat_kernel_diag

        def spy(model, t, x):
            calls.append((t, len(x)))
            return diag(model, t, x)

        monkeypatch.setattr(hk, "heat_kernel_diag", spy)
        model = geo.model_catalog("ball", dimension=2)
        est.local_limit_check(model, model.boundary_point(), [0.04, 0.02], 40, 41, steps=6,
                              depth_nodes=7)
        assert calls == [(0.04, 7), (0.02, 7)]

    def test_node_diagnostics(self):
        # an interior row lists its one node; a boundary row's node stderrs
        # add in quadrature to its stderr
        model = geo.model_catalog("hemisphere", dimension=2)
        interior = est.local_limit_check(model, model.interior_point(), [0.03], 30, 43,
                                         steps=8)["rows"][0]
        assert interior["node_bridges"] == [30]
        assert interior["node_stderr"] == [interior["stderr"]]
        boundary = est.local_limit_check(model, model.boundary_point(), [0.03], 30, 43, steps=8,
                                         depth_nodes=4)["rows"][0]
        assert len(boundary["node_bridges"]) == len(boundary["node_stderr"]) == 4
        assert math.hypot(*boundary["node_stderr"]) == pytest.approx(boundary["stderr"],
                                                                      rel=1e-12)

    def test_stderr_is_calibrated(self, monkeypatch):
        # 160 replicate seeds of a small disk boundary row: the reported
        # stderr matches the spread of the values, and the mean agrees with
        # the equal split's
        model = geo.model_catalog("ball", dimension=2)
        replicates = 160

        def values():
            rows = [est.local_limit_check(model, model.boundary_point(), [0.02], 96, 4000 + s,
                                          steps=12, depth_nodes=4)["rows"][0]
                    for s in range(replicates)]
            return (np.array([r["value"] for r in rows]), np.array([r["stderr"] for r in rows]))

        neyman, neyman_se = values()
        spread = neyman.std(ddof=1)
        assert 0.85 <= math.sqrt(np.mean(neyman_se ** 2)) / spread <= 1.15
        monkeypatch.setattr(est, "_pilot_loops", lambda nodes, bridges, unit: 0)
        equal, _ = values()
        gap = abs(neyman.mean() - equal.mean())
        assert gap <= 2.0 * math.hypot(spread, equal.std(ddof=1)) / math.sqrt(replicates)


class TestArgumentRanges:
    @pytest.mark.parametrize("kwargs", [
        {"t": 0.0}, {"t": -1.0}, {"t": math.nan}, {"t": math.inf},
        {"seed": -3}, {"seed": 2**64}, {"seed": 1.0},
        {"base_points": 1}, {"base_points": 0}, {"bridges": 0}, {"steps": 1}, {"steps": 0},
    ])
    def test_estimate_chi_rejects(self, kwargs):
        args = {"t": 0.1, "base_points": 4, "bridges": 2, "seed": 1, "steps": 4, **kwargs}
        with pytest.raises(ConfigError):
            est.estimate_chi(geo.model_catalog("ball", dimension=2), **args)

    @pytest.mark.parametrize("kwargs", [
        {"t_sequence": []}, {"t_sequence": [0.05, 0.0]}, {"t_sequence": [-1.0]},
        {"t_sequence": [math.nan]},
        {"seed": -3}, {"seed": 2**64}, {"bridges": 0}, {"steps": 1}, {"steps": 0},
        {"depth_nodes": 0}, {"depth_nodes": est.MAX_DEPTH_NODES + 1},
    ])
    def test_local_limit_check_rejects(self, kwargs):
        model = geo.model_catalog("ball", dimension=2)
        args = {"t_sequence": [0.05], "bridges": 4, "seed": 1, "steps": 4, **kwargs}
        with pytest.raises(ConfigError):
            est.local_limit_check(model, model.boundary_point(), **args)

    @pytest.mark.parametrize("steps", [0, 1, 2.0])
    def test_supertrace_expectation_rejects(self, steps):
        # steps = 0 is a bad grid, not "unset": only None means the default
        model = geo.model_catalog("ball", dimension=2)
        with pytest.raises(ConfigError):
            est.supertrace_expectation(model, model.interior_point(), 0.01, 4, RngStream(1),
                                       steps=steps)

    @pytest.mark.parametrize("point", [[2.0, 0.0], [math.nan, 0.0], [0.3, 0.0, 0.0]],
                             ids=["outside", "nan", "wrong-length"])
    def test_off_model_point_rejected(self, point):
        # outside the unit disk, not finite, or not a point of the plane
        model = geo.model_catalog("ball", dimension=2)
        with pytest.raises(ConfigError):
            est.local_limit_check(model, point, [0.05], 4, 1, steps=4)
        with pytest.raises(ConfigError):
            est.supertrace_expectation(model, point, 0.01, 4, RngStream(1), steps=4)

    @pytest.mark.parametrize("model, point", [
        (geo.SphereCap(2), [0.0, 0.0, 2.0]),
        (geo.SphereCap(2, aperture=1.0), [0.0, 0.0, 1.0 + 1e-6]),
        (geo.SphereCap(3, aperture=1.0), [0.0, 0.0, 0.0, math.inf]),
        (geo.SphereBall(2, 1), [0.0, 0.0, 0.5, 0.2]),
        (geo.SphereBall(2, 1), [0.0, 0.0, 1.0, math.nan]),
        (geo.model_catalog("cylinder"), [0.5, 0.0, 0.25]),
    ], ids=["hemisphere-off", "cap-off", "cap3-inf", "sphere-ball-off", "sphere-ball-nan",
            "cylinder-off"])
    def test_point_off_the_sphere_rejected(self, model, point):
        # the colatitude clips x_axis / r, so the boundary distance alone
        # would accept a point off the embedded sphere
        with pytest.raises(ConfigError, match="off a sphere factor"):
            est.local_limit_check(model, point, [0.05], 50, 1, steps=20)
        with pytest.raises(ConfigError, match="off a sphere factor"):
            est.supertrace_expectation(model, point, 0.01, 4, RngStream(1), steps=4)

    @pytest.mark.parametrize("model, point", [
        (geo.FlatBall(2), [0.3, -0.4]),
        (geo.FlatBall(3, radius=2.0), [0.0, 1.5, 0.0]),
    ], ids=["disk", "ball3"])
    def test_flat_points_unaffected(self, model, point):
        assert est.check_point(model, point).tolist() == point


# estimate_chi(model, 0.1, 200, 6, 1311, steps=100): (estimate, stderr).  The
# first four values come from the broadcast cap stepping code, before its
# columnwise rewrite; the rest from the batch engine that still offered the
# varadhan drift and the epsilon jump, before the single bridge law.  The two
# caps of aperture 1.0 and 2.0 were re-pinned when the sphere log map took its
# angle from atan2 instead of a clipped arccos (a 1e-12 move), the disk and the
# 3-ball when estimate_chi began to step their bridges as antithetic pairs, and
# again when flat walks began to step in float32 (moves of up to 1.3e-6 of a
# stderr).  The six curved values were re-pinned when estimate_chi began to
# draw the loops of the second half of a frame-carrying chunk's base points
# from a stream of their own (new draws: |z| against the exact value moved by
# at most 0.4).
FIXED_SEED_REPORTS = [
    (geo.SphereCap(2), 1.0131124989346818, 0.023989656760435855),
    (geo.SphereCap(3), 1.042654462557346, 0.09768480732458756),
    (geo.SphereCap(2, aperture=1.0), 0.9229069919725222, 0.044352436727339),
    (geo.SphereBall(2, 1), 2.0212302490212783, 0.22652798544128272),
    (geo.FlatBall(2), 0.9410792755929576, 0.08459368345972917),
    (geo.FlatBall(3), 0.9141541446240966, 0.07709390821308405),
    (geo.SphereCap(3, aperture=2.0), 1.0869275389935484, 0.14199473526178089),
    (geo.SphereBall(2, 2), 2.1257044316517213, 0.181227213709453),
]


@pytest.mark.parametrize("model, estimate, stderr", FIXED_SEED_REPORTS,
                         ids=["cap2", "cap3", "cap2-aperture1", "sphere-ball2+1", "disk", "ball3",
                              "cap3-aperture2", "sphere-ball2+2"])
def test_fixed_seed_reports(model, estimate, stderr):
    # the columnwise rewrite only reorders sums over 3 or 4 terms
    report = est.estimate_chi(model, 0.1, 200, 6, 1311, steps=100)
    assert report["estimate"] == pytest.approx(estimate, rel=1e-12, abs=0)
    assert report["stderr"] == pytest.approx(stderr, rel=1e-12, abs=0)


# local_limit_check(model, point, [0.03, 0.015], 60, 307, steps=30,
# depth_nodes=4): (t, value, stderr) rows.  The hemisphere interior rows come
# from the batch engine that still offered the varadhan drift and the epsilon
# jump, before the single bridge law; the boundary rows from the first code
# that weighted the depth nodes by the shell Jacobian and allocated their
# loops from a pilot.  With the Jacobian divided out they agree with the
# rows pinned before (equal split) within 0.6 combined stderr.  The disk and
# 3-ball rows were re-pinned when flat walks began to step in float32 (moves of
# up to 2.5e-5 of a stderr).
FIXED_SEED_LOCAL_LIMIT = {
    "disk-boundary": [(0.03, 0.1661888719429927, 0.005244024909855498),
                      (0.015, 0.16154182020575614, 0.00521958631818256)],
    "ball3-boundary": [(0.03, 0.086692692613152, 0.0062533232409885025),
                       (0.015, 0.07635485699224037, 0.005623223371579697)],
    "hemisphere-boundary": [(0.03, 0.12316458744917232, 0.0006406936425485538),
                            (0.015, 0.09210791984913635, 0.0003985505820073291)],
    "hemisphere-interior": [(0.03, 0.1591622531366704, 7.485956480193188e-05),
                            (0.015, 0.1591137645038968, 2.715686982421182e-05)],
}


@pytest.mark.parametrize("case", list(FIXED_SEED_LOCAL_LIMIT))
def test_fixed_seed_local_limit_rows(case):
    # hemisphere rows moved by up to 1e-13 relative when the per-step
    # Gram-Schmidt went and the sphere step took the half-angle form of
    # cos a - 1; flat stepping is unchanged bit for bit, but the disk and
    # 3-ball kernels' Bessel values have moved by rounding since
    make, kind = LOCKSTEP_CASES[case]
    model = make()
    point = model.boundary_point() if kind == "boundary" else model.interior_point()
    table = est.local_limit_check(model, point, [0.03, 0.015], 60, 307, steps=30,
                                  depth_nodes=4)
    assert table["point_kind"] == kind
    rows = [(r["t"], r["value"], r["stderr"]) for r in table["rows"]]
    pinned = FIXED_SEED_LOCAL_LIMIT[case]
    assert np.all(np.abs(np.subtract(rows, pinned)) <= 1e-12 * np.abs(pinned))


# the disk and 3-ball rows above with independent bridges; the rule is
# patched off, so these draw as unpaired runs do (re-pinned with the shell
# Jacobian and the pilot allocation, like the rows above; without the
# Jacobian they agree with the former pins within 0.6 combined stderr; and
# again, like them, for the float32 flat walks)
FIXED_SEED_INDEPENDENT_ROWS = {
    "disk-boundary": [(0.03, 0.1553617496564414, 0.009841187236248983),
                      (0.015, 0.17468547543513618, 0.010232078808364914)],
    "ball3-boundary": [(0.03, 0.0703481711985127, 0.006710811434480472),
                       (0.015, 0.09029975103669635, 0.012601741921960116)],
}


@pytest.mark.parametrize("case", list(FIXED_SEED_INDEPENDENT_ROWS))
def test_fixed_seed_rows_of_independent_bridges(case, monkeypatch):
    monkeypatch.setattr(est, "_antithetic", lambda model, bridges: False)
    make, kind = LOCKSTEP_CASES[case]
    model = make()
    table = est.local_limit_check(model, model.boundary_point(), [0.03, 0.015], 60, 307,
                                  steps=30, depth_nodes=4)
    rows = [(r["t"], r["value"], r["stderr"]) for r in table["rows"]]
    pinned = FIXED_SEED_INDEPENDENT_ROWS[case]
    assert np.all(np.abs(np.subtract(rows, pinned)) <= 1e-12 * np.abs(pinned))


class TestAntitheticPairs:
    """Bridges of a node step as antithetic pairs on models without frames, at even counts."""

    @pytest.mark.parametrize("make, bridges, paired", [
        (lambda: geo.model_catalog("ball", dimension=2), 20, True),
        (lambda: geo.model_catalog("ball", dimension=2), 21, False),
        (lambda: geo.model_catalog("ball", dimension=3), 2, True),
        (lambda: geo.model_catalog("cylinder"), 20, True),
        (lambda: geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2), 20, True),
        (lambda: geo.model_catalog("hemisphere", dimension=2), 20, False),
        (lambda: geo.SphereCap(2, aperture=1.0), 20, False),
        (lambda: geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1), 20, False),
    ], ids=["disk-even", "disk-odd", "ball3", "cylinder", "sphere1-ball2", "hemisphere",
            "cap2", "sphere2-ball1"])
    def test_rule(self, make, bridges, paired):
        assert est._antithetic(make(), bridges) is paired

    @pytest.mark.parametrize("make, bridges, paired", [
        (lambda: geo.model_catalog("ball", dimension=2), 4, True),
        (lambda: geo.model_catalog("ball", dimension=2), 3, False),
        (lambda: geo.model_catalog("ball", dimension=3), 4, True),
        (lambda: geo.model_catalog("ball", dimension=3), 5, False),
        (lambda: geo.model_catalog("cylinder"), 4, True),
        (lambda: geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2), 4, True),
        (lambda: geo.model_catalog("hemisphere", dimension=2), 4, False),
        (lambda: geo.SphereCap(3, aperture=1.0), 4, False),
    ], ids=["disk-even", "disk-odd", "ball3-even", "ball3-odd", "cylinder", "sphere1-ball2",
            "hemisphere", "cap3"])
    def test_estimate_chi_follows_the_rule(self, make, bridges, paired, monkeypatch):
        flags = []
        node_means = est._node_means

        def spy(*args, **kwargs):
            flags.append(kwargs.get("paired", False))
            return node_means(*args, **kwargs)

        monkeypatch.setattr(est, "_node_means", spy)
        est.estimate_chi(make(), 0.05, 8, bridges, 3, steps=10)
        assert flags == [paired]

    @pytest.mark.parametrize("make, points, expected", [
        (lambda: geo.model_catalog("ball", dimension=2), 7, [(4, 7)]),
        (lambda: geo.model_catalog("hemisphere", dimension=2), 7, [(4, 4), (est.HALF_STREAMS + 4, 3)]),
        (lambda: geo.SphereCap(3, aperture=1.0), 8, [(4, 4), (est.HALF_STREAMS + 4, 4)]),
        (lambda: geo.model_catalog("hemisphere", dimension=2), 1, [(4, 1)]),
    ], ids=["disk", "hemisphere", "cap3", "hemisphere-one-point"])
    def test_chunk_streams(self, make, points, expected):
        # chunk 3: frame-carrying chunks of two or more points draw their
        # second half from a stream above every chunk stream
        assert est._chunk_streams(make(), 3, points) == expected
        assert est.HALF_STREAMS > 2 ** 32  # above every chunk stream ci + 1 of a seed's run

    @pytest.mark.parametrize("name, streams", [
        ("disk", [1]), ("hemisphere", [1, est.HALF_STREAMS + 1]),
    ])
    def test_estimate_chi_draws_from_the_chunk_streams(self, name, streams, monkeypatch):
        model = geo.model_catalog("ball" if name == "disk" else name, dimension=2)
        seen = []
        simulate = est.simulate_bridges

        def spy(model, anchors, t, steps, rng, **kwargs):
            seen.append(([pickle.dumps(g.bit_generator.state) for g in rng],
                         list(kwargs["group_rows"])))
            return simulate(model, anchors, t, steps, rng, **kwargs)

        monkeypatch.setattr(est, "simulate_bridges", spy)
        est.estimate_chi(model, 0.05, 9, 3, 17, steps=10)
        states, groups = seen[0]
        assert len(seen) == 1
        assert states == [pickle.dumps(RngStream(17, s).generator().bit_generator.state)
                          for s in streams]
        assert groups == ([27] if len(streams) == 1 else [15, 12])

    @pytest.mark.parametrize("dimension", [2, 3], ids=["disk", "ball3"])
    def test_paired_and_independent_estimates_agree(self, dimension, monkeypatch):
        # 40 seeds of estimate_chi with paired bridges and with independent
        # ones: both are unbiased, and the root mean square of the paired
        # run's reported stderrs matches the spread of its estimates
        model = geo.model_catalog("ball", dimension=dimension)
        runs = {}
        for paired in (True, False):
            with monkeypatch.context() as patch:
                if not paired:
                    patch.setattr(est, "_antithetic", lambda model, bridges: False)
                reports = [est.estimate_chi(model, 0.1, 40, 8, seed, steps=20)
                           for seed in range(40)]
            runs[paired] = (np.array([r["estimate"] for r in reports]),
                            np.array([r["stderr"] for r in reports]))
        (est_p, se_p), (est_i, _) = runs[True], runs[False]
        combined = math.hypot(est_p.std(ddof=1), est_i.std(ddof=1)) / math.sqrt(len(est_p))
        assert abs(est_p.mean() - est_i.mean()) <= 3.0 * combined
        ratio = math.sqrt(np.mean(se_p ** 2)) / est_p.std(ddof=1)
        assert 0.8 <= ratio <= 1.25

    def test_paired_and_independent_means_agree(self):
        # disk boundary depth nodes at 0, 0.5 and 1 sqrt(t): both estimators
        # are unbiased, and the pairs cut the spread at the boundary anchor
        model = geo.model_catalog("ball", dimension=2)
        t = 0.02
        depths = np.array([0.0, 0.5, 1.0]) * math.sqrt(t)
        points = model.offset_from_boundary(np.repeat(model.boundary_point()[None, :], 3, axis=0),
                                            depths)
        runs = {}
        for paired in (True, False):
            gens = [RngStream(653, 10 * paired + j).generator() for j in range(3)]
            runs[paired] = est._node_means(model, points, t, 60, 2000, gens, paired=paired)
        (m_p, se_p), (m_i, se_i) = runs[True], runs[False]
        assert np.all(np.abs(m_p - m_i) <= 3.0 * np.hypot(se_p, se_i))
        assert se_p[0] < 0.8 * se_i[0]

    def test_paired_stderr_is_calibrated(self):
        # 100 independent replicates of one paired node at the disk's boundary
        # anchor: the reported stderr matches the spread of their means
        model = geo.model_catalog("ball", dimension=2)
        points = np.repeat(model.boundary_point()[None, :], 100, axis=0)
        gens = [RngStream(659, j).generator() for j in range(100)]
        means, ses = est._node_means(model, points, 0.02, 40, 200, gens, paired=True)
        ratio = math.sqrt(np.mean(ses ** 2)) / np.std(means, ddof=1)
        assert 0.8 <= ratio <= 1.25

    # (value, stderr) pinned before the pairing existed: supertrace_expectation
    # at depth 0.05 (t = 0.02, 30 steps, RngStream(641)); then the rows of
    # local_limit_check(model, boundary point, [0.04, 0.02], bridges, 643,
    # steps=24, depth_nodes=3), pinned when the shell Jacobian and the pilot
    # allocation came (without the Jacobian they agree with the rows pinned
    # before within 0.9 combined stderr); the hemisphere's re-pinned when the
    # sphere log map took its angle from atan2, the disk's when reflect began
    # to return the reflected points' boundary data (moves of 1e-14 and 3e-16),
    # the disk's when each path's boundary decay became one exp(-a lam) (3e-16),
    # and the hemisphere's when its points stopped being renormalized each step
    # and its reflection became the normal rotation (moves of up to 7e-15), and
    # the disk's when its step became the closed form x2 = alpha x + beta a +
    # sqrt(h) xi (moves of up to 1.9e-15), and the disk's when its walks began
    # to step in float32 (moves of up to 7.6e-6 of a stderr)
    UNPAIRED = {
        "disk-odd": (21, (0.09505483054690975, 0.01589038861153354),
                     [(0.15188364735065865, 0.02005313500634462),
                      (0.1580842874251669, 0.024633391825803715)]),
        "hemisphere-even": (20, (0.01245979653547662, 0.0009921675613161047),
                            [(0.13934283795503344, 0.0024286085773939778),
                             (0.10616148799036026, 0.001684543309590219)]),
    }

    @pytest.mark.parametrize("case", list(UNPAIRED))
    def test_odd_counts_and_frames_draw_as_before(self, case):
        model = geo.model_catalog("ball" if case.startswith("disk") else "hemisphere",
                                  dimension=2)
        bridges, expectation, rows = self.UNPAIRED[case]
        x = model.offset_from_boundary(model.boundary_point()[None, :], np.array([0.05]))[0]
        assert est.supertrace_expectation(model, x, 0.02, bridges, RngStream(641),
                                          steps=30) == expectation
        table = est.local_limit_check(model, model.boundary_point(), [0.04, 0.02], bridges, 643,
                                      steps=24, depth_nodes=3)
        assert [(r["value"], r["stderr"]) for r in table["rows"]] == rows
