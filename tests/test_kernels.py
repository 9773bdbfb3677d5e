import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from gblab import geometry as geo
from gblab import kernels as hk
from gblab.errors import SeriesConvergenceError
from oracles import ball3_orders_dense, disk_orders_untrimmed

SRC = Path(__file__).resolve().parents[1] / "src"


def models_with_exact_kernels():
    return [
        geo.model_catalog("ball", dimension=2),
        geo.model_catalog("ball", dimension=3),
        geo.model_catalog("hemisphere", dimension=2),
        geo.model_catalog("hemisphere", dimension=3),
        geo.model_catalog("cylinder", length=1.0),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
        geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
    ]


class TestEquilibrium:
    @pytest.mark.parametrize("model", models_with_exact_kernels(), ids=lambda m: repr(m))
    def test_long_time_limit_is_inverse_volume(self, model):
        rng = np.random.default_rng(0)
        x = model.sample_volume(rng, 12)
        t = 60.0 * max(1.0, model.volume)
        vals = hk.heat_kernel_diag(model, t, x)
        assert np.abs(vals * model.volume - 1.0).max() < 1e-8


class TestShortTime:
    @pytest.mark.parametrize("model", models_with_exact_kernels(), ids=lambda m: repr(m))
    def test_interior_diagonal_scaling(self, model):
        # (2 pi t)^{n/2} K(t;x,x) -> 1 at interior points
        rng = np.random.default_rng(1)
        x = model.sample_volume(rng, 200)
        d = model.boundary_distance(x)
        x = x[d > 0.45][:3]
        assert x.shape[0] >= 1
        t = 0.02
        vals = hk.heat_kernel_diag(model, t, x)
        scaled = vals * (2 * math.pi * t) ** (model.dimension / 2)
        assert np.abs(scaled - 1.0).max() < 2e-2

    def test_disk_boundary_doubling(self):
        # near the flat boundary the diagonal approaches the half-space
        # image form (1 + exp(-2 d^2 / t)) (2 pi t)^{-1}
        model = geo.model_catalog("ball", dimension=2)
        t = 0.01
        depths = np.array([0.0, 0.02, 0.05, 0.1, 0.3])
        z = np.stack([1.0 - depths, np.zeros_like(depths)], axis=-1)
        vals = hk.heat_kernel_diag(model, t, z)
        ref = (1.0 + np.exp(-2 * depths**2 / t)) / (2 * math.pi * t)
        assert np.abs(vals / ref - 1.0).max() < 0.05


class TestSymmetryAndPositivity:
    @pytest.mark.parametrize("model", models_with_exact_kernels(), ids=lambda m: repr(m))
    def test_symmetric_and_positive(self, model):
        rng = np.random.default_rng(2)
        x = model.sample_volume(rng, 6)
        y = model.sample_volume(rng, 6)
        for t in (0.05, 0.5):
            for i in range(6):
                kxy = hk.neumann_heat_kernel(model, t, x[i], y[i])
                kyx = hk.neumann_heat_kernel(model, t, y[i], x[i])
                # far-tail values below the series noise floor come out as 0
                assert kxy >= 0
                assert abs(kxy - kyx) < 1e-10 * max(1.0, kxy)


class TestNormalization:
    def test_disk_mass_is_one(self):
        model = geo.model_catalog("ball", dimension=2)
        t = 0.15
        x = np.array([0.35, 0.1])
        # polar quadrature over the disk
        nr, nphi = 80, 128
        nodes, weights = np.polynomial.legendre.leggauss(nr)
        rho = 0.5 * (nodes + 1.0)
        wr = 0.5 * weights
        phi = np.linspace(0.0, 2 * math.pi, nphi, endpoint=False)
        total = 0.0
        for r_i, w_i in zip(rho, wr):
            pts = np.stack([r_i * np.cos(phi), r_i * np.sin(phi)], axis=-1)
            vals = model.neumann_kernel(t, np.broadcast_to(x, pts.shape).copy(), pts)
            total += w_i * r_i * vals.sum() * (2 * math.pi / nphi)
        assert abs(total - 1.0) < 1e-3

    def test_cylinder_mass_is_one(self):
        model = geo.model_catalog("cylinder", length=1.0)
        t = 0.1
        x = np.array([0.3, 1.0])
        ns, ny = 160, 160
        s = (np.arange(ns) + 0.5) / ns * model.length
        y = (np.arange(ny) + 0.5) / ny * model.circumference
        S, Y = np.meshgrid(s, y, indexing="ij")
        pts = np.stack([S.ravel(), Y.ravel()], axis=-1)
        vals = model.neumann_kernel(t, np.broadcast_to(x, pts.shape).copy(), pts)
        mass = vals.sum() * (model.length / ns) * (model.circumference / ny)
        assert abs(mass - 1.0) < 1e-3


class TestChapmanKolmogorov:
    def test_disk_semigroup(self):
        model = geo.model_catalog("ball", dimension=2)
        s, t = 0.08, 0.12
        x = np.array([0.4, 0.0])
        y = np.array([-0.2, 0.3])
        nr, nphi = 64, 96
        nodes, weights = np.polynomial.legendre.leggauss(nr)
        rho = 0.5 * (nodes + 1.0)
        wr = 0.5 * weights
        phi = np.linspace(0.0, 2 * math.pi, nphi, endpoint=False)
        acc = 0.0
        for r_i, w_i in zip(rho, wr):
            pts = np.stack([r_i * np.cos(phi), r_i * np.sin(phi)], axis=-1)
            k1 = model.neumann_kernel(s, np.broadcast_to(x, pts.shape).copy(), pts)
            k2 = model.neumann_kernel(t, pts, np.broadcast_to(y, pts.shape).copy())
            acc += w_i * r_i * (k1 * k2).sum() * (2 * math.pi / nphi)
        direct = hk.neumann_heat_kernel(model, s + t, x, y)
        assert abs(acc - direct) < 1e-4 * max(1.0, direct)

    def test_cylinder_semigroup(self):
        model = geo.model_catalog("cylinder", length=1.0)
        s, t = 0.06, 0.09
        x = np.array([0.25, 0.4])
        y = np.array([0.7, 5.0])
        ns, ny = 128, 128
        ss = (np.arange(ns) + 0.5) / ns * model.length
        yy = (np.arange(ny) + 0.5) / ny * model.circumference
        S, Y = np.meshgrid(ss, yy, indexing="ij")
        pts = np.stack([S.ravel(), Y.ravel()], axis=-1)
        k1 = model.neumann_kernel(s, np.broadcast_to(x, pts.shape).copy(), pts)
        k2 = model.neumann_kernel(t, pts, np.broadcast_to(y, pts.shape).copy())
        acc = (k1 * k2).sum() * (model.length / ns) * (model.circumference / ny)
        direct = hk.neumann_heat_kernel(model, s + t, x, y)
        assert abs(acc - direct) < 1e-4 * max(1.0, direct)


class TestHemisphereBoundary:
    def test_neumann_condition_at_equator(self):
        # normal derivative of the doubled kernel vanishes on the equator
        model = geo.model_catalog("hemisphere", dimension=2)
        t = 0.2
        y = model.sample_volume(np.random.default_rng(3), 1)
        z = model.boundary_point()
        eps = 1e-4
        zp = model.offset_from_boundary(z[None, :], np.array([eps]))[0]
        zpp = model.offset_from_boundary(z[None, :], np.array([2 * eps]))[0]
        k0 = hk.neumann_heat_kernel(model, t, z, y[0])
        k1 = hk.neumann_heat_kernel(model, t, zp, y[0])
        k2 = hk.neumann_heat_kernel(model, t, zpp, y[0])
        deriv = (-3 * k0 + 4 * k1 - k2) / (2 * eps)
        assert abs(deriv) < 1e-4 * max(1.0, abs(k0))


class TestValidityAndErrors:
    def test_tiny_time_raises_with_term_count(self):
        model = geo.model_catalog("ball", dimension=2)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 5e-5, np.array([[0.2, 0.1]]))
        assert err.value.required_terms is not None
        assert err.value.required_terms > 0

    def test_kernel_info_flags(self):
        exact = hk.kernel_info(geo.model_catalog("ball", dimension=2), 0.05)
        assert exact["exact"] and exact["valid"]
        approx = hk.kernel_info(geo.model_catalog("cap", dimension=2, aperture=1.0), 0.05)
        assert not approx["exact"]

    def test_cap_parametrix_positive(self):
        model = geo.model_catalog("cap", dimension=2, aperture=1.0)
        x = model.sample_volume(np.random.default_rng(4), 5)
        vals = hk.heat_kernel_diag(model, 0.05, x)
        assert np.all(vals > 0)


def radial_models():
    return [
        geo.model_catalog("ball", dimension=2),
        geo.model_catalog("ball", dimension=3),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
    ]


def radial_points(model, count):
    """Points whose ball factor sits at rho = 0, at rho = r (on an axis) and in between."""
    x = model.sample_volume(np.random.default_rng(7), count)
    ball = model._ball if isinstance(model, geo.SphereBall) else model
    cols = slice(x.shape[1] - ball.dimension, None)
    x[0, cols] = 0.0
    if count > 1:
        x[1, cols] = 0.0
        x[1, -1] = ball.radius
    return x


class TestRadialDiagonal:
    # batch sizes on both sides of the table / direct-series crossover: a
    # batch under 33 points, or too small for the next grid the table needs
    # (65 nodes at t = 0.01, 129 at t = 0.002), is summed point by point
    SIZES = {0.002: (1, 130), 0.01: (1, 32, 33, 64, 65), 0.1: (1, 32, 33), 1.0: (1, 32, 33)}
    CHECKED = 16  # leading points of each batch compared with the pair series

    @pytest.mark.parametrize("t", sorted(SIZES))
    @pytest.mark.parametrize("model", radial_models(), ids=lambda m: repr(m))
    def test_matches_pair_series(self, model, t):
        x = radial_points(model, max(self.SIZES[t]))
        ref = model.neumann_kernel(t, x[: self.CHECKED], x[: self.CHECKED])
        for size in self.SIZES[t]:
            vals = hk.heat_kernel_diag(model, t, x[:size])[: self.CHECKED]
            assert np.abs(vals / ref[: vals.size] - 1.0).max() < 1e-12, size

    def test_table_is_built_once_per_batch(self, monkeypatch):
        # a 1500-point 3-ball batch at t = 0.01 sums the series only at the
        # 65 nodes of its table, and a second one reads the kept table, as
        # does a 65-point batch; a 40- or 64-point batch sums the 33 nodes of
        # the first grid and then its own points, before the table is kept
        # and after
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        model = geo.model_catalog("ball", dimension=3)
        summed = []
        series = hk._ball_diag_series

        def counting(t, dim, radius, volume, rho):
            summed.append(rho.shape[0])
            return series(t, dim, radius, volume, rho)

        monkeypatch.setattr(hk, "_ball_diag_series", counting)
        x = model.sample_volume(np.random.default_rng(8), 1500)
        counts = []
        for size in (40, 1500, 1500, 40, 64, 65):
            summed.clear()
            hk.heat_kernel_diag(model, 0.01, x[:size])
            counts.append(sum(summed))
        assert counts == [33 + 40, 65, 0, 33 + 40, 33 + 64, 0]

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("model", [
        geo.model_catalog("hemisphere", dimension=2),
        geo.model_catalog("hemisphere", dimension=3),
        geo.model_catalog("cylinder", length=1.0),
        geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1),
    ], ids=lambda m: repr(m))
    def test_special_diagonal_matches_pair_kernel(self, model, t):
        # each model's diagonal against its own pair kernel at interior,
        # collar and boundary points; the pair kernel's sphere angle at
        # (x, x) is exactly 0, so they agree to rounding
        rng = np.random.default_rng(11)
        x = np.concatenate([model.sample_volume(rng, 8), model.sample_collar(rng, 8, 0.05),
                            model.sample_boundary(rng, 4)])
        vals = hk.heat_kernel_diag(model, t, x)
        ref = model.neumann_kernel(t, x, x)
        assert np.abs(vals / ref - 1.0).max() < 2e-15

    def test_tiny_time_raises_through_table(self):
        model = geo.model_catalog("ball", dimension=2)
        x = model.sample_volume(np.random.default_rng(9), 200)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 5e-5, x)
        assert err.value.required_terms > 0

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("model", models_with_exact_kernels()[:4], ids=lambda m: repr(m))
    def test_invalid_time_raises(self, model, t):
        x = model.sample_volume(np.random.default_rng(10), 3)
        with pytest.raises(SeriesConvergenceError):
            hk.heat_kernel_diag(model, t, x)


class TestKeptDiagonalTables:
    # ball_diag keeps each converged table with its mode table; no value may
    # depend on which calls came before

    @pytest.mark.parametrize("dim", [2, 3])
    def test_extended_mode_table_keeps_its_modes(self, dim, monkeypatch):
        # a table rebuilt for a smaller t holds the zeros and weights of the
        # smaller table bit for bit, so a diagonal table summed from either
        # is the same
        orders = {}
        for x_max in (60.0, 120.0):
            monkeypatch.setattr(hk, "_MODE_CACHE", {})
            orders[x_max] = hk._ball_modes(dim, 1.0, x_max)["orders"]
        small, large = orders[60.0], orders[120.0]
        for (order, lam, weight), (large_order, large_lam, large_weight) in zip(small, large):
            keep = large_lam <= 60.0
            assert order == large_order
            assert np.array_equal(lam, large_lam[keep]), order
            assert np.array_equal(weight, large_weight[keep]), order
        assert all(np.all(lam > 60.0) for _, lam, _ in large[len(small):])

    @pytest.mark.parametrize("model", radial_models()[:2], ids=lambda m: repr(m))
    def test_same_bits_after_mode_table_extension(self, model, monkeypatch):
        # a 1500-point batch at t = 0.1 cold, from its kept table, and from a
        # table rebuilt after a t = 0.004 call replaced the mode table
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        x = model.sample_volume(np.random.default_rng(12), 1500)
        cold = hk.heat_kernel_diag(model, 0.1, x)
        (entry,) = hk._MODE_CACHE.values()
        assert list(entry["diag"]) == [0.1]
        warm = hk.heat_kernel_diag(model, 0.1, x)
        hk.heat_kernel_diag(model, 0.004, x[:1])
        (extended,) = hk._MODE_CACHE.values()
        assert extended["x_max"] > entry["x_max"] and extended["diag"] == {}
        rebuilt = hk.heat_kernel_diag(model, 0.1, x)
        assert np.array_equal(warm, cold)
        assert np.array_equal(rebuilt, cold)

    @pytest.mark.parametrize("model", radial_models(), ids=lambda m: repr(m))
    def test_warm_batch_makes_no_bessel_call(self, model, monkeypatch):
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        x = model.sample_volume(np.random.default_rng(13), 1500)
        cold = hk.heat_kernel_diag(model, 0.01, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm batch evaluated a Bessel function")

        monkeypatch.setattr(special, "jv", forbidden)
        monkeypatch.setattr(special, "spherical_jn", forbidden)
        assert np.array_equal(hk.heat_kernel_diag(model, 0.01, x), cold)


class TestBall3NeumannZeros:
    T = 0.01

    @pytest.fixture
    def modes(self, monkeypatch):
        # a fresh table built for t = 0.01, not a larger cached one
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        return hk._ball_modes(3, 1.0, hk._lambda_max(self.T))

    def test_roots_are_zeros_of_the_derivative(self, modes):
        for l, lam, _ in modes["orders"]:
            assert np.abs(special.spherical_jn(l, lam, derivative=True)).max(initial=0.0) <= 1e-12

    def test_root_count_matches_sign_scan(self, modes):
        # zeros of j_l' lie more than 2 apart, so a 0.01 scan misses none
        grid = np.append(np.arange(0.2, modes["x_max"], 0.01), modes["x_max"])
        for l, lam, _ in modes["orders"]:
            sgn = np.sign(special.spherical_jn(l, grid, derivative=True))
            assert lam.size == np.count_nonzero(sgn[:-1] * sgn[1:] < 0), l

    def test_brackets_match_full_grid_scan(self, modes):
        # the scan of each order starts just below sqrt(l(l+1)); scanning the
        # whole grid finds the same brackets, hence bitwise the same roots
        grid = np.arange(0.2, modes["x_max"] + 0.5, 0.02)
        for l, lam, _ in modes["orders"]:
            sgn = np.sign(special.spherical_jn(l, grid, derivative=True))
            flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
            roots = hk._bisect_roots(lambda x: special.spherical_jn(l, x, derivative=True),
                                     grid[flips], grid[flips + 1])
            roots = roots[roots <= modes["x_max"]]
            assert np.array_equal(np.searchsorted(grid, lam) - 1, flips[: lam.size]), l
            assert np.array_equal(lam, roots), l
        # the first order left out of the table has no bracket either
        sgn = np.sign(special.spherical_jn(len(modes["orders"]), grid, derivative=True))
        assert not np.any(sgn[:-1] * sgn[1:] < 0)

    def test_diagonal_matches_brentq_roots(self):
        # K0(0.01; x, x) at rho = 0, .25, .5, .75, .9, .97, 1 from the mode
        # table whose roots were refined one by one with scipy's brentq
        brentq_ref = np.array([
            63.49363593424063, 63.49363593424098, 63.49363593424077, 63.49396061359404,
            73.62273748072805, 123.86872555826515, 135.57718489716555,
        ])
        x = np.zeros((7, 3))
        x[:, 2] = [0.0, 0.25, 0.5, 0.75, 0.9, 0.97, 1.0]
        vals = hk.heat_kernel_diag(geo.model_catalog("ball", dimension=3), self.T, x)
        assert np.abs(vals / brentq_ref - 1.0).max() <= 1e-12


def assert_same_table(orders, reference):
    assert [o[0] for o in orders] == [o[0] for o in reference]
    for (order, lam, weight), (_, ref_lam, ref_weight) in zip(orders, reference):
        assert np.array_equal(lam, ref_lam), order
        assert np.array_equal(weight, ref_weight), order


def table_x_max(t):
    return max(hk._lambda_max(t), 60.0)  # as _ball_modes builds it


@pytest.fixture(scope="module")
def small_t_tables():
    x_max = table_x_max(0.002)  # about 214
    return {"disk": hk._disk_orders(1.0, x_max), "ball3": hk._ball3_orders(1.0, x_max)}


class TestModeTables:
    @pytest.mark.parametrize("t", [0.1, 0.02, 0.01, 0.002])
    def test_disk_table_matches_untrimmed_zeros(self, t, small_t_tables):
        x_max = table_x_max(t)
        orders = small_t_tables["disk"] if t == 0.002 else hk._disk_orders(1.0, x_max)
        assert_same_table(orders, disk_orders_untrimmed(1.0, x_max))

    @pytest.mark.parametrize("t", [0.1, 0.02, 0.01, 0.002])
    def test_ball3_table_matches_dense_scan(self, t, small_t_tables):
        # the 0.5 scan with Newton polish reproduces the 0.02 scan with full
        # bisection bit for bit, orders, roots and weights
        x_max = table_x_max(t)
        orders = small_t_tables["ball3"] if t == 0.002 else hk._ball3_orders(1.0, x_max)
        reference = ball3_orders_dense(1.0, x_max)
        if t == 0.01:
            # order 92's first zero lies just past x_max: it keeps an empty entry
            assert reference[-1][0] == 92 and reference[-1][1].size == 0
        assert_same_table(orders, reference)

    @pytest.mark.parametrize("kind", ["disk", "ball3"])
    def test_zeros_lie_more_than_six_scan_steps_apart(self, kind, small_t_tables):
        for order, lam, _ in small_t_tables[kind]:
            assert np.all(np.diff(lam) > 3.0), order


def test_only_bessel_models_load_scipy_special(tmp_path):
    configs = {
        "estimate-chi": "t = 0.1\nbase_points = 4\nbridges = 2\n",
        "local-limit": "point = boundary\nt_sequence = 0.05\nbridges = 4\ndepth_nodes = 2\n",
    }
    for experiment, text in configs.items():
        (tmp_path / f"{experiment}.cfg").write_text(
            "model = hemisphere\nmodel.dimension = 2\nsteps = 4\nseed = 1\n"
            f"output_dir = {tmp_path / 'out'}\n" + text)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from gblab import cli, geometry as geo, kernels as hk\n"
        f"for experiment in {list(configs)!r}:\n"
        f"    assert cli.main([experiment, {str(tmp_path)!r} + '/' + experiment + '.cfg']) == 0\n"
        "hemisphere_runs = 'scipy.special' in sys.modules\n"
        "hk.heat_kernel_diag(geo.model_catalog('ball', dimension=2), 0.1, np.zeros(2))\n"
        "print(hemisphere_runs, 'scipy.special' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False True"
    assert json.loads((tmp_path / "out" / "local-limit.json").read_text())["rows"]
