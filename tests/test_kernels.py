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
from oracles import ball_diag_scipy, mode_table_dense, mode_table_scipy, pair_kernel

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


def cylinder_point(model, s, y):
    """The cylinder's product coordinates of the point at height s in [0, L] and arclength y."""
    r = model.sphere_radius
    return np.array([r * math.cos(y / r), r * math.sin(y / r), s - model.ball_radius])


def cylinder_grid(model, ns, ny):
    """Midpoint grid of ns heights by ny arclengths, and the area of one cell."""
    length, circumference = 2 * model.ball_radius, 2 * math.pi * model.sphere_radius
    s = (np.arange(ns) + 0.5) / ns * length
    y = (np.arange(ny) + 0.5) / ny * circumference
    pts = np.array([cylinder_point(model, si, yi) for si in s for yi in y])
    return pts, (length / ns) * (circumference / ny)


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
                kxy = pair_kernel(model, t, x[i], y[i])[0]
                kyx = pair_kernel(model, t, y[i], x[i])[0]
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
            vals = pair_kernel(model, t, np.broadcast_to(x, pts.shape).copy(), pts)
            total += w_i * r_i * vals.sum() * (2 * math.pi / nphi)
        assert abs(total - 1.0) < 1e-3

    def test_cylinder_mass_is_one(self):
        model = geo.model_catalog("cylinder", length=1.0)
        t = 0.1
        x = cylinder_point(model, 0.3, 1.0)
        pts, cell = cylinder_grid(model, 160, 160)
        vals = pair_kernel(model, t, np.broadcast_to(x, pts.shape).copy(), pts)
        mass = vals.sum() * cell
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
            k1 = pair_kernel(model, s, np.broadcast_to(x, pts.shape).copy(), pts)
            k2 = pair_kernel(model, t, pts, np.broadcast_to(y, pts.shape).copy())
            acc += w_i * r_i * (k1 * k2).sum() * (2 * math.pi / nphi)
        direct = pair_kernel(model, s + t, x, y)[0]
        assert abs(acc - direct) < 1e-4 * max(1.0, direct)

    def test_cylinder_semigroup(self):
        model = geo.model_catalog("cylinder", length=1.0)
        s, t = 0.06, 0.09
        x = cylinder_point(model, 0.25, 0.4)
        y = cylinder_point(model, 0.7, 5.0)
        pts, cell = cylinder_grid(model, 128, 128)
        k1 = pair_kernel(model, s, np.broadcast_to(x, pts.shape).copy(), pts)
        k2 = pair_kernel(model, t, pts, np.broadcast_to(y, pts.shape).copy())
        acc = (k1 * k2).sum() * cell
        direct = pair_kernel(model, s + t, x, y)[0]
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
        k0 = pair_kernel(model, t, z, y[0])[0]
        k1 = pair_kernel(model, t, zp, y[0])[0]
        k2 = pair_kernel(model, t, zpp, y[0])[0]
        deriv = (-3 * k0 + 4 * k1 - k2) / (2 * eps)
        assert abs(deriv) < 1e-4 * max(1.0, abs(k0))


class TestValidityAndErrors:
    def test_tiny_time_raises_with_term_count(self):
        model = geo.model_catalog("ball", dimension=2)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 5e-5, np.array([[0.2, 0.1]]))
        assert "terms); increase t" in str(err.value)

    def test_kernel_info_flags(self):
        exact = hk.kernel_info(geo.model_catalog("ball", dimension=2), 0.05)
        assert exact["exact"] and exact["valid"]
        approx = hk.kernel_info(geo.model_catalog("cap", dimension=2, aperture=1.0), 0.05)
        assert not approx["exact"]

    def test_each_factor_has_its_own_validity_window(self):
        # image sums (interval, circle) hold at every t; a product is valid
        # from the largest limit of its factors
        interval = hk.kernel_info(geo.model_catalog("ball", dimension=1), 1e-5)
        assert interval["t_min"] == 0.0 and interval["valid"]
        sphere2_interval = geo.model_catalog("sphere-ball", sphere_dim=2, ball_dim=1)
        assert sphere2_interval.heat_kernel_spec()["t_min"] == hk.sphere_series_t_min(1.0)
        assert hk.kernel_info(geo.model_catalog("cylinder"), 1e-5)["t_min"] == 0.0
        for dimension in (2, 3):
            ball = geo.model_catalog("ball", dimension=dimension)
            assert ball.heat_kernel_spec()["t_min"] == hk.ball_series_t_min(1.0)
        circle_disk = geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2, ball_radius=2.0)
        assert circle_disk.heat_kernel_spec()["t_min"] == hk.ball_series_t_min(2.0)

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
        ref = pair_kernel(model, t, x[: self.CHECKED], x[: self.CHECKED])
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
        geo.model_catalog("cap", dimension=2, aperture=1.0),
        geo.model_catalog("cap", dimension=3, aperture=2.0),
        geo.model_catalog("ball", dimension=1),
        geo.model_catalog("ball", dimension=4),
        geo.model_catalog("sphere-ball", sphere_dim=1, ball_dim=2),
        geo.model_catalog("sphere-ball", sphere_dim=3, ball_dim=1),
    ], ids=lambda m: repr(m))
    def test_special_diagonal_matches_pair_kernel(self, model, t):
        # each model's diagonal against the pair kernel at interior, collar
        # and boundary points; the pair kernel's sphere angle and distance at
        # (x, x) are exactly 0, so they agree to rounding, and the
        # parametrix (the approximate kernels) bit for bit
        rng = np.random.default_rng(11)
        x = np.concatenate([model.sample_volume(rng, 8), model.sample_collar(rng, 8, 0.05),
                            model.sample_boundary(rng, 4)])
        vals = hk.heat_kernel_diag(model, t, x)
        ref = pair_kernel(model, t, x, x)
        if hk.kernel_info(model, t)["exact"]:
            assert np.abs(vals / ref - 1.0).max() < 2e-15
        else:
            assert np.array_equal(vals, ref)

    def test_tiny_time_raises_through_table(self):
        model = geo.model_catalog("ball", dimension=2)
        x = model.sample_volume(np.random.default_rng(9), 200)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 5e-5, x)
        assert "terms); increase t" in str(err.value)

    @pytest.mark.parametrize("dimension, series", [(2, "disk"), (3, "ball")])
    def test_smallest_time_names_the_series(self, dimension, series):
        # at t = 5e-324 lambda_max overflows to inf: the guard still raises its
        # own error, naming the series and the remedy
        model = geo.model_catalog("ball", dimension=dimension)
        x = model.sample_volume(np.random.default_rng(9), 4)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 5e-324, x)
        assert f"{series} Neumann series" in str(err.value)
        assert "increase t" in str(err.value)

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
        tables = {}
        for x_max in (60.0, 120.0):
            monkeypatch.setattr(hk, "_MODE_CACHE", {})
            tables[x_max] = hk._ball_modes(dim, 1.0, x_max)
        small, large = tables[60.0], tables[120.0]
        keep = large["lam"] <= 60.0
        assert keep.sum() < keep.size
        for key in ("order", "lam", "weight"):
            assert np.array_equal(small[key], large[key][keep]), key

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

    def test_tiny_radii_have_their_own_mode_tables(self, monkeypatch):
        # disks of radius 1e-13 and 3e-13 round to the same 12 decimals;
        # the smaller disk's diagonal reads the same after a call on the
        # larger as cold
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        small, large = geo.FlatBall(2, 1e-13), geo.FlatBall(2, 3e-13)
        centre = np.zeros((1, 2))
        cold = hk.heat_kernel_diag(small, 1e-27, centre)
        hk.heat_kernel_diag(large, 1e-27, centre)
        assert np.array_equal(hk.heat_kernel_diag(small, 1e-27, centre), cold)

    @pytest.mark.parametrize("model", radial_models(), ids=lambda m: repr(m))
    def test_warm_batch_makes_no_bessel_call(self, model, monkeypatch):
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        x = model.sample_volume(np.random.default_rng(13), 1500)
        cold = hk.heat_kernel_diag(model, 0.01, x)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm batch evaluated a Bessel function")

        monkeypatch.setattr(hk, "bessel", forbidden)
        assert np.array_equal(hk.heat_kernel_diag(model, 0.01, x), cold)


def by_order(table):
    """(order, lambda, weight) of each order of a flat mode table."""
    order, lam, weight = table
    cuts = np.flatnonzero(np.diff(order)) + 1
    return [(int(o[0]), l, w) for o, l, w in zip(np.split(order, cuts), np.split(lam, cuts),
                                                 np.split(weight, cuts))]


def scipy_derivative(dim, order, x):
    return special.jvp(order, x) if dim == 2 else special.spherical_jn(order, x, derivative=True)


class TestBessel:
    # scipy and mpmath are the oracles of kernels.bessel over the mode
    # tables' whole range: orders up to 320 (the lambda r = 320 tables end
    # at order 314) and x in (0, 320]

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(17)
        order = rng.integers(0, 320, 20000)
        x = np.concatenate([rng.uniform(0.0, 320.0, 15000),
                            np.clip(order[15000:] + rng.normal(0.0, 10.0, 5000), 1e-6, 320.0)])
        return order, x

    def test_cylindrical_matches_scipy(self, pairs):
        # largest deviations 8.4e-15 (value) and 7.5e-15 (derivative); they
        # are scipy's: on every 100th pair mpmath puts kernels.bessel within
        # 2.3e-16 (below)
        order, x = pairs
        val, der = hk.bessel(order, x)
        assert np.abs(val - special.jv(order, x)).max() <= 1e-14
        assert np.abs(der - special.jvp(order, x)).max() <= 1e-14

    def test_spherical_matches_scipy(self, pairs):
        # largest deviations 9.3e-16 (value) and 2.4e-15 (derivative)
        order, x = pairs
        val, der = hk.bessel(order, x, spherical=True)
        assert np.abs(val - special.spherical_jn(order, x)).max() <= 1e-14
        assert np.abs(der - special.spherical_jn(order, x, derivative=True)).max() <= 1e-14

    def test_matches_mpmath(self, pairs):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        order, x = pairs[0][::100], pairs[1][::100]
        val, der = hk.bessel(order, x)
        sval, sder = hk.bessel(order, x, spherical=True)
        for m, z, v, d, sv, sd in zip(order.tolist(), x.tolist(), val, der, sval, sder):
            assert abs(v - float(mpmath.besselj(m, z))) <= 1e-15
            assert abs(d - float(mpmath.besselj(m, z, 1))) <= 1e-15
            half = mpmath.sqrt(mpmath.pi / (2 * z))
            assert abs(sv - float(half * mpmath.besselj(m + 0.5, z))) <= 1e-15
            exact = half * (mpmath.besselj(m + 0.5, z, 1) - mpmath.besselj(m + 0.5, z) / (2 * z))
            assert abs(sd - float(exact)) <= 1e-15

    @pytest.mark.parametrize("spherical", [False, True])
    def test_small_arguments(self, spherical):
        # at and near x = 0, where high orders underflow on the way to k = 0;
        # mpmath is the oracle, as scipy's j_1'(x) = j_0 - 2 j_1 / x loses
        # 1e-15 to cancellation there
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for m in (0, 1, 2, 5, 40, 319):
            for z in (0.0, 1e-40, 1e-20, 1e-8, 1e-3, 0.5):
                val, der = hk.bessel(m, z, spherical)
                if z == 0.0:
                    ref = (float(m == 0), (1 / 3 if spherical else 0.5) * (m == 1))
                elif spherical:
                    half = mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(z)))
                    j = [half * mpmath.besselj(k + 0.5, mpmath.mpf(z)) for k in (m - 1, m, m + 1)]
                    ref = (j[1], (m * j[0] - (m + 1) * j[2]) / (2 * m + 1))
                else:
                    ref = (mpmath.besselj(m, mpmath.mpf(z)), mpmath.besselj(m, mpmath.mpf(z), 1))
                assert abs(val - float(ref[0])) <= 4.5e-16, (m, z)  # two ulps of 1
                assert abs(der - float(ref[1])) <= 4.5e-16, (m, z)

    def test_values_do_not_depend_on_the_batch(self, pairs):
        order, x = pairs
        whole = hk.bessel(order, x)
        alone = [hk.bessel(order[i], x[i]) for i in range(0, order.size, 997)]
        assert np.array_equal(np.array(alone).T, np.array(whole)[:, ::997])


class TestNeumannZeros:
    T = 0.01

    @pytest.fixture(params=[2, 3], ids=["disk", "ball3"])
    def modes(self, request, monkeypatch):
        # a fresh table built for t = 0.01, not a larger cached one
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        return request.param, hk._ball_modes(request.param, 1.0, hk._lambda_max(self.T))

    def test_roots_are_zeros_of_the_derivative(self, modes):
        dim, table = modes
        assert np.abs(scipy_derivative(dim, table["order"], table["lam"])).max() <= 1e-12

    def test_root_count_matches_sign_scan(self, modes):
        # zeros of R' lie more than 2 apart, so a 0.01 scan of scipy's R'
        # misses none
        dim, table = modes
        grid = np.append(np.arange(0.2, table["x_max"], 0.01), table["x_max"])
        counts = np.bincount(table["order"])
        for l in range(counts.size + 1):
            sgn = np.sign(scipy_derivative(dim, l, grid))
            flips = np.count_nonzero(sgn[:-1] * sgn[1:] < 0)
            assert flips == (counts[l] if l < counts.size else 0), l

    def test_brackets_match_full_grid_scan(self, modes):
        # the scan of each order starts just below m or sqrt(l(l+1));
        # scanning the whole 0.02 grid and bisecting every bracket fully
        # finds the same brackets, hence bitwise the same roots
        dim, table = modes

        def deriv(l, x):
            return hk.bessel(l, x, spherical=dim == 3)[1]

        grid = np.arange(0.2, table["x_max"] + 0.5, 0.02)
        orders = by_order((table["order"], table["lam"], table["weight"]))
        for l, lam, _ in orders:
            sgn = np.sign(deriv(l, grid))
            flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
            roots = hk._bisect_roots(lambda x: deriv(l, x), grid[flips], grid[flips + 1])
            roots = roots[roots <= table["x_max"]]
            assert np.array_equal(np.searchsorted(grid, lam) - 1, flips[: lam.size]), l
            assert np.array_equal(lam, roots), l
        # the first order left out of the table has no zero below x_max
        sgn = np.sign(deriv(orders[-1][0] + 1, grid))
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        assert np.all(grid[flips] > table["x_max"] - 0.02)

    def test_ball3_diagonal_matches_brentq_roots(self):
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


def assert_same_table(table, reference):
    for key, got, ref in zip(("order", "lambda", "weight"), table, reference):
        assert np.array_equal(got, ref), key


def table_x_max(t):
    return max(hk._lambda_max(t), 60.0)  # as _ball_modes builds it


@pytest.fixture(scope="module")
def small_t_tables():
    x_max = table_x_max(0.002)  # about 214
    return {dim: hk._ball_orders(dim, 1.0, x_max) for dim in (2, 3)}


def built_table(dim, t, small_t_tables):
    return small_t_tables[dim] if t == 0.002 else hk._ball_orders(dim, 1.0, table_x_max(t))


class TestModeTables:
    @pytest.mark.parametrize("t", [0.1, 0.02, 0.01, 0.002])
    @pytest.mark.parametrize("dim", [2, 3], ids=["disk", "ball3"])
    def test_table_matches_dense_scan(self, dim, t, small_t_tables):
        # the 0.5 scan with Newton polish reproduces the 0.02 scan with full
        # bisection bit for bit, orders, roots and weights
        reference = mode_table_dense(dim, 1.0, table_x_max(t))
        assert_same_table(built_table(dim, t, small_t_tables), reference)

    @pytest.mark.parametrize("t", [0.1, 0.02, 0.01, 0.002])
    @pytest.mark.parametrize("dim", [2, 3], ids=["disk", "ball3"])
    def test_table_matches_scipy(self, dim, t, small_t_tables):
        # largest deviations over the four t: zeros 4.4e-16 relative,
        # weights 1.8e-13 (disk) and 1.6e-14 (3-ball) relative
        order, lam, weight = built_table(dim, t, small_t_tables)
        ref_order, ref_lam, ref_weight = mode_table_scipy(dim, 1.0, table_x_max(t))
        assert np.array_equal(order, ref_order)
        assert np.abs(lam / ref_lam - 1.0).max() <= 1e-13
        assert np.abs(weight / ref_weight - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3], ids=["disk", "ball3"])
    def test_zeros_lie_more_than_six_scan_steps_apart(self, dim, small_t_tables):
        for order, lam, _ in by_order(small_t_tables[dim]):
            assert np.all(np.diff(lam) > 3.0), order


class TestSmallestTime:
    # ball_series_t_min(1) asks for the largest tables, lambda r = 320

    @pytest.fixture(scope="class")
    def scipy_tables(self):
        return {dim: mode_table_scipy(dim, 1.0, hk._MAX_DIMLESS_FREQ) for dim in (2, 3)}

    @pytest.mark.parametrize("dim", [2, 3], ids=["disk", "ball3"])
    def test_one_point_diagonal_matches_scipy_table(self, dim, scipy_tables, monkeypatch):
        # largest deviations 5.0e-15 (disk) and 6.2e-15 (3-ball) relative
        monkeypatch.setattr(hk, "_MODE_CACHE", {})
        model = geo.model_catalog("ball", dimension=dim)
        t = hk.ball_series_t_min(1.0)
        for rho in (0.0, 0.3, 0.9, 0.99, 1.0):
            x = np.zeros((1, dim))
            x[0, -1] = rho
            val = hk.heat_kernel_diag(model, t, x)[0]
            ref = ball_diag_scipy(scipy_tables[dim], t, dim, 1.0, model.volume, rho)
            assert abs(val / ref - 1.0) <= 1e-12, rho
        (entry,) = hk._MODE_CACHE.values()
        assert entry["x_max"] == pytest.approx(hk._MAX_DIMLESS_FREQ, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3], ids=["disk", "ball3"])
    def test_below_it_the_series_refuses(self, dim):
        model = geo.model_catalog("ball", dimension=dim)
        with pytest.raises(SeriesConvergenceError) as err:
            hk.heat_kernel_diag(model, 0.99 * hk.ball_series_t_min(1.0), np.zeros((1, dim)))
        assert "terms); increase t" in str(err.value)


def test_no_run_loads_scipy_special(tmp_path):
    # estimate-chi and local-limit on the disk, the 3-ball and the
    # hemisphere evaluate every kernel without scipy.special, and no
    # experiment kind loads any part of scipy
    configs = {
        "estimate-chi": "t = 0.1\nbase_points = 4\nbridges = 2\n",
        "local-limit": "point = boundary\nt_sequence = 0.05\nbridges = 4\ndepth_nodes = 2\n",
    }
    models = {"disk": "model = ball\nmodel.dimension = 2\n",
              "ball3": "model = ball\nmodel.dimension = 3\n",
              "hemisphere": "model = hemisphere\nmodel.dimension = 2\n"}
    runs = []
    for name, model in models.items():
        for experiment, text in configs.items():
            cfg = tmp_path / f"{name}-{experiment}.cfg"
            cfg.write_text(model + "steps = 4\nseed = 1\n"
                           f"output_dir = {tmp_path / name}\n" + text)
            runs.append((experiment, str(cfg)))
    for experiment, text in [("calibrate", "dimension = 3\n"),
                             ("cancellation-suite", "dims = 2,3\ninstances = 2\nseed = 1\n"),
                             ("diagnostics", "samples = 20\nseed = 1\n")]:
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(text + f"output_dir = {tmp_path / experiment}\n")
        runs.append((experiment, str(cfg)))
    script = (
        "import sys\n"
        "from gblab import cli\n"
        f"for experiment, cfg in {runs!r}:\n"
        "    assert cli.main([experiment, cfg]) == 0, cfg\n"
        "print('scipy.special' in sys.modules, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"
    for name in models:
        assert json.loads((tmp_path / name / "local-limit.json").read_text())["rows"]
