"""Polar charts of the catalog models, for checks against finite differences.

A point maps to the chart of its sphere factor, then the flat coordinates
unchanged.  The sphere factor of a spherical cap or of a sphere-ball
product is charted by the angle phi (dimension 1), the colatitude theta
and the azimuth phi (dimension 2), or theta and the polar angles phi1,
phi2 (dimension 3); the cylinder is sphere-ball(1, 1), so its circle is
charted by phi.  Flat balls have no sphere factor: their chart is the
identity.  The metric is diagonal: r^2, r^2 sin^2 theta,
r^2 sin^2 theta sin^2 phi1 on the sphere block and ones on the flat block.
"""

import numpy as np

from gblab import geometry as geo

# chart-singularity zone around the poles of the colatitude (radians)
POLE_EXCLUSION = 1e-6


def _sphere_factor(model):
    """(radius, dimension) of the sphere factor; dimension 0 when there is none."""
    if isinstance(model, geo.SphereBall):
        return model.sphere_radius, model.sphere_dim
    if isinstance(model, geo.SphereCap):
        return model.radius, model.dimension
    return 1.0, 0


def valid(model, x):
    """Points of x away from the polar axis, where the chart is regular."""
    r, l = _sphere_factor(model)
    if l < 2:
        return np.ones(x.shape[0], dtype=bool)
    theta = np.arccos(np.clip(x[:, l] / r, -1.0, 1.0))
    return (theta > POLE_EXCLUSION) & (theta < np.pi - POLE_EXCLUSION)


def chart(model, x):
    """Polar coordinates of embedded points x (P, state_dim) -> (P, dimension)."""
    r, l = _sphere_factor(model)
    if l == 0:
        return np.array(x, copy=True)
    ps, flat = x[:, : l + 1], x[:, l + 1 :]
    if l == 1:
        return np.column_stack([np.arctan2(ps[:, 1], ps[:, 0]), flat])
    theta = np.arccos(np.clip(ps[:, l] / r, -1.0, 1.0))
    if l == 2:
        angles = [np.arctan2(ps[:, 1], ps[:, 0])]
    else:
        omega = ps[:, :3] / np.linalg.norm(ps[:, :3], axis=-1, keepdims=True)
        angles = [np.arccos(np.clip(omega[:, 2], -1.0, 1.0)), np.arctan2(omega[:, 1], omega[:, 0])]
    return np.column_stack([theta, *angles, flat])


def chart_point(model, c):
    """Embedded points of chart points c (P, dimension) -> (P, state_dim)."""
    r, l = _sphere_factor(model)
    if l == 0:
        return np.array(c, copy=True)
    if l == 1:
        ps = r * np.column_stack([np.cos(c[:, 0]), np.sin(c[:, 0])])
    else:
        theta = c[:, 0]
        if l == 2:
            omega = np.column_stack([np.cos(c[:, 1]), np.sin(c[:, 1])])
        else:
            phi1, phi2 = c[:, 1], c[:, 2]
            omega = np.column_stack(
                [np.sin(phi1) * np.cos(phi2), np.sin(phi1) * np.sin(phi2), np.cos(phi1)]
            )
        ps = r * np.column_stack([np.sin(theta)[:, None] * omega, np.cos(theta)])
    return np.column_stack([ps, c[:, l:]])


def _diagonal_metric(model, c):
    """Diagonal g[:, i] = g_ii and its partials dg[:, i, k] = d_k g_ii."""
    r, l = _sphere_factor(model)
    P, n = c.shape
    g = np.ones((P, n))
    dg = np.zeros((P, n, n))
    if l == 0:
        return g, dg
    g[:, 0] = r**2
    if l == 1:
        return g, dg
    theta = c[:, 0]
    g[:, 1] = r**2 * np.sin(theta) ** 2
    dg[:, 1, 0] = r**2 * np.sin(2 * theta)
    if l == 3:
        phi1 = c[:, 1]
        g[:, 2] = r**2 * np.sin(theta) ** 2 * np.sin(phi1) ** 2
        dg[:, 2, 0] = r**2 * np.sin(2 * theta) * np.sin(phi1) ** 2
        dg[:, 2, 1] = r**2 * np.sin(theta) ** 2 * np.sin(2 * phi1)
    return g, dg


def metric(model, c):
    """Metric matrices (P, n, n) at chart points c."""
    g, _ = _diagonal_metric(model, c)
    return g[:, :, None] * np.eye(c.shape[1])


def christoffel(model, c):
    """Christoffel symbols Gamma[p, k, i, j] of the diagonal metric at chart points c."""
    g, dg = _diagonal_metric(model, c)
    P, n = g.shape
    gamma = np.zeros((P, n, n, n))
    inv = 1.0 / g
    for i in range(n):
        for k in range(n):
            if k != i:
                gamma[:, k, i, i] = -0.5 * inv[:, k] * dg[:, i, k]
            gamma[:, i, i, k] = 0.5 * inv[:, i] * dg[:, i, k]
            gamma[:, i, k, i] = gamma[:, i, i, k]
    return gamma
