"""Analytic field constructions and spherical quadratures for field-map tests.

The quadrature uses a midpoint product rule in spherical shells with exact
cell volumes, so the weights of a full sphere sum to 4*pi*R^3/3 exactly and
refinement studies see a clean convergence order.  The synthetic mode fields
circulate around vertical posts, regularized so they stay smooth inside the
integration spheres.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def sphere_grid(center, radius, n_r, n_u, n_phi):
    """Midpoint spherical product grid.

    Returns (positions (N,3), weights (N,)) where each weight is the exact
    volume of its (r, cos-theta, phi) cell, so sum(weights) == 4/3*pi*R^3 up
    to floating-point roundoff.
    """
    center = np.asarray(center, dtype=np.float64)
    r_edges = np.linspace(0.0, radius, n_r + 1)
    u_edges = np.linspace(-1.0, 1.0, n_u + 1)
    p_edges = np.linspace(0.0, TWO_PI, n_phi + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    u_mid = 0.5 * (u_edges[:-1] + u_edges[1:])
    p_mid = 0.5 * (p_edges[:-1] + p_edges[1:])
    r_vol = (r_edges[1:] ** 3 - r_edges[:-1] ** 3) / 3.0
    du = u_edges[1] - u_edges[0]
    dp = p_edges[1] - p_edges[0]

    rr, uu, pp = np.meshgrid(r_mid, u_mid, p_mid, indexing="ij")
    vv, _, _ = np.meshgrid(r_vol, u_mid, p_mid, indexing="ij")
    sin_t = np.sqrt(1.0 - uu**2)
    x = rr * sin_t * np.cos(pp)
    y = rr * sin_t * np.sin(pp)
    z = rr * uu
    positions = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1) + center
    weights = (vv * du * dp).ravel()
    return positions, weights


def circulating_field(positions, posts):
    """Sum of regularized circulations around vertical posts.

    Each post is (x0, y0, kappa, r_reg); its contribution at r is
    kappa * zhat x (r - p) / (|rho|^2 + r_reg^2) with rho the transverse
    displacement.  Returns a real (N, 3) array.
    """
    positions = np.asarray(positions, dtype=np.float64)
    h = np.zeros_like(positions)
    for x0, y0, kappa, r_reg in posts:
        dx = positions[:, 0] - x0
        dy = positions[:, 1] - y0
        denom = dx**2 + dy**2 + r_reg**2
        h[:, 0] += kappa * (-dy) / denom
        h[:, 1] += kappa * dx / denom
    return h


def pi_device_posts(a):
    """Post layouts whose two modes realize the opposite/same phase pattern."""
    r_reg = 0.05 * a
    mode1 = [(a, 0.0, 1.0, r_reg), (-a, 0.0, -1.0, r_reg)]
    mode2 = [(0.0, 0.0, 1.0, r_reg)]
    return mode1, mode2


def pi_device_exports(n):
    """Weighted field exports of both pi-device modes over two spheres of n**3
    samples each, every value written with repr, and the fieldmap config that
    places the two spheres: at n = 24, the size of a benchmark's exports."""
    a = 0.01
    radius = 0.2 * a
    centers = {"m1": (a / 2, 0.0, 0.0), "m2": (-a / 2, 0.0, 0.0)}
    grids = [sphere_grid(center, radius, n, n, n) for center in centers.values()]
    positions = np.concatenate([g[0] for g in grids])
    weights = np.concatenate([g[1] for g in grids])
    texts = {}
    for mode, posts in zip(("c1", "c2"), pi_device_posts(a)):
        h = circulating_field(positions, posts)
        rows = ["x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3"]
        rows += ["%r,%r,%r,%r,0.0,%r,0.0,%r,0.0,%r" % tuple(map(float, row))
                 for row in np.column_stack([positions, h, weights])]
        texts[mode] = "\n".join(rows) + "\n"
    config = {
        "regions": [{"label": label, "center_m": list(center), "radius_m": radius}
                    for label, center in centers.items()],
        "mode_frequencies_ghz": {"c1": 4.524, "c2": 6.378},
    }
    return texts, config
