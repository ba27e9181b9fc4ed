"""Eigensolves, magnon-frequency sweeps, gap extraction, and dark-mode metrics.

Every eigensolve goes through LAPACK's Hermitian solver (numpy.linalg.eigh),
batched over sweep points.

Units follow the model module: all frequencies in GHz, gaps reported in MHz.
"""

from dataclasses import dataclass

import numpy as np

from .model import (HermitianMatrixGHz, SystemModel, build_hamiltonian, check_index, csv_rows,
                    frequency_axis, hamiltonians)

# eigenvalues closer than this (GHz) form one degenerate cluster whose
# photon weight is averaged, since the eigenbasis within it is arbitrary
DEGENERACY_CLUSTER_GHZ = 1e-9


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Branch spectra along a magnon-frequency sweep.

    branches[k] holds the ascending eigenvalues at omega_m_grid[k];
    eigenvectors[k] the matching orthonormal columns; photon_weights[k, j]
    the total squared amplitude of branch j on the photon modes, averaged
    over degenerate clusters.
    """

    omega_m_grid: np.ndarray
    branches: np.ndarray
    eigenvectors: np.ndarray
    photon_weights: np.ndarray
    mode_labels: tuple[str, ...]
    photon_indices: tuple[int, ...]


@dataclass(frozen=True)
class GapReport:
    branch_a: int
    branch_b: int
    omega_m_at_min: float
    min_gap_mhz: float
    is_crossing: bool


def eig_hermitian(matrix):
    """Ascending eigenvalues and orthonormal eigenvector columns."""
    if isinstance(matrix, HermitianMatrixGHz):
        return np.linalg.eigh(matrix.entries)
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    scale = max(np.linalg.norm(mat), 1e-300)
    if np.linalg.norm(mat - mat.conj().T) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within 1e-10 relative tolerance")
    return np.linalg.eigh(mat)


def _eigh_over(system: SystemModel, omega_m_values) -> tuple:
    """The checked grid, then eigh's eigenvalues and eigenvectors of the system on it: the one
    eigensolve of sweep and branch_frequencies, so their branches agree bit for bit."""
    grid = frequency_axis(omega_m_values, "omega_m_grid")
    return grid, *np.linalg.eigh(hamiltonians(system, grid))


def sweep(system: SystemModel, omega_m_values) -> SweepResult:
    """Eigendecompose the system at every grid point of a magnon sweep."""
    grid, vals, vecs = _eigh_over(system, omega_m_values)
    labels = tuple(m.label for m in system.modes)
    photon_rows = tuple(k for k, m in enumerate(system.modes) if m.kind == "photon")
    weights = (np.abs(vecs[:, photon_rows, :]) ** 2).sum(axis=1)
    apart = np.diff(vals, axis=1) >= DEGENERACY_CLUSTER_GHZ
    for row in np.flatnonzero(~apart.all(axis=1)):
        for segment in np.split(np.arange(vals.shape[1]), np.flatnonzero(apart[row]) + 1):
            if segment.size > 1:
                weights[row, segment] = weights[row, segment].mean()
    return SweepResult(
        omega_m_grid=grid.copy(),
        branches=vals,
        eigenvectors=vecs,
        photon_weights=weights,
        mode_labels=labels,
        photon_indices=photon_rows,
    )


def branch_frequencies(system: SystemModel, omega_m_values) -> np.ndarray:
    """Sorted eigenvalues per grid point: the branches of sweep, bit for bit."""
    return _eigh_over(system, omega_m_values)[1]


def parabola_vertex(xl, yl, x0, y0, xr, yr):
    """Curvature, vertex and vertex value of the parabola through three samples.

    The parabola is taken in Newton form, y0 + d1 (x - x0) + c (x - x0)(x - xl)
    with d1 the left slope and c the curvature.  Three collinear samples
    have no vertex and return (0.0, x0, y0).
    """
    d1 = (y0 - yl) / (x0 - xl)
    d2 = (yr - y0) / (xr - x0)
    curvature = (d2 - d1) / (xr - xl)
    if curvature == 0:
        return 0.0, x0, y0
    vertex = 0.5 * (x0 + xl - d1 / curvature)
    value = y0 + curvature * (vertex - x0) * (vertex - xl) + d1 * (vertex - x0)
    return curvature, vertex, value


def min_gap(
    result: SweepResult,
    branch_a: int,
    branch_b: int,
    window: tuple[float, float],
    crossing_threshold_ghz: float = 1e-3,
    system: SystemModel | None = None,
) -> GapReport:
    """Minimum separation of two branches over a window of the sweep.

    The grid minimum is refined between grid points: by the parabola through
    the bracketing triple, and, when the system is supplied, by a bounded
    scalar minimizer (scipy, imported only when system is given) on exact
    re-eigensolves, x tolerance 1e-6 GHz.
    """
    for name, b in (("branch_a", branch_a), ("branch_b", branch_b)):
        check_index(b, result.branches.shape[1], name, "branch index")
    if branch_a == branch_b:
        raise ValueError("branch indices must differ")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window is empty")
    grid = result.omega_m_grid
    pad = 1e-12
    if lo < grid[0] - pad or hi > grid[-1] + pad:
        raise ValueError("window extends beyond the sweep grid")
    inside = np.nonzero((grid >= lo - pad) & (grid <= hi + pad))[0]
    if inside.size == 0:
        raise ValueError("window contains no grid points")
    if not np.isfinite(crossing_threshold_ghz):
        raise ValueError("crossing_threshold_ghz must be finite")
    gaps = np.abs(result.branches[inside, branch_b] - result.branches[inside, branch_a])
    k = int(np.argmin(gaps))
    best_x, best_g = float(grid[inside[k]]), float(gaps[k])
    have_triple = 0 < k < inside.size - 1
    xl = float(grid[inside[k - 1]]) if k > 0 else best_x
    xr = float(grid[inside[k + 1]]) if k < inside.size - 1 else best_x

    if system is not None and xr > xl:
        # imported here so that only an exact refinement pays for loading scipy
        from scipy.optimize import minimize_scalar

        def exact_gap(x: float) -> float:
            row = branch_frequencies(system, np.array([x]))[0]
            return abs(float(row[branch_b]) - float(row[branch_a]))

        found = minimize_scalar(exact_gap, bounds=(xl, xr), method="bounded",
                                options={"xatol": 1e-6})
        if found.fun < best_g:
            best_x, best_g = float(found.x), float(found.fun)
    elif have_triple:
        curvature, vertex, fitted = parabola_vertex(
            xl, float(gaps[k - 1]), best_x, best_g, xr, float(gaps[k + 1])
        )
        if curvature != 0 and xl < vertex < xr:
            # interpolated estimate; a V-shaped crossing extrapolates below
            # zero, which correctly clamps to a zero-gap report
            best_x = float(np.clip(vertex, lo, hi))
            best_g = max(0.0, min(fitted, best_g))

    return GapReport(
        branch_a=branch_a,
        branch_b=branch_b,
        omega_m_at_min=best_x,
        min_gap_mhz=best_g * 1e3,
        is_crossing=best_g < crossing_threshold_ghz,
    )


def resonant_gap(system: SystemModel, photon_label: str) -> float:
    """Gap in MHz between the polaritons straddling a photon mode on resonance.

    The magnon sweep targets are parked at the photon frequency; on each side
    of it the eigenvalue with the largest weight on the requested photon row
    is taken as that side's polariton.
    """
    mode = system.mode(photon_label)
    if mode.kind != "photon":
        raise ValueError(f"mode {photon_label!r} is not a photon")
    omega_c = mode.frequency
    built = build_hamiltonian(system, omega_c)
    vals, vecs = np.linalg.eigh(built.entries)
    row = built.labels.index(photon_label)
    weight = np.abs(vecs[row, :]) ** 2
    below = np.nonzero(vals <= omega_c)[0]
    above = np.nonzero(vals > omega_c)[0]
    if below.size == 0 or above.size == 0:
        raise ValueError("no polariton pair straddles the photon frequency")
    lower = vals[below[np.argmax(weight[below])]]
    upper = vals[above[np.argmax(weight[above])]]
    return float((upper - lower) * 1e3)


def dark_mode_metric(result: SweepResult, branch: int) -> float:
    """Minimum photon weight of one branch over the whole sweep."""
    check_index(branch, result.branches.shape[1], "branch", "branch index")
    return float(result.photon_weights[:, branch].min())


def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep as CSV text with 9 significant digits."""
    n = result.branches.shape[1]
    header = ["omega_m_ghz"]
    header += [f"branch_{k}_ghz" for k in range(n)]
    header += [f"pweight_{k}" for k in range(n)]
    table = np.column_stack([result.omega_m_grid, result.branches, result.photon_weights])
    return ",".join(header) + "\n" + csv_rows(table)
