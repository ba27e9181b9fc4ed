"""Coupling strengths and phases from discretized cavity-mode field exports.

Phases and filling factors come from transverse moments of the mode magnetic
field over each sphere: with the static axis along z, the in-plane integrals
Ix = sum w * h_x and Iy = sum w * h_y give the coupling phase
arg(Ix + i * Iy) and, normalized by the sphere volume and the mode energy,
the filling factor.  Mode fields are treated as standing waves: complex
input is first multiplied by the global phase that maximizes the L2 norm of
its real part, then the real part is used.  The strength formula turns a
filling factor and a mode frequency into a rate in MHz using the material
constants of a YIG sphere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, CouplingEdge, SchemaError, fold_phase, read_numeric_csv

_DEGENERACY_FLOOR_FACTOR = 1e-12

_CSV_COLUMNS = ("x_m", "y_m", "z_m", "hx_re", "hx_im", "hy_re", "hy_im", "hz_re", "hz_im")
_CSV_HEADER = ",".join(_CSV_COLUMNS)
_CSV_HEADER_WEIGHTED = _CSV_HEADER + ",weight_m3"


class PhaseUndefinedError(ValueError):
    """The transverse moment is below the degeneracy floor; no phase exists."""


@dataclass(frozen=True)
class FieldSample:
    """One quadrature node: position (m), complex field vector, volume weight (m^3)."""

    position: tuple
    h: tuple
    weight: float

    def __post_init__(self):
        if len(self.position) != 3 or len(self.h) != 3:
            raise ValueError("position and h must have three components")
        if not self.weight > 0:
            raise ValueError("weight must be > 0 m^3")


@dataclass(frozen=True, eq=False)
class FieldTable:
    """Columnar field samples: positions (N,3), h (N,3) complex, weights (N)."""

    positions: np.ndarray
    h: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.complex128)
        weights = np.asarray(self.weights, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if h.shape != positions.shape:
            raise ValueError("h must match positions in shape")
        if weights.shape != (positions.shape[0],):
            raise ValueError("weights must be a length-N vector")
        for name, values in (("positions", positions), ("h", h), ("weights", weights)):
            if not np.all(np.isfinite(values)):
                raise ValueError("%s must be finite" % name)
        if not np.all(weights > 0):
            raise ValueError("weights must be > 0 m^3")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class SphereRegion:
    """Spherical integration region tied to one magnon mode label."""

    center: tuple
    radius: float
    label: str

    def __post_init__(self):
        if len(self.center) != 3 or not all(map(math.isfinite, self.center)):
            raise ValueError("center must have three finite components")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and > 0 m")


@dataclass(frozen=True)
class PhysicalConstants:
    """Material and fundamental constants of the strength formula.

    gyromagnetic_ratio is linear (GHz per tesla), unit_cell_moment is in Bohr
    magnetons, spin_density in m^-3; the remaining fields are SI values.
    """

    gyromagnetic_ratio: float = 28.0
    unit_cell_moment: float = 5.0
    lande_g: float = 2.0
    spin_density: float = 4.22e23
    vacuum_permeability: float = 1.25663706212e-6
    reduced_planck: float = 1.054571817e-34
    bohr_magneton: float = 9.2740100783e-24

    def __post_init__(self):
        for name in (
            "gyromagnetic_ratio",
            "unit_cell_moment",
            "lande_g",
            "spin_density",
            "vacuum_permeability",
            "reduced_planck",
            "bohr_magneton",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0" % name)


DEFAULT_CONSTANTS = PhysicalConstants()


def _as_table(samples) -> FieldTable:
    if isinstance(samples, FieldTable):
        return samples
    samples = list(samples)
    if not samples:
        raise ValueError("no field samples given")
    return FieldTable(
        np.array([s.position for s in samples], dtype=np.float64),
        np.array([s.h for s in samples], dtype=np.complex128),
        np.array([s.weight for s in samples], dtype=np.float64),
    )


def _inside(table: FieldTable, region: SphereRegion) -> np.ndarray:
    center = np.asarray(region.center, dtype=np.float64)
    mask = np.linalg.norm(table.positions - center, axis=1) <= region.radius
    if not np.any(mask):
        raise ValueError("no samples inside region %r" % region.label)
    return mask


def _real_reduced(table: FieldTable) -> np.ndarray:
    """Real standing-wave field: rotate by the global phase that maximizes
    the real part's L2 norm, then drop the imaginary part."""
    bilinear = np.sum(table.weights * np.sum(table.h * table.h, axis=1))
    psi = 0.0 if bilinear == 0 else -0.5 * np.angle(bilinear)
    return np.real(np.exp(1j * psi) * table.h)


def region_integrals(samples, region: SphereRegion):
    """Weighted transverse moments (Ix, Iy) of the raw field over one sphere."""
    table = _as_table(samples)
    mask = _inside(table, region)
    w = table.weights[mask]
    ix = complex(np.sum(w * table.h[mask, 0]))
    iy = complex(np.sum(w * table.h[mask, 1]))
    return ix, iy


def coupling_phase(samples, region: SphereRegion) -> float:
    """Coupling phase arg(Ix + i*Iy) of the real-reduced field, in (-pi, pi].

    An active rotation of the whole field pattern about the static (z) axis
    by an angle alpha shifts the phase by +alpha.  Raises PhaseUndefinedError
    when the transverse moment magnitude falls below
    1e-12 * V_m * max|h|, where V_m is the in-region weight sum.
    """
    table = _as_table(samples)
    mask = _inside(table, region)
    hr = _real_reduced(table)
    w = table.weights[mask]
    ix = float(np.sum(w * hr[mask, 0]))
    iy = float(np.sum(w * hr[mask, 1]))
    v_m = float(np.sum(w))
    h_scale = float(np.max(np.linalg.norm(table.h, axis=1)))
    floor = _DEGENERACY_FLOOR_FACTOR * v_m * h_scale
    if math.hypot(ix, iy) <= floor:
        raise PhaseUndefinedError(
            "region %r: transverse moment below the degeneracy floor, "
            "coupling phase undefined" % region.label
        )
    return fold_phase(math.atan2(iy, ix))


def filling_factor(samples, region: SphereRegion) -> float:
    """Transverse overlap of the mode with one sphere, in [0, 1].

    The squared transverse moments over the sphere are normalized by the
    sphere volume times the mode energy integral over all samples; the
    Cauchy-Schwarz bound keeps the result at or below one.
    """
    table = _as_table(samples)
    mask = _inside(table, region)
    hr = _real_reduced(table)
    energy = float(np.sum(table.weights * np.sum(hr * hr, axis=1)))
    if energy <= 0:
        raise ValueError("mode has zero field energy")
    w = table.weights[mask]
    ix = float(np.sum(w * hr[mask, 0]))
    iy = float(np.sum(w * hr[mask, 1]))
    v_m = float(np.sum(w))
    eta = math.sqrt((ix * ix + iy * iy) / (v_m * energy))
    return min(eta, 1.0)


def coupling_strength(
    eta: float, omega_ghz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Coupling rate in MHz for a filling factor and a mode frequency in GHz.

    Scales exactly linearly in eta and as the square root of the frequency.
    Values of eta above one are accepted: the argument is a plain scale
    factor here, and calibrated devices can sit beyond the overlap bound of
    filling_factor when the sphere volume underestimates the active volume.
    """
    if not eta >= 0:
        raise ValueError("eta must be >= 0")
    if not omega_ghz > 0:
        raise ValueError("omega_ghz must be > 0")
    gamma_angular = TWO_PI * constants.gyromagnetic_ratio * 1e9
    moment = constants.unit_cell_moment * constants.bohr_magneton
    ratio = moment / (constants.lande_g * constants.bohr_magneton)
    omega_angular = TWO_PI * omega_ghz * 1e9
    g_hz = (
        eta
        * (gamma_angular / (4.0 * math.pi))
        * math.sqrt(
            omega_angular
            * ratio
            * constants.reduced_planck
            * constants.vacuum_permeability
            * constants.spin_density
        )
    )
    return g_hz * 1e-6


def coupling_table(
    mode_fields, regions, frequencies, constants: PhysicalConstants = DEFAULT_CONSTANTS
):
    """One CouplingEdge per (photon mode, sphere), from field data.

    Args:
        mode_fields: map photon label -> FieldTable or FieldSample sequence.
        regions: SphereRegion list; labels become magnon labels.
        frequencies: map photon label -> mode frequency in GHz.
        constants: material constants for the strength formula.
    """
    regions = list(regions)
    labels = [r.label for r in regions]
    if len(set(labels)) != len(labels):
        raise ValueError("region labels must be unique")
    edges = []
    for mode_label, samples in mode_fields.items():
        if mode_label not in frequencies:
            raise ValueError("no frequency given for mode %r" % mode_label)
        table = _as_table(samples)
        for region in regions:
            eta = filling_factor(table, region)
            g_mhz = coupling_strength(eta, frequencies[mode_label], constants)
            phi = coupling_phase(table, region)
            edges.append(CouplingEdge(mode_label, region.label, g_mhz, phi))
    return edges


def field_table_from_csv(text: str) -> FieldTable:
    """Parse a mode-field CSV export.

    The header must be exactly the nine field columns, optionally followed
    by weight_m3.  Without weights, each sample gets an equal share of the
    positions' bounding-box volume.
    """
    header, data = read_numeric_csv(text, (_CSV_HEADER, _CSV_HEADER_WEIGHTED))
    positions = data[:, 0:3]
    h = data[:, 3:9:2] + 1j * data[:, 4:9:2]
    if header == _CSV_HEADER_WEIGHTED:
        weights = data[:, 9]
    else:
        extents = positions.max(axis=0) - positions.min(axis=0)
        volume = float(np.prod(extents))
        if volume <= 0:
            raise SchemaError(
                "degenerate bounding box: cannot infer uniform weights, "
                "provide a weight_m3 column"
            )
        weights = np.full(len(positions), volume / len(positions))
    return FieldTable(positions, h, weights)
