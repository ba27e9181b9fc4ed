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
from dataclasses import dataclass, fields

import numpy as np

from .model import (MAX_FREQUENCY_GHZ, MAX_RATE_MHZ, TWO_PI, CouplingEdge, SchemaError, anchored,
                    fold_phase, number, read_numeric_csv, require, string)

_DEGENERACY_FLOOR_FACTOR = 1e-12
# Ceiling on every sample coordinate, sphere center coordinate and radius, in
# m.  It sits far above any cavity and far below where the distance from a
# sample to a sphere center overflows in the inside-sphere test.
MAX_LENGTH_M = 1e6

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
        if not np.all(np.abs(positions) <= MAX_LENGTH_M):
            raise ValueError("positions must be within +-%g m" % MAX_LENGTH_M)
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
        if max(map(abs, self.center)) > MAX_LENGTH_M:
            raise ValueError("center must be within +-%g m" % MAX_LENGTH_M)
        if self.radius > MAX_LENGTH_M:
            raise ValueError("radius must be <= %g m" % MAX_LENGTH_M)


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0" % f.name)


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


def _moments(positions, weights, h, region: SphereRegion):
    """Weighted transverse moments of h over one sphere, and its weight sum V_m."""
    center = np.asarray(region.center, dtype=np.float64)
    mask = np.linalg.norm(positions - center, axis=1) <= region.radius
    if not np.any(mask):
        raise ValueError("no samples inside region %r" % region.label)
    w = weights[mask]
    return np.sum(w * h[mask, 0]), np.sum(w * h[mask, 1]), np.sum(w)


def _exponent(values: np.ndarray) -> int:
    """The binary exponent e of max|values|, which lies in [2^(e-1), 2^e)."""
    return math.frexp(float(np.max(np.abs(values))))[1]


def _reduced(samples):
    """The positions, weights and real standing-wave field of a table, that
    field's energy integral, and max|h| of the scaled complex field.

    The standing-wave field is the real part after a rotation by the global
    phase that maximizes the real part's L2 norm.  The weights come back
    divided by the power of two that brings their largest entry into [0.5, 1),
    and the field by the one that brings its largest real or imaginary part
    there, which is exact.  So no product below can overflow, and whether one
    underflows depends on how far the entries spread, not on the table's
    scale; filling factors, phases and the degeneracy floor are ratios of
    these quantities and do not change.
    """
    table = _as_table(samples)
    weights = np.ldexp(table.weights, -_exponent(table.weights))
    e = _exponent(np.stack((table.h.real, table.h.imag)))
    h = np.ldexp(table.h.real, -e) + 1j * np.ldexp(table.h.imag, -e)
    bilinear = np.sum(weights * np.sum(h * h, axis=1))
    psi = 0.0 if bilinear == 0 else -0.5 * np.angle(bilinear)
    hr = np.real(np.exp(1j * psi) * h)
    energy = float(np.sum(weights * np.sum(hr * hr, axis=1)))
    return table.positions, weights, hr, energy, float(np.max(np.linalg.norm(h, axis=1)))


def _filling(moments, energy: float) -> float:
    ix, iy, v_m = map(float, moments)
    if energy <= 0:
        raise ValueError("mode has zero field energy")
    return min(math.sqrt((ix * ix + iy * iy) / (v_m * energy)), 1.0)


def _phase(moments, h_scale: float, label: str) -> float:
    ix, iy, v_m = map(float, moments)
    if math.hypot(ix, iy) <= _DEGENERACY_FLOOR_FACTOR * v_m * h_scale:
        raise PhaseUndefinedError(
            "region %r: transverse moment below the degeneracy floor, "
            "coupling phase undefined" % label
        )
    return fold_phase(math.atan2(iy, ix))


def region_integrals(samples, region: SphereRegion):
    """Weighted transverse moments (Ix, Iy) of the raw field over one sphere."""
    table = _as_table(samples)
    ix, iy, _ = _moments(table.positions, table.weights, table.h, region)
    return complex(ix), complex(iy)


def coupling_phase(samples, region: SphereRegion) -> float:
    """Coupling phase arg(Ix + i*Iy) of the real-reduced field, in (-pi, pi].

    An active rotation of the whole field pattern about the static (z) axis
    by an angle alpha shifts the phase by +alpha.  Raises PhaseUndefinedError
    when the transverse moment magnitude falls below
    1e-12 * V_m * max|h|, where V_m is the in-region weight sum.
    """
    positions, weights, hr, _, h_scale = _reduced(samples)
    return _phase(_moments(positions, weights, hr, region), h_scale, region.label)


def filling_factor(samples, region: SphereRegion) -> float:
    """Transverse overlap of the mode with one sphere, in [0, 1].

    The squared transverse moments over the sphere are normalized by the
    sphere volume times the mode energy integral over all samples; the
    Cauchy-Schwarz bound keeps the result at or below one.
    """
    positions, weights, hr, energy, _ = _reduced(samples)
    return _filling(_moments(positions, weights, hr, region), energy)


def coupling_strength(
    eta: float, omega_ghz: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Coupling rate in MHz for a filling factor and a mode frequency in GHz.

    Scales exactly linearly in eta and as the square root of the frequency.
    Values of eta above one are accepted: the argument is a plain scale
    factor here, and calibrated devices can sit beyond the overlap bound of
    filling_factor when the sphere volume underestimates the active volume.
    A frequency above MAX_FREQUENCY_GHZ, or a rate above MAX_RATE_MHZ, which
    no CouplingEdge takes, raises ValueError.
    """
    if not eta >= 0:
        raise ValueError("eta must be >= 0")
    if not omega_ghz > 0:
        raise ValueError("omega_ghz must be > 0")
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    if not math.isfinite(omega_ghz):
        raise ValueError("omega_ghz must be finite")
    if omega_ghz > MAX_FREQUENCY_GHZ:
        raise ValueError("omega_ghz must be <= %g GHz" % MAX_FREQUENCY_GHZ)
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
    g_mhz = g_hz * 1e-6
    if not g_mhz <= MAX_RATE_MHZ:  # also catches inf from finite inputs
        raise ValueError("coupling strength must be <= %g MHz" % MAX_RATE_MHZ)
    return g_mhz


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
    for label in labels:
        if label in mode_fields:
            raise ValueError("region %r: label is also a photon mode" % label)
    edges = []
    for mode_label, samples in mode_fields.items():
        if mode_label not in frequencies:
            raise ValueError("no frequency given for mode %r" % mode_label)
        positions, weights, hr, energy, h_scale = _reduced(samples)
        for region in regions:
            moments = _moments(positions, weights, hr, region)
            eta = _filling(moments, energy)
            g_mhz = coupling_strength(eta, frequencies[mode_label], constants)
            phi = _phase(moments, h_scale, region.label)
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
        return FieldTable(positions, h, data[:, 9])
    # unit weights first: positions are checked against MAX_LENGTH_M before the box volume
    FieldTable(positions, h, np.ones(len(positions)))
    extents = positions.max(axis=0) - positions.min(axis=0)
    volume = float(np.prod(extents))
    if volume <= 0:
        raise SchemaError(
            "degenerate bounding box: cannot infer uniform weights, "
            "provide a weight_m3 column"
        )
    return FieldTable(positions, h, np.full(len(positions), volume / len(positions)))


def regions_from_document(config: dict) -> tuple:
    """The SphereRegion list and the photon label -> GHz map of a fieldmap config,
    the regions and frequencies arguments of coupling_table."""
    if "regions" not in config or "mode_frequencies_ghz" not in config:
        raise SchemaError("config: 'regions' and 'mode_frequencies_ghz' are both required")
    if not isinstance(config["regions"], list):
        raise SchemaError("regions: expected a list")
    regions = []
    for k, region in enumerate(config["regions"]):
        where = "regions[%d]" % k
        center = require(region, "center_m", where)
        if not (isinstance(center, list) and len(center) == 3):
            raise SchemaError("%s.center_m: expected a list of three numbers" % where)
        center = tuple(number(v, "%s.center_m[%d]" % (where, i)) for i, v in enumerate(center))
        radius = number(require(region, "radius_m", where), where + ".radius_m")
        label = string(require(region, "label", where), where + ".label")
        if label in (r.label for r in regions):
            raise SchemaError("%s.label: duplicate region label %r" % (where, label))
        with anchored(where + ": "):
            regions.append(SphereRegion(center, radius, label))
    if not isinstance(config["mode_frequencies_ghz"], dict):
        raise SchemaError("mode_frequencies_ghz: expected a label->GHz object")
    frequencies = {}
    for label, value in config["mode_frequencies_ghz"].items():
        frequencies[label] = number(value, "mode_frequencies_ghz." + label)
        if not frequencies[label] > 0:
            raise SchemaError("mode_frequencies_ghz.%s must be > 0" % label)
        if frequencies[label] > MAX_FREQUENCY_GHZ:
            raise SchemaError("mode_frequencies_ghz.%s must be <= %g" % (label, MAX_FREQUENCY_GHZ))
    for k, region in enumerate(regions):
        if region.label in frequencies:
            raise SchemaError("regions[%d].label: %r is a photon label of mode_frequencies_ghz"
                              % (k, region.label))
    return regions, frequencies
