"""Input-output transmission: |S21| maps, line cuts, and peak extraction.

The scattering model is S21 = d2^T M(omega)^-1 d1 with
M(omega) = i (H(omega_m) - omega I) + Gamma / 2, where Gamma is the diagonal
matrix of total linewidths (intrinsic plus external over both ports, in GHz)
and d_p carries sqrt(kappa_ext) on the photon rows port p couples to.  All
quantities are linear frequencies: GHz inside the matrices, MHz in the user
facing rate fields.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import (BLOCK_VALUES, MAX_RATE_MHZ, SchemaError, SystemModel, build_hamiltonian,
                    check_stack, csv_rows, frequency_axis, hamiltonians, long_csv_rows, number)
from .spectrum import parabola_vertex

DEFAULT_PHOTON_LOSS_MHZ = 5.0
DEFAULT_MAGNON_LOSS_MHZ = 2.0
S21_FLOOR = np.finfo(np.float64).tiny  # about -6153 dB
# s21_map sums eigenmode residues only where cond(R) of the eigenvector
# matrix is at most this; rounding in the residues grows as eps * cond(R),
# about 1e-13 relative here.  Near an exceptional point (coalescing
# eigenvectors) cond(R) runs to 1e6 and more, and the per-point solve is used.
RESIDUE_COND_LIMIT = 1e3
MAX_MAP_POINTS = 1_000_000  # probe x magnon points of one s21_map


@dataclass(frozen=True)
class PortSpec:
    """External coupling of one measurement port.

    Args:
        port: port id, 1 (drive) or 2 (readout).
        couplings: map photon label -> external rate in MHz.  When given, the
            port couples only to the listed photons.  When None, every photon
            uses its mode-level external rate, falling back to the intrinsic
            rate when that is unset too.
    """

    port: int
    couplings: dict | None = None

    def __post_init__(self):
        if self.port not in (1, 2):
            raise ValueError("port id must be 1 or 2")
        if self.couplings is not None:
            couplings = dict(self.couplings)
            for label, rate in couplings.items():
                if not (math.isfinite(rate) and rate >= 0):
                    raise ValueError(
                        "port %d: external rate for %r must be finite and >= 0 MHz"
                        % (self.port, label)
                    )
            for label, rate in couplings.items():
                if rate > MAX_RATE_MHZ:
                    raise ValueError(
                        "port %d: external rate for %r must be <= %g MHz"
                        % (self.port, label, MAX_RATE_MHZ)
                    )
            object.__setattr__(self, "couplings", couplings)


@dataclass(frozen=True, eq=False)
class TransmissionMap:
    """20*log10|S21| on an (omega, omega_m) grid, rows indexed by omega."""

    omega_grid: np.ndarray
    omega_m_grid: np.ndarray
    magnitude_db: np.ndarray
    defaults_applied: tuple = ()

    def __post_init__(self):
        omega = frequency_axis(self.omega_grid, "omega_grid")
        omega_m = frequency_axis(self.omega_m_grid, "omega_m_grid")
        mags = np.asarray(self.magnitude_db, dtype=np.float64)
        object.__setattr__(self, "omega_grid", omega)
        object.__setattr__(self, "omega_m_grid", omega_m)
        object.__setattr__(self, "magnitude_db", mags)
        object.__setattr__(self, "defaults_applied", tuple(self.defaults_applied))
        if mags.shape != (len(omega), len(omega_m)):
            raise ValueError("magnitude_db must have shape (len(omega), len(omega_m))")
        if not np.all(np.isfinite(mags)):
            raise ValueError("magnitude_db entries must be finite")


def _ordered_ports(ports):
    specs = tuple(ports)
    if len(specs) != 2:
        raise ValueError("expected exactly two port specifications")
    by_id = {spec.port: spec for spec in specs}
    if set(by_id) != {1, 2}:
        raise ValueError("ports must carry the distinct ids 1 and 2")
    return by_id[1], by_id[2]


def _loss_model(system: SystemModel, port1: PortSpec, port2: PortSpec):
    """Total linewidths (GHz) and port drive vectors, with defaults recorded."""
    photons = set(system.photon_labels())
    for spec in (port1, port2):
        if spec.couplings is None:
            continue
        for label in spec.couplings:
            if label not in photons:
                raise ValueError(
                    "port %d: %r is not a photon mode of the system"
                    % (spec.port, label)
                )
    n = len(system.modes)
    gamma = np.zeros(n)
    drives = {1: np.zeros(n), 2: np.zeros(n)}
    defaults = []
    for i, mode in enumerate(system.modes):
        if mode.intrinsic_loss is not None:
            kappa_int = mode.intrinsic_loss
        else:
            kappa_int = (
                DEFAULT_PHOTON_LOSS_MHZ
                if mode.kind == "photon"
                else DEFAULT_MAGNON_LOSS_MHZ
            )
            defaults.append(
                "%s: intrinsic loss defaulted to %g MHz" % (mode.label, kappa_int)
            )
        total = kappa_int
        if mode.kind == "photon":
            for spec in (port1, port2):
                if spec.couplings is not None:
                    kappa_ext = spec.couplings.get(mode.label, 0.0)
                elif mode.external_loss is not None:
                    kappa_ext = mode.external_loss
                else:
                    kappa_ext = kappa_int
                    defaults.append(
                        "%s: port %d external rate defaulted to intrinsic %g MHz"
                        % (mode.label, spec.port, kappa_int)
                    )
                drives[spec.port][i] = math.sqrt(kappa_ext * 1e-3)
                total += kappa_ext
        if total <= 0:
            raise ValueError("mode %r has zero total loss" % mode.label)
        gamma[i] = total * 1e-3
    for spec in (port1, port2):
        if not np.any(drives[spec.port] > 0):
            raise ValueError("port %d couples to no photon mode" % spec.port)
    return gamma, drives[1], drives[2], tuple(defaults)


def ports_from_document(ports_doc, system: SystemModel) -> tuple:
    """The PortSpecs of a device's ports block (None: default ports), checked as s21_map does."""
    if ports_doc is None:
        ports = (PortSpec(1), PortSpec(2))
    elif not isinstance(ports_doc, dict) or set(ports_doc) != {"1", "2"}:
        raise SchemaError("ports: expected an object with exactly the keys '1' and '2'")
    else:
        ports = tuple(_port_from_document(key, ports_doc[key]) for key in ("1", "2"))
    _loss_model(system, *ports)
    return ports


def _port_from_document(key: str, rates) -> PortSpec:
    if rates is None:
        return PortSpec(int(key))
    if not isinstance(rates, dict):
        raise SchemaError("ports.%s: expected null or a label->rate object" % key)
    return PortSpec(int(key), {l: number(r, "ports.%s.%s" % (key, l)) for l, r in rates.items()})


def s21_at(system: SystemModel, ports, omega: float, omega_m: float) -> complex:
    """Complex S21 at a single probe frequency and magnon frequency (GHz).

    The probe is checked as s21_map checks its grid: finite, then within
    +-MAX_FREQUENCY_GHZ.
    """
    probe = frequency_axis([omega], "omega")
    gamma, d1, d2, _ = _loss_model(system, *_ordered_ports(ports))
    damped = 1j * build_hamiltonian(system, omega_m).entries + np.diag(gamma) / 2.0
    return complex(_solved(damped, probe, d1, d2)[0])


def _solved(damped, omega, d1, d2) -> np.ndarray:
    """S21 = d2 . (damped - i omega I)^-1 d1 at each probe frequency, by one stacked solve."""
    n = damped.shape[-1]
    return np.linalg.solve(damped - 1j * omega[:, None, None] * np.eye(n), d1[:, None])[..., 0] @ d2


def check_map(probe_points, magnon_points, n, names=("len(omega_grid)", "len(omega_m_grid)")):
    """Raise ValueError past MAX_MAP_POINTS, then past the probe or the magnon stack budget."""
    if probe_points * magnon_points > MAX_MAP_POINTS:
        raise ValueError("%s * %s must be <= %d" % (*names, MAX_MAP_POINTS))
    for points, name in zip((probe_points, magnon_points), names):
        check_stack(points, n, name)


def _decibels(s21: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(np.abs(s21), S21_FLOOR))


def s21_map(system: SystemModel, ports, omega_grid, omega_m_grid) -> TransmissionMap:
    """Transmission magnitude map over probe and magnon frequency grids.

    At each magnon point the damped matrix A = iH + Gamma/2 is decomposed
    once, A = R diag(lambda) R^-1, so that
    S21(omega) = sum_k (d2 . r_k) (R^-1 d1)_k / (lambda_k - i omega).
    A point whose eigenvector matrix R has a condition number above
    RESIDUE_COND_LIMIT, or none, is solved per probe frequency instead, as
    s21_at does, on a stack of one matrix per probe frequency; check_map
    bounds the map and both stacks first.  Ports whose photons the device
    decouples give |S21| at rounding level; a value that rounds to exactly
    zero is reported at S21_FLOOR, not -inf.
    """
    omega = frequency_axis(omega_grid, "omega_grid")
    omega_m = frequency_axis(omega_m_grid, "omega_m_grid")
    check_map(omega.size, omega_m.size, len(system.modes))
    gamma, d1, d2, defaults = _loss_model(system, *_ordered_ports(ports))
    damped = 1j * hamiltonians(system, omega_m) + np.diag(gamma) / 2.0
    lam, r = np.linalg.eig(damped)
    cond = np.linalg.cond(r)
    # a NaN condition number compares False here, so it falls back too
    diagonal = cond <= RESIDUE_COND_LIMIT
    residues = np.zeros(lam.shape, dtype=np.complex128)
    left = np.linalg.solve(r[diagonal], d1[:, None])[..., 0]
    residues[diagonal] = (d2[:, None] * r[diagonal]).sum(axis=1) * left
    mags = np.empty((omega.size, omega_m.size))
    probe = 1j * omega[:, None]
    width = max(1, BLOCK_VALUES // omega.size)
    for start in range(0, omega_m.size, width):
        block = slice(start, start + width)
        s21 = np.zeros((omega.size, lam[block].shape[0]), dtype=np.complex128)
        for k in range(lam.shape[1]):
            s21 += residues[block, k] / (lam[block, k] - probe)
        mags[:, block] = _decibels(s21)
    for j in np.flatnonzero(~diagonal):
        mags[:, j] = _decibels(_solved(damped[j], omega, d1, d2))
    return TransmissionMap(omega, omega_m, mags, defaults)


# ====== peak extraction ======


def _local_maxima(values: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of values that are >= height.

    A run of equal values counts as one sample: it is a maximum when both
    neighbouring runs are lower, reported at its midpoint (start + end) // 2.
    The first and last runs never are.  These are scipy.signal.find_peaks'
    rules, so the indices match it.
    """
    step = np.diff(values)
    moves = np.flatnonzero(step)
    rising = step[moves] > 0
    # a run rises into moves[k] + 1 and falls after moves[k + 1]
    k = np.flatnonzero(rising[:-1] & ~rising[1:])
    peaks = (moves[k] + 1 + moves[k + 1]) // 2
    return peaks[values[peaks] >= height]


def extract_peaks(tmap: TransmissionMap, omega_m_index: int, prominence_floor_db: float = 3.0):
    """Refined local maxima of one map column, as (omega GHz, prominence dB).

    A sample counts as a peak when it is at least the prominence floor above
    the column mean; its position and height are refined by a three point
    parabola and the prominence is quoted relative to the column mean.
    A run of equal samples counts once, at its midpoint.  Boundary samples
    are never reported.
    """
    if not 0 <= omega_m_index < tmap.omega_m_grid.size:
        raise ValueError("omega_m_index %d out of range" % omega_m_index)
    if not math.isfinite(prominence_floor_db):
        raise ValueError("prominence_floor_db must be finite")
    column = tmap.magnitude_db[:, omega_m_index]
    mean = float(column.mean())
    omega = tmap.omega_grid
    peaks = []
    # Python floats: the same IEEE arithmetic as numpy scalars, at a fraction of the cost
    for i in _local_maxima(column, mean + prominence_floor_db).tolist():
        xl, x0, xr = omega[i - 1:i + 2].tolist()
        yl, y0, yr = column[i - 1:i + 2].tolist()
        curvature, vertex, value = parabola_vertex(xl, yl, x0, y0, xr, yr)
        if curvature >= 0:
            # no maximum between the neighbours: keep the sample itself
            vertex, value = x0, y0
        peaks.append((min(max(vertex, xl), xr), value - mean))
    return peaks


# ====== serialization ======


def map_to_csv(tmap: TransmissionMap) -> str:
    """Long-form CSV (omega_ghz, omega_m_ghz, s21_db), grouped by omega_m."""
    return long_csv_rows("omega_ghz,omega_m_ghz,s21_db\n", tmap.omega_grid, tmap.omega_m_grid,
                         tmap.magnitude_db)


def line_cut_csv(tmap: TransmissionMap, omega_m_index: int, offset_db: float = 0.0) -> str:
    """Two-column CSV of one map column, with an optional presentation offset."""
    if not 0 <= omega_m_index < tmap.omega_m_grid.size:
        raise ValueError("omega_m_index %d out of range" % omega_m_index)
    if not math.isfinite(offset_db):
        raise ValueError("offset_db must be finite")
    column = tmap.magnitude_db[:, omega_m_index] + offset_db
    return "omega_ghz,s21_db\n" + csv_rows(np.column_stack([tmap.omega_grid, column]))
