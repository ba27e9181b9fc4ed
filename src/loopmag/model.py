"""Device description and Hamiltonian assembly for loop-coupled photon-magnon systems.

All frequencies are stored as linear frequencies (omega / 2pi): GHz for mode
frequencies, MHz for coupling strengths and loss rates.  The Hamiltonian matrix
is H / hbar expressed in GHz linear frequency.  The matrix entry
<photon|H|magnon> carries g * exp(-i*phase).
"""

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Ceiling on every mode, grid and peak frequency, in GHz.  It sits far above
# any microwave device and far below where a Hamiltonian's norm overflows
# (near 1e154 GHz), so no accepted frequency can turn a result into inf or NaN.
MAX_FREQUENCY_GHZ = 1e6
# Ceiling on every coupling strength and loss rate, in MHz: the same bound,
# so every Hamiltonian and damping entry stays finite and far from overflow.
MAX_RATE_MHZ = MAX_FREQUENCY_GHZ * 1e3

PHASE_STRINGS = {
    "pi/2": math.pi / 2.0,
    "-pi/2": -math.pi / 2.0,
    "pi": math.pi,
    "0": 0.0,
}


class SchemaError(ValueError):
    """A JSON document does not match the system schema; message is path-anchored."""


def fold_phase(x: float) -> float:
    """Fold an angle in radians into the interval (-pi, pi]."""
    return math.pi - (math.pi - x) % TWO_PI


def parse_phase(value) -> float:
    """Accept a phase as a number or one of the strings 'pi/2', '-pi/2', 'pi', '0'."""
    if isinstance(value, str):
        try:
            return PHASE_STRINGS[value]
        except KeyError:
            raise SchemaError(
                "phase_rad: unknown phase string %r (allowed: %s)"
                % (value, ", ".join(sorted(PHASE_STRINGS)))
            ) from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, "phase_rad")
    raise SchemaError("phase_rad: expected number or phase string, got %r" % (value,))


@dataclass(frozen=True)
class ModeSpec:
    """One bosonic mode.

    Args:
        label: unique mode name.
        kind: 'photon' or 'magnon'.
        frequency: mode frequency in GHz (linear).
        intrinsic_loss: full intrinsic linewidth in MHz, or None if unspecified.
        external_loss: per-port external linewidth in MHz (photons only), or None.
    """

    label: str
    kind: str
    frequency: float
    intrinsic_loss: float | None = None
    external_loss: float | None = None

    def __post_init__(self):
        if self.kind not in ("photon", "magnon"):
            raise ValueError("mode %r: kind must be 'photon' or 'magnon'" % self.label)
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError("mode %r: frequency must be finite and > 0 GHz" % self.label)
        if self.frequency > MAX_FREQUENCY_GHZ:
            raise ValueError(
                "mode %r: frequency must be <= %g GHz" % (self.label, MAX_FREQUENCY_GHZ)
            )
        for name in ("intrinsic_loss", "external_loss"):
            rate = getattr(self, name)
            if rate is not None and not (math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    "mode %r: %s must be finite and >= 0 MHz" % (self.label, name)
                )
        if self.kind == "magnon" and self.external_loss is not None:
            raise ValueError(
                "mode %r: magnons do not couple to ports, external_loss must be unset"
                % self.label
            )
        for name in ("intrinsic_loss", "external_loss"):
            if (getattr(self, name) or 0.0) > MAX_RATE_MHZ:
                raise ValueError(
                    "mode %r: %s must be <= %g MHz" % (self.label, name, MAX_RATE_MHZ)
                )


@dataclass(frozen=True)
class CouplingEdge:
    """Directed photon->magnon coupling with strength g (MHz) and phase (rad).

    A negative strength is normalized on construction: the sign is absorbed
    into the phase as a pi shift.  The stored phase is folded into (-pi, pi].
    """

    photon: str
    magnon: str
    strength: float
    phase: float

    def __post_init__(self):
        strength = float(self.strength)
        phase = float(self.phase)
        if not (math.isfinite(strength) and math.isfinite(phase)):
            raise ValueError(
                "edge (%s, %s): strength and phase must be finite" % (self.photon, self.magnon)
            )
        if abs(strength) > MAX_RATE_MHZ:
            raise ValueError(
                "edge (%s, %s): strength must be within +-%g MHz"
                % (self.photon, self.magnon, MAX_RATE_MHZ)
            )
        if strength < 0:
            strength = -strength
            phase += math.pi
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "phase", fold_phase(phase))


@dataclass(frozen=True)
class SystemModel:
    """Full device description: modes, coupling edges, and the swept magnon set."""

    modes: tuple
    edges: tuple
    magnon_sweep_target: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(
            self, "magnon_sweep_target", frozenset(self.magnon_sweep_target)
        )
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique")
        kinds = {m.label: m.kind for m in self.modes}
        seen_pairs = set()
        for e in self.edges:
            if kinds.get(e.photon) != "photon":
                raise ValueError("edge (%s, %s): %r is not a photon mode" % (e.photon, e.magnon, e.photon))
            if kinds.get(e.magnon) != "magnon":
                raise ValueError("edge (%s, %s): %r is not a magnon mode" % (e.photon, e.magnon, e.magnon))
            pair = (e.photon, e.magnon)
            if pair in seen_pairs:
                raise ValueError("duplicate edge for pair (%s, %s)" % pair)
            seen_pairs.add(pair)
        for label in self.magnon_sweep_target:
            if kinds.get(label) != "magnon":
                raise ValueError("sweep target %r is not a magnon mode" % label)

    def mode(self, label: str) -> ModeSpec:
        for m in self.modes:
            if m.label == label:
                return m
        raise ValueError("unknown mode label %r" % label)

    def photon_labels(self) -> tuple:
        return tuple(m.label for m in self.modes if m.kind == "photon")

    def magnon_labels(self) -> tuple:
        return tuple(m.label for m in self.modes if m.kind == "magnon")


@dataclass(frozen=True)
class HermitianMatrixGHz:
    """Hermitian matrix in GHz linear-frequency units, with mode labels per row."""

    labels: tuple
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "entries", entries)
        n = len(self.labels)
        if entries.shape != (n, n):
            raise ValueError("entries must be square with one row per label")
        scale = max(float(np.linalg.norm(entries)), 1e-300)
        if np.linalg.norm(entries - entries.conj().T) > 1e-12 * scale:
            raise ValueError("matrix is not Hermitian to 1e-12 relative")

    @property
    def dimension(self) -> int:
        return len(self.labels)


def write_coupling(matrices: np.ndarray, p: int, m: int, edge: CouplingEdge) -> None:
    """Write strength * 1e-3 * exp(-i * phase) at (p, m) of a matrix or a stack
    of matrices, and its conjugate at (m, p).
    """
    value = (edge.strength * 1e-3) * np.exp(-1j * edge.phase)
    matrices[..., p, m] = value
    matrices[..., m, p] = np.conj(value)


def build_hamiltonian(system: SystemModel, omega_m: float) -> HermitianMatrixGHz:
    """Assemble the Hamiltonian matrix at a given swept magnon frequency.

    The diagonal holds mode frequencies in GHz, with every magnon in
    magnon_sweep_target replaced by omega_m.  The off-diagonal entries come
    from write_coupling.

    Args:
        system: validated device description.
        omega_m: swept magnon frequency in GHz, > 0 and <= MAX_FREQUENCY_GHZ.
    """
    if not omega_m > 0:
        raise ValueError("omega_m must be > 0 GHz")
    if not math.isfinite(omega_m):
        raise ValueError("omega_m must be finite")
    if omega_m > MAX_FREQUENCY_GHZ:
        raise ValueError("omega_m must be <= %g GHz" % MAX_FREQUENCY_GHZ)
    n = len(system.modes)
    index = {m.label: i for i, m in enumerate(system.modes)}
    h = np.zeros((n, n), dtype=np.complex128)
    for i, mode in enumerate(system.modes):
        if mode.kind == "magnon" and mode.label in system.magnon_sweep_target:
            h[i, i] = omega_m
        else:
            h[i, i] = mode.frequency
    for e in system.edges:
        write_coupling(h, index[e.photon], index[e.magnon], e)
    return HermitianMatrixGHz(tuple(index), h)


def hamiltonians(system: SystemModel, omega_m_grid: np.ndarray) -> np.ndarray:
    """Hamiltonians over a magnon grid, shape (N, n, n), rows in system.modes order.

    Built once at the first grid point, then the swept diagonal is overwritten,
    so each slice equals build_hamiltonian at its grid point bit for bit.
    """
    base = build_hamiltonian(system, float(omega_m_grid[0])).entries
    mats = np.broadcast_to(base, (len(omega_m_grid), *base.shape)).copy()
    for k, mode in enumerate(system.modes):
        if mode.label in system.magnon_sweep_target:
            mats[:, k, k] = omega_m_grid
    return mats


class RwaCheck(NamedTuple):
    edge: CouplingEdge
    ratio: float
    ok: bool


def check_rwa(system: SystemModel) -> list:
    """Coupling-to-frequency ratio per edge; ok when strength/omega_photon < 10%."""
    out = []
    for e in system.edges:
        omega = system.mode(e.photon).frequency
        ratio = (e.strength * 1e-3) / omega
        out.append(RwaCheck(e, ratio, ratio < 0.10))
    return out


def apply_vertex_phases(system: SystemModel, phases) -> SystemModel:
    """Rotate mode phases: each edge phase maps to phase + alpha_photon - alpha_magnon.

    Modes absent from the mapping keep alpha = 0.  Strengths are unchanged and
    resulting phases are folded into (-pi, pi].
    """
    known = {m.label for m in system.modes}
    for label in phases:
        if label not in known:
            raise ValueError("unknown mode label %r" % label)
    new_edges = tuple(
        CouplingEdge(
            e.photon,
            e.magnon,
            e.strength,
            fold_phase(e.phase + phases.get(e.photon, 0.0) - phases.get(e.magnon, 0.0)),
        )
        for e in system.edges
    )
    return SystemModel(system.modes, new_edges, system.magnon_sweep_target)


# ====== JSON document interface ======


def system_to_document(system: SystemModel) -> dict:
    """Serialize a SystemModel to its plain-JSON document form."""
    return {
        "modes": [
            {
                "label": m.label,
                "kind": m.kind,
                "frequency_ghz": m.frequency,
                "intrinsic_loss_mhz": m.intrinsic_loss,
                "external_loss_mhz": m.external_loss,
            }
            for m in system.modes
        ],
        "edges": edges_to_document(system.edges),
        "sweep": sorted(system.magnon_sweep_target),
    }


def edges_to_document(edges) -> list:
    """Serialize CouplingEdges to their plain-JSON document form."""
    return [
        {"photon": e.photon, "magnon": e.magnon, "g_mhz": e.strength, "phase_rad": e.phase}
        for e in edges
    ]


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise SchemaError("%s: expected an object" % where)
    if key not in doc:
        raise SchemaError("%s.%s: missing required key" % (where, key))
    return doc[key]


def _number(value, where: str, allow_none=False):
    if value is None and allow_none:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # JSON admits NaN, Infinity, and integers too large for a float
        number = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(number):
            raise SchemaError("%s: expected a finite number" % where)
        return number
    raise SchemaError("%s: expected a number" % where)


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError("%s: expected a string" % where)
    return value


def system_from_document(doc: dict) -> SystemModel:
    """Parse and validate a SystemModel JSON document.

    Raises:
        SchemaError: with a path-anchored message on any schema violation.
    """
    modes_doc = _require(doc, "modes", "document")
    edges_doc = _require(doc, "edges", "document")
    sweep_doc = _require(doc, "sweep", "document")
    if not isinstance(modes_doc, list):
        raise SchemaError("modes: expected a list")
    if not isinstance(edges_doc, list):
        raise SchemaError("edges: expected a list")
    if not isinstance(sweep_doc, list):
        raise SchemaError("sweep: expected a list")
    modes = []
    for i, m in enumerate(modes_doc):
        where = "modes[%d]" % i
        label = _string(_require(m, "label", where), where + ".label")
        kind = _string(_require(m, "kind", where), where + ".kind")
        freq = _number(_require(m, "frequency_ghz", where), where + ".frequency_ghz")
        intrinsic = _number(
            m.get("intrinsic_loss_mhz"), where + ".intrinsic_loss_mhz", allow_none=True
        )
        external = _number(
            m.get("external_loss_mhz"), where + ".external_loss_mhz", allow_none=True
        )
        try:
            modes.append(ModeSpec(label, kind, freq, intrinsic, external))
        except ValueError as err:
            raise SchemaError("%s: %s" % (where, err)) from None
    edges = []
    for i, e in enumerate(edges_doc):
        where = "edges[%d]" % i
        photon = _string(_require(e, "photon", where), where + ".photon")
        magnon = _string(_require(e, "magnon", where), where + ".magnon")
        g = _number(_require(e, "g_mhz", where), where + ".g_mhz")
        try:
            phase = parse_phase(_require(e, "phase_rad", where))
        except SchemaError as err:
            raise SchemaError("%s.%s" % (where, err)) from None
        try:
            edges.append(CouplingEdge(photon, magnon, g, phase))
        except ValueError as err:
            raise SchemaError("%s: %s" % (where, err)) from None
    for i, label in enumerate(sweep_doc):
        if not isinstance(label, str):
            raise SchemaError("sweep[%d]: expected a mode label" % i)
    try:
        return SystemModel(tuple(modes), tuple(edges), frozenset(sweep_doc))
    except ValueError as err:
        raise SchemaError(str(err)) from None


# ====== numeric CSV exports and frequency axes ======


def read_numeric_csv(text: str, headers) -> tuple:
    """The header line and the (rows, cols) float64 data of a numeric CSV export.

    The first non-blank line must equal one of headers, and every data row
    must hold as many comma-separated finite numbers as that header names.
    Blank lines are skipped; every message names the line of the text.
    """
    lines = text.splitlines()
    start = next((k for k, line in enumerate(lines) if line.strip()), None)
    expected = " or ".join(map(repr, headers))
    if start is None:
        raise SchemaError("CSV is empty; expected the header %s" % expected)
    header = lines[start].strip()
    if header not in headers:
        raise SchemaError("line %d: unrecognized header; expected %s" % (start + 1, expected))
    n_cols = header.count(",") + 1
    rows = []
    for k, line in enumerate(lines[start + 1:], start=start + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise SchemaError("line %d: expected %d columns, got %d" % (k, n_cols, len(parts)))
        try:
            rows.append(list(map(float, parts)))
        except ValueError:
            raise SchemaError("line %d: could not parse a numeric value" % k) from None
    if not rows:
        raise SchemaError("CSV contains no data rows")
    data = np.array(rows, dtype=np.float64)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # float() takes nan and inf; count lines again to report the first such row
        numbers = [k for k, line in enumerate(lines[start + 1:], start=start + 2) if line.strip()]
        raise SchemaError("line %d: expected finite numbers" % numbers[np.argmin(finite)])
    return header, data


def frequency_axis(values, name: str) -> np.ndarray:
    """values as a float64 array, checked to be non-empty, 1-d, strictly increasing,
    finite and within MAX_FREQUENCY_GHZ in magnitude."""
    axis = np.asarray(values, dtype=np.float64)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError("%s must be a non-empty 1-d array" % name)
    if not np.all(np.diff(axis) > 0):
        raise ValueError("%s must be strictly increasing" % name)
    if not np.all(np.isfinite(axis)):
        raise ValueError("%s must be finite" % name)
    if max(-axis[0], axis[-1]) > MAX_FREQUENCY_GHZ:
        raise ValueError("%s must be within +-%g GHz" % (name, MAX_FREQUENCY_GHZ))
    return axis
