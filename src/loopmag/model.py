"""Device description and Hamiltonian assembly for loop-coupled photon-magnon systems.

All frequencies are stored as linear frequencies (omega / 2pi): GHz for mode
frequencies, MHz for coupling strengths and loss rates.  The Hamiltonian matrix
is H / hbar expressed in GHz linear frequency.  The matrix entry
<photon|H|magnon> carries g * exp(-i*phase).
"""

import contextlib
import functools
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
# The rotating-wave approximation behind the Hamiltonian holds while every
# coupling stays below this fraction of its photon frequency.
RWA_LIMIT = 0.10
# Ceiling on the complex entries of one stack of matrices, one n x n matrix
# per grid point: 2**24 entries are 256 MiB, so no accepted grid and device
# can ask for a stack that exhausts memory.
MAX_STACK_ENTRIES = 1 << 24

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
        return number(value, "phase_rad")
    raise SchemaError("phase_rad: expected number or phase string, got %r" % (value,))


def check_mode_frequency(label: str, frequency: float) -> None:
    """Raise ValueError unless a mode frequency is finite, > 0 and <= MAX_FREQUENCY_GHZ."""
    if not (math.isfinite(frequency) and frequency > 0):
        raise ValueError("mode %r: frequency must be finite and > 0 GHz" % label)
    if frequency > MAX_FREQUENCY_GHZ:
        raise ValueError("mode %r: frequency must be <= %g GHz" % (label, MAX_FREQUENCY_GHZ))


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
        check_mode_frequency(self.label, self.frequency)
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


def normalized_coupling(photon: str, magnon: str, strength, phase) -> tuple:
    """The (strength, phase) an edge (photon, magnon) stores, as floats.

    Both must be finite and |strength| <= MAX_RATE_MHZ.  A negative strength
    becomes a pi shift of the phase, and the phase is folded into (-pi, pi].
    """
    strength = float(strength)
    phase = float(phase)
    if not (math.isfinite(strength) and math.isfinite(phase)):
        raise ValueError("edge (%s, %s): strength and phase must be finite" % (photon, magnon))
    if abs(strength) > MAX_RATE_MHZ:
        raise ValueError(
            "edge (%s, %s): strength must be within +-%g MHz" % (photon, magnon, MAX_RATE_MHZ)
        )
    if strength < 0:
        strength = -strength
        phase += math.pi
    return strength, fold_phase(phase)


@dataclass(frozen=True)
class CouplingEdge:
    """Directed photon->magnon coupling with strength g (MHz) and phase (rad).

    Strength and phase are stored as normalized_coupling returns them: a
    negative strength is absorbed into the phase as a pi shift, and the phase
    is folded into (-pi, pi].
    """

    photon: str
    magnon: str
    strength: float
    phase: float

    def __post_init__(self):
        strength, phase = normalized_coupling(self.photon, self.magnon, self.strength, self.phase)
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "phase", phase)


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
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
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
        if mode.label in system.magnon_sweep_target:
            h[i, i] = omega_m
        else:
            h[i, i] = mode.frequency
    for e in system.edges:
        write_coupling(h, index[e.photon], index[e.magnon], e)
    return HermitianMatrixGHz(tuple(index), h)


def check_stack(points: int, n: int, where: str) -> None:
    """Raise ValueError when points n x n matrices exceed MAX_STACK_ENTRIES entries."""
    if points * n * n > MAX_STACK_ENTRIES:
        raise ValueError("%s * modes^2 must be <= %d" % (where, MAX_STACK_ENTRIES))


def check_index(value, size: int, name: str, range_name: str) -> None:
    """Raise ValueError unless value indexes a sequence of size: first unless it is
    an integer (a numpy integer, not a bool), then unless 0 <= value < size."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s: expected an integer, got %r" % (name, value))
    if not 0 <= value < size:
        raise ValueError("%s %d out of range" % (range_name, value))


def hamiltonians(system: SystemModel, omega_m_grid: np.ndarray) -> np.ndarray:
    """Hamiltonians over a magnon grid, shape (N, n, n), rows in system.modes order.

    Built once at the first grid point, then the swept diagonal is overwritten,
    so each slice equals build_hamiltonian at its grid point bit for bit.
    Raises ValueError before allocating a stack beyond MAX_STACK_ENTRIES.
    """
    check_stack(len(omega_m_grid), len(system.modes), "len(omega_m_grid)")
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
    """Coupling-to-frequency ratio per edge; ok when strength/omega_photon < RWA_LIMIT."""
    frequency = {m.label: m.frequency for m in system.modes}
    out = []
    for e in system.edges:
        ratio = (e.strength * 1e-3) / frequency[e.photon]
        out.append(RwaCheck(e, ratio, ratio < RWA_LIMIT))
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


def require(doc: dict, key: str, where: str):
    """doc[key], where doc must be an object holding key."""
    if not isinstance(doc, dict):
        raise SchemaError("%s: expected an object" % where)
    if key not in doc:
        raise SchemaError("%s.%s: missing required key" % (where, key))
    return doc[key]


def optional(doc: dict, key: str, default):
    """doc[key], or default when the key is absent or null."""
    return default if doc.get(key) is None else doc[key]


def number(value, where: str, allow_none=False):
    """value as a finite float (None passes when allow_none)."""
    if value is None and allow_none:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # JSON admits NaN, Infinity, and integers too large for a float
        number = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(number):
            raise SchemaError("%s: expected a finite number" % where)
        return number
    raise SchemaError("%s: expected a number" % where)


def string(value, where: str) -> str:
    """value, which must be a string."""
    if not isinstance(value, str):
        raise SchemaError("%s: expected a string" % where)
    return value


@contextlib.contextmanager
def anchored(prefix: str):
    """Re-raise a ValueError from the block as a SchemaError of prefix + its message."""
    try:
        yield
    except ValueError as error:
        raise SchemaError(prefix + str(error)) from None


def system_from_document(doc: dict) -> SystemModel:
    """Parse and validate a SystemModel JSON document.

    Raises:
        SchemaError: with a path-anchored message on any schema violation.
    """
    modes_doc = require(doc, "modes", "document")
    edges_doc = require(doc, "edges", "document")
    sweep_doc = require(doc, "sweep", "document")
    for key, value in (("modes", modes_doc), ("edges", edges_doc), ("sweep", sweep_doc)):
        if not isinstance(value, list):
            raise SchemaError("%s: expected a list" % key)
    modes = []
    for i, m in enumerate(modes_doc):
        where = "modes[%d]" % i
        label = string(require(m, "label", where), where + ".label")
        kind = string(require(m, "kind", where), where + ".kind")
        freq = number(require(m, "frequency_ghz", where), where + ".frequency_ghz")
        intrinsic = number(
            m.get("intrinsic_loss_mhz"), where + ".intrinsic_loss_mhz", allow_none=True
        )
        external = number(
            m.get("external_loss_mhz"), where + ".external_loss_mhz", allow_none=True
        )
        with anchored(where + ": "):
            modes.append(ModeSpec(label, kind, freq, intrinsic, external))
    edges = []
    for i, e in enumerate(edges_doc):
        where = "edges[%d]" % i
        photon = string(require(e, "photon", where), where + ".photon")
        magnon = string(require(e, "magnon", where), where + ".magnon")
        g = number(require(e, "g_mhz", where), where + ".g_mhz")
        phase = require(e, "phase_rad", where)  # outside: require names the path itself
        with anchored(where + "."):
            phase = parse_phase(phase)
        with anchored(where + ": "):
            edges.append(CouplingEdge(photon, magnon, g, phase))
    for i, label in enumerate(sweep_doc):
        if not isinstance(label, str):
            raise SchemaError("sweep[%d]: expected a mode label" % i)
    with anchored(""):
        return SystemModel(tuple(modes), tuple(edges), frozenset(sweep_doc))


# ====== numeric CSV exports and frequency axes ======


def read_numeric_csv(text: str, headers) -> tuple:
    """The header line and the (rows, cols) float64 data of a numeric CSV export.

    The first non-blank line must equal one of headers, and every data row
    must hold as many comma-separated finite numbers as that header names.
    Blank lines are skipped, a body of only blank lines is rejected, and
    every message names the line of the text.  numpy's C reader parses the
    body.  When it rejects it, or reads another width than the header's or a
    non-finite value, a loop that reads each field with float runs instead:
    it alone decides what is accepted and what each message says.
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
    body = lines[start + 1:]
    if not any(map(str.strip, body)):  # decided before loadtxt, which warns on such a body
        raise SchemaError("CSV contains no data rows")
    # Both readers see the lines of splitlines.  loadtxt skips empty lines but
    # rejects whitespace-only ones, and strips \x1f where float does not.
    if "\x1f" not in text:
        with contextlib.suppress(ValueError):
            data = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            if data.shape[1] == n_cols and np.isfinite(data).all():
                return header, data
    rows = []
    for k, line in enumerate(body, start=start + 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise SchemaError("line %d: expected %d columns, got %d" % (k, n_cols, len(parts)))
        try:
            rows.append(list(map(float, parts)))
        except ValueError:
            raise SchemaError("line %d: could not parse a numeric value" % k) from None
    data = np.array(rows, dtype=np.float64)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # float() takes nan and inf; count lines again to report the first such row
        numbers = [k for k, line in enumerate(body, start=start + 2) if line.strip()]
        raise SchemaError("line %d: expected finite numbers" % numbers[np.argmin(finite)])
    return header, data


# ====== %.9g CSV text ======

# bytes per g9_cells cell: a text of at most 23 characters, NUL-padded, then an end byte
CELL_BYTES = 24
# values per block of csv_rows, long_csv_rows and s21_map (magnon points whose probe values and
# matrix entries come to at most this, or one point): temporaries of a few MB.
# The CSV writers grow their text by +=, which CPython resizes in place (the local is its only
# reference), so a CSV is held once plus one block, not as blocks and their join. CPython 3.11
# does so only in the specialized instruction, which it skips while a trace or profile function
# is set: then each block copies the text.
BLOCK_VALUES = 1 << 15
_POW10 = np.array([10.0**k for k in range(13)])  # exact
_POW10_INT = np.array([10**k for k in range(9)], dtype=np.uint32)


@functools.cache
def _cell_tables() -> tuple:
    """The little-endian 64-bit words that g9_cells ORs together into cells.

    A cell is three words: the sign at byte 0, a lead ("0.", "0.0", "0.00"
    or "0.000" for exponents -1..-4) in bytes 1-5, the digits d0..d8 at
    bytes 6, 8, ..., 22 with a point slot after each of d0..d7, and the end
    byte 23.  quads[q] puts the four digits of q at the even bytes of a word
    (d1..d4 in word 1, d5..d8 in word 2), and quads[10000 + q] the same
    without trailing zeros.  frames[((e + 4) * 2 + fraction) * 2 + negative],
    for exponents e in -4..9, holds the sign, the lead, the integer part's
    digit slots set to "0" (ORing "0" into a digit character keeps it) and,
    when there is a fraction, the point after d_e.  Built on first use, so
    that importing the package runs no numpy computation.
    """
    q = np.arange(10000, dtype=np.uint16)
    quads = np.zeros((2, 10000, 8), np.uint8)
    for k in range(4):
        quads[0, :, 2 * k] = q // 10 ** (3 - k) % 10 + ord("0")
        quads[1, :, 2 * k] = quads[0, :, 2 * k] * (q % 10 ** (4 - k) != 0)
    frames = np.zeros((56, CELL_BYTES), np.uint8)
    for e in range(-4, 10):
        for fraction in (0, 1):
            for negative in (0, 1):
                cell = frames[((e + 4) * 2 + fraction) * 2 + negative]
                cell[0] = ord("-") * negative
                if e < 0:
                    lead = b"0." + b"0" * (-e - 1)
                    cell[1:1 + len(lead)] = np.frombuffer(lead, np.uint8)
                if e > 0:
                    cell[8:7 + 2 * min(e, 8):2] = ord("0")
                if 0 <= e <= 7 and fraction:
                    cell[7 + 2 * e] = ord(".")
    quads, frames = quads.reshape(20000, 8).view("<u8")[:, 0], frames.view("<u8")
    quads.flags.writeable = frames.flags.writeable = False
    return quads, frames


def g9_cells(values, end=0) -> np.ndarray:
    """'%.9g' % v of each float64 value, as fixed-width cells for CSV text.

    Returns uint8 of shape values.shape + (CELL_BYTES,): each cell holds the
    characters of its text in order with NUL bytes among and after them, then
    the end byte, end broadcast against values.  cells_text removes the NULs.

    The digits of 1e-4 <= |v| < 1e9 are computed here: with
    e = floor(log10|v|), 10**(8 - e) is exact, so s = |v| * 10**(8 - e), of
    at most nine integer digits, is within 2**-24 of the exact product, and
    rounding s to an integer rounds the exact product the same way unless
    the fraction of s is within 2**-21 of one half.  Those values, zeros,
    non-finite values, values whose log10 is off by one and values that
    print with an exponent are formatted by Python's %, in one call.
    """
    v = np.asarray(values, dtype=np.float64)
    flat = v.ravel()
    a = np.abs(flat)
    fast = np.isfinite(a) & (a > 0)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    fast &= (e >= -4) & (e <= 8)
    np.clip(e, -4, 8, out=e)
    s = a * _POW10[8 - e]
    whole = np.floor(s)
    fraction = s - whole
    fast &= (whole >= 1e8) & (whole < 1e9) & (np.abs(fraction - 0.5) > 2.0**-21)
    n = np.minimum(whole, 1e9).astype(np.uint32) + (fraction > 0.5)
    carry = n == 10**9
    n[carry] = 10**8
    e += carry
    fast &= e <= 8
    d0 = n // 10**8
    rest = n - d0 * 10**8
    q1 = rest // 10000
    q2 = rest - q1 * 10000
    has_fraction = n % _POW10_INT[8 - np.clip(e, 0, 8)] != 0
    quads, frames = _cell_tables()
    words = np.take(frames, ((e + 4) * 2 + has_fraction) * 2 + (flat < 0), axis=0)
    words[:, 0] |= (d0.astype(np.uint64) + ord("0")) << 48
    words[:, 1] |= quads[q1 + 10000 * (q2 == 0)]
    words[:, 2] |= quads[q2 + 10000]
    cells = words.view(np.uint8).reshape(v.shape + (CELL_BYTES,))
    cells[..., -1] = end
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ("%.9g\n" * slow.size) % tuple(flat[slow].tolist())
        cells.reshape(-1, CELL_BYTES)[slow, :-1] = np.array(
            texts.split("\n")[:-1], dtype="S%d" % (CELL_BYTES - 1)
        ).view(np.uint8).reshape(-1, CELL_BYTES - 1)
    return cells


def cells_text(cells: np.ndarray) -> str:
    """The text of an array of g9_cells cells: its bytes without the NULs."""
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(table) -> str:
    """One CSV line of comma-separated '%.9g' % v cells per row of a 2-d table."""
    table = np.asarray(table, dtype=np.float64)
    ends = np.full(table.shape[1], ord(","), np.uint8)
    ends[-1] = ord("\n")
    step = max(1, BLOCK_VALUES // table.shape[1])
    text = ""
    for k in range(0, len(table), step):
        text += cells_text(g9_cells(table[k:k + step], ends))
    return text


def long_csv_rows(header: str, rows_axis, columns_axis, table) -> str:
    """header, then the CSV lines 'rows_axis[i],columns_axis[j],table[i, j]', grouped by j."""
    rows, columns = _axis_cells(rows_axis), _axis_cells(columns_axis)
    # one row of bytes per CSV line: each axis text padded to its longest, then the value cell
    line = np.dtype([("r", rows.dtype), ("c", columns.dtype), ("v", "V%d" % CELL_BYTES)])
    text = header
    width = max(1, BLOCK_VALUES // rows.size)
    for start in range(0, columns.size, width):
        block = slice(start, start + width)
        lines = np.empty((columns[block].size, rows.size), line)
        lines["r"] = rows
        lines["c"] = columns[block, None]
        lines["v"] = g9_cells(table[:, block].T, ord("\n")).view(line["v"])[..., 0]
        text += cells_text(lines)
    return text


def _axis_cells(axis: np.ndarray) -> np.ndarray:
    """'%.9g,' % v of each axis value, as bytes NUL-padded to the longest."""
    return np.array([text + "," for text in cells_text(g9_cells(axis, ord("\n"))).splitlines()],
                    dtype="S")


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
