"""Reference computations and output checks, independent of loopmag.

Every check recomputes its expectation from the device document or the
generated input with plain numpy (or from a property the method must have),
never from loopmag and never from a stored copy of an earlier output.  A
failed check raises CheckError with a message naming what disagreed.
"""

import hashlib
import math

import numpy as np

# Loss defaults documented in loopmag/transmission.py: an unset intrinsic
# loss is 5 MHz for photons and 2 MHz for magnons, and a port with no
# explicit couplings drives every photon at its mode-level external rate,
# which falls back to the intrinsic rate.
PHOTON_LOSS_MHZ = 5.0
MAGNON_LOSS_MHZ = 2.0

_PHASE_STRINGS = {"pi": math.pi, "-pi/2": -math.pi / 2, "pi/2": math.pi / 2, "0": 0.0}


class CheckError(AssertionError):
    """An output disagrees with the reference computation."""


def fold(x):
    """Fold an angle into (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def edge_phase(value) -> float:
    return _PHASE_STRINGS[value] if isinstance(value, str) else float(value)


def hamiltonians(system_doc, omega_m) -> np.ndarray:
    """(N, n, n) Hamiltonians in GHz; entry (photon, magnon) = g*1e-3*exp(-i*phi)."""
    omega_m = np.atleast_1d(np.asarray(omega_m, dtype=float))
    modes = system_doc["modes"]
    index = {m["label"]: k for k, m in enumerate(modes)}
    swept = set(system_doc["sweep"])
    h = np.zeros((omega_m.size, len(modes), len(modes)), dtype=complex)
    for k, m in enumerate(modes):
        is_swept = m["kind"] == "magnon" and m["label"] in swept
        h[:, k, k] = omega_m if is_swept else m["frequency_ghz"]
    for e in system_doc["edges"]:
        p, q = index[e["photon"]], index[e["magnon"]]
        value = e["g_mhz"] * 1e-3 * np.exp(-1j * edge_phase(e["phase_rad"]))
        h[:, p, q] = value
        h[:, q, p] = np.conj(value)
    return h


def branches(system_doc, omega_m) -> np.ndarray:
    """Ascending eigenvalues (GHz) per magnon frequency, by LAPACK."""
    return np.linalg.eigvalsh(hamiltonians(system_doc, omega_m))


def n_photons(system_doc) -> int:
    return sum(m["kind"] == "photon" for m in system_doc["modes"])


def s21_db(system_doc, omega, omega_m) -> np.ndarray:
    """20 log10 |d2^T (i(H - omega) + Gamma/2)^-1 d1| at paired points, default ports."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = len(system_doc["modes"])
    gamma = np.zeros(n)
    drive = np.zeros(n)
    for k, m in enumerate(system_doc["modes"]):
        photon = m["kind"] == "photon"
        intrinsic = m.get("intrinsic_loss_mhz")
        if intrinsic is None:
            intrinsic = PHOTON_LOSS_MHZ if photon else MAGNON_LOSS_MHZ
        gamma[k] = intrinsic
        if photon:
            external = m.get("external_loss_mhz")
            external = intrinsic if external is None else external
            gamma[k] += 2.0 * external
            drive[k] = math.sqrt(external * 1e-3)
    h = hamiltonians(system_doc, omega_m)
    m = 1j * (h - omega[:, None, None] * np.eye(n)) + np.diag(gamma * 1e-3) / 2.0
    x = np.linalg.solve(m, np.broadcast_to(drive, (omega.size, n))[..., None])[..., 0]
    return 20.0 * np.log10(np.abs(x @ drive))


def chi2(omega_m, peaks, sigma, table_omega_m, table) -> float:
    """Sum of squared sigma-scaled distances from each peak to its nearest branch."""
    row = {value: k for k, value in enumerate(np.asarray(table_omega_m).tolist())}
    rows = table[[row[v] for v in np.asarray(omega_m).tolist()]]
    nearest = np.min(np.abs(rows - np.asarray(peaks)[:, None]), axis=1)
    return float(np.sum((nearest / np.asarray(sigma)) ** 2))


def transverse_phase(positions, h, weights, center, radius) -> float:
    """arg(Ix + i Iy) of a real field over one sphere."""
    inside = np.linalg.norm(positions - np.asarray(center), axis=1) <= radius
    ix = float(np.sum(weights[inside] * h[inside, 0]))
    iy = float(np.sum(weights[inside] * h[inside, 1]))
    return math.atan2(iy, ix)


# ====== checks ======


def _fail(what, detail):
    raise CheckError("%s: %s" % (what, detail))


def check_branches(table, system_doc, omega_m, rtol=1e-9, what="branches"):
    table = np.asarray(table, dtype=float)
    ref = branches(system_doc, omega_m)
    if table.shape != ref.shape:
        _fail(what, "shape %s, expected %s" % (table.shape, ref.shape))
    err = np.abs(table - ref) - rtol * np.abs(ref)
    if not np.all(err <= 1e-12):
        k = np.unravel_index(np.argmax(err), err.shape)
        _fail(what, "%r vs eigvalsh %r at %s" % (table[k], ref[k], k))


def check_photon_weights(weights, photons, atol=1e-9, what="photon weights"):
    weights = np.asarray(weights, dtype=float)
    if not np.all((weights >= -atol) & (weights <= 1.0 + atol)):
        _fail(what, "a weight lies outside [0, 1]")
    sums = weights.sum(axis=1)
    if not np.all(np.abs(sums - photons) <= atol * weights.shape[1]):
        _fail(what, "row sums %r, expected %d photons" % (sums[np.argmax(np.abs(sums - photons))], photons))


def check_s21(values_db, system_doc, omega, omega_m, atol_db=1e-6, what="S21"):
    ref = s21_db(system_doc, omega, omega_m)
    values_db = np.asarray(values_db, dtype=float)
    err = np.abs(values_db - ref)
    if not np.all(err <= atol_db):
        k = int(np.argmax(err))
        _fail(what, "%r dB vs reference %r dB at omega=%r omega_m=%r"
              % (values_db[k], ref[k], np.atleast_1d(omega)[k], np.atleast_1d(omega_m)[k]))


def check_passive(values_db, what="S21"):
    worst = float(np.max(values_db))
    if not worst <= 1e-9:
        _fail(what, "|S21| reaches %r dB above 0 dB on a passive two-port" % worst)


def check_peaks(peaks_per_column, ref_table, tol_ghz, what="peaks"):
    """Every extracted peak lies within tol of an eigenvalue of its column."""
    for j, peaks in enumerate(peaks_per_column):
        for omega, _ in peaks:
            distance = float(np.min(np.abs(ref_table[j] - omega)))
            if distance > tol_ghz:
                _fail(what, "peak %r GHz in column %d is %.3g MHz from every branch"
                      % (omega, j, distance * 1e3))


def cycle_phase(system_doc, cycle) -> float:
    """Loop phase along a closed vertex walk: +phi photon->magnon, -phi back."""
    kinds = {m["label"]: m["kind"] for m in system_doc["modes"]}
    phase = {(e["photon"], e["magnon"]): edge_phase(e["phase_rad"]) for e in system_doc["edges"]}
    total = 0.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += phase[(a, b)] if kinds[a] == "photon" else -phase[(b, a)]
    return fold(total)


def check_gauge(report, system_doc, expected=None, what="gauge"):
    """Reported loop phases: right count, each equal to the phase summed along its
    cycle in the document, and (when given) the expected set up to sign."""
    phases = report["physical_phases"]
    used = {e["photon"] for e in system_doc["edges"]} | {e["magnon"] for e in system_doc["edges"]}
    components = _components(system_doc)
    count = len(system_doc["edges"]) - len(used) + components
    if len(phases) != count:
        _fail(what, "%d loop phases, expected edges - modes + components = %d" % (len(phases), count))
    for p in phases:
        walked = cycle_phase(system_doc, list(p["cycle"]))
        if abs(fold(p["theta_rad"] - walked)) > 1e-9:
            _fail(what, "theta %r differs from %r summed along %s" % (p["theta_rad"], walked, p["cycle"]))
    if expected is not None:
        got = sorted(abs(fold(p["theta_rad"])) for p in phases)
        want = sorted(abs(fold(t)) for t in expected)
        if len(got) != len(want) or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
            _fail(what, "loop phases %r, expected %r" % (got, want))


def _components(system_doc) -> int:
    parent = {}

    def root(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for e in system_doc["edges"]:
        parent[root(e["photon"])] = root(e["magnon"])
    return len({root(v) for v in list(parent)})


def check_field_edges(edges, expected_phase, what="fieldmap"):
    """Edge phases equal the reference arg(Ix + i Iy); the two-sphere loop is pi."""
    got = {(e["photon"], e["magnon"]): e for e in edges}
    if set(got) != set(expected_phase):
        _fail(what, "edges %s, expected %s" % (sorted(got), sorted(expected_phase)))
    for key, phi in expected_phase.items():
        e = got[key]
        if not (math.isfinite(e["g_mhz"]) and e["g_mhz"] > 0):
            _fail(what, "edge %s has strength %r" % (key, e["g_mhz"]))
        if abs(fold(e["phase_rad"] - phi)) > 1e-9:
            _fail(what, "edge %s phase %r, reference %r" % (key, e["phase_rad"], phi))
    p = {key: e["phase_rad"] for key, e in got.items()}
    loop = fold(p[("c1", "m1")] - p[("c1", "m2")] + p[("c2", "m2")] - p[("c2", "m1")])
    if abs(abs(loop) - math.pi) > 1e-6:
        _fail(what, "edges close a loop of phase %r, expected pi" % loop)


def check_fit(theta_assignment, residual, chi2_truth, what="fit"):
    if len(theta_assignment) != 1 or abs(abs(fold(theta_assignment[0])) - math.pi) > 1e-12:
        _fail(what, "picked loop phase %r, expected pi" % (theta_assignment,))
    if not residual <= chi2_truth * (1.0 + 1e-9) + 1e-12:
        _fail(what, "residual %r exceeds chi2 %r at the true parameters" % (residual, chi2_truth))


def check_recovery(params, truth, atol, what="fit"):
    for name, value in truth.items():
        if not abs(params[name] - value) <= atol:
            _fail(what, "%s = %r, truth %r" % (name, params[name], value))


def check_repeat(seen, key, *payloads, what="repeat"):
    """Byte-identical output for a repeated job; remembers the first payloads' hash."""
    digest = hashlib.sha256()
    for payload in payloads:
        # in 1 MB slices, so hashing a map CSV adds no copy of it to peak memory
        for start in range(0, len(payload), 1 << 20):
            chunk = payload[start:start + (1 << 20)]
            digest.update(chunk.encode() if isinstance(chunk, str) else chunk)
    if seen.setdefault(key, digest.hexdigest()) != digest.hexdigest():
        _fail(what, "%s gave different bytes on a repeat" % (key,))


# ====== CSV parse-back ======


def parse_spectrum_csv(text, n_modes, n_rows, what="spectrum CSV"):
    """(omega_m, branches, weights) from a spectrum CSV of the expected shape."""
    lines = text.splitlines()
    header = ["omega_m_ghz"] + ["branch_%d_ghz" % k for k in range(n_modes)]
    header += ["pweight_%d" % k for k in range(n_modes)]
    if not lines or lines[0] != ",".join(header):
        _fail(what, "header %r" % (lines[0] if lines else ""))
    if len(lines) != n_rows + 1 or not text.endswith("\n"):
        _fail(what, "%d lines, expected %d" % (len(lines), n_rows + 1))
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.shape != (n_rows, 1 + 2 * n_modes):
        _fail(what, "shape %s" % (data.shape,))
    return data[:, 0], data[:, 1:1 + n_modes], data[:, 1 + n_modes:]


def parse_s21_csv(text, n_probe, n_magnon, rows, what="S21 CSV"):
    """Check the long-form shape and return {row: (omega, omega_m, db)} for
    the requested 0-based data rows; rows run probe-fastest within a magnon step."""
    n_lines = n_probe * n_magnon + 1
    if text.count("\n") != n_lines or not text.endswith("\n"):
        _fail(what, "%d lines, expected %d" % (text.count("\n"), n_lines))
    if text.count(",") != 2 * n_lines:
        _fail(what, "not three columns on every line")
    header = "omega_ghz,omega_m_ghz,s21_db\n"
    if not text.startswith(header):
        _fail(what, "header")
    # walk line starts in place: splitting an 8 MB map would raise peak memory
    out = {}
    line, start = 0, len(header)
    for k in sorted(set(rows)):
        while line < k:
            start = text.index("\n", start) + 1
            line += 1
        out[k] = tuple(float(v) for v in text[start:text.index("\n", start)].split(","))
    return out
