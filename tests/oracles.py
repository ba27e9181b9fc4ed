"""Independent oracles used by the test suite: an eigenvalue solver and a CSV reader.

Finds the eigenvalues of a complex Hermitian matrix by sign-change bisection on
the characteristic polynomial p(lambda) = det(H - lambda*I).  The determinant is
evaluated directly with a hand-rolled batched LU elimination (partial pivoting),
so no eigensolver routine is involved anywhere on this code path.  This keeps
the oracle fully independent from the package's LAPACK eigensolver.

Limitations: only simple (non-degenerate) spectra are supported.  A repeated
root gives no sign change, and the oracle raises OracleError instead of
guessing.  Tests that involve exact degeneracies use closed-form expected
values instead of this oracle.

The CSV reader is model.read_numeric_csv as it was before numpy's C reader
took over its body: every field through float, in a Python loop.  The
package's reader must accept, reject, word its message and parse bits exactly
as this one does.
"""

import numpy as np

from loopmag.model import SchemaError


class OracleError(RuntimeError):
    """The oracle could not bracket the expected number of real roots."""


def lu_det(mats):
    """Determinants of a batch of square complex matrices via LU elimination.

    Args:
        mats: array (B, n, n), complex.

    Returns:
        array (B,) of complex determinants.
    """
    a = np.array(mats, dtype=np.complex128, copy=True)
    if a.ndim == 2:
        a = a[None]
    batch, n, m = a.shape
    if n != m:
        raise ValueError("matrices must be square")
    det = np.ones(batch, dtype=np.complex128)
    rows = np.arange(batch)
    for k in range(n):
        # partial pivoting: largest remaining |entry| in column k
        piv = np.argmax(np.abs(a[:, k:, k]), axis=1) + k
        swapped = piv != k
        if swapped.any():
            tmp = a[rows, k, :].copy()
            a[rows, k, :] = a[rows, piv, :]
            a[rows, piv, :] = tmp
            det = np.where(swapped, -det, det)
        pivval = a[:, k, k]
        det = det * pivval
        if k + 1 < n:
            safe = np.where(pivval == 0, 1.0, pivval)
            factors = a[:, k + 1 :, k] / safe[:, None]
            factors = np.where((pivval == 0)[:, None], 0.0, factors)
            a[:, k + 1 :, k:] -= factors[:, :, None] * a[:, None, k, k:]
    return det


def char_poly_at(h, lams):
    """Evaluate det(H - lambda*I) at an array of real lambda values.

    The result of det on a Hermitian-shifted matrix is mathematically real;
    the (tiny) imaginary round-off is discarded.
    """
    h = np.asarray(h, dtype=np.complex128)
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    n = h.shape[0]
    eye = np.eye(n)
    out = np.empty(lams.shape[0], dtype=np.float64)
    # chunk to bound memory on dense scans
    step = 4096
    for i in range(0, lams.shape[0], step):
        lam = lams[i : i + step]
        shifted = h[None, :, :] - lam[:, None, None] * eye[None, :, :]
        out[i : i + step] = lu_det(shifted).real
    return out


def char_poly_eigenvalues(h, scan_points=1201, rel_tol=1e-13, max_refine=6):
    """All eigenvalues of a complex Hermitian matrix, by det-sign bisection.

    Args:
        h: (n, n) complex Hermitian array.
        scan_points: initial dense-scan resolution over the Gershgorin interval.
        rel_tol: bisection stops when bracket width < rel_tol * max(1, scale).
        max_refine: scan resolution is quadrupled up to this many times while
            fewer than n sign changes are found and each round finds more
            than the one before.

    Returns:
        (n,) float array of eigenvalues, ascending.

    Raises:
        OracleError: if n simple roots cannot be bracketed (degenerate or
            near-degenerate spectrum beyond scan resolution).
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("matrix must be square")
    herm_defect = np.linalg.norm(h - h.conj().T)
    scale = max(1.0, float(np.linalg.norm(h)))
    if herm_defect > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")

    centers = np.diagonal(h).real
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diagonal(h))
    if np.max(radii) == 0.0:
        return np.sort(centers)
    lo = float(np.min(centers - radii))
    hi = float(np.max(centers + radii))
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad

    points, found = int(scan_points), -1
    for _ in range(max_refine + 1):
        xs = np.linspace(lo, hi, points)
        vals = char_poly_at(h, xs)
        if np.any(vals == 0.0):
            # nudge the grid off the exact zeros, keeping determinism
            xs = xs + (xs[1] - xs[0]) * 1e-3
            vals = char_poly_at(h, xs)
        signs = np.sign(vals)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        # give up once a finer scan brackets no new root: the rest sit in a cluster
        if flips.shape[0] == n or flips.shape[0] <= found:
            break
        found = flips.shape[0]
        points *= 4
    if flips.shape[0] != n:
        raise OracleError(
            "bracketed %d roots, expected %d (degenerate spectrum?)"
            % (flips.shape[0], n)
        )

    a = xs[flips].copy()
    b = xs[flips + 1].copy()
    fa = vals[flips].copy()
    atol = rel_tol * scale
    for _ in range(120):
        if np.max(b - a) < atol:
            break
        mid = 0.5 * (a + b)
        fm = char_poly_at(h, mid)
        same = np.sign(fm) == np.sign(fa)
        hit = fm == 0.0
        a = np.where(same & ~hit, mid, a)
        fa = np.where(same & ~hit, fm, fa)
        b = np.where(~same | hit, mid, b)
        a = np.where(hit, mid, a)
    return np.sort(0.5 * (a + b))


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
