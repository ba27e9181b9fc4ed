"""Fitting device parameters to measured peak positions.

A fit spec pins a device template: mode layout, coupling topology, and the
swept magnon set.  Free parameters are photon frequencies and per-photon
coupling strengths (all edges of one photon share a single strength, the
usual situation when both spheres sit at equivalent field positions).  Loop
phases are not fitted continuously by default; they enter as a list of
discrete hypotheses, each optimized separately and compared by residual.

Every parameter in the fit vector is in GHz, coupling strengths included;
the objective writes them as MHz edges into a copy of the template's stack
of Hamiltonians.  The residual matches each record to its nearest branch,
so it stays well defined when a dataset misses dark or weakly visible peaks.
"""

import math
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain
from operator import add
from typing import NamedTuple

import numpy as np

from .gauge import reduce_system
from .model import (MAX_FREQUENCY_GHZ, MAX_RATE_MHZ, CouplingEdge, SchemaError, SystemModel,
                    anchored, check_mode_frequency, hamiltonians, normalized_coupling, number,
                    optional, parse_phase, read_numeric_csv, string)
# unused here; kept because perfbench's tracer test patches and calls this binding
from .spectrum import branch_frequencies  # noqa: F401

DEFAULT_SIGMA_GHZ = 0.0025
# 1 Hz: keeps ((peak - branch) / sigma)**2 finite for every accepted frequency
MIN_SIGMA_GHZ = 1e-9
DEFAULT_FREQUENCY_BOUNDS_GHZ = (0.1, 50.0)
DEFAULT_COUPLING_BOUNDS_GHZ = (0.0, 2.0)
DEFAULT_THETA_BOUNDS = (-2.0 * math.pi, 2.0 * math.pi)
# the bounds of a search-vector entry without its own, by the kind before its ':'
_DEFAULT_BOUNDS = {"omega_c": DEFAULT_FREQUENCY_BOUNDS_GHZ, "g": DEFAULT_COUPLING_BOUNDS_GHZ,
                   "theta": DEFAULT_THETA_BOUNDS}
MAX_SIMPLEX_ITERATIONS = 5000
AMBIGUITY_RATIO = 1.05

_CSV_HEADER = "omega_m_ghz,omega_peak_ghz,sigma_ghz"
_CSV_HEADER_NO_SIGMA = "omega_m_ghz,omega_peak_ghz"


class PeakRecord(NamedTuple):
    """One measured peak: sweep setting, peak frequency, and its uncertainty."""

    omega_m: float
    omega_peak: float
    sigma: float = DEFAULT_SIGMA_GHZ


@dataclass(frozen=True)
class PeakDataset:
    """Measured peak positions, all in GHz: records of 2 or 3 values, each through float(),
    then checked as one (N, 3) array in this order: finite, omega_m > 0, max(omega_m,
    |omega_peak|) <= MAX_FREQUENCY_GHZ, sigma > 0, sigma >= MIN_SIGMA_GHZ.  The message
    names the first failing record and the first of its checks to fail."""

    records: tuple

    def __post_init__(self):
        records = []
        for k, r in enumerate(self.records):
            try:
                r = tuple(r)
            except TypeError:  # not iterable: no values at all
                r = ()
            if len(r) not in (2, 3):
                raise ValueError("record %d: expected 2 or 3 values" % k)
            records.append(PeakRecord(*map(float, r)))
        object.__setattr__(self, "records", tuple(records))
        if not records:
            raise ValueError("dataset must contain at least one record")
        array = np.fromiter(chain.from_iterable(records), float, 3 * len(records)).reshape(-1, 3)
        omega_m, peaks, sigmas = array.T
        # one row per check, in the order each record is checked
        failed = np.array([~np.isfinite(array).all(axis=1), ~(omega_m > 0),
                           np.maximum(omega_m, np.abs(peaks)) > MAX_FREQUENCY_GHZ,
                           ~(sigmas > 0), sigmas < MIN_SIGMA_GHZ])
        if failed.any():
            k = failed.any(axis=0).argmax()
            messages = ("all values must be finite", "omega_m must be > 0 GHz",
                        "frequencies must be <= %g GHz" % MAX_FREQUENCY_GHZ,
                        "sigma must be > 0 GHz", "sigma must be >= %g GHz" % MIN_SIGMA_GHZ)
            raise ValueError("record %d: %s" % (k, messages[failed[:, k].argmax()]))
        # _columns: sorted unique omega_m, each record's row among them, peaks, sigmas
        omegas, rows = np.unique(omega_m, return_inverse=True)
        object.__setattr__(self, "_columns", (omegas, rows, peaks.copy(), sigmas))


def dataset_from_csv(text: str) -> PeakDataset:
    """Parse peak records from CSV.

    The sigma_ghz column is optional; missing uncertainties get the default.
    """
    _, data = read_numeric_csv(text, (_CSV_HEADER_NO_SIGMA, _CSV_HEADER))
    with anchored(""):
        return PeakDataset(records=data.tolist())


# ====== fit specification ======


@dataclass(frozen=True)
class FitSpec:
    """What to fit, over which template, under which loop-phase hypotheses.

    The base system fixes labels, topology, strengths, and frequencies of
    everything that is not set free.  Its own edge phases are irrelevant to
    the fit: each hypothesis assigns the loop phases outright, in the order
    the gauge reduction reports them, and tree edges are held at zero phase.
    The spec reduces its base system once and keeps which loop each chord
    edge carries, and its base system with every edge at zero phase; every
    objective and residual over it reads both.

    bounds maps names of the search vector ('omega_c:<label>', 'g:<label>',
    and 'theta:<k>' only in continuous mode) to finite (lower, upper) pairs;
    the rest get wide defaults.  With continuous_theta the single entry of
    theta_hypotheses seeds the optimizer, the loop phases join the search
    vector, and the seed is checked against its bounds like initial values.
    """

    base_system: SystemModel
    free_photon_frequencies: tuple = ()
    free_couplings: tuple = ()
    theta_hypotheses: tuple = ((),)
    bounds: dict = field(default_factory=dict)
    continuous_theta: bool = False

    def __post_init__(self):
        object.__setattr__(self, "free_photon_frequencies", tuple(self.free_photon_frequencies))
        object.__setattr__(self, "free_couplings", tuple(self.free_couplings))
        object.__setattr__(self, "theta_hypotheses",
                           tuple(tuple(float(t) for t in h) for h in self.theta_hypotheses))
        object.__setattr__(self, "bounds", dict(self.bounds))
        photons = set(self.base_system.photon_labels())
        for group in (self.free_photon_frequencies, self.free_couplings):
            seen = set()
            for label in group:
                if label not in photons:
                    raise ValueError("free parameter %r is not a photon mode" % label)
                if label in seen:
                    raise ValueError("duplicate free parameter %r" % label)
                seen.add(label)
        coupled = {e.photon for e in self.base_system.edges}
        for label in self.free_couplings:
            if label not in coupled:
                raise ValueError("free coupling %r: the photon has no coupling edge" % label)
        # _chord_loop: each chord's edge index -> its loop's index, in reduction order
        loops = reduce_system(self.base_system).physical_phases
        object.__setattr__(self, "_chord_loop", {p.cycle.chord: k for k, p in enumerate(loops)})
        # _untwisted: the base device with every edge at phase 0, the fit's template
        base = self.base_system
        untwisted = tuple(CouplingEdge(e.photon, e.magnon, e.strength, 0.0) for e in base.edges)
        object.__setattr__(self, "_untwisted", replace(base, edges=untwisted))
        if not self.theta_hypotheses:
            raise ValueError("theta_hypotheses must contain at least one assignment")
        for k, hypothesis in enumerate(self.theta_hypotheses):
            _checked_thetas(self, hypothesis, "hypothesis %d: " % k)
        if self.continuous_theta and len(self.theta_hypotheses) != 1:
            raise ValueError("continuous loop-phase mode takes exactly one seed assignment")
        valid = set(_search_names(self))
        for name, pair in self.bounds.items():
            if name not in valid:
                raise ValueError("bound %r is not a parameter of this fit" % name)
            lo, hi = (float(v) for v in pair)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("bounds for %r must be finite" % name)
            if hi <= lo:
                raise ValueError(
                    "bounds for %r: upper end %g is below the lower end %g"
                    % (name, hi, lo)
                )
            if name.startswith("omega_c:") and hi > MAX_FREQUENCY_GHZ:
                raise ValueError(
                    "bounds for %r must be <= %g GHz" % (name, MAX_FREQUENCY_GHZ)
                )
            if name.startswith("g:") and max(-lo, hi) > MAX_RATE_MHZ * 1e-3:
                raise ValueError(
                    "bounds for %r must be within +-%g GHz" % (name, MAX_RATE_MHZ * 1e-3)
                )
            if name.startswith("omega_c:") and lo <= 0:
                raise ValueError("bounds for %r must be > 0 GHz" % name)
            self.bounds[name] = (lo, hi)

    def parameter_names(self) -> tuple:
        return tuple("omega_c:%s" % l for l in self.free_photon_frequencies) + tuple(
            "g:%s" % l for l in self.free_couplings
        )


@dataclass(frozen=True)
class HypothesisFit:
    """Optimum found under one loop-phase assignment."""

    theta_assignment: tuple
    params: dict
    residual: float
    converged: bool


@dataclass(frozen=True)
class FitResult(HypothesisFit):
    """The winning HypothesisFit, plus the full per-hypothesis table.

    ambiguous is set when the two best hypotheses reach near-equal residuals,
    meaning the dataset does not discriminate the loop phase.
    """

    ambiguous: bool
    per_hypothesis: tuple


# ====== the fit objective ======


def _checked_params(spec: FitSpec, params) -> tuple:
    values = tuple(float(v) for v in params)
    names = spec.parameter_names()
    if len(values) != len(names):
        raise ValueError(
            "expected %d parameters, got %d" % (len(names), len(values))
        )
    if not all(map(math.isfinite, values)):
        raise ValueError("parameters must be finite")
    return values


def _checked_thetas(spec: FitSpec, theta_assignment, where="") -> tuple:
    thetas = tuple(float(t) for t in theta_assignment)
    n_loops = len(spec._chord_loop)
    if len(thetas) != n_loops:
        raise ValueError(
            "%sexpected %d loop phase(s), got %d" % (where, n_loops, len(thetas))
        )
    if not all(map(math.isfinite, thetas)):
        raise ValueError("%sloop phases must be finite" % where)
    return thetas


def _residual_of_table(table: np.ndarray, data: PeakDataset) -> float:
    """Residual of branch tables given at the dataset's sorted unique omega_m."""
    _, rows, peaks, sigmas = data._columns
    # one row per branch, one column per record; the nearest branch is exact in any order
    distance = table.T.take(rows, 1)
    distance -= peaks
    nearest = np.minimum.reduce(np.abs(distance, out=distance), axis=0)
    nearest /= sigmas
    nearest *= nearest
    # add.accumulate (np.cumsum minus its wrapper's allocations) adds in record order; np.sum's
    # pairwise summation would differ in the last bits and steer the simplex elsewhere
    return float(np.add.accumulate(nearest)[-1])


def _objective(spec: FitSpec, data: PeakDataset):
    """The residual as a function of (params, thetas), on Hamiltonians built once.

    The template stack is hamiltonians of the spec's base device with every
    edge at zero phase: the gauge-reduced form of each edge that no free coupling or
    loop phase moves (a tree edge).  Each evaluation copies it, writes in the
    free photon frequencies, each checked as ModeSpec checks a mode's, and
    then only the moving edges in gauge-reduced form (tree edges at zero
    phase, chords at the loop phases of the spec's chord -> loop map),
    normalized by the rule CouplingEdge uses (model.normalized_coupling: a
    negative strength is a pi shift).  Each moving edge keeps its last phase
    and exp(-i phase), so an unchanged phase is not rotated again.
    """
    base = spec.base_system
    template = hamiltonians(spec._untwisted, data._columns[0])
    row = {m.label: i for i, m in enumerate(base.modes)}
    free_rows = tuple(row[label] for label in spec.free_photon_frequencies)
    slot = {label: len(free_rows) + k for k, label in enumerate(spec.free_couplings)}
    # (row p, row m, photon, magnon, fixed strength, slot, loop) per moving edge
    moving = [(row[e.photon], row[e.magnon], e.photon, e.magnon, e.strength,
               slot.get(e.photon), spec._chord_loop.get(idx))
              for idx, e in enumerate(base.edges)
              if e.photon in slot or idx in spec._chord_loop]
    phases = [None] * len(moving)  # each moving edge's last phase, and its exp(-i phase)
    rotations = [None] * len(moving)

    def objective(params, thetas) -> float:
        mats = template.copy()
        for label, i, value in zip(spec.free_photon_frequencies, free_rows, params):
            check_mode_frequency(label, value)
            mats[:, i, i] = value
        for j, (p, m, photon, magnon, strength, k, loop) in enumerate(moving):
            strength, phase = normalized_coupling(
                photon, magnon, params[k] * 1e3 if k is not None else strength,
                thetas[loop] if loop is not None else 0.0)
            if phase != phases[j]:  # a folded phase is never -0.0: equal means equal bits
                phases[j], rotations[j] = phase, np.exp(-1j * phase)
            value = (strength * 1e-3) * rotations[j]
            mats[:, p, m] = value
            mats[:, m, p] = np.conj(value)
        vals, _ = np.linalg.eigh(mats)
        return _residual_of_table(vals, data)

    return objective


def residual(spec: FitSpec, params, theta_assignment, data: PeakDataset) -> float:
    """Sum of squared sigma-scaled distances to the nearest model branch."""
    values = _checked_params(spec, params)
    thetas = _checked_thetas(spec, theta_assignment)
    return _objective(spec, data)(values, thetas)


# ====== simplex descent ======


def _search_names(spec: FitSpec) -> tuple:
    """parameter_names(), then 'theta:<k>' per loop in continuous mode: the simplex's vector."""
    n_thetas = len(spec.theta_hypotheses[0]) if spec.continuous_theta else 0
    return spec.parameter_names() + tuple("theta:%d" % k for k in range(n_thetas))


def _start(spec: FitSpec, initial) -> tuple:
    """The simplex's start vector and its box of (lower, upper) pairs: the free
    parameters of initial, then the seed loop phases in continuous mode, each
    checked against its bounds."""
    values = _checked_params(spec, initial)
    if spec.continuous_theta:
        values += spec.theta_hypotheses[0]
    box = []
    for name, value in zip(_search_names(spec), values):
        lo, hi = spec.bounds.get(name, _DEFAULT_BOUNDS[name.partition(":")[0]])
        if not lo <= value <= hi:
            raise ValueError("initial value %g for %r is outside its bounds [%g, %g]"
                             % (value, name, lo, hi))
        box.append((lo, hi))
    return np.array(values), box


_Descent = NamedTuple("_Descent", [("x", np.ndarray), ("fun", float), ("nit", int),
                                   ("nfev", int), ("success", bool)])


class _Capped(Exception):
    """The evaluation cap is reached; no evaluation is made past it."""


def _clip(point, lower, upper, ties_to_bound) -> list:
    """np.clip per coordinate, NaN passing through.  A coordinate equal to a bound
    (a tie of signed zeros) takes the bound's bits when ties_to_bound, as numpy's
    elementwise loop does, and keeps its own otherwise, as its loop over scalar
    bounds does."""
    if not ties_to_bound:
        point = [lo if lo > x else x for x, lo in zip(point, lower)]
        return [hi if hi < x else x for x, hi in zip(point, upper)]
    point = [x if x > lo or x != x else lo for x, lo in zip(point, lower)]
    return [x if x < hi or x != x else hi for x, hi in zip(point, upper)]


def _nelder_mead(objective, x0, lower, upper, max_iterations, xatol, max_evaluations):
    """scipy 1.17.1's bounded Nelder-Mead (_minimize_neldermead) step for step, on
    the path _simplex uses: default coefficients and initial simplex, and fatol=inf,
    which is inert while every objective value is finite.

    The vertices are lists of floats, and objective is called with one of them.
    Each coordinate takes scipy's arithmetic in scipy's order: the centroid is
    numpy's add.reduce (0.0, then each vertex in turn) over n, and np.argsort
    orders the vertices, so ties break as they do in scipy.  _clip is np.clip
    as scipy calls it: with one parameter, scipy's bounds are broadcast from a
    single entry, so numpy clips against scalars and a tie keeps the vertex.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= max_evaluations:
            raise _Capped
        nfev += 1
        return objective(x)

    def ordered():
        order = np.argsort(fsim).tolist()
        return [sim[k] for k in order], [fsim[k] for k in order]

    lower, upper = [float(v) for v in lower], [float(v) for v in upper]
    n = len(lower)

    def clip(point):
        return _clip(point, lower, upper, n > 1)

    x0 = clip([float(v) for v in x0])
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        # a vertex past the upper bound is reflected into the box, then clipped
        sim.append(clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)]))
    fsim = [math.inf] * (n + 1)
    with suppress(_Capped):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    for _ in range(2):  # as scipy does: argsort need not be stable
        sim, fsim = ordered()
    nit = 1
    while nfev < max_evaluations and nit < max_iterations:
        with suppress(_Capped):
            best, worst = sim[0], sim[-1]
            if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)):
                break
            xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
            xr = clip([(1 + rho) * b - rho * w for b, w in zip(xbar, worst)])
            fxr = f(xr)
            if fxr < fsim[0]:  # expand
                xe = clip([(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract: outside the simplex if xr beats the worst vertex, else inside
                outside = fxr < fsim[-1]
                xc = clip([(1 + psi * rho) * b - psi * rho * w if outside
                           else (1 - psi) * b + psi * w for b, w in zip(xbar, worst)])
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:  # scipy's two tie rules
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = clip([b + sigma * (v - b) for v, b in zip(sim[j], best)])
                        fsim[j] = f(sim[j])
            nit += 1
        sim, fsim = ordered()
    success = nfev < max_evaluations and nit < max_iterations
    return _Descent(np.array(sim[0]), np.min(fsim), nit, nfev, success)


def _simplex(objective, x0, bounds, max_iterations):
    # Bounded Nelder-Mead judged on simplex diameter alone, with one restart
    # from the best point when the iteration cap is hit first.  Without a free
    # parameter there is nothing to descend: the residual is taken as it is.
    if not len(x0):
        return _Descent(x0, objective(x0), 0, 1, True)
    lower, upper = zip(*bounds)
    xatol = 1e-6 * max(1.0, max(map(abs, x0)))
    result = _nelder_mead(objective, x0, lower, upper, max_iterations, xatol, 10**7)
    if not result.success:
        result = _nelder_mead(objective, result.x, lower, upper, max_iterations, xatol, 10**7)
    return result


def _check_max_iterations(value) -> None:
    if type(value) is not int or value < 1:  # not isinstance: bool is an int
        raise ValueError("max_iterations: expected a positive integer")


def fit(
    spec: FitSpec,
    data: PeakDataset,
    initial,
    max_iterations: int = MAX_SIMPLEX_ITERATIONS,
) -> FitResult:
    """Optimize every loop-phase hypothesis and keep the lowest residual.

    initial holds the free parameters in parameter_names() order, GHz, and
    max_iterations is a positive int.  The descent is deterministic; hitting the
    cap (after one restart) is reported through converged=False with the best point.
    """
    _check_max_iterations(max_iterations)
    names = spec.parameter_names()
    x0, box = _start(spec, initial)
    objective = _objective(spec, data)
    outcomes = []
    for hypothesis in spec.theta_hypotheses:
        # the free parameters, then the loop phases: in continuous mode, the vector's tail
        def split(x, hypothesis=hypothesis):
            return x[:len(names)], x[len(names):] if spec.continuous_theta else hypothesis

        best = _simplex(lambda x: objective(*split(x)), x0, box, max_iterations)
        params, thetas = split(best.x)
        outcomes.append(
            HypothesisFit(
                theta_assignment=tuple(float(v) for v in thetas),
                params=dict(zip(names, (float(v) for v in params))),
                residual=float(best.fun),
                converged=bool(best.success),
            )
        )

    winner = min(outcomes, key=lambda h: h.residual)
    ambiguous = False
    if len(outcomes) > 1:
        ordered = sorted(h.residual for h in outcomes)
        eps = 1e-12 * len(data.records)
        ambiguous = (ordered[1] + eps) / (ordered[0] + eps) < AMBIGUITY_RATIO
    return FitResult(**vars(winner), ambiguous=ambiguous, per_hypothesis=tuple(outcomes))


# ====== fit spec documents ======


def _spec_list(document: dict, key: str, what: str, default=None) -> list:
    value = optional(document, key, default)
    if not isinstance(value, list):
        raise SchemaError("fit spec.%s: expected a list of %s" % (key, what))
    return value


def _spec_labels(document: dict, key: str) -> tuple:
    labels = _spec_list(document, key, "labels", [])
    return tuple(string(label, "fit spec.%s[%d]" % (key, k)) for k, label in enumerate(labels))


def fit_spec_from_document(document: dict, system: SystemModel) -> tuple:
    """The FitSpec over system, the checked initial values and the iteration cap
    of a fit spec document; its 'preset' or 'system' key is read by the caller."""
    if "theta_hypotheses" not in document or "initial" not in document:
        raise SchemaError("fit spec: 'theta_hypotheses' and 'initial' are required")
    hypotheses = []
    for k, hypothesis in enumerate(_spec_list(document, "theta_hypotheses", "loop-phase lists")):
        if not isinstance(hypothesis, list):
            raise SchemaError("fit spec.theta_hypotheses[%d]: expected a list of loop phases" % k)
        with anchored("fit spec.theta_hypotheses[%d]: " % k):
            hypotheses.append(tuple(parse_phase(value) for value in hypothesis))
    bounds_doc = optional(document, "bounds", {})
    if not isinstance(bounds_doc, dict):
        raise SchemaError("fit spec.bounds: expected an object of [lower, upper] pairs")
    bounds = {}
    for name, pair in bounds_doc.items():
        where = "fit spec.bounds.%s" % name
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError("%s: expected a [lower, upper] pair" % where)
        bounds[name] = tuple(number(v, "%s[%d]" % (where, k)) for k, v in enumerate(pair))
    continuous = optional(document, "continuous_theta", False)
    if not isinstance(continuous, bool):
        raise SchemaError("fit spec.continuous_theta: expected true or false")
    spec = FitSpec(
        base_system=system,
        free_photon_frequencies=_spec_labels(document, "free_photon_frequencies"),
        free_couplings=_spec_labels(document, "free_couplings"),
        theta_hypotheses=tuple(hypotheses),
        bounds=bounds,
        continuous_theta=continuous,
    )
    initial = _spec_list(document, "initial", "numbers")
    initial = tuple(number(v, "fit spec.initial[%d]" % k) for k, v in enumerate(initial))
    if len(initial) != len(spec.parameter_names()):
        raise SchemaError(
            "fit spec: 'initial' must hold %d value(s), got %d"
            % (len(spec.parameter_names()), len(initial))
        )
    _start(spec, initial)
    max_iterations = optional(document, "max_iterations", MAX_SIMPLEX_ITERATIONS)
    with anchored("fit spec."):
        _check_max_iterations(max_iterations)
    return spec, initial, max_iterations
