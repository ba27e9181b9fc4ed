"""Fitting device parameters to measured peak positions.

A fit spec pins a device template: mode layout, coupling topology, and the
swept magnon set.  Free parameters are photon frequencies and per-photon
coupling strengths (all edges of one photon share a single strength, the
usual situation when both spheres sit at equivalent field positions).  Loop
phases are not fitted continuously by default; they enter as a list of
discrete hypotheses, each optimized separately and compared by residual.

Every parameter in the fit vector is in GHz, coupling strengths included;
edge strengths are converted to MHz only when a trial system is built.  The
residual matches each record to its nearest model branch, which keeps the
objective well defined when a dataset misses dark or weakly visible peaks.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gauge import reduce_system
from .model import (MAX_FREQUENCY_GHZ, MAX_RATE_MHZ, CouplingEdge, SchemaError, SystemModel,
                    hamiltonians, number, parse_phase, read_numeric_csv, string, write_coupling)
# unused here; kept because perfbench's tracer test patches and calls this binding
from .spectrum import branch_frequencies  # noqa: F401

DEFAULT_SIGMA_GHZ = 0.0025
# 1 Hz: keeps ((peak - branch) / sigma)**2 finite for every accepted frequency
MIN_SIGMA_GHZ = 1e-9
DEFAULT_FREQUENCY_BOUNDS_GHZ = (0.1, 50.0)
DEFAULT_COUPLING_BOUNDS_GHZ = (0.0, 2.0)
DEFAULT_THETA_BOUNDS = (-2.0 * math.pi, 2.0 * math.pi)
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
    """Measured peak positions, all in GHz."""

    records: tuple

    def __post_init__(self):
        records = tuple(PeakRecord(*map(float, r)) for r in self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise ValueError("dataset must contain at least one record")
        for k, r in enumerate(records):
            if not all(map(math.isfinite, r)):
                raise ValueError("record %d: all values must be finite" % k)
            if not r.omega_m > 0:
                raise ValueError("record %d: omega_m must be > 0 GHz" % k)
            if max(r.omega_m, abs(r.omega_peak)) > MAX_FREQUENCY_GHZ:
                raise ValueError("record %d: frequencies must be <= %g GHz" % (k, MAX_FREQUENCY_GHZ))
            if not r.sigma > 0:
                raise ValueError("record %d: sigma must be > 0 GHz" % k)
            if r.sigma < MIN_SIGMA_GHZ:
                raise ValueError("record %d: sigma must be >= %g GHz" % (k, MIN_SIGMA_GHZ))

    @cached_property
    def _columns(self):
        """Sorted unique omega_m, each record's row among them, peaks (n, 1), sigmas."""
        array = np.array(self.records)
        omegas, rows = np.unique(array[:, 0], return_inverse=True)
        return omegas, rows, array[:, 1:2], array[:, 2]


def dataset_from_csv(text: str) -> PeakDataset:
    """Parse peak records from CSV.

    The sigma_ghz column is optional; missing uncertainties get the default.
    """
    _, data = read_numeric_csv(text, (_CSV_HEADER_NO_SIGMA, _CSV_HEADER))
    try:
        return PeakDataset(records=data.tolist())
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# ====== fit specification ======


@dataclass(frozen=True)
class FitSpec:
    """What to fit, over which template, under which loop-phase hypotheses.

    The base system fixes labels, topology, strengths, and frequencies of
    everything that is not set free.  Its own edge phases are irrelevant to
    the fit: each hypothesis assigns the loop phases outright, in the order
    the gauge reduction reports them, and tree edges are held at zero phase.

    bounds maps parameter names ('omega_c:<label>', 'g:<label>', and
    'theta:<k>' in continuous mode) to finite (lower, upper) pairs; free
    parameters without an entry get wide defaults.  With continuous_theta the
    single entry of theta_hypotheses seeds the optimizer and the loop phases
    join the parameter vector.
    """

    base_system: SystemModel
    free_photon_frequencies: tuple = ()
    free_couplings: tuple = ()
    theta_hypotheses: tuple = ((),)
    bounds: dict = field(default_factory=dict)
    continuous_theta: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "free_photon_frequencies", tuple(self.free_photon_frequencies)
        )
        object.__setattr__(self, "free_couplings", tuple(self.free_couplings))
        object.__setattr__(
            self,
            "theta_hypotheses",
            tuple(tuple(float(t) for t in h) for h in self.theta_hypotheses),
        )
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
        n_loops = len(reduce_system(self.base_system).physical_phases)
        if not self.theta_hypotheses:
            raise ValueError("theta_hypotheses must contain at least one assignment")
        for k, hypothesis in enumerate(self.theta_hypotheses):
            if len(hypothesis) != n_loops:
                raise ValueError(
                    "hypothesis %d: expected %d loop phase(s), got %d"
                    % (k, n_loops, len(hypothesis))
                )
            if not all(map(math.isfinite, hypothesis)):
                raise ValueError("hypothesis %d: loop phases must be finite" % k)
        if self.continuous_theta and len(self.theta_hypotheses) != 1:
            raise ValueError(
                "continuous loop-phase mode takes exactly one seed assignment"
            )
        valid = set(self.parameter_names())
        valid.update("theta:%d" % k for k in range(n_loops))
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
class FitResult:
    """Best hypothesis with its parameters, plus the full per-hypothesis table.

    ambiguous is set when the two best hypotheses reach near-equal residuals,
    meaning the dataset does not discriminate the loop phase.
    """

    params: dict
    theta_assignment: tuple
    residual: float
    converged: bool
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


def _checked_thetas(spec: FitSpec, theta_assignment) -> tuple:
    thetas = tuple(float(t) for t in theta_assignment)
    n_loops = len(spec.theta_hypotheses[0])
    if len(thetas) != n_loops:
        raise ValueError(
            "expected %d loop phase(s), got %d" % (n_loops, len(thetas))
        )
    return thetas


def _residual_of_table(table: np.ndarray, data: PeakDataset) -> float:
    """Residual of branch tables given at the dataset's sorted unique omega_m."""
    _, rows, peaks, sigmas = data._columns
    nearest = np.abs(table[rows] - peaks).min(axis=1)
    # cumsum adds in record order like a running total; np.sum's pairwise
    # summation would differ in the last bits and steer the simplex elsewhere
    return float(np.cumsum((nearest / sigmas) ** 2)[-1])


def _objective(spec: FitSpec, data: PeakDataset):
    """The residual as a function of (params, thetas), on Hamiltonians built once.

    Each evaluation copies the stack, writes in the free photon frequencies and
    every edge in gauge-reduced form (tree edges at zero phase, chords at their
    loop phases) through CouplingEdge, so a negative strength is a pi shift.
    """
    base = spec.base_system
    reduction = reduce_system(base)
    chord_loop = {p.cycle.chord: k for k, p in enumerate(reduction.physical_phases)}
    stack = hamiltonians(base, data._columns[0])
    row = {m.label: i for i, m in enumerate(base.modes)}
    free_rows = tuple(row[label] for label in spec.free_photon_frequencies)
    slot = {label: len(free_rows) + k for k, label in enumerate(spec.free_couplings)}
    edges = tuple(
        (row[e.photon], row[e.magnon], e, slot.get(e.photon), chord_loop.get(idx))
        for idx, e in enumerate(base.edges)
    )

    def objective(params, thetas) -> float:
        mats = stack.copy()
        for label, i, value in zip(spec.free_photon_frequencies, free_rows, params):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("mode %r: frequency must be finite and > 0 GHz" % label)
            mats[:, i, i] = float(value)
        for p, m, edge, k, loop in edges:
            strength = float(params[k]) * 1e3 if k is not None else edge.strength
            phase = float(thetas[loop]) if loop is not None else 0.0
            write_coupling(mats, p, m, CouplingEdge(edge.photon, edge.magnon, strength, phase))
        vals, _ = np.linalg.eigh(mats)
        return _residual_of_table(vals, data)

    return objective


def residual(spec: FitSpec, params, theta_assignment, data: PeakDataset) -> float:
    """Sum of squared sigma-scaled distances to the nearest model branch."""
    values = _checked_params(spec, params)
    thetas = _checked_thetas(spec, theta_assignment)
    return _objective(spec, data)(values, thetas)


# ====== simplex descent ======


def _bounds_for(spec: FitSpec, names) -> list:
    pairs = []
    for name in names:
        if name in spec.bounds:
            pairs.append(spec.bounds[name])
        elif name.startswith("omega_c:"):
            pairs.append(DEFAULT_FREQUENCY_BOUNDS_GHZ)
        elif name.startswith("g:"):
            pairs.append(DEFAULT_COUPLING_BOUNDS_GHZ)
        else:
            pairs.append(DEFAULT_THETA_BOUNDS)
    return pairs


def _simplex(objective, x0, bounds, max_iterations):
    # Convergence is judged on simplex diameter alone (fatol is inert), with
    # one restart from the best point when the iteration cap is hit first.
    # Imported here so that only fitting pays for loading scipy.
    from scipy.optimize import minimize

    scale = max(1.0, float(np.max(np.abs(x0))))
    options = {
        "maxiter": max_iterations,
        "maxfev": 10**7,
        "xatol": 1e-6 * scale,
        "fatol": math.inf,
    }
    result = minimize(objective, x0, method="Nelder-Mead", bounds=bounds, options=options)
    if not result.success:
        result = minimize(
            objective, result.x, method="Nelder-Mead", bounds=bounds, options=options
        )
    return result


def _initial_values(spec: FitSpec, initial) -> tuple:
    """The free parameters of initial as floats, each checked against its bounds."""
    values = _checked_params(spec, initial)
    names = spec.parameter_names()
    for name, value, (lo, hi) in zip(names, values, _bounds_for(spec, names)):
        if not lo <= value <= hi:
            raise ValueError(
                "initial value %g for %r is outside its bounds [%g, %g]"
                % (value, name, lo, hi)
            )
    return values


def fit(
    spec: FitSpec,
    data: PeakDataset,
    initial,
    max_iterations: int = MAX_SIMPLEX_ITERATIONS,
) -> FitResult:
    """Optimize every loop-phase hypothesis and keep the lowest residual.

    initial holds the free parameters in parameter_names() order, GHz.  The
    descent is deterministic; hitting the iteration cap (after one restart)
    is reported through converged=False with the best point found so far.
    """
    names = spec.parameter_names()
    values = _initial_values(spec, initial)
    bounds = _bounds_for(spec, names)
    if spec.continuous_theta:
        bounds += _bounds_for(spec, ["theta:%d" % k for k in range(len(spec.theta_hypotheses[0]))])

    objective = _objective(spec, data)
    n_params = len(names)
    outcomes = []
    for hypothesis in spec.theta_hypotheses:
        # continuous mode: the loop phases join the parameter vector
        x0 = values + hypothesis if spec.continuous_theta else values

        def trial(x, hypothesis=hypothesis):
            thetas = x[n_params:] if spec.continuous_theta else hypothesis
            return objective(x[:n_params], thetas)

        best = _simplex(trial, np.array(x0), bounds, max_iterations)
        thetas = best.x[n_params:] if spec.continuous_theta else hypothesis
        outcomes.append(
            HypothesisFit(
                theta_assignment=tuple(float(v) for v in thetas),
                params=dict(zip(names, (float(v) for v in best.x[:n_params]))),
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
    return FitResult(
        params=winner.params,
        theta_assignment=winner.theta_assignment,
        residual=winner.residual,
        converged=winner.converged,
        ambiguous=ambiguous,
        per_hypothesis=tuple(outcomes),
    )


# ====== fit spec documents ======


def _spec_list(document: dict, key: str, what: str, default=None) -> list:
    value = document.get(key, default)
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
        try:
            hypotheses.append(tuple(parse_phase(value) for value in hypothesis))
        except SchemaError as error:
            raise SchemaError("fit spec.theta_hypotheses[%d]: %s" % (k, error)) from None
    bounds_doc = document.get("bounds", {})
    if not isinstance(bounds_doc, dict):
        raise SchemaError("fit spec.bounds: expected an object of [lower, upper] pairs")
    bounds = {}
    for name, pair in bounds_doc.items():
        where = "fit spec.bounds.%s" % name
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError("%s: expected a [lower, upper] pair" % where)
        bounds[name] = tuple(number(v, "%s[%d]" % (where, k)) for k, v in enumerate(pair))
    continuous = document.get("continuous_theta", False)
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
    initial = _initial_values(spec, initial)
    max_iterations = document.get("max_iterations", MAX_SIMPLEX_ITERATIONS)
    if type(max_iterations) is not int or max_iterations < 1:  # not isinstance: bool is an int
        raise SchemaError("fit spec.max_iterations: expected a positive integer")
    return spec, initial, max_iterations
