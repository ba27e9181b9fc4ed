"""Spans around loopmag's public functions, recorded from outside the package.

Each traced function is replaced, at every module binding that holds it, by
one wrapper that records a span (name, start, end, parent span, job).  The
modules import each other by name (``from .spectrum import
branch_frequencies``), so wrapping only the defining module would miss the
calls made through ``loopmag.calibrate.branch_frequencies``.  Spans are kept
in memory and written out when the run ends; per-layer self time is a
span's duration minus the durations of its child spans.
"""

import functools
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function, (count suffix, count of the result) or None)
LAYERS = (
    ("model.system_from_document", "loopmag.model", "system_from_document", None),
    ("model.build_hamiltonian", "loopmag.model", "build_hamiltonian", None),
    ("gauge.reduce_system", "loopmag.gauge", "reduce_system", None),
    ("spectrum.branch_frequencies", "loopmag.spectrum", "branch_frequencies",
     ("points", len)),
    ("spectrum.sweep", "loopmag.spectrum", "sweep", ("points", lambda r: r.omega_m_grid.size)),
    ("spectrum.sweep_to_csv", "loopmag.spectrum", "sweep_to_csv", ("bytes", len)),
    ("transmission.s21_map", "loopmag.transmission", "s21_map",
     ("points", lambda r: r.magnitude_db.size)),
    ("transmission.map_to_csv", "loopmag.transmission", "map_to_csv", ("bytes", len)),
    ("transmission.extract_peaks", "loopmag.transmission", "extract_peaks", None),
    ("fieldmap.field_table_from_csv", "loopmag.fieldmap", "field_table_from_csv",
     ("samples", lambda r: r.weights.size)),
    ("fieldmap.coupling_table", "loopmag.fieldmap", "coupling_table", None),
    ("calibrate.fit", "loopmag.calibrate", "fit", None),
    ("calibrate.dataset_from_csv", "loopmag.calibrate", "dataset_from_csv", None),
)

# every per-layer metric a traced run reports, with its unit; layers a
# workload does not reach report 0
METRICS = (
    ("cli.import_loopmag_s", "s"),
    ("cli.import_scipy_signal_s", "s"),
    ("cli.import_scipy_optimize_s", "s"),
    ("cli.self_s", "s"),
    ("cli.payload_bytes", "B"),
    ("model.system_from_document.calls", "count"),
    ("model.system_from_document.self_s", "s"),
    ("model.build_hamiltonian.calls", "count"),
    ("model.build_hamiltonian.self_s", "s"),
    ("gauge.reduce_system.calls", "count"),
    ("gauge.reduce_system.self_s", "s"),
    ("spectrum.branch_frequencies.calls", "count"),
    ("spectrum.branch_frequencies.points", "count"),
    ("spectrum.branch_frequencies.self_s", "s"),
    ("spectrum.sweep.points", "count"),
    ("spectrum.sweep.self_s", "s"),
    ("spectrum.sweep_to_csv.bytes", "B"),
    ("spectrum.sweep_to_csv.self_s", "s"),
    ("transmission.s21_map.points", "count"),
    ("transmission.s21_map.self_s", "s"),
    ("transmission.map_to_csv.bytes", "B"),
    ("transmission.map_to_csv.self_s", "s"),
    ("transmission.extract_peaks.calls", "count"),
    ("transmission.extract_peaks.self_s", "s"),
    ("fieldmap.field_table_from_csv.samples", "count"),
    ("fieldmap.field_table_from_csv.self_s", "s"),
    ("fieldmap.coupling_table.self_s", "s"),
    ("calibrate.fit.self_s", "s"),
    ("calibrate.dataset_from_csv.self_s", "s"),
    ("calibrate.objective_evals", "count"),
    ("calibrate.minimize.calls", "count"),
    ("trace.job_s_p50", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Installs and removes the wrappers; holds spans and counts in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None, job)
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []

    def span(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            self.counts[name + ".calls"] += 1
            if count is not None:
                self.counts["%s.%s" % (name, count[0])] += count[1](result)
            return result

        return wrapper

    def _counted_minimize(self, minimize):
        @functools.wraps(minimize)
        def wrapper(fun, x0, *args, **kwargs):
            self.counts["calibrate.minimize.calls"] += 1

            def objective(x, *more):
                self.counts["calibrate.objective_evals"] += 1
                return fun(x, *more)

            return minimize(objective, x0, *args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, wrapper, extra_modules=()):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "loopmag" or n.startswith("loopmag."))]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self):
        for name, module_name, attr, count in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            self._patch_everywhere(original, self.span(name, original, count))
        # the optimizer may be bound in loopmag or imported at call time
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            self._patch_everywhere(
                optimize.minimize, self._counted_minimize(optimize.minimize), [optimize])

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return totals

    def records(self) -> list:
        return [list(s) for s in self.spans]


def per_job_metrics(tracer, jobs, payload_bytes):
    """Per-layer metrics per traced job, from the tracer's spans and counts."""
    selfs = tracer.self_times()
    out = {}
    for name, unit in METRICS:
        if name.startswith(("cli.import_", "trace.")):
            continue
        if name == "cli.payload_bytes":
            total = payload_bytes
        elif name.endswith(".self_s"):
            total = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            total = tracer.counts.get(name, 0)
        out[name] = total / jobs
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def import_times(env, cwd, runs=3) -> dict:
    """Median cumulative import times from ``-X importtime`` in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import loopmag.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True)
        cumulative = defaultdict(float)
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                name = match.group(4)
                key = "loopmag" if name.split(".")[0] == "loopmag" else name
                cumulative[key] = max(cumulative[key], int(match.group(2)) * 1e-6)
        samples["cli.import_loopmag_s"].append(cumulative["loopmag"])
        samples["cli.import_scipy_signal_s"].append(cumulative["scipy.signal"])
        samples["cli.import_scipy_optimize_s"].append(cumulative["scipy.optimize"])
    return {name: statistics.median(values) for name, values in samples.items()}
