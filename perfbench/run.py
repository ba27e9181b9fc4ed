#!/usr/bin/env python3
"""Benchmark of loopmag: cold CLI commands, VNA-resolution S21 maps, peak fits.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload vna-map --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Repeat mode runs each workload N
times with seeds seed..seed+N-1 and prints each metric's median and
interquartile spread:

    python3 perfbench/run.py --repeat 10 --workload all --seed 1

The work happens in worker processes that import loopmag from ``src/``
(``--worker``); this file imports only the standard library.  Results,
traces and scratch inputs go to ``perfbench/out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli-cold", "vna-map", "fit-recover")
SETUPS = 3  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 175.0

END_TO_END = (("job_s_p50", "s"), ("job_cpu_s_p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class RunError(RuntimeError):
    pass


# ====== worker: runs inside one process that imports loopmag ======


def machine() -> dict:
    """nproc, interpreter, numpy/scipy versions, and the BLAS with its thread pool."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": None,
        "blas_config": None,
        "platform": platform.platform(),
    }
    with open("/proc/cpuinfo") as f:
        info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                            if line.startswith("model name")), None)
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, prefix + "_get_num_threads" + suffix):
                threads = getattr(lib, prefix + "_get_num_threads" + suffix)
                config = getattr(lib, prefix + "_get_config" + suffix)
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["blas_threads"] = threads()
                info["blas_config"] = config().decode()
                break
    return info


def _timed(job, wrap=None):
    """Run one job; its wall and CPU time, from the child for a CLI command."""
    run = wrap(job.run) if wrap else job.run
    wall0, cpu0 = time.perf_counter(), time.process_time()
    out = run()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if getattr(out, "wall_s", None) is not None:
        wall, cpu = out.wall_s, out.cpu_s
    if getattr(out, "code", 0) != 0:
        raise RunError("%s exited with code %s" % (job.name, out.code))
    return out, wall, cpu


def worker(args) -> dict:
    start = time.perf_counter()
    import jobs

    workdir = os.path.join(OUT, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        cls = jobs.WORKLOADS[args.workload]
        if cls is jobs.CliCold:
            workload = cls(ROOT, args.seed, workdir, in_process=bool(args.trace))
        else:
            workload = cls(ROOT, args.seed, workdir)
        warm = workload.warmup_job()
        out, _, _ = _timed(warm)
        report = {"setup_s": time.perf_counter() - start, "errors": []}
        if args.setup_only:  # times the set-up only; the measuring worker checks its own
            return report
        _check(warm, out, report["errors"])
        del out  # one job's output alive at a time, so peak RSS is one job's
        report["machine"] = machine()
        if args.trace:
            _measure_traced(workload, args, report)
        else:
            _measure(workload, args, report)
            rss = getattr(workload, "peak_rss_mb", None)
            report["peak_rss_mb"] = rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check(job, out, errors):
    try:
        job.check(out)
    except Exception as error:  # any disagreement, however it surfaces
        errors.append("%s: %s: %s" % (job.name, type(error).__name__, error))


def _rounds(workload, seconds):
    """Whole rounds until the run has lasted ``seconds`` and done the workload's minimum."""
    start = time.perf_counter()
    r = 0
    while r < workload.min_rounds or time.perf_counter() - start < seconds:
        yield from workload.round(r)
        r += 1


def _measure(workload, args, report):
    report["jobs"] = []
    report["attempted"] = report["failed"] = 0
    for job in _rounds(workload, args.seconds):
        report["attempted"] += 1
        try:
            out, wall, cpu = _timed(job)
        except Exception as error:
            report["failed"] += 1
            report["errors"].append("%s failed: %s: %s" % (job.name, type(error).__name__, error))
            continue
        report["jobs"].append([job.name, wall, cpu])
        _check(job, out, report["errors"])
        del out


def _measure_traced(workload, args, report):
    """Each job runs untraced, then traced; per-layer metrics come from the traced runs."""
    tracer = tracing.Tracer()
    root_name = "cli" if args.workload == "cli-cold" else "job"
    untraced, traced, payload = [], [], 0
    report["attempted"] = report["failed"] = 0
    for index, job in enumerate(_rounds(workload, args.seconds)):
        for wrapped in (False, True):
            report["attempted"] += 1
            if wrapped:
                tracer.install()
                tracer.job = index
            try:
                wrap = (lambda run: tracer.span(root_name, run)) if wrapped else None
                out, wall, _ = _timed(job, wrap)
            except Exception as error:
                report["failed"] += 1
                report["errors"].append("%s failed: %s: %s" % (job.name, type(error).__name__, error))
                continue
            finally:
                tracer.uninstall()
            (traced if wrapped else untraced).append(wall)
            if wrapped and root_name == "cli":
                payload += len(out.stdout)
            _check(job, out, report["errors"])
            del out
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    layers = tracing.per_job_metrics(tracer, max(len(traced), 1), payload)
    layers.update(tracing.import_times(env, ROOT))
    layers["trace.job_s_p50"] = statistics.median(traced) if traced else 0.0
    layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                  if traced and untraced else 0.0)
    report["layers"] = layers
    path = os.path.join(OUT, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"spans": tracer.records(), "counts": dict(tracer.counts)}, f)


# ====== parent: set-ups, the measuring worker, the result line ======


def _spawn(argv, deadline) -> str:
    """Run a worker in its own process group; at the deadline, or when this
    process is interrupted or terminated, kill the group with its commands."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunError("%s timed out" % " ".join(argv[1:]))
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise RunError("%s exited with code %d" % (" ".join(argv[1:]), proc.returncode))
    return stdout.strip().splitlines()[-1]


def _stop(proc):
    """SIGTERM the group first, so a run.py inside stops its own workers; then SIGKILL."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGTERM)
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def _worker_argv(args, setup_only=False):
    argv = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--setup-only"] if setup_only else [])


def single_run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "loopmag", "__init__.py")):
        raise RunError("no loopmag sources under %s" % os.path.join(ROOT, "src"))
    extra = [] if args.trace else [
        json.loads(_spawn(_worker_argv(args, setup_only=True), deadline))
        for _ in range(SETUPS - 1)]
    report = json.loads(_spawn(_worker_argv(args), deadline))
    errors = [e for r in extra + [report] for e in r["errors"]]
    for error in errors:
        print("check: " + error, file=sys.stderr)
    if args.trace:
        units = dict(tracing.METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in report["layers"].items()}
    else:
        walls = [w for _, w, _ in report["jobs"]]
        cpus = [c for _, _, c in report["jobs"]]
        values = {
            "job_s_p50": statistics.median(walls) if walls else 0.0,
            "job_cpu_s_p50": statistics.median(cpus) if cpus else 0.0,
            "setup_s": statistics.median(r["setup_s"] for r in extra + [report]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": not errors and report["attempted"] > report["failed"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result, "machine": report["machine"],
                   "setup_s_samples": [r["setup_s"] for r in extra + [report]],
                   "jobs": report.get("jobs"), "errors": errors}, f, indent=1)
    return result


# ====== repeat mode ======


def _bounds() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def repeat(args):
    bounds = _bounds()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = list(range(args.seed, args.seed + args.repeat))
    summary = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            runs.append(json.loads(_spawn(argv, time.monotonic() + RUN_LIMIT_S + 5.0)))
            print("  %s seed %d: %s" % (workload, seed, json.dumps(runs[-1])), file=sys.stderr)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            stats[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                           "q1": q1, "q3": q3, "n": len(values),
                           "spread": (q3 - q1) / med if med else 0.0,
                           "bound": bounds.get(name), "values": values}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        summary[workload] = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                             "failed_shares": shares,
                             "attempted": [r["attempted"] for r in runs], "metrics": stats}
        print("%s: %d runs, seeds %d..%d, all correct: %s, failed shares: %s"
              % (workload, len(runs), seeds[0], seeds[-1], summary[workload]["correct"], shares))
        for name, s in stats.items():
            bound = "" if s["bound"] is None else "  bound %.2f%s" % (
                s["bound"], "" if s["spread"] < s["bound"] / 3 else "  SPREAD ABOVE BOUND/3")
            print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%%s"
                  % (name + " [" + s["unit"] + "]", s["median"], s["q1"], s["q3"],
                     100.0 * s["spread"], bound))
    path = os.path.join(OUT, "repeat-%s-seed%d-n%d-trace%d.json"
                        % (args.workload, args.seed, args.repeat, args.trace))
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print("summary written to %s" % os.path.relpath(path, ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print medians and spreads")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so _spawn takes the worker group down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.worker:
            print(json.dumps(worker(args)))
        elif args.repeat:
            repeat(args)
        elif args.workload == "all":
            parser.error("--workload all needs --repeat")
        else:
            print(json.dumps(single_run(args)))
    except RunError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
