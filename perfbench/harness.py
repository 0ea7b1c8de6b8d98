"""Runs one workload: set-up, the timed loop or the traced unit, checks, metrics.

Untraced run (trace 0): the import is timed `SETUP_REPEATS` times, once
in this process and then in fresh interpreters, and the set-up is built
`SETUP_REPEATS` times; `setup_s` is the median import plus the median
set-up.  Then whole operations run until the next one would end after
`seconds`; every call of an operation is timed on its own, and `call_ms`
are percentiles over the calls.  Every time is corrected for the host's speed in its window (see
hostspeed.py); the uncorrected figures are in the info line.

Traced run (trace 1): a fixed unit of `ops_per_trace` operations runs twice,
from two set-ups with the same seed: once untraced and once, set-up
included, under the tracer.  The two passes alternate call by call.  Both
do the same work, so the counters repeat exactly, and the difference of
the two passes' call times, each corrected for the host's speed, is the
tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
# What run.py imports before its first set-up, timed in a fresh interpreter;
# the arguments are the directories put first on sys.path.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import argparse, json, spheremv, harness; print(time.perf_counter() - t)"
)
CLI_SUBCOMMANDS = ("decompose", "bifurcations", "spectrum", "solve", "branch", "simulate")
# Counters broken down per call label in the traced run's report.
COUNTS_BY_CALL = (
    "solver.gibbs_fixed_point",
    "solver.iterations",
    "solver.gibbs_evals",
    "specfun.log_gamma",
    "kernels.pair_evals",
    "particles.step",
)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def run_calls(ops, results: list, tracer: Tracer | None = None, counts_by_call=None) -> None:
    """Time each (label, run, check) call; append (label, seconds, error, start)."""
    for label, run, check in ops:
        before = dict(tracer.counts) if tracer else None
        start = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench.call"):
                    value = run()
            else:
                value = run()
        except Exception as exc:  # a failing call is counted, not fatal
            results.append(
                (label, time.perf_counter() - start, f"{type(exc).__name__}: {exc}", start)
            )
            continue
        seconds = time.perf_counter() - start
        if tracer:
            per = counts_by_call.setdefault(label, {})
            for key in COUNTS_BY_CALL:
                per[key] = per.get(key, 0) + tracer.counts[key] - before.get(key, 0)
        try:
            error = check(value)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        results.append((label, seconds, error, start))


def _blas_info() -> dict:
    info = {"threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = int(get_threads())
                    info["config"] = get_config().decode()
                    return info
    return info


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
    }


def probe_import_s() -> float:
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(here.parent / "src"), str(here)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def _ranked_ms(calls, cap_ms: float) -> list[float]:
    # A failed call ranks above every successful one: it gets the whole
    # measuring time, which no successful call can exceed.
    return [1e3 * s if not err else cap_ms for _, s, err, _ in calls]


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool, out_dir: Path,
    started: float, import_s: float,
):
    """`started` is the perf_counter reading at process start."""
    cls = WORKLOADS[name]
    repeats = 1 if smoke else SETUP_REPEATS
    imports, setups, calls = [import_s], [], []
    with HostSpeed() as speed:
        imports += [probe_import_s() for _ in range(repeats - 1)]
        for i in range(repeats):
            start = time.perf_counter()
            workload = cls(seed, smoke, out_dir)
            setups.append(time.perf_counter() - start)
            if i < repeats - 1:
                workload.close()
        setup_end = time.perf_counter()
        start = time.perf_counter()
        try:
            while True:
                op_start = time.perf_counter()
                run_calls(workload.next_op(), calls)
                now = time.perf_counter()
                if smoke or (now - start) + (now - op_start) > seconds:
                    break
            measured_s = time.perf_counter() - start
            errors = [f"{label}: {err}" for label, _, err, _ in calls if err] + workload.final_check()
            figures = workload.figures([(label, s) for label, s, err, _ in calls if not err])
        finally:
            workload.close()
    raw_setup_s = float(np.median(imports) + np.median(setups))
    setup_factor = speed.factor(started, setup_end)
    corrected = [
        (label, s * speed.factor(t, t + s), err, t) for label, s, err, t in calls
    ]
    ranked = _ranked_ms(corrected, 1e3 * measured_s * speed.factor(start, start + measured_s))
    metrics = {
        "setup_s": {"value": raw_setup_s * setup_factor, "unit": "s"},
        "call_ms.p50": {"value": percentile(ranked, 50), "unit": "ms"},
        "call_ms.p90": {"value": percentile(ranked, 90), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    raw_ranked = _ranked_ms(calls, 1e3 * measured_s)
    info = {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "import_repeats_s": imports,
        "setup_repeats_s": setups,
        "measured_s": measured_s,
        "calls": len(calls),
        "uncorrected": {
            "setup_s": raw_setup_s,
            "call_ms.p50": percentile(raw_ranked, 50),
            "call_ms.p90": percentile(raw_ranked, 90),
        },
        "host_speed_factor": {
            "setup": setup_factor,
            "run": speed.factor(start, start + measured_s),
            "samples": len(speed.samples),
        },
        "probe_median_s": speed.medians_s(),
        **figures,
        "errors": errors[:20],
    }
    return _result(calls, errors, metrics), info


def layer_metrics(tracer: Tracer, calls) -> dict:
    c, s = tracer.counts, tracer.self_s
    m = {}
    for fn in (
        "specfun.gegenbauer_all",
        "specfun.gauss_jacobi_rule",
        "harmonics.decompose",
        "harmonics.reconstruct",
        "kernels.profile_derivative",
        "meanfield.make_density",
        "meanfield.free_energy",
        "solver.GibbsOperator.build",
    ):
        m[f"{fn}.calls"] = (c[fn], "count")
        m[f"{fn}.self_s"] = (s[fn], "s")
    solves, iterations, evals = (
        c["solver.gibbs_fixed_point"], c["solver.iterations"], c["solver.gibbs_evals"]
    )
    solve_ms = tracer.durations_ms("solver.gibbs_fixed_point")
    step_ms = tracer.durations_ms("particles.step")
    m.update(
        {
            "specfun.log_gamma.calls": (c["specfun.log_gamma"], "count"),
            "harmonics.y_l0.calls": (c["harmonics.y_l0"], "count"),
            "kernels.coefficients.self_s": (s["kernels.coefficients"], "s"),
            "kernels.pair_evals": (c["kernels.pair_evals"], "count"),
            "solver.solves": (solves, "count"),
            "solver.iterations": (iterations, "count"),
            "solver.gibbs_evals": (evals, "count"),
            "solver.gibbs_evals_per_iteration": (evals / iterations if iterations else 0.0, "ratio"),
            "solver.gibbs_flops_computed": (c["solver.gibbs_flops_computed"], "flop"),
            "solver.converged_ratio": (c["solver.converged"] / solves if solves else 0.0, "ratio"),
            "solver.solve_ms.p50": (percentile(solve_ms, 50), "ms"),
            "solver.solve_ms.p99": (percentile(solve_ms, 99), "ms"),
            "solver.gibbs_fixed_point.self_s": (s["solver.gibbs_fixed_point"], "s"),
            "particles.step.calls": (c["particles.step"], "count"),
            "particles.step_ms.p50": (percentile(step_ms, 50), "ms"),
            "particles.step_ms.p90": (percentile(step_ms, 90), "ms"),
            "particles.step.self_s": (s["particles.step"], "s"),
            "particles.record.self_s": (
                s["particles.order_axis"] + s["particles.empirical_moments"], "s"
            ),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
    )
    for sub in CLI_SUBCOMMANDS:
        ms = [1e3 * sec for label, sec, err, _ in calls if label.startswith(sub + ".") and not err]
        m[f"cli.{sub}.ms.p50"] = (percentile(ms, 50), "ms")
    return m


def run_traced(name: str, seed: int, smoke: bool, out_dir: Path):
    cls = WORKLOADS[name]
    ops = 1 if smoke else cls.ops_per_trace
    untraced = cls(seed, smoke, out_dir)
    calls_untraced, calls, counts_by_call = [], [], {}
    tracer = Tracer()
    try:
        with tracer:
            with tracer.span("bench.setup"):
                traced = cls(seed, smoke, out_dir)
        # The passes alternate call by call, under the host-speed sampler, so
        # that the difference of their corrected times is the tracer's cost,
        # not the host's drift between them.
        with HostSpeed() as speed:
            try:
                for _ in range(ops):
                    for plain, instrumented in zip(untraced.next_op(), traced.next_op()):
                        run_calls([plain], calls_untraced)
                        with tracer:
                            run_calls([instrumented], calls, tracer, counts_by_call)
                final = traced.final_check()
            finally:
                traced.close()
        errors = [
            f"{label}: {err}" for label, _, err, _ in calls_untraced + calls if err
        ] + untraced.final_check() + final
    finally:
        untraced.close()
    raw_untraced_s, raw_traced_s = (sum(s for _, s, _, _ in c) for c in (calls_untraced, calls))
    untraced_s, traced_s = (
        sum(s * speed.factor(t, t + s) for _, s, _, t in c) for c in (calls_untraced, calls)
    )
    metrics = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in layer_metrics(tracer, calls).items()
    }
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": (traced_s - untraced_s) / untraced_s, "unit": "ratio"}
    spans_path = out_dir / f"spans-{name}-seed{seed}-{tracer.run_id[:12]}.jsonl.gz"
    tracer.write_spans(spans_path, {"workload": name, "seed": seed, "smoke": smoke})
    info = {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "run_id": tracer.run_id,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "uncorrected": {"untraced_s": raw_untraced_s, "traced_s": raw_traced_s},
        "probe_median_s": speed.medians_s(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "counts_by_call": counts_by_call,
        "errors": errors[:20],
    }
    return _result(calls_untraced + calls, errors, metrics), info


def _result(calls, errors, metrics) -> dict:
    return {
        "correct": not errors,
        "attempted": len(calls),
        "failed": sum(1 for _, _, err, _ in calls if err),
        "metrics": metrics,
    }
