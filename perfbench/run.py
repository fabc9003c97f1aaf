"""Closed-loop benchmark for episteer: one workload per process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sparse300 --seed 1 --seconds 45 --trace 0

Workloads are ``ref30``, ``sparse300`` and ``estimate3000`` (see
``workloads.py``).  The package is imported from the checkout's ``src/``;
without it the command exits with status 2 before measuring anything.

``--seed`` replaces the master (trajectory) seed of the workload.  Graphs and
the estimation workload's parameters stay fixed, so every seed runs the same
problem along another trajectory.  ``--seconds`` sizes the work: the run
performs ``round(seconds / unit_s)`` units (replications or steps), a count
fixed in advance so that equal arguments give identical non-timing outputs.

``--trace 0`` reports the end-to-end metrics, with their timings rescaled by
a machine-speed probe timed in the same run (``calibrate.py``); the wall-time
figures are printed alongside.  ``--trace 1`` runs the work
twice, half untraced and half traced with the same seed, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench-out/``.  Correctness gates run before any number is printed; if
one fails the command prints its findings, a result with ``"correct":
false``, and exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread, set before numpy loads.  On a 2-core machine a second BLAS
# thread made the n = 300 solves slower and noisier, and the thread count
# changes the solver's rounding, so a fixed count keeps digests comparable
# across machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

# name -> unit; these are exactly the metrics BENCHMARK.json lists
END_TO_END = {"setup_s": "s", "steps_per_s": "1/s", "decision_ms": "ms",
              "peak_rss_mb": "MB"}
P90_MIN_SAMPLES = 100
PROBE_MIN_SAMPLES = 20


def _fail(message: str):
    """Stop without a result line: the benchmark could not run as defined."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import episteer from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "episteer" / "__init__.py").is_file():
        _fail(f"no episteer sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import episteer
    if Path(episteer.__file__).resolve().parent != src / "episteer":
        _fail(f"imported episteer from {episteer.__file__}, not {src}")
    return episteer


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values, pct: int) -> float:
    """Inclusive-method percentile; 0 for an empty sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def steps_per_s(wl, res) -> float:
    """Steps per unit over the workload's percentile of unit wall time."""
    if not res.unit_times:
        return 0.0
    return res.steps_per_unit / percentile(res.unit_times, wl.unit_pct)


def probe_scale(probe, pct: int) -> float:
    """Factor that turns a pct-th percentile wall time into reference time."""
    if len(probe.samples) < PROBE_MIN_SAMPLES:
        _fail(f"only {len(probe.samples)} {probe.kind} probe samples; the timer did not run")
    return probe.reference_s / percentile(probe.samples, pct)


def end_to_end(wl, res, setup_times, peak_rss_mb: float, probe) -> tuple:
    """Gated metrics, plus the ones reported alongside (not on every workload).

    Gated timings are rescaled by the probe (see calibrate.py); the wall-time
    figures they come from are printed alongside.
    """
    setup_s = statistics.median(setup_times)
    raw_steps = steps_per_s(wl, res)
    raw_decision = percentile(res.unit_decision_ms, wl.unit_pct)
    metrics = {
        "setup_s": setup_s * probe_scale(probe, 50),
        "steps_per_s": raw_steps / probe_scale(probe, wl.unit_pct),
        "decision_ms": raw_decision * probe_scale(probe, wl.unit_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"setup_s_wall": (setup_s, "s"),
             "steps_per_s_wall": (raw_steps, "1/s"),
             "decision_ms_wall": (raw_decision, "ms"),
             f"probe_{probe.kind}_us_p{wl.unit_pct}": (1e6 * percentile(probe.samples,
                                                                        wl.unit_pct), "us"),
             f"probe_{probe.kind}_us_p50": (1e6 * percentile(probe.samples, 50), "us"),
             "probe_samples": (len(probe.samples), "count"),
             "decisions": (len(res.decision_ms), "count"),
             "decision_ms_p50": (percentile(res.decision_ms, 50), "ms"),
             "steps_per_s_overall": (res.completed / res.loop_s if res.loop_s > 0 else 0.0,
                                     "1/s"),
             "failed_frac": ((res.attempted - res.completed) / res.attempted, "1"),
             "brier_unobserved": (_mean(res.brier), "1")}
    if len(res.decision_ms) >= P90_MIN_SAMPLES:
        extra["decision_ms_p90"] = (percentile(res.decision_ms, 90), "ms")
    if wl.kind == "control":
        extra["cost_per_step"] = (_mean(res.objectives), "cost")
    return metrics, extra


PER_LAYER = {
    "graphs.generate_er_s": "s", "graphs.moralize_s": "s", "graphs.cover_s": "s",
    "graphs.unobserved_frac": "1",
    "simulate.step_ms_p50": "ms", "simulate.share": "1", "simulate.self_s": "s",
    "filtering.filter_step_ms_p50": "ms", "filtering.predict_all_ms_p50": "ms",
    "filtering.share": "1", "filtering.self_s": "s", "filtering.touch_ratio": "1",
    "control.solve_ms_p50": "ms", "control.solve_ms_p90": "ms", "control.share": "1",
    "control.self_s": "s", "control.newton_iters_per_solve": "count",
    "control.stages_per_solve": "count", "control.mode.barrier": "count",
    "control.mode.corner": "count", "control.mode.fallback": "count",
    "control.fallback_frac": "1", "control.vars": "count",
    "harness.overhead_share": "1", "harness.self_s": "s", "harness.emit_ms": "ms",
    "trace.overhead_frac": "1", "trace.spans": "count",
}

EXPECTED_SPANS = {
    "control": ("graphs.generate_er", "graphs.moralize", "graphs.cover",
                "harness.run_closed_loop", "control.solve", "filtering.predict_all",
                "simulate.step", "filtering.filter_step", "harness.emit"),
    "estimate": ("graphs.generate_er", "graphs.moralize", "graphs.cover", "bench.loop",
                 "simulate.step", "filtering.filter_step", "filtering.predict_all"),
}


def per_layer(wl, tracer, plain, traced, observers) -> dict:
    """Layer metrics from the traced pass; ``plain`` is the untraced twin."""
    own = tracer.self_seconds()
    loop = sum(tracer.durations(wl.root_span))
    ms = lambda name, pct: 1e3 * percentile(tracer.durations(name), pct)
    first = lambda name: (tracer.durations(name) or [0.0])[0]
    solves = sum(traced.modes.values())
    barrier_like = traced.modes["barrier"] + traced.modes["fallback"]
    filtering_self = own.get("filtering.filter_step", 0.0) + own.get("filtering.predict_all", 0.0)
    touch = traced.touches
    return {
        "graphs.generate_er_s": first("graphs.generate_er"),
        "graphs.moralize_s": first("graphs.moralize"),
        "graphs.cover_s": first("graphs.cover"),
        "graphs.unobserved_frac": 1.0 - observers.size / observers.node_count,
        "simulate.step_ms_p50": ms("simulate.step", 50),
        "simulate.share": own.get("simulate.step", 0.0) / loop,
        "simulate.self_s": own.get("simulate.step", 0.0),
        "filtering.filter_step_ms_p50": ms("filtering.filter_step", 50),
        "filtering.predict_all_ms_p50": ms("filtering.predict_all", 50),
        "filtering.share": filtering_self / loop,
        "filtering.self_s": filtering_self,
        "filtering.touch_ratio": (touch.max_per_call / traced.d_max ** 2
                                  if touch is not None and traced.d_max else 0.0),
        "control.solve_ms_p50": ms("control.solve", 50),
        "control.solve_ms_p90": ms("control.solve", 90),
        "control.share": own.get("control.solve", 0.0) / loop,
        "control.self_s": own.get("control.solve", 0.0),
        "control.newton_iters_per_solve": traced.newton_iters / solves if solves else 0.0,
        "control.stages_per_solve": traced.stages / solves if solves else 0.0,
        "control.mode.barrier": traced.modes["barrier"],
        "control.mode.corner": traced.modes["corner"],
        "control.mode.fallback": traced.modes["fallback"],
        "control.fallback_frac": traced.modes["fallback"] / barrier_like if barrier_like else 0.0,
        "control.vars": traced.variables if solves else 0,
        "harness.overhead_share": own.get(wl.root_span, 0.0) / loop,
        "harness.self_s": own.get(wl.root_span, 0.0),
        "harness.emit_ms": 1e3 * first("harness.emit"),
        "trace.overhead_frac": (1.0 - steps_per_s(wl, traced) / steps_per_s(wl, plain)
                                if steps_per_s(wl, plain) else 0.0),
        "trace.spans": len(tracer.names),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="master (trajectory) seed; default: the workload's own")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ep = _import_package()
    import numpy as np
    from calibrate import Probe
    from gates import ORACLE_TOLERANCE, oracle_errors
    from tracing import Tracer, patched
    from workloads import MASTER_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = MASTER_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    wl = WORKLOADS[args.workload]
    units = max(1, round(args.seconds / wl.unit_s))
    OUT_DIR.mkdir(exist_ok=True)

    print(f"perfbench workload={wl.name} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={units}")
    print("env " + json.dumps(_environment(np), sort_keys=True))

    tracer = None
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        built = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        return built

    # the probe runs through every timed part of an untraced run
    probe = Probe(wl.probe)
    with nullcontext() if args.trace else probe:
        if args.trace:
            tracer = Tracer()
            with patched(wl.setup_patches(tracer)):
                ctx = timed_setup()
        else:
            # half the set-ups before the loop and half after it, so that one
            # burst of outside load cannot move their median alone
            for _ in range(math.ceil(wl.setup_repeats / 2)):
                ctx = timed_setup()
        wl.warm_up(ctx)

        if args.trace:
            half = math.ceil(units / 2)
            plain = wl.run(ctx, half, None, OUT_DIR)
            res = wl.run(ctx, half, tracer, OUT_DIR)
            for name in EXPECTED_SPANS[wl.kind]:
                if tracer.count(name) == 0:
                    _fail(f"layer span {name!r} recorded no spans; did a call site change?")
            tracer.write(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl")
            passes = [plain, res]
        else:
            res = wl.run(ctx, units, None, OUT_DIR)
            passes = [res]
        peak_rss_mb = _peak_rss_mb()
        while len(setup_times) < wl.setup_repeats and not args.trace:
            timed_setup()
    observers = ctx.observers if wl.kind == "control" else ctx["belief"].observers

    # correctness gates, before any number is printed
    problems = [p for run in passes for p in run.problems]
    filter_err, forecast_err = oracle_errors(seed)
    print(f"gate oracle: |filter - oracle| {filter_err:.3e}, "
          f"|forecast - oracle| {forecast_err:.3e} (tolerance {ORACLE_TOLERANCE:g})")
    if max(filter_err, forecast_err) > ORACLE_TOLERANCE:
        problems.append(f"filter/forecast differ from the oracle by "
                        f"{max(filter_err, forecast_err):.3e}")
    if wl.kind == "control":
        print(f"gate slack: min certified slack {min(res.slacks, default=0.0):.3e} "
              f"over {len(res.slacks)} decisions (tolerance -1e-06)")
    if len(passes) == 2 and (passes[0].records_digest, passes[0].beliefs_digest) != \
            (passes[1].records_digest, passes[1].beliefs_digest):
        problems.append("traced pass diverged from the untraced pass with the same seed")
    for err in res.errors:
        print(f"failure: {err}")
    attempted = sum(run.attempted for run in passes)
    failed = sum(run.attempted - run.completed for run in passes)
    if problems:
        for p in problems:
            print(f"GATE FAILED: {p}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    print(f"digest records={res.records_digest} beliefs={res.beliefs_digest} "
          f"steps={res.completed}")
    if args.trace:
        layer = per_layer(wl, tracer, plain, res, observers)
        for name, total in sorted(tracer.self_seconds().items()):
            print(f"self {name} {total:.6f} s over {tracer.count(name)} spans")
        shown = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics, extra = end_to_end(wl, res, setup_times, peak_rss_mb, probe)
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END.items()}
        for name, (value, unit) in extra.items():
            print(f"metric {name} {value!r} {unit}")
        if "decision_ms_p90" not in extra:
            print(f"metric decision_ms_p90 not reported: {len(res.decision_ms)} decisions "
                  f"< {P90_MIN_SAMPLES}")
    for name, item in shown.items():
        print(f"metric {name} {item['value']!r} {item['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
