"""One fresh interpreter of the benchmark: import hsicreg, build the inputs, measure.

Started by ``run.py``; not meant to be run by hand.  On stdout it writes the
line ``ready`` once hsicreg is imported and the workload's inputs are built
(the parent times that as set-up) and, unless ``--setup-only``, then one JSON
object with the run's raw figures.  Anything else goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import calibrate
from tracing import Tracer, layer_metrics, pipe_bytes

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = sys.stdout
sys.stdout = sys.stderr

#: Environment variables that set BLAS and OpenMP thread counts.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIB = 2.0**20
#: Share of each call's time spent timing the calibration kernel after it.
GAUGE_SHARE = 0.08


def unit(name: str) -> str:
    """The unit of a metric, from its name's suffix."""
    for suffix, u in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MiB"),
                      ("_calls", "count"), ("_refits", "count"), ("_ratio", "ratio"),
                      ("_efficiency", "ratio")):
        if name.endswith(suffix):
            return u
    raise KeyError(f"no unit for metric {name!r}")


def peak_rss_mib(who: int) -> float:
    """Peak resident set of this process, or of its largest waited-for child (Linux: KiB)."""
    return resource.getrusage(who).ru_maxrss * 1024 / MIB


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def attempt(fn, *args):
    """(result, None) or (None, error text) for one call."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed call is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def check(w, x, out) -> tuple[list[str], float]:
    try:
        return w.check(x, out)
    except Exception as exc:  # a malformed output is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"], 0.0


def measure(w, inputs, seconds: float) -> dict:
    """Closed loop for ``seconds``, then output checks and the determinism check.

    After each call the calibration kernel is timed for about
    :data:`GAUGE_SHARE` of that call's time, so the machine's speed is
    sampled all through the loop, never while a call is running.
    """
    # Untimed first call: lazy set-up finishes, and it is the repeat of call 0
    # that the determinism check compares against.
    warm, warm_error = attempt(w.call, inputs[0], w.workers)
    gauge = calibrate.Gauge(w.workers)
    try:
        times, gauged, outputs, errors = [], [], [], []
        deadline = perf_counter() + seconds
        while not times or perf_counter() < deadline:
            x = inputs[len(times) % len(inputs)]
            start = perf_counter()
            out, error = attempt(w.call, x, w.workers)
            times.append(perf_counter() - start)
            outputs.append(out)
            if error:
                errors.append(f"call {len(times) - 1}: {error}")
            spent = 0.0
            while spent < GAUGE_SHARE * times[-1]:
                gauged.append(gauge.sample())
                spent += gauged[-1]
        peak, pool_peak = peak_rss_mib(resource.RUSAGE_SELF), peak_rss_mib(resource.RUSAGE_CHILDREN)
    finally:
        gauge.close()

    other_workers = 1 if w.workers > 1 else 2
    rerun, rerun_error = attempt(w.call, inputs[0], other_workers)
    failed = sum(out is None for out in outputs)
    worst = 0.0
    for i, out in enumerate(outputs):
        if out is None:
            continue
        if i < len(inputs):
            problems, err = check(w, inputs[i], out)
            worst = max(worst, err)
        else:
            problems = [] if w.same(out, outputs[i % len(inputs)]) else ["differs from the earlier call on its input"]
        if i == 0:
            for label, again, again_error in (("repeat", warm, warm_error),
                                              (f"workers={other_workers}", rerun, rerun_error)):
                if again is None:
                    problems.append(f"determinism {label}: {again_error}")
                elif not w.same(out, again):
                    problems.append(f"determinism: output differs from the {label} call")
        if problems:
            failed += 1
            errors.extend(f"call {i}: {p}" for p in problems)
    return {
        "times": times,
        "tests_per_call": w.tests_per_call,
        "attempted": len(times),
        "failed": failed,
        "errors": errors[:20],
        "max_rel_err": worst,
        "metrics": {"peak_rss_mb": peak},
        "pool_peak_rss_mb": pool_peak,
        "gauge_s": gauged,
        "time_scale": calibrate.NOMINAL_S / statistics.median(gauged),
    }


def trace(w, inputs, seconds: float, spans_path: Path) -> dict:
    """Pool bytes at the workload's workers, then traced/untraced pairs at workers=1."""
    deadline = perf_counter() + seconds
    with pipe_bytes() as tally:
        start = perf_counter()
        first, error = attempt(w.call, inputs[0], w.workers)
        parallel_wall = perf_counter() - start
        sent, received = tally()
    pool_peak = peak_rss_mib(resource.RUSAGE_CHILDREN)
    errors = [f"call 0 at workers={w.workers}: {error}"] if error else []
    failed = int(first is None)

    tracer, untraced, traced, calls = Tracer(), [], [], []
    missing: list[str] = []
    while not traced or perf_counter() < deadline:
        i = len(traced)
        x = inputs[i % len(inputs)]
        start = perf_counter()
        plain, error = attempt(w.call, x, 1)
        untraced.append(perf_counter() - start)
        calls.append((i, len(tracer.spans)))
        with tracer.installed() as missing:
            start = perf_counter()
            spanned, traced_error = attempt(w.call, x, 1, tracer)
            traced.append(perf_counter() - start)
        problems = [e for e in (error, traced_error) if e]
        if not problems:
            if not w.same(plain, spanned):
                problems.append("traced output differs from the untraced one")
            if i == 0:
                if first is not None and not w.same(plain, first):
                    problems.append(f"workers=1 output differs from workers={w.workers}")
                problems += check(w, x, plain)[0]
        if problems:
            failed += 1
            errors.extend(f"traced pair {i}: {p}" for p in problems)

    tracer.dump(spans_path, calls)
    metrics = layer_metrics(tracer.spans, w.replicates)
    metrics.update({
        "pool.sent_mb": sent / MIB,
        "pool.recv_mb": received / MIB,
        "pool.parallel_efficiency": statistics.median(untraced) / (w.workers * parallel_wall),
        "pool.peak_rss_mb": pool_peak,
        "trace.overhead_ms": 1e3 * statistics.median(t - u for t, u in zip(traced, untraced)),
    })
    parts = ("hsic.prepare_ms", "rng.indices_ms", "linreg.fit_ms", "kernels.gram_ms",
             "kernels.center_ms", "hsic.vstat_self_ms")
    accounted = sum(metrics[k] for k in parts) + w.replicates * metrics["bootstrap.replicate_self_ms"]
    return {
        "accounting_ms": {"per_layer_sum": accounted, "traced_test": metrics["trace.test_ms"]},
        "not_on_path": sorted(k for k, v in metrics.items()
                              if v == 0 and k.startswith(("pool.", "simulate.", "cli."))),
        "attempted": len(traced) + 1,
        "failed": failed,
        "errors": errors[:20],
        "metrics": metrics,
        "untraced_s": untraced,
        "traced_s": traced,
        "parallel_wall_s": parallel_wall,
        "missing_targets": missing,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "hsicreg" / "__init__.py").is_file():
        print(f"perfbench: no hsicreg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    w = workloads.workload(args.workload, args.smoke)
    inputs = w.inputs(args.seed)
    print("ready", file=PROTOCOL, flush=True)
    if args.setup_only:
        return 0

    workloads.OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        result = trace(w, inputs, args.seconds, spans_path)
    else:
        result = measure(w, inputs, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()}
    result["env"] = environment()
    print(json.dumps(result), file=PROTOCOL, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
