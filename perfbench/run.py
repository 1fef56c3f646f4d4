"""The hsicreg benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload test-n200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Workloads (BENCHMARK.json says why each was chosen):

* ``test-n200``: ``run_test``, n = 200, B = 1000, workers = 1, lambda = 50.
* ``test-n1000``: ``run_test``, n = 1000, B = 50, workers = 2, lambda = 0.
* ``power-n100``: ``hsicreg power --model model1 --n 100 --a 0,5 --reps 50
  --B 199 --workers 2`` through ``cli.main`` in-process.

With ``--trace 0`` a run starts five fresh interpreters that import hsicreg
and build the inputs; ``setup_s`` is the median of their start-to-ready
times.  The last one then calls the program in a closed loop (one caller,
next call after the previous returns) for ``--seconds`` and reports:

* ``test_s``: median seconds per test (one ``run_test``; for power-n100 one
  Monte Carlo trial, i.e. call time / 100);
* ``trials_per_s``: tests completed per second over the whole loop;
* ``peak_rss_mb``: peak resident memory of that process (the pool workers'
  peak is in the report line).

``test_s`` and ``trials_per_s`` are normalized by the calibration kernel in
``calibrate.py``, timed between calls: wall time x NOMINAL_S / (median kernel
time).  On the shared 2-vCPU machine this was built on, raw medians moved by
up to 1.7x between runs with the host's load; the raw wall figures are in the
report line under ``wall``.  After the loop every output is checked against
an fsum oracle and the add-one p-value rule, and call 0 must be
byte-identical when repeated and at the other worker count; any failure
counts in ``failed``.

With ``--trace 1`` the run instead counts pool pipe bytes at the workload's
worker count, then times untraced and traced calls in pairs at workers = 1,
with spans around each layer's public functions (``tracing.py``), and
reports the per-layer metrics.  Spans are written to ``.perfbench_out/``.

Stdout ends with a report line (environment, raw times, tail percentile,
fail rate, check details) and then the result line ``{"correct",
"attempted", "failed", "metrics"}``.  ``--smoke`` runs every workload at toy
size in both modes and checks that every metric declared in BENCHMARK.json is
emitted with its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
#: Fresh interpreters timed for set-up per run; the last one also measures.
SETUPS = 5
#: Every run ends within this many seconds or fails.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one fresh interpreter; return its set-up seconds and, unless set-up only, its figures."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a run")
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv] + (["--setup-only"] if setup_only else []),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    watchdog = threading.Timer(remaining, _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)  # pool workers left behind by a failed child
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"benchmark process failed (exit code {code}); see stderr")
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def tail(samples: list[float]) -> dict | None:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            ranked = sorted(samples)
            return {"percentile": p, "value": ranked[math.ceil(p / 100.0 * len(ranked)) - 1]}
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict) -> tuple[dict, dict]:
    """One run; returns the report and the result object."""
    deadline = perf_counter() + RUN_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    argv += ["--smoke"] if smoke else []
    setups = []
    if not trace:
        for _ in range((1 if smoke else SETUPS) - 1):
            setups.append(run_child(argv, deadline, setup_only=True)[0])
    setup, raw = run_child(argv, deadline, setup_only=False)
    setups.append(setup)

    metrics = dict(raw.pop("metrics"))
    extra = {}
    if not trace:
        per_test = [t / raw["tests_per_call"] for t in raw.pop("times")]
        wall = {
            "setup_s": statistics.median(setups),
            "test_s": statistics.median(per_test),
            "trials_per_s": len(per_test) / sum(per_test),
        }
        scale = raw["time_scale"]
        metrics["setup_s"] = {"value": wall["setup_s"], "unit": "s"}
        metrics["test_s"] = {"value": wall["test_s"] * scale, "unit": "s"}
        metrics["trials_per_s"] = {"value": wall["trials_per_s"] / scale, "unit": "1/s"}
        extra = {
            "wall": wall,
            "setup_s_samples": setups,
            "test_s_samples": len(per_test),
            "test_s_tail": tail(per_test),
            "pool_peak_rss_mb": {"value": raw.pop("pool_peak_rss_mb"), "unit": "MiB"},
        }
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in metrics.items()}
    if emitted != declared:
        raise BenchError(f"metrics {sorted(emitted.items())} do not match BENCHMARK.json {sorted(declared.items())}")

    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: metrics[k] for k in declared},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "fail_rate": {"value": raw["failed"] / raw["attempted"], "unit": "ratio"},
        **extra, **raw,
    }
    return report, result


def summary(report: dict, result: dict) -> str:
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    parts.append(f"fail_rate {report['fail_rate']['value']:.6g} ({result['failed']}/{result['attempted']})")
    if "test_s_tail" in report:
        t = report["test_s_tail"]
        parts.append(f"test_s samples {report['test_s_samples']}, tail "
                     + (f"p{t['percentile']:g} {t['value']:.6g} s" if t else "none (fewer than 10 beyond p50)"))
    return f"{report['workload']}: " + " | ".join(parts)


def smoke(spec: dict) -> int:
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            report, result = run_workload(w["name"], 0, 0.5, trace, True, spec)
            ok = result["correct"] and result["failed"] == 0
            bad += not ok
            print(("ok   " if ok else "FAIL ") + summary(report, result), file=sys.stderr)
            if not ok:
                print(json.dumps(report["errors"]), file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not bad else "failed", "runs": 2 * len(spec["workloads"]), "failed": bad}))
    return 1 if bad else 0


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every workload, both modes")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.smoke:
            return smoke(spec)
        if not args.workload:
            parser.error("--workload is required")
        for name in names if args.workload == "all" else [args.workload]:
            report, result = run_workload(name, args.seed, args.seconds, args.trace, False, spec)
            print(summary(report, result), file=sys.stderr)
            print(json.dumps({"report": report}))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
