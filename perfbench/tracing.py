"""Spans recorded from outside hsicreg, and byte counts on the process pool's pipes.

A span is recorded around each call into a layer's public function by
swapping the module attribute the caller looks the function up through for a
timing wrapper.  Spans are kept in memory as ``[name, start, end, parent,
in_prepare, child_seconds, raised]`` and written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import threading
from contextlib import contextmanager
from multiprocessing.connection import Connection
from time import perf_counter

PREPARE = "hsic.prepare_stat"
RUN_TEST = "bootstrap.run_test"
TRIAL_RUN_TEST = "simulate.run_test"
POWER_STUDY = "cli.power_study"
CLI_MAIN = "cli.main"

#: (module, attribute, span name): every place a layer function is looked up
#: on the paths the workloads run.  ``hsicreg.hsic`` is listed for the calls
#: ``prepare_stat`` and ``hsic_vstat`` make; ``hsicreg.bootstrap`` for the
#: calls a bootstrap replicate makes.
TARGETS = (
    ("hsicreg.bootstrap", "replicate_indices", "rng.replicate_indices"),
    ("hsicreg.bootstrap", "fit_ols", "linreg.fit_ols"),
    ("hsicreg.bootstrap", "gram_matrix", "kernels.gram_matrix"),
    ("hsicreg.bootstrap", "hsic_vstat", "hsic.hsic_vstat"),
    ("hsicreg.bootstrap", "prepare_stat", PREPARE),
    ("hsicreg.hsic", "fit_ols", "linreg.fit_ols"),
    ("hsicreg.hsic", "gram_matrix", "kernels.gram_matrix"),
    ("hsicreg.hsic", "hsic_vstat", "hsic.hsic_vstat"),
    ("hsicreg.hsic", "center_gram", "kernels.center_gram"),
    ("hsicreg.simulate", "draw_model", "simulate.draw_model"),
    ("hsicreg.simulate", "run_test", TRIAL_RUN_TEST),
    ("hsicreg.cli", "power_study", POWER_STUDY),
)


class Tracer:
    """An in-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            inside = parent >= 0 and (spans[parent][4] or spans[parent][0] == PREPARE)
            span = [name, 0.0, 0.0, parent, inside, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration; yields the targets not found."""
        saved, missing = [], []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn))
            yield missing
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path, calls: list[tuple[int, int]]) -> None:
        """Write the spans, grouped per traced call as ``(call index, first span)`` ranges."""
        bounds = [start for _, start in calls] + [len(self.spans)]
        out = []
        for (call, start), end in zip(calls, bounds[1:]):
            rows = [[s[0], s[1], s[2], s[3] - start if s[3] >= 0 else -1, s[6]] for s in self.spans[start:end]]
            out.append({"call": call, "spans": rows})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "raised"], "calls": out}, fh)


def layer_metrics(spans: list[list], replicates: int) -> dict[str, float]:
    """Per-layer figures from the spans of one or more traced calls.

    Times ending in ``_ms`` are milliseconds per test (one ``run_test``),
    except ``bootstrap.replicate_self_ms`` (per replicate),
    ``simulate.*`` (per Monte Carlo trial) and ``cli.self_ms`` (per CLI call).
    The per-test parts partition the traced test time exactly:
    prepare + indices + fit + gram + center + vstat_self + B * replicate_self.
    """
    count: dict[tuple[str, bool], int] = {}
    total: dict[tuple[str, bool], float] = {}
    self_time: dict[tuple[str, bool], float] = {}
    singular = 0
    for name, start, end, _, inside, child, raised in spans:
        key = (name, inside)
        count[key] = count.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + (end - start)
        self_time[key] = self_time.get(key, 0.0) + (end - start - child)
        if name == "linreg.fit_ols" and not inside and raised == "SingularDesignError":
            singular += 1

    def get(table, name):
        return table.get((name, False), 0)

    def per(value, base):
        return value / base if base else 0.0

    tests = get(count, RUN_TEST) + get(count, TRIAL_RUN_TEST)
    test_s = get(total, RUN_TEST) + get(total, TRIAL_RUN_TEST)
    root_self = get(self_time, RUN_TEST) + get(self_time, TRIAL_RUN_TEST)
    trials = get(count, "simulate.draw_model")
    cli_calls = get(count, CLI_MAIN)
    draws = get(count, "rng.replicate_indices")
    return {
        "rng.indices_ms": 1e3 * per(get(total, "rng.replicate_indices"), tests),
        "rng.indices_calls": per(draws, tests),
        "linreg.fit_ms": 1e3 * per(get(total, "linreg.fit_ols"), tests),
        "linreg.fit_calls": per(get(count, "linreg.fit_ols"), tests),
        "linreg.singular_refits": per(singular, tests),
        "kernels.gram_ms": 1e3 * per(get(total, "kernels.gram_matrix"), tests),
        "kernels.gram_calls": per(get(count, "kernels.gram_matrix"), tests),
        "kernels.center_ms": 1e3 * per(get(total, "kernels.center_gram"), tests),
        "kernels.center_calls": per(get(count, "kernels.center_gram"), tests),
        "hsic.vstat_self_ms": 1e3 * per(get(self_time, "hsic.hsic_vstat"), tests),
        "hsic.prepare_ms": 1e3 * per(get(total, PREPARE), tests),
        "bootstrap.replicate_self_ms": 1e3 * per(root_self, tests * replicates),
        "bootstrap.useful_ratio": per(tests * replicates, draws),
        "simulate.draw_ms": 1e3 * per(get(total, "simulate.draw_model"), trials),
        "simulate.trial_ms": 1e3 * per(get(total, TRIAL_RUN_TEST), get(count, TRIAL_RUN_TEST)),
        "cli.self_ms": 1e3 * per(get(self_time, CLI_MAIN), cli_calls),
        "trace.test_ms": 1e3 * per(test_s, tests),
    }


@contextmanager
def pipe_bytes():
    """Count the payload bytes this process sends and receives over any pipe.

    Yields a function returning ``(sent, received)`` so far.  Each thread
    adds only to its own tally (the pool's feeder thread sends, its manager
    thread receives), so no lock is taken: a lock held at fork time would be
    inherited locked by the pool's workers.
    """
    sent: dict[int, int] = {}
    recv: dict[int, int] = {}
    send_orig, recv_orig = Connection._send_bytes, Connection._recv_bytes

    def send(self, buf):
        tid = threading.get_ident()
        sent[tid] = sent.get(tid, 0) + len(buf)
        return send_orig(self, buf)

    def receive(self, maxsize=None):
        buf = recv_orig(self, maxsize)
        if buf is not None:
            tid = threading.get_ident()
            with buf.getbuffer() as view:
                recv[tid] = recv.get(tid, 0) + view.nbytes
        return buf

    Connection._send_bytes, Connection._recv_bytes = send, receive
    try:
        yield lambda: (sum(sent.values()), sum(recv.values()))
    finally:
        Connection._send_bytes, Connection._recv_bytes = send_orig, recv_orig
