"""The benchmark's workloads: inputs made from the seed, the calls, and their checks.

Every workload is driven by one closed-loop caller that makes the next call
only after the previous one returned.  Inputs come from the benchmark's own
numpy code, so a change to ``hsicreg.simulate`` cannot change what the test
workloads feed the program.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hsicreg import bootstrap, cli
from hsicreg.bootstrap import BootstrapConfig, replicate_indices
from hsicreg.errors import SingularDesignError
from hsicreg.kernels import KernelSpec, gram_matrix
from hsicreg.linreg import Dataset, DesignSpec, fit_ols

import oracle
from tracing import CLI_MAIN, RUN_TEST

#: Predictor dimension of the model1-shaped data and the study kernels for it.
D0 = 4
BANDWIDTH_X = 2.0 * math.sqrt(D0)
BANDWIDTH_E = math.sqrt(2.0)
ALPHA = 0.05
#: Where the power workload writes its artifact (inside the checkout, ignored by git).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


@dataclass(frozen=True)
class TestCase:
    predictors: np.ndarray
    response: np.ndarray
    boot_seed: int


@dataclass(frozen=True)
class TestWorkload:
    """``run_test`` on model1-shaped data (2 + 5 x1 - x2, noise sd sqrt((10 + lam|x1|)/10))."""

    name: str
    n: int
    lam: float
    replicates: int
    workers: int
    distinct: int  # calls cycle over this many inputs

    def inputs(self, seed: int) -> list[TestCase]:
        rng = np.random.default_rng([seed, self.n])
        cases = []
        for _ in range(self.distinct):
            X = rng.random((self.n, D0))
            noise_sd = np.sqrt((10.0 + self.lam * np.abs(X[:, 0])) / 10.0)
            y = 2.0 + 5.0 * X[:, 0] - X[:, 1] + noise_sd * rng.standard_normal(self.n)
            cases.append(TestCase(X, y, int(rng.integers(2**62))))
        return cases

    def call(self, case: TestCase, workers: int, tracer=None):
        fn = bootstrap.run_test if tracer is None else tracer.wrap(RUN_TEST, bootstrap.run_test)
        return fn(
            Dataset(case.predictors, case.response),
            DesignSpec.main_effects(D0),
            KernelSpec(bandwidth=BANDWIDTH_X),
            KernelSpec(bandwidth=BANDWIDTH_E),
            BootstrapConfig(replicates=self.replicates, seed=case.boot_seed, workers=workers),
            alpha=ALPHA,
        )

    @property
    def tests_per_call(self) -> int:
        return 1

    def same(self, a, b) -> bool:
        return (
            a.statistic == b.statistic
            and a.p_value == b.p_value
            and np.array_equal(a.null_draws, b.null_draws)
        )

    def check(self, case: TestCase, result) -> tuple[list[str], float]:
        """Problems found in one ``TestResult``, and the largest relative error seen."""
        problems = []
        n, B = self.n, self.replicates
        Xs = oracle.standardize(case.predictors)
        ys = oracle.standardize(case.response[:, None])[:, 0]
        G = np.column_stack([np.ones(n), Xs])
        resid = oracle.ols_residuals(G, ys)
        expected = n * oracle.hsic_fsum(
            oracle.gaussian_gram(Xs, BANDWIDTH_X), oracle.gaussian_gram(resid, BANDWIDTH_E)
        )
        worst = oracle.rel_err(result.statistic, expected)
        if not worst <= oracle.RTOL:
            problems.append(f"statistic {result.statistic!r} vs oracle {expected!r}")

        draws = [float(d) for d in np.asarray(result.null_draws).ravel()]
        if len(draws) != B or not all(math.isfinite(d) for d in draws):
            return problems + [f"expected {B} finite null draws, got {len(draws)}"], worst
        recount = (1 + sum(1 for d in draws if d >= result.statistic)) / (B + 1)
        if result.p_value != recount:
            problems.append(f"p_value {result.p_value!r} vs add-one recount {recount!r}")
        if result.reject != (result.p_value <= ALPHA):
            problems.append(f"reject={result.reject} with p_value {result.p_value!r}")

        fit = fit_ols(G, ys)
        kernel_e = KernelSpec(bandwidth=BANDWIDTH_E)
        for b in sorted({0, B - 1}):  # a few draws per call: the first and the last
            for redraw in (0, 1):
                idx_x, idx_e = replicate_indices(case.boot_seed, b, n, redraw)
                design = G[idx_x]
                try:
                    refit = fit_ols(design, design @ fit.beta_hat + fit.centered_residuals[idx_e])
                except SingularDesignError:
                    continue
                expected = n * oracle.hsic_fsum(
                    oracle.gaussian_gram(Xs[idx_x], BANDWIDTH_X), gram_matrix(refit.residuals, kernel_e)
                )
                err = oracle.rel_err(draws[b], expected)
                worst = max(worst, err)
                if not err <= oracle.RTOL:
                    problems.append(f"null draw {b}: {draws[b]!r} vs oracle {expected!r}")
                break
            else:
                problems.append(f"null draw {b}: both index draws singular in the oracle")
        return problems, worst


@dataclass(frozen=True)
class PowerWorkload:
    """``hsicreg power`` through ``cli.main`` in-process, artifact written to a file."""

    name: str
    n: int
    a_values: tuple[float, ...]
    reps: int
    replicates: int
    workers: int
    distinct: int

    def inputs(self, seed: int) -> list[int]:
        return [int(s) for s in np.random.default_rng([seed, self.n]).integers(2**62, size=self.distinct)]

    def argv(self, study_seed: int, workers: int, out: Path) -> list[str]:
        return [
            "power", "--model", "model1", "--n", str(self.n),
            "--a", ",".join(f"{a:g}" for a in self.a_values),
            "--reps", str(self.reps), "--B", str(self.replicates),
            "--workers", str(workers), "--seed", str(study_seed), "--out", str(out),
        ]

    def call(self, study_seed: int, workers: int, tracer=None) -> bytes:
        out = OUT_DIR / f"power-{os.getpid()}.json"
        out.unlink(missing_ok=True)
        fn = cli.main if tracer is None else tracer.wrap(CLI_MAIN, cli.main)
        code = fn(self.argv(study_seed, workers, out))
        if code != 0:
            raise RuntimeError(f"hsicreg power exited with code {code}")
        try:
            return out.read_bytes()
        finally:
            out.unlink()

    @property
    def tests_per_call(self) -> int:
        return self.reps * len(self.a_values)

    def same(self, a: bytes, b: bytes) -> bool:
        return a == b

    def check(self, study_seed: int, artifact: bytes) -> tuple[list[str], float]:
        """Problems found in one power artifact: its shape and each cell's arithmetic."""
        doc = json.loads(artifact)
        problems = []
        header = (doc.get("command"), doc.get("alpha"), doc.get("replicates"), doc.get("reps"), doc.get("seed"))
        if header != ("power", ALPHA, self.replicates, self.reps, study_seed):
            problems.append(f"artifact header {header!r}")
        cells = doc.get("cells", [])
        if [c.get("a") for c in cells] != list(self.a_values):
            return problems + [f"artifact cells {cells!r}"], 0.0
        for c in cells:
            done = c["reps"] - c["aborts"]
            if c["reps"] != self.reps or c["n"] != self.n or not 0 <= c["rejections"] <= done:
                problems.append(f"cell counts {c!r}")
                continue
            rate = c["rejections"] / done
            se = math.sqrt(rate * (1.0 - rate) / done)
            if c["rate"] != rate or not math.isclose(c["se"], se, rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"cell rate/se {c!r}")
        return problems, 0.0


WORKLOADS = {
    w.name: w
    for w in (
        TestWorkload("test-n200", n=200, lam=50.0, replicates=1000, workers=1, distinct=64),
        TestWorkload("test-n1000", n=1000, lam=0.0, replicates=50, workers=2, distinct=16),
        PowerWorkload("power-n100", n=100, a_values=(0.0, 5.0), reps=50, replicates=199, workers=2, distinct=16),
    )
}

#: Toy sizes for ``run.py --smoke``: every path and metric, in seconds.
TOY = {
    "test-n200": dict(n=40, replicates=19),
    "test-n1000": dict(n=60, replicates=9),
    "power-n100": dict(n=30, reps=3, replicates=19),
}


def workload(name: str, smoke: bool = False):
    w = WORKLOADS[name]
    return replace(w, **TOY[name]) if smoke else w
