"""Acceptance gate: the checks the package must pass, one verdict line each.

Run with ``pytest tests/test_acceptance.py``.  Each test prints a single
``[C..] ... -> PASS/FAIL`` line (visible even without ``-s``) and then
asserts, so the full gate reads as a checklist.  Budget: a few minutes on
one core; the Monte Carlo checks dominate.
"""

import time
from fractions import Fraction

import numpy as np

from hsicreg import (
    BootstrapConfig,
    KernelSpec,
    ModelSpec,
    draw_model,
    null_distribution_contrast,
    permutation_pvalue,
    power_study,
    residual_hsic_stat,
    study_kernels,
    working_design,
)
from hsicreg._rng import derive_seed, substream
from hsicreg.cli import main
from hsicreg.hsic import hsic_sums, hsic_vstat
from hsicreg.kernels import gram_matrix
from test_hsic import exact_hsic

SEED = 0


def check(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: {detail}"


def literal_sums(K, L):
    """Four-nested-loop evaluation of the three-sum form; the slow oracle."""
    n = K.shape[0]
    s_pair = s_cross = s_linked = 0.0
    for i in range(n):
        for j in range(n):
            s_pair += K[i, j] * L[i, j]
            for q in range(n):
                s_linked += K[i, j] * L[i, q]
                for r in range(n):
                    s_cross += K[i, j] * L[q, r]
    return s_pair / n**2 + s_cross / n**4 - 2.0 * s_linked / n**3


def random_gram_pair(rng, n):
    u = rng.normal(size=(n, rng.integers(1, 4)))
    v = rng.normal(size=(n, 1))
    spec = KernelSpec(bandwidth=float(rng.uniform(0.5, 3.0)))
    return gram_matrix(u, spec), gram_matrix(v, spec)


def test_c01_form_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    literal_checked = 0
    sampled = []
    for i in range(1000):
        n = int(rng.integers(2, 51))
        K, L = random_gram_pair(rng, n)
        a = hsic_vstat(K, L).value
        b = hsic_sums(K, L).value
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        if n <= 6:
            lit = literal_sums(K, L)
            worst = max(worst, abs(a - lit) / max(abs(a), abs(lit)))
            literal_checked += 1
        if i % 5 == 0:
            sampled.append((K, L, a, b))
    elapsed = time.perf_counter() - start
    # Outside the timed loop: how far each form is from exact arithmetic, so a
    # rise in "max rel dev" can be traced to the form that moved.
    off_exact = [0.0, 0.0]
    for K, L, *values in sampled:
        want = exact_hsic(K, L)
        for form, got in enumerate(values):
            off_exact[form] = max(off_exact[form], float(abs(Fraction(got) - want) / abs(want)))
    ok = worst < 1e-10 and elapsed < 10.0 and literal_checked >= 20
    check(capsys, "[C01] form equivalence",
          ok, f"max rel dev {worst:.2e} over 1000 instances "
              f"({literal_checked} vs literal loops), {elapsed:.1f}s; "
              f"max rel dev from exact arithmetic over every 5th instance: "
              f"hsic_vstat {off_exact[0]:.2e}, hsic_sums {off_exact[1]:.2e}")


def test_c02_two_point_closed_form(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(size=2)
        K = np.array([[1.0, a], [a, 1.0]])
        L = np.array([[1.0, b], [b, 1.0]])
        worst = max(worst, abs(hsic_vstat(K, L).value - (1 - a) * (1 - b) / 4.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    check(capsys, "[C02] two-point closed form",
          ok, f"max abs dev {worst:.2e} over 100 pairs, {elapsed:.2f}s")


def _rate(model, n, a, lam, reps, B=500):
    table = power_study(
        [ModelSpec(model, n=n, a=a, lam=lam)],
        alpha=0.05,
        config=BootstrapConfig(replicates=B, seed=SEED, workers=1),
        reps=reps,
    )
    return table.cells[0]


def test_c03_size_model1(capsys):
    cell = _rate("model1", n=100, a=0.0, lam=0.0, reps=300)
    ok = 0.02 <= cell.rate <= 0.09 and cell.aborts == 0
    check(capsys, "[C03] size, model1 n=100",
          ok, f"rate {cell.rate:.3f} in [0.02, 0.09]")


def test_c04_size_model2(capsys):
    cell = _rate("model2", n=100, a=0.0, lam=0.0, reps=300)
    ok = 0.025 <= cell.rate <= 0.10 and cell.aborts == 0
    check(capsys, "[C04] size, model2 n=100",
          ok, f"rate {cell.rate:.3f} in [0.025, 0.10]")


def test_c05_heteroscedastic_power(capsys):
    cell = _rate("model1", n=200, a=0.0, lam=50.0, reps=200)
    ok = 0.80 <= cell.rate <= 0.95
    check(capsys, "[C05] scale-dependence power, model1 n=200 lam=50",
          ok, f"rate {cell.rate:.3f} in [0.80, 0.95]")


def test_c06_lack_of_fit_power_model1(capsys):
    table = power_study(
        [ModelSpec("model1", n=100, a=5.0), ModelSpec("model1", n=100, a=10.0)],
        alpha=0.05,
        config=BootstrapConfig(replicates=500, seed=SEED, workers=1),
        reps=200,
    )
    mid, strong = table.cells
    ok = strong.rate >= 0.97 and 0.45 <= mid.rate <= 0.70
    check(capsys, "[C06] lack-of-fit power, model1 n=100",
          ok, f"a=10 rate {strong.rate:.3f} >= 0.97; a=5 rate {mid.rate:.3f} in [0.45, 0.70]")


def test_c07_lack_of_fit_power_model2(capsys):
    cell = _rate("model2", n=100, a=0.6, lam=0.0, reps=200)
    ok = 0.84 <= cell.rate <= 0.98
    check(capsys, "[C07] lack-of-fit power, model2 n=100 a=0.6",
          ok, f"rate {cell.rate:.3f} in [0.84, 0.98]")


def test_c08_residual_vs_error_contrast(capsys):
    spec = ModelSpec("linear1d", n=100, noise_sd=float(np.sqrt(0.1)))
    kernel_x, kernel_e = study_kernels(1)
    critical = 1.628 * np.sqrt(2.0 / 500.0)
    res = null_distribution_contrast(spec, kernel_x, kernel_e, 500, seed=SEED, workers=1)
    same = null_distribution_contrast(
        spec, kernel_x, kernel_e, 500, seed=SEED, workers=1, both_arms_use_errors=True
    )
    ok = res.ks_distance > critical and same.ks_distance <= critical
    check(capsys, "[C08] residual-vs-error null contrast",
          ok, f"KS {res.ks_distance:.3f} > {critical:.3f}; same-arm KS {same.ks_distance:.3f}")


def test_c09_rate_separation(capsys):
    wide = KernelSpec(bandwidth=4.0)
    reps = 200

    def mean_scaled(tag, spec):
        design = working_design(spec)
        total = 0.0
        for trial in range(reps):
            sim = draw_model(spec, substream(SEED, tag, trial))
            value, _ = residual_hsic_stat(sim.data, design, wide, wide)
            total += value.scaled
        return total / reps

    null_ratio = (
        mean_scaled(1, ModelSpec("model1", n=200))
        / mean_scaled(0, ModelSpec("model1", n=100))
    )
    alt_ratio = (
        mean_scaled(3, ModelSpec("model1", n=200, a=5.0))
        / mean_scaled(2, ModelSpec("model1", n=100, a=5.0))
    )
    ok = 0.5 <= null_ratio <= 2.0 and 1.6 <= alt_ratio <= 2.5
    check(capsys, "[C09] rate separation n=200/n=100",
          ok, f"null ratio {null_ratio:.3f} in [0.5, 2.0]; alt ratio {alt_ratio:.3f} in [1.6, 2.5]")


def test_c10_byte_determinism(capsys, tmp_path):
    commands = {
        "test": ["test", "--model", "model1", "--n", "60", "--B", "199", "--seed", "5"],
        "simulate": ["simulate", "--model", "model2", "--n", "50", "--seed", "7",
                     "--format", "csv"],
        "power": ["power", "--model", "linear1d", "--n", "20,30", "--lambda", "0,40",
                  "--reps", "5", "--B", "99", "--seed", "3", "--format", "csv"],
        "contrast": ["contrast", "--n", "40", "--reps", "40", "--seed", "2"],
    }
    with_workers = {"test", "power", "contrast"}
    failures = []
    for name, argv in commands.items():
        outputs = []
        variants = [argv, argv]
        if name in with_workers:
            variants += [argv + ["--workers", "1"], argv + ["--workers", "8"]]
        for i, variant in enumerate(variants):
            out = tmp_path / f"{name}_{i}"
            code = main(variant + ["--out", str(out)])
            if code != 0:
                failures.append(f"{name} exited {code}")
                break
            outputs.append(out.read_bytes())
        if len(set(outputs)) != 1:
            failures.append(f"{name} output varies across runs/workers")
    capsys.readouterr()  # swallow CLI progress chatter
    check(capsys, "[C10] byte-identical seeded output",
          not failures, "; ".join(failures) or "test/simulate/power/contrast stable across runs and workers {1,8}")


def test_c11_permutation_size(capsys):
    reps, n, alpha = 300, 100, 0.05
    rejections = 0
    for r in range(reps):
        rng = substream(SEED, r)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        config = BootstrapConfig(replicates=199, seed=derive_seed(SEED, r, 1), workers=1)
        if permutation_pvalue(u, v, KernelSpec(), KernelSpec(), config) <= alpha:
            rejections += 1
    size = rejections / reps
    lo, hi = 0.0176, 0.0824
    ok = lo <= size <= hi
    check(capsys, "[C11] permutation baseline size",
          ok, f"size {size:.4f} in [{lo}, {hi}]")
