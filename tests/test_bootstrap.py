"""Null calibration: resampling streams, the bootstrap loop, and baselines."""

import itertools
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import hsicreg.bootstrap
from hsicreg import (
    BasisTerm,
    BootstrapAbortError,
    BootstrapConfig,
    Dataset,
    DesignSpec,
    KernelSpec,
    ModelSpec,
    draw_model,
    null_distribution_contrast,
    permutation_pvalue,
    power_study,
    pvalue_from_draws,
    replicate_indices,
    run_test,
    study_kernels,
    working_design,
)
from hsicreg.bootstrap import (
    _blocks,
    _curtailed_reject,
    _null_block,
    _null_draws,
    _perm_draw,
    _replicate_stat,
    parallel_map,
)
from hsicreg._rng import replicate_stream, substream
from hsicreg.hsic import _residual_stat, _tiled_stat, _work_memory, hsic_sums, hsic_vstat, prepare_stat
from hsicreg.kernels import MEDIAN, gram_matrix
from hsicreg.linreg import _refit_residuals, fit_ols
from test_hsic import fsum_hsic


def toy_data(seed, n=40, d0=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d0))
    y = 1.0 + X @ np.arange(1.0, d0 + 1.0) + rng.normal(size=n)
    return Dataset(X, y)


def reference_stream(seed, replicate, *tail):
    """A fresh generator at the documented key and counter of ``replicate_stream(seed, replicate, *tail)``."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, replicate, tail[0] if tail else 0, 1 + len(tail)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draw_alone(prep, seed, replicate):
    """Null replicate ``replicate`` drawn as a block of one."""
    return _null_draws(prep, seed, range(replicate, replicate + 1))[0]


class TestReplicateIndices:
    def test_deterministic_and_in_range(self):
        a_x, a_e = replicate_indices(7, 3, 50)
        b_x, b_e = replicate_indices(7, 3, 50)
        np.testing.assert_array_equal(a_x, b_x)
        np.testing.assert_array_equal(a_e, b_e)
        assert a_x.min() >= 0 and a_x.max() < 50
        assert a_x.shape == a_e.shape == (50,)

    def test_two_streams_differ(self):
        """Predictor and residual indices must come out unpaired."""
        idx_x, idx_e = replicate_indices(0, 0, 100)
        assert not np.array_equal(idx_x, idx_e)

    def test_replicates_and_redraws_are_distinct_streams(self):
        base = replicate_indices(5, 1, 30)[0]
        assert not np.array_equal(base, replicate_indices(5, 2, 30)[0])
        assert not np.array_equal(base, replicate_indices(5, 1, 30, redraw=1)[0])
        assert not np.array_equal(base, replicate_indices(6, 1, 30)[0])

    def test_pairs_are_the_raw_draws_ordered_by_predictor_index(self):
        for seed, b, redraw in [(7, 3, 0), (7, 3, 1), (0, 12, 0)]:
            idx_x, idx_e = replicate_indices(seed, b, 200, redraw)
            assert (np.diff(idx_x) >= 0).all()
            rng = reference_stream(seed, b, redraw)
            raw_x = rng.integers(0, 200, size=200)
            raw_e = rng.integers(0, 200, size=200)
            assert sorted(zip(idx_x.tolist(), idx_e.tolist())) == sorted(zip(raw_x.tolist(), raw_e.tolist()))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**62 + 12345, 2**63 - 1, 2**70])
    def test_equal_to_the_substream_reference(self, seed):
        """The re-keyed per-thread generator draws what a fresh Philox at the replicate's
        key and counter draws, for replicates and redraws past one 32-bit word and up to
        the last 64-bit one."""
        replicates = [0, 1, 63, 64, 65, 2**32 - 1, 2**32, 2**32 + 64, 2**64 - 1]
        for redraw in (0, 1, 2**32, 2**64 - 1):
            for b in replicates:
                rng = reference_stream(seed, b, redraw)
                raw_x = rng.integers(0, 97, size=97)
                raw_e = rng.integers(0, 97, size=97)
                order = np.argsort(raw_x, kind="stable")
                idx_x, idx_e = replicate_indices(seed, b, 97, redraw)
                np.testing.assert_array_equal(idx_x, raw_x[order])
                np.testing.assert_array_equal(idx_e, raw_e[order])

    @pytest.mark.parametrize("n", [1, 2, 97, 200, 2**16 + 3])
    def test_one_draw_of_2n_is_two_draws_of_n(self, n):
        """``replicate_indices`` splits one ``integers(0, n, size=2n)`` call in halves; numpy
        keeps its bounded-draw buffer in the generator's state, so the halves are two
        consecutive ``integers(0, n, size=n)`` draws of the replicate's stream."""
        for seed, b, redraw in [(0, 0, 0), (7, 3, 1), (2**70, 2**32 + 1, 0)]:
            both = replicate_stream(seed, b, redraw).integers(0, n, size=2 * n)
            rng = reference_stream(seed, b, redraw)
            np.testing.assert_array_equal(both[:n], rng.integers(0, n, size=n))
            np.testing.assert_array_equal(both[n:], rng.integers(0, n, size=n))


class TestReplicateStream:
    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 1, 2**70, 2**200 + 7])
    @pytest.mark.parametrize("tail", [(), (0,), (1,), (2**32 - 1,), (2**32,), (2**40 + 5, 3)],
                             ids=lambda tail: "-".join(map(str, tail)) or "none")
    def test_key_blocks_equal_seed_sequence(self, seed, tail):
        """Every replicate's key is the seed's ``SeedSequence`` state, on both sides of 2**32
        and up to the last 64-bit replicate, and its counter is (0, replicate, redraw, 1 +
        len(tail)); a tail of two words has no place in the counter and is refused."""
        if len(tail) > 1:
            with pytest.raises(ValueError, match=re.escape(repr(tail))):
                replicate_stream(seed, 0, *tail)
            return
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        for first in (0, 64, 2**32 - 64, 2**32, 2**64 - 64):
            for b in range(first, first + 64):
                state = replicate_stream(seed, b, *tail).bit_generator.state["state"]
                np.testing.assert_array_equal(state["key"], key)
                np.testing.assert_array_equal(state["counter"], [0, b, tail[0] if tail else 0, 1 + len(tail)])

    def test_one_seed_sequence_per_seed_per_thread(self, monkeypatch):
        """A thread builds one ``SeedSequence`` for its seed, whatever the number of replicates,
        redraws and permutations it draws under it, one more only when the seed changes,
        and another thread builds its own."""
        built = []

        def counting(*args):
            built.append(args)
            return np.random.SeedSequence(*args)

        replicate_stream(1, 0)
        monkeypatch.setattr("hsicreg._rng._seed_sequence", counting)
        rng = np.random.default_rng(32)
        u, v, data = rng.normal(size=30), rng.normal(size=30), toy_data(31)
        for seed, expected in [(2**70, [(2**70,)]), (31, [(31,)]), (31, []), (2**70, [(2**70,)])]:
            built.clear()
            replicate_stream(seed, 2**32 + 5, 2**32).random()
            run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
                     BootstrapConfig(replicates=19, seed=seed))
            permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=19, seed=seed))
            assert built == expected, seed
        worker = threading.Thread(target=replicate_stream, args=(2**70, 0))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and built == [(2**70,), (2**70,)]

    @pytest.mark.parametrize("key", [(3, 5, 0), (3, 70, 1), (2**70, 2**32 - 1, 0), (3, 2**32, 0), (3, 5, 2**32),
                                     (3, 7), (2**70, 2**32 + 1)])
    def test_state_is_a_fresh_substream_state(self, key):
        """Counter, key and the buffered words all restart, whatever was drawn before: the
        state is a fresh Philox's at the stream's key and counter."""
        replicate_stream(*key).integers(0, 2**40, size=3)
        rng = replicate_stream(key[0] + 1, 0)
        rng.random(5)  # move the counter and leave words in Philox's output buffer
        rng.integers(0, 7)  # leave a buffered 32-bit half-word
        assert rng.bit_generator.state["has_uint32"] == 1
        want = reference_stream(*key).bit_generator.state
        assert repr(replicate_stream(*key).bit_generator.state) == repr(want)

    def test_one_generator_per_thread(self):
        ours = replicate_stream(0, 0)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(replicate_stream(0, 0)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and len(theirs) == 1
        assert theirs[0] is not ours and replicate_stream(5, 9) is ours

    def test_negative_keys_are_rejected(self):
        for key in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                replicate_stream(*key)

    def test_keys_outside_the_counter_are_rejected(self):
        """The counter holds one replicate word and one redraw word, each below 2**64."""
        for key, value in [((0, 2**64), 2**64), ((0, 0, 2**64), 2**64), ((3, 2**70 + 1, 1), 2**70 + 1),
                           ((0, 0, 2**40 + 5, 3), (2**40 + 5, 3)), ((0, 0, 0, 0), (0, 0))]:
            with pytest.raises(ValueError, match=re.escape(str(value))):
                replicate_stream(*key)
        replicate_stream(0, 2**64 - 1, 2**64 - 1).random()

    def test_distinct_counters_are_distinct_streams(self):
        """Replicate, redraw and tag each move the counter, and no two of these twelve streams
        share a drawn word: a permutation's stream (tag 1) is never a replicate's (tag 2)."""
        counters = [(b, r, tag) for b in (0, 1, 2**32) for r in (0, 1, 2**32) for tag in (1, 2) if tag == 2 or r == 0]
        words = {}
        for b, r, tag in counters:
            rng = replicate_stream(5, b, r) if tag == 2 else replicate_stream(5, b)
            assert rng.bit_generator.state["state"]["counter"].tolist() == [0, b, r, tag]
            words[b, r, tag] = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        every = np.concatenate(list(words.values()))
        assert np.unique(every).size == every.size

    @pytest.mark.parametrize("key", [(0, 0), (7, 3, 1), (2**70, 2**64 - 1, 2**64 - 1)])
    def test_a_draw_moves_counter_word_0_only(self, key):
        """A stream of 2n draws advances word 0, one per block of four words, and leaves the
        words that name the stream where they were, so it never runs into another stream."""
        for n in (2, 100, 1000):
            rng = replicate_stream(*key)
            start = rng.bit_generator.state["state"]["counter"].copy()
            rng.integers(0, n, size=2 * n)
            counter = rng.bit_generator.state["state"]["counter"]
            assert start[0] == 0 and 0 < counter[0] <= 2 * n
            np.testing.assert_array_equal(counter[1:], start[1:])


class TestPvalueFromDraws:
    def test_counting_rule(self):
        draws = np.array([0.1, 0.2, 0.3, 0.4])
        assert pvalue_from_draws(draws, 0.25) == (1 + 2) / 5
        assert pvalue_from_draws(draws, 0.05) == 1.0
        assert pvalue_from_draws(draws, 0.5) == 1 / 5

    def test_ties_count_as_exceedances(self):
        draws = np.array([0.2, 0.2, 0.2])
        assert pvalue_from_draws(draws, 0.2) == 1.0

    def test_never_zero(self):
        assert pvalue_from_draws(np.zeros(999), 5.0) == 1 / 1000


def test_null_draws_reproducible_and_worker_invariant():
    data = toy_data(71)
    design = DesignSpec.main_effects(2)
    kx = ke = KernelSpec()
    one = run_test(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=1)).null_draws
    again = run_test(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=1)).null_draws
    two = run_test(data, design, kx, ke, BootstrapConfig(replicates=40, seed=9, workers=2)).null_draws
    np.testing.assert_array_equal(one, again)
    np.testing.assert_array_equal(one, two)
    assert one.shape == (40,)
    assert np.isfinite(one).all() and (one >= -1e-12).all()


@pytest.mark.parametrize("replicates", [1, 15, 16, 17, 50])
def test_blocks_draw_what_each_replicate_draws_alone(replicates):
    """However B splits into blocks, on one worker or several, every null draw is bit-equal
    to the replicate drawn as a block of one."""
    data = toy_data(70)
    design = DesignSpec.main_effects(2)
    kx, ke = KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=1.4)
    prep = prepare_stat(data, design, kx, ke)
    alone = [draw_alone(prep, 6, b) for b in range(replicates)]
    for workers in (1, 2, 3):
        blocks = _blocks(prep, replicates, workers)
        assert [b for block in blocks for b in block] == list(range(replicates))
        assert max(map(len, blocks)) <= 16
        result = run_test(data, design, kx, ke, BootstrapConfig(replicates=replicates, seed=6, workers=workers))
        assert result.null_draws.tolist() == alone, workers
    if replicates == 50:
        assert [len(block) for block in _blocks(prep, 50, 2)] == [7] * 7 + [1]


def _prepared_for(data, design):
    return prepare_stat(data, design, KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=1.4))


def test_replicate_allocates_no_n_by_n_array():
    """Replicates work in the tiled kernel's own T*n + 2*T^2 + 4*n floats and their block's stacks.

    numpy reports its data buffers to tracemalloc, so the traced peak over
    the blocks of 16 replicates at n = 2000, as a test draws them, must stay
    below a fifth of one n x n float64 array.
    """
    n = 2000
    prep = _prepared_for(toy_data(72, n=n, d0=4), DesignSpec.main_effects(4))
    blocks = _blocks(prep, 16, 1)
    assert sum(map(len, blocks)) == 16
    tracemalloc.start()
    try:
        for block in blocks:
            _null_draws(prep, 3, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 8 * n * n, f"traced peak {peak} bytes = {peak / (8 * n * n):.3f} n x n arrays"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts as Linux reports them")
def test_replicates_reuse_their_work_memory():
    """A replicate at n = 200 asks for 128 x 200 and two 128 x 128 float arrays, each at
    least 128 KiB.  Made afresh, glibc hands them back to the kernel on free and the next
    replicate faults them in again, about a hundred pages; reused, none.  A block's
    stacks stay under 128 KiB each, so the heap serves them without faults either."""
    import resource

    n = 200
    prep = _prepared_for(toy_data(73, n=n, d0=4), DesignSpec.main_effects(4))
    first, *blocks = _blocks(prep, 210, 1)
    _null_draws(prep, 5, first)
    measured = sum(map(len, blocks))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for block in blocks:
        _null_draws(prep, 5, block)
    per_replicate = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / measured
    assert per_replicate < 2, f"{per_replicate:.1f} minor faults per replicate"


@pytest.mark.parametrize("entry", ["run_test", "permutation", "power_study", "contrast"])
def test_a_pool_starts_with_no_work_memory_in_the_caller(entry, monkeypatch):
    """A pooled call draws nothing in the calling thread, so parallel_map frees that
    thread's work arrays just before it starts the pool."""
    data = toy_data(74, n=200, d0=4)
    args = (data, DesignSpec.main_effects(4), KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.4))
    config = BootstrapConfig(replicates=20, workers=2)
    calls = {
        "run_test": lambda: run_test(*args, config),
        "permutation": lambda: permutation_pvalue(data.predictors, data.response, KernelSpec(), KernelSpec(), config),
        "power_study": lambda: power_study([ModelSpec("model1", n=60)], 0.05, BootstrapConfig(19, workers=2), 4),
        "contrast": lambda: null_distribution_contrast(ModelSpec("linear1d", n=150), *study_kernels(1), 25, workers=2),
    }
    held = []
    pool = hsicreg.bootstrap.ProcessPoolExecutor

    def recording_pool(*pool_args, **pool_kwargs):
        held.append(_work_memory.arrays)
        return pool(*pool_args, **pool_kwargs)

    monkeypatch.setattr(hsicreg.bootstrap, "ProcessPoolExecutor", recording_pool)
    draw_alone(prepare_stat(*args), 0, 0)
    assert _work_memory.arrays
    calls[entry]()
    assert held == [()]


def test_serial_calls_at_one_n_reuse_one_set_of_work_memory():
    """Without a pool, a thread keeps its work arrays from one call to the next."""
    args = (toy_data(75, n=200, d0=4), DesignSpec.main_effects(4), KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.4))
    run_test(*args, BootstrapConfig(replicates=20))
    held = _work_memory.arrays
    assert held
    run_test(*args, BootstrapConfig(replicates=20, seed=1))
    assert _work_memory.arrays is held


def test_concurrent_tests_in_threads_equal_serial_runs():
    """Work memory and generators are per thread, so two run_test calls at different n
    running at once draw what each draws alone."""
    cases = []
    for n, seed in ((200, 11), (150, 12)):
        data = toy_data(seed, n=n, d0=4)
        cases.append((data, DesignSpec.main_effects(4), KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.4),
                      BootstrapConfig(replicates=150, seed=seed)))
    serial = [run_test(*case).null_draws for case in cases]
    results = [None, None]

    def run(i):
        results[i] = run_test(*cases[i]).null_draws

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, expected in zip(results, serial):
        assert got is not None
        np.testing.assert_array_equal(got, expected)


def test_replicates_equal_fsum_oracle_on_gathered_grams():
    """Replicates drawn from one prepared fit equal n times the fsum oracle
    on the gathered predictor Gram and the refit residuals' Gram."""
    n = 300
    prep = _prepared_for(toy_data(74, n=n, d0=3), DesignSpec.main_effects(3))
    draws = _null_draws(prep, 5, range(6))
    for b in range(6):
        idx_x, idx_e = replicate_indices(5, b, n)
        refit = fit_ols(prep.design[idx_x], prep.model.centered_residuals[idx_e])
        gram_x = prep.gram_x[np.ix_(idx_x, idx_x)]
        want = n * fsum_hsic(gram_x, gram_matrix(refit.residuals, prep.kernel_e))
        assert draws[b] == pytest.approx(want, rel=1e-10), b


def test_null_draw_matches_oracle_on_raw_pairs():
    """A replicate stays on the fsum oracle evaluated on the pairs in the order
    they were drawn, with the refit on a rebuilt response y* = G* beta_hat + e*:
    neither the reordered pairs nor the refit on e* alone moves it beyond rounding."""
    for n, reps in [(80, 4), (1000, 2)]:
        data = toy_data(75, n=n, d0=3)
        design = DesignSpec.main_effects(3)
        beta_hat = prepare_stat(data, design, KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=1.4)).model.beta_hat
        prep = _prepared_for(data, design)
        draws = _null_draws(prep, 8, range(reps))
        for b in range(reps):
            rng = replicate_stream(8, b, 0)
            idx_x = rng.integers(0, n, size=n)
            idx_e = rng.integers(0, n, size=n)
            G = prep.design[idx_x]
            refit = fit_ols(G, G @ beta_hat + prep.model.centered_residuals[idx_e])
            want = n * fsum_hsic(prep.gram_x[np.ix_(idx_x, idx_x)], gram_matrix(refit.residuals, prep.kernel_e))
            assert draws[b] == pytest.approx(want, rel=1e-10), (n, b)


_REDUCED = []


class _CountedSquare:
    """Squares an item; counts how often this process pickles it."""

    def __reduce__(self):
        _REDUCED.append(1)
        return (_CountedSquare, ())

    def __call__(self, item):
        return item * item


def test_parallel_map_ships_fn_once_per_worker():
    _REDUCED.clear()
    items = list(range(40))
    assert parallel_map(_CountedSquare(), items, 2) == [i * i for i in items]
    assert len(_REDUCED) <= 2


def test_workers_zero_is_one_per_usable_cpu(monkeypatch):
    """workers=0 counts the CPUs in the affinity set, not the host's, and
    falls back to ``os.cpu_count()`` where there is no affinity call."""
    requested = []

    class RecordingPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            self.fn = initargs[0]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(self.fn, items)

    monkeypatch.setattr(hsicreg.bootstrap, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert parallel_map(abs, [-1, 2, -3], 0) == [1, 2, 3]
    assert requested == [3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4})
    assert parallel_map(abs, [-1, 2], 0) == [1, 2]
    assert requested == [3]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel_map(abs, [-4], 0) == [4]
    assert requested == [3, 8]


def test_null_draws_change_with_seed():
    data = toy_data(72)
    design = DesignSpec.main_effects(2)
    a = run_test(data, design, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=10, seed=0)).null_draws
    b = run_test(data, design, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=10, seed=1)).null_draws
    assert not np.array_equal(a, b)


def test_run_test_result_contract():
    data = toy_data(73)
    res = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
                   BootstrapConfig(replicates=99, seed=4))
    assert res.n == 40
    assert res.replicates == 99
    assert res.null_draws.shape == (99,)
    assert res.p_value >= 1 / 100
    assert res.p_value == pvalue_from_draws(res.null_draws, res.statistic)
    assert res.reject == (res.p_value <= res.alpha)
    assert res.design_labels == ("1", "x1", "x2")
    assert type(res.kernel_x.bandwidth) is float
    assert res.statistic >= 0.0


def test_run_test_bitwise_reproducible():
    data = toy_data(74)
    cfg = BootstrapConfig(replicates=60, seed=12)
    r1 = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), cfg)
    r2 = run_test(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), cfg)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value
    np.testing.assert_array_equal(r1.null_draws, r2.null_draws)


def test_run_test_rejects_on_strong_dependence():
    """Errors with variance driven hard by x1 should be caught at n=150."""
    rng = np.random.default_rng(75)
    X = rng.uniform(size=(150, 2))
    errors = rng.normal(size=150) * (0.2 + 2.5 * X[:, 0])
    data = Dataset(X, 1.0 + 2.0 * X[:, 0] - X[:, 1] + errors)
    res = run_test(data, DesignSpec.main_effects(2), KernelSpec(bandwidth=2.0 * np.sqrt(2)),
                   KernelSpec(bandwidth=np.sqrt(2.0)), BootstrapConfig(replicates=199, seed=7))
    assert res.p_value <= 0.05


@pytest.mark.parametrize("alpha", [0, 1, -0.1, 1.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda alpha: run_test(toy_data(76), DesignSpec.main_effects(2), KernelSpec(), KernelSpec(),
                               BootstrapConfig(replicates=5, seed=0), alpha=alpha),
        lambda alpha: power_study([ModelSpec("linear1d", n=20)], alpha, BootstrapConfig(replicates=5, seed=0), 2),
    ],
    ids=["run_test", "power_study"],
)
def test_alpha_outside_the_unit_interval_is_named(entry, alpha):
    """Every entry point that takes a level rejects one outside (0, 1) with the same message."""
    with pytest.raises(ValueError, match=f"^alpha must lie strictly between 0 and 1, got {re.escape(str(alpha))}$"):
        entry(alpha)


def test_median_rule_frozen_equals_preresolved():
    """A median-rule run must match a fixed-bandwidth run at the resolved values.

    This pins the freezing behavior: replicates never re-resolve bandwidths
    from resampled data.
    """
    data = toy_data(77)
    design = DesignSpec.main_effects(2)
    cfg = BootstrapConfig(replicates=50, seed=3)
    med = run_test(data, design, KernelSpec(MEDIAN), KernelSpec(MEDIAN), cfg)
    fixed = run_test(
        data,
        design,
        KernelSpec(bandwidth=med.kernel_x.bandwidth),
        KernelSpec(bandwidth=med.kernel_e.bandwidth),
        cfg,
    )
    assert med.statistic == fixed.statistic
    np.testing.assert_array_equal(med.null_draws, fixed.null_draws)


def test_pvalue_stability_across_bootstrap_seeds():
    """Bootstrap noise in the p-value stays well under 15% relative."""
    data = toy_data(78, n=50)
    design = DesignSpec.main_effects(2)
    ps = [
        run_test(data, design, KernelSpec(), KernelSpec(),
                 BootstrapConfig(replicates=300, seed=s)).p_value
        for s in range(12)
    ]
    ps = np.array(ps)
    assert ps.std() / ps.mean() < 0.15, ps


class TestSingularReplicates:
    """Resamples that lose the informative row of a spiky column."""

    def _prepared(self):
        # x2 is zero except in row 0; resamples without row 0 are singular.
        # Unstandardized, the design is [1, x, spike] and the Gram is of (x, spike).
        n = 6
        x = np.arange(1.0, n + 1.0)
        spike = np.zeros(n)
        spike[0] = 1.0
        y = np.array([2.0, 1.0, 3.0, 2.5, 4.0, 3.5])
        data = Dataset(np.column_stack([x, spike]), y)
        return prepare_stat(data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec(), standardize=False)

    def _includes_row0(self, seed, b, redraw):
        return 0 in replicate_indices(seed, b, 6, redraw)[0]

    def test_redraw_rescues_single_singular_resample(self):
        seed = 0
        prep = self._prepared()
        rescued = next(
            b for b in range(500)
            if not self._includes_row0(seed, b, 0) and self._includes_row0(seed, b, 1)
        )
        value = draw_alone(prep, seed, rescued)
        assert np.isfinite(value)

    def test_two_singular_resamples_abort(self):
        seed = 0
        prep = self._prepared()
        doomed = next(
            b for b in range(500)
            if not self._includes_row0(seed, b, 0) and not self._includes_row0(seed, b, 1)
        )
        with pytest.raises(BootstrapAbortError, match="redraw"):
            draw_alone(prep, seed, doomed)

    def test_a_stack_flags_exactly_its_singular_members(self):
        """One stacked refit of resamples with and without row 0 flags those without it,
        raises nothing, and leaves the regular members' residuals those of ``fit_ols``."""
        seed = 0
        prep = self._prepared()
        rows = np.array([replicate_indices(seed, b, 6) for b in range(40)])
        singular = [0 not in idx_x for idx_x in rows[:, 0]]
        assert any(singular) and not all(singular)
        resid, flags = _refit_residuals(prep.design[rows[:, 0]], prep.model.centered_residuals[rows[:, 1]])
        assert flags.tolist() == singular
        for (idx_x, idx_e), member, flag in zip(rows, resid, singular):
            if not flag:
                refit = fit_ols(prep.design[idx_x], prep.model.centered_residuals[idx_e])
                np.testing.assert_array_equal(member, refit.residuals)

    def test_a_block_redraws_and_aborts_only_where_it_is_read(self):
        """A block refits its members together but redraws, or aborts on, a singular
        member only when that member's draw is consumed."""
        seed = 0
        prep = self._prepared()
        doomed = next(
            b for b in range(1, 500)
            if not self._includes_row0(seed, b, 0) and not self._includes_row0(seed, b, 1)
        )
        block = _null_block(prep, seed, range(doomed - 1, doomed + 1))
        assert next(block) == draw_alone(prep, seed, doomed - 1)
        with pytest.raises(BootstrapAbortError, match=f"replicate {doomed}:"):
            next(block)


def _recording(monkeypatch, draw=_replicate_stat):
    """Route every null replicate's statistic through ``draw``; returns the replicate indices drawn."""
    drawn = []

    def recorded(prep, seed, replicate, *member):
        drawn.append(replicate)
        return draw(prep, seed, replicate, *member)

    monkeypatch.setattr(hsicreg.bootstrap, "_replicate_stat", recorded)
    return drawn


def _largest_accepted_count(replicates, alpha):
    """k: the most draws >= the statistic among B that still reject, or -1 if none do."""
    return max((x for x in range(replicates + 1) if (1 + x) / (replicates + 1) <= alpha), default=-1)


def _settle_point(hits, replicates, k):
    """Draws a curtailed trial needs: the first b after which more than k of them hit
    (accept), or at most k hit even if every draw left would (reject)."""
    for b in range(replicates + 1):
        x = sum(hits[:b])
        if x > k or x + (replicates - b) <= k:
            return b
    return replicates


class TestCurtailedReject:
    """The decide-only path power trials use: run_test's decision from a prefix of its draws."""

    def test_decision_and_prefix_match_run_test(self, monkeypatch):
        drawn = _recording(monkeypatch)
        trials = 0
        stopped_early = {False: 0, True: 0}
        for B, per_cell in ((19, 28), (199, 14), (500, 8)):
            k = _largest_accepted_count(B, 0.05)
            decisions = set()
            for spec in (ModelSpec("model1", n=50), ModelSpec("model1", n=50, a=10.0),
                         ModelSpec("model2", n=50), ModelSpec("model2", n=50, a=0.6)):
                args = (working_design(spec), *study_kernels(spec.dim))
                for trial in range(per_cell):
                    data = draw_model(spec, substream(B, trial)).data
                    config = BootstrapConfig(replicates=B, seed=trial)
                    drawn.clear()
                    decision = _curtailed_reject(data, *args, B, trial, 0.05)
                    evaluated = list(drawn)
                    full = run_test(data, *args, config, 0.05)
                    assert decision == full.reject
                    assert evaluated == list(range(len(evaluated)))
                    hits = (full.null_draws >= full.statistic).tolist()
                    assert len(evaluated) == _settle_point(hits, B, k)
                    if not decision:
                        assert sum(hits[: len(evaluated)]) == k + 1 and hits[len(evaluated) - 1]
                    stopped_early[decision] += len(evaluated) < B
                    decisions.add(decision)
                    trials += 1
            assert decisions == {False, True}
        assert trials >= 200
        assert min(stopped_early.values()) > 0, stopped_early

    @pytest.mark.parametrize(
        "alpha, B, k",
        [(0.05, 199, 9), (0.05, 19, 0), (0.1, 29, 2), (0.29, 99, 28), (0.05, 9, -1)],
        ids=["B199", "B19", "alpha(B+1)=3", "floor-would-say-27", "never-rejects"],
    )
    @pytest.mark.parametrize("extra", [0, 1], ids=["X=k", "X=k+1"])
    def test_boundary(self, monkeypatch, alpha, B, k, extra):
        """X = k draws at the statistic still reject, once the draws left could add no more
        than k - X; X = k + 1 accept, right after the last one."""
        assert k == _largest_accepted_count(B, alpha)
        data = toy_data(81)
        args = (DesignSpec.main_effects(2), KernelSpec(), KernelSpec())
        observed = prepare_stat(data, *args).observed.scaled
        exceedances = max(k + extra, 0)
        hits = set(range(1, 2 * exceedances, 2))  # ties with the statistic count
        drawn = _recording(monkeypatch, lambda prep, seed, b, *member: observed if b in hits else -1.0)

        decision = _curtailed_reject(data, *args, B, 0, alpha)
        evaluated = list(drawn)
        drawn.clear()
        full = run_test(data, *args, BootstrapConfig(replicates=B, seed=0), alpha)
        assert drawn == list(range(B))
        assert full.p_value == (1 + exceedances) / (B + 1)
        assert decision == full.reject == (exceedances <= k)
        assert evaluated == list(range(_settle_point([b in hits for b in range(B)], B, k)))

    def test_abort_counts_only_before_the_decision_is_settled(self, monkeypatch):
        data = toy_data(82)
        args = (DesignSpec.main_effects(2), KernelSpec(), KernelSpec())

        def draws(settle_at, abort_at):
            def draw(prep, seed, b, *member):
                if b == abort_at:
                    raise BootstrapAbortError(f"replicate {b}: singular twice")
                return np.inf if b == settle_at else -1.0
            return draw

        drawn = _recording(monkeypatch, draws(settle_at=2, abort_at=3))
        assert not _curtailed_reject(data, *args, 19, 0, 0.05)
        assert drawn == [0, 1, 2]
        with pytest.raises(BootstrapAbortError):
            run_test(data, *args, BootstrapConfig(replicates=19, seed=0), 0.05)
        _recording(monkeypatch, draws(settle_at=3, abort_at=2))
        with pytest.raises(BootstrapAbortError):
            _curtailed_reject(data, *args, 19, 0, 0.05)
        # Rejection side: with B = 199 (k = 9) and no draw at the statistic, the
        # decision is settled after 190 draws.
        drawn = _recording(monkeypatch, draws(settle_at=None, abort_at=190))
        assert _curtailed_reject(data, *args, 199, 0, 0.05)
        assert drawn == list(range(190))
        _recording(monkeypatch, draws(settle_at=None, abort_at=189))
        with pytest.raises(BootstrapAbortError):
            _curtailed_reject(data, *args, 199, 0, 0.05)

    def test_real_singular_replicates_before_and_after_the_stop(self):
        """A spiky column makes resamples without row 0 singular, twice over for some replicates."""
        x = np.arange(1.0, 7.0)
        spike = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        data = Dataset(np.column_stack([x, spike]), np.array([2.0, 1.0, 3.0, 2.5, 4.0, 3.5]))
        args = (DesignSpec.main_effects(2), KernelSpec(), KernelSpec())

        def outcome(call):
            try:
                return call()
            except BootstrapAbortError:
                return "abort"

        seen = []
        for seed in range(40):
            full = outcome(lambda: run_test(data, *args, BootstrapConfig(replicates=19, seed=seed), 0.05).reject)
            curtailed = outcome(lambda: _curtailed_reject(data, *args, 19, seed, 0.05))
            if full == "abort":
                assert curtailed in (False, "abort")
                seen.append(curtailed)
            else:
                assert curtailed == full
        assert False in seen and "abort" in seen

    def test_twice_singular_member_past_the_stop_in_the_same_block(self, monkeypatch):
        """The block that settles a trial also refits members after the stop; one of them
        singular on its draw and its redraw aborts run_test, but not the curtailed trial."""
        x = np.arange(1.0, 7.0)
        spike = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        data = Dataset(np.column_stack([x, spike]), np.array([2.0, 1.0, 3.0, 2.5, 4.0, 3.5]))
        args = (data, DesignSpec.main_effects(2), KernelSpec(), KernelSpec())
        prep = prepare_stat(*args)
        row0 = lambda seed, b, redraw: 0 in replicate_indices(seed, b, 6, redraw)[0]
        drawn = _recording(monkeypatch)
        found = 0
        for seed in range(60):
            config = BootstrapConfig(replicates=19, seed=seed)
            drawn.clear()
            try:
                decision = _curtailed_reject(*args, config.replicates, config.seed, 0.05)
            except BootstrapAbortError:
                continue
            stop = len(drawn)
            block = next(block for block in _blocks(prep, 19, 1) if stop - 1 in block)
            doomed = [b for b in block if b >= stop and not row0(seed, b, 0) and not row0(seed, b, 1)]
            if not doomed:
                continue
            assert decision is False and drawn == list(range(stop))
            with pytest.raises(BootstrapAbortError, match=f"replicate {doomed[0]}:"):
                run_test(*args, config, 0.05)
            found += 1
        assert found

    def test_run_test_still_draws_every_replicate(self, monkeypatch):
        """A null trial settles early, but run_test reports all B draws and their p-value."""
        drawn = _recording(monkeypatch)
        spec = ModelSpec("model1", n=50)
        data = draw_model(spec, substream(0, 0)).data
        args = (data, working_design(spec), *study_kernels(spec.dim))
        assert not _curtailed_reject(*args, 199, 3, 0.05)
        assert len(drawn) < 199
        drawn.clear()
        res = run_test(*args, BootstrapConfig(replicates=199, seed=3), 0.05)
        assert drawn == list(range(199))
        assert res.null_draws.shape == (199,)
        assert res.p_value == pvalue_from_draws(res.null_draws, res.statistic)


class TestPermutationBaseline:
    def test_identical_samples_give_smallest_pvalue(self):
        rng = np.random.default_rng(81)
        u = rng.normal(size=60)
        p = permutation_pvalue(u, u, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=99, seed=2))
        assert p == 1 / 100

    def test_independent_samples_give_large_pvalue(self):
        rng = np.random.default_rng(24)
        u = rng.normal(size=80)
        v = rng.normal(size=80)
        p = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=199, seed=2))
        assert p > 0.05

    def test_matches_allocating_reference(self):
        rng = np.random.default_rng(84)
        u = rng.normal(size=(30, 2))
        v = u[:, 0] + rng.normal(size=30)
        gram_u = gram_matrix(u, KernelSpec())
        gram_v = gram_matrix(v, KernelSpec())
        observed = hsic_vstat(gram_u, gram_v).value
        exceed = 0
        for b in range(49):
            perm = replicate_stream(6, b).permutation(30)
            exceed += hsic_vstat(gram_u, gram_v[np.ix_(perm, perm)]).value >= observed
        p = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=6))
        assert p == (1 + exceed) / 50

    def test_observed_is_bit_equal_to_hsic_vstat(self, monkeypatch):
        """The statistic the p-value compares against is ``hsic_vstat`` of the two Grams,
        bit for bit: the identity permutation's draw."""
        observed = []

        def recording(draws, statistic):
            observed.append(statistic)
            return pvalue_from_draws(draws, statistic)

        monkeypatch.setattr("hsicreg.bootstrap.pvalue_from_draws", recording)
        rng = np.random.default_rng(86)
        u, v = rng.normal(size=(40, 2)), rng.normal(size=40)
        permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=9, seed=7))
        gram_u = gram_matrix(u, KernelSpec())
        gram_v = gram_matrix(v, KernelSpec())
        assert observed == [hsic_vstat(gram_u, gram_v).value]

    def test_draws_match_permuted_gram_centered_afresh(self, monkeypatch):
        """Gathering the once-centered Gram equals centering each permuted Gram,
        up to rounding, and the p-value is the add-one count over those draws."""
        draws = []

        def recording(fn, items, workers):
            draws.extend(parallel_map(fn, items, workers))
            return draws

        monkeypatch.setattr("hsicreg.bootstrap.parallel_map", recording)
        rng = np.random.default_rng(87)
        u = rng.normal(size=(40, 2))
        v = u[:, 0] + rng.normal(size=40)
        p = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=30, seed=7))
        gram_u = gram_matrix(u, KernelSpec())
        gram_v = gram_matrix(v, KernelSpec())
        for b, got in enumerate(draws):
            perm = replicate_stream(7, b).permutation(40)
            assert got == pytest.approx(hsic_vstat(gram_u, gram_v[np.ix_(perm, perm)]).value, rel=1e-12), b
        assert len(draws) == 30
        assert p == pvalue_from_draws(draws, hsic_vstat(gram_u, gram_v).value)

    def test_peak_memory_is_two_grams_and_two_strips(self):
        """The baseline holds its two Grams; a draw gathers the permuted Gram in
        T x n strips, not into two more n x n buffers."""
        n = 2000
        rng = np.random.default_rng(88)
        u, v = rng.normal(size=(n, 2)), rng.normal(size=n)
        tracemalloc.start()
        try:
            permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=3, seed=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 8 * n * n, f"traced peak {peak / (8 * n * n):.3f} n x n arrays"

    def test_sample_size_mismatch(self, monkeypatch):
        """The lengths are compared before either Gram is built."""

        def refuse(*args):
            raise AssertionError("gram_matrix called")

        monkeypatch.setattr("hsicreg.bootstrap.gram_matrix", refuse)
        with pytest.raises(ValueError, match="sample sizes differ"):
            permutation_pvalue(np.zeros(5), np.zeros(6), KernelSpec(), KernelSpec(), BootstrapConfig(replicates=9))

    @pytest.mark.parametrize("replicate", [0, 63, 64, 2**32])
    def test_draws_are_substream_permutations(self, replicate):
        """A draw permutes by the stream at counter (0, replicate, 0, 1) under the seed's key,
        from the re-keyed generator."""
        rng = np.random.default_rng(89)
        gram_u = gram_matrix(rng.normal(size=(37, 2)), KernelSpec())
        gram_v = gram_matrix(rng.normal(size=37), KernelSpec())
        for seed in (0, 2**70):
            expected = reference_stream(seed, replicate).permutation(37)
            np.testing.assert_array_equal(replicate_stream(seed, replicate).permutation(37), expected)
            want = _tiled_stat(gram_v, expected, lambda rows, cols, out: gram_u[rows, cols]).value
            assert _perm_draw(gram_u, gram_v, seed, replicate) == want

    def test_worker_invariant(self):
        rng = np.random.default_rng(83)
        u = rng.normal(size=40)
        v = rng.normal(size=40)
        p1 = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=5, workers=1))
        p2 = permutation_pvalue(u, v, KernelSpec(), KernelSpec(), BootstrapConfig(replicates=49, seed=5, workers=2))
        assert p1 == p2


class TestContrast:
    SPEC = ModelSpec("linear1d", n=30, noise_sd=0.3)

    def test_shapes_and_determinism(self):
        r1 = null_distribution_contrast(self.SPEC, KernelSpec(), KernelSpec(), 30, seed=6)
        r2 = null_distribution_contrast(self.SPEC, KernelSpec(), KernelSpec(), 30, seed=6)
        assert r1.residual_stats.shape == (30,)
        np.testing.assert_array_equal(r1.residual_stats, r2.residual_stats)
        np.testing.assert_array_equal(r1.error_stats, r2.error_stats)
        assert 0.0 <= r1.ks_distance <= 1.0
        assert not r1.undersampled

    def test_same_arm_control_collapses_distance(self):
        res = null_distribution_contrast(
            self.SPEC, KernelSpec(), KernelSpec(), 30, seed=6, both_arms_use_errors=True
        )
        np.testing.assert_array_equal(res.residual_stats, res.error_stats)
        assert res.ks_distance == 0.0

    @pytest.mark.parametrize("knob, value", [("workers", 1.7), ("seed", 2.5), ("reps", 3.5), ("workers", True)])
    def test_non_integer_knob_is_named(self, knob, value):
        """No count or seed is truncated: 1.7 workers is an error, not one worker."""
        kwargs = {"reps": 30, "seed": 6, "workers": 1, knob: value}
        with pytest.raises(ValueError, match=f"^{knob} must be an integer, got {value!r}$"):
            null_distribution_contrast(self.SPEC, KernelSpec(), KernelSpec(), **kwargs)

    def test_undersampled_warning(self):
        with pytest.warns(UserWarning, match="replications per arm"):
            res = null_distribution_contrast(self.SPEC, KernelSpec(), KernelSpec(), 10, seed=6)
        assert res.undersampled

    def test_arms_match_oracle(self):
        """Replication r is the draw keyed (seed, r): the residual arm is the
        observed statistic on it, the error arm an ``hsic_sums`` recompute on
        the true errors over the response's sample sd."""
        spec = ModelSpec("model1", n=40, a=2.0, lam=10.0)
        kx, ke = KernelSpec(bandwidth=4.0), KernelSpec(bandwidth=1.5)
        res = null_distribution_contrast(spec, kx, ke, 30, seed=11)
        for r in (0, 13, 29):
            sim = draw_model(spec, substream(11, r))
            observed = prepare_stat(sim.data, working_design(spec), kx, ke).observed
            assert res.residual_stats[r] == observed.scaled, r
            X = sim.data.predictors
            K = gram_matrix((X - X.mean(axis=0)) / X.std(axis=0, ddof=1), kx)
            L = gram_matrix(sim.errors / sim.data.response.std(ddof=1), ke)
            assert res.error_stats[r] == pytest.approx(spec.n * hsic_sums(K, L).value, rel=1e-10), r

    def test_rejects_tiny_n_and_no_reps(self):
        with pytest.raises(ValueError, match="n must be >= 3"):
            null_distribution_contrast(ModelSpec("linear1d", n=2), KernelSpec(), KernelSpec(), 30)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            null_distribution_contrast(self.SPEC, KernelSpec(), KernelSpec(), 0)


#: |z| bound for a draws' mean against its closed form.  Seeds and sizes were
#: fixed before the first run; a draw that pairs the two index streams moves z
#: far past it.
NULL_MEAN_Z = 4.0
NULL_MEAN_DRAWS = 4000


def _null_mean_data(n):
    """X uniform in three dimensions, noise whose scale grows with x2."""
    rng = np.random.default_rng(n)
    X = rng.random((n, 3))
    return X, X @ np.array([1.0, -1.0, 0.5]) + (0.5 + 2.0 * X[:, 1]) * rng.standard_normal(n)


def _z(draws, mean):
    draws = np.asarray(draws)
    return (draws.mean() - mean) / (draws.std(ddof=1) / np.sqrt(draws.size))


class TestNullDrawMeans:
    """The mean of the null draws against closed forms that no package code computes.

    V = n^-2 tr(HK*H L*) is linear in each Gram, so its mean is V at the mean
    Grams.  A Gaussian Gram has a unit diagonal, so a Gram of n i.i.d. draws
    from a sample has mean (1 - m)I + m11', m the grand mean of the sample's
    Gram, and H11' = 0 leaves (1 - m)H of each centered mean.
    """

    @pytest.mark.parametrize("n", [60, 150])
    def test_intercept_only_bootstrap(self, n):
        """E*[n V*] = (n - 1)/n (1 - k)(1 - l), k and l the grand means of the predictor
        Gram and of the centered residuals' Gram.  Exact: with independent index
        streams the two Grams are independent, and the intercept-only refit only
        shifts e*, which the Gaussian kernel ignores."""
        X, y = _null_mean_data(n)
        kx, ke = KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=1.0)
        res = run_test(Dataset(X, y), DesignSpec((BasisTerm((), "1"),)), kx, ke,
                       BootstrapConfig(replicates=NULL_MEAN_DRAWS, seed=11), standardize=False)
        k = gram_matrix(X, kx).mean()
        l = gram_matrix(y - y.mean(), ke).mean()
        z = _z(res.null_draws, (n - 1) / n * (1 - k) * (1 - l))
        assert abs(z) < NULL_MEAN_Z, f"z = {z:.2f}"

    @pytest.mark.parametrize("n", [60, 150])
    def test_permutation_draws(self, n):
        """E_pi[n V] = n/(n - 1) (1 - u)(1 - v), u and v the grand means of the two Grams:
        a uniform permutation sends the off-diagonal entries of HVH, which sum to
        -tr(HVH) = -n(1 - v), to each off-diagonal place with equal weight."""
        X, y = _null_mean_data(n)
        gram_u = gram_matrix(X, KernelSpec(bandwidth=2.0))
        gram_v = gram_matrix(y, KernelSpec(bandwidth=1.0))
        mean = n / (n - 1) * (1 - gram_u.mean()) * (1 - gram_v.mean())
        draws = [n * _perm_draw(gram_u, gram_v, 11, b) for b in range(NULL_MEAN_DRAWS)]
        z = _z(draws, mean)
        assert abs(z) < NULL_MEAN_Z, f"z = {z:.2f}"


def _atom_ks(exact, draws):
    """KS distance between sorted draws and a sorted exact law whose values equal up to
    rounding are grouped into atoms; every draw must be one of the law's values."""
    tol = 1e-9 * exact[-1]
    nearest = exact[np.minimum(np.searchsorted(exact, draws - tol), exact.size - 1)]
    assert (np.abs(nearest - draws) <= tol).all(), "a draw the enumeration never gives"
    atoms = exact[np.append(np.diff(exact) > tol, True)] + tol
    return np.abs(np.searchsorted(exact, atoms, side="right") / exact.size
                  - np.searchsorted(draws, atoms, side="right") / draws.size).max()


def test_draws_follow_the_enumerated_bootstrap_law():
    """At n = 4 the bootstrap law, refit included, is enumerable: 4^4 predictor-row index
    vectors times 4^4 residual index vectors, 65,536 equally likely pairs.  The 1,024 with
    constant predictor rows are singular; a singular draw is redrawn from the same law, so
    a reported draw follows the law of the other 64,512.  The draws must match it in mean
    and within a DKW bound on the KS distance; a paired-streams bootstrap fails the latter."""
    n = 4
    prep = prepare_stat(Dataset(np.array([0.0, 1.0, 3.0, 7.0]), np.array([1.0, 0.5, 2.5, 1.0])),
                        DesignSpec.main_effects(1), *study_kernels(1))
    every = np.array(list(itertools.product(range(n), repeat=n)))
    exact = []
    for idx_x in every:
        # This predictor-row vector against every residual vector, in one stack.
        designs = np.broadcast_to(prep.design[idx_x], (len(every), *prep.design.shape))
        resid, singular = _refit_residuals(designs, prep.model.centered_residuals[every])
        exact += [_residual_stat(prep.gram_x, idx_x, e, prep.kernel_e.bandwidth).scaled for e in resid[~singular]]
    assert len(exact) == len(every) ** 2 - 1024
    exact = np.sort(exact)

    draws = []
    for b in range(4000):
        try:
            draws += _null_draws(prep, 25, range(b, b + 1))
        except BootstrapAbortError:  # a draw and its redraw both singular: probability 1/4096
            pass
    draws = np.sort(draws)
    z = (draws.mean() - exact.mean()) / (exact.std() / math.sqrt(draws.size))
    assert abs(z) < NULL_MEAN_Z, f"z = {z:.2f}"

    # Pairs that differ only in order give one value up to rounding: group them into atoms.
    ks = _atom_ks(exact, draws)
    # Dvoretzky-Kiefer-Wolfowitz: P(KS > eps) <= 2 exp(-2 N eps^2) = 1e-6.
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * draws.size))
    assert ks < eps, f"KS distance {ks:.4f} over the bound {eps:.4f}"


def test_permutation_draws_follow_the_enumerated_law():
    """At n = 6 the permutation law is enumerable: 720 equally likely permutations of the
    second Gram.  4000 draws must match its variance (Mantel's exact permutation variance,
    here by enumeration; z from the law's own fourth moment) and lie within a DKW bound of
    it on the KS distance.  Draws that all share one permutation fail both."""
    n = 6
    rng = np.random.default_rng(90)
    gram_u = gram_matrix(rng.normal(size=(n, 2)), KernelSpec())
    gram_v = gram_matrix(rng.normal(size=n), KernelSpec())
    exact = np.sort([hsic_sums(gram_u, gram_v[np.ix_(perm, perm)]).value
                     for perm in map(list, itertools.permutations(range(n)))])
    assert exact.size == 720
    draws = np.sort([_perm_draw(gram_u, gram_v, 13, b) for b in range(4000)])

    var = exact.var()
    se = math.sqrt((((exact - exact.mean()) ** 4).mean() - var**2) / draws.size)
    z = (draws.var(ddof=1) - var) / se
    assert abs(z) < NULL_MEAN_Z, f"variance z = {z:.2f}"

    ks = _atom_ks(exact, draws)
    # Dvoretzky-Kiefer-Wolfowitz: P(KS > eps) <= 2 exp(-2 N eps^2) = 1e-6.
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * draws.size))
    assert ks < eps, f"KS distance {ks:.4f} over the bound {eps:.4f}"


#: Median KS distance allowed between the null draws and the Monte Carlo H0 law of the
#: statistic, fixed before the test's first run.
LAW_KS = 0.35


@pytest.mark.parametrize("model", ["model1", "model2"])
def test_bootstrap_law_matches_the_monte_carlo_law(model):
    """Bootstrap consistency at the n where p-values are read: given the data, the law of
    the null draws approaches the H0 sampling law of n V.  At n = 100 the draws of eight
    H0 datasets (B = 1000) are compared with 1000 fresh H0 draws of the observed
    statistic; the median KS distance must stay under LAW_KS.  Neither a bootstrap that
    skips the refit nor one that pairs its two index streams does."""
    from scipy.stats import ks_2samp

    spec = ModelSpec(model, n=100)
    design, kernels = working_design(spec), study_kernels(spec.dim)
    mc = [prepare_stat(draw_model(spec, substream(11, r)).data, design, *kernels).observed.scaled
          for r in range(1000)]
    ks = [ks_2samp(run_test(draw_model(spec, substream(12, r)).data, design, *kernels,
                            BootstrapConfig(replicates=1000, seed=r)).null_draws, mc).statistic
          for r in range(8)]
    assert np.median(ks) < LAW_KS, f"KS distances {np.round(ks, 3)}"


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    with pytest.raises(ValueError):
        BootstrapConfig(workers=-1)
    with pytest.raises(ValueError):
        BootstrapConfig(seed=-3)


@pytest.mark.parametrize(
    "kwargs",
    [dict(replicates=19.7), dict(workers=1.5), dict(seed=2.9), dict(replicates=True), dict(seed=False),
     dict(workers=True), dict(replicates=20.0), dict(replicates="19")],
)
def test_bootstrap_config_rejects_non_integers(kwargs):
    """B must be one integer, so the stop rule and the p-value both divide by B + 1."""
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        BootstrapConfig(**kwargs)


def test_bootstrap_config_accepts_numpy_integers():
    config = BootstrapConfig(replicates=np.int64(19), seed=np.uint32(2), workers=np.int8(1))
    assert range(config.replicates) == range(19)
