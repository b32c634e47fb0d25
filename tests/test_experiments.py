import functools
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demon_battery.experiments as experiments
from demon_battery.engine import EngineConfig
from demon_battery.experiments import (BLOCK_SIZE, HaarQubitSampler,
                                       SummaryStats, SweepSpec,
                                       _angles_from_uniforms,
                                       run_histogram_experiment, run_sweep,
                                       verify_energetics)
from demon_battery.kernels import StreamResult, simulate_stream

SEED = 12345
B = BLOCK_SIZE


class TestHaarSampler:
    def test_moments(self):
        sampler = HaarQubitSampler.from_seed(61)
        n = 100_000
        cos_t = np.empty(n)
        w = np.empty(n)
        for i in range(n):
            psi = sampler.sample()
            cos_t[i] = math.cos(psi.theta)
            w[i] = math.sin(psi.theta / 2) ** 2
        # Var(cos theta) = 1/3 for the uniform marginal
        assert abs(cos_t.mean()) < 3 * math.sqrt(1.0 / 3.0 / n)
        assert abs(w.mean() - 0.5) < 3 * w.std(ddof=1) / math.sqrt(n)

    def test_determinism(self):
        a = HaarQubitSampler.from_seed(62)
        b = HaarQubitSampler.from_seed(62)
        for _ in range(50):
            pa, pb = a.sample(), b.sample()
            assert pa.theta == pb.theta and pa.phi == pb.phi


class TestSummaryStats:
    def test_histogram_covers_unit_interval_exactly(self):
        stats = SummaryStats.from_samples(np.array([0.0, 0.5, 1.0]), 1.0,
                                          bins=10)
        assert stats.bin_edges[0] == 0.0
        assert stats.bin_edges[-1] == 1.0
        assert stats.counts.sum() == 3

    def test_single_sample_convention(self):
        stats = SummaryStats.from_samples(np.array([0.7]), 1.0)
        assert stats.std_error == 0.0
        assert stats.n == 1

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(63)
        samples = rng.uniform(0, 1, 5000)
        stats = SummaryStats.from_samples(samples, 1.0)
        assert stats.counts.sum() == 5000

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SummaryStats.from_samples(np.array([]), 1.0)
        with pytest.raises(ValueError):
            SummaryStats.moments(np.array([]))

    def test_moments_keep_no_histogram(self):
        stats = SummaryStats.moments(np.array([0.2, 0.4]))
        assert stats.counts is None and stats.bin_edges is None
        assert stats.mean == pytest.approx(0.3)
        assert stats.std_error == pytest.approx(0.1)

    def test_merge_rejects_mismatched_histograms(self):
        x = np.array([0.1, 0.6])
        with pytest.raises(ValueError):
            SummaryStats.moments(x).merge(SummaryStats.from_samples(x, 1.0))
        with pytest.raises(ValueError):
            SummaryStats.from_samples(x, 1.0, bins=4).merge(
                SummaryStats.from_samples(x, 1.0, bins=5))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(samples=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=300),
           cuts=st.lists(st.integers(0, 300), max_size=8))
    def test_any_split_merges_to_the_whole(self, samples, cuts):
        x = np.array(samples)
        bounds = sorted({min(c, x.size) for c in cuts} | {0, x.size})
        parts = [SummaryStats.from_samples(x[lo:hi], 1.0, bins=7)
                 for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        merged = functools.reduce(SummaryStats.merge, parts)
        whole = SummaryStats.from_samples(x, 1.0, bins=7)
        assert merged.n == whole.n
        assert np.array_equal(merged.bin_edges, whole.bin_edges)
        assert np.array_equal(merged.counts, whole.counts)
        # the absolute floor covers means near 0 and near-constant samples
        assert math.isclose(merged.mean, whole.mean, rel_tol=1e-12,
                            abs_tol=1e-15)
        assert math.isclose(merged.std_error, whole.std_error,
                            rel_tol=1e-12, abs_tol=1e-15)

    @pytest.mark.parametrize("omega, bins", [
        (0.0, 4), (-1.0, 4), (math.inf, 4), (math.nan, 4), (5e-324, 7),
        (1.0, 0), (1.0, -3), (1.0, True), (1.0, 2.0)])
    def test_rejects_meaningless_range_or_bin_count(self, omega, bins):
        with pytest.raises(ValueError):
            SummaryStats.from_samples(np.array([0.1, 0.6]), omega, bins)

    def test_rejects_an_overflowing_m2(self):
        # a finite mean, but the squared deviations overflow
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="squared deviations"):
            SummaryStats.moments(np.array([0.0, 1.5e308]))

    def test_histogram_shares_read_only_edges(self):
        x = np.array([0.1, 0.6, 0.9])
        a = SummaryStats.from_samples(x, 0.7, bins=13)
        b = SummaryStats.from_samples(x[::-1], 0.7, bins=13)
        assert a.bin_edges is b.bin_edges
        assert np.array_equal(a.bin_edges, np.linspace(0.0, 0.7, 14))
        with pytest.raises(ValueError):
            a.bin_edges[3] = 0.5
        assert a.counts.dtype == np.histogram(x, a.bin_edges)[0].dtype

    @pytest.mark.parametrize("omega", [2 ** 64, np.float32(0.7)])
    def test_bins_over_omega_as_a_float(self, omega):
        # numpy took an int beyond int64 as an object and died on the
        # edges, and made float32 edges of a float32
        stats = SummaryStats.from_samples(np.array([0.1, 0.6]), omega, 4)
        assert stats.bin_edges.dtype == np.float64
        assert stats.bin_edges.tolist() \
            == np.linspace(0.0, float(omega), 5).tolist()

    def test_merge_compares_distinct_edges_by_value(self):
        x = np.array([0.1, 0.6])
        a = SummaryStats.from_samples(x, 1.0, bins=4)
        copy = replace(a, bin_edges=a.bin_edges.copy())
        assert np.array_equal(a.merge(copy).counts, 2 * a.counts)
        assert np.array_equal(copy.merge(a).counts, 2 * a.counts)
        # as many edges, other values
        with pytest.raises(ValueError, match="different bins"):
            a.merge(SummaryStats.from_samples(x, 2.0, bins=4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        # np.histogram dropped NaN silently, so the counts no longer
        # summed to n
        with pytest.raises(ValueError, match="finite"):
            SummaryStats.from_samples(np.array([0.1, bad, 0.6]), 1.0)


def reference_moments(x):
    """The mean and M2 as ndarray.mean and np.sum give them."""
    m = x.mean()
    return m, np.sum((x - m) * (x - m))


def _spread(size, seed=64):
    """Values of mixed sign and magnitude, so any change in how a sum is
    grouped shows in its last bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)


class TestMomentBits:
    """moments sums as ndarray.mean and np.sum do, bit for bit, at sizes
    around numpy's pairwise-summation blocks of 8 and 128 elements, its
    8192-element buffer and one experiments block."""

    @pytest.mark.parametrize("size", list(range(1, 21))
                             + [127, 128, 129, 8192, 8193, 16384, 16385])
    def test_contiguous(self, size):
        x = _spread(size)
        stats = SummaryStats.moments(x)
        assert (stats.mean, stats.m2) == reference_moments(x)

    @pytest.mark.parametrize("size", [9, 129, 16385])
    def test_strided_column(self, size):
        x = _spread(3 * size).reshape(size, 3)[:, 1]
        assert not x.flags.c_contiguous
        stats = SummaryStats.moments(x)
        assert (stats.mean, stats.m2) == reference_moments(x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_two_dimensional(self, order):
        x = np.asarray(_spread(300 * 7).reshape(300, 7), order=order)
        stats = SummaryStats.moments(x)
        assert stats.n == x.size
        assert (stats.mean, stats.m2) == reference_moments(x)
        hist = SummaryStats.from_samples(np.abs(x), 5.0, bins=9)
        assert (hist.mean, hist.m2) == reference_moments(np.abs(x))
        assert np.array_equal(hist.counts,
                              reference_counts(np.abs(x).ravel(), 5.0, 9))


def reference_counts(x, omega, bins):
    return np.histogram(np.clip(x, 0.0, omega),
                        bins=np.linspace(0.0, omega, bins + 1))[0]


@pytest.mark.parametrize("bins", [1, 3, 7, 40])
@pytest.mark.parametrize("omega", [1.0, 0.3, 7.5])
class TestBinning:
    """from_samples must count exactly as np.histogram of the clipped
    sample over the same edges, most of all at and next to an edge, and
    count what lies beyond [0, omega] in the outer bins."""

    def test_edges_and_their_neighbours(self, omega, bins):
        edges = np.linspace(0.0, omega, bins + 1)
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, omega, -1e-300, -2.0, omega + 1e-12, 3 * omega]])
        got = SummaryStats.from_samples(x, omega, bins).counts
        assert np.array_equal(got, reference_counts(x, omega, bins))

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(samples=st.lists(st.floats(-1.0, 9.0), min_size=1,
                            max_size=200))
    def test_drawn_samples(self, omega, bins, samples):
        x = np.array(samples)
        got = SummaryStats.from_samples(x, omega, bins).counts
        assert np.array_equal(got, reference_counts(x, omega, bins))


class TestPinnedIntegers:
    """Integer outputs at a fixed seed, recorded once and never derived
    from the code under test.  Unlike float means they do not move with
    SIMD width or summation order, so a change that flips one outcome or
    moves one sample across a bin edge fails here."""

    SEED = 2024

    def test_histogram_counts(self):
        # recorded once, not from experiments: the raw counts are
        # np.histogram of omega * u over the point's one stream, the
        # processed counts engine.run_trajectory's ergotropy_out with
        # HaarQubitSampler(rng) and outcomes from the same rng
        result = run_histogram_experiment(EngineConfig.default(), 100_000,
                                          self.SEED, threads=1)
        assert result.raw.counts.tolist() == [
            2476, 2501, 2411, 2541, 2504, 2461, 2494, 2510, 2506, 2413,
            2539, 2491, 2466, 2537, 2490, 2576, 2510, 2473, 2553, 2591,
            2492, 2545, 2504, 2521, 2472, 2520, 2475, 2586, 2529, 2495,
            2484, 2522, 2403, 2517, 2561, 2481, 2416, 2435, 2469, 2530]
        assert result.processed.counts.tolist() == [
            117, 129, 144, 164, 175, 209, 190, 182, 221, 256,
            240, 276, 303, 309, 374, 359, 441, 461, 520, 607,
            674, 739, 784, 886, 1052, 1178, 1433, 1606, 1853, 2180,
            2586, 3031, 3611, 4419, 5543, 6780, 8659, 11257, 15167, 20885]

    def test_chained_reset_sweep_outcomes(self):
        # the gamma tau = 1 point of the default reset sweep (index 2),
        # five blocks of one unbroken finite-reset trajectory
        cfg = EngineConfig.default(reset_mode="finite", gamma_tau_se=1.0)
        n = 4 * BLOCK_SIZE + 1000
        outcomes, previous = [], 0
        for block in enumerate(experiments._block_lengths(n)):
            u = experiments._block_uniforms(self.SEED, 2, *block)
            stream = experiments._simulate(cfg, u, SWEEP_RESET_FIELDS,
                                           previous)
            previous = int(stream.outcome[-1])
            outcomes.append(stream.outcome)
        outcomes = np.concatenate(outcomes)
        assert len(outcomes) == n and outcomes.dtype == np.int8
        assert hashlib.sha256(outcomes.tobytes()).hexdigest() == (
            "2ca70e2a09264fca6d2ac968b6df3c8fddd6cefdff364eb9bb7414e9b809a3ae")


#: the fields the sweeps summarize
SWEEP_RESET_FIELDS = [field for _, field in experiments._SWEEP_COLUMNS]
G_TAU_FIELDS = [field for _, field in experiments._G_TAU_COLUMNS]


def one_stream(cfg, u):
    thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
    return simulate_stream(thetas, phis, u[:, 2], cfg, psi11=u[:, 0])


def assert_same_stream(blocks, whole, fields):
    """The blocks carry the requested fields and the outcome, each equal
    to the whole stream's, and nothing else."""
    carried = set(fields) | {"outcome"}
    for field in StreamResult._fields:
        if field not in carried:
            assert all(getattr(b, field) is None for b in blocks), field
            continue
        got = np.concatenate([getattr(b, field) for b in blocks])
        assert np.array_equal(got, getattr(whole, field)), field


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records each pool's max_workers
    and runs each job inline as it is submitted, so no thread starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        future = Future()
        future.set_result(fn(job))
        return future


class TestExecute:
    """_ordered_map takes a pool only for more than one worker and more
    than one job, with at most one worker per CPU; threads=None means one
    worker per CPU.  Results come back in job order."""

    @staticmethod
    def _idents(jobs, threads):
        return list(experiments._ordered_map(
            lambda _: threading.get_ident(), range(jobs), threads))

    def test_one_thread_or_one_thunk_runs_inline(self, monkeypatch):
        main = threading.get_ident()
        assert self._idents(3, 1) == [main] * 3
        assert self._idents(1, 4) == [main]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert self._idents(3, None) == [main] * 3
        assert self._idents(3, 4) == [main] * 3

    def test_pool_runs_off_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        main = threading.get_ident()
        assert main not in self._idents(4, 2)
        assert main not in self._idents(4, None)

    @pytest.mark.parametrize("threads, cpus, size", [
        (None, 3, 3), (2, 8, 2), (3, 8, 3), (100000, 2, 2), (100000, 8, 8)])
    def test_workers_never_outnumber_cpus(self, monkeypatch, threads, cpus,
                                          size):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        jobs = range(6104)
        assert list(experiments._ordered_map(
            lambda j: -j, jobs, threads)) == [-j for j in jobs]
        assert RecordingPool.sizes == [size]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_jobs_ahead_of_the_caller_stay_bounded(self, monkeypatch, threads):
        """A slow caller holds at most two started jobs per worker that it
        has not yet taken, however many jobs there are."""
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: threads)
        started = []

        def job(j):
            started.append(j)
            return j

        ahead = []
        for taken, j in enumerate(experiments._ordered_map(job, range(40),
                                                           threads)):
            assert j == taken
            time.sleep(0.01)  # the pool may run ahead meanwhile
            ahead.append(len(started) - taken)
        assert sorted(started) == list(range(40))
        assert max(ahead) <= 2 * threads

    def test_a_failed_job_stops_the_jobs_past_the_window(self, monkeypatch):
        """Job 0 fails: its error reaches the caller, and no job beyond the
        first two per worker is submitted."""
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        started = []

        def job(j):
            started.append(j)
            if j == 0:
                raise RuntimeError("job 0 failed")
            return j

        with pytest.raises(RuntimeError, match="job 0 failed"):
            list(experiments._ordered_map(job, range(40), 2))
        assert sorted(started) == [0, 1, 2, 3]

    def test_completion_order_does_not_reach_the_totals(self, monkeypatch):
        """Block 0 waits until block 1 has finished, yet the totals equal
        the one-thread run's to the bit."""
        cfg = EngineConfig.default()
        n = 3 * B
        want = run_histogram_experiment(cfg, n, SEED, threads=1)
        block_uniforms = experiments._block_uniforms
        block_1_done = threading.Event()
        finished = []

        def reordered(*args):
            block = args[2]
            if block == 0:
                assert block_1_done.wait(timeout=10)
            u = block_uniforms(*args)
            finished.append(block)
            if block == 1:
                block_1_done.set()
            return u

        monkeypatch.setattr(experiments, "_block_uniforms", reordered)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        got = run_histogram_experiment(cfg, n, SEED, threads=2)
        assert finished.index(1) < finished.index(0)
        for a, b in ((got.raw, want.raw), (got.processed, want.processed)):
            assert (a.n, a.mean, a.m2) == (b.n, b.mean, b.m2)
            assert np.array_equal(a.counts, b.counts)


class TestBlockStreaming:
    """Point p's blocks, in either reset mode, chain into one kernel call
    over the rows of the one stream from SeedSequence([SEED, p, 0])."""

    #: a weak coupling and a half-turn precession make almost every cycle
    #: swap the relaxed |+> and |->, so a block that starts from the wrong
    #: state changes every outcome after it
    SWAP = EngineConfig.default(g_tau=0.003, gamma_tau_se=0.0,
                                omega_s=math.pi, reset_mode="finite")
    FINITE = EngineConfig.default(reset_mode="finite", gamma_tau_se=1.0)

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("cfg", [EngineConfig.default(), FINITE, SWAP],
                             ids=["full", "finite", "swap"])
    def test_blocks_reproduce_one_stream(self, monkeypatch, cfg, n):
        simulate = experiments._simulate
        blocks = []

        def recorded(*args):
            blocks.append(simulate(*args))
            return blocks[-1]

        monkeypatch.setattr(experiments, "_simulate", recorded)
        experiments._run_points([cfg, cfg], n, SEED, 1, G_TAU_FIELDS)
        lengths = experiments._block_lengths(n)
        assert [len(b.outcome) for b in blocks] == 2 * lengths
        k = len(lengths)
        for p in range(2):
            u = np.random.default_rng(
                np.random.SeedSequence([SEED, p, 0])).random((n, 3))
            assert_same_stream(blocks[p * k:(p + 1) * k], one_stream(cfg, u),
                               G_TAU_FIELDS)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryFlatInN:
    """The allocation peak at 4n stays within 1.5x of that at n = two
    blocks, or as many as a test asks: no per-cycle array or block
    summary outlives its block's merge."""

    @staticmethod
    def assert_flat(run, blocks=2):
        run(1)    # fills the caches first
        n = blocks * B
        assert traced_peak(lambda: run(4 * n)) <= 1.5 * traced_peak(
            lambda: run(n))

    def test_finite_reset_sweep(self):
        self.assert_flat(lambda n: run_sweep(
            SweepSpec("gamma_tau_se", (1.0,), n, EngineConfig.default(),
                      SEED), threads=1))

    def test_histogram(self):
        self.assert_flat(lambda n: run_histogram_experiment(
            EngineConfig.default(), n, SEED, threads=1))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fine_histogram_from_16_to_64_blocks(self, monkeypatch, threads):
        # at 2^16 bins a block's counts weigh about 1 MB: they must be
        # merged as they arrive, not kept until every block is done
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        self.assert_flat(lambda n: run_histogram_experiment(
            EngineConfig.default(), n, SEED, bins=2 ** 16, threads=threads),
            blocks=16)


class TestHistogramExperiment:
    def test_desk_scale_means(self):
        cfg = EngineConfig.default()
        result = run_histogram_experiment(cfg, 4000, SEED)
        target = 0.5 * (1 + math.sin(math.pi / 4))
        assert abs(result.processed.mean - target) \
            < 3 * result.processed.std_error
        assert abs(result.raw.mean - 0.5) < 3 * result.raw.std_error
        assert result.raw.counts.sum() == 4000
        assert result.processed.counts.sum() == 4000

    def test_single_sample(self):
        result = run_histogram_experiment(EngineConfig.default(), 1, SEED)
        assert result.raw.n == 1
        assert result.raw.std_error == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            run_histogram_experiment(EngineConfig.default(), 0, SEED)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_histogram_experiment(EngineConfig.default(), 10, SEED,
                                     threads=threads)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_rejects_fewer_than_one_bin(self, bins):
        with pytest.raises(ValueError, match="bins"):
            run_histogram_experiment(EngineConfig.default(), 10, SEED,
                                     bins=bins)

    @pytest.mark.parametrize("count", [True, 2.0, 10.5])
    def test_rejects_non_int_counts(self, count):
        # bool is an int, but not a count
        with pytest.raises(ValueError, match="n must be an integer"):
            run_histogram_experiment(EngineConfig.default(), count, SEED)
        with pytest.raises(ValueError, match="bins must be an integer"):
            run_histogram_experiment(EngineConfig.default(), 10, SEED,
                                     bins=count)


class TestRunSweep:
    def test_g_sweep_columns_and_monotonicity(self):
        spec = SweepSpec("g_tau", experiments.DEFAULT_G_TAU_GRID, 4000,
                         EngineConfig.default(), SEED)
        rows = run_sweep(spec)
        assert len(rows) == 5
        expected_cols = {"g_tau", "raw_mean", "raw_std_error",
                         "processed_mean", "processed_std_error",
                         "engine_pulse_always_mean",
                         "engine_pulse_always_std_error",
                         "engine_no_pulse_mean", "engine_no_pulse_std_error",
                         "engine_dephased_mean", "engine_dephased_std_error"}
        assert set(rows[0]) == expected_cols
        means = [r["processed_mean"] for r in rows]
        assert all(b > a for a, b in zip(means, means[1:]))
        for row in rows:
            target = 0.5 * (1 + math.sin(2 * row["g_tau"]))
            tol = 3 * row["processed_std_error"] + 1e-9
            assert abs(row["processed_mean"] - target) < tol

    def test_dephased_engine_curve_degrades(self):
        # processing without reading the record loses the coherent part
        spec = SweepSpec("g_tau", (0.0, math.pi / 8, math.pi / 4), 4000,
                         EngineConfig.default(), SEED)
        rows = run_sweep(spec)
        deph = [r["engine_dephased_mean"] for r in rows]
        assert deph[0] > deph[1] > deph[2]
        assert abs(deph[0] - 0.5) < 0.03  # no interaction: nothing lost

    def test_reset_sweep_columns(self):
        spec = SweepSpec("gamma_tau_se", (0.0, 1.0, 8.0), 3000,
                         EngineConfig.default(), SEED)
        rows = run_sweep(spec)
        assert len(rows) == 3
        assert set(rows[0]) == {"gamma_tau_se", "raw_mean", "raw_std_error",
                                "processed_mean", "processed_std_error"}
        assert rows[-1]["processed_mean"] > rows[0]["processed_mean"]

    def test_thread_count_does_not_change_results(self):
        spec = SweepSpec("g_tau", experiments.DEFAULT_G_TAU_GRID, 3000,
                         EngineConfig.default(), SEED)
        rows_1 = run_sweep(spec, threads=1)
        rows_4 = run_sweep(spec, threads=4)
        for a, b in zip(rows_1, rows_4):
            assert a == b

    def test_spec_validation(self):
        cfg = EngineConfig.default()
        with pytest.raises(ValueError):
            SweepSpec("coupling", (0.1,), 10, cfg, SEED)
        with pytest.raises(ValueError):
            SweepSpec("g_tau", (), 10, cfg, SEED)
        with pytest.raises(ValueError):
            SweepSpec("g_tau", (0.2, 0.1), 10, cfg, SEED)
        with pytest.raises(ValueError):
            SweepSpec("g_tau", (0.1, 0.2), 0, cfg, SEED)

    @pytest.mark.parametrize("n_samples", [True, 2.0, 10.5])
    def test_rejects_non_int_sample_count(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            SweepSpec("g_tau", (0.1, 0.2), n_samples, EngineConfig.default(),
                      SEED)

    def test_reset_sweep_takes_zero_reset_time(self):
        # tau_se fixes only the phase omega_s*tau_se; nothing divides by it
        base = replace(EngineConfig.default(), gamma_tau_se=1.0, tau_se=0.0)
        for variable in ("gamma_tau_se", "g_tau"):
            rows = run_sweep(SweepSpec(variable, (0.0, 1.0), 10, base, SEED))
            assert [row[variable] for row in rows] == [0.0, 1.0]

    def test_rows_name_the_float_each_point_ran_at(self):
        # a float32 or int grid value is read as its float, and the row
        # names that float, not the value as given
        grid = (np.float32(0.1), np.float32(0.2))
        spec = SweepSpec("g_tau", grid, 4, EngineConfig.default(), 7)
        rows = run_sweep(spec)
        assert [p.g_tau for p in spec.points()] \
            == [row["g_tau"] for row in rows] == [0.10000000149011612,
                                                  0.20000000298023224]
        rows = run_sweep(SweepSpec("gamma_tau_se", (0, 1), 4,
                                   EngineConfig.default(), 7))
        assert [row["gamma_tau_se"] for row in rows] == [0.0, 1.0]
        assert {type(row[v]) for row in rows for v in row} == {float}

    def test_reset_points_keep_the_grid_values(self):
        # at tau_se = 4.55 a rate v / tau_se times tau_se misses v by an
        # ulp for many grid values
        grid = tuple(float(v) for v in np.linspace(0.0, 8.0, 81))
        spec = SweepSpec("gamma_tau_se", grid, 10,
                         EngineConfig.default(tau_se=4.55), SEED)
        points = spec.points()
        assert [p.gamma_tau_se for p in points] == list(grid)
        assert {(p.tau_se, p.reset_mode) for p in points} \
            == {(4.55, "finite")}

    @pytest.mark.parametrize("variable", ["g_tau", "gamma_tau_se"])
    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_fewer_than_one_thread(self, variable, threads):
        spec = SweepSpec(variable, (0.1, 0.2), 10, EngineConfig.default(),
                         SEED)
        with pytest.raises(ValueError, match="threads"):
            run_sweep(spec, threads=threads)


class TestVerifyEnergetics:
    def test_default_grid_passes(self):
        report = verify_energetics()
        assert report.passed
        assert report.max_deviation <= 1e-10
        assert report.n_points == 181 * 5
        # only the two poles at sin(2 g tau) = 1 lose a branch
        assert report.skipped_branches == 2
        assert set(report.field_deviations) == {
            "p_plus", "e_a_plus", "e_a_minus", "w_plus", "w_avg", "w_x_plus",
            "w_x_minus", "w_tilde_plus", "w_processed"}

    def test_float32_omega_is_read_as_a_float(self):
        # the closed forms ran in float32 and missed by 1.2e-7, and the
        # range check warned of an overflow casting the largest float
        report = verify_energetics(np.float32(2.0))
        assert report.passed
        assert report == verify_energetics(2.0)

    def test_detects_perturbed_oracle(self, monkeypatch):
        true_oracle = experiments.energetics_oracle

        def skewed(theta, g_tau, omega):
            o = true_oracle(theta, g_tau, omega)
            return type(o)(**{**o.__dict__, "w_processed": o.w_processed + 1e-6})

        monkeypatch.setattr(experiments, "energetics_oracle", skewed)
        report = verify_energetics()
        assert not report.passed
        assert report.max_deviation > 5e-7

    def test_deviation_at_the_tolerance_passes(self, monkeypatch):
        at = verify_energetics().max_deviation
        monkeypatch.setattr(experiments, "VERIFY_TOLERANCE", at)
        assert verify_energetics().passed
        monkeypatch.setattr(experiments, "VERIFY_TOLERANCE",
                            np.nextafter(at, -1.0))
        assert not verify_energetics().passed

    @pytest.mark.parametrize("omega", [1e-8, 1e3, 1e7])
    def test_passes_at_any_scale_of_omega(self, omega):
        # the energy fields' roundoff scales with omega (w_x_minus's is
        # about 1.26e-12 omega), so the deviation is read in units of it
        report = verify_energetics(omega=omega)
        assert report.passed
        assert report.max_deviation <= 1e-10
        assert report.field_deviations["w_x_minus"] > 1e-13

    @pytest.mark.parametrize("omega", [1e-8, 1e7])
    @pytest.mark.parametrize("field", ["p_plus", "w_x_minus"])
    def test_deviation_measured_in_units_of_omega(self, monkeypatch, omega,
                                                   field):
        # an energy field off by 1e-9 omega fails at every omega; p_plus
        # is a probability, so its skew is absolute
        true_oracle = experiments.energetics_oracle
        skew = 1e-9 if field == "p_plus" else 1e-9 * omega

        def skewed(theta, g_tau, omega):
            o = true_oracle(theta, g_tau, omega)
            return type(o)(**{**o.__dict__, field: getattr(o, field) + skew})

        monkeypatch.setattr(experiments, "energetics_oracle", skewed)
        report = verify_energetics(omega=omega)
        assert not report.passed
        assert report.field_deviations[field] == pytest.approx(1e-9,
                                                               rel=1e-2)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_nonpositive_or_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be"):
            verify_energetics(omega=omega)

    def test_omega_range_ends_at_the_least_normal_float(self):
        # below it the energies lose their relative precision: at 1e-310
        # the deviation read 1.29e-10 in units of omega
        assert verify_energetics(omega=sys.float_info.min).passed
        for omega in (math.nextafter(sys.float_info.min, 0.0), 1e-310,
                      5e-324):
            with pytest.raises(ValueError, match="omega must be a number in"):
                verify_energetics(omega=omega)

    @pytest.mark.parametrize("field", ["p_plus", "w_x_minus"])
    def test_nan_from_oracle_fails(self, monkeypatch, field):
        true_oracle = experiments.energetics_oracle
        calls = iter(range(10 ** 6))

        def nan_once(theta, g_tau, omega):
            o = true_oracle(theta, g_tau, omega)
            # one NaN point among finite ones: a fold that drops it passes
            if next(calls) == 3:
                o = type(o)(**{**o.__dict__, field: math.nan})
            return o

        monkeypatch.setattr(experiments, "energetics_oracle", nan_once)
        report = verify_energetics()
        assert not report.passed
        assert math.isnan(report.max_deviation)
        assert math.isnan(report.field_deviations[field])
        assert not any(math.isnan(d) for name, d
                       in report.field_deviations.items() if name != field)
