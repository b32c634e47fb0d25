import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demon_battery.experiments as experiments
from demon_battery.engine import EngineConfig
from demon_battery.experiments import (BLOCK_SIZE, CHUNK_SIZE,
                                       HaarQubitSampler, SummaryStats,
                                       SweepSpec, _angles_from_uniforms,
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


class TestBlockStreaming:
    #: a weak coupling and a half-turn precession make almost every cycle
    #: swap the relaxed |+> and |->, so a block that starts from the wrong
    #: state changes every outcome after it
    SWAP = EngineConfig.default(g_tau=0.003, gamma_tau_se=0.0,
                                omega_s=math.pi, reset_mode="finite")
    FINITE = EngineConfig.default(reset_mode="finite", gamma_tau_se=1.0)

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("cfg", [SWAP, FINITE], ids=["swap", "finite"])
    def test_chained_blocks_reproduce_one_stream(self, cfg, n):
        blocks = list(experiments._chained_blocks(cfg, SEED, 2, n,
                                                  SWEEP_RESET_FIELDS))
        assert [len(b.outcome) for b in blocks] == \
            experiments._block_lengths(n)
        u = np.random.default_rng(
            np.random.SeedSequence([SEED, 2, 0])).random((n, 3))
        assert_same_stream(blocks, one_stream(cfg, u), SWEEP_RESET_FIELDS)

    def test_full_reset_blocks_keep_chunk_seeds(self):
        cfg = EngineConfig.default()
        n = B + CHUNK_SIZE + 5    # the last chunk is partial
        blocks = [experiments._iid_block(cfg, SEED, 1, b_idx, count,
                                         G_TAU_FIELDS)
                  for b_idx, count in
                  enumerate(experiments._block_lengths(n))]
        chunks = [np.random.default_rng(
            np.random.SeedSequence([SEED, 1, c])).random(
                (min(CHUNK_SIZE, n - lo), 3))
            for c, lo in enumerate(range(0, n, CHUNK_SIZE))]
        assert_same_stream(blocks, one_stream(cfg, np.concatenate(chunks)),
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
    blocks: no per-cycle array outlives its block."""

    @staticmethod
    def assert_flat(run):
        run(1)    # fills the caches first
        n = 2 * B
        assert traced_peak(lambda: run(4 * n)) <= 1.5 * traced_peak(
            lambda: run(n))

    def test_finite_reset_sweep(self):
        self.assert_flat(lambda n: run_sweep(
            SweepSpec("gamma_tau_se", (1.0,), n, EngineConfig.default(),
                      SEED), threads=1))

    def test_histogram(self):
        self.assert_flat(lambda n: run_histogram_experiment(
            EngineConfig.default(), n, SEED, threads=1))


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

    def test_detects_perturbed_oracle(self, monkeypatch):
        true_oracle = experiments.energetics_oracle

        def skewed(theta, g_tau, omega):
            o = true_oracle(theta, g_tau, omega)
            return type(o)(**{**o.__dict__, "w_processed": o.w_processed + 1e-6})

        monkeypatch.setattr(experiments, "energetics_oracle", skewed)
        report = verify_energetics(thetas=np.linspace(0, math.pi, 9),
                                   g_taus=(math.pi / 8,))
        assert not report.passed
        assert report.max_deviation > 5e-7
