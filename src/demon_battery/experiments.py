"""Monte Carlo experiments: Haar sampling, histogram and sweep runs, and
the exhaustive closed-form verification.

Reproducibility contract: every sample chunk derives its generator from
SeedSequence([master_seed, point_index, chunk_index]) and chunk boundaries
are fixed constants, so results are bit-identical for any thread count.
Per cycle the stream consumes three uniforms in a fixed order:
(cos-theta, phi, outcome).

Finite-reset points run as one chained trajectory; full-reset points are
split into independent chunks (cycles are i.i.d. there).  Aggregation is
an order-independent reduction over chunks taken in index order.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channels import (CollisionParams, ResetParams, apply_pulse, collide,
                       measure, sigma_x_measurement)
from .engine import EngineConfig, energetics_oracle
from .kernels import StreamResult, simulate_stream
from .qmath import SIGMA_X
from .states import PureQubit, QubitHamiltonian, ergotropy, ground_state, to_density

#: fixed chunk length for full-reset streams (thread-count independent)
CHUNK_SIZE = 4096

DEFAULT_G_TAU_GRID = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16,
                      math.pi / 4)
DEFAULT_GAMMA_TAU_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


def _angles_from_uniforms(u_cos: np.ndarray, u_phi: np.ndarray):
    """Haar-uniform Bloch angles from two [0,1) uniforms:
    cos(theta) = 1 - 2u uniform on [-1, 1], phi uniform on [0, 2*pi)."""
    thetas = np.arccos(1.0 - 2.0 * u_cos)
    phis = 2.0 * math.pi * u_phi
    return thetas, phis


class HaarQubitSampler:
    """Haar-uniform pure qubit states from a deterministic stream.

    Draws two uniforms per sample in the fixed order (cos-theta, phi),
    matching the batched kernel path draw-for-draw.
    """

    def __init__(self, rng):
        self._rng = rng

    @classmethod
    def from_seed(cls, seed) -> "HaarQubitSampler":
        return cls(np.random.default_rng(seed))

    def sample(self) -> PureQubit:
        u_cos = self._rng.random()
        u_phi = self._rng.random()
        return PureQubit(math.acos(1.0 - 2.0 * u_cos),
                         2.0 * math.pi * u_phi)


def sample_haar(sampler: HaarQubitSampler) -> PureQubit:
    """Draw one Haar-uniform pure qubit state."""
    return sampler.sample()


@dataclass(frozen=True)
class SummaryStats:
    """Mean, standard error and a histogram over [0, omega]."""

    mean: float
    std_error: float
    bin_edges: np.ndarray
    counts: np.ndarray
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, omega: float,
                     bins: int = 40) -> "SummaryStats":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 1:
            raise ValueError("need at least one sample")
        mean = float(samples.mean())
        # single-sample convention: report zero error rather than NaN
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        edges = np.linspace(0.0, omega, bins + 1)
        counts, _ = np.histogram(np.clip(samples, 0.0, omega), bins=edges)
        return cls(mean=mean, std_error=se, bin_edges=edges, counts=counts,
                   n=n)


@dataclass(frozen=True)
class HistogramResult:
    raw: SummaryStats
    processed: SummaryStats


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which knob varies, over which grid, at what sample count.

    ``base`` supplies every non-swept parameter; g_tau sweeps run in the
    base's reset mode (full in the shipped preset), gamma_tau_se sweeps
    force finite reset per point.
    """

    variable: str
    grid: Tuple[float, ...]
    n_samples: int
    base: EngineConfig
    master_seed: int

    def __post_init__(self):
        if self.variable not in ("g_tau", "gamma_tau_se"):
            raise ValueError("variable must be 'g_tau' or 'gamma_tau_se'")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(not math.isfinite(v) for v in self.grid):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _chunk_bounds(n: int, chained: bool) -> List[Tuple[int, int]]:
    if chained:
        return [(0, n)]  # one unbroken trajectory
    return [(i, min(i + CHUNK_SIZE, n)) for i in range(0, n, CHUNK_SIZE)]


def _stream_chunk(cfg: EngineConfig, master_seed: int, point_index: int,
                  chunk_index: int, count: int) -> StreamResult:
    seq = np.random.SeedSequence([master_seed, point_index, chunk_index])
    u = np.random.default_rng(seq).random((count, 3))
    thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
    return simulate_stream(thetas, phis, u[:, 2], cfg)


def _execute(jobs, threads: Optional[int]):
    """Run (key, thunk) jobs, possibly on a thread pool.  Results are
    keyed, never ordered by completion, so scheduling cannot leak into
    output."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(jobs) <= 1:
        return {key: thunk() for key, thunk in jobs}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(key, pool.submit(thunk)) for key, thunk in jobs]
        return {key: fut.result() for key, fut in futures}


def _run_point_streams(point_cfgs: Sequence[EngineConfig], n: int,
                       master_seed: int,
                       threads: Optional[int]) -> List[StreamResult]:
    jobs = []
    layout = []
    for p_idx, cfg in enumerate(point_cfgs):
        bounds = _chunk_bounds(n, chained=(cfg.reset_mode == "finite"))
        layout.append(len(bounds))
        for c_idx, (start, stop) in enumerate(bounds):
            jobs.append((
                (p_idx, c_idx),
                (lambda cfg=cfg, c_idx=c_idx, cnt=stop - start, p_idx=p_idx:
                 _stream_chunk(cfg, master_seed, p_idx, c_idx, cnt)),
            ))
    done = _execute(jobs, threads)
    results = []
    for p_idx, n_chunks in enumerate(layout):
        parts = [done[(p_idx, c)] for c in range(n_chunks)]
        results.append(StreamResult(*[
            np.concatenate([getattr(p, f) for p in parts])
            for f in StreamResult._fields
        ]))
    return results


def run_histogram_experiment(cfg: EngineConfig, n: int, seed: int,
                             bins: int = 40,
                             threads: Optional[int] = None) -> HistogramResult:
    """Raw vs processed ergotropy distributions over n sampled ancillas."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = _run_point_streams([cfg], n, seed, threads)[0]
    return HistogramResult(
        raw=SummaryStats.from_samples(stream.w_raw, cfg.omega, bins),
        processed=SummaryStats.from_samples(stream.w_out, cfg.omega, bins),
    )


def _mean_se(samples: np.ndarray) -> Tuple[float, float]:
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(samples.mean()), se


def run_sweep(spec: SweepSpec, threads: Optional[int] = None) -> List[dict]:
    """One row of summary statistics per grid point.

    g_tau sweeps add the unconditional-processing columns: pulse applied
    at the sampled outcome regardless of its value (engine_pulse_always),
    never applied (engine_no_pulse), and applied to the outcome-averaged
    dephased state (engine_dephased, the record-free reading).
    """
    point_cfgs = []
    for v in spec.grid:
        if spec.variable == "g_tau":
            point_cfgs.append(replace(
                spec.base, collision=CollisionParams(g=v, tau_sa=1.0)))
        else:
            base_reset = spec.base.reset
            point_cfgs.append(replace(
                spec.base,
                reset=ResetParams(gamma=v / base_reset.tau_se,
                                  tau_se=base_reset.tau_se,
                                  omega_s=base_reset.omega_s),
                reset_mode="finite"))
    streams = _run_point_streams(point_cfgs, spec.n_samples,
                                 spec.master_seed, threads)
    rows = []
    for v, stream in zip(spec.grid, streams):
        raw_mean, raw_se = _mean_se(stream.w_raw)
        proc_mean, proc_se = _mean_se(stream.w_out)
        row = {
            spec.variable: v,
            "raw_mean": raw_mean,
            "raw_std_error": raw_se,
            "processed_mean": proc_mean,
            "processed_std_error": proc_se,
        }
        if spec.variable == "g_tau":
            for name, samples in (("engine_pulse_always", stream.w_flip),
                                  ("engine_no_pulse", stream.w_keep),
                                  ("engine_dephased", stream.w_dephased)):
                m, se = _mean_se(samples)
                row[f"{name}_mean"] = m
                row[f"{name}_std_error"] = se
        rows.append(row)
    return rows


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the closed-form vs channel-level comparison."""

    max_deviation: float
    field_deviations: dict
    passed: bool
    n_points: int
    skipped_branches: int
    theta_count: int
    g_taus: Tuple[float, ...]
    phi: float
    tolerance: float


def verify_energetics(thetas: Optional[np.ndarray] = None,
                      g_taus: Optional[Sequence[float]] = None,
                      phi: float = 0.7, omega: float = 1.0,
                      tolerance: float = 1e-10) -> VerifyReport:
    """Exhaustively compare the channel-level cycle against the closed
    forms on a theta x g_tau grid (full-reset regime).

    Conditional fields of a branch whose probability vanishes (possible
    only at sin(2 g tau) = 1 with theta at a pole) are 0/0 in the closed
    forms and are skipped; the outcome-averaged fields stay regular and
    are always checked.
    """
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, 181)
    if g_taus is None:
        g_taus = DEFAULT_G_TAU_GRID
    h_a = QubitHamiltonian(omega)
    meas = sigma_x_measurement()
    rho_s = ground_state()
    devs = {name: 0.0 for name in (
        "p_plus", "e_a_plus", "e_a_minus", "w_plus", "w_avg", "w_x_plus",
        "w_x_minus", "w_tilde_plus", "w_processed")}
    skipped = 0
    n_points = 0
    for g_tau in g_taus:
        params = CollisionParams(g=g_tau, tau_sa=1.0)
        for theta in thetas:
            n_points += 1
            oracle = energetics_oracle(theta, g_tau, omega)
            joint = collide(rho_s, to_density(PureQubit(theta, phi)), params)
            plus, minus = measure(joint, meas)
            devs["p_plus"] = max(devs["p_plus"],
                                 abs(plus.probability - oracle.p_plus))
            w_processed_bf = 0.0
            if plus.degenerate:
                skipped += 1
            else:
                anc = plus.ancilla
                e_plus = float(np.trace(anc.mat @ h_a.matrix).real)
                w_plus_state = ergotropy(anc, h_a)
                flipped = apply_pulse(anc, SIGMA_X)
                w_tilde = ergotropy(flipped, h_a)
                net_work = float(np.trace(flipped.mat @ h_a.matrix).real) - e_plus
                devs["e_a_plus"] = max(devs["e_a_plus"],
                                       abs(e_plus - oracle.e_a_plus))
                devs["w_x_plus"] = max(devs["w_x_plus"],
                                       abs(w_plus_state - oracle.w_x_plus))
                devs["w_tilde_plus"] = max(devs["w_tilde_plus"],
                                           abs(w_tilde - oracle.w_tilde_plus))
                devs["w_plus"] = max(devs["w_plus"],
                                     abs(net_work - oracle.w_plus))
                devs["w_avg"] = max(devs["w_avg"],
                                    abs(plus.probability * net_work
                                        - oracle.w_avg))
                w_processed_bf += plus.probability * w_tilde
            if minus.degenerate:
                skipped += 1
            else:
                anc = minus.ancilla
                e_minus = float(np.trace(anc.mat @ h_a.matrix).real)
                w_minus_state = ergotropy(anc, h_a)
                devs["e_a_minus"] = max(devs["e_a_minus"],
                                        abs(e_minus - oracle.e_a_minus))
                devs["w_x_minus"] = max(devs["w_x_minus"],
                                        abs(w_minus_state - oracle.w_x_minus))
                w_processed_bf += minus.probability * w_minus_state
            if plus.degenerate:
                # the vanishing branch contributes exactly zero weight
                devs["w_avg"] = max(devs["w_avg"], abs(oracle.w_avg))
            devs["w_processed"] = max(devs["w_processed"],
                                      abs(w_processed_bf - oracle.w_processed))
    max_dev = max(devs.values())
    return VerifyReport(
        max_deviation=max_dev,
        field_deviations=devs,
        passed=bool(max_dev <= tolerance),
        n_points=n_points,
        skipped_branches=skipped,
        theta_count=len(thetas),
        g_taus=tuple(float(g) for g in g_taus),
        phi=phi,
        tolerance=tolerance,
    )
