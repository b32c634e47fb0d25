"""Monte Carlo experiments: Haar sampling, histogram and sweep runs, and
the exhaustive closed-form verification.

Reproducibility contract: per cycle a stream consumes three uniforms in
the fixed order (cos-theta, phi, outcome).  The cos-theta uniform u is
the ancilla's excited population sin^2(theta/2) exactly, and goes to the
kernel as such; phi affects no output.  Point p's cycles are the rows of
the one stream from SeedSequence([master_seed, p, 0]), in either reset
mode.  A point runs as consecutive blocks of BLOCK_SIZE cycles; block b
advances the point's generator past the 3 * BLOCK_SIZE * b uniforms of
the blocks before it, starts from the outcome the block before ended on,
and is reduced at once to mergeable summaries (count, mean, M2 and, for
histograms, bin counts), so no per-cycle array outlives its block and
memory stays flat in n.  A full-reset block is one job, as the kernel
ignores the outcome before it; a finite-reset point is one chained
trajectory, its blocks run in order in one job.

Jobs run through one ordered map: inline for one worker or one job,
else on a pool of at most one worker per CPU.  Results come back in
(point, block) index order whichever thread made them, and each folds
into its point's running total as it arrives, so results are
bit-identical for any thread count and no block's bin counts outlive
their merge.
"""

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _checks
from .channels import apply_pulse, collide, measure
from .engine import EnergeticsClosedForm, EngineConfig, energetics_oracle
from .kernels import StreamResult, simulate_stream
from .states import (PureQubit, ergotropy, ground_state, qubit_energy,
                     to_density)

#: cycles per block, the unit of work and of memory
BLOCK_SIZE = 16384

DEFAULT_G_TAU_GRID = (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16,
                      math.pi / 4)
DEFAULT_GAMMA_TAU_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
#: azimuth of every verified ancilla: the energetics do not depend on it
VERIFY_PHI = 0.7
#: largest deviation from the closed forms that verification accepts
VERIFY_TOLERANCE = 1e-10


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


@functools.lru_cache(maxsize=4)
def _bin_edges(omega: float, bins: int) -> np.ndarray:
    """The bins + 1 equal-width edges over [0, omega], computed once per
    run and shared by every block summary, so read-only.  The cache is
    small because 2^20 bins make an 8 MB array."""
    edges = np.linspace(0.0, omega, bins + 1)
    edges.setflags(write=False)
    return edges


@dataclass(frozen=True)
class SummaryStats:
    """Count, mean and M2 (the sum of squared deviations from the mean) of
    a sample, plus its histogram over [0, omega] where one is kept.

    The summaries of two disjoint samples merge into that of their union,
    so a stream is reduced block by block.
    """

    n: int
    mean: float
    m2: float
    bin_edges: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    @property
    def std_error(self) -> float:
        # single-sample convention: report zero error rather than NaN
        if self.n < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)

    @classmethod
    def moments(cls, samples: np.ndarray) -> "SummaryStats":
        """Count, mean and M2 of a sample, with no histogram.  Raises
        ValueError for an empty sample, or one holding a NaN or an
        infinity, which its mean shows, and for an M2 that overflows.

        The sums are the reduction ndarray.mean and np.sum call, on the
        array as given, so the bits are theirs without their Python
        wrappers: pairwise summation depends on the memory layout."""
        samples = np.asarray(samples, dtype=float)
        if samples.size < 1:
            raise ValueError("need at least one sample")
        mean = np.add.reduce(samples, axis=None) / samples.size
        if not math.isfinite(mean):
            raise ValueError("samples must be finite")
        dev = samples - mean
        dev *= dev
        m2 = np.add.reduce(dev, axis=None)
        if not math.isfinite(m2):
            raise ValueError("the sum of squared deviations overflows")
        return cls(n=samples.size, mean=float(mean), m2=float(m2))

    @classmethod
    def from_samples(cls, samples: np.ndarray, omega: float,
                     bins: int = 40) -> "SummaryStats":
        """Moments plus the histogram of the sample clipped to [0, omega]
        over ``bins`` equal bins: bin i holds edges[i] <= x < edges[i+1],
        the last bin also x = omega, as np.histogram counts.  Raises
        ValueError unless bins is an int >= 1 and omega is finite with a
        bin width omega / bins no smaller than the least normal float,
        and, as moments does, for a sample that is empty or not finite.

        The counts come from the sorted-edge search np.histogram runs:
        edges[-1] is omega itself, so every clipped sample lies at or
        below it and the inclusive top position is the sample size."""
        omega = _checks.bin_width(omega, bins)
        samples = np.asarray(samples, dtype=float)
        stats = cls.moments(samples)
        edges = _bin_edges(omega, bins)
        x = samples.ravel().clip(0.0, omega)
        x.sort()
        cum = x.searchsorted(edges)
        cum[-1] = x.size
        return cls(stats.n, stats.mean, stats.m2, edges, cum[1:] - cum[:-1])

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Summary of the union of two disjoint samples: the pairwise mean
        and M2 update of Chan, Golub & LeVeque (1983); bin counts add."""
        if self.bin_edges is not other.bin_edges \
                and not np.array_equal(self.bin_edges, other.bin_edges):
            raise ValueError("summaries over different bins do not merge")
        n = self.n + other.n
        delta = other.mean - self.mean
        return SummaryStats(
            n=n,
            mean=self.mean + delta * (other.n / n),
            m2=self.m2 + other.m2 + delta * delta * (self.n * other.n / n),
            bin_edges=self.bin_edges,
            counts=None if self.counts is None else self.counts + other.counts,
        )


@dataclass(frozen=True)
class HistogramResult:
    """Summaries of the raw and processed ergotropy over one run."""

    raw: SummaryStats
    processed: SummaryStats


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which knob varies, over which grid, at what sample count.

    ``base`` supplies every non-swept parameter; g_tau sweeps run in the
    base's reset mode (full in the shipped preset), gamma_tau_se sweeps
    force finite reset per point and set the reset's gamma_tau_se to
    each grid value.  The grid is kept as its checked floats, the values
    the points run at, and every point is built, so validated, up front.
    """

    variable: str
    grid: Tuple[float, ...]
    n_samples: int
    base: EngineConfig
    master_seed: int

    def __post_init__(self):
        if self.variable not in ("g_tau", "gamma_tau_se"):
            raise ValueError("variable must be 'g_tau' or 'gamma_tau_se', "
                             f"got {self.variable!r}")
        name = f"{self.variable}_grid"
        if len(self.grid) == 0:
            raise ValueError(f"{name} must be nonempty, got {self.grid!r}")
        check = _checks.coupling if self.variable == "g_tau" \
            else _checks.nonnegative_finite
        object.__setattr__(self, "grid", tuple(
            check(f"{name}[{i}]", v) for i, v in enumerate(self.grid)))
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"{name} must be strictly increasing, "
                             f"got {self.grid!r}")
        object.__setattr__(self, "n_samples",
                           _checks.count("n_samples", self.n_samples))
        object.__setattr__(self, "master_seed",
                           _checks.seed("master_seed", self.master_seed))
        self.points()
        _checks.square_sum("n_samples", self.n_samples, self.base.omega)

    def points(self) -> List[EngineConfig]:
        """The configuration of each grid point, in grid order."""
        if self.variable == "g_tau":
            return [replace(self.base, g_tau=v) for v in self.grid]
        return [replace(self.base, gamma_tau_se=v, reset_mode="finite")
                for v in self.grid]


def _block_lengths(n: int) -> List[int]:
    return [min(BLOCK_SIZE, n - start) for start in range(0, n, BLOCK_SIZE)]


def _simulate(cfg: EngineConfig, u: np.ndarray, fields: Sequence[str],
              previous: int = 0) -> StreamResult:
    """The named fields of the stream of uniform rows (cos-theta, phi,
    outcome) that follows outcome ``previous``; the cos-theta uniform is
    psi11 exactly."""
    thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
    return simulate_stream(thetas, phis, u[:, 2], cfg, previous,
                           psi11=u[:, 0], fields=fields)


def _block_uniforms(master_seed: int, point_index: int, block_index: int,
                    count: int) -> np.ndarray:
    """Block ``block_index``'s (count, 3) uniform rows: the point's one
    generator advanced past the rows of the blocks before it."""
    seq = np.random.SeedSequence([master_seed, point_index, 0])
    bits = np.random.PCG64(seq).advance(3 * BLOCK_SIZE * block_index)
    return np.random.Generator(bits).random((count, 3))


def _summarize(stream: StreamResult, fields: Sequence[str],
               histogram: Optional[Tuple[float, int]]) -> List[SummaryStats]:
    """One block's summaries of the named fields; ``histogram`` is
    (omega, bins), or None to keep the moments only."""
    if histogram is None:
        return [SummaryStats.moments(getattr(stream, f)) for f in fields]
    return [SummaryStats.from_samples(getattr(stream, f), *histogram)
            for f in fields]


def _merge(a: List[SummaryStats], b: List[SummaryStats]) -> List[SummaryStats]:
    return [x.merge(y) for x, y in zip(a, b)]


def _ordered_map(fn, jobs: Sequence, threads: Optional[int]) -> Iterator:
    """fn over jobs, yielding results in job order, never completion
    order, so scheduling cannot leak into output.  threads=None means one
    worker per CPU, and workers never outnumber CPUs; one worker or one
    job runs inline.  At most two jobs per worker run ahead of the caller."""
    workers = min(threads or math.inf, os.cpu_count() or 1)
    if workers <= 1 or len(jobs) <= 1:
        yield from map(fn, jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = []  # submitted and not yet yielded, in job order
        for job in jobs:
            ahead.append(pool.submit(fn, job))
            if len(ahead) == 2 * workers:
                yield ahead.pop(0).result()
        while ahead:
            yield ahead.pop(0).result()


def _run_points(point_cfgs: Sequence[EngineConfig], n: int, master_seed: int,
                threads: Optional[int], fields: Sequence[str],
                histogram: Optional[Tuple[float, int]] = None
                ) -> List[List[SummaryStats]]:
    """Per point, the summaries of the named fields over its n cycles.
    A job runs (index, count) blocks of one point in order, each from the
    outcome the one before ended on: a full-reset block is one job, a
    finite-reset point's blocks one job, as they chain.  Summaries fold
    into the job's, then its point's, total as they arrive, so no block's
    bin counts outlive their merge."""
    reduce = functools.partial(_summarize, fields=fields, histogram=histogram)
    blocks = list(enumerate(_block_lengths(n)))
    jobs = [(p_idx, cfg, job_blocks) for p_idx, cfg in enumerate(point_cfgs)
            for job_blocks in ([blocks] if cfg.reset_mode == "finite"
                               else [[block] for block in blocks])]

    def run(job) -> Tuple[int, List[SummaryStats]]:
        p_idx, cfg, job_blocks = job
        previous, total = 0, None
        for block in job_blocks:
            u = _block_uniforms(master_seed, p_idx, *block)
            stream = _simulate(cfg, u, fields, previous)
            previous = int(stream.outcome[-1])
            part = reduce(stream)
            total = part if total is None else _merge(total, part)
        return p_idx, total

    totals = [None] * len(point_cfgs)
    for p_idx, part in _ordered_map(run, jobs, threads):
        totals[p_idx] = part if totals[p_idx] is None \
            else _merge(totals[p_idx], part)
    return totals


def run_histogram_experiment(cfg: EngineConfig, n: int, seed: int,
                             bins: int = 40,
                             threads: Optional[int] = None) -> HistogramResult:
    """Raw vs processed ergotropy distributions over n sampled ancillas,
    binned as SummaryStats.from_samples bins them."""
    n = _checks.count("n", n)
    seed = _checks.seed("seed", seed)
    _checks.bin_width(cfg.omega, bins)
    _checks.square_sum("n", n, cfg.omega)
    threads = _checks.workers("threads", threads)
    raw, processed = _run_points([cfg], n, seed, threads, ("w_raw", "w_out"),
                                 histogram=(cfg.omega, bins))[0]
    return HistogramResult(raw=raw, processed=processed)


#: sweep columns and the stream fields they summarize; g_tau sweeps add
#: the unconditional-processing columns
_SWEEP_COLUMNS = (("raw", "w_raw"), ("processed", "w_out"))
_G_TAU_COLUMNS = _SWEEP_COLUMNS + (("engine_pulse_always", "w_flip"),
                                   ("engine_no_pulse", "w_keep"),
                                   ("engine_dephased", "w_dephased"))


def run_sweep(spec: SweepSpec, threads: Optional[int] = None) -> List[dict]:
    """One row of summary statistics per grid point.

    g_tau sweeps add the unconditional-processing columns: pulse applied
    at the sampled outcome regardless of its value (engine_pulse_always),
    never applied (engine_no_pulse), and applied to the outcome-averaged
    dephased state (engine_dephased, the record-free reading).
    """
    threads = _checks.workers("threads", threads)
    columns = _G_TAU_COLUMNS if spec.variable == "g_tau" else _SWEEP_COLUMNS
    summaries = _run_points(spec.points(), spec.n_samples, spec.master_seed,
                            threads, [field for _, field in columns])
    rows = []
    for v, stats in zip(spec.grid, summaries):
        row = {spec.variable: v}
        for (name, _), summary in zip(columns, stats):
            row[f"{name}_mean"] = summary.mean
            row[f"{name}_std_error"] = summary.std_error
        rows.append(row)
    return rows


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the closed-form vs channel-level comparison.  Deviations
    of the energy fields are in units of omega; p_plus is a probability
    and its deviation is absolute."""

    max_deviation: float
    field_deviations: dict
    passed: bool
    n_points: int
    skipped_branches: int
    theta_count: int
    g_taus: Tuple[float, ...]
    phi: float
    tolerance: float


def verify_energetics(omega: float = 1.0) -> VerifyReport:
    """Exhaustively compare the channel-level cycle against the closed
    forms on 181 thetas over [0, pi] x DEFAULT_G_TAU_GRID (full-reset
    regime, azimuth VERIFY_PHI), passing when no field deviates by more
    than VERIFY_TOLERANCE.  Every field but p_plus is an energy, and its
    deviation is measured in units of omega, so the check is as strict at
    every scale of omega.  Each theta's ancilla density is built once and
    collided at every g_tau.

    Conditional fields of a branch whose probability vanishes (possible
    only at sin(2 g tau) = 1 with theta at a pole) are 0/0 in the closed
    forms and are skipped; the outcome-averaged fields stay regular and
    are always checked.  Raises ValueError unless omega is a normal
    float > 0: at a subnormal omega the energies lose their precision.
    """
    omega = _checks.within("omega", omega, sys.float_info.min,
                           sys.float_info.max)
    thetas = np.linspace(0.0, math.pi, 181)
    rho_s = ground_state()

    devs = {f.name: 0.0 for f in dataclass_fields(EnergeticsClosedForm)}
    units = dict.fromkeys(devs, omega)
    units["p_plus"] = 1.0
    skipped = 0
    n_points = 0
    psis = [to_density(PureQubit(theta, VERIFY_PHI)) for theta in thetas]
    for g_tau in DEFAULT_G_TAU_GRID:
        for theta, psi in zip(thetas, psis):
            n_points += 1
            oracle = energetics_oracle(theta, g_tau, omega)
            joint = collide(rho_s, psi, g_tau)
            plus, minus = measure(joint)
            # a degenerate +1 branch has zero weight: it adds no work
            channel = {"p_plus": plus.probability, "w_avg": 0.0,
                       "w_processed": 0.0}
            if plus.degenerate:
                skipped += 1
            else:
                flipped = apply_pulse(plus.ancilla)
                e_plus = qubit_energy(plus.ancilla.mat, omega)
                net_work = qubit_energy(flipped.mat, omega) - e_plus
                w_tilde = ergotropy(flipped, omega)
                channel.update(e_a_plus=e_plus,
                               w_x_plus=ergotropy(plus.ancilla, omega),
                               w_tilde_plus=w_tilde, w_plus=net_work,
                               w_avg=plus.probability * net_work,
                               w_processed=plus.probability * w_tilde)
            if minus.degenerate:
                skipped += 1
            else:
                w_minus = ergotropy(minus.ancilla, omega)
                e_minus = qubit_energy(minus.ancilla.mat, omega)
                channel.update(e_a_minus=e_minus, w_x_minus=w_minus)
                channel["w_processed"] += minus.probability * w_minus
            for name, value in channel.items():
                dev = abs(value - getattr(oracle, name)) / units[name]
                # max() would drop a NaN deviation: keep it, so it fails
                if dev > devs[name] or math.isnan(dev):
                    devs[name] = dev
    max_dev = float(np.max(list(devs.values())))
    return VerifyReport(
        max_deviation=max_dev,
        field_deviations=devs,
        passed=bool(max_dev <= VERIFY_TOLERANCE),
        n_points=n_points,
        skipped_branches=skipped,
        theta_count=len(thetas),
        g_taus=DEFAULT_G_TAU_GRID,
        phi=VERIFY_PHI,
        tolerance=VERIFY_TOLERANCE,
    )
