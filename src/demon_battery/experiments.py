"""Monte Carlo experiments: Haar sampling, histogram and sweep runs, and
the exhaustive closed-form verification.

Reproducibility contract: per cycle a stream consumes three uniforms in
the fixed order (cos-theta, phi, outcome).  The cos-theta uniform u is
the ancilla's excited population sin^2(theta/2) exactly, and goes to the
kernel as such; phi affects no output.  A point runs as consecutive
blocks of BLOCK_SIZE cycles, a whole number of CHUNK_SIZE chunks, and
each block is reduced at once to mergeable summaries (count, mean, M2
and, for histograms, bin counts), so no per-cycle array outlives its
block and memory stays flat in n.

- Full-reset points have i.i.d. cycles.  Chunk c of point p draws from
  SeedSequence([master_seed, p, c]); a block fills its uniforms chunk by
  chunk and is one job.
- Finite-reset points are one chained trajectory.  Their blocks draw in
  turn from the one SeedSequence([master_seed, p, 0]) generator, and each
  starts from the system state the last one left, so together they are
  one unbroken stream.  A point's blocks run in order in one job.

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
from .channels import CollisionParams, apply_pulse, collide, measure
from .engine import EnergeticsClosedForm, EngineConfig, energetics_oracle
from .kernels import StreamResult, simulate_stream
from .states import PureQubit, QubitHamiltonian, ergotropy, ground_state, to_density

#: cycles per generator seed in full-reset streams
CHUNK_SIZE = 4096
#: cycles per block, the unit of work and of memory: whole chunks
BLOCK_SIZE = 4 * CHUNK_SIZE

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
        _checks.bin_width(omega, bins)
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
    each grid value.  Every point's configuration is built, and so
    validated, up front.
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
        check = _checks.finite_real if self.variable == "g_tau" \
            else _checks.nonnegative_finite
        for i, v in enumerate(self.grid):
            check(f"{name}[{i}]", v)
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"{name} must be strictly increasing, "
                             f"got {self.grid!r}")
        _checks.count("n_samples", self.n_samples)
        _checks.seed("master_seed", self.master_seed)
        self.points()
        _checks.square_sum("n_samples", self.n_samples, self.base.omega)

    def points(self) -> List[EngineConfig]:
        """The configuration of each grid point, in grid order."""
        if self.variable == "g_tau":
            return [replace(self.base, collision=CollisionParams(v))
                    for v in self.grid]
        return [replace(self.base,
                        reset=replace(self.base.reset, gamma_tau_se=v),
                        reset_mode="finite")
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


def _iid_block(cfg: EngineConfig, master_seed: int, point_index: int,
               block_index: int, count: int,
               fields: Sequence[str]) -> StreamResult:
    """One block of a full-reset point, its uniforms filled chunk by
    chunk from each chunk's own generator."""
    u = np.empty((count, 3))
    first_chunk = block_index * (BLOCK_SIZE // CHUNK_SIZE)
    for c, lo in enumerate(range(0, count, CHUNK_SIZE)):
        seq = np.random.SeedSequence([master_seed, point_index,
                                      first_chunk + c])
        np.random.default_rng(seq).random(out=u[lo:lo + CHUNK_SIZE])
    return _simulate(cfg, u, fields)


def _chained_blocks(cfg: EngineConfig, master_seed: int, point_index: int,
                    n: int, fields: Sequence[str]) -> Iterator[StreamResult]:
    """The blocks of a finite-reset point in order: one trajectory whose
    uniforms come in turn from the point's one generator, each block
    continuing from the last outcome of the block before."""
    rng = np.random.default_rng(
        np.random.SeedSequence([master_seed, point_index, 0]))
    previous = 0
    for count in _block_lengths(n):
        stream = _simulate(cfg, rng.random((count, 3)), fields, previous)
        previous = int(stream.outcome[-1])
        yield stream


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
    A full-reset block is one job; a chain's blocks depend on each other,
    so a finite-reset point is one job, its block None.  Each job's
    summaries fold into its point's total as they arrive, so no block's
    bin counts outlive their merge."""
    reduce = functools.partial(_summarize, fields=fields, histogram=histogram)
    blocks = list(enumerate(_block_lengths(n)))
    jobs = [(p_idx, cfg, block) for p_idx, cfg in enumerate(point_cfgs)
            for block in ([None] if cfg.reset_mode == "finite" else blocks)]

    def run(job) -> Tuple[int, List[SummaryStats]]:
        p_idx, cfg, block = job
        if block is None:
            return p_idx, functools.reduce(_merge, map(
                reduce, _chained_blocks(cfg, master_seed, p_idx, n, fields)))
        return p_idx, reduce(_iid_block(cfg, master_seed, p_idx, *block,
                                        fields))

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
    _checks.count("n", n)
    _checks.seed("seed", seed)
    _checks.bin_width(cfg.omega, bins)
    _checks.square_sum("n", n, cfg.omega)
    _checks.workers("threads", threads)
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
    _checks.workers("threads", threads)
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
    _checks.within("omega", omega, sys.float_info.min, sys.float_info.max)
    thetas = np.linspace(0.0, math.pi, 181)
    h_a = QubitHamiltonian(omega)
    energy = h_a.energy
    rho_s = ground_state()

    devs = {f.name: 0.0 for f in dataclass_fields(EnergeticsClosedForm)}
    units = dict.fromkeys(devs, omega)
    units["p_plus"] = 1.0
    skipped = 0
    n_points = 0
    psis = [to_density(PureQubit(theta, VERIFY_PHI)) for theta in thetas]
    for g_tau in DEFAULT_G_TAU_GRID:
        params = CollisionParams(g_tau)
        for theta, psi in zip(thetas, psis):
            n_points += 1
            oracle = energetics_oracle(theta, g_tau, omega)
            joint = collide(rho_s, psi, params)
            plus, minus = measure(joint)
            # a degenerate +1 branch has zero weight: it adds no work
            channel = {"p_plus": plus.probability, "w_avg": 0.0,
                       "w_processed": 0.0}
            if plus.degenerate:
                skipped += 1
            else:
                flipped = apply_pulse(plus.ancilla)
                e_plus = energy(plus.ancilla)
                net_work = energy(flipped) - e_plus
                w_tilde = ergotropy(flipped, h_a)
                channel.update(e_a_plus=e_plus,
                               w_x_plus=ergotropy(plus.ancilla, h_a),
                               w_tilde_plus=w_tilde, w_plus=net_work,
                               w_avg=plus.probability * net_work,
                               w_processed=plus.probability * w_tilde)
            if minus.degenerate:
                skipped += 1
            else:
                w_minus = ergotropy(minus.ancilla, h_a)
                channel.update(e_a_minus=energy(minus.ancilla),
                               w_x_minus=w_minus)
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
