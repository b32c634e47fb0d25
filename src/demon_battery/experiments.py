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
  chunk and is one thread-pool job.
- Finite-reset points are one chained trajectory.  Their blocks draw in
  turn from the one SeedSequence([master_seed, p, 0]) generator, and each
  starts from the system state the last one left, so together they are
  one unbroken stream.  A point's blocks run in order in one job.

Block summaries merge in (point, block) index order whichever thread
made them, so results are bit-identical for any thread count.
"""

import functools
import math
import os
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
        infinity, which its mean shows."""
        samples = np.asarray(samples, dtype=float)
        if samples.size < 1:
            raise ValueError("need at least one sample")
        mean = samples.mean()
        if not math.isfinite(mean):
            raise ValueError("samples must be finite")
        dev = samples - mean
        return cls(n=samples.size, mean=float(mean),
                   m2=float(np.sum(dev * dev)))

    @classmethod
    def from_samples(cls, samples: np.ndarray, omega: float,
                     bins: int = 40) -> "SummaryStats":
        """Moments plus the histogram of the sample clipped to [0, omega]
        over ``bins`` equal bins: bin i holds edges[i] <= x < edges[i+1],
        the last bin also x = omega, as np.histogram counts.  Raises
        ValueError unless bins is an int >= 1 and omega is finite with a
        bin width omega / bins no smaller than the least normal float,
        and, as moments does, for a sample that is empty or not finite."""
        _checks.bin_width(omega, bins)
        samples = np.asarray(samples, dtype=float)
        stats = cls.moments(samples)
        edges = np.linspace(0.0, omega, bins + 1)
        # the bin by arithmetic, then corrected once each way against the
        # edges, which it can miss by one within an ulp of an edge: the
        # rule np.histogram applies to equal bins.  Open outer edges count
        # what lies beyond [0, omega] in the outer bins, as clipping would
        lower, upper = edges[:-1].copy(), edges[1:].copy()
        lower[0], upper[-1] = -np.inf, np.inf
        scaled = samples * (bins / omega)
        np.clip(scaled, 0.0, bins - 1, out=scaled)
        index = scaled.astype(np.intp)
        index -= samples < lower.take(index, out=scaled, mode="clip")
        index += samples >= upper.take(index, out=scaled, mode="clip")
        counts = np.bincount(index, minlength=bins)
        return replace(stats, bin_edges=edges, counts=counts)

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Summary of the union of two disjoint samples: the pairwise mean
        and M2 update of Chan, Golub & LeVeque (1983); bin counts add."""
        if not np.array_equal(self.bin_edges, other.bin_edges):
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


def _iid_job(reduce, *block) -> List[SummaryStats]:
    return reduce(_iid_block(*block))


def _chained_job(reduce, *point) -> List[SummaryStats]:
    return functools.reduce(_merge, map(reduce, _chained_blocks(*point)))


def _execute(thunks, threads: Optional[int]) -> list:
    """Run thunks, possibly on a thread pool.  Results come back in
    submission order, never completion order, so scheduling cannot leak
    into output.  ``threads`` is None for every CPU, else at least 1."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(thunks) <= 1:
        return [thunk() for thunk in thunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(thunk) for thunk in thunks]
        return [fut.result() for fut in futures]


def _run_points(point_cfgs: Sequence[EngineConfig], n: int, master_seed: int,
                threads: Optional[int], fields: Sequence[str],
                histogram: Optional[Tuple[float, int]] = None
                ) -> List[List[SummaryStats]]:
    """Per point, the summaries of the named fields over its n cycles.
    A full-reset block is one job; a chain's blocks depend on each other,
    so a finite-reset point is one job."""
    reduce = functools.partial(_summarize, fields=fields, histogram=histogram)
    owners, thunks = [], []
    for p_idx, cfg in enumerate(point_cfgs):
        if cfg.reset_mode == "finite":
            owners.append(p_idx)
            thunks.append(functools.partial(_chained_job, reduce, cfg,
                                            master_seed, p_idx, n, fields))
            continue
        for b_idx, count in enumerate(_block_lengths(n)):
            owners.append(p_idx)
            thunks.append(functools.partial(_iid_job, reduce, cfg,
                                            master_seed, p_idx, b_idx, count,
                                            fields))
    totals = [None] * len(point_cfgs)
    for p_idx, part in zip(owners, _execute(thunks, threads)):
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
                      omega: float = 1.0) -> VerifyReport:
    """Exhaustively compare the channel-level cycle against the closed
    forms on a theta x g_tau grid (full-reset regime, azimuth VERIFY_PHI),
    passing when no field deviates by more than VERIFY_TOLERANCE.  Each
    theta's ancilla density is built once and collided at every g_tau.

    Conditional fields of a branch whose probability vanishes (possible
    only at sin(2 g tau) = 1 with theta at a pole) are 0/0 in the closed
    forms and are skipped; the outcome-averaged fields stay regular and
    are always checked.  Raises ValueError for an empty grid, which would
    check nothing, and for an omega QubitHamiltonian rejects.
    """
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, 181)
    if g_taus is None:
        g_taus = DEFAULT_G_TAU_GRID
    if len(thetas) == 0 or len(g_taus) == 0:
        raise ValueError("thetas and g_taus must be nonempty")
    h_a = QubitHamiltonian(omega)
    energy = h_a.energy
    rho_s = ground_state()

    devs = {f.name: 0.0 for f in dataclass_fields(EnergeticsClosedForm)}
    skipped = 0
    n_points = 0
    psis = [to_density(PureQubit(theta, VERIFY_PHI)) for theta in thetas]
    for g_tau in g_taus:
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
                dev = abs(value - getattr(oracle, name))
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
        g_taus=tuple(float(g) for g in g_taus),
        phi=VERIFY_PHI,
        tolerance=VERIFY_TOLERANCE,
    )
