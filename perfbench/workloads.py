"""The benchmark's workloads: what one run executes and how its outputs
are checked, plus the faults the self-test injects to show each check
bites.

Every workload drives public entry points only: ``cli.main(argv)``,
``verify_energetics``, ``run_trajectory`` and ``simulate_stream``.  The
physical parameters are fixed; the sizes are set so that one run takes
one to two seconds on a 2-CPU machine with the numpy backend, long
enough for the work to dominate interpreter start-up and short enough
for ten or more runs inside one measurement.

A check is one attempted operation: it passes or fails, and failures
over attempts give ``error_rate``.  Statistical checks allow 5 standard
errors, so they are deterministic at a given seed and fail by chance
with probability below 1e-6.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import threading
from pathlib import Path

import numpy as np

OMEGA = 1.0
G_TAU = math.pi / 8
#: the full-reset processed mean omega*(1 + sin 2g tau)/2, independent of
#: the ancilla's polar angle
FULL_RESET_PROCESSED = 0.5 * OMEGA * (1.0 + math.sin(2.0 * G_TAU))
Z_LIMIT = 5.0


def _within(value, target, se):
    return abs(value - target) <= Z_LIMIT * se


def _csv_rows(path):
    """Data rows of a CSV the CLI wrote: '#' comment lines, then a header."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class CliRun:
    """One ``demon-battery`` invocation through ``cli.main``.

    Set-up parses the arguments and validates the configuration the way
    the CLI does before any work, so config validation is set-up time.
    """

    def __init__(self, argv, out_dir, cycles, check):
        from demon_battery import cli

        self.cli = cli
        self.argv = argv
        self.out_dir = Path(out_dir)
        self.cycles = cycles
        self.check = check
        if hasattr(cli, "load_config") and hasattr(cli, "build_parser"):
            cli.load_config(cli.build_parser().parse_args(argv))

    def execute(self):
        code = self.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"demon-battery {self.argv[0]} exited {code}")

    def _outputs(self):
        return sorted(p for p in self.out_dir.iterdir() if p.is_file())

    def bytes_written(self):
        return sum(p.stat().st_size for p in self._outputs())

    def digest(self):
        h = hashlib.sha256()
        for path in self._outputs():
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


class IidHistogram:
    name = "iid-histogram"
    why = ("full-reset histogram: independent 4096-cycle chunks on the "
           "thread pool, batched kernel >97% of the time")
    threaded = True
    size = {"n": 600_000}
    #: 12 chunks, so the kernel-call tail percentile has calls beyond it
    tiny = {"n": 12 * 4096}

    def prepare(self, size, seed, threads, out_dir):
        n = size["n"]
        csv = Path(out_dir) / "histogram.csv"
        argv = ["histogram", "--n", str(n), "--seed", str(seed),
                "--g-tau", repr(G_TAU), "--gamma-tau-se", "8",
                "--threads", str(threads), "--out", str(csv)]
        return CliRun(argv, out_dir, n, lambda: self._check(csv, n))

    @staticmethod
    def _check(csv, n):
        side = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
        rows = _csv_rows(csv)
        se = side["std_errors"]
        return [
            ("raw_mean_5se",
             _within(side["raw_mean"], 0.5 * OMEGA, se["raw"])),
            ("processed_mean_5se",
             _within(side["processed_mean"], FULL_RESET_PROCESSED,
                     se["processed"])),
            ("raw_counts_sum_n",
             sum(int(r["raw_count"]) for r in rows) == n),
            ("processed_counts_sum_n",
             sum(int(r["processed_count"]) for r in rows) == n),
        ]


class ChainedSweepReset:
    name = "chained-sweep-reset"
    why = ("finite-reset sweep: one unbroken trajectory per gamma-tau "
           "point, Python outcome routing, memory linear in n")
    threaded = True
    size = {"n": 40_000}
    tiny = {"n": 20_000}
    #: the CLI's default gamma*tau_SE grid; its last point is near full reset
    grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

    def prepare(self, size, seed, threads, out_dir):
        n = size["n"]
        csv = Path(out_dir) / "sweep_reset.csv"
        argv = ["sweep-reset", "--n", str(n), "--seed", str(seed),
                "--g-tau", repr(G_TAU), "--threads", str(threads),
                "--out", str(csv)]
        return CliRun(argv, out_dir, n * len(self.grid),
                      lambda: self._check(csv))

    def _check(self, csv):
        rows = _csv_rows(csv)
        checks = [("grid_rows",
                   [float(r["gamma_tau_se"]) for r in rows] == list(self.grid))]
        for r in rows:
            checks.append((f"raw_mean_5se[{float(r['gamma_tau_se']):g}]",
                           _within(float(r["raw_mean"]), 0.5 * OMEGA,
                                   float(r["raw_std_error"]))))
        last = [r for r in rows if float(r["gamma_tau_se"]) == self.grid[-1]]
        checks.append(("full_reset_limit_5se", bool(last) and _within(
            float(last[0]["processed_mean"]), FULL_RESET_PROCESSED,
            float(last[0]["processed_std_error"]))))
        # neighbouring points are independent runs, and the curve is
        # nearly flat towards full reset: allow 5 SE of their difference
        means = [(float(r["processed_mean"]), float(r["processed_std_error"]))
                 for r in rows]
        checks.append(("processed_rises", all(
            b >= a - Z_LIMIT * math.hypot(se_a, se_b)
            for (a, se_a), (b, se_b) in zip(means, means[1:]))))
        return checks


class ReferenceRun:
    """The three library calls on the validated object path."""

    def __init__(self, size, seed):
        from demon_battery import (BayesGainPolicy, EngineConfig, Ensemble,
                                   EnsembleSampler, HaarQubitSampler,
                                   PriorState, PureQubit,
                                   threshold_gain_table)

        self.n_bayes = size["n_bayes"]
        self.n_threshold = size["n_threshold"]
        ensemble = Ensemble.discrete([(PureQubit(math.pi / 3, 0.0), 0.5),
                                      (PureQubit(2 * math.pi / 3, 0.0), 0.5)])
        self.policy = BayesGainPolicy(
            table=threshold_gain_table(), prior=PriorState.uniform(2),
            ensemble=ensemble, recycle_prior=True)
        self.bayes_cfg = EngineConfig.default(g_tau=G_TAU, omega=OMEGA,
                                              policy=self.policy)
        self.bayes_rng = np.random.default_rng([seed, 1])
        self.bayes_sampler = EnsembleSampler(ensemble, self.bayes_rng)
        self.threshold_cfg = EngineConfig.default(
            g_tau=G_TAU, omega=OMEGA, gamma_tau_se=1.0, reset_mode="finite")
        self.threshold_seed = [seed, 2]
        self.threshold_rng = np.random.default_rng(self.threshold_seed)
        self.threshold_sampler = HaarQubitSampler(self.threshold_rng)

    def execute(self):
        from demon_battery import engine, experiments

        self.report = experiments.verify_energetics()
        self.bayes = engine.run_trajectory(self.bayes_cfg, self.n_bayes,
                                           self.bayes_sampler, self.bayes_rng)
        self.threshold = engine.run_trajectory(
            self.threshold_cfg, self.n_threshold, self.threshold_sampler,
            self.threshold_rng)
        self.cycles = self.report.n_points + self.n_bayes + self.n_threshold

    def bytes_written(self):
        return 0

    def digest(self):
        payload = {
            "verify": [self.report.max_deviation, self.report.n_points,
                       self.report.skipped_branches],
            "trajectories": [
                [[r.outcome, int(r.action), r.ergotropy_out, r.pulse_work]
                 for r in records]
                for records in (self.bayes, self.threshold)],
        }
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def check(self):
        from demon_battery import Action, kernels

        # the engine draws (cos-theta, phi, outcome) per cycle; replaying
        # the same uniforms through the kernel must give the same cycles
        u = np.random.default_rng(self.threshold_seed).random(
            (self.n_threshold, 3))
        stream = kernels.simulate_stream(np.arccos(1.0 - 2.0 * u[:, 0]),
                                         2.0 * math.pi * u[:, 1], u[:, 2],
                                         self.threshold_cfg)
        outcomes = np.array([r.outcome for r in self.threshold])
        w_out = np.array([r.ergotropy_out for r in self.threshold])
        return [
            ("verify_passed", bool(self.report.passed)
             and self.report.max_deviation <= 1e-10),
            ("threshold_outcomes_match_kernel",
             np.array_equal(outcomes, stream.outcome.astype(int))),
            ("threshold_w_out_match_kernel",
             float(np.max(np.abs(w_out - stream.w_out))) <= 1e-10),
            ("bayes_actions_follow_table",
             all((r.action == Action.APPLY_PULSE) == (r.outcome == 1)
                 for r in self.bayes)),
            ("bayes_template_prior_untouched",
             bool(np.allclose(self.policy.prior.probs, [0.5, 0.5]))),
        ]


class ReferencePath:
    name = "reference-path"
    why = ("verify_energetics plus Bayes and threshold trajectories on the "
           "engine object path; the kernels do no work")
    threaded = False
    size = {"n_bayes": 400, "n_threshold": 1_000}
    tiny = {"n_bayes": 30, "n_threshold": 60}

    def prepare(self, size, seed, threads, out_dir):
        return ReferenceRun(size, seed)


class SampleDump:
    name = "sample-dump"
    why = ("raw Haar ergotropy dump: a per-sample Python draw and format "
           "loop plus CSV writing, so cli dominates")
    threaded = False
    size = {"n": 300_000}
    tiny = {"n": 5_000}

    def prepare(self, size, seed, threads, out_dir):
        n = size["n"]
        csv = Path(out_dir) / "samples.csv"
        argv = ["sample", "--n", str(n), "--seed", str(seed),
                "--threads", str(threads), "--out", str(csv)]
        return CliRun(argv, out_dir, n, lambda: self._check(csv, n))

    @staticmethod
    def _check(csv, n):
        values = np.array([float(r["ergotropy"]) for r in _csv_rows(csv)])
        if values.size < 2:
            return [("sample_rows_n", values.size == n),
                    ("samples_in_range", False), ("sample_mean_5se", False)]
        se = values.std(ddof=1) / math.sqrt(values.size)
        return [
            ("sample_rows_n", values.size == n),
            ("samples_in_range",
             bool(np.all((values >= 0.0) & (values <= OMEGA)))),
            ("sample_mean_5se", _within(values.mean(), 0.5 * OMEGA, se)),
        ]


WORKLOADS = {w.name: w for w in (IidHistogram(), ChainedSweepReset(),
                                 ReferencePath(), SampleDump())}

#: checks the benchmark itself adds across runs
DIGEST_CHECK = "output_digest_matches_first"
THREADS_CHECK = "threads_1_output_identical"


# -- faults for the self-test ------------------------------------------------
#
# Each fault wraps one name the program looks up at call time and breaks
# the program's output in one way.  The self-test runs each on its
# workload and requires the listed checks to fail.

def _rebind(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def _after(transform):
    """Wrapper factory: call the original, then transform its result."""
    def make(original):
        def wrapper(*args, **kwargs):
            return transform(original(*args, **kwargs))
        return wrapper
    return make


def _fault_stream(field, delta):
    def apply():
        from demon_battery import experiments
        _rebind(experiments, "simulate_stream", _after(
            lambda s: s._replace(**{field: getattr(s, field) + delta})))
    return apply


def _fault_kernel(transform):
    def apply():
        from demon_battery import kernels
        _rebind(kernels, "simulate_stream", _after(transform))
    return apply


def _flip_first_outcome(s):
    outcome = s.outcome.copy()
    outcome[0] = -outcome[0]
    return s._replace(outcome=outcome)


def _drop_count():
    from demon_battery.experiments import SummaryStats

    def drop(stats):
        counts = stats.counts.copy()
        counts[0] -= 1
        return dataclasses.replace(stats, counts=counts)
    SummaryStats.from_samples = staticmethod(
        _after(drop)(SummaryStats.from_samples))


def _fault_sweep(transform):
    def apply():
        from demon_battery import cli
        _rebind(cli, "run_sweep", _after(transform))
    return apply


def _reverse_processed(rows):
    means = [r["processed_mean"] for r in rows][::-1]
    return [dict(r, processed_mean=m) for r, m in zip(rows, means)]


def _break_oracle():
    from demon_battery import experiments
    _rebind(experiments, "energetics_oracle", _after(
        lambda o: dataclasses.replace(o, p_plus=o.p_plus + 1e-6)))


def _lazy_demon():
    from demon_battery import Action, engine
    engine.decide = lambda policy, x, likelihoods=None: Action.DO_NOTHING


def _shared_prior():
    from demon_battery import BayesGainPolicy
    BayesGainPolicy.trajectory_instance = lambda self: self


def _fault_sample(transform):
    def apply():
        from demon_battery import cli
        calls = itertools.count()

        def make(original):
            def wrapper(psi, omega):
                return transform(next(calls), original(psi, omega))
            return wrapper
        _rebind(cli, "ergotropy_pure", make)
    return apply


def _drop_last_line():
    from demon_battery import cli
    original = cli._write_lines
    cli._write_lines = lambda path, lines: original(path, list(lines)[:-1])


def _thread_dependent():
    from demon_battery import experiments

    def off_main(s):
        if threading.current_thread() is threading.main_thread():
            return s
        return s._replace(w_out=s.w_out + 1e-13)
    _rebind(experiments, "simulate_stream", _after(off_main))


#: name -> (workload, apply, checks that must fail).  The two checks made
#: across runs bite only when the fault is compared against another run:
#: DIGEST_CHECK against a clean run, THREADS_CHECK against a one-thread run.
FAULTS = {
    "shift_raw_iid": ("iid-histogram", _fault_stream("w_raw", 0.1),
                      ["raw_mean_5se"]),
    "shift_processed_iid": ("iid-histogram", _fault_stream("w_out", -0.1),
                            ["processed_mean_5se"]),
    "drop_count": ("iid-histogram", _drop_count,
                   ["raw_counts_sum_n", "processed_counts_sum_n"]),
    "last_digit_change": ("iid-histogram", _fault_stream("w_out", 1e-13),
                          [DIGEST_CHECK]),
    "thread_dependent": ("iid-histogram", _thread_dependent, [THREADS_CHECK]),
    "shift_raw_sweep": ("chained-sweep-reset", _fault_stream("w_raw", 0.1),
                        [f"raw_mean_5se[{g:g}]"
                         for g in ChainedSweepReset.grid]),
    "shift_processed_sweep": ("chained-sweep-reset",
                              _fault_stream("w_out", -0.1),
                              ["full_reset_limit_5se"]),
    "reverse_sweep": ("chained-sweep-reset",
                      _fault_sweep(_reverse_processed), ["processed_rises"]),
    "drop_sweep_row": ("chained-sweep-reset",
                       _fault_sweep(lambda rows: rows[:-1]), ["grid_rows"]),
    "break_oracle": ("reference-path", _break_oracle, ["verify_passed"]),
    "kernel_outcome": ("reference-path", _fault_kernel(_flip_first_outcome),
                       ["threshold_outcomes_match_kernel"]),
    "kernel_w_out": ("reference-path",
                     _fault_kernel(lambda s: s._replace(w_out=s.w_out + 1e-6)),
                     ["threshold_w_out_match_kernel"]),
    "lazy_demon": ("reference-path", _lazy_demon,
                   ["bayes_actions_follow_table"]),
    "shared_prior": ("reference-path", _shared_prior,
                     ["bayes_template_prior_untouched"]),
    "sample_shift": ("sample-dump", _fault_sample(lambda i, w: 0.9 * w),
                     ["sample_mean_5se"]),
    "sample_out_of_range": ("sample-dump",
                            _fault_sample(lambda i, w: -0.01 if i == 0 else w),
                            ["samples_in_range"]),
    "drop_row": ("sample-dump", _drop_last_line, ["sample_rows_n"]),
}
