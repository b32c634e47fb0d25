"""Span recording for the traced run, from outside the package.

The package is never edited.  Instead the module-level names that callers
look up at call time (``experiments.simulate_stream``,
``engine.collide``, ``experiments.SummaryStats.from_samples``, ...) are
replaced by wrappers that record a span around each call.  A span is
``[name, start, end, parent, work, run_id]``: ``parent`` is the index of
the enclosing span (``-1`` for none) and ``work`` an optional count
(cycles, points) taken from the call's arguments or result.

A target whose name no longer exists is recorded as absent and left
alone; the metrics built on it are reported as absent, not as a crash.
"""

import functools
import importlib
import inspect
import statistics
import sys
import threading
from time import perf_counter as _clock

PACKAGE = "demon_battery"


def _trajectory_span(args, kwargs):
    cfg = args[0] if args else kwargs.get("cfg")
    kind = type(getattr(cfg, "policy", None)).__name__
    return ("engine.run_trajectory.bayes" if kind == "BayesGainPolicy"
            else "engine.run_trajectory.threshold")


def _first_len(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["thetas"])


def _n_collisions(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n_collisions"]


def _n_points(args, kwargs, result):
    return getattr(result, "n_points", 0)


#: (span name, or a function of the call's arguments giving it;
#:  dotted path below the package; work count taken from the call)
TARGETS = (
    ("cli.main", "cli.main", None),
    ("cli.load_config", "cli.load_config", None),
    ("cli.cmd", "cli.cmd_histogram", None),
    ("cli.cmd", "cli.cmd_sweep", None),
    ("cli.cmd", "cli.cmd_verify", None),
    ("cli.cmd", "cli.cmd_sample", None),
    ("cli.write", "cli._write_lines", None),
    ("experiments.run", "experiments.run_histogram_experiment", None),
    ("experiments.run", "experiments.run_sweep", None),
    ("experiments.summary", "experiments.SummaryStats.from_samples", None),
    ("experiments.verify", "experiments.verify_energetics", _n_points),
    ("kernels.simulate_stream", "kernels.simulate_stream", _first_len),
    (_trajectory_span, "engine.run_trajectory", _n_collisions),
    ("engine.energetics_oracle", "engine.energetics_oracle", None),
    ("channels.collide", "channels.collide", None),
    ("channels.measure", "channels.measure", None),
    ("demon.decide", "demon.decide", None),
    ("states.ergotropy", "states.ergotropy", None),
    ("states.validate", "states.DensityMatrix.__post_init__", None),
)


class Tracer:
    """In-memory span recorder.  Spans are kept in a list and handed to
    the caller when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.present = {}
        self.enabled = True
        self.first_kernel_call = None
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    def _open(self, name: str) -> int:
        me = threading.get_ident()
        stack = self._stacks.setdefault(me, [])
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's call belongs to the span the submitting
            # main thread is blocked in
            main = self._stacks.get(self._main)
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, None, self.run_id])
        stack.append(idx)
        self.spans[idx][1] = _clock()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stacks[threading.get_ident()].pop()

    def _wrap(self, name, fn, work, path):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            if path == "kernels.simulate_stream" \
                    and tracer.first_kernel_call is None:
                tracer.first_kernel_call = (fn, args, kwargs)
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.spans[idx][4] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; record which ones exist."""
        for name, path, work in TARGETS:
            self.present[path] = _install_one(self, name, path, work)


def _install_one(tracer: Tracer, name, path: str, work) -> bool:
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        raw = inspect.getattr_static(owner, attrs[-1])
    except (ImportError, AttributeError):
        return False
    if inspect.isclass(owner):
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attrs[-1],
                    type(raw)(tracer._wrap(name, raw.__func__, work, path)))
        else:
            setattr(owner, attrs[-1], tracer._wrap(name, raw, work, path))
        return True
    # a module-level function: rebind it in every package module that
    # imported it by name, since that is where callers look it up
    wrapped = tracer._wrap(name, raw, work, path)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is raw:
                setattr(mod, attr, wrapped)
    return True


# -- per-layer metrics from one traced run ------------------------------------

_CMDS = ("cli.cmd_histogram", "cli.cmd_sweep", "cli.cmd_verify",
         "cli.cmd_sample")
_RUNS = ("experiments.run_histogram_experiment", "experiments.run_sweep",
         "kernels.simulate_stream")
_KERNEL = ("kernels.simulate_stream",)

#: name -> (unit, better, targets it needs).  Every end-to-end metric
#: each one should move, and on which workload, is listed in README.md.
LAYER_METRICS = {
    "setup.import_s": ("s", "lower", ()),
    "cli.load_config_s": ("s", "lower", ("cli.load_config",)),
    "cli.write_s": ("s", "lower", ("cli._write_lines",)),
    "cli.bytes_written": ("B", "lower", ()),
    "cli.cmd_self_s": ("s", "lower", _CMDS),
    "experiments.self_s": ("s", "lower", _RUNS),
    "experiments.summary_s": ("s", "lower",
                              ("experiments.SummaryStats.from_samples",)),
    "experiments.kernel_calls": ("count", "lower", _RUNS),
    "experiments.parallel_efficiency": ("ratio", "higher", _RUNS),
    "experiments.speedup_vs_1thread": ("ratio", "higher", ()),
    "experiments.peak_alloc_mb": ("MB", "lower", ()),
    "kernels.calls": ("count", "lower", _KERNEL),
    "kernels.busy_s": ("s", "lower", _KERNEL),
    "kernels.cycles_per_busy_s": ("1/s", "higher", _KERNEL),
    "kernels.call_s.p50": ("s", "lower", _KERNEL),
    "kernels.call_s.ptail": ("s", "lower", _KERNEL),
    "kernels.alloc_bytes_per_cycle": ("B", "lower", _KERNEL),
    "engine.threshold.cycles_per_busy_s": ("1/s", "higher",
                                           ("engine.run_trajectory",)),
    "engine.bayes.cycles_per_busy_s": ("1/s", "higher",
                                       ("engine.run_trajectory",)),
    "experiments.verify.points_per_s": ("1/s", "higher",
                                        ("experiments.verify_energetics",)),
    "channels.collide.busy_s": ("s", "lower", ("channels.collide",)),
    "channels.measure.busy_s": ("s", "lower", ("channels.measure",)),
    "states.ergotropy.busy_s": ("s", "lower", ("states.ergotropy",)),
    "demon.decide.busy_s": ("s", "lower", ("demon.decide",)),
    "engine.energetics_oracle.busy_s": ("s", "lower",
                                        ("engine.energetics_oracle",)),
    "states.density_validations": ("count", "lower",
                                   ("states.DensityMatrix.__post_init__",)),
    "states.validate_s": ("s", "lower",
                          ("states.DensityMatrix.__post_init__",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _covered(intervals):
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def tail_percentile(values, beyond=10):
    """The highest order statistic with at least ``beyond`` values above
    it; 0 when there are too few values to have one."""
    ordered = sorted(values)
    return ordered[-beyond - 1] if len(ordered) > beyond else 0.0


def layer_metrics(traced, threads, untraced_wall_s, wall_1thread_s):
    """Per-layer metrics from a traced child's result.  A metric whose
    targets are missing from the package is returned as None (absent)."""
    spans = traced["spans"]
    by_name = {}
    children = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        children.setdefault(parent, []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def busy(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def work(name):
        return sum(spans[i][4] or 0 for i in by_name.get(name, ()))

    def self_time(i, child_name=None):
        start, end = spans[i][1], spans[i][2]
        return dur(i) - _covered(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
            if child_name is None or spans[c][0] == child_name)

    runs = by_name.get("experiments.run", [])
    kernel = "kernels.simulate_stream"
    run_kernels = [c for r in runs for c in children.get(r, ())
                   if spans[c][0] == kernel]
    kernel_times = [dur(i) for i in by_name.get(kernel, ())]
    run_span = sum(dur(r) for r in runs)
    values = {
        "setup.import_s": traced["import_s"],
        "cli.load_config_s": busy("cli.load_config"),
        "cli.write_s": busy("cli.write"),
        "cli.bytes_written": traced["bytes_written"],
        "cli.cmd_self_s": sum(self_time(i) for i in by_name.get("cli.cmd", ())),
        "experiments.self_s": sum(self_time(r, kernel) for r in runs),
        "experiments.summary_s": busy("experiments.summary"),
        "experiments.kernel_calls": len(run_kernels),
        "experiments.parallel_efficiency": _ratio(
            sum(dur(i) for i in run_kernels), threads * run_span),
        "experiments.speedup_vs_1thread": _ratio(wall_1thread_s,
                                                 untraced_wall_s),
        "experiments.peak_alloc_mb": traced["peak_alloc_bytes"] / 2 ** 20,
        "kernels.calls": len(kernel_times),
        "kernels.busy_s": sum(kernel_times),
        "kernels.cycles_per_busy_s": _ratio(work(kernel), sum(kernel_times)),
        "kernels.call_s.p50": (statistics.median(kernel_times)
                               if kernel_times else 0.0),
        "kernels.call_s.ptail": tail_percentile(kernel_times),
        "kernels.alloc_bytes_per_cycle": traced["alloc_bytes_per_cycle"],
        "engine.threshold.cycles_per_busy_s": _ratio(
            work("engine.run_trajectory.threshold"),
            busy("engine.run_trajectory.threshold")),
        "engine.bayes.cycles_per_busy_s": _ratio(
            work("engine.run_trajectory.bayes"),
            busy("engine.run_trajectory.bayes")),
        "experiments.verify.points_per_s": _ratio(
            work("experiments.verify"), busy("experiments.verify")),
        "channels.collide.busy_s": busy("channels.collide"),
        "channels.measure.busy_s": busy("channels.measure"),
        "states.ergotropy.busy_s": busy("states.ergotropy"),
        "demon.decide.busy_s": busy("demon.decide"),
        "engine.energetics_oracle.busy_s": busy("engine.energetics_oracle"),
        "states.density_validations": len(by_name.get("states.validate", ())),
        "states.validate_s": busy("states.validate"),
        "trace.overhead_frac": _ratio(traced["wall_s"], untraced_wall_s) - 1.0,
    }
    present = traced["present"]
    return {name: (None if not all(present.get(t, False) for t in needs)
                   else values[name])
            for name, (_, _, needs) in LAYER_METRICS.items()}
