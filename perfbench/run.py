"""demon-battery benchmark: measure one workload, or every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``; nothing is installed or built.

One closed-loop client: runs go one at a time, each in a fresh child
process (``child.py``) using as many threads as the CPUs available to
this process.  One set-up-only child writes the byte-code cache and
is not timed; then full runs follow one another for ``--seconds``.
Each end-to-end metric is the median over the runs, printed with its
quartiles and the run count:

* ``cycles_per_s``  simulated collision cycles (samples for sample-dump)
  per second of ``wall_s``;
* ``wall_s``        first call into the entry point until outputs are
  written;
* ``cpu_s``         user + sys CPU seconds of the run's process;
* ``peak_rss_mb``   peak resident set of the run's process;
* ``setup_s``       process start until the first timed call;
* ``error_rate``    failed output checks over checks attempted; it is
  carried by ``failed`` and ``attempted`` in the result line.

CPU and RSS come from each child's own rusage (``RUSAGE_SELF``, read by
the child when its outputs are written), never from RUSAGE_CHILDREN,
whose high-water mark spans every child.

With ``--trace 1`` the untraced runs are followed by one traced child,
which records spans around each layer of the package, and, for threaded
workloads, one untraced child at one thread.  The result line then holds
the per-layer metrics.  End-to-end numbers always come from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import DIGEST_CHECK, THREADS_CHECK, WORKLOADS  # noqa: E402

#: name -> unit; error_rate is reported beside them, through
#: ``failed``/``attempted``, because it is 0 when the program is correct
E2E_METRICS = {"cycles_per_s": "1/s", "wall_s": "s", "cpu_s": "s",
               "peak_rss_mb": "MB", "setup_s": "s"}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0


class ChildFailed(Exception):
    pass


class Session:
    """Spawns children one at a time and collects their results."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.threads = len(os.sched_getaffinity(0))
        base = ROOT / ".bench_build" / "perfbench"
        base.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.count = 0
        # the package's own environment variables would override the
        # workload's settings; byte-code caching is left on, as for an
        # installed package, so the warm-up child compiles once
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DEMON_BATTERY_")
                    and k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        for empty in (self.work.parent, self.work.parent.parent):
            try:
                empty.rmdir()
            except OSError:
                break

    def child(self, workload, seed, mode, threads=None, fault=None):
        """Run one child to completion and return its result."""
        self.count += 1
        cdir = self.work / f"child-{self.count}"
        (cdir / "out").mkdir(parents=True)
        log = cdir / "log.txt"
        result_path = cdir / "result.json"
        spec = {"workload": workload, "seed": seed, "mode": mode,
                "threads": threads or self.threads,
                "size": self.sizes[workload], "fault": fault,
                "out_dir": str(cdir / "out"), "result": str(result_path)}
        argv = [sys.executable, str(BENCH / "child.py")]
        spec["t_spawn"] = time.monotonic()
        with open(log, "wb") as log_fh:
            try:
                code = subprocess.run(
                    argv + [json.dumps(spec)], env=self.env, stdout=log_fh,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "killed after timeout"
        if code != 0 or not result_path.exists():
            tail = log.read_text(errors="replace")[-3000:]
            raise ChildFailed(f"{workload} {mode} child exited {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(cdir)
        return result


class Tally:
    """Output checks attempted and failed over one measurement."""

    def __init__(self):
        self.attempted = 0
        self.names = set()
        self.failed = []
        self.first_digest = None

    def add(self, name, ok):
        self.attempted += 1
        self.names.add(name)
        if not ok:
            self.failed.append(name)

    def run(self, result):
        for name, ok in result["checks"]:
            self.add(name, ok)
        if self.first_digest is None:
            self.first_digest = result["digest"]
        else:
            self.add(DIGEST_CHECK, result["digest"] == self.first_digest)

    @property
    def error_rate(self):
        return len(self.failed) / self.attempted if self.attempted else 1.0


def measure(session, workload, seed, seconds, tally):
    """Untraced closed loop: full runs until ``seconds`` are up and at
    least MIN_RUNS runs are done."""
    session.child(workload, seed, "setup")  # byte-compiles; not timed
    runs = []
    end = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or time.monotonic() < end:
        result = session.child(workload, seed, "run")
        tally.run(result)
        runs.append(result)
    samples = {
        "cycles_per_s": [r["cycles"] / r["wall_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
    }
    return runs, samples


def trace(session, workload, seed, tally, untraced_wall_s):
    wall_1thread = 0.0
    if WORKLOADS[workload].threaded:
        one = session.child(workload, seed, "run", threads=1)
        tally.add(THREADS_CHECK, one["digest"] == tally.first_digest)
        wall_1thread = one["wall_s"]
    traced = session.child(workload, seed, "trace")
    tally.run(traced)
    return layer_metrics(traced, session.threads, untraced_wall_s,
                         wall_1thread)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(session):
    probe = session.child(next(iter(WORKLOADS)), 0, "probe")
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": src.hexdigest(),
            "cpus_available": session.threads, "threads": session.threads,
            "python": probe["python"], "numpy": probe["numpy"],
            "numba_imports": probe["numba_imports"],
            "backend": "numba" if probe["numba_imports"] else "numpy"}


def run_workload(session, workload, seed, seconds, traced, env):
    """Measure one workload and print its table.  Returns the tally, the
    end-to-end medians and, when traced, the per-layer metrics (None for
    an absent one)."""
    tally = Tally()
    runs, samples = measure(session, workload, seed, seconds, tally)
    medians = {k: statistics.median(v) for k, v in samples.items()}
    print(f"== {workload}  seed {seed}  {len(runs)} runs, "
          f"{session.threads} threads")
    print(f"   {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}  unit")
    for name, unit in E2E_METRICS.items():
        q1, q3 = _quartiles(samples[name])
        print(f"   {name:<22}{medians[name]:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"  {unit}")
    layers = {}
    if traced:
        layers = trace(session, workload, seed, tally, medians["wall_s"])
        print("   per layer, from one traced run:")
        for name, value in layers.items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"   {name:<36}{shown:>14}  {LAYER_METRICS[name][0]}")
    failed = sorted(set(tally.failed))
    print(f"   {'error_rate':<36}{tally.error_rate:>14.6g}  ratio "
          f"({len(tally.failed)} of {tally.attempted} checks failed"
          + (f": {', '.join(failed)})" if failed else ")"))
    detail = {"workload": workload, "seed": seed, "runs": len(runs),
              "error_rate": tally.error_rate, "failed_checks": failed,
              "medians": medians,
              "quartiles": {k: _quartiles(v) for k, v in samples.items()},
              "absent": sorted(k for k, v in layers.items() if v is None),
              "env": env}
    print("detail " + json.dumps(detail))
    return tally, medians, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exit, so the running child is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "demon_battery" / "__init__.py").is_file():
        print(f"error: no demon_battery package under {SRC}; run from the "
              f"root of a demon-battery checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    session = Session({name: WORKLOADS[name].size for name in WORKLOADS})
    try:
        env = environment(session)
        print("env " + json.dumps(env))
        attempted, failed, metrics = 0, 0, {}
        for name in names:
            tally, reported, layers = run_workload(
                session, name, args.seed, args.seconds, bool(args.trace), env)
            attempted += tally.attempted
            failed += len(tally.failed)
            prefix = f"{name}." if len(names) > 1 else ""
            if args.trace:
                found = {k: {"value": 0.0 if v is None else v,
                             "unit": LAYER_METRICS[k][0]}
                         for k, v in layers.items()}
            else:
                found = {k: {"value": reported[k], "unit": unit}
                         for k, unit in E2E_METRICS.items()}
            metrics.update({prefix + k: v for k, v in found.items()})
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
