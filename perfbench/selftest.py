"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute on two CPUs.  It
requires that

1. ``BENCHMARK.json`` names exactly the end-to-end and per-layer metrics
   ``run.py`` reports, with the same units;
2. every workload, untraced and traced, reports each of those metrics,
   none absent, with no failed check, and each per-layer metric is
   nonzero on some workload;
3. every fault in ``workloads.FAULTS`` makes the checks it lists fail,
   and every check the workloads make is listed under some fault, so each
   check is shown to bite.

Exits 0 when all hold, 1 otherwise.
"""

import contextlib
import io
import json
import re
import sys

import run
from tracing import LAYER_METRICS
from workloads import DIGEST_CHECK, FAULTS, THREADS_CHECK, WORKLOADS

SEED = 11


CROSS_RUN = (DIGEST_CHECK, THREADS_CHECK)


def _key(workload, check):
    """Checks made across runs are one piece of code for every workload;
    the others are per workload, with any [grid point] suffix dropped."""
    if check in CROSS_RUN:
        return ("*", check)
    return (workload, re.sub(r"\[.*\]$", "", check))


def contract_matches(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.E2E_METRICS:
        problems.append(f"end_to_end {declared} != {run.E2E_METRICS}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    reported = {k: v[:2] for k, v in LAYER_METRICS.items()}
    if declared != reported:
        problems.append(f"per_layer {declared} != {reported}")
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")


def clean_runs(session, problems):
    """Every metric appears, with its unit, and nothing fails."""
    seen = set()
    measured = set()
    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            tally, reported, layers = run.run_workload(
                session, name, SEED, 0.0, True, {})
        if set(reported) != set(run.E2E_METRICS):
            problems.append(f"{name}: end-to-end metrics {sorted(reported)}")
        absent = [k for k, v in layers.items() if v is None]
        if set(layers) != set(LAYER_METRICS) or absent:
            problems.append(f"{name}: per-layer metrics missing or absent "
                            f"{sorted(set(LAYER_METRICS) - set(layers))} "
                            f"{absent}")
        measured.update(k for k, v in layers.items() if v)
        if tally.failed:
            problems.append(f"{name}: clean run failed {tally.failed}")
        seen.update(_key(name, check) for check in tally.names)
        print(f"clean    {name}: {tally.attempted} checks, "
              f"{len(LAYER_METRICS)} per-layer metrics")
    if set(LAYER_METRICS) - measured:
        problems.append(f"per-layer metrics 0 on every workload: "
                        f"{sorted(set(LAYER_METRICS) - measured)}")
    return seen | {("*", check) for check in CROSS_RUN}


def faults_bite(session, problems):
    covered = set()
    for fault, (workload, _, expected) in FAULTS.items():
        tally = run.Tally()
        if DIGEST_CHECK in expected:
            tally.run(session.child(workload, SEED, "run"))
        result = session.child(workload, SEED, "run", fault=fault)
        tally.run(result)
        if THREADS_CHECK in expected:
            if session.threads < 2:
                print(f"skipped  {fault}: needs two CPUs")
                covered.add(("*", THREADS_CHECK))
                continue
            one = session.child(workload, SEED, "run", threads=1, fault=fault)
            tally.add(THREADS_CHECK, one["digest"] == tally.first_digest)
        failed = set(tally.failed)
        missing = [c for c in expected if c not in failed]
        if missing:
            problems.append(f"fault {fault} did not fail {missing}")
        covered.update(_key(workload, c) for c in expected)
        print(f"fault    {fault}: failed {sorted(failed)}")
    return covered


def main():
    problems = []
    contract_matches(problems)
    session = run.Session({name: w.tiny for name, w in WORKLOADS.items()})
    try:
        seen = clean_runs(session, problems)
        covered = faults_bite(session, problems)
    except run.ChildFailed as exc:
        problems.append(str(exc))
        seen = covered = set()
    finally:
        session.close()
    if seen - covered:
        problems.append(f"checks no fault bites: {sorted(seen - covered)}")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
