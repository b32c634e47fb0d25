"""One benchmark run, in a fresh process started by ``run.py``.

Usage: ``python3 perfbench/child.py '<json spec>'``.  The spec names the
workload, its size, seed and thread count, the output directory, the
result file to write, the monotonic time at which the parent started
this process, and a mode:

* ``probe``: report the interpreter, numpy and numba; no workload;
* ``setup``: import the package and prepare the workload, then stop;
* ``run``: prepare, execute once (timed), check the outputs;
* ``trace``: as ``run`` with spans recorded around the package's layers,
  then a tracemalloc pass and a replay of one kernel call.

Set-up time runs from the parent's spawn to the first timed call.  CPU
time and peak RSS are this process's own rusage (``RUSAGE_SELF``), read
when the outputs are written and before they are checked.
"""

import json
import os
import resource
import sys
import time


def _probe():
    import platform

    import numpy
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_imports": numba_imports}


def _tracemalloc_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(spec):
    result = {}
    if spec["mode"] == "probe":
        return _probe()
    t_import = time.monotonic()
    import demon_battery  # noqa: F401
    result["import_s"] = time.monotonic() - t_import

    import workloads

    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer(run_id=f"{spec['workload']}-seed{spec['seed']}")
        tracer.install()
    if spec.get("fault"):
        workloads.FAULTS[spec["fault"]][1]()
    workload = workloads.WORKLOADS[spec["workload"]]
    run = workload.prepare(spec["size"], spec["seed"], spec["threads"],
                           spec["out_dir"])
    t0 = time.monotonic()
    result["setup_s"] = t0 - spec["t_spawn"]
    if spec["mode"] == "setup":
        return result
    run.execute()
    result["wall_s"] = time.monotonic() - t0
    # the process's own usage up to the moment its outputs are written,
    # before the benchmark's checks add CPU time and memory of their own
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
    result["cycles"] = run.cycles
    result["bytes_written"] = run.bytes_written()
    result["digest"] = run.digest()
    result["checks"] = [[name, bool(ok)] for name, ok in run.check()]
    if tracer is None:
        return result

    # tracemalloc slows every allocation, so memory is measured in its own
    # pass, untraced, after the timed one
    memory_dir = spec["out_dir"] + "-memory"
    os.mkdir(memory_dir)
    again = workload.prepare(spec["size"], spec["seed"], spec["threads"],
                             memory_dir)
    result["peak_alloc_bytes"] = _tracemalloc_peak(again.execute)
    result["alloc_bytes_per_cycle"] = 0.0
    if tracer.first_kernel_call is not None:
        fn, args, kwargs = tracer.first_kernel_call
        cycles = len(args[0]) if args else len(kwargs["thetas"])
        peak = _tracemalloc_peak(lambda: fn(*args, **kwargs))
        result["alloc_bytes_per_cycle"] = peak / cycles
    result["spans"] = tracer.spans
    result["present"] = tracer.present
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    out = main(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
