"""One benchmark process: set up one workload, run its passes, gate every
output and print one JSON line with the raw results.

Every time it reports is CPU time of this process (``time.process_time``),
not wall time: the process is single-threaded (BLAS pinned to one thread),
so the two agree on an idle host, but CPU time leaves out the time a shared
host lends the virtual CPU to someone else.  Only the run length is wall.

Started by ``run.py`` from the root of a checkout; not meant to be run by
hand.  Modes:

- ``setup``: set up only, report the set-up time;
- ``measure``: run whole passes while the next one is expected to end
  within ``--seconds``, and at least until ``--min-ops`` operations were timed;
- ``fixed``: run exactly ``--passes`` passes (the traced comparison).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback


def _cache_size(level):
    try:
        size = os.sysconf("SC_LEVEL%d_CACHE_SIZE" % level)
    except (ValueError, OSError):
        return None
    return size if size > 0 else None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l2_bytes": _cache_size(2),
        "l3_bytes": _cache_size(3),
    }


def run_passes(workload, seconds, min_ops, passes, recorder):
    """Time every operation of whole passes.  ``times`` holds, pass by pass,
    the CPU seconds of each operation that returned; ``wall_s`` is the wall
    time all operations took together."""
    times = []
    wall_s = 0.0
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        k = len(times)
        if passes is not None:
            if k >= passes:
                break
        elif k > 0 and sum(map(len, times)) >= min_ops:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / k > seconds:  # the next pass would overrun
                break
        row = []
        for op in workload.pass_ops(k):
            if recorder is not None:
                recorder.active = True
            raised = False
            w0 = time.perf_counter()
            t0 = time.process_time()
            try:
                out = op.call()
            except Exception:
                raised = True
            dt = time.process_time() - t0
            wall_s += time.perf_counter() - w0
            if recorder is not None:
                recorder.active = False
            attempted += 1
            if raised:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            failed += op.gate(out)
            row.append(dt)
        workload.end_pass(k)
        times.append(row)
    return {"times": times, "wall_s": wall_s, "attempted": attempted, "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import workloads
    import magweyl

    if not os.path.abspath(magweyl.__file__).startswith(src + os.sep):
        raise SystemExit("magweyl was imported from %s, not %s" % (magweyl.__file__, src))

    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tmp)
        # CPU time since this process started: interpreter start-up,
        # imports, grids, contexts and warm-up.
        result = {"setup_s": time.process_time()}
        if args.mode != "setup":
            recorder = None
            if args.trace:
                import spans

                recorder = spans.Recorder()
                spans.install(recorder)
            passes = args.passes if args.mode == "fixed" else None
            result.update(run_passes(workload, args.seconds, args.min_ops, passes, recorder))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["env"] = environment()
            if recorder is not None:
                metrics, coverage = spans.per_layer_metrics(
                    recorder, sum(map(sum, result["times"])), workload.check_timings
                )
                result["per_layer"] = metrics
                result["coverage"] = coverage
                result["spans"] = len(recorder.spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
