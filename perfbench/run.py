"""magweyl benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload lattice-warm --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (it imports ``src/magweyl``).  Every
process it starts runs one workload and nothing else, with the BLAS thread
count pinned to 1; they run one after another and each is waited for.

Every time is CPU time of the single-threaded worker process (see
worker.py): on an idle host it equals wall time, and it leaves out the time
a shared host gives the virtual CPU to other guests.

A measuring run times whole passes while the next pass is expected to end
within ``--seconds``, and at least until 100 operations are timed (one pass
on verify-suite).  A pass is the workload's fixed list of operations, so
every run times the same mix.  ``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: CPU time from process start to the first timed operation
  (interpreter, imports, grids, contexts, warm-up); the median over
  ``SETUP_SAMPLES`` fresh processes.
- ``suite_s``: time of one pass, taken as the sum over the pass's
  operations of each one's median over the run's passes; on verify-suite a
  pass is one full ``run_suite(seed)``, run check by check.
- ``throughput_ops_s``: operations of one pass divided by ``suite_s``.
- ``latency_p50_ms``, ``latency_p90_ms``: per operation, over every timed
  operation of the run; closed loop, one caller.  An operation is one
  library call; on verify-suite it is one registry check.
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

``failed_share`` (failed operations / attempted operations) is printed with them and
carried by the ``failed`` and ``attempted`` fields of the result.  The
result is ``correct`` only if every gate held; otherwise the exit code is 1.

``--trace 1`` runs a fixed number of passes twice, untraced and then traced
(perfbench/spans.py), and prints the per-layer metrics of the traced
process plus ``trace.overhead_share``.  The traced run fails if top-level
spans cover less than 90 % of the timed operation time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lattice-warm", "magnetic-cold", "verify-suite", "cli-outputs")
# Fewest timed operations per measuring run: p90 then has ten samples beyond
# it.  A verify-suite pass (about 17 s) has only its 12 checks.
MIN_OPS = {"verify-suite": 1}
MIN_OPS_DEFAULT = 100
SETUP_SAMPLES = 5
# Passes per traced comparison; a lattice-warm pass lasts only about 1.5 s.
TRACED_PASSES = {"lattice-warm": 2}
MIN_COVERAGE = 0.9
DEADLINE_S = 170.0
TMP_DIR = ".perfbench-tmp"


class WorkerError(RuntimeError):
    pass


def _worker(args, mode, deadline, trace=0, extra=()):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--trace", str(trace), "--tmp", TMP_DIR,
    ]
    if args.smoke:
        cmd.append("--smoke")
    cmd.extend(extra)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError("no time left for a %s process" % mode)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=remaining,
                              text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s process ran past the deadline" % mode)
    if proc.returncode != 0:
        raise WorkerError("%s process exited with %d" % (mode, proc.returncode))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def _quantile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(args, deadline):
    setups = [_worker(args, "setup", deadline)["setup_s"]
              for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)]
    res = _worker(args, "measure", deadline, extra=[
        "--seconds", str(args.seconds),
        "--min-ops", str(1 if args.smoke else MIN_OPS.get(args.workload, MIN_OPS_DEFAULT)),
    ])
    setups.append(res["setup_s"])
    lat = [t for row in res["times"] for t in row]
    if not lat:
        raise WorkerError("no operation completed")
    # Each operation's median over the passes: a pass or an operation that
    # the host slowed moves the sum little.
    per_op = [statistics.median(col) for col in zip(*res["times"])]
    pass_s = sum(per_op)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(per_op) / pass_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_quantile90(lat) * 1e3, "ms"),
        "suite_s": (pass_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "latency_samples": len(lat),
        "passes": len(res["times"]),
        "setup_samples": len(setups),
        # Near 1 when the host lent this process its virtual CPU throughout.
        "cpu_per_wall": sum(lat) / res["wall_s"],
        "failed_share": res["failed"] / max(1, res["attempted"]),
    }
    return res, metrics, notes, True


def per_layer(args, deadline):
    passes = str(TRACED_PASSES.get(args.workload, 1))
    base = _worker(args, "fixed", deadline, extra=["--passes", passes])
    res = _worker(args, "fixed", deadline, trace=1, extra=["--passes", passes])
    untraced = sum(map(sum, base["times"]))
    traced = sum(map(sum, res["times"]))
    metrics = {name: tuple(v) for name, v in res["per_layer"].items()}
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    notes = {
        "coverage": res["coverage"],
        "spans": res["spans"],
        "untraced_s": untraced,
        "traced_s": traced,
        "failed_share": res["failed"] / max(1, res["attempted"]),
    }
    covered = res["coverage"] >= MIN_COVERAGE
    if not covered:
        print("top-level spans cover %.3f of the operation time (< %.2f): a wrapper is missing"
              % (res["coverage"], MIN_COVERAGE), file=sys.stderr)
    base_ok = base["failed"] == 0
    return res, metrics, notes, covered and base_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, one pass, one set-up sample (for the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not os.path.isfile(os.path.join("src", "magweyl", "__init__.py")):
        print("error: run from the root of a magweyl checkout (no src/magweyl here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        res, metrics, notes, ok = measure(args, deadline)
    except WorkerError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(TMP_DIR)  # each worker removes its own directory inside
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit))
    print("%-48s %.6g share" % ("failed_share", notes.pop("failed_share")))
    print(json.dumps({"env": res["env"], "workload": args.workload, "seed": args.seed,
                      **notes}, sort_keys=True))
    correct = ok and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
