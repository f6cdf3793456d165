"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(child.py) that imports the package from the checkout's src/.  With
--trace 0 the last line carries the end-to-end metrics; set-up time is
the median over SETUP_PROBES extra children that only set up, plus the
main child.  With --trace 1 it carries the per-layer metrics of one
traced pass.  The full record (environment, meters, passes, failed
checks) is printed on the line before and written to .perfbench_out/.
Exits 1 when a solve fails a check, 2 when the checkout is incomplete or
a child fails or outlives the deadline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("cont-exact", "cont-sampled", "discrete-wide")
SETUP_PROBES = 8
DEADLINE_S = 170          # children still running then are killed
ENV_VARS = ("SUBPAR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("SUBPAR_THREADS", None)          # gateway threads stay at their default
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, timeout):
    """Run child.py to the end; return (seconds until READY, its record).

    A timer kills a child that outlives `timeout`; the record is None
    for a --setup-only child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip() == "READY"
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().strip().splitlines()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready or proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {argv}")
    if "--setup-only" in argv:
        return setup, None
    if not lines:
        raise ChildFailed(f"child printed no record: {argv}")
    return setup, json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_seconds(solve_times):
    """Time to solution of one pass: each solve's shortest time over the
    passes, summed over the pass's solves.  The first pass only warms
    caches and is left out when others ran.  Noise on a shared machine
    only ever adds time, so the shortest of several repeats is the
    steadiest estimate of what a solve costs.
    """
    timed = solve_times[1:] or solve_times
    return sum(min(repeats) for repeats in zip(*timed))


def end_to_end(record, setups):
    wall = pass_seconds(record["solve_times"])
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "f_queries_per_s": metric(record["meters"]["f_queries"] / wall, "1/s"),
        "peak_rss_mb": metric(record["peak_rss_mb"], "MB"),
    }


def per_layer(record):
    lay = record["layers"]
    busy = lay["busy_s"]
    return {
        "oracles.rounds": metric(lay["rounds"], "count"),
        "oracles.rows_charged": metric(lay["rows_charged"], "count"),
        "oracles.rows_evaluated": metric(lay["rows_evaluated"], "count"),
        "oracles.eval_ratio": metric(lay["eval_ratio"], "ratio"),
        "oracles.self_s": metric(lay["self_s"]["oracles"], "s"),
        "oracles.threads": metric(record["env"]["gateway_threads"], "count"),
        "instances.busy_s": metric(busy, "s"),
        "instances.rows_per_s": metric(lay["rows_evaluated"] / busy if busy else 0.0, "1/s"),
        "instances.bytes_computed": metric(lay["bytes_computed"], "B"),
        "multilinear.self_s": metric(lay["self_s"]["multilinear"], "s"),
        "multilinear.F_queries": metric(record["meters"]["F_queries"], "count"),
        "continuous.self_s": metric(lay["self_s"]["continuous"], "s"),
        "continuous.iterations": metric(lay["continuous_iterations"], "count"),
        "discrete.self_s": metric(lay["self_s"]["discrete"], "s"),
        "discrete.iterations": metric(lay["discrete_iterations"], "count"),
        "discrete.max_batch_bytes": metric(lay["max_batch_bytes"], "B"),
        "trace.overhead_s": metric(record["traced_wall"] - pass_seconds(record["solve_times"]), "s"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: reduced inputs for the benchmark's own test")
    ap.add_argument("--references", default=str(HERE / "references.json"),
                    help="pinned meters and values for the default seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "subpar" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'subpar'} not found; run from a full checkout",
              file=sys.stderr)
        return 2

    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--size", args.size, "--references", args.references]
    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES
    setups = []

    def probe():
        run = run_child(child_argv + ["--setup-only"], deadline - time.monotonic())
        setups.append(run[0])

    try:
        # half the probes before the measuring child and half after, so
        # the set-up median spans the whole run
        for _ in range(probes // 2):
            probe()
        setup, record = run_child(child_argv, deadline - time.monotonic())
        setups.append(setup)
        for _ in range(probes - probes // 2):
            probe()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record["setup_samples"] = setups
    record["parent_env"] = {k: os.environ.get(k) for k in ENV_VARS}
    metrics = per_layer(record) if args.trace else end_to_end(record, setups)
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
