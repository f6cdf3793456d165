"""One workload in one process: set up, time passes, check every solve.

run.py starts this file with PYTHONPATH pointing at the checkout's
src/ and SUBPAR_THREADS removed.  It prints READY once set-up is done
(imports plus instance construction), then runs passes of the
workload's fixed solves, checks each solve outside the timed region,
and prints one JSON record as its last line.  With --trace 1 it runs
untraced passes for half the time, then one pass with the tracer
installed, and adds per-layer aggregates to the record.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _openblas():
    """(version string, thread count) of the BLAS numpy loaded, if OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                           and ln.split()[-1].startswith("/")})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                nthreads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if nthreads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return config().decode(), int(nthreads())
    return None, None


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return {k: sizes[k] for k in ("L2", "L3") if k in sizes}


def environment(np, subpar_oracles):
    blas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gateway_threads": subpar_oracles.default_threads(),
        "openblas_threads": blas_threads,
        "openblas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "caches": _cache_sizes(),
        "child_env": {k: os.environ.get(k) for k in
                      ("SUBPAR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Ledger:
    """Checks every solve and keeps the pass meters for comparison."""

    def __init__(self, workloads, jobs, references):
        self.workloads = workloads
        self.jobs = jobs
        self.references = references
        self.opt = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.meters = None

    def _fail(self, name):
        self.failures[name] = self.failures.get(name, 0) + 1

    def record(self, outcomes, label):
        meters = self.workloads.Meters()
        if self.references is not None and len(self.references) != len(outcomes):
            # the pinned pass had another number of solves: nothing lines up
            self.attempted += len(outcomes)
            self.failed += len(outcomes)
            self._fail("reference solve count")
            return meters
        pass_failed = 0
        for j, (job, out) in enumerate(zip(self.jobs, outcomes)):
            self.attempted += 1
            if isinstance(out, Exception):
                bad = [f"raised {type(out).__name__}: {out}"]
            else:
                meters.add(out)
                if id(job.instance) not in self.opt:
                    self.opt[id(job.instance)] = self.workloads.optimum(job.instance)
                ref = None if self.references is None else self.references[j]
                bad = self.workloads.check(job, out, self.opt[id(job.instance)], ref)
            for name in bad:
                self._fail(name)
                print(f"check failed: {job.workload} key={job.key} [{label}]: {name}",
                      file=sys.stderr)
            pass_failed += bool(bad)
        if self.meters is None:
            self.meters = meters
        elif not meters.same_as(self.meters):
            # a deterministic pass must repeat its meters exactly
            pass_failed = len(outcomes)
            self._fail(f"{label} meters differ from the first pass")
            print(f"check failed: {label} meters {meters} != {self.meters}",
                  file=sys.stderr)
        self.failed += pass_failed
        return meters


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--references", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import subpar
    import subpar.oracles
    import workloads

    src = (ROOT / "src" / "subpar").resolve()
    if Path(subpar.__file__).resolve().parent != src:
        sys.exit(f"imported subpar from {subpar.__file__}, expected {src}")
    jobs = workloads.build(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    references = None
    if args.references and args.seed == workloads.DEFAULT_SEED:
        with open(args.references) as fh:
            references = json.load(fh)[args.size][args.workload]
    ledger = Ledger(workloads, jobs, references)

    # untraced passes: stop before a pass would run past the budget
    budget = args.seconds / 2 if args.trace else args.seconds
    solve_times = []                                  # one list per pass
    start = time.perf_counter()
    while True:
        times, outcomes = workloads.run_pass(jobs)
        jobs = ledger.jobs = jobs[:len(outcomes)]     # the pass is fixed by its first run
        if not solve_times:
            # the solves' own peak: checks compute brute-force optima later
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solve_times.append(times)
        ledger.record(outcomes, f"pass {len(solve_times)}")
        spent = time.perf_counter() - start
        if spent + statistics.median(map(sum, solve_times)) > budget:
            break

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "solves_per_pass": len(jobs),
        "params": dict(jobs[0].params),
        "env": environment(np, subpar.oracles),
        "solve_times": solve_times,
    }
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, outcomes = workloads.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        ledger.record(outcomes, "traced pass")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        record["traced_wall"] = sum(traced_times)
        record["layers"] = tracer.layer_metrics()

    record.update({
        "meters": ledger.meters.counts(),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures,
        "peak_rss_mb": peak_rss_mb,
    })
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
