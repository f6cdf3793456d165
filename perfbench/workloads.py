"""The benchmark's workloads: inputs made from a seed, one solve, its checks.

A workload is a fixed list of solves (a "pass").  `build` makes the
list from the benchmark seed alone; the package receives only the
generated instances and parameters.  `solve` runs one of them through
the public drivers and returns its meters and answer; `check` tests
that answer against the paper's structural bounds and, for the default
seed, against the pinned references.  See README.md for why each
workload exists and which layer it stresses.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from subpar import (DiscreteParams, MultilinearOracle, SetOracle, brute_force,
                    generate_random_instance, run_continuous, run_discrete)

DEFAULT_SEED = 0
_STRIDE = 1000          # solve j of benchmark seed s uses key s*_STRIDE + j

# Inputs per workload.  A pass runs `solves` solves, or, when `queries`
# is set, the first of them that together charge at least `queries`
# set queries: the discrete driver's work per solve swings with its
# random trajectory (X may meet Y early), its time follows its charged
# queries, and a query budget keeps the work of a pass steady across
# benchmark seeds while the pass stays a function of the seed alone.
# "discrete-wide" keeps n > 16, so the gateway's dedupe path is
# bypassed, and n <= 20, so the brute-force optimum stays cheap.
# "smoke" keeps every code path of "full" at about a second per pass.
SIZES = {
    "full": {
        "cont-exact": dict(driver="continuous", n=14, eps=0.1, mode="exact", solves=8),
        "cont-sampled": dict(driver="continuous", n=20, eps=0.1, mode="sampled",
                             samples=200, solves=2),
        "discrete-wide": dict(driver="discrete", n=20, eps=0.1, m=100, solves=40,
                              queries=12_000_000),
    },
    "smoke": {
        "cont-exact": dict(driver="continuous", n=8, eps=0.2, mode="exact", solves=2),
        "cont-sampled": dict(driver="continuous", n=10, eps=0.2, mode="sampled",
                             samples=50, solves=1),
        "discrete-wide": dict(driver="discrete", n=18, eps=0.2, m=10, solves=4,
                              queries=15_000),
    },
}

NAMES = tuple(SIZES["full"])


@dataclass
class Job:
    """One solve's inputs."""
    workload: str
    key: int
    instance: object
    params: dict


@dataclass
class Outcome:
    """One solve's meters and answer."""
    rounds: int
    f_queries: int
    F_queries: int
    iterations: int
    value: float
    rounded_value: float | None = None
    chain_ok: bool = True

    def reference_row(self):
        return [self.rounds, self.f_queries, self.F_queries, self.iterations, self.value]


@dataclass
class Meters:
    """Meters of one pass, summed over its solves."""
    rounds: int = 0
    f_queries: int = 0
    F_queries: int = 0
    iterations: int = 0
    values: list = field(default_factory=list)

    def add(self, out):
        self.rounds += out.rounds
        self.f_queries += out.f_queries
        self.F_queries += out.F_queries
        self.iterations += out.iterations
        self.values.append(out.value)

    def counts(self):
        return {"rounds": self.rounds, "f_queries": self.f_queries,
                "F_queries": self.F_queries, "iterations": self.iterations}

    def same_as(self, other):
        return (self.counts() == other.counts() and len(self.values) == len(other.values)
                and all(map(_close, self.values, other.values)))


def build(workload, seed, size="full"):
    """The workload's pass for this benchmark seed."""
    p = SIZES[size][workload]
    jobs = []
    for j in range(p["solves"]):
        key = _STRIDE * int(seed) + j
        jobs.append(Job(workload, key, generate_random_instance("cut", p["n"], key), p))
    return jobs


def solve(job):
    p = job.params
    so = SetOracle(job.instance)
    if p["driver"] == "continuous":
        rng = np.random.default_rng(np.random.SeedSequence((job.key, 0x5A11)))
        mo = MultilinearOracle(so, mode=p["mode"], samples=p.get("samples", 1000), rng=rng)
        res = run_continuous(mo, p["eps"], seed=job.key)
        return Outcome(rounds=so.accounting.rounds, f_queries=so.accounting.queries,
                       F_queries=mo.F_queries, iterations=res.core.iterations,
                       value=res.core.value, rounded_value=res.rounded_value)
    res = run_discrete(so, DiscreteParams(epsilon=p["eps"], sample_override=p["m"],
                                          seed=job.key))
    return Outcome(rounds=so.accounting.rounds, f_queries=so.accounting.queries,
                   F_queries=0, iterations=res.iterations, value=res.value,
                   chain_ok=all(t.x_size <= t.y_size for t in res.traces))


def run_pass(jobs, tracer=None):
    """Time one pass over the jobs, in order, until the query budget is met.

    Returns (seconds per solve, outcomes); a solve that raises leaves its
    exception in place of an outcome and counts no queries.
    """
    budget = jobs[0].params.get("queries")
    times = []
    outcomes = []
    charged = 0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = solve(job)
            else:
                with tracer.root("solve"):
                    out = solve(job)
            charged += out.f_queries
        except Exception as exc:      # a failed solve is counted, not fatal
            out = exc
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
        if budget is not None and charged >= budget:
            break
    return times, outcomes


def optimum(instance):
    """OPT of a cut instance, by brute force."""
    return brute_force(SetOracle(instance))[1]


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check(job, out, opt, reference=None):
    """Names of the checks this solve fails; empty when it passes."""
    p = job.params
    eps = p["eps"]
    bad = []
    top = opt * (1 + 1e-9)
    if p["driver"] == "continuous":
        if out.rounds > 2 * out.iterations + 4:
            bad.append("rounds <= 2*iterations+4")
        if out.iterations > math.floor(5.0 / eps) + 1:
            bad.append("iterations <= floor(5/eps)+1")
        if not 0.0 <= out.rounded_value <= top:
            bad.append("rounded value in [0, OPT]")
    else:
        ell = DiscreteParams(epsilon=eps).ell
        if out.iterations != ell:
            bad.append("iterations == ell")
        if out.rounds > 2 * ell + 4:
            bad.append("rounds <= 2*ell+4")
        if not out.chain_ok:
            bad.append("x_size <= y_size in every trace")
    if not 0.0 < out.value <= top:
        bad.append("value in (0, OPT]")
    if reference is not None:
        names = ("rounds", "f_queries", "F_queries", "iterations")
        for name, got, want in zip(names, out.reference_row(), reference):
            if got != want:
                bad.append(f"reference {name}")
        if not _close(out.value, reference[4]):
            bad.append("reference value")
    return bad
