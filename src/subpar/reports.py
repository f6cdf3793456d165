"""Run reports and per-iteration traces, with stable JSON/CSV output."""

import json
from dataclasses import dataclass, field, asdict

SCHEMA_VERSION = 2


@dataclass
class IterationTrace:
    """One step of the continuous driver."""
    iteration: int
    delta_before: float
    delta_after: float
    potential: float       # sum over coords of grad F(x) - grad F(y)
    Fx: float
    Fy: float
    rounds_used: int
    queries_used: int


@dataclass
class DiscreteIterationTrace:
    """One step of the discrete driver."""
    iteration: int
    delta: float
    potential: float       # sum over Y\\X of f(u|X) - f(u|Y-u)
    x_size: int
    y_size: int
    rounds_used: int
    queries_used: int


@dataclass
class RunReport:
    instance_id: str
    algorithm: str
    epsilon: float | None
    seed: int | None
    solution: dict
    value: float
    opt_value: float | None = None
    ratio: float | None = field(default=None, init=False)   # value / opt_value
    adaptive_rounds: int = 0
    f_queries: int = 0
    F_queries: int | None = None
    grad_queries: int | None = None
    iterations: int | None = None
    trace: list = field(default_factory=list)
    wall_time_ms: float = 0.0
    n: int | None = None
    oracle: str | None = None
    delegated: str | None = None

    def __post_init__(self):
        if self.opt_value is not None and self.opt_value > 0:
            self.ratio = self.value / self.opt_value

    def to_dict(self):
        # asdict recurses into the trace's dataclasses too
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def summary_line(self):
        bits = [f"{self.algorithm}", f"value={self.value:.6g}"]
        if self.ratio is not None:
            bits.append(f"ratio={self.ratio:.4f}")
        bits.append(f"rounds={self.adaptive_rounds}")
        bits.append(f"f_queries={self.f_queries}")
        if self.F_queries:
            bits.append(f"F_queries={self.F_queries}")
        if self.iterations is not None:
            bits.append(f"iterations={self.iterations}")
        return "  ".join(bits)


CSV_COLUMNS = ["n", "epsilon", "seed", "algorithm", "value", "opt", "ratio",
               "rounds", "f_queries", "F_queries", "iterations", "wall_ms"]


def csv_row(report):
    """Flatten a report into the sweep CSV column order."""
    return [
        report.n,
        report.epsilon,
        report.seed,
        report.algorithm,
        report.value,
        report.opt_value,
        report.ratio,
        report.adaptive_rounds,
        report.f_queries,
        report.F_queries,
        report.iterations,
        round(report.wall_time_ms, 3),
    ]

