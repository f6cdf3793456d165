"""Constant-adaptivity maximization driver over a value+gradient oracle.

One core loop serves two users, both through a MultilinearOracle:
unconstrained submodular maximization through the multilinear extension
(exact or sampled mode) and box-constrained maximization of a smooth
diminishing-returns function (direct mode, which answers the objective's
values and gradients as they are).  The loop keeps a pair of points
x <= y with y - x on the all-ones diagonal and contracts the pair until
they meet:

  tau   = F at the all-halves point, a constant-factor proxy for OPT
  gamma = 4 * epsilon * tau, the progress each step must certify
  pre-processing picks the starting diagonal pair in one parallel round
  each update picks a step size from a geometric grid, testing every
  grid point in one parallel round

All comparisons are plain <=; the thresholds carry their own slack.
"""

from dataclasses import dataclass

import numpy as np

from .multilinear import in_cube, sample_set
from .reports import IterationTrace


class ParamOutOfRange(ValueError):
    pass


class StateInvariantViolation(ValueError):
    pass


_CHAIN_TOL = 1e-9     # |y - x - delta| allowed drift


@dataclass
class ContinuousState:
    """Diagonal pair (x, y) with y - x = delta * ones."""
    x: np.ndarray
    y: np.ndarray
    delta: float
    iteration: int = 0

    def validate(self):
        if not (0.0 <= self.delta <= 1.0):
            raise StateInvariantViolation(f"delta={self.delta} outside [0,1]")
        if not (in_cube(self.x) and in_cube(self.y)):
            raise StateInvariantViolation("coordinate outside [0,1], or not finite")
        gap = self.y - self.x - self.delta
        if np.abs(gap).max() > _CHAIN_TOL:
            raise StateInvariantViolation(
                f"y - x deviates from delta*ones by {np.abs(gap).max():g}")
        return self


def check_epsilon(epsilon):
    """The accuracy window of every driver: epsilon in (0, 1/3)."""
    if not (0.0 < epsilon < 1.0 / 3.0):
        raise ParamOutOfRange(f"epsilon must be in (0, 1/3), got {epsilon}")


def _clamp_box(v):
    if not in_cube(v):
        raise StateInvariantViolation("coordinate left [0,1] beyond tolerance, or not finite")
    return np.clip(v, 0.0, 1.0)


def compute_rates(a, b):
    """Mixing rates from the two gradient readings.

    a = grad F(x), b = -grad F(y).  Coordinates with both positive split
    proportionally, a-positive-only coordinates go fully to x, the rest
    fully to y.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    r = np.zeros_like(a)
    both = (a > 0) & (b > 0)
    r[both] = a[both] / (a[both] + b[both])
    r[(a > 0) & (b <= 0)] = 1.0
    return r


def geometric_grid(start, epsilon, stop):
    """The steps start * (1+eps)^j inside [start, stop), for start > 0
    and epsilon > 0 (the callers check epsilon)."""
    pts = []
    g = start
    while g < stop:
        pts.append(g)
        g *= 1.0 + epsilon
    return np.array(pts, dtype=np.float64)


def update_grid(epsilon, delta):
    """Geometric candidate step sizes eps^2 * (1+eps)^j inside [0, delta)."""
    check_epsilon(epsilon)
    return geometric_grid(epsilon * epsilon, epsilon, delta)


def preprocess_grid(epsilon):
    """Arithmetic candidate offsets eps*j inside [eps, 1/2)."""
    check_epsilon(epsilon)
    pts = []
    j = 1
    while epsilon * j < 0.5:
        pts.append(epsilon * j)
        j += 1
    return np.array(pts, dtype=np.float64)


def first_step(grid, tests, bound, fallback):
    """The paper's step rule: the first grid point whose test is <= bound,
    else the fallback (also on an empty grid)."""
    hits = np.flatnonzero(np.asarray(tests) <= bound)
    return float(grid[hits[0]]) if hits.size else fallback


def pre_process(oracle, tau, epsilon):
    """Choose the starting diagonal pair.

    Scans offsets delta in the arithmetic grid for the first one where
    the summed gradient gap between delta*ones and (1-delta)*ones drops
    to 16*tau; one gradient round evaluates the whole grid.  Falls back
    to the all-halves pair when no offset qualifies.
    """
    if not tau >= 0:
        raise ParamOutOfRange(f"tau must be >= 0, got {tau}")
    n = oracle.n
    grid = preprocess_grid(epsilon)
    ones = np.ones(n)
    pts = np.concatenate([np.stack([d * ones, (1 - d) * ones]) for d in grid])
    grads = oracle.gradient_batch(pts)                 # one round
    cond = (grads[0::2] - grads[1::2]).sum(axis=1)
    chosen = first_step(grid, cond, 16.0 * tau, 0.5)
    x = np.full(n, chosen)
    y = np.full(n, 1.0 - chosen)
    delta = 1.0 - 2.0 * chosen
    return ContinuousState(x=x, y=y, delta=max(delta, 0.0)).validate()


def update(oracle, state, gamma, epsilon):
    """One contraction step; at most two adaptive rounds.

    Round 1 reads gradients (and values, for the trace) at x and y.
    Round 2 tests every candidate step size in the geometric grid; the
    smallest certified one wins, and when none is certified the step
    closes the remaining gap entirely.
    """
    state.validate()
    if not (0.0 < state.delta <= 1.0):
        raise StateInvariantViolation(f"update needs delta in (0,1], got {state.delta}")
    if not gamma >= 0:
        raise ParamOutOfRange(f"gamma must be >= 0, got {gamma}")
    meter = oracle.rounds_meter
    r0, q0 = meter.snapshot()

    grads, vals = oracle.grad_and_value_batch(np.stack([state.x, state.y]))
    a = grads[0]
    b = -grads[1]
    Fx, Fy = float(vals[0]), float(vals[1])
    potential = float((a + b).sum())

    r = compute_rates(a, b)
    rhs = float(a @ r + b @ (1.0 - r)) - gamma

    grid = update_grid(epsilon, state.delta)
    lhs = np.empty(0)
    if grid.size:
        pts = np.empty((2 * grid.size, oracle.n))
        pts[0::2] = state.x[None, :] + grid[:, None] * r[None, :]
        pts[1::2] = state.y[None, :] - grid[:, None] * (1.0 - r)[None, :]
        sweep = oracle.gradient_batch(pts)             # one round
        lhs = sweep[0::2] @ r - sweep[1::2] @ (1.0 - r)
    delta_step = first_step(grid, lhs, rhs, state.delta)

    x2 = _clamp_box(state.x + delta_step * r)
    y2 = _clamp_box(state.y - delta_step * (1.0 - r))
    delta2 = min(max(state.delta - delta_step, 0.0), 1.0)
    new_state = ContinuousState(x=x2, y=y2, delta=delta2,
                                iteration=state.iteration + 1).validate()
    r1, q1 = meter.snapshot()
    trace = IterationTrace(
        iteration=state.iteration,
        delta_before=state.delta,
        delta_after=delta2,
        potential=potential,
        Fx=Fx,
        Fy=Fy,
        rounds_used=r1 - r0,
        queries_used=q1 - q0,
    )
    return new_state, trace


@dataclass
class CoreResult:
    x: np.ndarray
    value: float
    tau: float
    gamma: float
    iterations: int
    traces: list
    states: list   # the pair after pre-processing and after every update


def run_core(oracle, epsilon):
    """Full driver: tau, pre-process, update until the pair meets.

    Returns the final point and its value.  A zero tau certifies (for a
    non-negative objective under the exact oracle) that the function is
    identically zero, so the all-halves point is returned immediately --
    otherwise gamma would be 0 and the step grid would degenerate.
    """
    check_epsilon(epsilon)
    n = oracle.n
    tau = float(oracle.value_batch(np.full((1, n), 0.5))[0])   # one round
    gamma = 4.0 * epsilon * tau
    if tau <= 0.0:
        half = np.full(n, 0.5)
        state = ContinuousState(x=half, y=half.copy(), delta=0.0)
        return CoreResult(x=half, value=float(oracle.value_batch(half[None, :])[0]),
                          tau=tau, gamma=gamma, iterations=0, traces=[],
                          states=[state])
    state = pre_process(oracle, tau, epsilon)                  # one round
    states, traces = [state], []
    cap = int(np.ceil(10.0 / epsilon)) + 10
    while state.delta > 0.0:
        if len(traces) >= cap:
            raise RuntimeError(f"update loop exceeded {cap} iterations")
        state, tr = update(oracle, state, gamma, epsilon)
        states.append(state)
        traces.append(tr)
    value = float(oracle.value_batch(state.x[None, :])[0])     # one round
    return CoreResult(x=state.x, value=value, tau=tau, gamma=gamma,
                      iterations=len(traces), traces=traces, states=states)


@dataclass
class ContinuousRunResult:
    core: CoreResult
    rounded: np.ndarray
    rounded_value: float


def run_continuous(moracle, epsilon, seed=0):
    """Maximize through the multilinear extension, then round once.

    The fractional point and its extension value are the guaranteed
    output; the rounded sample is drawn with the given seed and its set
    value evaluated (one extra round).
    """
    core = run_core(moracle, epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x526e64)))
    rounded = sample_set(core.x, rng)
    rounded_value = float(moracle.set_oracle.eval_batch(rounded[None, :])[0])
    return ContinuousRunResult(core=core, rounded=rounded,
                               rounded_value=rounded_value)
