"""Discrete constant-adaptivity driver using only a set-value oracle.

Mirror of the continuous driver with sampling in place of the extension
oracle: marginal gains replace gradients, a fixed iteration budget
replaces the while-loop, and every step-size test is a Monte-Carlo
estimate averaged over independent draws.  All randomness is drawn from
sub-streams keyed by (iteration, grid index) so runs are reproducible
and samples could be generated in parallel.

Theorem-grade sample counts are astronomically conservative; engineering
mode keeps the same structure but caps the per-grid-point sample counts
with a user-supplied override.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .continuous import (ParamOutOfRange, StateInvariantViolation, check_grid_epsilon,
                         compute_rates, preprocess_grid)
from .oracles import ids_of, pair_rows
from .reports import DiscreteIterationTrace

THEOREM_EPS_MAX = 1.0 / 208.0


@dataclass
class DiscreteParams:
    """Parameters of the discrete driver.

    mode "theorem" enforces epsilon <= 1/208 and uses the analysis
    sample counts; mode "engineering" allows epsilon < 1/3 and caps the
    two G-estimator sample counts at sample_override.
    """
    epsilon: float
    mode: str = "engineering"
    sample_override: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("theorem", "engineering"):
            raise ParamOutOfRange(f"unknown mode {self.mode!r}")
        if self.mode == "theorem":
            if not (0.0 < self.epsilon <= THEOREM_EPS_MAX):
                raise ParamOutOfRange(
                    f"theorem mode needs epsilon in (0, 1/208], got {self.epsilon}")
        else:
            if not (0.0 < self.epsilon < 1.0 / 3.0):
                raise ParamOutOfRange(
                    f"engineering mode needs epsilon in (0, 1/3), got {self.epsilon}")
        if self.sample_override is not None and self.sample_override < 1:
            raise ParamOutOfRange("sample_override must be >= 1")

    @property
    def ell(self):
        e = self.epsilon
        return math.ceil(math.log(1.0 / e) / e)

    @property
    def tau_samples(self):
        return math.ceil(200.0 * math.log(6.0 / self.epsilon))

    @property
    def update_samples(self):
        e = self.epsilon
        m = math.ceil(math.log(112.0 * e ** -3 * math.log(1.0 / e) ** 2) / (2.0 * e * e))
        if self.mode == "engineering" and self.sample_override is not None:
            m = min(m, self.sample_override)
        return m

    @property
    def preprocess_samples(self):
        e = self.epsilon
        m = math.ceil(36.0 * e ** -2 * math.log(3.0 * e ** -2))
        if self.mode == "engineering" and self.sample_override is not None:
            m = min(m, self.sample_override)
        return m


def discrete_update_grid(epsilon):
    """Geometric step grid eps^2/ln(1/eps) * (1+eps)^j inside [0, 1)."""
    check_grid_epsilon(epsilon, upper=1.0)
    pts = []
    g = epsilon * epsilon / math.log(1.0 / epsilon)
    while g < 1.0:
        pts.append(g)
        g *= 1.0 + epsilon
    return np.array(pts, dtype=np.float64)


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key)))


def estimate_tau(set_oracle, epsilon, seed, m=None):
    """Mean set value over m fresh draws of the all-halves sampling, one round."""
    n = set_oracle.n
    if m is None:
        m = DiscreteParams(epsilon=epsilon).tau_samples
    rng = _stream(seed, 1)
    draws = rng.random((m, n)) < 0.5
    return float(set_oracle.eval_batch(draws).mean())


def _pair_draw(u_mat, delta):
    """Correlated pair (X, Y) from one uniform per element: both with
    probability delta, neither with probability delta, Y-only otherwise."""
    in_x = u_mat < delta
    in_y = in_x | (u_mat >= 2.0 * delta)
    return in_x, in_y


def discrete_preprocess(set_oracle, tau, epsilon, seed, m=None):
    """Pick the starting offset delta and draw the initial (X, Y) pair.

    For each candidate offset the G estimator averages, over m fresh
    samples and with an independent pair draw per coordinate, the summed
    marginal gap between the X-side and Y-side draws.  The first offset
    with G <= 30*tau wins; otherwise delta = 1/2, which collapses the
    pair to X = Y.  All candidates are estimated in one round.
    """
    n = set_oracle.n
    grid = preprocess_grid(epsilon)
    if m is None:
        m = DiscreteParams(epsilon=epsilon).preprocess_samples
    if grid.size == 0:
        delta = 0.5
    else:
        # one pair draw per coordinate u: [grid point, sample, X/Y side, u, element]
        bases = np.empty((grid.size, m, 2, n, n), dtype=bool)
        for g, d in enumerate(grid):
            u_mat = _stream(seed, 2, g).random((m, n, n))
            bases[g, :, 0], bases[g, :, 1] = _pair_draw(u_mat, d)
        rows = pair_rows(bases.reshape(-1, n, n), np.arange(n))
        vals = set_oracle.eval_batch(rows.reshape(-1, n))   # one round
        vals = vals.reshape(grid.size, m, 2, 2, n)
        gains = ((vals[:, :, 0, 0] - vals[:, :, 0, 1])
                 - (vals[:, :, 1, 0] - vals[:, :, 1, 1]))
        G = gains.sum(axis=2).mean(axis=1)
        delta = 0.5
        for g in range(grid.size):
            if G[g] <= 30.0 * tau:
                delta = float(grid[g])
                break
    rng = _stream(seed, 3)
    in_x, in_y = _pair_draw(rng.random(n), delta)
    return in_x, in_y


def round_step(X, Y, r, delta, rng):
    """Randomized rounding of one update step.

    Per undecided element, one uniform V: V < delta*r_u adds u to X,
    delta*r_u <= V < delta removes u from Y, otherwise u stays
    undecided.  At delta = 1 every element resolves and X meets Y.
    """
    diff = Y & ~X
    idx = np.flatnonzero(diff)
    X2, Y2 = X.copy(), Y.copy()
    if idx.size:
        v = rng.random(idx.size)
        add = v < delta * r[idx]
        drop = ~add & (v < delta)
        X2[idx[add]] = True
        Y2[idx[drop]] = False
    return X2, Y2


def discrete_update(set_oracle, X, Y, epsilon, seed, iteration, m=None):
    """One contraction step of the discrete driver; two rounds when work
    remains, zero when X already equals Y.

    Round 1 reads the four marginal values per undecided element.
    Round 2 estimates, for every step size in the geometric grid at
    once, the expected post-step gain via m independent draws; the
    smallest step whose estimate clears the 2-gamma margin wins, with a
    full step (delta = 1) as the fallback.  The step is then applied by
    randomized rounding.
    """
    if (X & ~Y).any():
        raise StateInvariantViolation("X must be contained in Y")
    n = set_oracle.n
    diff_mask = Y & ~X
    idx = np.flatnonzero(diff_mask)
    meter = set_oracle.accounting
    r0, q0 = meter.snapshot()
    if idx.size == 0:
        trace = DiscreteIterationTrace(iteration=iteration, delta=0.0, potential=0.0,
                                       x_size=int(X.sum()), y_size=int(Y.sum()),
                                       rounds_used=0, queries_used=0)
        return X.copy(), Y.copy(), trace
    if m is None:
        m = DiscreteParams(epsilon=epsilon).update_samples
    k = idx.size

    # round 1: marginals a_u = f(u|X), b_u = -f(u|Y-u)
    vals = set_oracle.eval_batch(pair_rows(np.stack([X, Y]), idx).reshape(-1, n))
    vals = vals.reshape(2, 2, k)          # [X/Y, plus/minus u, element]
    a = vals[0, 0] - vals[0, 1]
    b = vals[1, 1] - vals[1, 0]
    potential = float((a + b).sum())
    r = compute_rates(a, b)
    gamma = epsilon * float((a + b).sum())
    rhs = float(a @ r + b @ (1.0 - r)) - 2.0 * gamma

    # round 2: G estimates for the whole grid
    grid = discrete_update_grid(epsilon)
    G = g_estimates(set_oracle, X, Y, r, grid, seed, iteration, m)
    delta = 1.0
    hits = np.flatnonzero(G <= rhs)
    if hits.size:
        delta = float(grid[hits[0]])

    X2, Y2 = round_step(X, Y, _expand(r, idx, n), delta, _stream(seed, 5, iteration))
    r1, q1 = meter.snapshot()
    trace = DiscreteIterationTrace(iteration=iteration, delta=delta, potential=potential,
                                   x_size=int(X2.sum()), y_size=int(Y2.sum()),
                                   rounds_used=r1 - r0, queries_used=q1 - q0)
    return X2, Y2, trace


def g_estimates(set_oracle, X, Y, r, deltas, seed, iteration, m):
    """Monte-Carlo estimate of the expected post-step gain, one value per
    candidate step size, all candidates in a single round.

    For each candidate d and sample: draw R_x ~ product(d * r) over the
    undecided set and R_y ~ product(d * (1-r)), form the stepped pair
    (X u R_x, Y \\ R_y), and read the rate-weighted marginal sum across
    undecided elements.  Sample s of candidate g comes from the
    sub-stream keyed (seed, 4, iteration, g), so estimates are
    reproducible and independent across candidates.
    """
    n = set_oracle.n
    idx = np.flatnonzero(Y & ~X)
    k = idx.size
    if k == 0:
        raise StateInvariantViolation("g_estimates needs an undecided element (X != Y)")
    if deltas.size == 0:
        raise ParamOutOfRange("g_estimates needs at least one step size")
    bases = np.empty((deltas.size, m, 2, n), dtype=bool)   # [candidate, sample, X/Y side]
    bases[:, :, 0] = X
    bases[:, :, 1] = Y
    for g, d in enumerate(deltas):
        rng = _stream(seed, 4, iteration, g)
        draw_x = rng.random((m, k)) < d * r[None, :]
        draw_y = rng.random((m, k)) < d * (1.0 - r)[None, :]
        bases[g, :, 0][:, idx] |= draw_x        # X u R(d*r)
        bases[g, :, 1][:, idx] &= ~draw_y       # Y \ R(d*(1-r))
    rows = pair_rows(bases.reshape(-1, n), idx)
    vals = set_oracle.eval_batch(rows.reshape(-1, n))   # one round
    vals = vals.reshape(deltas.size, m, 2, 2, k)
    per_u = (r[None, None, :] * (vals[:, :, 0, 0] - vals[:, :, 0, 1])
             - (1.0 - r)[None, None, :] * (vals[:, :, 1, 0] - vals[:, :, 1, 1]))
    return per_u.sum(axis=2).mean(axis=1)


def _expand(r_diff, idx, n):
    r = np.zeros(n)
    r[idx] = r_diff
    return r


def finalize(set_oracle, X, Y):
    """Keep X plus every undecided element with a positive marginal."""
    if (X & ~Y).any():
        raise StateInvariantViolation("X must be contained in Y")
    idx = np.flatnonzero(Y & ~X)
    Z = X.copy()
    if idx.size:
        # element-major rows keep each X+u beside its X, so both land in
        # the same BLAS block and a zero gain comes out exactly zero
        rows = pair_rows(X[None], idx)[0].swapaxes(0, 1).reshape(-1, X.size)
        vals = set_oracle.eval_batch(rows).reshape(idx.size, 2)
        gain = vals[:, 0] - vals[:, 1]
        Z[idx[gain > 0]] = True
    return Z


@dataclass
class DiscreteRunResult:
    members: np.ndarray
    value: float
    tau: float
    iterations: int
    traces: list = field(default_factory=list)

    @property
    def ids(self):
        return ids_of(self.members)


def run_discrete(set_oracle, params):
    """Full discrete driver: tau estimate, pre-processing, exactly ell
    update iterations, then the positive-marginal completion."""
    p = params
    tau = estimate_tau(set_oracle, p.epsilon, p.seed, m=p.tau_samples)
    X, Y = discrete_preprocess(set_oracle, tau, p.epsilon, p.seed,
                               m=p.preprocess_samples)
    traces = []
    for i in range(p.ell):
        X, Y, tr = discrete_update(set_oracle, X, Y, p.epsilon, p.seed, i,
                                   m=p.update_samples)
        traces.append(tr)
    Z = finalize(set_oracle, X, Y)
    value = float(set_oracle.eval_batch(Z[None, :])[0])
    return DiscreteRunResult(members=Z, value=value, tau=tau,
                             iterations=p.ell, traces=traces)
