"""Discrete constant-adaptivity driver using only a set-value oracle.

Mirror of the continuous driver with sampling in place of the extension
oracle: marginal gains replace gradients, a fixed iteration budget
replaces the while-loop, and every step-size test is a Monte-Carlo
estimate averaged over independent draws.  All randomness is drawn from
sub-streams keyed by (iteration, grid index) so runs are reproducible
and samples could be generated in parallel.

The sample counts are the analysis counts, which are astronomically
conservative; an optional override caps the two per-grid-point counts
and keeps the same structure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .continuous import (ParamOutOfRange, StateInvariantViolation, check_epsilon,
                         compute_rates, first_step, geometric_grid, preprocess_grid)
from .oracles import ids_of, is_integer
from .reports import DiscreteIterationTrace


@dataclass
class DiscreteParams:
    """Parameters of the discrete driver.

    epsilon lies in (0, 1/3), the continuous driver's window.  The
    sample counts are the analysis counts; sample_override caps the two
    G-estimator counts, never the tau count.  Epsilon <= 1/208 with no
    override is the regime of the (1/2 - epsilon) analysis.
    """
    epsilon: float
    sample_override: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_epsilon(self.epsilon)
        override = self.sample_override
        if override is not None and not (is_integer(override) and override >= 1):
            raise ParamOutOfRange(f"sample_override must be an integer >= 1, got {override!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ParamOutOfRange(f"seed must be an integer >= 0, got {self.seed!r}")

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
        if self.sample_override is not None:
            m = min(m, self.sample_override)
        return m

    @property
    def preprocess_samples(self):
        e = self.epsilon
        m = math.ceil(36.0 * e ** -2 * math.log(3.0 * e ** -2))
        if self.sample_override is not None:
            m = min(m, self.sample_override)
        return m


def discrete_update_grid(epsilon):
    """Geometric step grid eps^2/ln(1/eps) * (1+eps)^j inside [0, 1)."""
    check_epsilon(epsilon)
    return geometric_grid(epsilon * epsilon / math.log(1.0 / epsilon), epsilon, 1.0)


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key)))


def estimate_tau(set_oracle, seed, m):
    """Mean set value over m fresh draws of the all-halves sampling, one round."""
    n = set_oracle.n
    rng = _stream(seed, 1)
    draws = rng.random((m, n)) < 0.5
    return float(set_oracle.eval_batch(draws).mean())


def _pair_draw(u_mat, delta):
    """Correlated pair (X, Y) from one uniform per element: both with
    probability delta, neither with probability delta, Y-only otherwise."""
    in_x = u_mat < delta
    in_y = in_x | (u_mat >= 2.0 * delta)
    return in_x, in_y


def discrete_preprocess(set_oracle, tau, epsilon, seed, m):
    """Pick the starting offset delta and draw the initial (X, Y) pair.

    For each candidate offset the G estimator averages, over m fresh
    samples and with an independent pair draw per coordinate, the summed
    marginal gap between the X-side and Y-side draws.  The first offset
    with G <= 30*tau wins; otherwise delta = 1/2, which collapses the
    pair to X = Y.  All candidates are estimated in one round.
    """
    n = set_oracle.n
    grid = preprocess_grid(epsilon)
    # one pair draw per coordinate u: [grid point, sample, X/Y side, u, element]
    bases = np.empty((grid.size, m, 2, n, n), dtype=bool)
    for g, d in enumerate(grid):
        u_mat = _stream(seed, 2, g).random((m, n, n))
        bases[g, :, 0], bases[g, :, 1] = _pair_draw(u_mat, d)
    gains = set_oracle.eval_gains(bases.reshape(-1, n, n), np.arange(n))  # one round
    gains = gains.reshape(grid.size, m, 2, n)
    G = (gains[:, :, 0] - gains[:, :, 1]).sum(axis=2).mean(axis=1)
    delta = first_step(grid, G, 30.0 * tau, 0.5)
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


def discrete_update(set_oracle, X, Y, epsilon, seed, iteration, m):
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

    # round 1: marginals a_u = f(u|X), b_u = -f(u|Y-u)
    # per element, not shared: a shared f(X) breaks zero-potential float ties the other way
    bases = np.repeat(np.stack([X, Y])[:, None], idx.size, axis=1)
    g = set_oracle.eval_gains(bases, idx)
    a, b = g[0], -g[1]
    potential = float((a + b).sum())
    r = compute_rates(a, b)
    gamma = epsilon * potential
    rhs = float(a @ r + b @ (1.0 - r)) - 2.0 * gamma

    # round 2: G estimates for the whole grid
    grid = discrete_update_grid(epsilon)
    G = g_estimates(set_oracle, X, Y, r, grid, seed, iteration, m)
    delta = first_step(grid, G, rhs, 1.0)

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
    undecided elements.  The marginals come from one eval_gains round,
    which evaluates each distinct stepped set once plus its
    single-element flips.  Sample s of candidate g comes from the
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
    # idx lies outside X and inside Y, so on idx X u R is R and Y \ R is not R
    on_idx = np.empty((deltas.size, m, 2, k), dtype=bool)   # [candidate, sample, X/Y side]
    for g, d in enumerate(deltas):
        rng = _stream(seed, 4, iteration, g)
        on_idx[g, :, 0] = rng.random((m, k)) < d * r                  # R(d*r)
        on_idx[g, :, 1] = rng.random((m, k)) >= d * (1.0 - r)         # not R(d*(1-r))
    bases = np.empty((deltas.size, m, 2, n), dtype=bool)
    bases[:, :, 0] = X
    bases[:, :, 1] = Y
    bases[..., idx] = on_idx
    gains = set_oracle.eval_gains(bases.reshape(-1, n), idx).reshape(deltas.size, m, 2, k)
    per_u = r[None, None, :] * gains[:, :, 0] - (1.0 - r)[None, None, :] * gains[:, :, 1]
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
        # per element, not shared: X+u beside its X makes a zero gain exactly zero
        gain = set_oracle.eval_gains(np.repeat(X[None, None], idx.size, axis=1), idx)[0]
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
    tau = estimate_tau(set_oracle, p.seed, m=p.tau_samples)
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
