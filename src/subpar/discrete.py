"""Discrete constant-adaptivity driver using only a set-value oracle.

Mirror of the continuous driver with sampling in place of the extension
oracle: marginal gains replace gradients, a fixed iteration budget
replaces the while-loop, and every step-size test is a Monte-Carlo
estimate averaged over independent draws.  All randomness is drawn from
sub-streams keyed by (seed, phase, iteration, grid index) so runs are
reproducible.  A grid's sub-streams are seeded together (_streams):
numpy's seeding runs once over all of the grid's keys, and each stream
draws exactly what its own default_rng(SeedSequence(key)) would.

No round allocates an array larger than ROUND_BYTES; a run that would
is refused with RoundTooLarge before the array is made, and before its
first round when pre-processing or a G-estimate draw with every
element undecided would.

The sample counts are the analysis counts, which are astronomically
conservative; an optional override caps the two per-grid-point counts
and keeps the same structure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .continuous import (ParamOutOfRange, StateInvariantViolation, check_epsilon,
                         compute_rates, first_step, geometric_grid, preprocess_grid)
from .oracles import _EVAL_CHUNK, _distinct_rows, ids_of, is_integer
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


class RoundTooLarge(ParamOutOfRange):
    """A round would allocate more than ROUND_BYTES: epsilon too small
    or sample_override too large for this ground set."""


ROUND_BYTES = 1 << 31     # the largest array one round may allocate, 2 GiB


def _check_round(phase, *nbytes):
    """Refuse a round before it allocates an array over ROUND_BYTES."""
    need = max(nbytes)
    if need > ROUND_BYTES:
        raise RoundTooLarge(
            f"the {phase} round needs a {need / 2**30:.1f} GiB array, over the "
            f"{ROUND_BYTES / 2**30:.0f} GiB a round may allocate: "
            f"raise epsilon or lower sample_override")


def _check_preprocess(n, count, m):
    """The pre-processing round's budget: its bases, the gateway's pair
    rows (twice the bases) and their float values, none over
    4*m*n*max(n, 8) bytes per grid point, and one point's draws."""
    _check_round("pre-processing", 4 * count * m * n * max(n, 8), 8 * m * n * n)


def _check_g_draw(count, m, k):
    """The G-estimate round's budget before its draw: the uniforms,
    (candidate, 2, m, k) floats, the largest of its per-sample arrays."""
    _check_round("G-estimate", 16 * count * m * k)


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key)))


# numpy's SeedSequence hash and mix constants, and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(value):
    """The little-endian uint32 words SeedSequence reads from one int."""
    value = int(value)
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _streams(seed, *key, count):
    """For g < count, a generator that draws exactly what
    _stream(seed, *key, g) draws.

    numpy's SeedSequence entropy assembly, pool mixing and
    generate_state(4, uint64) run once over all count keys, as uint32
    vectors.  Each state becomes PCG64's seeded state by its two 128-bit
    LCG steps and is set on one reused Generator, so each generator
    yielded is valid only until the next one is.
    """
    prefix = _words(seed) + [w for k in key for w in _words(k)]
    # the entropy words, one column per key, zero-padded to the pool's four
    entropy = np.zeros((max(4, len(prefix) + 1), count), dtype=np.uint32)
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(count, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        z = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return z ^ z >> np.uint32(16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight uint32 words, paired low word first
    state = np.empty((8, count), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[i] = value ^ value >> np.uint32(16)
    words = state[0::2] | state[1::2] << np.uint64(32)
    bit_gen = np.random.PCG64(0)          # its state is set before each draw
    rng = np.random.Generator(bit_gen)
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        lcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": lcg, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        yield rng


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
    _check_preprocess(n, grid.size, m)
    # one pair draw per coordinate u: [grid point, sample, X/Y side, u, element]
    bases = np.empty((grid.size, m, 2, n, n), dtype=bool)
    for g, (d, rng) in enumerate(zip(grid, _streams(seed, 2, count=grid.size))):
        bases[g, :, 0], bases[g, :, 1] = _pair_draw(rng.random((m, n, n)), d)
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
    undecided elements.  Candidate g draws its X-side then its Y-side
    (m, k) uniforms from the sub-stream keyed (seed, 4, iteration, g),
    so estimates are reproducible and independent across candidates.
    The grid's sub-streams are seeded together by _streams and fill one
    buffer, thresholded at once into the (candidate, sample, side, k)
    pattern of the undecided elements each stepped base keeps.  Every
    stepped base lies in [X, Y], so it is X plus its pattern, one to one:
    the distinct patterns in first-seen order are the distinct bases in
    first-seen order.  Only those are laid out, and one eval_gains round
    evaluates each once plus its single-element flips, charged for every
    stepped base by its count.  The rate weights are applied at the
    distinct bases, and each sample gathers its X-side and Y-side rows.
    """
    n = set_oracle.n
    idx = np.flatnonzero(Y & ~X)
    k = idx.size
    if k == 0:
        raise StateInvariantViolation("g_estimates needs an undecided element (X != Y)")
    if deltas.size == 0:
        raise ParamOutOfRange("g_estimates needs at least one step size")
    _check_g_draw(deltas.size, m, k)
    u = np.empty((deltas.size, 2, m, k))                  # [candidate, X/Y side, sample]
    for g, rng in enumerate(_streams(seed, 4, iteration, count=deltas.size)):
        rng.random(out=u[g])
    d = deltas[:, None, None]
    # idx lies outside X and inside Y, so on idx X u R is R and Y \ R is not R
    keep = np.empty((deltas.size, m, 2, k), dtype=bool)  # [candidate, sample, X/Y side]
    np.less(u[:, 0], d * r, out=keep[:, :, 0])            # R(d*r)
    np.greater_equal(u[:, 1], d * (1.0 - r), out=keep[:, :, 1])   # not R(d*(1-r))
    del u
    keep, which = _distinct_rows(keep.reshape(-1, k))
    # the distinct bases' float values, and one evaluation slice of their
    # flip rows: whole bases of k+1 rows, so at most a chunk plus k rows
    _check_round("G-estimate", 8 * len(keep) * (k + 1), (_EVAL_CHUNK + k) * n)
    bases = np.repeat(X[None], len(keep), axis=0)
    bases[:, idx] = keep
    gains = set_oracle.eval_gains(bases, idx, counts=np.bincount(which))
    # which runs [candidate, sample, X/Y side]: each sample's X-side row
    # less its Y-side row, the rates applied once per distinct base
    per_u = np.take(r * gains, which[0::2], axis=0)
    per_u -= np.take((1.0 - r) * gains, which[1::2], axis=0)
    return per_u.sum(axis=1).reshape(deltas.size, m).mean(axis=1)


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
    n = set_oracle.n
    # refuse a run over the budget before its first round: pre-processing,
    # and the G-estimate draw at its widest, every element undecided
    _check_preprocess(n, preprocess_grid(p.epsilon).size, p.preprocess_samples)
    _check_g_draw(discrete_update_grid(p.epsilon).size, p.update_samples, n)
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
