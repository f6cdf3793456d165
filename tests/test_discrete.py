"""Discrete driver: parameters, estimators, rounding, full runs.

Sample-count literals were computed by hand from the closed forms; the
estimator tests compare Monte-Carlo output against exact enumeration.
"""

import math

import numpy as np
import pytest

from subpar import (CutInstance, DiscreteParams, ParamOutOfRange, SetOracle,
                    StateInvariantViolation, generate_random_instance, run_discrete)
from subpar.discrete import (RoundTooLarge, _distinct_rows, _pair_draw, _stream, _streams,
                             discrete_preprocess, discrete_update, discrete_update_grid,
                             estimate_tau, finalize, g_estimates, round_step)
import subpar.oracles as oracles
from subpar.oracles import OracleAccounting

from gain_oracle import expected_update_gain


class ScriptedSetOracle:
    """Duck-typed set oracle that scripts the gains of every pair-gain read.

    It has `eval_gains` and the accounting record the driver snapshots,
    nothing more: every pre-processing and update round is an eval_gains
    read, charged 2k per base asked for.  A pattern gives the values
    [X+u, X-u, Y+u, Y-u], the same for every element.  In a per-element
    round the bases alternate X side, Y side, so an X base gains p0 - p1
    and a Y base p2 - p3.  The distinct bases of a G-estimate round,
    given with counts, have no side: each gains p0 - p1.  Call 1 (the
    marginal round) replays `first`; later calls replay `rest`.  Used
    to steer the update into chosen branches.
    """

    def __init__(self, n, first, rest):
        self.n = n
        self.first = first
        self.rest = rest
        self.accounting = OracleAccounting()
        self.calls = 0

    def eval_gains(self, bases, elements, counts=None):
        B, k = bases.shape[0] if counts is None else int(np.sum(counts)), len(elements)
        self.accounting.charge(2 * k * B)
        p = np.asarray(self.first if self.calls == 0 else self.rest, dtype=float)
        self.calls += 1
        if counts is not None:
            return np.full((len(bases), k), p[0] - p[1])
        side = np.tile([p[0] - p[1], p[2] - p[3]], B // 2)
        return np.repeat(side[:, None], k, axis=1)


# -- parameters -----------------------------------------------------------------

@pytest.mark.parametrize("eps,ell,tau_m,upd_m,pre_m", [
    (0.2, 9, 681, 132, 3886),
    (0.1, 24, 819, 665, 20534),
    (0.05, 60, 958, 3181, 102098),
    (1 / 208, 1111, 1426, 520913, 18337567),   # the analysis regime, no override
])
def test_params_frozen(eps, ell, tau_m, upd_m, pre_m):
    p = DiscreteParams(epsilon=eps)
    assert p.ell == ell
    assert p.tau_samples == tau_m
    assert p.update_samples == upd_m
    assert p.preprocess_samples == pre_m


def test_override_caps_estimators_only():
    p = DiscreteParams(epsilon=0.05, sample_override=200)
    assert p.update_samples == 200
    assert p.preprocess_samples == 200
    assert p.tau_samples == 958          # tau estimate is cheap, never capped


def test_epsilon_and_override_validation():
    with pytest.raises(ParamOutOfRange, match=r"\(0, 1/3\)"):
        DiscreteParams(epsilon=0.34)
    with pytest.raises(ParamOutOfRange):
        DiscreteParams(epsilon=0.1, sample_override=0)


@pytest.mark.parametrize("field, value", [
    ("sample_override", 2.5),        # numpy refused it only after the tau round
    ("sample_override", True),
    ("seed", -1),                    # SeedSequence refused it only when drawing
])
def test_params_refuse_what_no_round_can_use(field, value):
    with pytest.raises(ParamOutOfRange, match=field):
        DiscreteParams(epsilon=0.2, **{field: value})


def test_params_take_numpy_integers():
    p = DiscreteParams(epsilon=0.2, sample_override=np.int64(7), seed=np.uint8(3))
    assert p.update_samples == 7


# -- grid ------------------------------------------------------------------------

@pytest.mark.parametrize("eps,count", [(0.1, 58), (0.05, 146)])
def test_discrete_grid_frozen(eps, count):
    g = discrete_update_grid(eps)
    assert g.size == count
    assert g[0] == pytest.approx(eps * eps / math.log(1.0 / eps))
    assert np.abs(g[1:] / g[:-1] - (1 + eps)).max() < 1e-12
    assert (g < 1.0).all()
    assert g.size <= 1 + 6 / eps * math.log(1 / eps)


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_discrete_preprocess_rejects_epsilon_at_or_below_zero(eps):
    so = SetOracle(generate_random_instance("cut", 4, 0))
    with pytest.raises(ParamOutOfRange, match="epsilon"):
        discrete_preprocess(so, 1.0, eps, seed=0, m=2)
    assert so.accounting.rounds == 0


@pytest.mark.parametrize("eps", [0.0, -0.1, 1 / 3, 0.5, 1.0, 2.0])
def test_discrete_update_grid_rejects_epsilon_outside_0_1(eps):
    # ln(1/eps) must be positive, or the geometric grid never reaches 1;
    # the grid shares the drivers' window (0, 1/3)
    with pytest.raises(ParamOutOfRange, match="epsilon"):
        discrete_update_grid(eps)


# -- tau -------------------------------------------------------------------------

def test_estimate_tau_concentrates(k2):
    # E f(R(1/2)) = 1/2 on the single unit edge; per-sample sd = 1/2
    tau = estimate_tau(SetOracle(k2), seed=0, m=4000)
    assert abs(tau - 0.5) <= 4 * 0.5 / math.sqrt(4000)
    assert estimate_tau(SetOracle(k2), seed=0, m=4000) == tau


def test_estimate_tau_one_round(k2):
    so = SetOracle(k2)
    estimate_tau(so, seed=0, m=100)
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 100


# -- pair draw and rounding ---------------------------------------------------------

def test_pair_draw_marginals():
    u = _stream(0, 99).random(200_000)
    for d in (0.1, 0.3, 0.45):
        in_x, in_y = _pair_draw(u, d)
        assert not (in_x & ~in_y).any()
        sd4 = 4 * 0.5 / math.sqrt(u.size)
        assert abs(in_x.mean() - d) < sd4
        assert abs(in_y.mean() - (1 - d)) < sd4


def test_pair_draw_collapses_at_half():
    u = _stream(0, 98).random(10_000)
    in_x, in_y = _pair_draw(u, 0.5)
    assert np.array_equal(in_x, in_y)


def test_round_step_marginals():
    n, delta = 6, 0.3
    r = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    X = np.zeros(n, dtype=bool)
    Y = np.ones(n, dtype=bool)
    rng = _stream(0, 97)
    reps = 10_000
    added = np.zeros(n)
    dropped = np.zeros(n)
    for _ in range(reps):
        X2, Y2 = round_step(X, Y, r, delta, rng)
        added += X2
        dropped += ~Y2
    sd4 = 4 * 0.5 / math.sqrt(reps)
    assert np.abs(added / reps - delta * r).max() < sd4
    assert np.abs(dropped / reps - delta * (1 - r)).max() < sd4


def test_round_step_full_delta_resolves_everything():
    n = 8
    r = _stream(1, 96).random(n)
    X = np.zeros(n, dtype=bool)
    Y = np.ones(n, dtype=bool)
    X2, Y2 = round_step(X, Y, r, 1.0, _stream(2, 95))
    assert np.array_equal(X2, Y2)


# -- sub-streams ---------------------------------------------------------------------

# SeedSequence pools four uint32 entropy words; a seed takes one word per
# 32 bits, each key entry and the grid index one each
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32 + 5, 2**64 + 7])
@pytest.mark.parametrize("key", [(4,), (4, 9), (2, 0, 3, 1)])    # fewer, exactly, more than 4 at seed 0
@pytest.mark.parametrize("count", [1, 150])
def test_streams_draw_what_each_stream_draws(seed, key, count):
    for g, rng in enumerate(_streams(seed, *key, count=count)):
        alone = _stream(seed, *key, g)
        assert np.array_equal(rng.random(7), alone.random(7))
        assert np.array_equal(rng.random((3, 2)), alone.random((3, 2)))
        out = np.empty((2, 5))
        rng.random(out=out)
        assert np.array_equal(out, alone.random((2, 5)))
    assert g == count - 1


def _g_estimates_per_point(set_oracle, X, Y, r, deltas, seed, iteration, m):
    # the estimator written one grid point at a time, each with its own stream
    n = set_oracle.n
    idx = np.flatnonzero(Y & ~X)
    on_idx = np.empty((deltas.size, m, 2, idx.size), dtype=bool)
    for g, d in enumerate(deltas):
        rng = _stream(seed, 4, iteration, g)
        on_idx[g, :, 0] = rng.random((m, idx.size)) < d * r
        on_idx[g, :, 1] = rng.random((m, idx.size)) >= d * (1.0 - r)
    bases = np.empty((deltas.size, m, 2, n), dtype=bool)
    bases[:, :, 0] = X
    bases[:, :, 1] = Y
    bases[..., idx] = on_idx
    # each distinct stepped base once, in first-seen order, as the round lays them out
    bases, which = _distinct_rows(bases.reshape(-1, n))
    gains = set_oracle.eval_gains(bases, idx, counts=np.bincount(which))[which]
    gains = gains.reshape(deltas.size, m, 2, -1)
    per_u = r * gains[:, :, 0] - (1.0 - r) * gains[:, :, 1]
    return per_u.sum(axis=2).mean(axis=1)


@pytest.mark.parametrize("kind, n, undecided, deltas, seed, m", [
    ("cut", 9, [4], discrete_update_grid(0.1), 3, 20),                  # k = 1
    ("coverage", 8, range(8), discrete_update_grid(0.2), 0, 15),        # k = n
    ("quadratic", 7, [0, 2, 3, 6], discrete_update_grid(0.1), 1, 1),    # m = 1
    ("cut", 10, [1, 5, 8], np.array([0.3]), 5, 40),                     # one step
    ("cut", 12, [0, 3, 4, 7, 11], discrete_update_grid(0.05), 2**32 + 9, 25),
])
def test_g_estimates_equal_the_per_point_estimator(kind, n, undecided, deltas, seed, m):
    inst = generate_random_instance(kind, n, 4)
    idx = np.array(list(undecided))
    X = np.zeros(n, dtype=bool)
    X[::3] = True
    X[idx] = False
    Y = X.copy()
    Y[idx] = True
    r = _stream(seed, 7).random(idx.size)
    want = _g_estimates_per_point(SetOracle(inst), X, Y, r, deltas, seed, 6, m)
    so = SetOracle(inst)
    got = g_estimates(so, X, Y, r, deltas, seed, 6, m)
    assert got.tobytes() == want.tobytes()
    assert so.accounting.snapshot() == (1, 2 * idx.size * deltas.size * m * 2)


# -- the per-round array budget -------------------------------------------------------

def test_a_round_over_the_budget_is_refused_before_it_allocates():
    # epsilon 0.01 on n = 10: 49 offsets x 3,711,223 samples of (2, n, n) bases
    so = SetOracle(generate_random_instance("cut", 10, 0))
    with pytest.raises(RoundTooLarge, match="epsilon.*sample_override"):
        run_discrete(so, DiscreteParams(epsilon=0.01))
    assert so.accounting.rounds == 0        # not even the tau round
    assert issubclass(RoundTooLarge, ParamOutOfRange)
    run_discrete(SetOracle(generate_random_instance("cut", 10, 0)),
                 DiscreteParams(epsilon=0.2, sample_override=30))


def test_a_g_round_over_the_budget_is_refused_before_the_first_round():
    # pre-processing fits (153 MB of bases); the G draw at k = n would
    # take 2.0 GiB of uniforms
    so = SetOracle(generate_random_instance("cut", 4, 0))
    with pytest.raises(RoundTooLarge, match="G-estimate"):
        run_discrete(so, DiscreteParams(epsilon=0.002, sample_override=4800))
    assert so.accounting.rounds == 0


def test_the_g_round_checks_its_buffer(monkeypatch):
    # m = 60 makes the uniforms the round's largest array, over one
    # evaluation slice of its flip rows
    import subpar.discrete as discrete
    so = SetOracle(generate_random_instance("cut", 6, 0))
    X, Y = np.zeros(6, dtype=bool), np.ones(6, dtype=bool)
    grid = discrete_update_grid(0.2)
    assert 16 * grid.size * 60 * 6 > (oracles._EVAL_CHUNK + 2 * 7) * 6
    monkeypatch.setattr(discrete, "ROUND_BYTES", 16 * grid.size * 60 * 6 - 1)
    with pytest.raises(RoundTooLarge, match="G-estimate"):
        g_estimates(so, X, Y, np.full(6, 0.5), grid, 0, 0, 60)
    assert so.accounting.rounds == 0
    monkeypatch.setattr(discrete, "ROUND_BYTES", 16 * grid.size * 60 * 6)
    g_estimates(so, X, Y, np.full(6, 0.5), grid, 0, 0, 60)


def test_the_g_round_checks_its_values_and_one_slice_of_rows(monkeypatch):
    # after the draw the round holds the float values of its U distinct
    # bases and their flips, and lays out one evaluation slice of flip
    # rows at a time: a chunk plus the two part-bases at its ends
    import subpar.discrete as discrete
    n, m = 20, 10
    X, Y = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    grid = discrete_update_grid(0.2)
    so = SetOracle(generate_random_instance("cut", n, 0))
    checks, given = [], []
    check, eval_gains = discrete._check_round, so.eval_gains
    monkeypatch.setattr(discrete, "_check_round",
                        lambda phase, *nbytes: checks.append(nbytes) or check(phase, *nbytes))
    monkeypatch.setattr(so, "eval_gains", lambda b, e, counts: given.append(len(b))
                        or eval_gains(b, e, counts=counts))
    g_estimates(so, X, Y, np.full(n, 0.5), grid, 0, 0, m)
    (U,) = given
    row_slice = (oracles._EVAL_CHUNK + 2 * (n + 1)) * n
    assert checks == [(16 * grid.size * m * n,), (8 * U * (n + 1), row_slice)]
    assert max(checks[0][0], 8 * U * (n + 1)) < row_slice
    monkeypatch.setattr(discrete, "ROUND_BYTES", row_slice - 1)
    so = SetOracle(generate_random_instance("cut", n, 0))
    with pytest.raises(RoundTooLarge, match="G-estimate"):
        g_estimates(so, X, Y, np.full(n, 0.5), grid, 0, 0, m)
    assert so.accounting.rounds == 0


# -- preprocess ---------------------------------------------------------------------

def test_preprocess_contained_and_deterministic(k2):
    X, Y = discrete_preprocess(SetOracle(k2), tau=0.5, epsilon=0.1,
                               seed=7, m=100)
    assert not (X & ~Y).any()
    X2, Y2 = discrete_preprocess(SetOracle(k2), tau=0.5, epsilon=0.1,
                                 seed=7, m=100)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)


def test_preprocess_one_round(k2):
    so = SetOracle(k2)
    discrete_preprocess(so, tau=0.5, epsilon=0.1, seed=7, m=50)
    assert so.accounting.rounds == 1
    # 4 grid points x 50 samples x n coords x 4 rows
    assert so.accounting.queries == 4 * 50 * 2 * 4


def test_preprocess_fallback_collapses_pair():
    # scripted gains sum to n per candidate, far above 30*tau
    oracle = ScriptedSetOracle(5, first=[1, 0, 0, 0], rest=[1, 0, 0, 0])
    X, Y = discrete_preprocess(oracle, tau=0.001, epsilon=0.1, seed=0, m=10)
    assert np.array_equal(X, Y)


# -- single update ------------------------------------------------------------------

def test_update_requires_containment(k2):
    X = np.array([True, False])
    Y = np.array([False, True])
    with pytest.raises(StateInvariantViolation):
        discrete_update(SetOracle(k2), X, Y, 0.1, seed=0, iteration=0, m=5)


def test_update_zero_cost_when_exhausted(k2):
    so = SetOracle(k2)
    X = np.array([True, False])
    X2, Y2, tr = discrete_update(so, X, X.copy(), 0.1, seed=0, iteration=3, m=5)
    assert tr.rounds_used == 0 and tr.queries_used == 0
    assert so.accounting.rounds == 0
    assert np.array_equal(X2, X) and np.array_equal(Y2, X)
    X2[0] = False                        # outputs are copies, not views
    assert X[0]


def test_update_round_audit(k2):
    so = SetOracle(k2)
    X = np.zeros(2, dtype=bool)
    Y = np.ones(2, dtype=bool)
    m = 5
    _, _, tr = discrete_update(so, X, Y, 0.1, seed=0, iteration=0, m=m)
    assert tr.rounds_used == 2
    grid_size = discrete_update_grid(0.1).size
    assert tr.queries_used == 4 * 2 + grid_size * 4 * 2 * m


def test_update_fallback_takes_full_step():
    # round 1 scripts a = 1, b = 0 per element: rhs = k(1 - 2 eps);
    # round 2 scripts every G estimate to 2k, so no step is certified
    k = 4
    oracle = ScriptedSetOracle(k, first=[1, 0, 0, 0], rest=[2, 0, 0, 0])
    X = np.zeros(k, dtype=bool)
    Y = np.ones(k, dtype=bool)
    X2, Y2, tr = discrete_update(oracle, X, Y, 0.1, seed=0, iteration=0, m=3)
    assert tr.delta == 1.0
    assert np.array_equal(X2, Y2)
    assert tr.potential == pytest.approx(float(k))


def test_g_estimates_match_exact_expectation():
    inst = generate_random_instance("cut", 6, 27)
    X = np.array([True, False, False, False, False, False])
    Y = np.array([True, True, True, True, False, True])
    idx = np.flatnonzero(Y & ~X)
    r_k = np.array([0.3, 0.7, 0.5, 1.0])
    r_full = np.zeros(6)
    r_full[idx] = r_k
    delta = 0.4
    exact = expected_update_gain(inst, X, Y, r_full, delta)

    so = SetOracle(inst)
    ests = np.array([
        g_estimates(so, X, Y, r_k, np.array([delta]), seed, 0, 200)[0]
        for seed in range(30)
    ])
    spread = 4 * ests.std(ddof=1) / math.sqrt(ests.size)
    assert abs(ests.mean() - exact) <= max(spread, 1e-12)


def test_g_estimates_reproducible():
    inst = generate_random_instance("coverage", 5, 28)
    X = np.zeros(5, dtype=bool)
    Y = np.ones(5, dtype=bool)
    r = np.full(5, 0.5)
    grid = discrete_update_grid(0.2)
    a = g_estimates(SetOracle(inst), X, Y, r, grid, 11, 2, 40)
    b = g_estimates(SetOracle(inst), X, Y, r, grid, 11, 2, 40)
    assert np.array_equal(a, b)


def test_g_estimates_evaluate_each_distinct_stepped_base_once(monkeypatch):
    # the benchmark's shape, cut n = 20 at epsilon 0.1 and override 100:
    # at the small steps of the grid most stepped bases draw nothing and
    # equal X or Y; the round gives each distinct one once, with its
    # count, and it reaches the instance once, with its k flips, while
    # the round is still charged 2k per stepped base
    n, p = 20, DiscreteParams(epsilon=0.1, sample_override=100)
    inst = generate_random_instance("cut", n, 0)
    so = SetOracle(inst)
    given, rows = [], []
    eval_gains, evaluate = so.eval_gains, inst.evaluate_batch
    monkeypatch.setattr(so, "eval_gains", lambda b, e, counts: given.append((b, counts))
                        or eval_gains(b, e, counts=counts))
    monkeypatch.setattr(inst, "evaluate_batch", lambda m: rows.append(len(m)) or evaluate(m))
    X = np.zeros(n, dtype=bool)
    X[[0, 7, 12]] = True
    Y = np.ones(n, dtype=bool)
    Y[[3, 19]] = False
    k = int((Y & ~X).sum())
    r = _stream(0, 94).random(k)
    grid = discrete_update_grid(p.epsilon)
    g_estimates(so, X, Y, r, grid, 0, 0, p.update_samples)
    ((bases, counts),) = given
    stepped = grid.size * p.update_samples * 2
    assert len(np.unique(bases, axis=0)) == len(bases)
    assert counts.sum() == stepped and 4 * len(bases) < stepped
    assert sum(rows) == len(bases) * (k + 1)
    assert so.accounting.snapshot() == (1, 2 * k * stepped)


# -- finalize -----------------------------------------------------------------------

def test_finalize_adds_positive_marginals(k2):
    X = np.zeros(2, dtype=bool)
    Y = np.ones(2, dtype=bool)
    Z = finalize(SetOracle(k2), X, Y)
    assert Z.all()                       # both singles gain +1 over empty


def test_finalize_skips_zero_marginals(triangle):
    # at X = {0} every other vertex gains exactly 0 on the 3-cycle
    X = np.array([True, False, False])
    Y = np.ones(3, dtype=bool)
    Z = finalize(SetOracle(triangle), X, Y)
    assert np.array_equal(Z, X)


def test_finalize_never_adds_an_isolated_vertex():
    # n > 16 keeps _evaluate's power-set table out, so X+u and X are
    # evaluated as rows of one batch; an isolated vertex gains exactly 0
    # only when each X+u is evaluated beside its X
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(17, 40))
        iso = rng.choice(n, 3, replace=False)
        edges = [e for e in generate_random_instance("cut", n, i).edges
                 if e[0] not in iso and e[1] not in iso]
        X = rng.random(n) < 0.5
        X[iso] = False
        Z = finalize(SetOracle(CutInstance(n, edges)), X, np.ones(n, dtype=bool))
        assert not Z[iso].any(), (i, n)


def test_finalize_requires_containment(k2):
    with pytest.raises(StateInvariantViolation):
        finalize(SetOracle(k2), np.array([True, False]),
                 np.array([False, False]))


def test_finalize_no_undecided_is_free(k2):
    so = SetOracle(k2)
    X = np.array([True, False])
    Z = finalize(so, X, X.copy())
    assert np.array_equal(Z, X) and so.accounting.rounds == 0


# -- full runs ----------------------------------------------------------------------

def test_run_discrete_iteration_count_and_rounds(k2):
    p = DiscreteParams(epsilon=0.2, sample_override=50, seed=4)
    so = SetOracle(k2)
    res = run_discrete(so, p)
    assert res.iterations == p.ell == 9
    assert len(res.traces) == p.ell
    assert so.accounting.rounds <= 2 * p.ell + 4
    assert res.value in (0.0, 1.0)       # K2 cut takes only these values


# (kind, n, seed) -> rounds, f_queries, iterations, value at epsilon 0.1
# and sample_override 50, from numpy's bundled OpenBLAS on x86-64.  The
# 52-round runs idle on the |Y \ X| = 1 tie, where G equals rhs in exact
# arithmetic and the last bit of every evaluated row decides the step, so
# any change to which rows are evaluated, or how, shows up here.
GOLDEN = {
    ("cut", 12, 0): (52, 683456, 24, 11.193885866323168),
    ("cut", 12, 5): (11, 230896, 24, 13.729790841559915),
    ("coverage", 12, 0): (52, 985160, 24, 17.001576600973305),
    ("coverage", 12, 3): (31, 706660, 24, 9.929306486060808),
    ("cut", 18, 1): (52, 943544, 24, 27.107113189189747),
    ("coverage", 18, 2): (13, 607024, 24, 21.364527486592543),
    # n = 20 bypasses _evaluate's power-set table, as the benchmark's cut does
    ("cut", 20, 1): (52, 968352, 24, 36.9719766208427),
    ("coverage", 20, 2): (52, 1827054, 24, 21.82589986139836),
}


@pytest.mark.parametrize("kind,n,seed", sorted(GOLDEN))
def test_run_discrete_golden_meters(kind, n, seed):
    so = SetOracle(generate_random_instance(kind, n, seed))
    res = run_discrete(so, DiscreteParams(epsilon=0.1, sample_override=50, seed=seed))
    got = (so.accounting.rounds, so.accounting.queries, res.iterations, res.value)
    assert got == GOLDEN[(kind, n, seed)]


def test_run_discrete_deterministic():
    inst = generate_random_instance("cut", 7, 29)
    p = DiscreteParams(epsilon=0.2, sample_override=60, seed=13)
    r1 = run_discrete(SetOracle(inst), p)
    r2 = run_discrete(SetOracle(inst), p)
    assert np.array_equal(r1.members, r2.members)
    assert r1.value == r2.value and r1.tau == r2.tau
    assert list(r1.ids) == sorted(np.flatnonzero(r1.members).tolist())


def test_run_discrete_traces_shrink_gap():
    inst = generate_random_instance("coverage", 6, 30)
    p = DiscreteParams(epsilon=0.2, sample_override=60, seed=2)
    res = run_discrete(SetOracle(inst), p)
    gaps = [tr.y_size - tr.x_size for tr in res.traces]
    assert all(g >= 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
