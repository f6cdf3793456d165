"""Discrete driver: parameters, estimators, rounding, full runs.

Sample-count literals were computed by hand from the closed forms; the
estimator tests compare Monte-Carlo output against exact enumeration.
"""

import math

import numpy as np
import pytest

from subpar import (DiscreteParams, ParamOutOfRange, SetOracle,
                    StateInvariantViolation, discrete_preprocess,
                    discrete_update, estimate_tau, finalize, g_estimates,
                    generate_random_instance, run_discrete)
from subpar.discrete import (THEOREM_EPS_MAX, _pair_draw, _stream,
                             discrete_update_grid, round_step)
from subpar.oracles import OracleAccounting

from gain_oracle import expected_update_gain


class ScriptedSetOracle:
    """Duck-typed set oracle that scripts values by pair-row position.

    Every discrete round is pair rows (oracles.pair_rows) laid out as
    [..., X/Y side, plus/minus u, element].  A pattern gives the values
    [X+u, X-u, Y+u, Y-u], the same for every element and every leading
    index; the scripted runs start from X = {} and Y = N, so each round
    spans all n elements.  Call 1 (the marginal round) replays `first`;
    later calls replay `rest`.  Used to steer the update into chosen
    branches.
    """

    def __init__(self, n, first, rest):
        self.n = n
        self.first = first
        self.rest = rest
        self.accounting = OracleAccounting()
        self.calls = 0

    def eval_batch(self, subsets):
        rows = subsets.shape[0]
        self.accounting.charge(rows)
        pattern = self.first if self.calls == 0 else self.rest
        self.calls += 1
        block = np.repeat(np.asarray(pattern, dtype=float), self.n)
        return np.tile(block, rows // block.size)


# -- parameters -----------------------------------------------------------------

@pytest.mark.parametrize("eps,ell,tau_m,upd_m,pre_m", [
    (0.2, 9, 681, 132, 3886),
    (0.1, 24, 819, 665, 20534),
    (0.05, 60, 958, 3181, 102098),
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


def test_mode_and_range_validation():
    DiscreteParams(epsilon=THEOREM_EPS_MAX, mode="theorem")
    with pytest.raises(ParamOutOfRange):
        DiscreteParams(epsilon=0.005, mode="theorem")
    with pytest.raises(ParamOutOfRange):
        DiscreteParams(epsilon=0.34)
    with pytest.raises(ParamOutOfRange):
        DiscreteParams(epsilon=0.1, sample_override=0)
    with pytest.raises(ParamOutOfRange):
        DiscreteParams(epsilon=0.1, mode="exactly")


def test_theorem_mode_ignores_override():
    p = DiscreteParams(epsilon=THEOREM_EPS_MAX, mode="theorem",
                       sample_override=10)
    assert p.update_samples > 10 and p.preprocess_samples > 10


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


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 2.0])
def test_discrete_update_grid_rejects_epsilon_outside_0_1(eps):
    # ln(1/eps) must be positive, or the geometric grid never reaches 1
    with pytest.raises(ParamOutOfRange, match="epsilon"):
        discrete_update_grid(eps)


# -- tau -------------------------------------------------------------------------

def test_estimate_tau_concentrates(k2):
    # E f(R(1/2)) = 1/2 on the single unit edge; per-sample sd = 1/2
    tau = estimate_tau(SetOracle(k2), 0.1, seed=0, m=4000)
    assert abs(tau - 0.5) <= 4 * 0.5 / math.sqrt(4000)
    assert estimate_tau(SetOracle(k2), 0.1, seed=0, m=4000) == tau


def test_estimate_tau_one_round(k2):
    so = SetOracle(k2)
    estimate_tau(so, 0.1, seed=0, m=100)
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 100


def test_default_sample_counts_are_the_params(k2):
    # m=None reads DiscreteParams: 2 grid points x m samples x n x 4 rows
    p = DiscreteParams(epsilon=0.2)
    so = SetOracle(k2)
    estimate_tau(so, 0.2, seed=0)
    assert so.accounting.queries == p.tau_samples
    so = SetOracle(k2)
    discrete_preprocess(so, tau=0.5, epsilon=0.2, seed=7)
    assert so.accounting.queries == 2 * p.preprocess_samples * 2 * 4


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
        discrete_update(SetOracle(k2), X, Y, 0.1, seed=0, iteration=0)


def test_update_zero_cost_when_exhausted(k2):
    so = SetOracle(k2)
    X = np.array([True, False])
    X2, Y2, tr = discrete_update(so, X, X.copy(), 0.1, seed=0, iteration=3)
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
