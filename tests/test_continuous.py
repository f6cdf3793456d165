"""Continuous driver: rates, grids, pre-processing, update, full runs.

Frozen literals are hand-derived on the single-edge instance where the
extension is F = x0(1-x1) + x1(1-x0): gradients are (1-2x1, 1-2x0), the
pre-processing condition at offset d sums to 4-8d, and tau = 1/2.
"""

import math

import numpy as np
import pytest

from subpar import (MultilinearOracle, ParamOutOfRange, SetOracle,
                    StateInvariantViolation, brute_force, generate_random_instance,
                    run_continuous, run_core)
from subpar.continuous import (ContinuousState, compute_rates, first_step, pre_process,
                               preprocess_grid, update, update_grid)
from subpar.instances import CutInstance


class StubOracle(MultilinearOracle):
    """Scripted value/gradient oracle for exercising driver branches."""

    def __init__(self, n, value=1.0, base_grad=1.0, sweep_grad=None):
        super().__init__(SetOracle(CutInstance(n, [])), mode="direct")
        self.value = value
        self.base_grad = base_grad       # gradient at x and y rows
        self.sweep_grad = sweep_grad     # +/- this at even/odd sweep rows

    def _answer(self, pts, grads, values):
        self.rounds_meter.charge(pts.shape[0])
        v = np.full(pts.shape[0], self.value)
        if not grads:
            return v
        g = np.full((pts.shape[0], self.n), self.base_grad)
        if values:
            return g, v
        if self.sweep_grad is not None:
            g[0::2] = -self.sweep_grad
            g[1::2] = self.sweep_grad
        return g


# -- rates ---------------------------------------------------------------------

def test_rates_frozen():
    assert compute_rates([1.0], [1.0])[0] == 0.5
    assert compute_rates([2.0], [-1.0])[0] == 1.0
    assert compute_rates([-3.0], [5.0])[0] == 0.0
    assert compute_rates([0.0], [0.0])[0] == 0.0
    r = compute_rates([1.0, 2.0, -1.0], [3.0, -1.0, -2.0])
    assert np.abs(r - [0.25, 1.0, 0.0]).max() < 1e-15


# -- grids ---------------------------------------------------------------------

def test_update_grid_frozen():
    g = update_grid(0.1, 1.0)
    assert g.size == 49                          # counted by hand
    assert g[0] == pytest.approx(0.01)
    assert (g < 1.0).all()
    assert np.abs(g[1:] / g[:-1] - 1.1).max() < 1e-12


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_update_grid_size_formula(eps):
    g = update_grid(eps, 1.0)
    exact = math.ceil(math.log(eps ** -2) / math.log(1 + eps))
    assert g.size == exact
    assert g.size <= 1 + 4 / eps * math.log(1 / eps)


def test_update_grid_respects_delta():
    g = update_grid(0.1, 0.05)
    assert (g < 0.05).all() and g.size == 17
    assert update_grid(0.1, 0.005).size == 0     # delta below the first point


def test_preprocess_grid_frozen():
    g = preprocess_grid(0.1)
    assert np.abs(g - [0.1, 0.2, 0.3, 0.4]).max() < 1e-12
    for eps in (0.2, 0.1, 0.05):
        assert preprocess_grid(eps).size <= math.floor(0.5 / eps)


# -- step rule ------------------------------------------------------------------

def test_first_step_takes_the_first_passing_point():
    grid = np.array([0.1, 0.2, 0.4, 0.8])
    assert first_step(grid, [3.0, 1.0, 0.5, 2.0], 1.0, 1.0) == 0.2   # <= passes a tie
    assert first_step(grid, [np.nan, 2.0, 0.5, 0.0], 1.0, 1.0) == 0.4


def test_first_step_falls_back():
    grid = np.array([0.1, 0.2])
    assert first_step(grid, [3.0, np.nan], 1.0, 0.5) == 0.5
    assert first_step(np.empty(0), np.empty(0), 1.0, 0.5) == 0.5


# -- pre-processing ---------------------------------------------------------------

def test_pre_process_k2_frozen(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    state = pre_process(oracle, tau=0.5, epsilon=0.1)
    # condition sums to 4-8d <= 16*tau = 8, true already at the first offset
    assert state.delta == pytest.approx(0.8)
    assert np.abs(state.x - 0.1).max() < 1e-12
    assert np.abs(state.y - 0.9).max() < 1e-12


def test_pre_process_fallback_to_half():
    # scripted gradients make the condition 2*M*n > 16*tau at every offset
    oracle = StubOracle(4, sweep_grad=-100.0)    # low rows +100, high rows -100
    state = pre_process(oracle, tau=1.0, epsilon=0.1)
    assert state.delta == 0.0
    assert (state.x == 0.5).all() and (state.y == 0.5).all()


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, 1 / 3, 0.5, 0.6])
def test_grids_reject_an_epsilon_they_never_finish(k2, eps):
    # a step of eps <= 0 never reaches the end of either grid; the grids
    # share the drivers' window (0, 1/3), so a pre-processing grid is never empty
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    with pytest.raises(ParamOutOfRange, match="epsilon"):
        pre_process(oracle, tau=0.5, epsilon=eps)
    with pytest.raises(ParamOutOfRange, match="epsilon"):
        update_grid(eps, 0.5)
    assert oracle.rounds_meter.rounds == 0


def test_pre_process_is_one_round(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    pre_process(oracle, tau=0.5, epsilon=0.1)
    assert oracle.rounds_meter.rounds == 1


# -- single update -----------------------------------------------------------------

def test_update_k2_frozen(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    state = ContinuousState(x=np.full(2, 0.1), y=np.full(2, 0.9), delta=0.8)
    new, tr = update(oracle, state, gamma=4 * 0.1 * 0.5, epsilon=0.1)
    # at (0.1,0.1): grad = (0.8, 0.8); at (0.9,0.9): grad = (-0.8, -0.8)
    assert tr.potential == pytest.approx(3.2)
    assert tr.Fx == pytest.approx(0.18)          # 2 * 0.1 * 0.9
    assert tr.Fy == pytest.approx(0.18)
    assert tr.rounds_used == 2
    assert tr.queries_used == 8                  # two power-set rounds at n=2
    assert new.delta < state.delta
    new.validate()


def test_update_rejects_exhausted_state():
    oracle = StubOracle(2)
    state = ContinuousState(x=np.full(2, 0.5), y=np.full(2, 0.5), delta=0.0)
    with pytest.raises(StateInvariantViolation):
        update(oracle, state, gamma=0.1, epsilon=0.1)


class OpposedInfOracle(StubOracle):
    """Gradient +inf at x and -inf at y: both rates read inf / inf = NaN."""

    def _answer(self, pts, grads, values):
        g, v = super()._answer(pts, grads, values)
        g[1::2] = -g[1::2]
        return g, v


def test_update_refuses_a_nan_step():
    # delta below the first grid point: no sweep round, the step is the gap
    oracle = OpposedInfOracle(2, base_grad=np.inf)
    state = ContinuousState(x=np.full(2, 0.4), y=np.full(2, 0.405), delta=0.005)
    with np.errstate(invalid="ignore"), pytest.raises(StateInvariantViolation,
                                                      match="not finite"):
        update(oracle, state, gamma=0.1, epsilon=0.1)


def test_update_fallback_closes_the_gap():
    # scripted gradients never certify a grid step: lhs = base > rhs
    oracle = StubOracle(3, base_grad=1.0)
    state = ContinuousState(x=np.zeros(3), y=np.ones(3), delta=1.0)
    new, tr = update(oracle, state, gamma=0.05, epsilon=0.1)
    assert new.delta == 0.0                      # full remaining step taken
    assert (new.x == new.y).all()


def test_state_validation():
    with pytest.raises(StateInvariantViolation):
        ContinuousState(x=np.zeros(2), y=np.ones(2), delta=0.5).validate()
    with pytest.raises(StateInvariantViolation):
        ContinuousState(x=np.array([0.0, -0.1]), y=np.array([1.0, 0.9]),
                        delta=1.0).validate()
    # a NaN gap passes the gap test, so the cube test must come first
    with pytest.raises(StateInvariantViolation, match="not finite"):
        ContinuousState(x=[math.nan, 0.2], y=[math.nan, 0.7], delta=0.5).validate()
    ContinuousState(x=np.zeros(2), y=np.ones(2), delta=1.0).validate()


# -- full runs ----------------------------------------------------------------------

def test_run_core_k2(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    res = run_core(oracle, 0.1)
    assert np.abs(res.x - 0.5).max() < 1e-9
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.tau == pytest.approx(0.5)
    assert res.iterations == 8                   # measured; stable under exact math
    assert len(res.states) == res.iterations + 1


@pytest.mark.parametrize("kind,n", [("cut", 8), ("coverage", 7), ("quadratic", 6)])
def test_run_core_states_are_the_stepwise_loop(kind, n):
    # reference: tau, pre-process, then update until the pair meets, by hand
    inst = generate_random_instance(kind, n, 3)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    tau = float(oracle.value_batch(np.full((1, n), 0.5))[0])
    gamma = 4.0 * 0.1 * tau
    state = pre_process(oracle, tau, 0.1)
    states, traces = [state], []
    while state.delta > 0.0:
        state, tr = update(oracle, state, gamma, 0.1)
        states.append(state)
        traces.append(tr)
    res = run_core(MultilinearOracle(SetOracle(inst), mode="exact"), 0.1)
    assert (res.tau, res.gamma) == (tau, gamma)
    assert len(res.states) == len(states) and res.traces == traces
    for got, want in zip(res.states, states):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert (got.delta, got.iteration) == (want.delta, want.iteration)


def test_epsilon_validation(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    for bad in (0.0, 1.0 / 3.0, 0.34, -0.1):
        with pytest.raises(ParamOutOfRange):
            run_core(oracle, bad)


def test_zero_function_short_circuit():
    inst = CutInstance(4, [])
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    res = run_core(oracle, 0.1)
    assert res.iterations == 0
    assert (res.x == 0.5).all() and res.value == 0.0


def test_runaway_loop_capped():
    # scripted oracle always certifies the smallest grid step (sweep rows
    # hugely negative), so delta shrinks by eps^2 per iteration -> cap hits
    oracle = StubOracle(3, sweep_grad=1000.0)
    with pytest.raises(RuntimeError):
        run_core(oracle, 0.05)


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_iteration_bound(eps, k2):
    for inst in (k2, generate_random_instance("coverage", 6, 21)):
        oracle = MultilinearOracle(SetOracle(inst), mode="exact")
        res = run_core(oracle, eps)
        assert res.iterations <= math.floor(5.0 / eps) + 1


def test_round_audit_against_spy(spy_oracle):
    inst = generate_random_instance("cut", 6, 22)
    so = spy_oracle(inst)
    oracle = MultilinearOracle(so, mode="exact")
    res = run_continuous(oracle, 0.1, seed=3)
    ell = res.core.iterations
    assert so.accounting.rounds == so.batches    # instrument == spy
    assert so.accounting.rounds <= 2 + 1 + 2 * ell + 1
    assert so.accounting.queries == so.rows


def test_chain_and_termination():
    inst = generate_random_instance("coverage", 7, 23)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    tau = float(oracle.value_batch(np.full((1, 7), 0.5))[0])
    state = pre_process(oracle, tau, 0.1)
    gamma = 4 * 0.1 * tau
    prev = state
    while state.delta > 0:
        state, _ = update(oracle, prev, gamma, 0.1)
        assert (state.x >= prev.x - 1e-12).all()
        assert (state.y <= prev.y + 1e-12).all()
        assert (state.x <= state.y + 1e-12).all()
        assert abs((state.y - state.x).max() - state.delta) < 1e-9
        prev = state
    assert np.abs(state.x - state.y).max() < 1e-12


def test_potential_decreases_by_gamma():
    inst = generate_random_instance("cut", 8, 24)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    res = run_core(oracle, 0.1)
    trs = res.traces
    assert trs[0].potential <= 16 * res.tau + 1e-7
    for j in range(len(trs) - 1):
        if trs[j].delta_after > 0:
            assert trs[j + 1].potential <= trs[j].potential - res.gamma + 1e-7


def test_gain_tracks_sandwiched_optimum_loss():
    """Per-step gain of F(x)+F(y) against the sandwiched-optimum loss.

    The sandwich point of a pair is (1_best | x) & y for the exhaustive
    maximizer `best`; each update's gain must cover twice the sandwich
    drop up to the gamma and second-order allowances, and the starting
    pair must already cover the full gap up to a 4-epsilon slack.
    """
    eps = 0.1
    for kind, n, seed in [("cut", 6, 25), ("coverage", 6, 26)]:
        inst = generate_random_instance(kind, n, seed)
        opt_members, opt = brute_force(SetOracle(inst))
        opt_vec = opt_members.astype(float)
        oracle = MultilinearOracle(SetOracle(inst), mode="exact")
        tau = float(oracle.value_batch(np.full((1, n), 0.5))[0])
        gamma = 4 * eps * tau
        state = pre_process(oracle, tau, eps)
        states = [state]
        while state.delta > 0:
            state, _ = update(oracle, state, gamma, eps)
            states.append(state)

        xs = np.stack([s.x for s in states])
        ys = np.stack([s.y for s in states])
        sandwich = np.minimum(np.maximum(opt_vec[None, :], xs), ys)
        Fx = oracle.value_batch(xs)
        Fy = oracle.value_batch(ys)
        S = oracle.value_batch(sandwich)
        phi = (oracle.gradient_batch(xs) - oracle.gradient_batch(ys)).sum(axis=1)

        # starting pair covers the optimum gap up to 4*eps slack
        assert Fx[0] + Fy[0] >= 2 * (opt - S[0]) - 4 * eps * opt - 1e-9
        for i in range(len(states) - 1):
            gain = (Fx[i + 1] + Fy[i + 1]) - (Fx[i] + Fy[i])
            drop = S[i] - S[i + 1]
            dd = states[i].delta - states[i + 1].delta
            assert gain >= 2 * (1 - 3 * eps) * drop - gamma * dd \
                - 2 * eps ** 2 * phi[i] - 1e-9


def test_run_continuous_rounds_and_rounding(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    res = run_continuous(oracle, 0.1, seed=5)
    # rounded sample evaluated through the same instrumented oracle
    want = float(k2.evaluate_batch(res.rounded[None, :])[0])
    assert res.rounded_value == want
    again = run_continuous(MultilinearOracle(SetOracle(k2), mode="exact"),
                           0.1, seed=5)
    assert np.array_equal(res.rounded, again.rounded)
    assert res.core.value == again.core.value


# (kind, n) -> rounds, f_queries, F_queries, iterations and value.hex() of
# an exact-mode run at epsilon 0.1 on the instance seeded n, rounding
# seed n, from numpy's bundled OpenBLAS on x86-64 (each answer comes
# from the instance's closed-form extension).  A change to how the
# extension is computed that moves one last bit can move a step choice or
# the value, and shows up here.
EXACT_GOLDEN = {
    ("cut", 8): (20, 4865, 9746, 8, "0x1.007c11b6863c0p+2"),
    ("cut", 12): (20, 77825, 14610, 8, "0x1.44be54289e7b9p+3"),
    ("cut", 14): (20, 311297, 17042, 8, "0x1.37fd98c8f9ef9p+4"),
    ("coverage", 8): (14, 3329, 6188, 5, "0x1.9d7aed853d2d2p+2"),
    ("coverage", 12): (16, 61441, 12542, 6, "0x1.08ba0c34edaf2p+4"),
    ("coverage", 14): (16, 245761, 14518, 6, "0x1.e1d583d813042p+3"),
    ("quadratic", 8): (14, 3329, 6636, 5, "0x1.e846ef19b77dcp+2"),
    ("quadratic", 12): (14, 53249, 9900, 5, "0x1.54509c04d736cp+3"),
    ("quadratic", 14): (16, 245761, 13062, 6, "0x1.eccf0bd1e3dd4p+3"),
}


@pytest.mark.parametrize("kind,n", sorted(EXACT_GOLDEN))
def test_run_continuous_exact_golden_meters(kind, n):
    so = SetOracle(generate_random_instance(kind, n, n))
    mo = MultilinearOracle(so, mode="exact")
    res = run_continuous(mo, 0.1, seed=n)
    got = (so.accounting.rounds, so.accounting.queries, mo.F_queries,
           res.core.iterations, res.core.value.hex())
    assert got == EXACT_GOLDEN[(kind, n)]


# sampled:200 runs, each rng seeded with n: the gradients read the
# instance at every drawn set, the path the exact goldens do not cover
SAMPLED_GOLDEN = {
    ("cut", 12): (20, 3037201, 15186, 8, "0x1.453823709f3e0p+3"),
    ("cut", 24): (20, 6013201, 30066, 8, "0x1.9336a2eacfa0ap+5"),
    ("coverage", 12): (16, 2441201, 12206, 6, "0x1.09888d5271a9dp+4"),
    ("coverage", 24): (18, 5955201, 29776, 7, "0x1.697d50e35ad54p+5"),
    ("quadratic", 12): (14, 1951201, 9756, 5, "0x1.584a1ad2c4452p+3"),
    ("quadratic", 24): (16, 4745201, 23726, 6, "0x1.02ce61e00ed88p+5"),
}


@pytest.mark.parametrize("kind,n", sorted(SAMPLED_GOLDEN))
def test_run_continuous_sampled_golden_meters(kind, n):
    so = SetOracle(generate_random_instance(kind, n, n))
    mo = MultilinearOracle(so, mode="sampled", samples=200, rng=np.random.default_rng(n))
    res = run_continuous(mo, 0.1, seed=n)
    got = (so.accounting.rounds, so.accounting.queries, mo.F_queries,
           res.core.iterations, res.core.value.hex())
    assert got == SAMPLED_GOLDEN[(kind, n)]
