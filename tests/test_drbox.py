"""Box-constrained quadratic runs: rescaling, direct oracle, driver reuse.

The hand-worked example used throughout: F = x0 + x1 - x0*x1 on [0,1]^2
(the frozen_quad fixture), whose gradient (1-x1, 1-x0) is nonnegative,
so the cube optimum sits at (1,1) with value 1.
"""

import math

import numpy as np
import pytest

from subpar import (BoxDomain, ParamOutOfRange, QuadraticContinuousOracle,
                    run_continuous, run_dr, grid_search_optimum, rescale_to_cube)
from subpar.instances import (MultilinearQuadraticInstance,
                              NonNegativityViolation, OutOfBox,
                              generate_random_instance)
from subpar.multilinear import MultilinearOracle
from subpar.oracles import SetOracle


# -- box ------------------------------------------------------------------------

def test_box_validation_and_embed():
    box = BoxDomain(np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
    assert box.n == 2
    assert np.array_equal(box.width, [2.0, 3.0])
    assert np.allclose(box.embed([0.5, 0.0]), [0.0, 2.0])
    with pytest.raises(OutOfBox):
        BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 0.5]))


# -- direct oracle ----------------------------------------------------------------

def test_oracle_frozen_values(frozen_quad):
    oracle = QuadraticContinuousOracle(frozen_quad)
    assert oracle.value_batch([[0.5, 0.5]])[0] == pytest.approx(0.75)
    g = oracle.gradient_batch([[0.5, 0.5]])[0]
    assert np.allclose(g, [0.5, 0.5])
    corners = oracle.value_batch([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert np.allclose(corners, [0, 1, 1, 1])


def test_oracle_guard(frozen_quad):
    oracle = QuadraticContinuousOracle(frozen_quad)
    with pytest.raises(OutOfBox):
        oracle.value_batch([[1.1, 0.0]])
    with pytest.raises(OutOfBox):
        oracle.gradient_batch([[-0.1, 0.0]])
    # a stray ulp beyond the wall is clipped, not rejected
    v = oracle.value_batch([[1.0 + 1e-13, 0.0]])[0]
    assert v == pytest.approx(1.0)


def test_oracle_checks_the_batch_before_charging(frozen_quad):
    oracle = QuadraticContinuousOracle(frozen_quad)
    for bad in ([[0.5, 0.5, 0.5]],                 # wrong width
                np.full((2, 2, 2), 0.5),           # 3-D batch
                [[0.5, 1.5]]):                     # outside the cube
        for call in (oracle.value_batch, oracle.gradient_batch,
                     oracle.grad_and_value_batch):
            with pytest.raises(ValueError):
                call(bad)
    assert oracle.rounds_meter.snapshot() == (0, 0)
    assert (oracle.F_queries, oracle.grad_queries) == (0, 0)


def test_oracle_accounting(frozen_quad):
    oracle = QuadraticContinuousOracle(frozen_quad)
    oracle.value_batch([[0.5, 0.5], [0, 0], [1, 1]])
    oracle.gradient_batch([[0.5, 0.5], [0.25, 0.25]])
    oracle.grad_and_value_batch([[0.1, 0.2]])
    assert oracle.rounds_meter.rounds == 3
    assert oracle.rounds_meter.queries == 6
    assert oracle.F_queries == 4           # 3 values + 1 fused
    assert oracle.grad_queries == 2 * 3    # n=2 per gradient point
    assert oracle.f_queries == 0


def test_oracle_gradient_matches_finite_differences():
    inst = generate_random_instance("quadratic", 4, 31)
    oracle = QuadraticContinuousOracle(inst)
    z = np.array([0.31, 0.62, 0.18, 0.55])
    g = oracle.gradient_batch(z[None, :])[0]
    h = 1e-6
    for u in range(4):
        zp, zm = z.copy(), z.copy()
        zp[u] += h
        zm[u] -= h
        fd = (inst.value(zp) - inst.value(zm)) / (2 * h)
        assert abs(fd - g[u]) <= 1e-5 * max(1.0, abs(g[u]))


def test_gradient_antitone():
    # diminishing returns: raising any coordinate can only lower gradients
    inst = generate_random_instance("quadratic", 5, 32)
    oracle = QuadraticContinuousOracle(inst)
    rng = np.random.default_rng(5)
    lo = rng.random((20, 5)) * 0.5
    hi = lo + rng.random((20, 5)) * 0.5
    g_lo = oracle.gradient_batch(lo)
    g_hi = oracle.gradient_batch(hi)
    assert (g_hi <= g_lo + 1e-12).all()


# -- rescaling ---------------------------------------------------------------------

def test_rescale_frozen():
    inst = MultilinearQuadraticInstance(
        n=2, c=0.0, h=np.array([1.0, 1.0]),
        H=np.array([[0.0, -0.5], [-0.5, 0.0]]))
    cube, active, embed = rescale_to_cube(
        inst, BoxDomain(np.zeros(2), np.full(2, 2.0)))
    assert cube.c == 0.0
    assert np.allclose(cube.h, [2.0, 2.0])
    assert np.allclose(cube.H, [[0.0, -2.0], [-2.0, 0.0]])
    assert active.tolist() == [0, 1]
    assert np.allclose(embed([0.25, 0.5]), [0.5, 1.0])
    # rescaled polynomial agrees with the original across the box
    z = np.array([[0.1, 0.9], [0.7, 0.3], [1.0, 1.0]])
    assert np.allclose(cube.value_batch(z), inst.value_batch(2.0 * z))


def test_rescale_revalidates_on_the_box():
    # x0 - x0*x1 is fine on the unit cube but dips to -6 at (3, 3)
    inst = MultilinearQuadraticInstance(
        n=2, c=0.0, h=np.array([1.0, 0.0]),
        H=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(NonNegativityViolation):
        rescale_to_cube(inst, BoxDomain(np.zeros(2), np.full(2, 3.0)))


def test_rescale_all_pinned(frozen_quad):
    box = BoxDomain(np.full(2, 0.5), np.full(2, 0.5))
    cube, active, embed = rescale_to_cube(frozen_quad, box)
    assert cube is None and active.size == 0
    assert np.allclose(embed(np.zeros(0)), [0.5, 0.5])


def test_rescale_one_pinned(frozen_quad):
    box = BoxDomain(np.array([0.25, 0.0]), np.array([0.25, 1.0]))
    cube, active, embed = rescale_to_cube(frozen_quad, box)
    assert active.tolist() == [1]
    assert cube.n == 1
    assert cube.c == pytest.approx(0.25)
    assert np.allclose(cube.h, [0.75])     # slope of F(0.25, t) in t
    assert np.allclose(embed([1.0]), [0.25, 1.0])


# -- grid search (test oracle) --------------------------------------------------------

def test_grid_search_refines_to_peak():
    def f(pts):
        return -((pts[:, 0] - 0.37) ** 2)
    x, v = grid_search_optimum(f, 1)
    assert abs(x[0] - 0.37) < 0.01 and v <= 0.0


def test_grid_search_exact_at_corner(frozen_quad):
    # the optimum value 1.0 is attained on two whole edges, so only the
    # value is pinned; the returned point must merely attain it
    x, v = grid_search_optimum(frozen_quad.value_batch, 2)
    assert v == pytest.approx(1.0)
    assert frozen_quad.value(x) == pytest.approx(1.0)


# -- full runs ----------------------------------------------------------------------

def test_run_dr_unit_cube(frozen_quad):
    res = run_dr(frozen_quad, 0.05)
    assert res.value >= 0.45 * 1.0
    assert res.value == pytest.approx(float(frozen_quad.value(res.x)))
    assert res.tau == pytest.approx(0.75)  # F at the all-halves point
    assert res.oracle.rounds_meter.rounds <= 2 + 1 + 2 * res.iterations + 1


def test_run_dr_scaled_box():
    inst = MultilinearQuadraticInstance(
        n=2, c=0.0, h=np.array([1.0, 1.0]),
        H=np.array([[0.0, -0.5], [-0.5, 0.0]]))
    box = BoxDomain(np.zeros(2), np.full(2, 2.0))
    res = run_dr(inst, 0.05, box=box)
    assert (res.x >= -1e-12).all() and (res.x <= 2.0 + 1e-12).all()
    _, opt = grid_search_optimum(inst.value_batch, 2, lower=box.lower,
                                 upper=box.upper)
    assert opt == pytest.approx(2.0)
    assert res.value >= 0.45 * opt
    assert res.value == pytest.approx(float(inst.value(res.x)))


def test_run_dr_quarter_bound_and_tau_sandwich():
    for seed in range(5):
        inst = generate_random_instance("quadratic", 3, 40 + seed)
        res = run_dr(inst, 0.05)
        _, opt = grid_search_optimum(inst.value_batch, 3)
        assert res.value >= 0.45 * opt - 1e-9
        assert opt + 1e-9 >= res.tau >= opt / 4.0 - 1e-9


def test_run_dr_all_pinned(frozen_quad):
    box = BoxDomain(np.full(2, 0.5), np.full(2, 0.5))
    res = run_dr(frozen_quad, 0.1, box=box)
    assert res.iterations == 0
    assert np.allclose(res.x, [0.5, 0.5])
    assert res.value == pytest.approx(0.75)


def test_run_dr_all_pinned_returns_an_unqueried_oracle(frozen_quad):
    box = BoxDomain(np.full(2, 0.5), np.full(2, 0.5))
    res = run_dr(frozen_quad, 0.1, box=box)
    assert res.core is None
    assert res.oracle.rounds_meter.snapshot() == (0, 0)
    assert (res.oracle.F_queries, res.oracle.grad_queries) == (0, 0)
    with pytest.raises(ParamOutOfRange):   # epsilon is checked before the shortcut
        run_dr(frozen_quad, 5.0, box=box)


def test_run_dr_one_pinned(frozen_quad):
    box = BoxDomain(np.array([0.25, 0.0]), np.array([0.25, 1.0]))
    res = run_dr(frozen_quad, 0.1, box=box)
    assert res.x[0] == pytest.approx(0.25)
    assert -1e-12 <= res.x[1] <= 1.0 + 1e-12
    assert res.value >= 0.45 * 1.0       # optimum F(0.25, 1) = 1


def test_run_dr_oracle_override_matches_continuous():
    # same driver, two front doors: identical trajectories, bit for bit
    inst = generate_random_instance("cut", 8, 100)
    m1 = MultilinearOracle(SetOracle(inst), mode="exact")
    cont = run_continuous(m1, 0.1, seed=0)
    m2 = MultilinearOracle(SetOracle(inst), mode="exact")
    dr = run_dr(None, 0.1, oracle=m2)
    assert len(cont.core.trajectory) == len(dr.core.trajectory)
    for p, q in zip(cont.core.trajectory, dr.core.trajectory):
        assert p.tobytes() == q.tobytes()
    assert dr.value == cont.core.value
