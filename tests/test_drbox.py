"""Box-constrained quadratic runs: rescaling, direct oracle, driver reuse.

The hand-worked example used throughout: F = x0 + x1 - x0*x1 on [0,1]^2
(the frozen_quad fixture), whose gradient (1-x1, 1-x0) is nonnegative,
so the cube optimum sits at (1,1) with value 1.
"""

import numpy as np
import pytest

from subpar import BoxDomain, ParamOutOfRange, box_optimum, run_core, run_dr
from subpar.instances import (InvalidInstance, MultilinearQuadraticInstance,
                              NonNegativityViolation, OutOfBox,
                              generate_random_instance)
from subpar.multilinear import MultilinearOracle
from subpar.oracles import SetOracle, all_subsets_matrix

from conftest import core_bits


def on_box(inst, box):
    """The quadratic inst over box, checked there."""
    return MultilinearQuadraticInstance(inst.n, inst.c, inst.h, inst.H, box=box)


# -- box ------------------------------------------------------------------------

def test_box_validation_and_embed():
    box = BoxDomain(np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
    assert box.n == 2
    assert np.array_equal(box.width, [2.0, 3.0])
    assert np.allclose(box.embed([0.5, 0.0]), [0.0, 2.0])
    with pytest.raises(OutOfBox):
        BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 0.5]))



@pytest.mark.parametrize("lower, upper, name", [
    ([0.0, -np.inf], [1.0, 1.0], "lower"),
    ([0.0, 0.0], [1.0, np.nan], "upper"),
], ids=["lower", "upper"])
def test_box_rejects_non_finite_bounds(frozen_quad, lower, upper, name):
    # named at the box, before any rescaling reads it
    with pytest.raises(InvalidInstance, match=f"box {name} must be finite"):
        on_box(frozen_quad, BoxDomain(lower, upper))


# -- direct oracle ----------------------------------------------------------------

def test_oracle_frozen_values(frozen_quad):
    oracle = MultilinearOracle(SetOracle(frozen_quad), mode="direct")
    assert oracle.value_batch([[0.5, 0.5]])[0] == pytest.approx(0.75)
    g = oracle.gradient_batch([[0.5, 0.5]])[0]
    assert np.allclose(g, [0.5, 0.5])
    corners = oracle.value_batch([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert np.allclose(corners, [0, 1, 1, 1])


def test_oracle_guard(frozen_quad):
    oracle = MultilinearOracle(SetOracle(frozen_quad), mode="direct")
    with pytest.raises(OutOfBox):
        oracle.value_batch([[1.1, 0.0]])
    with pytest.raises(OutOfBox):
        oracle.gradient_batch([[-0.1, 0.0]])
    # a stray ulp beyond the wall is clipped, not rejected
    v = oracle.value_batch([[1.0 + 1e-13, 0.0]])[0]
    assert v == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["direct", "exact", "sampled"],
                         ids=["dr", "exact", "sampled"])
def test_oracle_checks_the_batch_before_charging(frozen_quad, mode):
    oracle = MultilinearOracle(SetOracle(frozen_quad), mode=mode, samples=50)
    for bad, error in (([[0.5, 0.5, 0.5]], ValueError),           # wrong width
                       (np.full((2, 2, 2), 0.5), ValueError),     # 3-D batch
                       ([[0.5, 1.5]], OutOfBox),                  # outside the cube
                       ([[0.5, 0.5], [np.nan, 0.5]], OutOfBox),   # not a number
                       ([[0.5, np.inf]], OutOfBox)):              # infinite
        for call in (oracle.value_batch, oracle.gradient_batch,
                     oracle.grad_and_value_batch):
            with pytest.raises(error):
                call(bad)
    assert oracle.rounds_meter.snapshot() == (0, 0)
    assert (oracle.F_queries, oracle.grad_queries) == (0, 0)


def test_oracle_accounting(frozen_quad):
    oracle = MultilinearOracle(SetOracle(frozen_quad), mode="direct")
    oracle.value_batch([[0.5, 0.5], [0, 0], [1, 1]])
    oracle.gradient_batch([[0.5, 0.5], [0.25, 0.25]])
    oracle.grad_and_value_batch([[0.1, 0.2]])
    assert oracle.rounds_meter.rounds == 3
    assert oracle.rounds_meter.queries == 6
    assert oracle.F_queries == 4           # 3 values + 1 fused
    assert oracle.grad_queries == 2 * 3    # n=2 per gradient point


def test_oracle_gradient_matches_finite_differences():
    inst = generate_random_instance("quadratic", 4, 31)
    oracle = MultilinearOracle(SetOracle(inst), mode="direct")
    z = np.array([0.31, 0.62, 0.18, 0.55])
    g = oracle.gradient_batch(z[None, :])[0]
    h = 1e-6
    for u in range(4):
        zp, zm = z.copy(), z.copy()
        zp[u] += h
        zm[u] -= h
        fp, fm = inst.value_batch([zp, zm])
        fd = (fp - fm) / (2 * h)
        assert abs(fd - g[u]) <= 1e-5 * max(1.0, abs(g[u]))


def test_gradient_antitone():
    # diminishing returns: raising any coordinate can only lower gradients
    inst = generate_random_instance("quadratic", 5, 32)
    oracle = MultilinearOracle(SetOracle(inst), mode="direct")
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
    box = BoxDomain(np.zeros(2), np.full(2, 2.0))
    q = on_box(inst, box)
    cube, active = q.cube, q.active
    assert cube.c == 0.0
    assert np.allclose(cube.h, [2.0, 2.0])
    assert np.allclose(cube.H, [[0.0, -2.0], [-2.0, 0.0]])
    assert active.tolist() == [0, 1]
    assert np.allclose(box.embed([0.25, 0.5]), [0.5, 1.0])
    # rescaled polynomial agrees with the original across the box
    z = np.array([[0.1, 0.9], [0.7, 0.3], [1.0, 1.0]])
    assert np.allclose(cube.value_batch(z), inst.value_batch(2.0 * z))


def test_an_unboxed_quadratic_is_its_own_cube(frozen_quad):
    assert frozen_quad.box is None and frozen_quad.cube is frozen_quad
    assert frozen_quad.active.tolist() == [0, 1]


def test_rescale_revalidates_on_the_box():
    # x0 - x0*x1 is fine on the unit cube but dips to -6 at (3, 3)
    inst = MultilinearQuadraticInstance(
        n=2, c=0.0, h=np.array([1.0, 0.0]),
        H=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(NonNegativityViolation, match="negative on a vertex"):
        on_box(inst, BoxDomain(np.zeros(2), np.full(2, 3.0)))


def test_rescale_all_pinned(frozen_quad):
    box = BoxDomain(np.full(2, 0.5), np.full(2, 0.5))
    pinned = on_box(frozen_quad, box)
    assert pinned.cube is None and pinned.active.size == 0
    assert np.allclose(box.embed(np.zeros(2)), [0.5, 0.5])


def test_rescale_checks_a_pinned_point():
    # F(1, 1) = 2 - 3 = -1: a box pinned there has one point, and it is negative
    h, H = [1.0, 1.0], [[0.0, -3.0], [-3.0, 0.0]]
    with pytest.raises(NonNegativityViolation, match="pinned point"):
        MultilinearQuadraticInstance(2, 0.0, h, H, box=BoxDomain(np.ones(2), np.ones(2)))
    inst = MultilinearQuadraticInstance(2, 0.0, h, H, box=BoxDomain(np.zeros(2), np.zeros(2)))
    assert inst.cube is None and inst.active.size == 0


def test_rescale_one_pinned(frozen_quad):
    box = BoxDomain(np.array([0.25, 0.0]), np.array([0.25, 1.0]))
    q = on_box(frozen_quad, box)
    cube, active = q.cube, q.active
    assert active.tolist() == [1]
    assert cube.n == 1
    assert cube.c == pytest.approx(0.25)
    assert np.allclose(cube.h, [0.75])     # slope of F(0.25, t) in t
    assert np.allclose(box.embed([0.0, 1.0]), [0.25, 1.0])


# -- exact box optimum ----------------------------------------------------------------

def test_box_optimum_exact_at_corner(frozen_quad):
    # the optimum value 1.0 is attained on two whole edges, vertices included
    assert box_optimum(frozen_quad) == 1.0
    box = BoxDomain(np.array([0.25, 0.0]), np.array([0.25, 1.0]))
    assert box_optimum(on_box(frozen_quad, box)) == pytest.approx(1.0)   # F(0.25, 1)
    pinned = BoxDomain(np.full(2, 0.5), np.full(2, 0.5))
    assert box_optimum(on_box(frozen_quad, pinned)) == 0.75


def _random_box(rng, n, shape):
    if shape == "unit":
        return BoxDomain(np.zeros(n), np.ones(n))
    lower = rng.random(n) * 0.5
    upper = lower + rng.random(n) * (1.0 - lower)
    if shape == "one-pinned":
        k = rng.integers(n)
        upper[k] = lower[k]
    return BoxDomain(lower, upper)


@pytest.mark.parametrize("shape", ["inner", "unit", "one-pinned"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_box_optimum_bounds_the_box_and_sits_on_a_vertex(n, shape):
    # the zero diagonal makes F affine along each coordinate, so no point
    # of the box beats its best vertex
    rng = np.random.default_rng(100 * n + len(shape))
    for seed in range(4):
        inst = generate_random_instance("quadratic", n, seed)
        box = _random_box(rng, n, shape)
        opt = box_optimum(on_box(inst, box))
        pts = box.lower + box.width * rng.random((4096, n))
        assert opt >= inst.value_batch(pts).max() - 1e-12
        vertices = np.where(all_subsets_matrix(n), box.upper, box.lower)
        assert opt == pytest.approx(inst.value_batch(vertices).max(), rel=1e-12, abs=1e-12)


# -- full runs ----------------------------------------------------------------------

def test_run_dr_unit_cube(frozen_quad):
    res = run_dr(frozen_quad, 0.05)
    assert res.value >= 0.45 * 1.0
    assert res.value == frozen_quad.value_batch(res.x)[0]
    assert res.tau == pytest.approx(0.75)  # F at the all-halves point
    assert res.oracle.rounds_meter.rounds <= 2 + 1 + 2 * res.iterations + 1


def test_run_dr_scaled_box():
    inst = MultilinearQuadraticInstance(
        n=2, c=0.0, h=np.array([1.0, 1.0]),
        H=np.array([[0.0, -0.5], [-0.5, 0.0]]))
    inst = on_box(inst, BoxDomain(np.zeros(2), np.full(2, 2.0)))
    res = run_dr(inst, 0.05)
    assert (res.x >= -1e-12).all() and (res.x <= 2.0 + 1e-12).all()
    opt = box_optimum(inst)
    assert opt == pytest.approx(2.0)
    assert res.value >= 0.45 * opt
    assert res.value == inst.value_batch(res.x)[0]


def test_run_dr_large_n_on_a_shrunk_box():
    # f(N) = 0 at n = 21: every row bound h_u + sum_v H_uv / 2 is 0; over
    # [0.5, 1]^n the rescaled rows are -0.25 each and c = 5.25 absorbs them
    n = 21
    inst = MultilinearQuadraticInstance(n, 0.0, np.ones(n), -0.1 * (np.ones((n, n)) - np.eye(n)),
                                        box=BoxDomain(np.full(n, 0.5), np.ones(n)))
    assert inst.cube.c == pytest.approx(5.25)
    assert np.allclose(inst.cube.h + 0.5 * inst.cube.H.sum(axis=1), -0.25)
    res = run_dr(inst, 0.1)
    assert (res.x >= 0.5).all() and (res.x <= 1.0).all()
    assert res.value == inst.value_batch(res.x)[0]
    assert res.value >= 0.0


def test_run_dr_quarter_bound_and_tau_sandwich():
    for seed in range(5):
        inst = generate_random_instance("quadratic", 3, 40 + seed)
        res = run_dr(inst, 0.05)
        opt = box_optimum(inst)
        assert res.value >= 0.45 * opt - 1e-9
        assert opt + 1e-9 >= res.tau >= opt / 4.0 - 1e-9


def test_run_dr_all_pinned(frozen_quad):
    res = run_dr(on_box(frozen_quad, BoxDomain(np.full(2, 0.5), np.full(2, 0.5))), 0.1)
    assert res.iterations == 0
    assert np.allclose(res.x, [0.5, 0.5])
    assert res.value == pytest.approx(0.75)


def test_run_dr_all_pinned_returns_an_unqueried_oracle(frozen_quad):
    pinned = on_box(frozen_quad, BoxDomain(np.full(2, 0.5), np.full(2, 0.5)))
    res = run_dr(pinned, 0.1)
    assert res.core is None
    assert res.oracle.rounds_meter.snapshot() == (0, 0)
    assert (res.oracle.F_queries, res.oracle.grad_queries) == (0, 0)
    with pytest.raises(ParamOutOfRange):   # epsilon is checked before the shortcut
        run_dr(pinned, 5.0)


def test_run_dr_one_pinned(frozen_quad):
    box = BoxDomain(np.array([0.25, 0.0]), np.array([0.25, 1.0]))
    res = run_dr(on_box(frozen_quad, box), 0.1)
    assert res.x[0] == pytest.approx(0.25)
    assert -1e-12 <= res.x[1] <= 1.0 + 1e-12
    assert res.value >= 0.45 * 1.0       # optimum F(0.25, 1) = 1


def test_run_dr_unit_box_matches_the_core():
    # with no box the instance is its own cube, so run_dr is run_core on
    # the instance's own oracle, value included, bit for bit
    for n, seed in ((2, 0), (5, 7), (8, 3)):
        inst = generate_random_instance("quadratic", n, seed)
        dr = run_dr(inst, 0.1)
        core = run_core(MultilinearOracle(SetOracle(inst), mode="direct"), 0.1)
        assert core_bits(dr.core) == core_bits(core)
        assert dr.x.tobytes() == core.x.tobytes()
        assert dr.value == core.value
