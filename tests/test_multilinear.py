"""Extension oracles against a naive independent implementation.

naive_extension below recomputes F(x) as the literal probability-weighted
sum over all 2^n subsets, with pure-python products -- slow, obvious, and
sharing no code with the instances' closed-form extensions.  Every
exact-mode answer is checked against it or against conftest's
power_set_extension, its vectorized twin; frozen literals were derived by hand first.
"""

import itertools

import numpy as np
import pytest

from subpar import (ExactTooLarge, MultilinearOracle, SetOracle,
                    generate_random_instance, lovasz_value, sample_set)
from subpar.instances import OutOfBox
from subpar.multilinear import as_points, clamp01
from subpar.oracles import all_subsets_matrix

from conftest import power_set_extension


def naive_extension(instance, x):
    n = instance.n
    total = 0.0
    for bits in itertools.product([False, True], repeat=n):
        p = 1.0
        for u in range(n):
            p *= x[u] if bits[u] else 1.0 - x[u]
        if p:
            total += p * float(instance.evaluate_batch(np.array([bits]))[0])
    return total


def naive_gradient(instance, x):
    out = np.empty(instance.n)
    for u in range(instance.n):
        up, dn = np.array(x, dtype=float), np.array(x, dtype=float)
        up[u], dn[u] = 1.0, 0.0
        out[u] = naive_extension(instance, up) - naive_extension(instance, dn)
    return out


# -- exact values ---------------------------------------------------------------

def test_k2_frozen_values(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    vals = oracle.value_batch(np.array([[0.5, 0.5], [0.3, 0.8]]))
    # by hand: F = x0(1-x1) + x1(1-x0)
    assert vals[0] == pytest.approx(0.5, abs=1e-12)
    assert vals[1] == pytest.approx(0.62, abs=1e-12)


def test_k2_frozen_gradients(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    g = oracle.gradient_batch(np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 1.0]]))
    # by hand: dF/dx0 = 1 - 2 x1, dF/dx1 = 1 - 2 x0
    assert np.abs(g[0] - [0.0, 0.0]).max() < 1e-12
    assert np.abs(g[1] - [1.0, 1.0]).max() < 1e-12
    assert np.abs(g[2] - [-1.0, 1.0]).max() < 1e-12


@pytest.mark.parametrize("kind,n", [("cut", 6), ("coverage", 5), ("quadratic", 4)])
def test_exact_matches_naive(kind, n):
    inst = generate_random_instance(kind, n, 11)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    pts = np.random.default_rng(1).random((4, n))
    vals = oracle.value_batch(pts)
    for i in range(4):
        assert vals[i] == pytest.approx(naive_extension(inst, pts[i]), rel=1e-10)


def test_exact_gradient_matches_naive():
    inst = generate_random_instance("coverage", 5, 8)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    pts = np.random.default_rng(2).random((3, 5))
    grads = oracle.gradient_batch(pts)
    for i in range(3):
        assert np.abs(grads[i] - naive_gradient(inst, pts[i])).max() < 1e-9


def test_quadratic_extension_is_the_polynomial():
    # zero-diagonal quadratics are multilinear: extension == polynomial
    q = generate_random_instance("quadratic", 5, 3)
    oracle = MultilinearOracle(SetOracle(q), mode="exact")
    pts = np.random.default_rng(4).random((5, 5))
    assert np.abs(oracle.value_batch(pts) - q.value_batch(pts)).max() < 1e-10


def test_grad_and_value_consistent(k2):
    oracle = MultilinearOracle(SetOracle(k2), mode="exact")
    pts = np.array([[0.2, 0.9], [0.5, 0.5]])
    g1 = oracle.gradient_batch(pts)
    v1 = oracle.value_batch(pts)
    g2, v2 = oracle.grad_and_value_batch(pts)
    assert np.array_equal(g1, g2) and np.array_equal(v1, v2)


@pytest.mark.parametrize("kind,n", [("cut", 1), ("cut", 7), ("cut", 10), ("coverage", 1),
                                    ("coverage", 6), ("coverage", 10), ("quadratic", 2),
                                    ("quadratic", 9)])
def test_extension_is_the_power_set_sum(kind, n):
    inst = generate_random_instance(kind, n, 23)
    rng = np.random.default_rng(n)
    X = rng.random((6, n))
    X[0], X[1] = 0.0, 1.0                          # the empty and the full set
    X[2, ::2], X[3, 1::2] = 1.0, 0.0               # coordinates at exactly 1 and 0
    X[4] = rng.integers(0, 2, n)                   # a vertex
    tol = 1e-12 * max(1.0, np.abs(inst.evaluate_batch(all_subsets_matrix(n))).max())
    grads, vals = inst.gradient_batch(X), inst.value_batch(X)
    want_grads, want_vals = power_set_extension(inst, X)
    assert np.abs(vals - want_vals).max() <= tol
    assert np.abs(grads - want_grads).max() <= tol
    # a one-point batch answers as the same row of a larger one
    g1, v1 = inst.gradient_batch(X[2:3]), inst.value_batch(X[2:3])
    assert g1.shape == (1, n) and v1.shape == (1,)
    assert np.abs(g1 - grads[2]).max() <= tol and abs(v1[0] - vals[2]) <= tol


# -- accounting ------------------------------------------------------------------

def test_exact_round_and_query_accounting(spy_oracle, k2):
    so = spy_oracle(k2)
    oracle = MultilinearOracle(so, mode="exact")
    pts = np.random.default_rng(7).random((7, 2))
    oracle.value_batch(pts)
    assert so.accounting.rounds == 1          # one power-set batch
    assert so.accounting.queries == 4
    assert oracle.F_queries == 7
    oracle.gradient_batch(pts)
    assert so.accounting.rounds == 2
    assert oracle.F_queries == 7 + 2 * 2 * 7  # identity prices 2n args per point
    oracle.grad_and_value_batch(pts)
    assert so.accounting.rounds == 3
    assert oracle.F_queries == 35 + (2 * 2 + 1) * 7
    assert so.batches == so.accounting.rounds
    assert so.accounting.queries == so.rows


def test_sampled_round_and_query_accounting(k2):
    so = SetOracle(k2)
    oracle = MultilinearOracle(so, mode="sampled", samples=50)
    oracle.value_batch(np.random.default_rng(8).random((3, 2)))
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 3 * 50    # k draws per argument
    assert oracle.F_queries == 3


@pytest.mark.parametrize("kind", ["cut", "coverage"])
def test_sampled_gradient_accounting(spy_oracle, kind):
    # one marginal-gain round per call, priced as the explicit forced
    # rows: 2n per draw per point, plus one per draw for the values
    n, k, P = 5, 40, 3
    so = spy_oracle(generate_random_instance(kind, n, 4))
    oracle = MultilinearOracle(so, mode="sampled", samples=k,
                               rng=np.random.default_rng(18))
    pts = np.random.default_rng(19).random((P, n))
    oracle.gradient_batch(pts)
    assert so.accounting.snapshot() == (1, 2 * n * k * P)
    assert oracle.F_queries == 2 * n * P
    oracle.grad_and_value_batch(pts)
    assert so.accounting.snapshot() == (2, 2 * n * k * P + (2 * n + 1) * k * P)
    assert oracle.F_queries == 2 * n * P + (2 * n + 1) * P
    assert so.marginal_batches == so.batches == 2
    assert so.rows == so.accounting.queries


def test_sampled_gradient_is_the_forced_argument_difference():
    # the forced arguments threshold the shared panel to S+u and S-u, so
    # the marginal round must agree with evaluating them explicitly on
    # the panel that the same seed draws
    inst = generate_random_instance("coverage", 6, 20)
    pts = np.random.default_rng(21).random((2, 6))
    k = 64
    oracle = MultilinearOracle(SetOracle(inst), mode="sampled", samples=k,
                               rng=np.random.default_rng(22))
    grads, vals = oracle.grad_and_value_batch(pts)
    panel = np.random.default_rng(22).random((k, 6))
    for i in range(2):
        for u in range(6):
            up, dn = pts[i].copy(), pts[i].copy()
            up[u], dn[u] = 1.0, 0.0
            want = (inst.evaluate_batch(panel < up).mean()
                    - inst.evaluate_batch(panel < dn).mean())
            assert grads[i, u] == pytest.approx(want, abs=1e-9)
        assert vals[i] == pytest.approx(inst.evaluate_batch(panel < pts[i]).mean(), abs=1e-12)


def test_exact_threshold_enforced():
    inst = generate_random_instance("cut", 21, 0)
    with pytest.raises(ExactTooLarge, match="n <= 20"):
        MultilinearOracle(SetOracle(inst), mode="exact")


def test_bad_mode_names_the_mode():
    with pytest.raises(ValueError, match="'bogus'"):
        MultilinearOracle(SetOracle(generate_random_instance("cut", 4, 0)), mode="bogus")


@pytest.mark.parametrize("samples", [0, -3, 1.9, "7", True])   # 1.9 took one draw, "7" seven
def test_sampled_needs_a_draw(samples):
    with pytest.raises(ValueError, match="samples >= 1"):
        MultilinearOracle(SetOracle(generate_random_instance("cut", 4, 0)),
                          mode="sampled", samples=samples)


# -- sampled estimator ---------------------------------------------------------

def test_sampled_unbiased_within_four_sigma():
    inst = generate_random_instance("cut", 8, 12)
    x = np.random.default_rng(9).random(8)
    exact = MultilinearOracle(SetOracle(inst), mode="exact")
    truth = float(exact.value_batch(x[None, :])[0])
    k = 20000
    est = float(MultilinearOracle(SetOracle(inst), mode="sampled", samples=k,
                                  rng=np.random.default_rng(10)
                                  ).value_batch(x[None, :])[0])
    # independent draw of the same size estimates the sampling noise
    draws = SetOracle(inst).eval_batch(np.random.default_rng(11).random((k, 8)) < x)
    sigma = draws.std(ddof=1) / np.sqrt(k)
    assert abs(est - truth) <= 4 * sigma + 1e-9


def test_sampled_reproducible():
    inst = generate_random_instance("coverage", 6, 13)
    pts = np.random.default_rng(12).random((4, 6))
    a = MultilinearOracle(SetOracle(inst), mode="sampled", samples=300,
                          rng=np.random.default_rng(99)).value_batch(pts)
    b = MultilinearOracle(SetOracle(inst), mode="sampled", samples=300,
                          rng=np.random.default_rng(99)).value_batch(pts)
    assert np.array_equal(a, b)


def test_sampled_exact_at_vertices():
    # vertex arguments leave nothing random: every draw is the vertex
    # itself, so the estimate matches up to float averaging of identical
    # values (summing k copies then dividing can move the last ulp)
    inst = generate_random_instance("cut", 5, 14)
    oracle = MultilinearOracle(SetOracle(inst), mode="sampled", samples=10)
    pts = np.array([[0, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
    want = inst.evaluate_batch(pts > 0.5)
    got = oracle.value_batch(pts)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# -- helpers ----------------------------------------------------------------------

def test_clamp01():
    x = clamp01(np.array([-1e-13, 0.5, 1.0 + 1e-13]))
    assert x.min() == 0.0 and x.max() == 1.0
    with pytest.raises(ValueError):
        clamp01(np.array([0.5, 1.01]))
    with pytest.raises(OutOfBox):
        clamp01(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        clamp01(np.array([0.5]), n=2)


def test_as_points_validates_the_batch():
    for bad in (np.full((2, 4), 0.5),              # wrong width
                np.full((2, 2, 3), 0.5),           # 3-D batch
                np.array([[0.5, 0.5, 1.0 + 1e-9]])):  # beyond tolerance
        with pytest.raises(ValueError):
            as_points(bad, 3)
    with pytest.raises(OutOfBox):
        as_points([[0.5, -1e-9, 0.5]], 3)
    got = as_points(np.array([[-1e-13, 0.5, 1.0 + 1e-13], [0.2, 0.3, 0.4]]), 3)
    assert np.array_equal(got, [[0.0, 0.5, 1.0], [0.2, 0.3, 0.4]])
    assert np.array_equal(as_points([0.1, 0.2, 0.3], 3), [[0.1, 0.2, 0.3]])


def test_sample_set_extremes():
    rng = np.random.default_rng(15)
    assert sample_set(np.ones(6), rng).all()
    assert not sample_set(np.zeros(6), rng).any()


# -- Lovasz ------------------------------------------------------------------------

def test_lovasz_frozen(k2, triangle):
    assert lovasz_value(SetOracle(k2), np.array([0.5, 0.5])) == pytest.approx(0.0)
    assert lovasz_value(SetOracle(k2), np.array([0.25, 0.75])) == pytest.approx(0.5)
    # by hand: thresholds 0.2/0.5/0.9 give sets {2},{1,2},{0,1,2}
    got = lovasz_value(SetOracle(triangle), np.array([0.2, 0.5, 0.9]))
    assert got == pytest.approx(1.4)


def test_lovasz_below_multilinear():
    inst = generate_random_instance("coverage", 7, 16)
    so = SetOracle(inst)
    oracle = MultilinearOracle(SetOracle(inst), mode="exact")
    pts = np.random.default_rng(17).random((10, 7))
    mult = oracle.value_batch(pts)
    for i in range(10):
        assert lovasz_value(so, pts[i]) <= mult[i] + 1e-9


def test_lovasz_accounting(triangle):
    so = SetOracle(triangle)
    lovasz_value(so, np.array([0.2, 0.5, 0.9]))
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 4          # n + 1 nested level sets
