"""Extension oracles against a naive independent implementation.

naive_extension below recomputes F(x) as the literal probability-weighted
sum over all 2^n subsets, with pure-python products -- slow, obvious, and
sharing no code with the package's fold.  Every exact-mode answer is
checked against it; frozen literals were derived by hand first.
"""

import itertools

import numpy as np
import pytest

from subpar import (ExactTooLarge, MultilinearOracle, SetOracle,
                    generate_random_instance, lovasz_value, sample_set)
import subpar.oracles as oracles
from subpar.instances import OutOfBox
from subpar.multilinear import _fold_grad_eval, as_points, clamp01
from subpar.oracles import all_subsets_matrix


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


def test_adjoint_fold_matches_forced_coordinate_folds():
    inst = generate_random_instance("cut", 8, 6)
    table = SetOracle(inst).eval_batch(all_subsets_matrix(8))
    pts = np.random.default_rng(5).random((7, 8))
    grads, vals = _fold_grad_eval(table, pts)
    ref_vals = _fold_grad_eval(table, pts, grads=False)
    # per point, 2n forced arguments: u -> 1 in block 0, u -> 0 in block 1
    forced = np.repeat(pts[:, None, None, :], 2, axis=1).repeat(8, axis=2)
    idx = np.arange(8)
    forced[:, 0, idx, idx] = 1.0
    forced[:, 1, idx, idx] = 0.0
    folded = _fold_grad_eval(table, forced.reshape(-1, 8), grads=False).reshape(7, 2, 8)
    ref_grads = folded[:, 0] - folded[:, 1]
    assert np.abs(vals - ref_vals).max() < 1e-12
    assert np.abs(grads - ref_grads).max() < 1e-12


def test_fold_chunking_is_invisible():
    inst = generate_random_instance("coverage", 6, 9)
    table = SetOracle(inst).eval_batch(all_subsets_matrix(6))
    pts = np.random.default_rng(6).random((50, 6))
    g1, v1 = _fold_grad_eval(table, pts)
    g2, v2 = _fold_grad_eval(table, pts, elem_budget=1)
    assert np.array_equal(g1, g2) and np.array_equal(v1, v2)
    # the forward-only fold gives the same values, in any chunks
    for budget in (1, 1 << 18):
        assert np.array_equal(_fold_grad_eval(table, pts, budget, grads=False), v1)
    # at n=14 the default budget folds 16 points per chunk, so 40 points
    # really split; one point per chunk and one chunk for all must agree
    inst = generate_random_instance("cut", 14, 9)
    table = SetOracle(inst).eval_batch(all_subsets_matrix(14))
    pts = np.random.default_rng(7).random((40, 14))
    g1, v1 = _fold_grad_eval(table, pts)
    for budget in (1, 1 << 18, 1 << 30):
        g2, v2 = _fold_grad_eval(table, pts, elem_budget=budget)
        assert np.array_equal(g1, g2) and np.array_equal(v1, v2)
        assert np.array_equal(_fold_grad_eval(table, pts, budget, grads=False), v1)


def test_fold_refuses_a_table_of_another_size():
    # a typed error, so that python -O keeps the check
    with pytest.raises(ValueError, match="table has 8 values, expected 2\\^2 = 4"):
        _fold_grad_eval(np.zeros(8), np.full((1, 2), 0.5))


def level_fold(table, z):
    """One point's value and gradient by the textbook fold: keep every
    level, recompute its difference in the adjoint sweep."""
    n = z.size
    levels, cur = [], table
    for u in range(n - 1, -1, -1):
        levels.append(cur)
        half = 1 << u
        cur = cur[:half] + z[u] * (cur[half:] - cur[:half])
    grad, w = np.empty(n), np.ones(1)
    for u in range(n):
        inp, half = levels[n - 1 - u], 1 << u
        grad[u] = (w * (inp[half:] - inp[:half])).sum()
        w = np.concatenate([w * (1.0 - z[u]), w * z[u]])
    return grad, cur[0]


@pytest.mark.parametrize("kind,n", [("cut", 10), ("coverage", 9), ("quadratic", 8)])
def test_grad_fold_is_the_per_point_level_fold(kind, n):
    # same arithmetic per point, so equal bits, whatever the batch
    table = SetOracle(generate_random_instance(kind, n, 5)).eval_batch(all_subsets_matrix(n))
    pts = np.random.default_rng(1).random((12, n))
    grads, vals = _fold_grad_eval(table, pts)
    for i in range(12):
        g, v = level_fold(table, pts[i])
        assert np.array_equal(grads[i], g) and vals[i] == v


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


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_needs_a_draw(samples):
    with pytest.raises(ValueError, match="samples >= 1"):
        MultilinearOracle(SetOracle(generate_random_instance("cut", 4, 0)),
                          mode="sampled", samples=samples)


def test_exact_power_set_rows_built_once(monkeypatch, k2):
    # the rows are the gateway's power_set_rows, built on first use
    built = []

    def counting(n):
        built.append(n)
        return all_subsets_matrix(n)

    monkeypatch.setattr(oracles, "all_subsets_matrix", counting)
    so = SetOracle(k2)
    oracle = MultilinearOracle(so, mode="exact")
    pts = np.random.default_rng(3).random((3, 2))
    oracle.value_batch(pts)
    oracle.gradient_batch(pts)
    oracle.grad_and_value_batch(pts)
    assert built == [2]                       # three rounds, one build
    assert so.accounting.snapshot() == (3, 12)
    rows = so.power_set_rows()
    assert rows is so.power_set_rows() and not rows.flags.writeable
    assert np.array_equal(rows, all_subsets_matrix(2))
    assert built == [2]


def test_exact_fold_scratch_is_reused():
    # the oracle folds every round in one kept scratch array, grown only
    # for a larger chunk; the answers match a fold with its own scratch
    inst = generate_random_instance("coverage", 10, 2)
    so = SetOracle(inst)
    oracle = MultilinearOracle(so, mode="exact")
    table = so.eval_batch(all_subsets_matrix(10))
    rng = np.random.default_rng(8)
    big, small = rng.random((40, 10)), rng.random((3, 10))
    g, v = oracle.grad_and_value_batch(big)
    scratch = oracle._fold_work[0]
    assert np.array_equal(g, _fold_grad_eval(table, big)[0])
    assert np.array_equal(v, _fold_grad_eval(table, big)[1])
    assert np.array_equal(oracle.gradient_batch(small), _fold_grad_eval(table, small)[0])
    assert oracle._fold_work[0] is scratch
    work = [np.empty(1)]
    g2, v2 = _fold_grad_eval(table, big, elem_budget=1 << 12, work=work)
    assert work[0].size > 1
    assert np.array_equal(g2, g) and np.array_equal(v2, v)

def test_exact_power_set_round_runs_on_one_blas_thread():
    calls = oracles._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy is not linked against an OpenBLAS with thread calls")
    get = calls[0]
    inst = generate_random_instance("cut", 12, 4)
    seen = []

    class Spy:
        n = inst.n

        def evaluate_batch(self, m):
            seen.append((m.shape[0], get()))
            return inst.evaluate_batch(m)

    before = get()
    oracle = MultilinearOracle(SetOracle(Spy()), mode="exact")
    pts = np.random.default_rng(6).random((5, 12))
    oracle.value_batch(pts)
    oracle.grad_and_value_batch(pts)
    assert seen == [(1 << 12, 1)]         # two rounds, one evaluation
    assert get() == before

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
