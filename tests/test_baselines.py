"""Baselines: double greedy, random half, brute force.

Probabilities in the statistical tests are exact hand computations on
the single-edge instance; bands are 4 standard errors wide.
"""

import math

import numpy as np

import pytest

from subpar import (SetOracle, TooLarge, brute_force,
                    double_greedy, generate_random_instance, random_half)
from subpar.instances import CutInstance


def test_double_greedy_deterministic_k2(k2):
    so = SetOracle(k2)
    X = double_greedy(so, randomized=False)
    assert np.array_equal(X, [True, False])
    assert so.accounting.rounds == 2          # one batch per element
    assert so.accounting.queries == 8


def test_double_greedy_deterministic_hits_optimum(tiny_coverage):
    X = double_greedy(SetOracle(tiny_coverage), randomized=False)
    assert X.all()                            # {0,1} is the exact maximum
    assert tiny_coverage.evaluate_batch(X[None, :])[0] == pytest.approx(4.5)


def test_double_greedy_randomized_k2_distribution(k2):
    # both branches end at a single endpoint of the edge: value always 1,
    # and the first element is kept with probability exactly 1/2
    so = SetOracle(k2)
    kept_first = 0
    reps = 10_000
    for s in range(reps):
        X = double_greedy(so, rng=np.random.default_rng(s))
        assert X.sum() == 1
        kept_first += bool(X[0])
    assert abs(kept_first / reps - 0.5) < 4 * 0.5 / math.sqrt(reps)


def test_double_greedy_randomized_half_guarantee():
    inst = generate_random_instance("cut", 8, 33)
    so = SetOracle(inst)
    _, opt = brute_force(so)
    vals = []
    for s in range(1000):
        X = double_greedy(so, rng=np.random.default_rng(s))
        vals.append(float(inst.evaluate_batch(X[None, :])[0]))
    vals = np.array(vals)
    band = 4 * vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() >= opt / 2.0 - band


def test_double_greedy_default_rng_reproducible(k2):
    a = double_greedy(SetOracle(k2))
    b = double_greedy(SetOracle(k2))
    assert np.array_equal(a, b)


def test_random_half_mean_k2(k2):
    rng = np.random.default_rng(7)
    so = SetOracle(k2)
    reps = 10_000
    draws = np.stack([random_half(so, rng) for _ in range(reps)])
    vals = k2.evaluate_batch(draws)
    assert abs(vals.mean() - 0.5) < 4 * 0.5 / math.sqrt(reps)


def test_random_half_quarter_guarantee():
    inst = generate_random_instance("cut", 8, 34)
    so = SetOracle(inst)
    _, opt = brute_force(so)
    rng = np.random.default_rng(8)
    draws = np.stack([random_half(so, rng) for _ in range(4000)])
    vals = inst.evaluate_batch(draws)
    band = 4 * vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() >= opt / 4.0 - band


def test_brute_force_frozen(k2, triangle):
    members, value = brute_force(SetOracle(k2))
    assert np.array_equal(members, [True, False]) and value == 1.0
    members, value = brute_force(SetOracle(triangle))
    # every nonempty proper subset of the 3-cycle cuts 2 edges; the tie
    # breaks toward the smallest bitmask, which is the singleton {0}
    assert np.array_equal(members, [True, False, False]) and value == 2.0


def test_brute_force_zero_function():
    members, value = brute_force(SetOracle(CutInstance(3, [])))
    assert not members.any() and value == 0.0


def test_brute_force_accounting(k2):
    so = SetOracle(k2)
    brute_force(so)
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 4


def test_brute_force_size_limit():
    with pytest.raises(TooLarge):
        brute_force(SetOracle(CutInstance(25, [])))
