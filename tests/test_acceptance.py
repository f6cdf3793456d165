"""Acceptance suite: eight gate criteria, one PASS/FAIL line each.

Each test registers its verdict in conftest.ACCEPTANCE_LINES, which the
terminal-summary hook prints as a scoreboard after the run.  Criteria
are ordered; criterion 2 audits the runs criterion 1 produced.

Budgets and tolerances are pinned in the asserts: the drivers carry a
worst-case (1/2 - 44*eps) factor, which is vacuous at desk epsilons, so
the binding checks are the documented empirical floors (0.45 for the
continuous and box drivers, 0.40 for the discrete driver) plus the
structural bounds (iterations, rounds, queries) at zero tolerance.
"""

import math
import time

import numpy as np

from subpar import (DiscreteParams, MultilinearOracle, QuadraticContinuousOracle,
                    SetOracle, brute_force, discrete_preprocess, discrete_update,
                    double_greedy, estimate_tau, g_estimates, generate_random_instance,
                    grid_search_optimum, run_continuous, run_discrete, run_dr, run_verify)
from subpar.discrete import round_step, _stream

from conftest import ACCEPTANCE_LINES
from gain_oracle import expected_update_gain

_C1_RUNS = []    # (epsilon, iterations) audited again by criterion 2


def _record(num, desc, fn):
    try:
        detail = fn()
    except BaseException as e:
        ACCEPTANCE_LINES.append(
            f"CRITERION {num}: FAIL - {desc} [{type(e).__name__}: {e}]")
        raise
    ACCEPTANCE_LINES.append(f"CRITERION {num}: PASS - {detail}")


def _c1_instances():
    for i in range(20):
        kind = "cut" if i % 2 == 0 else "coverage"
        yield i, generate_random_instance(kind, 8 + i % 9, 100 + i)


def test_criterion_1_continuous_approximation():
    def body():
        t0 = time.perf_counter()
        worst = np.inf
        for i, inst in _c1_instances():
            so = SetOracle(inst)
            _, opt = brute_force(so)
            oracle = MultilinearOracle(SetOracle(inst), mode="exact")
            res = run_continuous(oracle, 0.05, seed=i)
            value = res.core.value
            assert value >= (0.5 - 44 * 0.05) * opt   # proven factor (vacuous)
            assert opt > 0 and value >= 0.45 * opt    # empirical floor
            worst = min(worst, value / opt)
            _C1_RUNS.append((0.05, res.core.iterations))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0
        return (f"continuous ratio >= 0.45 on 20 instances "
                f"(worst {worst:.4f}, {elapsed:.1f}s)")
    _record(1, "continuous approximation floor", body)


def test_criterion_2_iteration_cap():
    def body():
        assert len(_C1_RUNS) == 20        # criterion 1 actually ran
        runs = list(_C1_RUNS)
        for eps in (0.2, 0.1):
            for i, inst in list(_c1_instances())[:4]:
                oracle = MultilinearOracle(SetOracle(inst), mode="exact")
                res = run_continuous(oracle, eps, seed=i)
                runs.append((eps, res.core.iterations))
        worst_slack = min(math.floor(5.0 / e) + 1 - it for e, it in runs)
        for eps, iters in runs:
            assert iters <= math.floor(5.0 / eps) + 1
        return (f"iterations <= floor(5/eps)+1 on {len(runs)} runs "
                f"(min slack {worst_slack})")
    _record(2, "iteration cap", body)


def test_criterion_3_constant_adaptivity():
    def body():
        rounds = []
        dg_ok = []
        for n in (8, 12, 16, 20):
            for seed in range(5):
                inst = generate_random_instance("cut", n, seed)
                so = SetOracle(inst)
                if n <= 16:
                    m = MultilinearOracle(so, mode="exact")
                else:
                    m = MultilinearOracle(
                        so, mode="sampled", samples=2000,
                        rng=np.random.default_rng(
                            np.random.SeedSequence((seed, 0x5A11))))
                run_continuous(m, 0.1, seed=seed)
                rounds.append(so.accounting.rounds)

                dg_so = SetOracle(inst)
                double_greedy(dg_so, rng=np.random.default_rng(
                    np.random.SeedSequence((seed, 0xA15))))
                dg_ok.append((n, dg_so.accounting.rounds))
        spread = max(rounds) - min(rounds)
        assert spread <= 2
        for n, r in dg_ok:
            assert 0 <= r - n <= 2        # linear in n by construction
        return (f"continuous rounds in [{min(rounds)}, {max(rounds)}] across "
                f"n in {{8,12,16,20}} (spread {spread} <= 2); double greedy "
                f"rounds track n")
    _record(3, "adaptivity constant in n", body)


def test_criterion_4_query_scaling():
    def body():
        worst_c = 0.0
        for n in (8, 16):
            for eps in (0.2, 0.1, 0.05):
                inst = generate_random_instance("cut", n, 0)
                m = MultilinearOracle(SetOracle(inst), mode="exact")
                run_continuous(m, eps, seed=0)
                budget = n * eps ** -2 * math.log(1.0 / eps)
                c = m.F_queries / budget
                assert c <= 50.0
                worst_c = max(worst_c, c)
        return f"F-queries <= c * n * eps^-2 * ln(1/eps), max c = {worst_c:.2f}"
    _record(4, "query scaling", body)


def test_criterion_5_invariant_suite():
    def body():
        t0 = time.perf_counter()
        names, findings = run_verify()
        elapsed = time.perf_counter() - t0
        assert findings == [], [str(f) for f in findings]
        assert len(names) == 10
        assert elapsed <= 180.0
        return f"all {len(names)} invariant suites clean ({elapsed:.1f}s)"
    _record(5, "invariant suite", body)


def test_criterion_6_discrete_driver():
    def body():
        t0 = time.perf_counter()
        inst8 = generate_random_instance("cut", 8, 100)

        # (i) chain containment through every iteration, 50 seeds
        eps = 0.1
        ell = DiscreteParams(epsilon=eps).ell
        for seed in range(50):
            so = SetOracle(inst8)
            tau = estimate_tau(so, eps, seed, m=200)
            X, Y = discrete_preprocess(so, tau, eps, seed, m=50)
            assert not (X & ~Y).any()
            for i in range(ell):
                X2, Y2, _ = discrete_update(so, X, Y, eps, seed, i, m=50)
                assert not (X & ~X2).any()        # X only grows
                assert not (Y2 & ~Y).any()        # Y only shrinks
                assert not (X2 & ~Y2).any()       # and X' stays inside Y'
                X, Y = X2, Y2

        # (ii) iteration count is exactly ceil(ln(1/eps)/eps)
        for eps_j, want in ((0.2, 9), (0.1, 24)):
            p = DiscreteParams(epsilon=eps_j, sample_override=50, seed=1)
            assert p.ell == want == math.ceil(math.log(1 / eps_j) / eps_j)
            res = run_discrete(SetOracle(inst8), p)
            assert res.iterations == want

        # (iii) rounding marginals within 4 sigma over 1e4 repetitions
        n = 6
        r = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        delta = 0.3
        X0 = np.zeros(n, dtype=bool)
        Y0 = np.ones(n, dtype=bool)
        rng = _stream(0, 1234)
        reps = 10_000
        added = np.zeros(n)
        dropped = np.zeros(n)
        for _ in range(reps):
            X2, Y2 = round_step(X0, Y0, r, delta, rng)
            added += X2
            dropped += ~Y2
        band = 4 * 0.5 / math.sqrt(reps)
        assert np.abs(added / reps - delta * r).max() < band
        assert np.abs(dropped / reps - delta * (1 - r)).max() < band

        # (iv) G estimator is unbiased against exhaustive expectation, k=6
        X = np.zeros(8, dtype=bool)
        X[0] = True
        Y = np.ones(8, dtype=bool)
        Y[7] = False
        idx = np.flatnonzero(Y & ~X)
        r_k = _stream(2, 77).random(idx.size)
        r_full = np.zeros(8)
        r_full[idx] = r_k
        exact = expected_update_gain(inst8, X, Y, r_full, 0.4)
        ests = np.array([
            g_estimates(SetOracle(inst8), X, Y, r_k, np.array([0.4]),
                        seed, 0, 200)[0]
            for seed in range(30)
        ])
        band = 4 * ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean() - exact) <= max(band, 1e-12)

        # (v) engineering-mode quality floor, 50 seeds on two instances
        means = []
        for n_v, iseed in ((8, 100), (10, 101)):
            inst = generate_random_instance("cut", n_v, iseed)
            _, opt = brute_force(SetOracle(inst))
            vals = [run_discrete(SetOracle(inst),
                                 DiscreteParams(epsilon=0.05,
                                                sample_override=200,
                                                seed=s)).value
                    for s in range(50)]
            mean = float(np.mean(vals))
            assert mean >= 0.40 * opt
            means.append(mean / opt)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 300.0
        return (f"chain, iteration count, rounding marginals, estimator bias, "
                f"and quality floor all hold (mean ratios "
                f"{means[0]:.3f}/{means[1]:.3f} >= 0.40, {elapsed:.0f}s)")
    _record(6, "discrete driver properties", body)


def test_criterion_7_box_constrained_driver():
    def body():
        t0 = time.perf_counter()
        worst = np.inf
        for i in range(10):
            inst = generate_random_instance("quadratic", 2 + i % 4, 200 + i)
            res = run_dr(inst, 0.05)
            _, opt = grid_search_optimum(inst.value_batch, inst.n)
            assert res.value >= (0.5 - 44 * 0.05) * opt
            assert opt > 0 and res.value >= 0.45 * opt
            worst = min(worst, res.value / opt)

            oracle = QuadraticContinuousOracle(inst)
            z = _stream(3, i).random(inst.n) * 0.9 + 0.05
            g = oracle.gradient_batch(z[None, :])[0]
            h = 1e-6
            for u in range(inst.n):
                zp, zm = z.copy(), z.copy()
                zp[u] += h
                zm[u] -= h
                fd = (inst.value(zp) - inst.value(zm)) / (2 * h)
                assert abs(fd - g[u]) <= 1e-5 * max(1.0, abs(g[u]))
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0
        return (f"box driver ratio >= 0.45 on 10 quadratics (worst "
                f"{worst:.4f}); gradients match finite differences")
    _record(7, "box-constrained driver", body)


def test_criterion_8_shared_core_cross_check():
    def body():
        for n in (8, 10, 12):
            inst = generate_random_instance("cut", n, n)
            cont = run_continuous(
                MultilinearOracle(SetOracle(inst), mode="exact"), 0.1, seed=0)
            dr = run_dr(None, 0.1,
                        oracle=MultilinearOracle(SetOracle(inst), mode="exact"))
            tc, td = cont.core.trajectory, dr.core.trajectory
            assert len(tc) == len(td) and len(tc) >= 2
            for p, q in zip(tc, td):
                assert p.tobytes() == q.tobytes()
            assert cont.core.value == dr.value
        return ("continuous and box entry points produce bitwise-identical "
                "trajectories on a shared oracle (cut n in {8,10,12})")
    _record(8, "shared-core cross-check", body)
