"""Oracle gateway: the boolean-row contract, accounting, batching,
dedupe, the one-BLAS-thread switch, the power-set table."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subpar.oracles as oracles
from subpar import (CutInstance, InvalidElement, MultilinearOracle, NonFiniteValue,
                    OracleAccounting, SetOracle, generate_random_instance, ids_of,
                    run_continuous)
from subpar.oracles import (all_subsets_matrix, default_threads, members_matrix, pair_gains,
                            pair_rows, single_blas_thread)


def test_members_matrix_accepts_bool_matrix():
    m = np.array([[True, False], [False, True]])
    out = members_matrix(m, 2)
    assert out.shape == (2, 2) and (out == m).all()


def test_members_matrix_accepts_bool_vector():
    out = members_matrix(np.array([True, False, True]), 3)
    assert out.shape == (1, 3)
    assert ids_of(out[0]) == [0, 2]


def test_members_matrix_rejects_wrong_width():
    with pytest.raises(InvalidElement):
        members_matrix(np.zeros((2, 4), dtype=bool), 3)
    with pytest.raises(InvalidElement):
        members_matrix(np.zeros((2, 2, 3), dtype=bool), 3)
    with pytest.raises(InvalidElement):
        members_matrix(np.array(True), 1)


@pytest.mark.parametrize("subsets", [
    np.array([[0, 0, 0]]),                   # 0/1 ints, not ids
    np.array([[0.0, 1.0, 0.0]]),             # 0/1 floats
    np.array([0, 2]),                        # an id array
    [0, 2],                                  # a flat id list
    {0, 1},                                  # a set
], ids=["int-rows", "float-rows", "id-array", "flat-ids", "set"])
def test_non_boolean_subsets_are_rejected(triangle, subsets):
    so = SetOracle(triangle)
    with pytest.raises(InvalidElement):
        members_matrix(subsets, 3)
    with pytest.raises(InvalidElement):
        so.eval_batch(subsets)
    with pytest.raises(InvalidElement):
        so.eval_marginals(subsets)
    assert so.accounting.snapshot() == (0, 0)


def test_single_members_rejects_out_of_range():
    # an id list is never read as a subset; out-of-range ids are no exception
    for ids in ([3], [-1], np.array([3]), np.array([-1])):
        with pytest.raises(InvalidElement):
            members_matrix(ids, 3)


def test_members_matrix_sequence_of_subsets():
    # a sequence is never read as subsets, whatever its items are
    for subsets in ([{0}, {1, 2}, set()], [[0], [1, 2]], [[True, False, True]]):
        with pytest.raises(InvalidElement):
            members_matrix(subsets, 3)


def test_mask_ids_roundtrip():
    assert ids_of(all_subsets_matrix(6)[0b101001]) == [0, 3, 5]


def test_all_subsets_matrix_layout():
    m = all_subsets_matrix(3)
    assert m.shape == (8, 3)
    # row i is the subset with bitmask i, bit u = element u
    assert np.array_equal(m @ (1 << np.arange(3)), np.arange(8))


def test_accounting_charges():
    acc = OracleAccounting()
    acc.charge(5)
    acc.charge(1)
    assert acc.snapshot() == (2, 6)


def test_eval_batch_is_one_round(k2):
    so = SetOracle(k2)
    vals = so.eval_batch(all_subsets_matrix(2))
    assert list(vals) == [0.0, 1.0, 1.0, 0.0]
    assert so.accounting.rounds == 1
    assert so.accounting.queries == 4


def test_eval_single_costs_a_round(k2):
    so = SetOracle(k2)
    assert so.eval_batch(np.array([True, False])).tolist() == [1.0]
    assert so.accounting.snapshot() == (1, 1)


def test_empty_batch_rejected(k2):
    so = SetOracle(k2)
    with pytest.raises(ValueError):
        so.eval_batch(np.zeros((0, 2), dtype=bool))


def test_dedupe_path_matches_direct_evaluation():
    inst = CutInstance(8, [(0, 1, 1.0), (2, 3, 0.5), (1, 4, 2.0), (5, 7, 1.5)])
    so = SetOracle(inst)
    rng = np.random.default_rng(3)
    m = rng.random((5000, 8)) < 0.4          # 5000 >= 4 * 2^8 triggers dedupe
    got = so.eval_batch(m)
    want = inst.evaluate_batch(m)
    assert np.array_equal(got, want)
    assert so.accounting.queries == 5000      # charged per requested row


def test_chunked_evaluation_matches_its_slices(monkeypatch):
    # a batch longer than one chunk is cut into whole chunks, in order
    monkeypatch.setattr(oracles, "_EVAL_CHUNK", 64)
    inst = CutInstance(18, [(u, u + 1, 1.0) for u in range(17)])
    m = np.random.default_rng(5).random((1000, 18)) < 0.5
    want = np.concatenate([inst.evaluate_batch(m[lo:lo + 64]) for lo in range(0, 1000, 64)])
    so = SetOracle(inst)
    assert np.array_equal(so.eval_batch(m), want)
    assert so.accounting.snapshot() == (1, 1000)


def test_threads_default_to_core_count():
    assert default_threads() == (os.cpu_count() or 1)


def openblas_threads():
    calls = oracles._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy is not linked against an OpenBLAS with thread calls")
    return calls[0]


def test_single_blas_thread_restores_the_count():
    get = openblas_threads()
    before = get()
    with single_blas_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("body failed")
    assert get() == before


@pytest.mark.parametrize("kind", ["cut", "coverage", "quadratic"])
def test_single_blas_thread_keeps_power_set_bits(kind):
    # a power set splits evenly over BLAS threads, so one thread sums
    # every row in the same order
    openblas_threads()
    m = all_subsets_matrix(14)
    inst = generate_random_instance(kind, 14, 5)
    threaded = inst.evaluate_batch(m)
    with single_blas_thread():
        single = inst.evaluate_batch(m)
    assert np.array_equal(threaded, single)

def test_pair_rows_shared_base_order():
    # one base per row of `bases`, shared by every element: [base, +/-, element]
    bases = np.array([[True, False, False, True],
                      [False, True, False, False]])
    rows = pair_rows(bases, [2, 0])
    assert rows.shape == (2, 2, 2, 4) and rows.dtype == bool
    want = [[[[1, 0, 1, 1], [1, 0, 0, 1]],       # S0+2, S0+0
             [[1, 0, 0, 1], [0, 0, 0, 1]]],      # S0-2, S0-0
            [[[0, 1, 1, 0], [1, 1, 0, 0]],       # S1+2, S1+0
             [[0, 1, 0, 0], [0, 1, 0, 0]]]]      # S1-2, S1-0
    assert np.array_equal(rows, np.array(want, dtype=bool))
    assert not bases[1, 0]                       # the input is not modified


def test_pair_rows_per_element_bases():
    # bases (B, k, n): element j is forced into / out of its own base
    rng = np.random.default_rng(3)
    bases = rng.random((3, 5, 5)) < 0.5
    rows = pair_rows(bases, np.arange(5))
    assert rows.shape == (3, 2, 5, 5)
    for b in range(3):
        for j in range(5):
            plus, minus = bases[b, j].copy(), bases[b, j].copy()
            plus[j], minus[j] = True, False
            assert np.array_equal(rows[b, 0, j], plus)
            assert np.array_equal(rows[b, 1, j], minus)


@pytest.mark.parametrize("per_element", [False, True])
def test_pair_gains_are_one_round_of_pair_row_differences(per_element):
    inst = generate_random_instance("coverage", 6, 1)
    rng = np.random.default_rng(5)
    elements = [4, 0, 2]
    bases = rng.random((3, 3, 6) if per_element else (3, 6)) < 0.5
    so = SetOracle(inst)
    g = pair_gains(so, bases, elements)
    assert g.shape == (3, 3)
    assert so.accounting.snapshot() == (1, 2 * 3 * 3)
    # the same rows in the same order, so the same bits
    vals = SetOracle(inst).eval_batch(pair_rows(bases, elements).reshape(-1, 6))
    vals = vals.reshape(3, 2, 3)
    assert np.array_equal(g, vals[:, 0] - vals[:, 1])
    for b in range(3):
        for j, u in enumerate(elements):
            plus = (bases[b, j] if per_element else bases[b]).copy()
            minus = plus.copy()
            plus[u], minus[u] = True, False
            want = inst.evaluate_batch(plus[None])[0] - inst.evaluate_batch(minus[None])[0]
            assert g[b, j] == pytest.approx(want, abs=1e-12)


def test_pair_gains_need_only_eval_batch(triangle):
    class EvalOnly:
        def __init__(self, oracle):
            self.eval_batch = oracle.eval_batch

    bases = np.array([[True, False, False], [True, True, False]])
    g = pair_gains(EvalOnly(SetOracle(triangle)), bases, [0, 2])
    # unit triangle: f(S+u) - f(S-u) = 2 - 2 * |S - u|
    assert np.array_equal(g, [[2.0, 0.0], [0.0, -2.0]])


def test_spy_matches_accounting(k2, spy_oracle):
    spy = spy_oracle(k2)
    spy.eval_batch(all_subsets_matrix(2))
    spy.eval_batch(np.array([[True, False]]))
    assert spy.accounting.rounds == spy.batches == 2
    assert spy.accounting.queries == spy.rows == 5


# -- marginal-gain rounds ----------------------------------------------------------

def explicit_marginals(inst, bases):
    up, down = bases.copy(), bases.copy()
    out = np.empty(bases.shape)
    for u in range(inst.n):
        up[:, u], down[:, u] = True, False
        out[:, u] = inst.evaluate_batch(up) - inst.evaluate_batch(down)
        up[:, u] = down[:, u] = bases[:, u]
    return out


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cut", "coverage", "quadratic"]), n=st.integers(1, 9),
       rows=st.integers(1, 12), seed=st.integers(0, 10 ** 6),
       values=st.booleans())
def test_eval_marginals_equals_explicit_differences(kind, n, rows, seed, values):
    # every instance's closed form against the rows it stands for
    inst = generate_random_instance(kind, n, seed)
    bases = np.random.default_rng(seed).random((rows, n)) < 0.5
    so = SetOracle(inst)
    out = so.eval_marginals(bases, values=values)
    marg, vals = out if values else (out, None)
    assert marg.shape == (rows, n)
    np.testing.assert_allclose(marg, explicit_marginals(inst, bases), rtol=0, atol=1e-9)
    if values:
        np.testing.assert_allclose(vals, inst.evaluate_batch(bases), rtol=0, atol=1e-9)
    assert so.accounting.snapshot() == (1, rows * (2 * n + int(values)))


def test_cut_marginals_are_a_closed_form(triangle, spy_oracle):
    spy = spy_oracle(triangle)
    bases = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=bool)
    marg, vals = spy.eval_marginals(bases, values=True)
    # unit triangle: f(S+u) - f(S-u) = 2 - 2 * |S - u|
    assert marg.tolist() == [[2, 2, 2], [2, 0, 0], [0, 0, -2]]
    assert vals.tolist() == [0, 2, 2]
    assert spy.accounting.snapshot() == (1, 3 * 7)
    assert (spy.batches, spy.marginal_batches, spy.rows) == (1, 1, 21)


@pytest.mark.parametrize("kind", ["cut", "coverage"])
def test_eval_marginals_round_is_its_slices_one_by_one(kind, monkeypatch):
    # width 2n + 1 = 15 rows per base: a 60-row chunk holds 4 bases, so
    # the 50-base round is 13 slices, and still one round
    monkeypatch.setattr(oracles, "_EVAL_CHUNK", 60)
    inst = generate_random_instance(kind, 7, 2)
    bases = np.random.default_rng(4).random((50, 7)) < 0.5
    so = SetOracle(inst)
    marg, vals = so.eval_marginals(bases, values=True)
    slices = [bases[lo:lo + 4] for lo in range(0, 50, 4)]
    assert np.array_equal(marg, np.concatenate([inst.marginals(b) for b in slices]))
    assert np.array_equal(vals, np.concatenate([inst.evaluate_batch(b) for b in slices]))
    assert so.accounting.snapshot() == (1, 50 * 15)


def test_eval_marginals_rejects_empty(k2):
    with pytest.raises(ValueError):
        SetOracle(k2).eval_marginals(np.zeros((0, 2), dtype=bool))


class PoisonedInstance:
    """f = |S| except that sets containing `bad` answer `value`."""

    def __init__(self, n, bad, value):
        self.n, self.bad, self.value = n, bad, value

    def evaluate_batch(self, m):
        return np.where(m[:, self.bad], self.value, m.sum(axis=1).astype(float))

    def marginals(self, m):
        return explicit_marginals(self, m)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_gateway_rejects_non_finite_values(value):
    so = SetOracle(PoisonedInstance(3, 2, value))
    assert so.eval_batch(np.array([[True, True, False]])).tolist() == [2.0]
    with pytest.raises(NonFiniteValue, match="round 2"):
        so.eval_batch(np.array([[False, False, True]]))
    with pytest.raises(NonFiniteValue, match="round 3"):
        so.eval_marginals(np.array([[True, False, False]]))


def test_non_finite_oracle_fails_the_driver_by_name():
    # the all-halves tau round meets the poisoned sets first
    oracle = MultilinearOracle(SetOracle(PoisonedInstance(4, 1, np.nan)),
                               mode="sampled", samples=20)
    with pytest.raises(NonFiniteValue, match="round 1"):
        run_continuous(oracle, 0.1)


# -- the power-set value table ------------------------------------------------------

class Counting:
    """An instance that counts the rows of each evaluate_batch call."""

    def __init__(self, inst):
        self.n, self.inst, self.calls = inst.n, inst, []

    def evaluate_batch(self, m):
        self.calls.append(m.shape[0])
        return self.inst.evaluate_batch(m)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_power_set_rounds_are_charged_but_evaluated_once(k):
    inst = Counting(generate_random_instance("cut", 9, 3))
    so = SetOracle(inst)
    rows = so.power_set_rows()
    tables = [so.eval_batch(rows) for _ in range(k)]
    assert so.accounting.snapshot() == (k, k << 9)
    assert inst.calls == [1 << 9]
    assert all(t is tables[0] for t in tables)


def test_power_set_table_is_read_only(k2):
    so = SetOracle(k2)
    table = so.eval_batch(so.power_set_rows())
    assert not table.flags.writeable and not so.power_set_rows().flags.writeable
    with pytest.raises(ValueError):
        table[0] = 5.0
    assert so.eval_batch(so.power_set_rows()).tolist() == [0.0, 1.0, 1.0, 0.0]


@pytest.mark.parametrize("kind", ["cut", "coverage", "quadratic"])
def test_power_set_table_bits_match_a_fresh_gateway(kind):
    inst = generate_random_instance(kind, 12, 7)
    so = SetOracle(inst)
    so.eval_batch(so.power_set_rows())
    kept = so.eval_batch(so.power_set_rows())
    fresh = SetOracle(inst)
    assert np.array_equal(kept, fresh.eval_batch(fresh.power_set_rows()))
    assert np.array_equal(kept, SetOracle(inst).eval_batch(all_subsets_matrix(12)))


def test_non_finite_power_set_table_still_raises():
    inst = Counting(PoisonedInstance(3, 2, np.nan))
    so = SetOracle(inst)
    for r in (1, 2):                          # nothing is kept from a failed round
        with pytest.raises(NonFiniteValue, match=f"round {r}"):
            so.eval_batch(so.power_set_rows())
    assert inst.calls == [8, 8]
    assert so.accounting.snapshot() == (2, 16)


def test_equal_but_distinct_power_set_is_evaluated(k2):
    inst = Counting(k2)
    so = SetOracle(inst)
    kept = so.eval_batch(so.power_set_rows())
    again = so.eval_batch(all_subsets_matrix(2))
    copy = so.eval_batch(so.power_set_rows().copy())
    assert inst.calls == [4, 4, 4]
    assert again is not kept and again.flags.writeable and copy.flags.writeable
    assert np.array_equal(again, kept) and np.array_equal(copy, kept)
    assert so.accounting.snapshot() == (3, 12)


_PRELUDE = """\
import numpy as np
from subpar import *
from subpar.instances import check_nonnegative_exhaustive, check_submodular_exhaustive
q = MultilinearQuadraticInstance(2, 0.0, [1, 1], [[0, -1], [-1, 0]])
q25 = MultilinearQuadraticInstance(25, 0.0, np.ones(25), np.zeros((25, 25)))
X = np.array([True, False, False])
"""


def raised(stderr):
    """The class of the exception a traceback on stderr ends with."""
    name = stderr.strip().splitlines()[-1].split(":", 1)[0]
    module, _, cls = name.rpartition(".")
    return getattr(importlib.import_module(module or "builtins"), cls)


@pytest.mark.parametrize("code, message", [
    ("from subpar import OracleAccounting; OracleAccounting().charge(0)",
     "at least one query"),
    ("from subpar.oracles import all_subsets_matrix; all_subsets_matrix(27)",
     "n <= 26"),
    ("g_estimates(SetOracle(generate_random_instance('cut', 3, 0)), X, X, "
     "np.zeros(0), np.array([0.5]), 0, 0, 4)", "undecided element"),
    ("g_estimates(SetOracle(generate_random_instance('cut', 3, 0)), X, ~X, "
     "np.full(2, 0.5), np.zeros(0), 0, 0, 4)", "at least one step size"),
    ("box_optimum(q25)", "n <= 24"),
    ("q.value_batch([[0.5, 0.5, 0.5]])", "(P, 2)"),
    ("q.gradient_batch([0.5])", "(P, 2)"),
    ("QuadraticContinuousOracle(CutInstance(2, []))", "expected a quadratic"),
    ("rescale_to_cube(CutInstance(2, []), BoxDomain([0, 0], [1, 1]))",
     "expected a quadratic"),
    ("rescale_to_cube(q, BoxDomain([0, 0, 0], [1, 1, 1]))", "box has 3 coordinates"),
    ("BoxDomain([0, 0], [1, 1, 1])", "two vectors of one length"),
    ("check_nonnegative_exhaustive(generate_random_instance('cut', 13, 0))",
     "too large for exhaustive check"),
    ("check_submodular_exhaustive(generate_random_instance('cut', 13, 0))",
     "too large for exhaustive check"),
    ("pre_process(QuadraticContinuousOracle(q), -1.0, 0.1)", "tau must be >= 0"),
    ("update(QuadraticContinuousOracle(q), "
     "ContinuousState(np.zeros(2), np.ones(2), 1.0), -1.0, 0.1)", "gamma must be >= 0"),
    ("generate_random_instance('coverage', -1, 0)", "n must be >= 1"),
])
def test_boundary_checks_survive_optimize(code, message):
    # typed errors, not asserts: `python -O` strips asserts
    r = subprocess.run([sys.executable, "-O", "-c", _PRELUDE + code],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1
    assert issubclass(raised(r.stderr), ValueError) and message in r.stderr, r.stderr
