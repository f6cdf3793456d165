"""Oracle gateway: the boolean-row contract, accounting, batching,
dedupe, marginal-gain rounds and extension rounds."""

import importlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subpar.oracles as oracles
from subpar import (CutInstance, InvalidElement, MultilinearOracle, NonFiniteValue,
                    OracleAccounting, SetOracle, generate_random_instance, ids_of,
                    run_continuous)
from subpar.oracles import (OutOfBox, _distinct_rows, _slices, all_subsets_matrix,
                            default_threads, members_matrix)

from conftest import power_set_extension


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
    # a batch longer than one chunk is cut into equal slices, in order:
    # none longer than a chunk, none shorter than half of one
    monkeypatch.setattr(oracles, "_EVAL_CHUNK", 64)
    inst = CutInstance(18, [(u, u + 1, 1.0) for u in range(17)])
    evaluate, sizes = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: sizes.append(m.shape[0]) or evaluate(m))
    for rows in (65, 1000):
        sizes.clear()
        m = np.random.default_rng(5).random((rows, 18)) < 0.5
        so = SetOracle(inst)
        got = so.eval_batch(m)
        assert sum(sizes) == rows and len(sizes) > 1
        assert 32 <= min(sizes) and max(sizes) <= 64
        cuts = np.cumsum([0] + sizes)
        want = np.concatenate([evaluate(m[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])
        assert np.array_equal(got, want)
        assert so.accounting.snapshot() == (1, rows)


@pytest.mark.parametrize("count, width, chunk", [
    (1, 1, 64), (64, 1, 64), (65, 1, 64), (1000, 1, 64),
    (50, 15, 60), (12, 4, 10), (7, 9, 64), (400, 301, 16384),
    (3, 5, 4), (10, 100, 64),                        # a base wider than a chunk
])
def test_slices_are_equal_runs_of_whole_bases(monkeypatch, count, width, chunk):
    # in order over 0..count, lengths differing by at most one base, each
    # run at most chunk + width - 1 rows: one run per chunk of rows,
    # rounded up, or one per base once a base is wider than a chunk
    monkeypatch.setattr(oracles, "_EVAL_CHUNK", chunk)
    runs = _slices(count, width)
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
    assert runs[-1][1] == count
    bases = [hi - lo for lo, hi in runs]
    assert min(bases) >= 1 and max(bases) - min(bases) <= 1
    assert max(bases) * width <= chunk + width - 1
    assert len(runs) == min(count, -(-count * width // chunk))


def test_power_set_cache_evaluates_distinct_subsets_in_first_seen_order(monkeypatch):
    # a round of at least 4 * 2^n rows over n <= 16 reaches the instance
    # as its distinct subsets, each once, in the order they first occur
    inst = CutInstance(8, [(0, 1, 1.0), (2, 3, 0.5), (1, 4, 2.0), (5, 7, 1.5)])
    evaluate, seen = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: seen.append(m.copy()) or evaluate(m))
    m = np.random.default_rng(11).random((3000, 8)) < 0.3
    got = SetOracle(inst).eval_batch(m)
    first = {}
    for row in m:
        first.setdefault(row.tobytes(), row)
    (rows,) = seen
    assert np.array_equal(rows, np.array(list(first.values())))
    assert np.array_equal(got, evaluate(m))


def test_threads_default_to_core_count():
    assert default_threads() == (os.cpu_count() or 1)


# -- pair-gain rounds --------------------------------------------------------------

@pytest.mark.parametrize("kind,n,per_element", [
    pytest.param("cut", 9, False, id="cut-9"),
    pytest.param("coverage", 8, False, id="coverage-8"),
    pytest.param("quadratic", 7, False, id="quadratic-7"),
    pytest.param("cut", 9, True, id="cut-9-per_element"),
    pytest.param("coverage", 8, True, id="coverage-8-per_element"),
    pytest.param("quadratic", 7, True, id="quadratic-7-per_element"),
])
def test_eval_gains_are_pair_gains(kind, n, per_element):
    inst = generate_random_instance(kind, n, 3)
    elements = [n - 1, 0, 3]
    bases = np.random.default_rng(6).random((40, 3, n) if per_element else (40, n)) < 0.5
    inside = bases[..., elements]
    assert inside.any() and not inside.all()        # u both in and out of S
    so = SetOracle(inst)
    g = so.eval_gains(bases, elements)
    assert g.shape == (40, 3)
    assert so.accounting.snapshot() == (1, 40 * 2 * 3)
    per_pair = bases if per_element else np.repeat(bases[:, None], 3, axis=1)
    plus, minus = per_pair.copy(), per_pair.copy()
    plus[:, range(3), elements], minus[:, range(3), elements] = True, False
    want = (inst.evaluate_batch(plus.reshape(-1, n))
            - inst.evaluate_batch(minus.reshape(-1, n))).reshape(40, 3)
    assert np.allclose(g, want, rtol=0.0, atol=1e-12)


def test_eval_gains_per_element_rows(monkeypatch):
    # a base per element reaches the instance as [S+u, S-u] per element,
    # element-major: 2Bk rows, the 2k per base the round is charged
    inst = generate_random_instance("cut", 18, 0)
    evaluate, seen = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: seen.append(m.copy()) or evaluate(m))
    bases = np.random.default_rng(8).random((4, 3, 18)) < 0.5
    elements = [5, 17, 0]
    before = bases.copy()
    so = SetOracle(inst)
    so.eval_gains(bases, elements)
    rows = np.concatenate(seen)
    assert rows.shape == (4 * 3 * 2, 18) and rows.dtype == bool
    for b in range(4):
        for j, u in enumerate(elements):
            plus, minus = bases[b, j].copy(), bases[b, j].copy()
            plus[u], minus[u] = True, False
            at = 2 * (3 * b + j)
            assert np.array_equal(rows[at], plus) and np.array_equal(rows[at + 1], minus)
    assert so.accounting.snapshot() == (1, 4 * 3 * 2)
    assert np.array_equal(bases, before)             # the input is not modified


def test_eval_gains_evaluate_each_base_once(monkeypatch):
    # n > 16 keeps _evaluate's power-set table out: B distinct bases and
    # their B*k flips reach the instance, against the 2*B*k pair rows the
    # round is charged
    inst = generate_random_instance("cut", 18, 0)
    evaluate, sizes = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: sizes.append(m.shape[0]) or evaluate(m))
    bases = np.random.default_rng(7).random((30, 18)) < 0.5
    so = SetOracle(inst)
    so.eval_gains(bases, [2, 17, 5, 0, 9])
    assert sum(sizes) == 30 * 6
    assert so.accounting.snapshot() == (1, 30 * 2 * 5)


def test_eval_gains_without_repeats_keep_the_given_order(monkeypatch):
    # distinct bases go in first-seen order, so a batch without repeats
    # reaches the instance as each base followed by its k flips, base by
    # base in the order given; a round longer than a chunk is cut into
    # whole bases, each slice a multiple of k+1 rows
    inst = generate_random_instance("cut", 18, 0)
    evaluate, seen = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: seen.append(m.copy()) or evaluate(m))
    bases = np.random.default_rng(6).random((12, 18)) < 0.5
    elements = [4, 0, 17]
    want = np.repeat(bases, 4, axis=0).reshape(12, 4, 18)
    for j, u in enumerate(elements):
        want[:, 1 + j, u] ^= True
    for chunk in (oracles._EVAL_CHUNK, 10):
        monkeypatch.setattr(oracles, "_EVAL_CHUNK", chunk)
        seen.clear()
        SetOracle(inst).eval_gains(bases, elements)
        assert np.array_equal(np.concatenate(seen), want.reshape(-1, 18))
        assert len(seen) == -(-12 * 4 // chunk)
        assert all(len(rows) % 4 == 0 for rows in seen)


# _distinct_rows keys a base by a float up to n = 53, whose last bit
# weighs 2^52, and by a byte string past it
@pytest.mark.parametrize("n", [18, 53, 54, 70])
def test_eval_gains_evaluate_each_distinct_base_once(monkeypatch, n):
    # repeated bases, deduplicated by the caller and asked for by their
    # counts, reach the instance once each, with their k flips; the
    # round is still charged 2k per base asked for
    inst = generate_random_instance("cut", n, 0)
    evaluate, sizes = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: sizes.append(m.shape[0]) or evaluate(m))
    rng = np.random.default_rng(9)
    pool = rng.random((7, n)) < 0.5
    pool[1, :] = pool[0]
    pool[1, n - 1] = not pool[0, n - 1]           # differs from base 0 in the last bit only
    bases = pool[rng.integers(0, 7, 40)]
    distinct, which = _distinct_rows(bases)
    assert len(distinct) == len(np.unique(bases, axis=0))
    elements = [2, n - 1, 5, 0, 9]
    so = SetOracle(inst)
    g = so.eval_gains(distinct, elements, counts=np.bincount(which))[which]
    assert sum(sizes) == len(distinct) * 6
    assert so.accounting.snapshot() == (1, 40 * 2 * 5)
    for b in range(40):
        alone = SetOracle(inst).eval_gains(bases[b], elements)[0]
        assert np.allclose(g[b], alone, rtol=0.0, atol=1e-12)


def _first_seen(m):
    # the np.unique path, written out: distinct rows sorted, then put in
    # the order of their first row
    _, first, inverse = np.unique(m, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return m[first[order]], rank[inverse.reshape(-1)]


# the dedupe of the gateway's power-set cache and of the discrete
# G-estimate round: widths up to 16 take the 2^w table, 17 the float key
@pytest.mark.parametrize("w", range(1, 18))
@pytest.mark.parametrize("repeats", [True, False])
def test_distinct_rows_keep_first_seen_order(w, repeats):
    rng = np.random.default_rng(w)
    if repeats:
        # a small pool drawn over and over, most rows equal to the first
        pool = rng.random((5, w)) < 0.5
        m = pool[rng.integers(0, 5, 3000) * (rng.random(3000) < 0.3)]
    else:
        codes = rng.permutation(1 << w)[:500] if w < 17 else rng.choice(1 << w, 500, replace=False)
        m = (codes[:, None] >> np.arange(w)) & 1 == 1
    rows, inverse = _distinct_rows(m)
    want_rows, want_inverse = _first_seen(m)
    assert rows.dtype == bool and np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse)
    assert np.array_equal(rows[inverse], m)
    if not repeats:
        assert np.array_equal(rows, m)


@pytest.mark.parametrize("n", [6, 18])
def test_eval_gains_counts_ask_for_each_base_that_many_times(monkeypatch, n):
    # counts change the charge only: the given bases reach the instance
    # as given, each once with its k flips, so the gains match a round
    # without counts bit for bit
    inst = generate_random_instance("cut", n, 2)
    rng = np.random.default_rng(4)
    bases = np.unique(rng.random((9, n)) < 0.5, axis=0)
    counts = rng.integers(1, 12, len(bases))
    elements = [n - 1, 0, 3, 4]
    so = SetOracle(inst)
    g = so.eval_gains(bases, elements, counts=counts)
    assert so.accounting.snapshot() == (1, 2 * 4 * counts.sum())
    assert g.tobytes() == SetOracle(inst).eval_gains(bases, elements).tobytes()
    # repeated given bases are not merged: each is evaluated once, as given
    evaluate, seen = inst.evaluate_batch, []
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: seen.append(m.copy()) or evaluate(m))
    bases = np.concatenate([bases, bases[:2]])
    so = SetOracle(inst)
    g = so.eval_gains(bases, elements, counts=[1] * len(bases))
    assert so.accounting.snapshot() == (1, 2 * 4 * len(bases))
    want = np.repeat(bases, 5, axis=0).reshape(-1, 5, n)
    for j, u in enumerate(elements):
        want[:, 1 + j, u] ^= True
    assert np.array_equal(np.concatenate(seen), want.reshape(-1, n))
    assert np.allclose(g[-2:], g[:2], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("counts", [
    np.array([1, 0]),                               # zero
    np.array([2, -1]),                              # negative
    np.array([1.0, 2.0]),                           # not integers
    np.array([True, True]),
    np.array([1]),                                  # one per base, not fewer
    np.array([1, 1, 1]),                            # nor more
    np.array([[1, 1]]),                             # not 1-D
    np.array(2),
])
def test_eval_gains_reject_bad_counts(counts):
    so = SetOracle(CutInstance(4, [(0, 1, 1.0)]))
    with pytest.raises(InvalidElement, match="counts"):
        so.eval_gains(np.zeros((2, 4), dtype=bool), [0], counts=counts)
    with pytest.raises(InvalidElement, match="counts"):   # per-element bases take none
        so.eval_gains(np.zeros((2, 1, 4), dtype=bool), [0], counts=np.array([1, 1]))
    assert so.accounting.snapshot() == (0, 0)


class _CountingInstance:
    """|S| per row: a set function with no float temporaries of its own."""

    def __init__(self, n):
        self.n = n

    def evaluate_batch(self, m):
        return np.count_nonzero(m, axis=1).astype(np.float64)


def test_eval_gains_lay_out_one_slice_of_flip_rows_at_a_time():
    # U(k+1) = 120,400 flip rows of n = 300 are 36 MB, over seven
    # evaluation slices; no more than about one slice is ever laid out
    n, U = 300, 400
    bases = np.random.default_rng(3).random((U, n)) < 0.5
    so = SetOracle(_CountingInstance(n))
    tracemalloc.start()
    try:
        g = so.eval_gains(bases, np.arange(n), counts=np.full(U, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = U * (n + 1) * n
    assert U * (n + 1) > 4 * oracles._EVAL_CHUNK
    assert peak < rows / 4, peak
    size = bases.sum(axis=1, keepdims=True)
    assert np.array_equal(g, np.where(bases, size - (size - 1), (size + 1) - size))
    assert so.accounting.snapshot() == (1, 2 * n * 3 * U)


@pytest.mark.parametrize("bases, elements", [
    (np.zeros((2, 4)), [0]),                        # float bases
    (np.zeros((2, 4), dtype=bool), [4]),
    (np.zeros((2, 4), dtype=bool), [-1]),
    (np.zeros((2, 4), dtype=bool), [1.0]),
    (np.zeros((2, 4), dtype=bool), []),
    (np.zeros((2, 1, 4)), [0]),                     # float per-element bases
    (np.zeros((2, 2, 4), dtype=bool), [0]),         # k + 1 bases per row
])
def test_eval_gains_reject_bad_input(bases, elements):
    so = SetOracle(CutInstance(4, [(0, 1, 1.0)]))
    with pytest.raises(InvalidElement):
        so.eval_gains(bases, elements)
    assert so.accounting.snapshot() == (0, 0)


def test_eval_gains_reject_empty(k2):
    with pytest.raises(ValueError):
        SetOracle(k2).eval_gains(np.zeros((0, 2), dtype=bool), [0])
    with pytest.raises(ValueError, match="empty batch"):     # per-element bases
        SetOracle(k2).eval_gains(np.zeros((0, 1, 2), dtype=bool), [0])


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
    # width 2n + 1 = 15 rows per base: 50 bases are 750 rows, 13 chunks
    # of 60, so the round is 13 equal runs of 3 or 4 whole bases, and
    # still one round
    monkeypatch.setattr(oracles, "_EVAL_CHUNK", 60)
    inst = generate_random_instance(kind, 7, 2)
    bases = np.random.default_rng(4).random((50, 7)) < 0.5
    cuts = [0, 3, 7, 11, 15, 19, 23, 26, 30, 34, 38, 42, 46, 50]
    slices = [bases[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    want_marg = np.concatenate([inst.gradient_batch(b.astype(np.float64)) for b in slices])
    want_vals = np.concatenate([inst.evaluate_batch(b) for b in slices])
    gradient, evaluate, sizes = inst.gradient_batch, inst.evaluate_batch, []
    monkeypatch.setattr(inst, "gradient_batch",
                        lambda p: sizes.append(("gradient", len(p))) or gradient(p))
    monkeypatch.setattr(inst, "evaluate_batch",
                        lambda m: sizes.append(("values", len(m))) or evaluate(m))
    so = SetOracle(inst)
    marg, vals = so.eval_marginals(bases, values=True)
    assert sizes == [(call, len(b)) for b in slices for call in ("gradient", "values")]
    assert np.array_equal(marg, want_marg) and np.array_equal(vals, want_vals)
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

    def value_batch(self, X):
        with np.errstate(invalid="ignore"):     # 0 * inf is NaN, poisoned too
            return power_set_extension(self, X, grads=False)

    def gradient_batch(self, X):
        with np.errstate(invalid="ignore"):
            return power_set_extension(self, X)[0]


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


# -- extension rounds ----------------------------------------------------------------

@pytest.mark.parametrize("kind,n", [("cut", 3), ("coverage", 7), ("quadratic", 10)])
@pytest.mark.parametrize("grads", [True, False])
def test_eval_extension_is_one_power_set_round(kind, n, grads, spy_oracle):
    inst = generate_random_instance(kind, n, 4)
    spy = spy_oracle(inst)
    X = np.random.default_rng(n).random((5, n))
    out = spy.eval_extension(X, grads)
    assert spy.accounting.snapshot() == (1, 1 << n)
    assert (spy.batches, spy.rows) == (1, 1 << n)
    if grads:
        assert np.array_equal(out[0], inst.gradient_batch(X))
        out = out[1]
    assert np.array_equal(out, inst.value_batch(X))
    spy.eval_extension(X[:1], grads)
    assert spy.accounting.snapshot() == (2, 2 << n)


@pytest.mark.parametrize("grads", [True, False])
def test_direct_extension_round_charges_its_points(grads, spy_oracle):
    inst = generate_random_instance("quadratic", 10, 4)
    spy = spy_oracle(inst)
    X = np.random.default_rng(10).random((5, 10))
    out = spy.eval_extension(X, grads, direct=True)
    assert spy.accounting.snapshot() == (1, 5)
    assert (spy.batches, spy.rows) == (1, 5)
    if grads:
        assert np.array_equal(out[0], inst.gradient_batch(X))
        out = out[1]
    assert np.array_equal(out, inst.value_batch(X))


@pytest.mark.parametrize("points, error", [
    (np.full((2, 4), 0.5), ValueError),            # wrong width
    (np.full(3, 0.5), ValueError),                 # one point is not a batch here
    (np.full((2, 2, 3), 0.5), ValueError),         # 3-D batch
    (np.zeros((0, 3)), ValueError),                # empty batch
    ([[0.5, 0.5, 1.0 + 1e-15]], OutOfBox),         # no clamping at the gateway
    ([[0.5, -1e-300, 0.5]], OutOfBox),
    ([[0.5, np.nan, 0.5]], OutOfBox),
    ([[0.5, 0.5, np.inf]], OutOfBox),
])
def test_eval_extension_refuses_a_bad_batch_before_charging(triangle, points, error):
    so = SetOracle(triangle)
    with pytest.raises(error):
        so.eval_extension(points)
    assert so.accounting.snapshot() == (0, 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_extension_raises(value):
    so = SetOracle(PoisonedInstance(3, 2, value))
    so.eval_batch(np.array([[True, True, False]]))
    with pytest.raises(NonFiniteValue, match="round 2"):
        so.eval_extension(np.full((2, 3), 0.5), grads=False)
    with pytest.raises(NonFiniteValue, match="round 3"):
        so.eval_extension(np.full((2, 3), 0.5))
    assert so.accounting.snapshot() == (3, 1 + 2 * 8)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_direct_extension_raises(value):
    # direct mode prices the round by its points, but checks it the same way
    oracle = MultilinearOracle(SetOracle(PoisonedInstance(3, 2, value)), mode="direct")
    with pytest.raises(NonFiniteValue, match="round 1"):
        oracle.value_batch(np.full((2, 3), 0.5))
    with pytest.raises(NonFiniteValue, match="round 2"):
        oracle.gradient_batch(np.full((2, 3), 0.5))
    assert oracle.rounds_meter.snapshot() == (2, 2 * 2)


_PRELUDE = """\
import numpy as np
from subpar import *
from subpar.continuous import pre_process, update
from subpar.discrete import g_estimates
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
    ("run_dr(CutInstance(2, []), 0.1)", "expected a quadratic"),
    ("MultilinearQuadraticInstance(2, 0, [1, 1], [[0, -1], [-1, 0]], "
     "box=BoxDomain([0, 0, 0], [1, 1, 1]))", "box has 3 coordinates"),
    ("BoxDomain([0, 0], [1, 1, 1])", "two vectors of one length"),
    ("check_nonnegative_exhaustive(generate_random_instance('cut', 13, 0))",
     "too large for exhaustive check"),
    ("check_submodular_exhaustive(generate_random_instance('cut', 13, 0))",
     "too large for exhaustive check"),
    ("pre_process(MultilinearOracle(SetOracle(q), mode='direct'), -1.0, 0.1)",
     "tau must be >= 0"),
    ("update(MultilinearOracle(SetOracle(q), mode='direct'), "
     "ContinuousState(np.zeros(2), np.ones(2), 1.0), -1.0, 0.1)", "gamma must be >= 0"),
    ("generate_random_instance('coverage', -1, 0)", "n must be >= 1"),
])
def test_boundary_checks_survive_optimize(code, message):
    # typed errors, not asserts: `python -O` strips asserts
    r = subprocess.run([sys.executable, "-O", "-c", _PRELUDE + code],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1
    assert issubclass(raised(r.stderr), ValueError) and message in r.stderr, r.stderr
