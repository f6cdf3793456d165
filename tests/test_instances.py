"""Instance families: frozen values, validation, closed-form gradients,
generators, JSON roundtrip, a fuzzed loader."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subpar import (BoxDomain, CoverageInstance, CutInstance, InvalidInstance,
                    MultilinearQuadraticInstance, NonNegativityViolation, UnreadableInstance,
                    dump_instance, generate_random_instance, load_instance)
from subpar.instances import (check_nonnegative_exhaustive, check_submodular_exhaustive,
                              instance_from_json_dict)
from subpar.oracles import all_subsets_matrix

from conftest import power_set_extension


# -- cut ---------------------------------------------------------------------

def test_cut_k2_frozen(k2):
    # by hand: crossing edges of the single unit edge
    assert list(k2.evaluate_batch(all_subsets_matrix(2))) == [0.0, 1.0, 1.0, 0.0]


def test_cut_triangle_frozen(triangle):
    vals = triangle.evaluate_batch(all_subsets_matrix(3))
    assert list(vals) == [0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]


def test_cut_quadratic_form_matches_edge_count():
    # independent oracle: literal sum of w over edges with one endpoint inside
    rng = np.random.default_rng(0)
    inst = generate_random_instance("cut", 9, 4)
    m = rng.random((200, 9)) < 0.5
    direct = np.zeros(200)
    for u, v, w in inst.edges:
        direct += w * (m[:, u] != m[:, v])
    assert np.abs(inst.evaluate_batch(m) - direct).max() < 1e-10


def test_cut_symmetry():
    inst = generate_random_instance("cut", 7, 2)
    table = inst.evaluate_batch(all_subsets_matrix(7))
    assert np.abs(table - table[::-1]).max() < 1e-12   # f(S) = f(N \ S)


def test_cut_empty_edges_is_zero():
    # the general formula, with d = 0 and W = 0, gives exactly +0.0
    inst = CutInstance(4, [])
    m = all_subsets_matrix(4)
    vals = inst.evaluate_batch(m)
    assert vals.shape == (16,) and not vals.any() and not np.signbit(vals).any()
    assert not inst.gradient_batch(m.astype(np.float64)).any()
    X = np.random.default_rng(0).random((5, 4))
    assert not inst.gradient_batch(X).any() and not inst.value_batch(X).any()


def test_cut_rejects_bad_edges():
    with pytest.raises(InvalidInstance):
        CutInstance(3, [(0, 0, 1.0)])           # self loop
    with pytest.raises(InvalidInstance):
        CutInstance(3, [(0, 3, 1.0)])           # endpoint out of range
    with pytest.raises(InvalidInstance):
        CutInstance(3, [(0, 1, -1.0)])          # negative weight
    with pytest.raises(InvalidInstance):
        CutInstance(3, [(0, 1.5, 1.0)])         # endpoint not an id
    with pytest.raises(InvalidInstance):
        CutInstance(3.5, [])                    # size not an integer


_H = [[0.0, -1.0], [-1.0, 0.0]]


@pytest.mark.parametrize("build, field", [
    (lambda: CutInstance(3, [(0, 1, np.inf)]), "edge weight on (0, 1)"),
    (lambda: CoverageInstance(2, 2, {0: [0]}, [np.inf, 1.0], [0.0, 0.0]), "weights"),
    (lambda: CoverageInstance(2, 2, {0: [0]}, [np.nan, 1.0], [0.0, 0.0]), "weights"),
    (lambda: CoverageInstance(2, 2, {0: [0]}, [1.0, 1.0], [0.0, -np.inf]), "costs"),
    (lambda: MultilinearQuadraticInstance(2, np.inf, [1.0, 1.0], _H), "c"),
    (lambda: MultilinearQuadraticInstance(2, 0.0, [np.nan, 1.0], _H), "h"),
    (lambda: MultilinearQuadraticInstance(2, 0.0, [1.0, 1.0], [[0.0, np.nan], [-1.0, 0.0]]),
     "H"),
], ids=["cut-weight", "coverage-inf-weight", "coverage-nan-weight", "coverage-cost",
        "quadratic-c", "quadratic-h", "quadratic-H"])
def test_non_finite_numbers_are_rejected_at_construction(build, field):
    with pytest.raises(InvalidInstance) as e:
        build()
    assert str(e.value) == f"{field} must be finite"


# -- coverage ------------------------------------------------------------------

def test_coverage_frozen(tiny_coverage):
    # hand-computed: w = (1,2,3), covers 0->{0,1}, 1->{1,2}, costs (0.5, 1)
    vals = tiny_coverage.evaluate_batch(all_subsets_matrix(2))
    assert list(vals) == [0.0, 2.5, 4.0, 4.5]


def test_coverage_rejects_negative_function():
    with pytest.raises(NonNegativityViolation):
        CoverageInstance(2, 1, {0: [0], 1: [0]}, weights=[1.0], costs=[5.0, 5.0])


def test_coverage_large_n_requires_zero_costs():
    covers = {u: [u % 5] for u in range(21)}
    with pytest.raises(NonNegativityViolation):
        CoverageInstance(21, 5, covers, weights=np.ones(5), costs=np.full(21, 0.1))
    inst = CoverageInstance(21, 5, covers, weights=np.ones(5), costs=np.zeros(21))
    full = np.ones((1, 21), dtype=bool)
    assert inst.evaluate_batch(full)[0] == 5.0


def test_coverage_submodular_nonneg_exhaustive(tiny_coverage):
    assert check_submodular_exhaustive(tiny_coverage) >= -1e-12
    assert check_nonnegative_exhaustive(tiny_coverage) >= 0.0


@pytest.mark.parametrize("n,seed", [(1, 0), (4, 1), (7, 2), (10, 3)])
def test_coverage_gradient_is_the_power_set_partial(n, seed):
    inst = generate_random_instance("coverage", n, seed)
    rng = np.random.default_rng(seed)
    X = rng.random((8, n))
    X[0], X[1] = 1.0, 1.0 - 1e-12                  # every coordinate at or near 1
    X[2, ::2], X[3, ::3] = 1.0, 1.0 - 1e-12
    X[4, ::2], X[4, 1::2] = 1.0, 1.0 - 1e-12
    X[5, rng.random(n) < 0.4] = 1.0
    want = power_set_extension(inst, X)[0]
    assert np.abs(inst.gradient_batch(X) - want).max() <= 1e-12


@pytest.mark.parametrize("n,seed", [(4, 0), (12, 1), (30, 2), (100, 3)])
def test_coverage_gradient_at_a_vertex_is_the_count_rule(n, seed):
    # u alone gains the items no other member of S covers: those counted
    # once by S when u is in S (C = 1), not at all when u is out (C = 0)
    inst = generate_random_instance("coverage", n, seed)
    m = np.random.default_rng(seed).random((64, n)) < 0.3
    m[0], m[1] = False, True
    counts = m.astype(np.float64) @ inst.covers.astype(np.float64)
    gain = (inst.covers * inst.weights).T
    want = np.where(m, (counts == 1).astype(np.float64) @ gain,
                    (counts == 0).astype(np.float64) @ gain) - inst.costs
    assert np.array_equal(inst.gradient_batch(m.astype(np.float64)), want)


# -- quadratic -----------------------------------------------------------------

def test_quadratic_frozen(frozen_quad):
    q = frozen_quad
    assert list(q.value_batch([0.5, 0.5])) == [0.75]
    assert q.gradient_batch([0.5, 0.5]).tolist() == [[0.5, 0.5]]
    assert list(q.evaluate_batch(all_subsets_matrix(2))) == [0.0, 1.0, 1.0, 1.0]
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.8]])
    want = [0.0, 1.0, 0.3 + 0.8 - 0.24]
    assert np.abs(q.value_batch(X) - want).max() < 1e-12


def test_quadratic_validation():
    with pytest.raises(InvalidInstance):
        MultilinearQuadraticInstance(2, 0.0, [1, 1], [[0, -1], [-0.5, 0]])   # asymmetric
    with pytest.raises(InvalidInstance):
        MultilinearQuadraticInstance(2, 0.0, [1, 1], [[0.1, -1], [-1, 0]])   # diag != 0
    with pytest.raises(InvalidInstance):
        MultilinearQuadraticInstance(2, 0.0, [1, 1], [[0, 1], [1, 0]])       # positive entry


def test_quadratic_negative_vertex_rejected_on_its_box():
    # F(1,1) = 0.2 + 0.2 - 1 < 0, but F >= 0 on [0, 0.25]^2
    with pytest.raises(NonNegativityViolation, match="negative on a vertex"):
        MultilinearQuadraticInstance(2, 0.0, [0.2, 0.2], [[0, -1], [-1, 0]])
    q = MultilinearQuadraticInstance(2, 0.0, [0.2, 0.2], [[0, -1], [-1, 0]],
                                     box=BoxDomain(np.zeros(2), np.full(2, 0.25)))
    assert q.value_batch([1.0, 1.0])[0] == pytest.approx(-0.6)
    with pytest.raises(InvalidInstance, match="box has 3 coordinates, the instance n=2"):
        MultilinearQuadraticInstance(2, 0.0, [0.2, 0.2], [[0, -1], [-1, 0]],
                                     box=BoxDomain(np.zeros(3), np.ones(3)))


def test_quadratic_keeps_one_symmetric_h():
    # symmetric within allclose only: every read sees the symmetric part
    H = [[0.0, -1.0], [-1.00001, 0.0]]
    q = MultilinearQuadraticInstance(2, 0.0, [1.0, 1.0], H)
    assert np.array_equal(q.H, q.H.T) and q.H[0, 1] == pytest.approx(-1.000005, abs=1e-15)
    x, h = np.array([0.3, 0.6]), 1e-3
    fd = [(q.value_batch(x + e)[0] - q.value_batch(x - e)[0]) / (2 * h)
          for e in np.eye(2) * h]
    assert np.abs(q.gradient_batch(x)[0] - fd).max() < 1e-9
    m = all_subsets_matrix(2)
    assert np.abs(q.gradient_batch(m) - (q.h + m @ q.H)).max() < 1e-12
    # an exactly symmetric H keeps its bits
    H = np.array([[0.0, -0.1], [-0.1, 0.0]])
    assert MultilinearQuadraticInstance(2, 0.0, [1.0, 1.0], H).H.tobytes() == H.tobytes()


def test_quadratic_large_n_requires_the_structural_bound():
    n = 21
    with pytest.raises(NonNegativityViolation, match=r"n=21 > 20 requires c \+ sum_u min"):
        MultilinearQuadraticInstance(n, -1.0, np.zeros(n), np.zeros((n, n)))  # f(empty) = -1
    H = -np.ones((n, n)) + np.eye(n)
    h = np.full(n, 10.0)                         # f(N) = 210 - 210 = 0: admitted
    assert MultilinearQuadraticInstance(n, 0.0, h, H).value_batch(np.ones(n))[0] == 0.0
    h[3] = 9.0                                   # f(N) = -1
    with pytest.raises(NonNegativityViolation, match=r"n=21 .*\(got -1\)"):
        MultilinearQuadraticInstance(n, 0.0, h, H)
    # over a box the bound is the rescaled cube's: [0.5, 1]^n holds f(N),
    # [0, 0.5]^n does not
    with pytest.raises(NonNegativityViolation, match=r"n=21 .*\(got -1\)"):
        MultilinearQuadraticInstance(n, 0.0, h, H, box=BoxDomain(np.full(n, 0.5), np.ones(n)))
    q = MultilinearQuadraticInstance(n, 0.0, h, H, box=BoxDomain(np.zeros(n), np.full(n, 0.5)))
    assert q.value_batch(np.full(n, 0.5))[0] == pytest.approx(209 / 2 - 210 / 4)
    # c may absorb negative rows: f = 100 - |S| >= 79
    q = MultilinearQuadraticInstance(n, 100.0, -np.ones(n), np.zeros((n, n)))
    assert q.value_batch(np.ones(n))[0] == 79.0


def test_dense_matrix_budget_checked_before_allocating():
    with pytest.raises(InvalidInstance, match="n=1000000 needs"):
        CutInstance(10 ** 6, [])
    with pytest.raises(InvalidInstance, match="n=1000000, universe=1000000 needs"):
        CoverageInstance(10 ** 6, 10 ** 6, {}, weights=[], costs=[])
    # one float64 copy of this cover matrix would fit; the bool and two float copies do not
    with pytest.raises(InvalidInstance, match="n=8000, universe=16000 needs 2,176,000,000"):
        CoverageInstance(8000, 16000, {}, weights=[], costs=[])
    # the generators refuse before their O(n^2) draws
    for kind in ("cut", "coverage", "quadratic"):
        with pytest.raises(InvalidInstance, match="n=12000.* needs"):
            generate_random_instance(kind, 12000, 0)
    # the largest sizes in use fit: the n = 200 cut target, coverage's 2n universe
    assert CutInstance(200, [(0, 199, 1.0)]).n == 200
    assert CoverageInstance(200, 400, {0: [399]}, np.ones(400), np.zeros(200)).n == 200


def test_coverage_validation_budget_checked_before_allocating():
    # validating n=20 evaluates all 2^20 subsets at once, through a
    # (2^20, universe) float64 product: 781 GiB at this universe
    universe = 100_000
    with pytest.raises(InvalidInstance,
                       match="validating all 2\\^20 subsets at universe=100000 needs "
                             "838,860,800,000 bytes"):
        CoverageInstance(20, universe, {0: [0]}, np.ones(universe), np.zeros(20))
    # just past the budget; 128 items would fit exactly
    with pytest.raises(InvalidInstance, match="universe=129 needs"):
        CoverageInstance(20, 129, {0: [0]}, np.ones(129), np.zeros(20))


def test_quadratic_gradient_batch_matches_single():
    q = generate_random_instance("quadratic", 5, 1)
    X = np.random.default_rng(2).random((6, 5))
    G = q.gradient_batch(X)
    for i in range(6):
        # one (n,) point is a batch of one; both give the closed form h + Hx
        single = q.gradient_batch(X[i])
        assert single.shape == (1, 5)
        assert np.abs(G[i] - single[0]).max() < 1e-12
        assert np.abs(G[i] - (q.h + q.H @ X[i])).max() < 1e-12


# -- generators ------------------------------------------------------------------

def test_generators_deterministic():
    for kind in ("cut", "coverage", "quadratic"):
        a = generate_random_instance(kind, 6, 3)
        b = generate_random_instance(kind, 6, 3)
        assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("n", [21, 40])
def test_coverage_generator_beyond_exhaustive_check_has_zero_costs(n):
    inst = generate_random_instance("coverage", n, 0)
    assert inst.n == n and not inst.costs.any()
    assert inst.weights.min() > 0 and inst.covers.any(axis=1).all()


def test_generator_unknown_kind():
    with pytest.raises(ValueError):
        generate_random_instance("parity", 4, 0)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["cut", "coverage"]), n=st.integers(2, 8),
       seed=st.integers(0, 10 ** 6))
def test_generated_instances_are_submodular_nonneg(kind, n, seed):
    inst = generate_random_instance(kind, n, seed)
    assert check_submodular_exhaustive(inst) >= -1e-9
    assert check_nonnegative_exhaustive(inst) >= -1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10 ** 6))
def test_generated_quadratics_nonneg_dr(n, seed):
    q = generate_random_instance("quadratic", n, seed)
    assert check_nonnegative_exhaustive(q) >= -1e-12
    # vertex restriction of a zero-diagonal non-positive quadratic is submodular
    assert check_submodular_exhaustive(q) >= -1e-9


# -- JSON --------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["cut", "coverage", "quadratic"])
def test_json_roundtrip(tmp_path, kind):
    inst = generate_random_instance(kind, 5, 7)
    p = tmp_path / "i.json"
    dump_instance(inst, p)
    back = load_instance(p)
    assert back.to_json_dict() == inst.to_json_dict()
    assert "lower" not in json.loads(p.read_text())
    table = all_subsets_matrix(5)
    assert np.abs(back.evaluate_batch(table) - inst.evaluate_batch(table)).max() < 1e-12


def test_json_roundtrip_with_box(tmp_path):
    q = generate_random_instance("quadratic", 3, 1)
    inst = MultilinearQuadraticInstance(3, q.c, q.h, q.H, box=BoxDomain(np.zeros(3), np.full(3, 0.5)))
    p = tmp_path / "b.json"
    dump_instance(inst, p)
    back = load_instance(p)
    assert list(back.box.lower) == [0.0] * 3 and list(back.box.upper) == [0.5] * 3
    assert back.to_json_dict() == inst.to_json_dict()


def test_boxed_quadratic_json_is_checked_on_its_box(write_instance):
    # negative on a unit-cube vertex, but declared over a box: checked there
    d = {"kind": "quadratic", "n": 2, "c": 0.0, "h": [0.2, 0.2],
         "H": [[0.0, -1.0], [-1.0, 0.0]], "lower": [0.0, 0.0], "upper": [0.25, 0.25]}
    inst = load_instance(write_instance(d))
    assert inst.box is not None
    assert inst.value_batch([0.25, 0.25])[0] > 0
    # F(0.5, 0.5) = 0.2 - 0.25
    with pytest.raises(NonNegativityViolation, match="negative on a vertex"):
        load_instance(write_instance({**d, "upper": [0.5, 0.5]}))
    # a missing side is the unit cube's
    del d["lower"]
    assert load_instance(write_instance({**d, "upper": [0.25, 0.5]})).box.lower.tolist() == [0, 0]


def test_json_unknown_kind():
    with pytest.raises(ValueError):
        instance_from_json_dict({"kind": "mystery", "n": 2})


# -- fuzzed loader ---------------------------------------------------------------

def _paths(node, path=()):
    """Every path into a JSON document, the document itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_instance_fuzz(data):
    # a valid document of each kind with one field broken: a file either
    # loads, with f finite on every subset, or fails with a named error
    kind = data.draw(st.sampled_from(["cut", "coverage", "quadratic"]))
    n = data.draw(st.integers(1, 8))
    doc = generate_random_instance(kind, n, data.draw(st.integers(0, 50))).to_json_dict()
    if kind == "quadratic" and data.draw(st.booleans()):
        doc["lower"], doc["upper"] = [0.0] * n, [1.0] * n
    how = data.draw(st.sampled_from(
        ["missing", "value", "length"] + (["key"] if kind == "coverage" else [])))
    paths = [p for p in _paths(doc) if p]
    if how == "length":
        paths = [p for p in paths if isinstance(_at(doc, p), list)]
    if how == "key":
        paths = [p for p in paths if p[:-1] == ("covers",)]
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if how == "missing":
        del parent[key]
    elif how == "value":
        parent[key] = data.draw(st.sampled_from(
            ["x", None, [], {}, True, float("nan"), float("inf"), -float("inf"),
             -1, -0.5, 1.5, n, n + 1, 2 * n + 1]))
    elif how == "length":
        target = parent[key]
        if target and data.draw(st.booleans()):
            target.pop()
        else:
            target.append(target[-1] if target else 0)
    else:
        parent[data.draw(st.sampled_from(["x", "-1", "1.5", str(n)]))] = parent.pop(key)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            inst = load_instance(path)
        except (InvalidInstance, UnreadableInstance, NonNegativityViolation):
            return
    m = all_subsets_matrix(inst.n)
    assert np.isfinite(inst.evaluate_batch(m)).all()
    assert np.isfinite(inst.gradient_batch(m.astype(np.float64))).all()


_HUGE = 10 ** 400       # an integer beyond the float64 range, legal JSON
_NUMBER = st.integers(-1, 4) | st.sampled_from([_HUGE, -_HUGE]) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12)
# arbitrary JSON, or shaped like the schema's fields with arbitrary numbers
_FIELD = (_JSON | st.lists(_NUMBER, max_size=4)
          | st.lists(st.lists(_NUMBER, max_size=4), max_size=4)
          | st.dictionaries(st.sampled_from(["0", "1", "x"]), st.lists(_NUMBER, max_size=3),
                            max_size=3))
_KEYS = ("edges", "universe", "covers", "weights", "costs", "c", "h", "H", "lower", "upper")


@settings(max_examples=300, deadline=None)
@given(doc=st.fixed_dictionaries(
    {"kind": st.sampled_from(["cut", "coverage", "quadratic"]) | _JSON,
     "n": st.integers(1, 4) | _JSON},
    optional={key: _FIELD for key in _KEYS}))
@example(doc={"kind": "cut", "n": 2, "edges": [[0, 1, _HUGE]]})
@example(doc={"kind": "coverage", "n": 1, "universe": 1, "covers": {}, "weights": [_HUGE],
              "costs": [0]})
@example(doc={"kind": "quadratic", "n": 1, "c": _HUGE, "h": [0], "H": [[0]]})
@example(doc={"kind": "quadratic", "n": 1, "h": [0], "H": [[0]], "upper": [_HUGE]})
def test_load_instance_fuzz_any_json(doc):
    # documents that need not resemble an instance: each loads or fails
    # with a named error
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_instance(path)
        except (InvalidInstance, UnreadableInstance, NonNegativityViolation):
            pass
