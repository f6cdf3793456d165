"""Instance families: frozen values, validation, closed-form gradients,
generators, JSON roundtrip, a fuzzed loader."""

import hashlib
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
from subpar.instances import (_random_cut, _random_quadratic, check_nonnegative_exhaustive,
                              check_submodular_exhaustive, hash_kind, instance_from_json_dict)
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
    for u, v, w in inst.to_json_dict()["edges"]:
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


@pytest.mark.parametrize("edges, message", [
    ([(0, 1)], "edge (0, 1) is not (u, v, w)"),
    ([(0, 1, 1.0), (1, 2, 1.0, 0)], "edge (1, 2, 1.0, 0) is not (u, v, w)"),
    ([(0, 1, 1.0), 5], "edge 5 is not (u, v, w)"),
    ([(0, 1, "1.5")], "edge weight on (0, 1) must be numeric"),
    ([(0, 1, True)], "edge weight on (0, 1) must be numeric"),
    ([(0, 1, 1.0), (1, 2, [2.0])], "edge weight on (1, 2) must be one number"),
    ([(0, 1, 1.0), (2, 2, 1.0), (0, 3, 1.0)], "bad edge endpoint in (2, 2)"),
    ([(0, 1, 1.0), (0, 2, -0.5), ("0", 1, 1.0)], "negative edge weight -0.5 on (0, 2)"),
    ([(0, 3, 1.0), (False, 1, 1.0)], "edge endpoint 3 out of range 0..2"),
    ([(1, 0, 1.0), (0, 1, np.nan), (0, 2 ** 70, 1.0)], "edge weight on (0, 1) must be finite"),
    ([(0, 2 ** 70, 1.0), (0, 1, np.nan)], f"edge endpoint {2 ** 70} out of range"),
], ids=["short", "long", "scalar", "str-weight", "bool-weight", "list-weight", "self-loop",
        "negative", "range-before-type", "nan-before-huge", "huge-before-nan"])
def test_cut_names_its_first_bad_edge(edges, message):
    # the edges are checked as arrays; the message names the first bad
    # edge, whatever is wrong with the later ones
    with pytest.raises(InvalidInstance) as e:
        CutInstance(3, edges)
    assert str(e.value).startswith(message)


def test_cut_edges_as_arrays():
    inst = CutInstance(4, [(0, 1, 1), (np.int64(3), 2, np.float32(0.5)), (1, 0, 2.0)])
    assert inst._u.dtype == np.intp and inst._w.dtype == np.float64
    assert inst.to_json_dict()["edges"] == [[0, 1, 1.0], [3, 2, 0.5], [1, 0, 2.0]]
    assert inst._W[0, 1] == inst._W[1, 0] == 3.0 and inst._W[2, 3] == 0.5
    assert CutInstance(4, iter([(0, 1, 1.0)])).to_json_dict()["edges"] == [[0, 1, 1.0]]


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


_HH = [["0", "-1"], ["-1", "0"]]


@pytest.mark.parametrize("build, field", [
    (lambda: CoverageInstance(2, 2, {0: [0]}, ["1", 1.0], [0.0, 0.0]), "weights"),
    (lambda: CoverageInstance(2, 2, {0: [0]}, [1.0, 1.0], [0.0, True]), "costs"),
    (lambda: CoverageInstance(2, 2, {0: [0]}, np.ones(2, dtype=bool), [0.0, 0.0]), "weights"),
    (lambda: MultilinearQuadraticInstance(2, "0", [1.0, 1.0], _H), "c"),
    (lambda: MultilinearQuadraticInstance(2, 0.0, ["1", "1"], _H), "h"),
    (lambda: MultilinearQuadraticInstance(2, 0.0, [1.0, True], _H), "h"),
    (lambda: MultilinearQuadraticInstance(2, 0.0, [1.0, 1.0], _HH), "H"),
    (lambda: BoxDomain(["0", 0.0], [1.0, 1.0]), "box lower"),
    (lambda: BoxDomain([0.0, 0.0], [1.0, False]), "box upper"),
], ids=["coverage-str-weight", "coverage-bool-cost", "coverage-bool-array", "quadratic-str-c",
        "quadratic-str-h", "quadratic-bool-h", "quadratic-str-H", "box-str", "box-bool"])
def test_non_numbers_are_rejected_at_construction(build, field):
    # numpy would read "1" as 1.0 and True as 1.0; only numbers are numbers
    with pytest.raises(InvalidInstance) as e:
        build()
    assert str(e.value) == f"{field} must be numeric"


# -- coverage ------------------------------------------------------------------

def test_coverage_frozen(tiny_coverage):
    # hand-computed: w = (1,2,3), covers 0->{0,1}, 1->{1,2}, costs (0.5, 1)
    vals = tiny_coverage.evaluate_batch(all_subsets_matrix(2))
    assert list(vals) == [0.0, 2.5, 4.0, 4.5]


def test_coverage_rejects_negative_function():
    with pytest.raises(NonNegativityViolation):
        CoverageInstance(2, 1, {0: [0], 1: [0]}, weights=[1.0], costs=[5.0, 5.0])


@pytest.mark.parametrize("covers, message", [
    ({0: [0, 1], 1: [1, 3, "x"]}, "universe item 3 out of range 0..2"),
    ({0: [0, True], 1: [3]}, "universe item True out of range"),
    ({0: [0, 2 ** 70]}, f"universe item {2 ** 70} out of range"),
    ({0: [0], 2: [1]}, "covering element 2 out of range 0..1"),
], ids=["range", "bool", "huge", "element"])
def test_coverage_names_its_first_bad_id(covers, message):
    with pytest.raises(InvalidInstance, match=f"^{message}"):
        CoverageInstance(2, 3, covers, weights=[1.0] * 3, costs=[0.0, 0.0])


def test_coverage_covers_as_arrays():
    inst = CoverageInstance(3, 4, {2: [3, 0, 3], 0: (np.int64(1),), 1: []},
                            weights=[1.0] * 4, costs=[0.0] * 3)
    assert inst.covers.tolist() == [[False, True, False, False], [False] * 4,
                                    [True, False, False, True]]


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


# sha256 of json.dumps(to_json_dict(), sort_keys=True) per generated
# instance: every golden in the suite is computed from these generators
GENERATED_SHA256 = {
    ("cut", 1, 0): "6a98fa1d1b593c3797b141359054e23346a557049edd1257098220b3e1431f52",
    ("cut", 1, 1): "6a98fa1d1b593c3797b141359054e23346a557049edd1257098220b3e1431f52",
    ("cut", 1, 7): "6a98fa1d1b593c3797b141359054e23346a557049edd1257098220b3e1431f52",
    ("cut", 2, 0): "e9ba75e0a42e53beba3f53f559330c7e63404090714cfe3f0ef23bbe36e42112",
    ("cut", 2, 1): "8b41e5f5a82fc9255c48fefa692df686d417e44e7a9fd032155a9305c3460aa4",
    ("cut", 2, 7): "e81ac6adb1974b5e6fce16093ca08f643f67371ea8f731c0ae4de078be0046db",
    ("cut", 3, 0): "3bf5ee62dd84ec07cadd4ba5208a323c8f1db5801acf53395c2f03b50f5689c1",
    ("cut", 3, 1): "50238e557970a36f88dbe92130c0ce69538a9db0c48779effcc94c3fad6f2834",
    ("cut", 3, 7): "07779d75c7daad2cd82849e9888185199052cb0824439df4dc6a55731007f251",
    ("cut", 8, 0): "10c684ea691eb6d25e1c98a2414818c3f23a53c999129fbd97803ccdcf9be307",
    ("cut", 8, 1): "31506f6c3a271d5d96395554af83dbd9ab008f7a503751b942f812e26a90f3c2",
    ("cut", 8, 7): "3b0c0a8f7f777fa16da3edf8afef749750f83ac6b24e9f9b0b5ae558da115626",
    ("cut", 14, 0): "2d42d5874ea5a78d0e4996e9ff1cec09161cf3afa8d530e83a863ec16e56fdb5",
    ("cut", 14, 1): "67130c97d9a62ab2f7ffa37172955eeac1176c6ba3bd1308c5e56ee1f5750e06",
    ("cut", 14, 7): "10d1db097a6a1baeed166c5e7ca27da7f5ea382f44168912f444a70e4dae2e49",
    ("cut", 20, 0): "9e021fe31203c90970fc47b4ad8090b538b983354f279bc932bc2a303e13b3fd",
    ("cut", 20, 1): "334d95757834efbe3095020e7888c739434e01f3b31a9074f01fd2934f8bacc7",
    ("cut", 20, 7): "417ffefc1e77d3a62146bd3056330d9085a014843b650914a7e7347ca7895d20",
    ("cut", 21, 0): "998b2100bc7a2fab22b644ce00954fbba71c1449b0867347e656f8fd0a325247",
    ("cut", 21, 1): "e4869fc149eb4525d1693b26f4d09a66c887dd0d4485b145222c6edd108b1eab",
    ("cut", 21, 7): "9325bfbb93682761d1a04d38ef76db93582f18658f0f01ec613b93d7b7c01e17",
    ("cut", 40, 0): "8425f756ef7af9f623ea3c17f8bd70055867942d40e8a4ebd5a8bb67bf325287",
    ("cut", 40, 1): "637e8d9c9af16a00ec98cff4a5127f40233b4575ee70350861f92e292828981c",
    ("cut", 40, 7): "2af5ef605e4f738aed1c4a3ec26a16c63f8b44d26816c697d6c361fe8bde14fe",
    ("coverage", 1, 0): "1c5f865d5a1c4025f798dc7e6d162f04d7ea4437b76fce82a26a7ea658b9c392",
    ("coverage", 1, 1): "7f095820254dab2d01659c88cdbe33e6fc376bebe528e7c50ab61d613431c077",
    ("coverage", 1, 7): "4b34ef4243b90cf9d9c2102dd9abbdc45ddbb80e92d52f1ace0d01bb3637a8ce",
    ("coverage", 2, 0): "a61902d856c7e62b93ba613ee055bb46d8443449861f03dd812957599e3d8986",
    ("coverage", 2, 1): "96338d442569f6d2c38be8f7ae5e188c59f679c790424b523c3d3d551959cefe",
    ("coverage", 2, 7): "24f853e3f4458054bd5f3e7c4a055f514c318b4382fca8fbbb3f18a3e9eb201e",
    ("coverage", 3, 0): "20ad7afbd480eaca8db58150aa1af77b7af1fb5b76ec7571443fdeae2c8dbb36",
    ("coverage", 3, 1): "663494c18b79b12c12e9b35fac220f6b52d4ca7d448e63153e10db44967d4c3b",
    ("coverage", 3, 7): "3f76c783da826240988473a2495e39160745410471ca9f3193e1a625157090b2",
    ("coverage", 8, 0): "2375985e8ee1f379ba60df7ae8d0745d821e3403835f35ae7217519ffe504502",
    ("coverage", 8, 1): "fe9ababd0b16263f2d82e17e2dcfaf1891987c95b4eb3900e2e5accb5880b743",
    ("coverage", 8, 7): "f6f0dd2f0cf3e5f2319e875c6a4c98e71c6e2ac58269c793526ff66b6ccc55a9",
    ("coverage", 14, 0): "3294863149dc93c602a78bbc920d8b87d47b5fce84afb5b2a674147d34240f04",
    ("coverage", 14, 1): "6ecdae7a2ee9540493af33b30fe8a9361562ec03e4ce081910df2de90c0d8a39",
    ("coverage", 14, 7): "b0c65f36967c6df8e50ab5f23c24a243a0f38f1ff0e4664b88cf3440b3aba3bf",
    ("coverage", 20, 0): "540402958157399cfcbcc19e15de3eac663af76da0ef7f8332c1562c6cbfd317",
    ("coverage", 20, 1): "42ed268b6110281c55e2c62eea43236a182c580acc45e6bd58747ed0d6ec916b",
    ("coverage", 20, 7): "2eea0a3d933866afa3c248a47fe139c9626b0767ae96f7d5c7423897d5fe9066",
    ("coverage", 21, 0): "6b988fd33aeec1df9a2489d2046af738aaf981c49c9bb2340eb47dbacf2694d8",
    ("coverage", 21, 1): "50027bf5bf79cd1b3f1172ee8ad0ad2ca32a59908b480e6e86fc571320ee8ac7",
    ("coverage", 21, 7): "22f99340a96c3ca7b29755625c063011f144f0a0c760bda35ca85f204d8f5119",
    ("coverage", 40, 0): "e5a22eda898c5aedfc7054b7e3e8f44d4625ec1f7b7da30829f0996514d31799",
    ("coverage", 40, 1): "92fdeb22596092397b99d50bea8cd0353d2254aff474e725f03c12f729750613",
    ("coverage", 40, 7): "fd640ed5d2e210b7059e2e15b9cd8ca040b0487470f54f5f80e18e8085cf8c01",
    ("quadratic", 1, 0): "fc4cd8ce29ed1b9193218abd7f055d36aa26b8ea15ad5e0b7b61c5dab1b7ee75",
    ("quadratic", 1, 1): "2431b41b64bdce006194ac1073d7a329b1a7e3b3dff2773bbaf6f2f6a5e700bd",
    ("quadratic", 1, 7): "c531bcce039f7ef88b20cb7b19badc95ffb2997b1e14fea0d939d17fd2275ebf",
    ("quadratic", 2, 0): "156472e2246818335a929d110793aafb8524355a0c8da06d29b4bf9bf7e58eb2",
    ("quadratic", 2, 1): "af040de020f189199b54a50965f4eef03b0c02af99a201fa8385cf41e156ea09",
    ("quadratic", 2, 7): "a08facd5211021fbda6b59a4f83aca070536741376130f5f377ae04d84fbca02",
    ("quadratic", 3, 0): "ad54a51e8a258b474cedee3c883a0d82dc3bcba437b7aac6c7c8421d949832dd",
    ("quadratic", 3, 1): "b39d1d20806ba2e12fcce8acb50d4cf85d9ed65c798835c5620b00ce3e975760",
    ("quadratic", 3, 7): "cb6f3ff6e54cd56f043350b50f8651aab39c582ee76bba6e1bf408975f93c000",
    ("quadratic", 8, 0): "3e48dd33a6c1b4a200b669c77542056831d4acb6b3bfec5c35307667b7f98137",
    ("quadratic", 8, 1): "38ca0778f7758888562b62be5b516f026c8b2b1e8e11507cf7c8f5eee9375b3b",
    ("quadratic", 8, 7): "7b9528ba5e1f23ac9aa7627cbc6b5ae88d26eded32ebd1be50425d6ac3418547",
    ("quadratic", 14, 0): "3b856b7103405531564c9d307f04fefc5e7962d550489a52576bd0c38735fdad",
    ("quadratic", 14, 1): "ada59a23425eff80da043d3c6c08e27eaa5261bca8b9fbb3ba25811cbaef2725",
    ("quadratic", 14, 7): "7bd589d527be4ef631c63b835fba5e68833464de720ac40f57c455c2fe7ae439",
    ("quadratic", 20, 0): "6b1d558b50ac97e22153da6ada6ad912e34715febb0f8e31542ad08e3e03db19",
    ("quadratic", 20, 1): "6341ecae990eb7d1d9a7dda8ebe4e5c4ba646e03f50202973175ceaaa4939c63",
    ("quadratic", 20, 7): "9c6e516955332774bbb8ac8a326acd3c640e30d2b7beb29d205775f560ba4d80",
    ("quadratic", 21, 0): "2b1af81b8ea735229fb5c3c0a6df86b1f03d75f3a75b142bf981ac2bd4eb13a9",
    ("quadratic", 21, 1): "0f52cf90ed9a90cb567aeaaf673e1e85ef3efce06d0a8d0da56b645a0820a26e",
    ("quadratic", 21, 7): "fce8654ea326be631b77021611f23efdc98f05485ac0c1944cb263c1b11ba974",
    ("quadratic", 40, 0): "d93553ea781eea0dbff370585898d55125ebf506aacd18627e0bfc7041533de2",
    ("quadratic", 40, 1): "9486da9ec2b554cfa222065da44114bae0fdcc5b5ce18995dabf6a92379acf84",
    ("quadratic", 40, 7): "1f31614bd79c00ab77c9f0f8625732c8a3803313c036d513d325e89ca622da37",
}


@pytest.mark.parametrize("kind", ["cut", "coverage", "quadratic"])
def test_generated_instances_are_pinned(kind):
    for (k, n, seed), want in GENERATED_SHA256.items():
        if k == kind:
            doc = json.dumps(generate_random_instance(kind, n, seed).to_json_dict(),
                             sort_keys=True)
            assert hashlib.sha256(doc.encode()).hexdigest() == want, (kind, n, seed)


class _CountingRng:
    """A Generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def _scalar_pairs(rng, n, p, low, high):
    """The spec of a generator's coins: per pair u < v in row order, one
    rng.random() coin, then the weight of a pair that passes it."""
    return [(u, v, float(rng.uniform(low, high)))
            for u in range(n) for v in range(u + 1, n) if rng.random() < p]


@pytest.mark.parametrize("kind", ["cut", "quadratic"])
def test_generators_draw_their_coins_in_bulk(kind):
    n, seed = 200, 3
    streams = [np.random.default_rng(np.random.SeedSequence((hash_kind(kind), n, seed)))
               for _ in range(2)]
    counted = _CountingRng(streams[0])
    if kind == "cut":
        got = _random_cut(n, counted).to_json_dict()
        want = CutInstance(n, _scalar_pairs(streams[1], n, 0.35, 0.5, 1.5)).to_json_dict()
    else:
        got = _random_quadratic(n, counted).to_json_dict()
        H = np.zeros((n, n))
        for u, v, w in _scalar_pairs(streams[1], n, 0.6, 0.2, 1.0):
            H[u, v] = H[v, u] = -w
        h = 0.5 * np.abs(H).sum(axis=1) + streams[1].uniform(0.0, 1.0, size=n)
        want = MultilinearQuadraticInstance(n, float(streams[1].uniform(0.0, 0.5)), h,
                                            H).to_json_dict()
    assert got == want
    # 19,900 pairs: one call per chunk of pairs left, each chunk a fraction of the last
    assert counted.calls <= 2 * np.log2(n * n), counted.calls
    assert streams[0].random() == streams[1].random()       # the same stream left


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
