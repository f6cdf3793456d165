"""Synthetic test instances: cut, coverage-minus-cost, multilinear quadratics.

All instances are immutable after construction and expose

    n                  -- ground-set size
    evaluate_batch(m)  -- f on each row of a boolean (B, n) membership
                          matrix, as a float vector
    value_batch(X)     -- the multilinear extension F in closed form at
                          each row of a float (P, n) batch X
    gradient_batch(X)  -- its (P, n) gradient there

A marginal is a gradient taken at a vertex: at a 0/1 point S the u-th
partial is f(S+u) - f(S-u), so gradient_batch answers both
SetOracle.eval_marginals and the gradients of SetOracle.eval_extension.

Every number an instance is built from must be finite; construction
rejects NaN, infinities and integers beyond the float64 range with
InvalidInstance, naming the field.  BoxDomain holds the box of a boxed
quadratic, under the same rule.

Quadratic instances are their own extension: their Hessian has zero
diagonal, so they are multilinear, and the set evaluation is just the
vertex restriction of the same polynomial.
"""

import json
from dataclasses import dataclass

import numpy as np

from .baselines import TooLarge
from .oracles import InvalidElement, OutOfBox, all_subsets_matrix, is_integer


class InvalidInstance(ValueError):
    """Instance data breaks the schema: a bad size, shape, index or sign."""


class NonNegativityViolation(ValueError):
    """Instance construction produced a negative value somewhere."""


class UnreadableInstance(ValueError):
    """An instance file that is not JSON or lacks a field of its kind."""


_VALIDATE_LIMIT = 20  # exhaustive non-negativity validation up to this n
NEGATIVE_TOL = 1e-12  # a quadratic may dip this far below zero
EXHAUSTIVE_LIMIT = 12  # largest n of the exhaustive property checks
_DENSE_BYTES_LIMIT = 1 << 30  # most bytes an instance's dense matrices may hold
_COVER_BYTES = 17  # per (element, item): the bool covers and two float64 copies


def _require(ok, message):
    if not ok:
        raise InvalidInstance(message)


def _size(value, name):
    """A count from instance data: an integer >= 1."""
    _require(is_integer(value) and value >= 1,
             f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _index(value, bound, what):
    """An element or item id from instance data: an integer in 0..bound-1."""
    _require(is_integer(value) and 0 <= value < bound,
             f"{what} {value!r} out of range 0..{bound - 1}")
    return int(value)


def _finite(values, name):
    """values as a float64 array, all finite."""
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:       # an integer beyond the float64 range
        values = np.inf
    _require(np.isfinite(values).all(), f"{name} must be finite")
    return values


def _dense_budget(nbytes, sizes):
    _require(nbytes <= _DENSE_BYTES_LIMIT,
             f"{sizes} needs {nbytes:,} bytes, over {_DENSE_BYTES_LIMIT:,}")


class CutInstance:
    """Weighted cut function f(S) = sum of w over edges with exactly one
    endpoint in S.  Symmetric, non-negative, submodular, f(0)=f(N)=0.

    edges: sequence of (u, v, w) with u != v and w >= 0.
    """

    kind = "cut"

    def __init__(self, n, edges):
        n = self.n = _size(n, "n")
        _dense_budget(8 * n * n, f"n={n}")           # the float64 adjacency W
        clean = []
        for u, v, w in edges:
            u, v = _index(u, n, "edge endpoint"), _index(v, n, "edge endpoint")
            w = float(_finite(w, f"edge weight on {(u, v)}"))
            _require(u != v, f"bad edge endpoint in {(u, v)}")
            _require(w >= 0, f"negative edge weight {w} on {(u, v)}")
            clean.append((u, v, w))
        self.edges = tuple(clean)
        self._u = np.array([e[0] for e in clean], dtype=np.intp)
        self._v = np.array([e[1] for e in clean], dtype=np.intp)
        self._w = np.array([e[2] for e in clean], dtype=np.float64)
        # cut value as a quadratic form: f(S) = d.m - m.W.m with W the
        # symmetric weighted adjacency and d the weighted degrees
        self._W = np.zeros((self.n, self.n))
        np.add.at(self._W, (self._u, self._v), self._w)
        np.add.at(self._W, (self._v, self._u), self._w)
        self._d = self._W.sum(axis=1)

    def evaluate_batch(self, m):
        return self.value_batch(m.astype(np.float64))

    def value_batch(self, X):
        # the zero diagonal of W makes E[m_u m_v] = x_u x_v on every edge
        return X @ self._d - ((X @ self._W) * X).sum(axis=1)

    def gradient_batch(self, X):
        # W has a zero diagonal, so u's own coordinate drops out
        return self._d - 2.0 * (X @ self._W)

    def to_json_dict(self):
        return {"kind": "cut", "n": self.n,
                "edges": [[u, v, w] for u, v, w in self.edges]}


class CoverageInstance:
    """Weighted coverage minus modular cost.

    f(S) = sum of weights over universe items covered by S minus the sum
    of costs of S.  Construction validates f >= 0 on every subset for
    n <= 20; larger ground sets must come with all-zero costs so that
    non-negativity is structural.
    """

    kind = "coverage"

    def __init__(self, n, universe_size, covers, weights, costs):
        n = self.n = _size(n, "n")
        universe_size = self.universe_size = _size(universe_size, "universe")
        _dense_budget(_COVER_BYTES * n * universe_size, f"n={n}, universe={universe_size}")
        if n <= _VALIDATE_LIMIT:    # validation's (2^n, universe) float64 product
            _dense_budget(8 * universe_size << n,
                          f"validating all 2^{n} subsets at universe={universe_size}")
        cov = np.zeros((n, universe_size), dtype=bool)
        for u, items in covers.items():
            u = _index(u, n, "covering element")
            for it in items:
                cov[u, _index(it, universe_size, "universe item")] = True
        self.covers = cov
        self.weights = _finite(weights, "weights")
        self.costs = _finite(costs, "costs")
        _require(self.weights.shape == (universe_size,),
                 f"weights must have length {universe_size}")
        _require(self.costs.shape == (n,), f"costs must have length {n}")
        _require((self.weights >= 0).all(), "negative universe weight")
        _require((self.costs >= 0).all(), "negative cost")
        self._cover_f = cov.astype(np.float64)            # (n, universe)
        self._gain_w = (self._cover_f * self.weights).T   # (universe, n)
        if n > _VALIDATE_LIMIT:
            if self.costs.any():
                raise NonNegativityViolation(
                    f"coverage with n={n} > {_VALIDATE_LIMIT} requires zero costs")
        else:
            vals = self.evaluate_batch(all_subsets_matrix(n))
            if vals.min() < 0:
                raise NonNegativityViolation(
                    f"coverage instance is negative on some subset (min {vals.min():g})")

    def evaluate_batch(self, m):
        mf = m.astype(np.float64)
        covered = (mf @ self._cover_f) > 0
        gain = covered.astype(np.float64) @ self.weights
        return gain - mf @ self.costs

    def value_batch(self, X):
        # item j stays uncovered with the product of 1 - x_v over the
        # elements v that cover it; the others contribute a factor of 1
        miss = np.where(self.covers, 1.0 - X[:, :, None], 1.0)    # (P, n, universe)
        return (1.0 - miss.prod(axis=1)) @ self.weights - X @ self.costs

    def gradient_batch(self, X):
        # u gains item j's weight when no other element covers it.  With
        # z_j the covering elements at 1 and p_j the product of 1 - x_v
        # over the others, that chance is [z_j = 0] p_j / (1 - x_u) for
        # x_u < 1, and [z_j = 1] p_j for x_u = 1, whose factor p_j lacks
        # already.  At a 0/1 point p_j is exactly 1: the vertex marginal.
        full = X >= 1.0
        z = full.astype(np.float64) @ self._cover_f                   # (P, universe)
        p = np.exp(np.log1p(-np.where(full, 0.0, X)) @ self._cover_f)
        alone = ((z == 0) * p) @ self._gain_w / np.where(full, 1.0, 1.0 - X)
        only = ((z == 1) * p) @ self._gain_w
        return np.where(full, only, alone) - self.costs

    def to_json_dict(self):
        return {
            "kind": "coverage",
            "n": self.n,
            "universe": self.universe_size,
            "covers": {str(u): [int(i) for i in np.flatnonzero(self.covers[u])]
                       for u in range(self.n)},
            "weights": self.weights.tolist(),
            "costs": self.costs.tolist(),
        }


class MultilinearQuadraticInstance:
    """F(x) = c + h.x + x.H.x/2 with zero-diagonal, non-positive H, over a
    box (default the unit cube).

    H <= 0 makes the gradient h + Hx entrywise non-increasing in x
    (diminishing returns); the zero diagonal makes F multilinear, so its
    minimum over any box sits on a vertex.  Construction checks
    non-negativity on the box, once.  On the unit cube that is a check of
    the 2^n vertices for n <= 20; for larger n, H <= 0 gives
    f(S) >= c + sum_{u in S} (h_u + sum_v H_uv / 2), so it requires
    c + sum_u min(0, h_u + sum_v H_uv / 2) >= 0.

    A box is rescaled to the unit cube, exactly and within the family:
    with D = diag(b - a),

        G(z) = F(a + Dz) = F(a) + (D(h + Ha)) . z + 1/2 z' (DHD) z.

    Coordinates with a_u = b_u carry no freedom and are left out.  The
    result is `cube`, the quadratic G over the free coordinates `active`
    (None when the box pins every coordinate), built with the unit-cube
    check; a pinned point's value must clear the same tolerance.  A cube
    point z maps back as box.embed(z') with z' equal to z on active and 0
    elsewhere.  With no box, `cube` is the instance itself.

    The polynomial itself is defined everywhere; domain enforcement is
    the caller's job.
    """

    kind = "quadratic"

    def __init__(self, n, c, h, H, box=None):
        n = self.n = _size(n, "n")
        self.c = float(_finite(c, "c"))
        self.h = _finite(h, "h")
        H = _finite(H, "H")
        _require(self.h.shape == (n,), f"h must have length {n}")
        _require(H.shape == (n, n), f"H must be {n} x {n}")
        _require(np.allclose(H, H.T), "H must be symmetric")
        _require((np.diag(H) == 0).all(), "H must have zero diagonal")
        _require((H <= 0).all(), "H must be entrywise non-positive")
        # symmetric within allclose only: keep the symmetric part, the form
        # the polynomial sees, and H's own bits wherever it is symmetric
        self.H = np.where(H == H.T, H, 0.5 * H + 0.5 * H.T)
        self.box = box
        if box is None:
            self.cube, self.active = self, np.arange(n)
            self._check_cube()
        else:
            _require(box.n == n, f"box has {box.n} coordinates, the instance n={n}")
            self.cube, self.active = self._rescale(box)

    def _check_cube(self):
        if self.n > _VALIDATE_LIMIT:
            bound = self.c + np.minimum(self.h + 0.5 * self.H.sum(axis=1), 0.0).sum()
            if bound < -NEGATIVE_TOL:
                raise NonNegativityViolation(
                    f"quadratic with n={self.n} > {_VALIDATE_LIMIT} requires "
                    f"c + sum_u min(0, h_u + sum_v H_uv / 2) >= 0 (got {bound:g})")
        else:
            vals = self.evaluate_batch(all_subsets_matrix(self.n))
            if vals.min() < -NEGATIVE_TOL:
                raise NonNegativityViolation(
                    f"quadratic is negative on a vertex (min {vals.min():g})")

    def _rescale(self, box):
        """(cube, active) for box; the cube, or the one point of a box
        that pins every coordinate, is checked non-negative."""
        a, d = box.lower, box.width
        active = np.flatnonzero(d > 0)
        fa = float(self.value_batch(a)[0])
        if active.size == 0:
            if fa < -NEGATIVE_TOL:
                raise NonNegativityViolation(f"quadratic is negative at the pinned "
                                             f"point (value {fa:g})")
            return None, active
        h = d * (self.h + self.H @ a)
        cube = MultilinearQuadraticInstance(int(active.size), fa, h[active],
                                            (self.H * np.outer(d, d))[np.ix_(active, active)])
        return cube, active

    # fractional interface ------------------------------------------------

    def value_batch(self, X):
        X = self._rows(X)
        return self.c + X @ self.h + 0.5 * np.einsum("bi,ij,bj->b", X, self.H, X)

    def gradient_batch(self, X):
        # H is symmetric, but H.T picks the BLAS kernel: X @ H gives other
        # last bits from n = 20 on, and dr's runs move with them
        return self.h[None, :] + self._rows(X) @ self.H.T

    def _rows(self, X):
        """X as a (P, n) float array; one point (n,) is a batch of one."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.n:
            raise InvalidElement(f"points have shape {X.shape}, expected (P, {self.n})")
        return X

    # set interface (vertex restriction; F is its own extension) ----------

    def evaluate_batch(self, m):
        return self.value_batch(m.astype(np.float64))

    def to_json_dict(self):
        d = {"kind": "quadratic", "n": self.n, "c": self.c,
             "h": self.h.tolist(), "H": self.H.tolist()}
        if self.box is not None:
            d["lower"], d["upper"] = self.box.lower.tolist(), self.box.upper.tolist()
        return d


@dataclass
class BoxDomain:
    """The box [lower, upper] of a box-constrained run: two finite
    vectors of one length with lower <= upper."""
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _finite(self.lower, "box lower")
        self.upper = _finite(self.upper, "box upper")
        _require(self.lower.ndim == 1 and self.lower.shape == self.upper.shape,
                 f"box needs two vectors of one length, got shapes "
                 f"{self.lower.shape} and {self.upper.shape}")
        if not (self.lower <= self.upper).all():
            raise OutOfBox("box needs lower <= upper in every coordinate")

    @property
    def n(self):
        return self.lower.size

    @property
    def width(self):
        return self.upper - self.lower

    def embed(self, z):
        """Map a unit-cube point to box coordinates."""
        return self.lower + self.width * np.asarray(z, dtype=np.float64)


# -- generators -----------------------------------------------------------

def generate_random_instance(kind, n, seed):
    """Deterministic random instance of the requested kind.

    Construction-time validation applies; the coverage generator
    retries with smaller costs a bounded number of times before giving
    up with NonNegativityViolation, and above the exhaustive-check size
    it draws zero costs, the only ones construction admits there.
    """
    _require(n >= 1, f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((hash_kind(kind), n, seed)))
    if kind == "cut":
        return _random_cut(n, rng)
    if kind == "coverage":
        return _random_coverage(n, rng)
    if kind == "quadratic":
        return _random_quadratic(n, rng)


def hash_kind(kind):
    codes = {"cut": 1, "coverage": 2, "quadratic": 3}
    if kind not in codes:
        raise ValueError(f"unknown instance kind {kind!r}; "
                         f"expected one of {sorted(codes)}")
    return codes[kind]


def _random_cut(n, rng):
    _dense_budget(8 * n * n, f"n={n}")              # before the O(n^2) coins
    if n < 2:
        return CutInstance(n, [])
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                edges.append((u, v, float(rng.uniform(0.5, 1.5))))
    if not edges:  # guarantee a non-trivial function
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.5, 1.5))))
    return CutInstance(n, edges)


def _random_coverage(n, rng, retries=20):
    universe = 2 * n
    _dense_budget(_COVER_BYTES * n * universe, f"n={n}, universe={universe}")
    for attempt in range(retries):
        shrink = 0.7 ** attempt
        covers = {}
        for u in range(n):
            k = int(rng.integers(1, max(2, universe // 3)))
            covers[u] = [int(i) for i in rng.choice(universe, size=k, replace=False)]
        weights = rng.uniform(0.5, 1.5, size=universe)
        # costs small enough that f >= 0 is plausible, then validated;
        # past the exhaustive check only zero costs are admitted
        own = np.array([weights[covers[u]].sum() for u in range(n)])
        costs = rng.uniform(0.0, 0.35, size=n) * own * shrink
        if n > _VALIDATE_LIMIT:
            costs = np.zeros(n)
        try:
            return CoverageInstance(n, universe, covers, weights, costs)
        except NonNegativityViolation:
            continue
    raise NonNegativityViolation(
        f"coverage generator failed after {retries} retries (n={n})")


def _random_quadratic(n, rng):
    _dense_budget(16 * n * n, f"n={n}")             # H and its symmetric part
    H = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                H[u, v] = H[v, u] = -float(rng.uniform(0.2, 1.0))
    # h_u >= half the row mass keeps every vertex non-negative
    slack = rng.uniform(0.0, 1.0, size=n)
    h = 0.5 * np.abs(H).sum(axis=1) + slack
    return MultilinearQuadraticInstance(n, float(rng.uniform(0.0, 0.5)), h, H)


# -- JSON schema ----------------------------------------------------------

def instance_from_json_dict(d):
    if not isinstance(d, dict):
        raise TypeError(f"an instance is a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    boxed = "lower" in d or "upper" in d
    if kind == "quadratic":
        return MultilinearQuadraticInstance(d["n"], d.get("c", 0.0), d["h"], d["H"],
                                            box=_box_from_json_dict(d) if boxed else None)
    if kind == "cut":
        inst = CutInstance(d["n"], d["edges"])
    elif kind == "coverage":
        covers = d["covers"]
        if not isinstance(covers, dict):
            raise TypeError(f"covers must map element ids to item lists, "
                            f"got {type(covers).__name__}")
        inst = CoverageInstance(d["n"], d["universe"],
                                {int(k): v for k, v in covers.items()},
                                d["weights"], d["costs"])
    else:
        raise ValueError(f"unknown instance kind: {kind!r}")
    _require(not boxed, f"a {kind} instance takes no box (lower/upper)")
    return inst


def _box_from_json_dict(d):
    """A quadratic document's box; a missing side is the unit cube's."""
    n = _size(d["n"], "n")
    sides = {name: d[name] for name in ("lower", "upper") if name in d}
    for name, side in sides.items():     # before n sizes a default side
        _require(np.shape(side) == (n,), f"{name} must have length {n}")
    return BoxDomain(sides.get("lower", np.zeros(n)), sides.get("upper", np.ones(n)))


def load_instance(path):
    """The instance in a JSON file, checked non-negative on its domain as
    it is built; only a quadratic takes a box.  Schema errors raise
    InvalidInstance, a file that is no instance at all UnreadableInstance."""
    try:
        with open(path) as fh:
            return instance_from_json_dict(json.load(fh))
    except (InvalidInstance, NonNegativityViolation):
        raise
    except OutOfBox as e:       # the file's box is instance data
        raise InvalidInstance(str(e)) from e
    except (KeyError, ValueError, TypeError) as e:
        raise UnreadableInstance(f"cannot parse {path}: {e}") from e


def dump_instance(inst, path):
    with open(path, "w") as fh:
        json.dump(inst.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- exhaustive property checks (certificates for small n) ----------------

def _check_exhaustive(n):
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"ground set too large for exhaustive check "
                       f"(n={n} > {EXHAUSTIVE_LIMIT})")


def check_nonnegative_exhaustive(instance):
    """min f(S) over all subsets; requires n <= EXHAUSTIVE_LIMIT."""
    _check_exhaustive(instance.n)
    vals = instance.evaluate_batch(all_subsets_matrix(instance.n))
    return float(vals.min())


def check_submodular_exhaustive(instance):
    """Exhaustive submodularity certificate.

    Checks the local criterion f(S+u) + f(S+v) >= f(S+u+v) + f(S) for
    every subset S and every pair u != v outside S, which is equivalent
    to the diminishing-returns inequality over all nested pairs.
    Returns the worst (most negative) slack found.
    """
    n = instance.n
    _check_exhaustive(n)
    table = instance.evaluate_batch(all_subsets_matrix(n))
    masks = np.arange(1 << n, dtype=np.intp)
    worst = np.inf
    for u in range(n):
        bu = 1 << u
        free_u = (masks & bu) == 0
        for v in range(u + 1, n):
            bv = 1 << v
            s = masks[free_u & ((masks & bv) == 0)]
            slack = table[s | bu] + table[s | bv] - table[s | bu | bv] - table[s]
            worst = min(worst, float(slack.min()))
    return worst

