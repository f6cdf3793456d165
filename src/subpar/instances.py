"""Synthetic test instances: cut, coverage-minus-cost, multilinear quadratics.

All instances are immutable after construction and expose

    n                  -- ground-set size
    evaluate_batch(m)  -- vectorized set evaluation over a boolean (B, n)
                          membership matrix, returning a float vector

and may expose

    marginals(m)       -- the (B, n) matrix of f(S+u) - f(S-u) in closed
                          form; SetOracle.eval_marginals uses it in place
                          of evaluating the 2n forced rows

Quadratic instances additionally support fractional evaluation and an
exact gradient; because their Hessian has zero diagonal they are
multilinear, so the set evaluation is just the vertex restriction of the
same polynomial.
"""

import json

import numpy as np

from .baselines import TooLarge
from .oracles import InvalidElement, all_subsets_matrix


class InvalidInstance(ValueError):
    """Instance data breaks the schema: a bad size, shape, index or sign."""


class NonNegativityViolation(ValueError):
    """Instance construction produced a negative value somewhere."""


class UnreadableInstance(ValueError):
    """An instance file that is not JSON or lacks a field of its kind."""


class OutOfBox(ValueError):
    """A fractional point lies outside [0,1]^n."""


_VALIDATE_LIMIT = 20  # exhaustive non-negativity validation up to this n


def _require(ok, message):
    if not ok:
        raise InvalidInstance(message)


class CutInstance:
    """Weighted cut function f(S) = sum of w over edges with exactly one
    endpoint in S.  Symmetric, non-negative, submodular, f(0)=f(N)=0.

    edges: sequence of (u, v, w) with u != v and w >= 0.
    """

    kind = "cut"

    def __init__(self, n, edges):
        _require(n >= 1, f"n must be >= 1, got {n}")
        self.n = int(n)
        clean = []
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            _require(0 <= u < n and 0 <= v < n and u != v, f"bad edge endpoint in {(u, v)}")
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
        if len(self.edges) == 0:
            return np.zeros(m.shape[0])
        mf = m.astype(np.float64)
        return mf @ self._d - ((mf @ self._W) * mf).sum(axis=1)

    def marginals(self, m):
        # W has a zero diagonal, so u's own membership drops out
        return self._d - 2.0 * (m.astype(np.float64) @ self._W)

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
        _require(n >= 1 and universe_size >= 1,
                 f"n and universe must be >= 1, got {n} and {universe_size}")
        self.n = int(n)
        self.universe_size = int(universe_size)
        cov = np.zeros((n, universe_size), dtype=bool)
        for u, items in covers.items():
            u = int(u)
            _require(0 <= u < n, f"covering element {u} out of range")
            for it in items:
                it = int(it)
                _require(0 <= it < universe_size, f"universe item {it} out of range")
                cov[u, it] = True
        self.covers = cov
        self.weights = np.asarray(weights, dtype=np.float64)
        self.costs = np.asarray(costs, dtype=np.float64)
        _require(self.weights.shape == (universe_size,),
                 f"weights must have length {universe_size}")
        _require(self.costs.shape == (n,), f"costs must have length {n}")
        _require((self.weights >= 0).all(), "negative universe weight")
        _require((self.costs >= 0).all(), "negative cost")
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
        covered = (m.astype(np.float64) @ self.covers.astype(np.float64)) > 0
        gain = covered.astype(np.float64) @ self.weights
        return gain - m.astype(np.float64) @ self.costs

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
    """F(x) = c + h.x + x.H.x/2 with zero-diagonal, non-positive H.

    H <= 0 makes the gradient h + Hx entrywise non-increasing in x
    (diminishing returns); the zero diagonal makes F multilinear, so its
    minimum over any box sits on a vertex.  Construction checks
    non-negativity over the 2^n unit-cube vertices for n <= 20; pass
    validate=False when the intended domain is some other box (the
    rescaled instance over that box re-runs the check on its corners).

    The polynomial itself is defined everywhere; domain enforcement is
    the caller's job.
    """

    kind = "quadratic"

    def __init__(self, n, c, h, H, validate=True):
        _require(n >= 1, f"n must be >= 1, got {n}")
        self.n = int(n)
        self.c = float(c)
        self.h = np.asarray(h, dtype=np.float64)
        self.H = np.asarray(H, dtype=np.float64)
        _require(self.h.shape == (n,), f"h must have length {n}")
        _require(self.H.shape == (n, n), f"H must be {n} x {n}")
        _require(np.allclose(self.H, self.H.T), "H must be symmetric")
        _require((np.diag(self.H) == 0).all(), "H must have zero diagonal")
        _require((self.H <= 0).all(), "H must be entrywise non-positive")
        if validate and n <= _VALIDATE_LIMIT:
            vals = self.evaluate_batch(all_subsets_matrix(n))
            if vals.min() < -1e-12:
                raise NonNegativityViolation(
                    f"quadratic is negative on a vertex (min {vals.min():g})")

    # fractional interface ------------------------------------------------

    def value(self, x):
        x = self._point(x)
        return float(self.c + self.h @ x + 0.5 * x @ self.H @ x)

    def value_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.c + X @ self.h + 0.5 * np.einsum("bi,ij,bj->b", X, self.H, X)

    def gradient(self, x):
        return self.h + self.H @ self._point(x)

    def gradient_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self.h[None, :] + X @ self.H.T

    def _point(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise InvalidElement(f"point has shape {x.shape}, expected ({self.n},)")
        return x

    # set interface (vertex restriction; F is its own extension) ----------

    def evaluate_batch(self, m):
        return self.value_batch(m.astype(np.float64))

    def to_json_dict(self):
        return {"kind": "quadratic", "n": self.n, "c": self.c,
                "h": self.h.tolist(), "H": self.H.tolist()}


# -- generators -----------------------------------------------------------

def generate_random_instance(kind, n, seed):
    """Deterministic random instance of the requested kind.

    Construction-time validation applies; generators retry with
    perturbed parameters a bounded number of times before giving up with
    NonNegativityViolation.
    """
    _require(n >= 1, f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((hash_kind(kind), n, seed)))
    if kind == "cut":
        return _random_cut(n, rng)
    if kind == "coverage":
        return _random_coverage(n, rng)
    if kind == "quadratic":
        return _random_quadratic(n, rng)
    raise ValueError(f"unknown instance kind: {kind!r}")


def hash_kind(kind):
    codes = {"cut": 1, "coverage": 2, "quadratic": 3}
    if kind not in codes:
        raise ValueError(f"unknown instance kind {kind!r}; "
                         f"expected one of {sorted(codes)}")
    return codes[kind]


def _random_cut(n, rng):
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
    for attempt in range(retries):
        shrink = 0.7 ** attempt
        covers = {}
        for u in range(n):
            k = int(rng.integers(1, max(2, universe // 3)))
            covers[u] = [int(i) for i in rng.choice(universe, size=k, replace=False)]
        weights = rng.uniform(0.5, 1.5, size=universe)
        # costs small enough that f >= 0 is plausible, then validated
        own = np.array([weights[covers[u]].sum() for u in range(n)])
        costs = rng.uniform(0.0, 0.35, size=n) * own * shrink
        try:
            return CoverageInstance(n, universe, covers, weights, costs)
        except NonNegativityViolation:
            continue
    raise NonNegativityViolation(
        f"coverage generator failed after {retries} retries (n={n})")


def _random_quadratic(n, rng, retries=20):
    for attempt in range(retries):
        shrink = 0.7 ** attempt
        H = np.zeros((n, n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    H[u, v] = H[v, u] = -float(rng.uniform(0.2, 1.0)) * shrink
        # h_u >= half the row mass keeps every vertex non-negative
        slack = rng.uniform(0.0, 1.0, size=n)
        h = 0.5 * np.abs(H).sum(axis=1) + slack
        try:
            return MultilinearQuadraticInstance(n, float(rng.uniform(0.0, 0.5)), h, H)
        except NonNegativityViolation:
            continue
    raise NonNegativityViolation(
        f"quadratic generator failed after {retries} retries (n={n})")


# -- JSON schema ----------------------------------------------------------

def instance_from_json_dict(d):
    kind = d.get("kind")
    if kind == "cut":
        return CutInstance(d["n"], d["edges"])
    if kind == "coverage":
        return CoverageInstance(d["n"], d["universe"],
                                {int(k): v for k, v in d["covers"].items()},
                                d["weights"], d["costs"])
    if kind == "quadratic":
        boxed = "lower" in d or "upper" in d
        return MultilinearQuadraticInstance(d["n"], d.get("c", 0.0), d["h"], d["H"],
                                            validate=not boxed)
    raise ValueError(f"unknown instance kind: {kind!r}")


def load_instance(path):
    """(instance, box or None) from a JSON file; schema errors raise
    InvalidInstance, a file that is no instance at all UnreadableInstance."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        inst = instance_from_json_dict(d)
        box = None
        if "lower" in d or "upper" in d:
            lower = np.asarray(d.get("lower", [0.0] * inst.n), dtype=float)
            upper = np.asarray(d.get("upper", [1.0] * inst.n), dtype=float)
            for name, side in (("lower", lower), ("upper", upper)):
                _require(side.shape == (inst.n,), f"{name} must have length {inst.n}")
                _require(np.isfinite(side).all(), f"{name} must be finite")
            _require((lower <= upper).all(), "box needs lower <= upper in every coordinate")
            box = (lower, upper)
    except (InvalidInstance, NonNegativityViolation):
        raise
    except (KeyError, ValueError, TypeError) as e:
        raise UnreadableInstance(f"cannot parse {path}: {e}") from e
    return inst, box


def dump_instance(inst, path, box=None):
    d = inst.to_json_dict()
    if box is not None:
        lower, upper = box
        d["lower"] = list(map(float, lower))
        d["upper"] = list(map(float, upper))
    with open(path, "w") as fh:
        json.dump(d, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- exhaustive property checks (certificates for small n) ----------------

def _check_exhaustive(n, limit):
    if n > limit:
        raise TooLarge(f"ground set too large for exhaustive check (n={n} > {limit})")


def check_nonnegative_exhaustive(instance, limit=12):
    """min f(S) over all subsets; requires n <= limit."""
    _check_exhaustive(instance.n, limit)
    vals = instance.evaluate_batch(all_subsets_matrix(instance.n))
    return float(vals.min())


def check_submodular_exhaustive(instance, limit=12, tol=1e-9):
    """Exhaustive submodularity certificate.

    Checks the local criterion f(S+u) + f(S+v) >= f(S+u+v) + f(S) for
    every subset S and every pair u != v outside S, which is equivalent
    to the diminishing-returns inequality over all nested pairs.
    Returns the worst (most negative) slack found.
    """
    n = instance.n
    _check_exhaustive(n, limit)
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

