"""Multilinear extension oracles: closed-form exact and direct modes,
and Monte-Carlo.

F(x) is the expected value of f on the random set that keeps element u
with probability x_u.  Every oracle mode answers a *batch* of extension
arguments in a single adaptive round of the underlying set oracle:

  exact    -- one round charged as the full power set, answered by the
              instance's closed-form value_batch and gradient_batch
              through SetOracle.eval_extension (n <= EXACT_LIMIT).
  direct   -- the same round charged as its P points: the extension is
              the oracle itself, as for the box-constrained objective
              of drbox.py, so a partial costs no F-queries.
  sampled  -- one round containing k random sets per argument, all
              thresholded against one shared uniform panel (common
              random numbers); the answer is the sample mean per
              argument.

Gradients use the defining identity of multilinear functions: the u-th
partial at x equals F at (x with u forced to 1) minus F at (x with u
forced to 0), priced as 2n extension arguments per point.  Exact and
direct modes read the instance's gradient at the point.  In sampled
mode, thresholding the shared panel at those forced arguments gives the
panel's base set S with u added or removed, so the estimate is the mean
over draws of the marginal f(S+u) - f(S-u): one marginal-gain round of
the set oracle, answered by the gradient at the 0/1 draws.
"""

import numpy as np

from .oracles import OutOfBox, is_integer


EXACT_LIMIT = 20      # largest n allowed in exact mode
CLAMP_TOL = 1e-12     # coordinates may stray this far outside [0,1]


class ExactTooLarge(ValueError):
    """Exact mode requested for a ground set beyond EXACT_LIMIT."""


def in_cube(x):
    """Whether every coordinate lies within CLAMP_TOL of [0,1]; NaN fails
    both bounds, so it is outside."""
    x = np.asarray(x)
    return bool(((x >= -CLAMP_TOL) & (x <= 1 + CLAMP_TOL)).all())


def clamp01(x, n=None):
    """Validate a fractional point, clamping coordinates within CLAMP_TOL
    of [0,1]; NaN fails both bounds, so it is refused too."""
    x = np.asarray(x, dtype=np.float64)
    if n is not None and x.shape != (n,):
        raise ValueError(f"point has shape {x.shape}, expected ({n},)")
    if not in_cube(x):
        raise OutOfBox("coordinate outside [0,1] beyond tolerance, or not finite")
    return np.clip(x, 0.0, 1.0)


def as_points(points, n):
    """Validate a batch of fractional points as a (P, n) array in [0,1].

    A single point of shape (n,) is read as a batch of one.  Every
    continuous oracle checks its batch here before it charges a round.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points have shape {pts.shape}, expected (P, {n})")
    return clamp01(pts)


def sample_set(x, rng):
    """One draw of the random set behind F: keep u with probability x_u."""
    x = np.asarray(x, dtype=np.float64)
    return rng.random(x.shape[0]) < x


class MultilinearOracle:
    """Extension-value and gradient oracle over a batched set oracle,
    speaking the continuous driver's batched protocol.

    mode    -- "exact" (n <= EXACT_LIMIT), "direct" or "sampled"
    samples -- draws per extension argument (sampled mode), an integer >= 1
    rng     -- generator for sampled mode (fresh draws per argument)

    Each call checks its batch with as_points and counts it: a value
    costs one F-query, a partial one grad-query plus 2 F-queries in
    exact and sampled mode (the difference of two F values) and 0 in
    direct mode (a partial is an answer).  _answer(pts, grads, values)
    answers in one adaptive round with the gradients, the values or
    both; adaptive rounds and f-queries accumulate in the set oracle's
    accounting.
    """

    def __init__(self, set_oracle, mode="exact", samples=1000, rng=None):
        if mode not in ("exact", "direct", "sampled"):
            raise ValueError(f"mode must be 'exact', 'direct' or 'sampled', got {mode!r}")
        if mode == "exact" and set_oracle.n > EXACT_LIMIT:
            raise ExactTooLarge(
                f"exact mode needs n <= {EXACT_LIMIT}, got n={set_oracle.n}")
        if not (is_integer(samples) and samples >= 1):
            raise ValueError(f"MultilinearOracle needs an integer number of "
                             f"samples >= 1, got {samples!r}")
        self.set_oracle = set_oracle
        self.mode = mode
        self.samples = int(samples)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.F_queries = 0
        self.grad_queries = 0

    @property
    def n(self):
        return self.set_oracle.n

    @property
    def rounds_meter(self):
        return self.set_oracle.accounting

    def value_batch(self, points):
        return self._batch(points, grads=False, values=True)

    def gradient_batch(self, points):
        return self._batch(points, grads=True, values=False)

    def grad_and_value_batch(self, points):
        return self._batch(points, grads=True, values=True)

    def _batch(self, points, grads, values):
        pts = as_points(points, self.n)
        partials = pts.size if grads else 0
        per_partial = 0 if self.mode == "direct" else 2
        self.F_queries += (pts.shape[0] if values else 0) + per_partial * partials
        self.grad_queries += partials
        return self._answer(pts, grads, values)

    def _answer(self, pts, grads, values):
        if self.mode != "sampled":
            out = self.set_oracle.eval_extension(pts, grads, self.mode == "direct")
            return out if values else out[0]
        P, n = pts.shape
        k = self.samples
        draws = self._draws(pts)
        if not grads:
            return self.set_oracle.eval_batch(draws).reshape(P, k).mean(axis=1)
        # thresholding the panel at a point's coordinate-forced arguments
        # gives each draw S of the point itself with u added or removed,
        # so the partials are mean marginals over the point's draws
        out = self.set_oracle.eval_marginals(draws, values=values)
        if not values:
            return out.reshape(P, k, n).mean(axis=1)
        marg, vals = out
        return marg.reshape(P, k, n).mean(axis=1), vals.reshape(P, k).mean(axis=1)

    def _draws(self, args):
        # One uniform panel (k, n) is shared by every argument in the
        # batch: common random numbers keep each estimate unbiased while
        # coupling the noise of nearby arguments (and of the paired
        # coordinate-forced points behind a gradient), so differences of
        # estimates are far steadier than with independent draws.
        A, n = args.shape
        k = self.samples
        panel = self.rng.random((k, n))
        return (panel[None] < args[:, None]).reshape(A * k, n)


def lovasz_value(set_oracle, x):
    """Exact Lovász extension: integral over thresholds of f applied to
    the super-level sets of x.  One batch of at most n+1 set queries."""
    n = set_oracle.n
    x = clamp01(x, n)
    order = np.argsort(-x, kind="stable")
    sorted_vals = x[order]
    sets = np.zeros((n + 1, n), dtype=bool)
    for k in range(1, n + 1):
        sets[k] = sets[k - 1]
        sets[k, order[k - 1]] = True
    fvals = set_oracle.eval_batch(sets)
    # interval lengths of each super-level set along lambda in [0,1]
    hi = np.concatenate([[1.0], sorted_vals])
    lo = np.concatenate([sorted_vals, [0.0]])
    return float(((hi - lo) * fvals).sum())
