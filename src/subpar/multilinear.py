"""Multilinear extension oracles: exact enumeration and Monte-Carlo.

F(x) is the expected value of f on the random set that keeps element u
with probability x_u.  Both oracle modes answer *batches* of extension
arguments in a single adaptive round of the underlying set oracle:

  exact    -- one round containing the full power set; every requested
              argument is then an exactly weighted sum of that round's
              values (n <= exact_threshold).
  sampled  -- one round containing k random sets per argument, all
              thresholded against one shared uniform panel (common
              random numbers); the answer is the sample mean per
              argument.

Gradients use the defining identity of multilinear functions: the u-th
partial at x equals F at (x with u forced to 1) minus F at (x with u
forced to 0), priced as 2n extension arguments per point.  Exact mode
reads them all off the power-set table in one adjoint fold.  In sampled
mode, thresholding the shared panel at those forced arguments gives the
panel's base set S with u added or removed, so the estimate is the mean
over draws of the marginal f(S+u) - f(S-u): one marginal-gain round of
the set oracle.
"""

import numpy as np

from .oracles import OracleAccounting, all_subsets_matrix


class ExactTooLarge(ValueError):
    """Exact mode requested for a ground set beyond the threshold."""


def clamp01(x, n=None, tol=1e-12):
    """Validate a fractional point, clamping coordinates within tol of [0,1]."""
    x = np.asarray(x, dtype=np.float64)
    if n is not None and x.shape != (n,):
        raise ValueError(f"point has shape {x.shape}, expected ({n},)")
    if (x < -tol).any() or (x > 1 + tol).any():
        raise ValueError("coordinate outside [0,1] beyond tolerance")
    return np.clip(x, 0.0, 1.0)


def sample_set(x, rng):
    """One draw of the random set behind F: keep u with probability x_u."""
    x = np.asarray(x, dtype=np.float64)
    return rng.random(x.shape[0]) < x


class MultilinearOracle:
    """Extension-value and gradient oracle over a batched set oracle.

    mode            -- "exact" or "sampled"
    samples         -- draws per extension argument (sampled mode)
    exact_threshold -- largest n allowed in exact mode (default 20)
    rng             -- generator for sampled mode (fresh draws per argument)

    F_queries counts extension arguments answered; adaptive rounds and
    f-queries accumulate in the set oracle's accounting.
    """

    def __init__(self, set_oracle, mode="exact", samples=1000,
                 exact_threshold=20, rng=None):
        assert mode in ("exact", "sampled")
        if mode == "exact" and set_oracle.n > exact_threshold:
            raise ExactTooLarge(
                f"exact mode needs n <= {exact_threshold}, got n={set_oracle.n}")
        self.set_oracle = set_oracle
        self.mode = mode
        self.samples = int(samples)
        self.exact_threshold = int(exact_threshold)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.F_queries = 0

    @property
    def n(self):
        return self.set_oracle.n

    @property
    def rounds_meter(self):
        return self.set_oracle.accounting

    @property
    def f_queries(self):
        return self.set_oracle.accounting.queries

    # -- public batched calls (one adaptive round each) -----------------

    def value_batch(self, points):
        args = self._as_points(points)
        self.F_queries += args.shape[0]
        return self._answer(args)

    def gradient_batch(self, points):
        pts = self._as_points(points)
        P, n = pts.shape
        self.F_queries += 2 * n * P
        if self.mode == "exact":
            table = self.set_oracle.eval_batch(all_subsets_matrix(n))
            grads, _ = _fold_grad_eval(table, pts)
            return grads
        return self._sampled_marginals(pts, values=False)

    def grad_and_value_batch(self, points):
        """Gradients and values of the same points in one round."""
        pts = self._as_points(points)
        P, n = pts.shape
        self.F_queries += (2 * n + 1) * P
        if self.mode == "exact":
            table = self.set_oracle.eval_batch(all_subsets_matrix(n))
            return _fold_grad_eval(table, pts)
        return self._sampled_marginals(pts, values=True)

    # -- internals -------------------------------------------------------

    def _as_points(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.empty_like(pts)
        for i in range(pts.shape[0]):
            out[i] = clamp01(pts[i], self.n)
        return out

    def _answer(self, args):
        if self.mode == "exact":
            table = self.set_oracle.eval_batch(all_subsets_matrix(self.n))
            return _fold_eval(table, args)
        return self._sampled(args)

    def _sampled(self, args):
        vals = self.set_oracle.eval_batch(self._draws(args))
        return vals.reshape(args.shape[0], self.samples).mean(axis=1)

    def _sampled_marginals(self, pts, values):
        # thresholding the panel at a point's coordinate-forced arguments
        # gives each draw S of the point itself with u added or removed,
        # so the partials are mean marginals over the point's draws
        P, n = pts.shape
        k = self.samples
        out = self.set_oracle.eval_marginals(self._draws(pts), values=values)
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
        draws = np.empty((A * k, n), dtype=bool)
        chunk = max(1, (1 << 22) // max(k * n, 1))
        for lo in range(0, A, chunk):
            hi = min(lo + chunk, A)
            blk = panel[None, :, :] < args[lo:hi, None, :]
            draws[lo * k:hi * k] = blk.reshape((hi - lo) * k, n)
        return draws


def _fold_eval(table, args, flop_budget=1 << 24):
    """Exact extension values from one power-set table.

    Contracts the table one coordinate at a time (highest element id
    first, matching bit u of the mask = element u), in chunks of
    arguments to bound memory.  Each level computes a + z*(b - a) into a
    reused scratch buffer, so a chunk costs two fixed allocations no
    matter how many levels fold.
    """
    A, n = args.shape
    assert table.size == 1 << n
    out = np.empty(A, dtype=np.float64)
    chunk = min(A, max(1, flop_budget // table.size))
    scratch = [np.empty((chunk, max(table.size // 2, 1))),
               np.empty((chunk, max(table.size // 4, 1)))]
    for lo in range(0, A, chunk):
        hi = min(lo + chunk, A)
        rows = hi - lo
        z = args[lo:hi]
        cur = np.broadcast_to(table, (rows, table.size))
        for u in range(n - 1, -1, -1):
            half = 1 << u
            dst = scratch[(n - 1 - u) % 2][:rows, :half]
            a, b = cur[:, :half], cur[:, half:]
            np.subtract(b, a, out=dst)
            dst *= z[:, u:u + 1]
            dst += a
            cur = dst
        out[lo:hi] = cur[:, 0]
    return out


def _fold_grad_eval(table, pts, elem_budget=1 << 23):
    """Values and full gradients from one power-set table.

    Forward pass: the same per-coordinate contraction as _fold_eval,
    retaining each level.  Adjoint pass: the contraction is linear in
    the level values, so one sweep back up the chain yields every
    partial derivative (the coordinate-u partial is the adjoint-weighted
    sum of top-half minus bottom-half of level u's input).  Costs a
    small constant times a single fold, instead of 2n folds.
    """
    P, n = pts.shape
    size = table.size
    assert size == 1 << n
    vals = np.empty(P)
    grads = np.empty((P, n))
    chunk = min(P, max(1, elem_budget // (2 * size)))
    for lo in range(0, P, chunk):
        hi = min(lo + chunk, P)
        rows = hi - lo
        z = pts[lo:hi]
        levels = []
        cur = np.broadcast_to(table, (rows, size))
        for u in range(n - 1, -1, -1):
            levels.append(cur)
            half = 1 << u
            a, b = cur[:, :half], cur[:, half:]
            cur = a + z[:, u:u + 1] * (b - a)
        vals[lo:hi] = cur[:, 0]
        w = np.ones((rows, 1))
        for t in range(n - 1, -1, -1):
            u = n - 1 - t
            half = 1 << u
            inp = levels[t]
            diff = inp[:, half:] - inp[:, :half]
            grads[lo:hi, u] = (w * diff).sum(axis=1)
            if t > 0:
                zu = z[:, u:u + 1]
                w = np.concatenate([w * (1.0 - zu), w * zu], axis=1)
        del levels
    return grads, vals


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
