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

from .instances import OutOfBox
from .oracles import all_subsets_matrix, single_blas_thread


class ExactTooLarge(ValueError):
    """Exact mode requested for a ground set beyond the threshold."""


def clamp01(x, n=None, tol=1e-12):
    """Validate a fractional point, clamping coordinates within tol of [0,1]."""
    x = np.asarray(x, dtype=np.float64)
    if n is not None and x.shape != (n,):
        raise ValueError(f"point has shape {x.shape}, expected ({n},)")
    if (x < -tol).any() or (x > 1 + tol).any():
        raise OutOfBox("coordinate outside [0,1] beyond tolerance")
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
        if mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
        if mode == "exact" and set_oracle.n > exact_threshold:
            raise ExactTooLarge(
                f"exact mode needs n <= {exact_threshold}, got n={set_oracle.n}")
        if mode == "sampled" and int(samples) < 1:
            raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
        self.set_oracle = set_oracle
        self.mode = mode
        self.samples = int(samples)
        self.exact_threshold = int(exact_threshold)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.F_queries = 0
        self._subsets = None
        self._fold_work = []          # scratch reused by every exact fold

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
        args = as_points(points, self.n)
        self.F_queries += args.shape[0]
        if self.mode == "exact":
            return _fold_grad_eval(self._power_set_values(), args, grads=False,
                                   work=self._fold_work)
        vals = self.set_oracle.eval_batch(self._draws(args))
        return vals.reshape(args.shape[0], self.samples).mean(axis=1)

    def gradient_batch(self, points):
        pts = as_points(points, self.n)
        P, n = pts.shape
        self.F_queries += 2 * n * P
        if self.mode == "exact":
            grads, _ = _fold_grad_eval(self._power_set_values(), pts, work=self._fold_work)
            return grads
        return self._sampled_marginals(pts, values=False)

    def grad_and_value_batch(self, points):
        """Gradients and values of the same points in one round."""
        pts = as_points(points, self.n)
        P, n = pts.shape
        self.F_queries += (2 * n + 1) * P
        if self.mode == "exact":
            return _fold_grad_eval(self._power_set_values(), pts, work=self._fold_work)
        return self._sampled_marginals(pts, values=True)

    # -- internals -------------------------------------------------------

    def _power_set_values(self):
        # one round over the power set; its rows are built once per oracle.
        # A 2^n x n product on one BLAS thread: threaded, its idle workers
        # spin beside the single-threaded fold that follows
        if self._subsets is None:
            self._subsets = all_subsets_matrix(self.n)
            self._subsets.setflags(write=False)
        with single_blas_thread():
            return self.set_oracle.eval_batch(self._subsets)

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


def _fold_grad_eval(table, pts, elem_budget=1 << 18, work=None, grads=True):
    """Values and full gradients from one power-set table.

    Forward pass: contract the table one coordinate at a time (highest
    element id first, matching bit u of the mask = element u), each
    level a + z*(b - a), keeping each level's difference b - a.  Adjoint
    pass: the contraction is linear in the level values, so one sweep
    back up the chain yields every partial derivative (the coordinate-u
    partial is the adjoint-weighted sum of level u's difference).  Costs
    a small constant times a single fold, instead of 2n folds.  Returns
    (grads, vals); with grads=False the adjoint pass is skipped and only
    vals is returned.

    The top level's difference depends only on the table, so every
    point shares it.  A chunk folds elem_budget // 2^n points, so each
    of its three buffers (kept differences, and two that take turns as
    the current level and the adjoint weights) holds at most
    elem_budget / 2 floats: 1 MB at the default, near L2 size.  All of
    them are cut, on cache lines, from one scratch array.  `work` may be
    a list holding that array from an earlier call: it is reused, or
    replaced by a larger one, so a caller folding round after round
    allocates nothing big.  Fresh arrays of this size come from malloc
    either out of warm memory or freshly mapped and faulted in, which
    depends on the allocation history of the process, so the cost of a
    fold depended on it too.  Every step is elementwise per point and
    each partial is a row sum, so a point's answer never depends on the
    chunk it was folded in.
    """
    P, n = pts.shape
    size = table.size
    assert size == 1 << n
    vals = np.empty(P)
    out = np.empty((P, n)) if grads else None
    top = size >> 1
    chunk = min(P, max(1, elem_budget // size))
    lines = -(-top // 8) * 8               # whole cache lines of floats
    span = -(-chunk * top // 8) * 8
    need = 7 + lines + 3 * span            # 7: room to start on a line
    if work is None:
        work = [np.empty(need)]
    elif not work or work[0].size < need:
        work[:] = [np.empty(need)]
    first = (-work[0].ctypes.data % 64) // 8
    scratch = work[0][first:first + lines + 3 * span]
    a_top = table[:top]
    d_top = scratch[:top]
    np.subtract(table[top:], a_top, out=d_top)
    kept, turn0, turn1 = (scratch[lines + i * span:lines + (i + 1) * span] for i in range(3))
    turns = [turn0, turn1]
    for lo in range(0, P, chunk):
        hi = min(lo + chunk, P)
        rows = hi - lo
        z = pts[lo:hi]
        diffs = [d_top]
        cur = turns[0][:rows * top].reshape(rows, top)
        np.multiply(z[:, n - 1:n], d_top, out=cur)
        cur += a_top
        used = 0
        for u in range(n - 2, -1, -1):
            half = 1 << u
            a = cur[:, :half]
            d = kept[used:used + rows * half].reshape(rows, half)
            used += rows * half
            np.subtract(cur[:, half:], a, out=d)
            diffs.append(d)
            cur = turns[(n - 1 - u) % 2][:rows * half].reshape(rows, half)
            np.multiply(z[:, u:u + 1], d, out=cur)
            cur += a
        vals[lo:hi] = cur[:, 0]
        if not grads:
            continue
        w = turns[0][:rows].reshape(rows, 1)
        w.fill(1.0)
        for u in range(n):
            half = 1 << u
            spare = turns[(u + 1) % 2]
            if u < n - 1:
                nxt = spare[:rows * 2 * half].reshape(rows, 2 * half)
                prod = nxt[:, half:]        # overwritten by the next weights below
            else:
                prod = spare[:rows * half].reshape(rows, half)
            np.multiply(w, diffs[n - 1 - u], out=prod)
            out[lo:hi, u] = prod.sum(axis=1)
            if u < n - 1:
                zu = z[:, u:u + 1]
                np.multiply(w, 1.0 - zu, out=nxt[:, :half])
                np.multiply(w, zu, out=nxt[:, half:])
                w = nxt
    return (out, vals) if grads else vals


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
