"""Batched set-function oracle with adaptive-round and query accounting.

The central object is SetOracle: a gateway that evaluates batches of
subsets against an instance.  Every eval_batch call costs exactly one
adaptive round no matter how large the batch is; the query counter grows
by the batch size.  Algorithms that want to look cheap on the round
meter therefore have to gather every independently-computable query of a
phase into a single batch -- issuing them one by one inflates the meter,
which is the point of the instrument.  How a batch is computed does not
change its cost, so the gateway starts no workers: it evaluates a batch
within the call, slice by slice.  Two helpers make the gateway's two
layout decisions: _slices cuts a round into equal runs of whole bases,
for every slicing round, and _distinct_rows finds a batch's distinct
rows in first-seen order, for the power-set cache and the discrete
G-estimate round.

A marginal-gain round (eval_marginals) asks, for every base set S of a
batch and every element u, for f(S+u) - f(S-u); it is priced as the 2n
explicit rows it stands for and answered by the instance's gradient at
the 0/1 draws, which is that difference, so the closed form changes the
cost of evaluation but never the meters.

A pair-gain round (eval_gains) asks for the same differences
f(S+u) - f(S-u) at a batch of bases and a list of elements, and is
charged as the 2k pair rows per base it stands for, evaluated
explicitly.  It is the only pair-gain read.  A base shared by all k
elements is evaluated once plus its k single-element flips S^u: k+1
rows in place of 2k.  The caller may ask for a shared base many times
by its `counts`, as the discrete G-estimate round does for the distinct
bases of its interval patterns; the round is charged for every base
asked for and answers the gains of each given base once, pure caching.
A base per element is evaluated as the adjacent rows S+u, S-u of each
pair, repeats and all, so each S+u sits beside its own S-u.

An extension round (eval_extension) asks for the multilinear extension
F, and optionally its gradient, at a batch of fractional points, and is
answered by the instance's value_batch and gradient_batch.  It has two
prices.
By default F at a point weighs f over the whole power set, so the round
is charged as its 2^n rows: again the closed form changes the cost of
evaluation, never the meters.  With direct=True the extension itself is
the oracle (the box-constrained objective of drbox.py), and the round is
charged as its P points.

Subsets are boolean membership matrices of shape (batch, n); one (n,)
row is read as a batch of one.  Element ids, sets and 0/1 numbers are
rejected with InvalidElement, never converted.
"""

import os

import numpy as np


class InvalidElement(ValueError):
    """A subset that is not a boolean membership row of width n."""


class NonFiniteValue(ValueError):
    """The instance answered a round with NaN or an infinity."""


class OutOfBox(ValueError):
    """A fractional point lies outside [0,1]^n."""


class OracleAccounting:
    """Mutable round/query counters attached to an oracle gateway.

    rounds   -- number of rounds charged so far: every charging call
                (eval_batch, eval_marginals, eval_gains, eval_extension)
                counts one
    queries  -- total number of subset evaluations charged across them
    """

    __slots__ = ("rounds", "queries")

    def __init__(self):
        self.rounds = 0
        self.queries = 0

    def charge(self, batch_size):
        if not batch_size > 0:
            raise ValueError(f"a round must charge at least one query, got {batch_size}")
        self.rounds += 1
        self.queries += int(batch_size)

    def snapshot(self):
        return (self.rounds, self.queries)

    def __repr__(self):
        return f"OracleAccounting(rounds={self.rounds}, queries={self.queries})"


def members_matrix(subsets, n):
    """The boolean (B, n) membership matrix of a batch of subsets.

    Accepts a boolean array of shape (B, n) with B >= 1, or one (n,) row
    read as a batch of one.  An empty batch raises ValueError, anything
    else InvalidElement.
    """
    if not (isinstance(subsets, np.ndarray) and subsets.dtype == bool):
        dtype = getattr(subsets, "dtype", type(subsets).__name__)
        raise InvalidElement(f"subsets must be a boolean membership array, got {dtype}")
    if subsets.ndim not in (1, 2) or subsets.shape[-1] != n:
        raise InvalidElement(f"membership shape {subsets.shape} is not (B, {n}) or ({n},)")
    if subsets.shape[0] == 0:
        raise ValueError("empty batch")
    return np.atleast_2d(subsets)


def is_integer(value):
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def ids_of(members):
    """Boolean membership vector -> sorted list of element ids."""
    return [int(u) for u in np.flatnonzero(members)]


def all_subsets_matrix(n):
    """Membership matrix of the full power set, row i = subset with mask i."""
    if n > 26:
        raise ValueError(f"power set of n={n} elements too large (n <= 26)")
    masks = np.arange(1 << n, dtype=np.uint32)
    return (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1 == 1


# Rows per evaluation slice.  An instance's float temporaries for a
# slice are a few (rows, n) arrays, 2.6 MB each at n = 20: small enough
# to stay in cache, where the temporaries of a whole discrete round
# (74 MB each) would not.  They are not reused from the heap, though:
# together they exceed glibc's dynamic trim threshold, so the top of the
# heap goes back to the OS after every slice and the next slice faults
# its pages in afresh, until the process frees a larger mmapped block,
# which raises the thresholds.
# A longer round is cut into equal runs of whole bases (_slices), each
# at most a chunk as far as whole bases allow: BLAS picks its kernel by
# batch shape, and a short tail slice would run another kernel than the
# rest of its batch.
_EVAL_CHUNK = 1 << 14


def _slices(count, width):
    """The (lo, hi) runs of `count` bases of `width` rows each that a
    round is evaluated in: one run per _EVAL_CHUNK rows, rounded up, but
    never more runs than bases, their lengths differing by at most one
    base, so that each holds at most _EVAL_CHUNK + width - 1 rows."""
    parts = min(count, -(-count * width // _EVAL_CHUNK))
    return [(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def _distinct_rows(m):
    """The distinct rows of a boolean (B, w) matrix in first-seen order,
    and for each row of m the index of its distinct row."""
    B, w = m.shape
    # w <= 16: the key is an integer below 2^w, each key's first row
    # comes from a 2^w table and the present keys are ordered by it, so
    # the B keys are never sorted
    if w <= 16:
        keys = m @ (1 << np.arange(w, dtype=np.intp))
        first = np.full(1 << w, B, dtype=np.intp)
        np.minimum.at(first, keys, np.arange(B))
        present = np.flatnonzero(first < B)
        order = present[np.argsort(first[present])]
        rank = np.empty(1 << w, dtype=np.intp)
        rank[order] = np.arange(order.size)
        return m[first[order]], rank[keys]
    # w <= 53: one float key per row, the sum of 2^u over its members.
    # Every partial sum is an integer below 2^53, so the key is exact in
    # any BLAS summation order; one matrix-vector product builds it, and
    # np.unique sorts it about twice as fast as the byte-string key of
    # the packed bits that the wider rows need
    if w <= 53:
        keys = m.astype(np.float64) @ 2.0 ** np.arange(w)
    else:
        packed = np.packbits(m, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # first-seen rather than sorted order: rows without repeats then
    # come back row for row as they were given
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return m[first[order]], rank[inverse.reshape(-1)]


def default_threads():
    """The core count.  The gateway runs on the caller's thread; the
    benchmark records this number as context only."""
    return os.cpu_count() or 1


class SetOracle:
    """Round-counting batched gateway in front of a set-function instance.

    The instance must expose `n` and three pure, vectorized functions:
    `evaluate_batch(members)`, the B values of a boolean (B, n) matrix,
    `value_batch(points)`, the multilinear extension F at each row of a
    float (P, n) batch, and `gradient_batch(points)`, its (P, n)
    gradient; at a 0/1 row that is the matrix of f(S+u) - f(S-u).
    Every batch of sets handed to the gateway must pass members_matrix.
    A batch is evaluated within the call, in the runs of whole bases
    that _slices gives, one after another.  All mutability lives in the
    accounting record, updated once per batch.
    """

    def __init__(self, instance):
        self.instance = instance
        self.accounting = OracleAccounting()

    @property
    def n(self):
        return self.instance.n

    def eval_batch(self, subsets):
        """Evaluate every subset in the batch; one adaptive round total."""
        m = members_matrix(subsets, self.n)
        self.accounting.charge(m.shape[0])
        return self._finite(self._evaluate(m))

    def eval_gains(self, bases, elements, counts=None):
        """The (B, k) gains f(S+u) - f(S-u) of every base S and every u
        in `elements`.  bases is a boolean (B, n) batch, one base shared
        by all k elements, or (B, k, n), one base per element.

        One adaptive round, charged as the 2k pair rows per base asked
        for.  A shared base is evaluated once with its k flips S^u:
        f(S^u) - f(S) when u is outside S, f(S) - f(S^u) when inside.
        `counts`, one positive integer per shared base, asks for each
        base that many times: the round is charged 2k*sum(counts), and
        the gains are still those of the given bases, as given and in
        their order.  A per-element base is evaluated as its rows S+u,
        S-u side by side, element-major, and takes no counts.
        """
        n = self.n
        per_element = isinstance(bases, np.ndarray) and bases.ndim == 3
        m = members_matrix(bases.reshape(-1, bases.shape[-1]) if per_element else bases, n)
        elements = np.asarray(elements)
        if not (elements.ndim == 1 and elements.size and elements.dtype.kind in "iu"
                and (elements >= 0).all() and (elements < n).all()):
            raise InvalidElement(f"elements must be a non-empty list of ids in "
                                 f"0..{n - 1}, got {elements!r}")
        k = elements.size
        if per_element and bases.shape[1] != k:
            raise InvalidElement(f"{bases.shape[1]} bases per row for {k} elements")
        if counts is not None:
            counts = np.asarray(counts)
            if per_element or not (counts.shape == (len(m),) and counts.dtype.kind in "iu"
                                   and (counts >= 1).all()):
                raise InvalidElement(f"counts must be a positive integer per shared "
                                     f"base, {len(m)} of them, got {counts!r}")
        B = len(bases) if per_element else len(m) if counts is None else int(counts.sum())
        self.accounting.charge(2 * k * B)
        if per_element:
            j = np.arange(k)
            rows = np.repeat(m, 2, axis=0).reshape(B, k, 2, n)   # [base, element, +/-]
            rows[:, j, 0, elements] = True
            rows[:, j, 1, elements] = False
            vals = self._finite(self._evaluate(rows.reshape(-1, n))).reshape(B, k, 2)
            return vals[..., 0] - vals[..., 1]
        vals = self._finite(self._evaluate(m, elements)).reshape(-1, k + 1)
        base, flips = vals[:, :1], vals[:, 1:]
        return np.where(m[:, elements], base - flips, flips - base)

    def eval_marginals(self, bases, values=False):
        """Marginals f(S+u) - f(S-u) of every element u at every base S.

        One adaptive round, answered by the instance's gradient at each
        base and charged as the explicit rows it replaces: 2n per base,
        plus one per base when values=True, which also returns f(S).
        Returns the (B, n) marginals, or (marginals, values) when
        values=True.
        """
        m = members_matrix(bases, self.n)
        B, n = m.shape
        width = 2 * n + int(values)
        self.accounting.charge(B * width)
        marg = np.empty((B, n))
        vals = np.empty(B) if values else None
        for lo, hi in _slices(B, width):
            blk = m[lo:hi]
            marg[lo:hi] = self.instance.gradient_batch(blk.astype(np.float64))
            if values:
                vals[lo:hi] = self._evaluate(blk)
        if values:
            return self._finite(marg), self._finite(vals)
        return self._finite(marg)

    def eval_extension(self, points, grads=True, direct=False):
        """The multilinear extension F at every point of a float (P, n)
        batch in [0, 1]^n: (gradients, values) when grads=True, else the
        values.

        One adaptive round, answered by the instance's value_batch and
        gradient_batch and charged as the 2^n power-set rows that F
        weighs, or, when direct=True, as the P points asked for.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n or pts.shape[0] == 0:
            raise ValueError(f"points have shape {pts.shape}, expected (P, {self.n}), P >= 1")
        if not ((pts >= 0.0) & (pts <= 1.0)).all():     # NaN fails both
            raise OutOfBox("a coordinate is outside [0,1] or not finite")
        self.accounting.charge(pts.shape[0] if direct else 1 << self.n)
        vals = self._finite(self.instance.value_batch(pts))
        return (self._finite(self.instance.gradient_batch(pts)), vals) if grads else vals

    # -- internal ------------------------------------------------------

    def _finite(self, vals):
        if not np.isfinite(vals).all():
            raise NonFiniteValue(
                f"round {self.accounting.rounds}: the instance returned a "
                f"non-finite value")
        return vals

    def _evaluate(self, m, flips=None):
        """The values of the rows of a boolean (R, n) batch, or, given k
        element ids `flips`, of the R(k+1) rows of each base followed by
        its k single-element flips, each slice of which is laid out only
        when it is evaluated."""
        n = m.shape[1]
        w = 1 if flips is None else len(flips) + 1

        def block(lo, hi):
            # bases lo..hi, each with all w of its rows
            if flips is None:
                return m[lo:hi]
            laid = np.repeat(m[lo:hi], w, axis=0)
            laid.reshape(-1, w, n)[:, np.arange(1, w), flips] ^= True
            return laid

        # small ground set, big batch: rows repeat heavily (pigeonhole),
        # so evaluate each distinct subset once and scatter the values
        # back.  Pure caching -- accounting was already charged per row.
        if n <= 16 and len(m) * w >= 4 * (1 << n):
            distinct, which = _distinct_rows(block(0, len(m)))
            return self.instance.evaluate_batch(distinct)[which].astype(np.float64, copy=False)
        out = np.empty(len(m) * w, dtype=np.float64)
        for lo, hi in _slices(len(m), w):
            out[lo * w:hi * w] = self.instance.evaluate_batch(block(lo, hi))
        return out
