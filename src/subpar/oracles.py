"""Batched set-function oracle with adaptive-round and query accounting.

The central object is SetOracle: a gateway that evaluates batches of
subsets against an instance.  Every eval_batch call costs exactly one
adaptive round no matter how large the batch is; the query counter grows
by the batch size.  Algorithms that want to look cheap on the round
meter therefore have to gather every independently-computable query of a
phase into a single batch -- issuing them one by one inflates the meter,
which is the point of the instrument.  How a batch is computed does not
change its cost, so the gateway starts no workers: it evaluates a batch
within the call, slice by slice.

In exact mode the multilinear layer asks for the whole power set every
round.  power_set_rows() hands out one read-only 2^n-row membership
matrix per gateway; eval_batch recognises that very array (by identity,
not by comparing rows), evaluates it once, keeps the read-only values,
and answers every later power-set round from them.  Each such round is
still charged as one round of 2^n queries: the table changes the cost
of evaluation, never the meters.

A marginal-gain round (eval_marginals) asks, for every base set S of a
batch and every element u, for f(S+u) - f(S-u); it is priced as the 2n
explicit rows it stands for, so an instance with a closed form for its
marginals changes the cost of evaluation but never the meters.
pair_rows builds those explicit S+u / S-u rows for every caller that
evaluates them.

Subsets are represented as boolean membership matrices of shape
(batch, n).  members_matrix also accepts subsets given as iterables of
element ids (a flat list of ints is one subset of ids, never bitmasks)
and normalizes them; mask_of turns a membership row into an int bitmask.
"""

import ctypes
import os
from contextlib import contextmanager

import numpy as np


class InvalidElement(ValueError):
    """A subset references an element id outside 0..n-1."""


class NonFiniteValue(ValueError):
    """The instance answered a round with NaN or an infinity."""


class OracleAccounting:
    """Mutable round/query counters attached to an oracle gateway.

    rounds   -- number of eval_batch calls issued so far
    queries  -- total number of subset evaluations across all batches
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
    """Normalize a batch of subsets to a boolean matrix of shape (B, n).

    Accepts a boolean array of shape (B, n) or (n,), or a sequence of
    subsets where each subset is a set/iterable of element ids or a
    boolean membership vector.  A bare flat list of ints is read as ONE
    subset given by its element ids.
    """
    if isinstance(subsets, np.ndarray) and subsets.dtype == bool:
        m = np.atleast_2d(subsets)
        if m.shape[1] != n:
            raise InvalidElement(f"membership row length {m.shape[1]} != n={n}")
        return m
    subsets = list(subsets) if not isinstance(subsets, (set, frozenset)) else [subsets]
    if all(isinstance(s, (int, np.integer)) for s in subsets):
        subsets = [subsets]  # flat ids -> a single subset
    rows = np.zeros((len(subsets), n), dtype=bool)
    for i, s in enumerate(subsets):
        rows[i] = single_members(s, n)
    return rows


def single_members(subset, n):
    """One subset (iterable of ids, or boolean vector) -> membership vector."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (n,):
            raise InvalidElement(f"membership length {subset.shape} != n={n}")
        return subset
    row = np.zeros(n, dtype=bool)
    for u in subset:
        u = int(u)
        if u < 0 or u >= n:
            raise InvalidElement(f"element id {u} out of range for n={n}")
        row[u] = True
    return row


def mask_of(members):
    """Boolean membership vector -> python int bitmask."""
    return int(sum(1 << u for u in np.flatnonzero(members)))


def ids_of(members):
    """Boolean membership vector -> sorted list of element ids."""
    return [int(u) for u in np.flatnonzero(members)]


def all_subsets_matrix(n):
    """Membership matrix of the full power set, row i = subset with mask i."""
    if n > 26:
        raise ValueError(f"power set of n={n} elements too large (n <= 26)")
    masks = np.arange(1 << n, dtype=np.uint32)
    return (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1 == 1


_EVAL_CHUNK = 1 << 21  # rows per evaluation slice, keeps memory bounded


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None (another BLAS, or no /proc/self/maps to find it)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


_blas_thread_calls = None     # looked up on first use; False when not found


@contextmanager
def single_blas_thread():
    """Run the body with BLAS on the calling thread only.

    For small products between single-threaded numpy work: a threaded
    OpenBLAS call wakes workers that keep spinning on the other cores
    after it returns, and it stalls until every worker has been
    scheduled, so load or steal on any core slows the caller.  The
    thread count is process-wide and restored on exit.  Without OpenBLAS
    the body runs unchanged.
    """
    global _blas_thread_calls
    if _blas_thread_calls is None:
        _blas_thread_calls = _openblas_thread_calls() or False
    if not _blas_thread_calls:
        yield
        return
    get, put = _blas_thread_calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def default_threads():
    """The core count.  The gateway runs on the caller's thread; the
    benchmark records this number as context only."""
    return os.cpu_count() or 1


def pair_rows(bases, elements):
    """The rows S+u, then the rows S-u, for every base S and every u in
    `elements`: the boolean (B, 2, k, n) array whose [b, 0, j] is
    bases[b] plus elements[j] and whose [b, 1, j] is bases[b] minus it.

    bases is (B, n), one base shared by all k elements, or (B, k, n),
    one base per element.
    """
    elements = np.asarray(elements)
    k = elements.size
    B, n = bases.shape[0], bases.shape[-1]
    rows = np.empty((B, 2, k, n), dtype=bool)
    rows[:] = bases.reshape(B, 1, -1, n)
    j = np.arange(k)
    rows[:, 0, j, elements] = True
    rows[:, 1, j, elements] = False
    return rows


class SetOracle:
    """Round-counting batched gateway in front of a set-function instance.

    The instance must expose `n` and a pure, vectorized
    `evaluate_batch(members)` taking a boolean (B, n) matrix.  It may
    also expose `marginals(members)`, returning the (B, n) matrix of
    f(S+u) - f(S-u); eval_marginals then uses it instead of evaluating
    the 2n forced rows.  A batch is evaluated within the call, in
    slices of at most _EVAL_CHUNK rows, one after another.  All
    mutability lives in the accounting record, updated once per batch,
    and in the power-set table, set once.
    """

    def __init__(self, instance):
        self.instance = instance
        self.accounting = OracleAccounting()
        self._power_set = None        # power_set_rows(), built on first use
        self._power_set_vals = None   # f on those rows, once a round has evaluated them

    @property
    def n(self):
        return self.instance.n

    def power_set_rows(self):
        """The read-only (2^n, n) membership matrix of every subset, row i
        the subset with mask i, built on first use and kept.  Passing this
        array to eval_batch reads the gateway's power-set value table."""
        if self._power_set is None:
            rows = all_subsets_matrix(self.n)
            rows.setflags(write=False)
            self._power_set = rows
        return self._power_set

    def eval_batch(self, subsets):
        """Evaluate every subset in the batch; one adaptive round total."""
        if self._power_set is not None and subsets is self._power_set:
            return self._power_set_table()
        m = members_matrix(subsets, self.n)
        if m.shape[0] == 0:
            raise ValueError("empty batch")
        self.accounting.charge(m.shape[0])
        return self._finite(self._evaluate(m))

    def eval_marginals(self, bases, values=False):
        """Marginals f(S+u) - f(S-u) of every element u at every base S.

        One adaptive round, charged as the explicit rows it replaces:
        2n per base, plus one per base when values=True, which also
        returns f(S).  Returns the (B, n) marginals, or (marginals,
        values) when values=True.
        """
        m = members_matrix(bases, self.n)
        B, n = m.shape
        if B == 0:
            raise ValueError("empty batch")
        width = 2 * n + int(values)
        self.accounting.charge(B * width)
        kernel = getattr(self.instance, "marginals", None)
        marg = np.empty((B, n))
        vals = np.empty(B) if values else None
        # slices of about one evaluation chunk keep the pair rows of the
        # fallback bounded in memory
        step = max(1, _EVAL_CHUNK // width)
        for lo in range(0, B, step):
            blk = m[lo:lo + step]
            if kernel is not None:
                marg[lo:lo + step] = kernel(blk)
                if values:
                    vals[lo:lo + step] = self._evaluate(blk)
            else:
                rows = pair_rows(blk, np.arange(n)).reshape(-1, 2 * n, n)
                if values:
                    # S rides after its pairs in the same evaluation; a
                    # one-base slice on its own would be a one-row batch,
                    # which BLAS sums in another order
                    rows = np.concatenate([rows, blk[:, None]], axis=1)
                out = self._evaluate(rows.reshape(-1, n)).reshape(-1, width)
                np.subtract(out[:, :n], out[:, n:2 * n], out=marg[lo:lo + step])
                if values:
                    vals[lo:lo + step] = out[:, 2 * n]
        if values:
            return self._finite(marg), self._finite(vals)
        return self._finite(marg)

    def eval_single(self, subset):
        """Evaluate one subset.  Costs a full round, like any batch."""
        return float(self.eval_batch(members_matrix([subset], self.n))[0])

    # -- internal ------------------------------------------------------

    def _power_set_table(self):
        # charged like any round of 2^n rows; evaluated on the first one
        # only.  A 2^n x n product on one BLAS thread: threaded, its idle
        # workers spin beside the single-threaded fold that reads it
        rows = self._power_set
        self.accounting.charge(rows.shape[0])
        if self._power_set_vals is None:
            with single_blas_thread():
                vals = self._finite(self._evaluate(rows))
            vals.setflags(write=False)
            self._power_set_vals = vals
        return self._power_set_vals

    def _finite(self, vals):
        if not np.isfinite(vals).all():
            raise NonFiniteValue(
                f"round {self.accounting.rounds}: the instance returned a "
                f"non-finite value")
        return vals

    def _evaluate(self, m):
        rows = m.shape[0]
        n = m.shape[1]
        # small ground set, big batch: rows repeat heavily (pigeonhole),
        # so evaluate each distinct subset once and scatter the values
        # back.  Pure caching -- accounting was already charged per row.
        if n <= 16 and rows >= 4 * (1 << n):
            keys = m @ (1 << np.arange(n, dtype=np.int64))
            seen = np.zeros(1 << n, dtype=bool)
            seen[keys] = True
            uniq = np.flatnonzero(seen)
            table = (uniq[:, None] >> np.arange(n, dtype=np.int64)) & 1 == 1
            vals = self.instance.evaluate_batch(table)
            pos = np.empty(1 << n, dtype=np.int64)
            pos[uniq] = np.arange(uniq.size)
            return vals[pos[keys]].astype(np.float64, copy=False)
        out = np.empty(rows, dtype=np.float64)
        for lo in range(0, rows, _EVAL_CHUNK):
            hi = min(lo + _EVAL_CHUNK, rows)
            out[lo:hi] = self.instance.evaluate_batch(m[lo:hi])
        return out

