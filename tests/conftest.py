"""Shared fixtures: canonical tiny instances, a spying oracle, tmp files."""

import json
from dataclasses import replace

import numpy as np
import pytest

from subpar import CoverageInstance, CutInstance, MultilinearQuadraticInstance, SetOracle
from subpar.oracles import all_subsets_matrix, members_matrix


@pytest.fixture
def k2():
    """Single unit edge on two vertices: f = [0, 1, 1, 0] by mask."""
    return CutInstance(2, [(0, 1, 1.0)])


@pytest.fixture
def triangle():
    """Unit triangle: f(S) = 2 for proper nonempty S, 0 at the ends."""
    return CutInstance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def tiny_coverage():
    # hand-computed: f by mask = [0, 2.5, 4, 4.5]
    return CoverageInstance(
        n=2, universe_size=3,
        covers={0: [0, 1], 1: [1, 2]},
        weights=[1.0, 2.0, 3.0],
        costs=[0.5, 1.0])


@pytest.fixture
def frozen_quad():
    """F(x) = x0 + x1 - x0*x1; vertices [0, 1, 1, 1], grad = (1-x1, 1-x0)."""
    return MultilinearQuadraticInstance(
        n=2, c=0.0, h=[1.0, 1.0], H=[[0.0, -1.0], [-1.0, 0.0]])


class SpySetOracle(SetOracle):
    """SetOracle that independently counts batches and rows.

    The accounting record is the instrument under test; the spy counts
    at the call boundary so the two can be cross-checked.  A marginal
    round counts as one batch of the 2n (+1) rows per base it stands
    for; marginal_batches counts those rounds on their own.  A pair-gain
    round counts as one batch of the 2k pair rows per base it stands
    for, each shared base as many times as its count when it has one.  An extension round
    counts as one batch of the 2^n power-set rows, or of its P points
    when it is direct.
    """

    def __init__(self, instance, **kw):
        super().__init__(instance, **kw)
        self.batches = 0
        self.rows = 0
        self.marginal_batches = 0

    def eval_batch(self, subsets):
        self.batches += 1
        self.rows += members_matrix(subsets, self.n).shape[0]
        return super().eval_batch(subsets)

    def eval_marginals(self, bases, values=False):
        self.batches += 1
        self.marginal_batches += 1
        self.rows += members_matrix(bases, self.n).shape[0] * (2 * self.n + int(values))
        return super().eval_marginals(bases, values=values)

    def eval_gains(self, bases, elements, counts=None):
        self.batches += 1
        # per-element (B, k, n) bases count B too; members_matrix takes no 3-D batch
        B = np.atleast_2d(bases).shape[0] if counts is None else int(np.sum(counts))
        self.rows += B * 2 * np.size(elements)
        return super().eval_gains(bases, elements, counts=counts)

    def eval_extension(self, points, grads=True, direct=False):
        self.batches += 1
        self.rows += len(points) if direct else 1 << self.n
        return super().eval_extension(points, grads, direct)


@pytest.fixture
def spy_oracle():
    return SpySetOracle


@pytest.fixture
def write_instance(tmp_path):
    """Write an instance dict (or object) as a JSON file, return the path."""

    def _write(obj, name="inst.json", extra=None):
        d = obj if isinstance(obj, dict) else obj.to_json_dict()
        if extra:
            d = {**d, **extra}
        p = tmp_path / name
        p.write_text(json.dumps(d) + "\n")
        return str(p)

    return _write


def power_set_extension(instance, X, grads=True):
    """(gradient_batch(X), value_batch(X)), or with grads=False the
    values, the slow way: F at each row of X as the power-set sum of
    f(S) prod_{u in S} x_u prod_{v not in S} (1 - x_v), from
    evaluate_batch over all_subsets_matrix, and each partial as
    F(x, u<-1) - F(x, u<-0) from the same sum."""
    sets = all_subsets_matrix(instance.n)
    table = instance.evaluate_batch(sets)

    def F(points):
        return np.where(sets, points[:, None, :], 1.0 - points[:, None, :]).prod(axis=2) @ table

    vals = F(X)
    if not grads:
        return vals
    partials = np.empty(X.shape)
    for u in range(instance.n):
        up, down = X.copy(), X.copy()
        up[:, u], down[:, u] = 1.0, 0.0
        partials[:, u] = F(up) - F(down)
    return partials, vals


def core_bits(core, queries=True):
    """A run_core result as bytes and float reprs: two runs agree bit for
    bit in every state, trace and the answer exactly when these are equal.
    queries=False leaves out the traces' queries_used, which counts
    another unit on each kind of oracle."""
    states = [s.x.tobytes() + s.y.tobytes() + repr(s.delta).encode() for s in core.states]
    traces = core.traces if queries else [replace(t, queries_used=None) for t in core.traces]
    return states, repr(traces), core.x.tobytes(), repr((core.value, core.tau))


# -- acceptance-criteria reporting -------------------------------------------
# test_acceptance.py registers one PASS/FAIL line per criterion here; the
# terminal-summary hook prints them so the final pytest output always shows
# the acceptance scoreboard.

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
