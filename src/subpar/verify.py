"""Invariant verification suites.

Each suite checks one family of guarantees on a fixed pool of generated
instances and returns findings (empty = pass).  The CLI exposes these
via `subpar verify`; the acceptance tests call them directly.  Suites
are deterministic: instance seeds and sample seeds are pinned here.

Suites:
  submodularity   exhaustive diminishing-returns certificate (n <= 12;
                  a larger --instance is reported as skipped)
  non-negativity  exhaustive min f(S) >= 0 (n <= 12, likewise)
  chain           x <= x' <= y' <= y, y - x = delta*1, termination x = y
  potential       gradient-gap decrease by gamma per step; start bound 16*tau
  tau             tau in [OPT/4, OPT] against the exact optimum
  lovasz          Lovasz extension <= multilinear extension at random points
  feige           F(half point) >= OPT/4
  estimator       sampled extension estimate within 4 sigma of exact value
  truncation      F(z raised to >= delta) and F(z capped at 1-delta)
                  both retain a (1-delta) fraction of F(z)
  dr              gradient antitone + finite-difference agreement on box
                  quadratics

chain, potential and tau check every driven run: the exact continuous
driver on the set pool and dr on the quadratic pool.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import brute_force
from .continuous import run_core
from .drbox import box_optimum, run_dr
from .instances import (EXHAUSTIVE_LIMIT, CutInstance, InvalidInstance,
                        NonNegativityViolation, check_nonnegative_exhaustive,
                        check_submodular_exhaustive, generate_random_instance,
                        load_instance)
from .multilinear import MultilinearOracle, lovasz_value
from .oracles import SetOracle


@dataclass
class Finding:
    """A violated invariant, or (skipped=True) an instance the suite could
    not check; either way the suite did not pass on that instance."""
    suite: str
    instance: str
    detail: str
    skipped: bool = False

    def __str__(self):
        return f"[{self.suite}] {self.instance}: {self.detail}"


def _set_pool():
    return [
        ("cut-triangle", CutInstance(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])),
        ("cut-n8-s0", generate_random_instance("cut", 8, 0)),
        ("cut-n10-s1", generate_random_instance("cut", 10, 1)),
        ("coverage-n6-s0", generate_random_instance("coverage", 6, 0)),
        ("coverage-n8-s1", generate_random_instance("coverage", 8, 1)),
    ]


def _quad_pool():
    return [("quadratic-n4-s%d" % s, generate_random_instance("quadratic", 4, s))
            for s in range(3)]


class _Context:
    """Shared lazily-computed state across suites."""

    def __init__(self, epsilon=0.1, extra=None):
        self.epsilon = epsilon
        self.pool = _set_pool()
        # the user-supplied instance only joins the exhaustive checks
        self.exhaustive_pool = self.pool + ([extra] if extra is not None else [])
        self.quads = _quad_pool()

    @cached_property
    def opts(self):
        """OPT of each pool instance: brute force over the subsets of a set
        function, the box optimum of a quadratic."""
        return {**{name: brute_force(SetOracle(inst))[1] for name, inst in self.pool},
                **{name: box_optimum(inst) for name, inst in self.quads}}

    @cached_property
    def runs(self):
        """(name, core) of every driven run, computed once: the exact
        continuous driver on the set pool, then dr on the quadratic pool.
        A core's states[0] is the pre-processed pair and states[i] the pair
        after update i."""
        return ([(name, run_core(MultilinearOracle(SetOracle(inst), mode="exact"),
                                 self.epsilon)) for name, inst in self.pool]
                + [(name, run_dr(inst, self.epsilon).core) for name, inst in self.quads])


# -- suite implementations --------------------------------------------------

def _exhaustive(ctx, suite, out):
    """The exhaustive pool's instances up to the limit.  A larger one is
    appended to `out` as a skip of `suite`, so it never passes unseen."""
    for name, inst in ctx.exhaustive_pool:
        if inst.n > EXHAUSTIVE_LIMIT:
            out.append(Finding(suite, name, f"skipped: n={inst.n} is above the "
                               f"exhaustive limit n <= {EXHAUSTIVE_LIMIT}", skipped=True))
        else:
            yield name, inst


def _suite_submodularity(ctx):
    out = []
    for name, inst in _exhaustive(ctx, "submodularity", out):
        slack = check_submodular_exhaustive(inst)
        if slack < -1e-9:
            out.append(Finding("submodularity", name,
                               f"diminishing-returns slack {slack:.3e} < -1e-9"))
    return out


def _suite_nonnegativity(ctx):
    out = []
    for name, inst in _exhaustive(ctx, "non-negativity", out):
        lo = check_nonnegative_exhaustive(inst)
        if lo < -1e-12:
            out.append(Finding("non-negativity", name, f"min f(S) = {lo:.3e} < 0"))
    return out


def _suite_chain(ctx):
    out = []
    for name, run in ctx.runs:
        states = run.states
        for i in range(1, len(states)):
            prev, cur = states[i - 1], states[i]
            if (cur.x < prev.x - 1e-9).any() or (cur.y > prev.y + 1e-9).any():
                out.append(Finding("chain", name, f"chain broken at step {i}"))
            if (cur.x > cur.y + 1e-9).any():
                out.append(Finding("chain", name, f"x > y at step {i}"))
            gap = cur.y - cur.x - cur.delta
            if np.abs(gap).max() > 1e-9:
                out.append(Finding("chain", name,
                                   f"y - x != delta*1 at step {i} (max |err| {np.abs(gap).max():.2e})"))
        last = states[-1]
        if last.delta != 0.0 or np.abs(last.y - last.x).max() > 1e-9:
            out.append(Finding("chain", name, "run did not terminate with x = y"))
    return out


def _suite_potential(ctx):
    out = []
    for name, run in ctx.runs:
        tau, gamma, traces = run.tau, run.gamma, run.traces
        if not traces:
            continue
        if run.states[0].delta > 0 and traces[0].potential > 16.0 * tau + 1e-7:
            out.append(Finding("potential", name,
                               f"start potential {traces[0].potential:.6g} > 16*tau = {16 * tau:.6g}"))
        for j, tr in enumerate(traces):
            if tr.delta_before > 0 and tr.potential < -1e-9:
                out.append(Finding("potential", name,
                                   f"negative potential {tr.potential:.3e} at step {j}"))
            if j + 1 < len(traces) and tr.delta_after > 0:
                drop_ok = traces[j + 1].potential <= tr.potential - gamma + 1e-7
                if not drop_ok:
                    out.append(Finding(
                        "potential", name,
                        f"step {j + 1}: potential {traces[j + 1].potential:.6g} > "
                        f"{tr.potential:.6g} - gamma"))
    return out


def _suite_tau(ctx):
    out = []
    for name, run in ctx.runs:
        tau, opt = run.tau, ctx.opts[name]
        if not (opt / 4.0 - 1e-9 <= tau <= opt + 1e-9):
            out.append(Finding("tau", name,
                               f"tau = {tau:.6g} outside [OPT/4, OPT] = "
                               f"[{opt / 4:.6g}, {opt:.6g}]"))
    return out


def _suite_feige(ctx):
    out = []
    for name, inst in ctx.pool:
        oracle = MultilinearOracle(SetOracle(inst), mode="exact")
        half = float(oracle.value_batch(np.full((1, inst.n), 0.5))[0])
        opt = ctx.opts[name]
        if half < opt / 4.0 - 1e-9:
            out.append(Finding("feige", name,
                               f"F(half) = {half:.6g} < OPT/4 = {opt / 4:.6g}"))
    return out


def _suite_lovasz(ctx):
    out = []
    rng = np.random.default_rng(7)
    for name, inst in ctx.pool:
        so = SetOracle(inst)
        oracle = MultilinearOracle(so, mode="exact")
        pts = rng.random((12, inst.n))
        mult = oracle.value_batch(pts)
        for i in range(pts.shape[0]):
            lov = lovasz_value(so, pts[i])
            if lov > mult[i] + 1e-9:
                out.append(Finding("lovasz", name,
                                   f"Lovasz {lov:.6g} > multilinear {mult[i]:.6g} "
                                   f"at a random point"))
    return out


def _suite_estimator(ctx):
    out = []
    for name, inst in ctx.pool[:3]:
        n = inst.n
        exact = MultilinearOracle(SetOracle(inst), mode="exact")
        rng = np.random.default_rng(11)
        x = rng.random(n)
        truth = float(exact.value_batch(x[None, :])[0])
        k = 4000
        sampled = MultilinearOracle(SetOracle(inst), mode="sampled", samples=k,
                                    rng=np.random.default_rng(13))
        est = float(sampled.value_batch(x[None, :])[0])
        draws = SetOracle(inst).eval_batch(
            np.random.default_rng(17).random((k, n)) < x[None, :])
        sigma = float(draws.std(ddof=1)) / np.sqrt(k)
        if abs(est - truth) > 4.0 * sigma + 1e-9:
            out.append(Finding("estimator", name,
                               f"sampled estimate {est:.6g} vs exact {truth:.6g} "
                               f"exceeds 4 sigma = {4 * sigma:.3g}"))
    return out


def _suite_truncation(ctx):
    out = []
    rng = np.random.default_rng(23)
    deltas = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
    for name, inst in ctx.pool:
        oracle = MultilinearOracle(SetOracle(inst), mode="exact")
        for _ in range(4):
            z = rng.random(inst.n)
            base = float(oracle.value_batch(z[None, :])[0])
            raised = np.maximum(z[None, :], deltas[:, None])
            capped = np.minimum(z[None, :], 1.0 - deltas[:, None])
            vr = oracle.value_batch(raised)
            vc = oracle.value_batch(capped)
            for d, v_up, v_dn in zip(deltas, vr, vc):
                if v_up < (1.0 - d) * base - 1e-9:
                    out.append(Finding("truncation", name,
                                       f"F(z raised to {d:g}) = {v_up:.6g} < "
                                       f"(1-{d:g})*F(z) = {(1 - d) * base:.6g}"))
                if v_dn < (1.0 - d) * base - 1e-9:
                    out.append(Finding("truncation", name,
                                       f"F(z capped at {1 - d:g}) = {v_dn:.6g} < "
                                       f"(1-{d:g})*F(z) = {(1 - d) * base:.6g}"))
    return out


def _suite_dr(ctx):
    out = []
    rng = np.random.default_rng(29)
    for name, inst in ctx.quads:
        n = inst.n
        # gradient antitone
        for _ in range(6):
            x = rng.random(n)
            y = np.minimum(x + rng.random(n) * (1 - x), 1.0)
            gx, gy = inst.gradient_batch([x, y])
            if (gx < gy - 1e-12).any():
                out.append(Finding("dr", name, "gradient not antitone"))
        # closed-form gradient vs central differences
        x = rng.random(n) * 0.8 + 0.1
        g = inst.gradient_batch(x)[0]
        h = 1e-6
        for u in range(n):
            e = np.zeros(n)
            e[u] = h
            fp, fm = inst.value_batch([x + e, x - e])
            fd = (fp - fm) / (2 * h)
            ref = max(1.0, abs(g[u]))
            if abs(fd - g[u]) > 1e-5 * ref:
                out.append(Finding("dr", name,
                                   f"gradient coord {u}: {g[u]:.8g} vs "
                                   f"finite difference {fd:.8g}"))
    return out


SUITES = {
    "submodularity": _suite_submodularity,
    "non-negativity": _suite_nonnegativity,
    "chain": _suite_chain,
    "potential": _suite_potential,
    "tau": _suite_tau,
    "lovasz": _suite_lovasz,
    "feige": _suite_feige,
    "estimator": _suite_estimator,
    "truncation": _suite_truncation,
    "dr": _suite_dr,
}


# the suites that check a user-supplied instance file
INSTANCE_SUITES = ("submodularity", "non-negativity")


def run_verify(suites=None, instance_path=None, epsilon=0.1):
    """Run the requested suites (all by default).

    Returns (names_run, findings).  A user-supplied instance file joins
    the exhaustive-check pool of INSTANCE_SUITES; a file whose
    construction already violates non-negativity, or whose data breaks
    the schema (a negative edge weight, say), is reported as a finding
    of each requested suite among them rather than raised, and so is a
    file too large for their exhaustive checks (a skipped Finding).  A
    file that cannot be parsed raises UnreadableInstance.
    """
    names = list(SUITES) if suites is None else list(suites)
    for nm in names:
        if nm not in SUITES:
            raise KeyError(f"unknown suite {nm!r}; choices: {', '.join(SUITES)}")
    extra = None
    findings = []
    if instance_path is not None:
        try:
            inst = load_instance(instance_path)
            extra = (str(instance_path), inst)
        except (InvalidInstance, NonNegativityViolation) as e:
            findings = [Finding(nm, str(instance_path), str(e))
                        for nm in names if nm in INSTANCE_SUITES]
    ctx = _Context(epsilon=epsilon, extra=extra)
    for nm in names:
        findings.extend(SUITES[nm](ctx))
    return names, findings
