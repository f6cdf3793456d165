"""Invariant verification suites.

Each suite checks one family of guarantees on a fixed pool of generated
instances and returns findings (empty = pass).  The CLI exposes these
via `subpar verify`; the acceptance tests call them directly.  Suites
are deterministic: instance seeds and sample seeds are pinned here.

Suites:
  submodularity   exhaustive diminishing-returns certificate (n <= 12)
  non-negativity  exhaustive min f(S) >= 0 (n <= 12)
  chain           x <= x' <= y' <= y, y - x = delta*1, termination x = y
  potential       gradient-gap decrease by gamma per step; start bound 16*tau
  tau             tau in [OPT/4, OPT] against brute force
  lovasz          Lovasz extension <= multilinear extension at random points
  feige           F(half point) >= OPT/4
  estimator       sampled extension estimate within 4 sigma of exact value
  truncation      F(z raised to >= delta) and F(z capped at 1-delta)
                  both retain a (1-delta) fraction of F(z)
  dr              gradient antitone + finite-difference agreement +
                  driver invariants on box quadratics
"""

from dataclasses import dataclass

import numpy as np

from .baselines import brute_force
from .continuous import run_core
from .drbox import grid_search_optimum, run_dr
from .instances import (CutInstance, InvalidInstance, NonNegativityViolation,
                        check_nonnegative_exhaustive, check_submodular_exhaustive,
                        generate_random_instance, load_instance)
from .multilinear import MultilinearOracle, lovasz_value, sample_set
from .oracles import SetOracle

_EXHAUSTIVE_LIMIT = 12


@dataclass
class Finding:
    suite: str
    instance: str
    detail: str

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
        self._runs = {}

    def driven_run(self, name, instance):
        """The continuous driver's run on a pool instance, computed once.

        Its states[0] is the pre-processed pair and states[i] the pair
        after update i.
        """
        if name not in self._runs:
            oracle = MultilinearOracle(SetOracle(instance), mode="exact")
            self._runs[name] = run_core(oracle, self.epsilon)
        return self._runs[name]


# -- suite implementations --------------------------------------------------

def _suite_submodularity(ctx):
    out = []
    for name, inst in ctx.exhaustive_pool:
        if inst.n > _EXHAUSTIVE_LIMIT:
            continue
        slack = check_submodular_exhaustive(inst, limit=_EXHAUSTIVE_LIMIT)
        if slack < -1e-9:
            out.append(Finding("submodularity", name,
                               f"diminishing-returns slack {slack:.3e} < -1e-9"))
    return out


def _suite_nonnegativity(ctx):
    out = []
    for name, inst in ctx.exhaustive_pool:
        if inst.n > _EXHAUSTIVE_LIMIT:
            continue
        lo = check_nonnegative_exhaustive(inst, limit=_EXHAUSTIVE_LIMIT)
        if lo < -1e-12:
            out.append(Finding("non-negativity", name, f"min f(S) = {lo:.3e} < 0"))
    return out


def _suite_chain(ctx):
    out = []
    for name, inst in ctx.pool:
        states = ctx.driven_run(name, inst).states
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
    for name, inst in ctx.pool:
        run = ctx.driven_run(name, inst)
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
    for name, inst in ctx.pool:
        tau = ctx.driven_run(name, inst).tau
        _, opt = brute_force(SetOracle(inst))
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
        _, opt = brute_force(SetOracle(inst))
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
            gx, gy = inst.gradient(x), inst.gradient(y)
            if (gx < gy - 1e-12).any():
                out.append(Finding("dr", name, "gradient not antitone"))
        # closed-form gradient vs central differences
        x = rng.random(n) * 0.8 + 0.1
        g = inst.gradient(x)
        h = 1e-6
        for u in range(n):
            e = np.zeros(n)
            e[u] = h
            fd = (inst.value(x + e) - inst.value(x - e)) / (2 * h)
            ref = max(1.0, abs(g[u]))
            if abs(fd - g[u]) > 1e-5 * ref:
                out.append(Finding("dr", name,
                                   f"gradient coord {u}: {g[u]:.8g} vs "
                                   f"finite difference {fd:.8g}"))
        # driver invariants: tau sandwich vs grid search, potential decrease
        # (the unit box pins no coordinate, so the run always has a core)
        core = run_dr(inst, ctx.epsilon).core
        opt_x, opt_v = grid_search_optimum(inst.value_batch, n)
        if not (opt_v / 4.0 - 1e-9 <= core.tau <= opt_v + 1e-6):
            out.append(Finding("dr", name,
                               f"tau = {core.tau:.6g} outside [opt/4, opt] with "
                               f"grid-search opt {opt_v:.6g}"))
        trs = core.traces
        for j in range(len(trs) - 1):
            if trs[j].delta_after > 0 and \
                    trs[j + 1].potential > trs[j].potential - core.gamma + 1e-7:
                out.append(Finding("dr", name,
                                   f"potential did not drop by gamma at step {j + 1}"))
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
    of each requested suite among them rather than raised.  A file that
    cannot be parsed raises UnreadableInstance.
    """
    names = list(SUITES) if suites is None else list(suites)
    for nm in names:
        if nm not in SUITES:
            raise KeyError(f"unknown suite {nm!r}; choices: {', '.join(SUITES)}")
    extra = None
    findings = []
    if instance_path is not None:
        try:
            inst, _ = load_instance(instance_path)
            extra = (str(instance_path), inst)
        except (InvalidInstance, NonNegativityViolation) as e:
            findings = [Finding(nm, str(instance_path), str(e))
                        for nm in names if nm in INSTANCE_SUITES]
    ctx = _Context(epsilon=epsilon, extra=extra)
    for nm in names:
        findings.extend(SUITES[nm](ctx))
    return names, findings
