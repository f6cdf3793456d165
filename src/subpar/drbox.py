"""Box-constrained maximization of smooth diminishing-returns objectives.

The continuous driver in continuous.py only sees the ContinuousOracle
protocol of multilinear.py (value_batch / gradient_batch /
grad_and_value_batch / rounds_meter), so the same code path runs
unchanged here: the box [a, b] is rescaled to the unit cube,
QuadraticContinuousOracle answers the protocol with the objective's
closed-form values and gradients in place of the extension estimator,
and the fractional iterate itself is the output — no rounding step.

For the quadratic family the rescaling is exact and stays in the
family:  with D = diag(b - a),

    G(z) = F(a + Dz) = F(a) + (D(h + Ha)) . z + 1/2 z' (DHD) z.

Coordinates with a_u = b_u carry no freedom and are eliminated before
the run; the returned point re-embeds them at their pinned value.
"""

from dataclasses import dataclass

import numpy as np

from .continuous import ParamOutOfRange, check_epsilon, run_core
from .instances import BoxDomain, InvalidInstance, MultilinearQuadraticInstance
from .multilinear import ContinuousOracle
from .oracles import OracleAccounting


def _require_quadratic(instance):
    if not isinstance(instance, MultilinearQuadraticInstance):
        raise InvalidInstance(f"expected a quadratic instance, got "
                              f"{type(instance).__name__}")


class QuadraticContinuousOracle(ContinuousOracle):
    """Direct value/gradient oracle over a quadratic on the unit cube,
    with its own round meter.  Its partials are closed-form, so they
    cost no F-queries."""

    def __init__(self, instance):
        _require_quadratic(instance)
        self.instance = instance
        self.rounds_meter = OracleAccounting()

    @property
    def n(self):
        return self.instance.n

    def _answer(self, pts, grads, values):
        self.rounds_meter.charge(pts.shape[0])
        if not grads:
            return self.instance.value_batch(pts)
        g = self.instance.gradient_batch(pts)
        return (g, self.instance.value_batch(pts)) if values else g


def rescale_to_cube(instance, box):
    """Reduce a quadratic on a box to a quadratic on the unit cube.

    Returns (cube_instance, active): active lists the coordinates with
    genuine freedom, and cube_instance is the quadratic over them, or
    None when every coordinate is pinned.  A cube point z over the
    active coordinates maps back to the box as box.embed(z') with z'
    equal to z on active and 0 elsewhere.
    """
    _require_quadratic(instance)
    if box.n != instance.n:
        raise InvalidInstance(f"box has {box.n} coordinates, the instance n={instance.n}")
    a = box.lower
    d = box.width
    active = np.flatnonzero(d > 0)
    if active.size == 0:
        return None, active
    h_full = d * (instance.h + instance.H @ a)
    cube = MultilinearQuadraticInstance(
        n=int(active.size),
        c=float(instance.value(a)),
        h=h_full[active],
        H=(instance.H * np.outer(d, d))[np.ix_(active, active)],
    )
    return cube, active


@dataclass
class DRRunResult:
    x: np.ndarray
    value: float
    iterations: int
    tau: float
    oracle: object        # its meters are the run's
    core: object = None


def run_dr(instance, epsilon, box=None):
    """Run the continuous driver on a quadratic over a box (default the
    unit cube).

    The box is rescaled to the unit cube over its unpinned coordinates,
    the core runs there, and box.embed maps the fractional final iterate
    back: that point, in the original box coordinates, is the answer,
    returned with its objective value.

    A box that pins every coordinate leaves nothing to optimize: the
    pinned point is the answer, and the returned oracle was never
    queried, so every meter reads 0.
    """
    check_epsilon(epsilon)
    n = instance.n
    if box is None:
        box = BoxDomain(np.zeros(n), np.ones(n))
    cube, active = rescale_to_cube(instance, box)
    oracle = QuadraticContinuousOracle(instance if cube is None else cube)
    core = None if cube is None else run_core(oracle, epsilon)
    z = np.zeros(n)
    if core is not None:
        z[active] = core.x
    x = box.embed(z)
    value = float(instance.value(x))
    return DRRunResult(x=x, value=value, iterations=core.iterations if core else 0,
                       tau=core.tau if core else value, oracle=oracle, core=core)


_GRID_RESOLUTION = 9      # grid points per coordinate and pass
_GRID_REFINEMENTS = 3     # passes, each around the best point so far


def grid_search_optimum(value_batch_fn, n, lower=None, upper=None):
    """Dense coordinate-grid maximization with window refinement.

    Test oracle for small n: evaluates _GRID_RESOLUTION**n points per
    pass, then shrinks the window around the best point and repeats.
    Keep n small; the point count is checked to stay under ~5e6 per pass.
    """
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64).copy()
    hi = np.ones(n) if upper is None else np.asarray(upper, dtype=np.float64).copy()
    if not _GRID_RESOLUTION ** n <= 5_000_000:
        raise ParamOutOfRange(f"grid search needs {_GRID_RESOLUTION}**n <= 5e6, got n={n}")
    best_x, best_v = lo.copy(), -np.inf
    for _ in range(_GRID_REFINEMENTS):
        axes = [np.linspace(lo[u], hi[u], _GRID_RESOLUTION) for u in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = value_batch_fn(pts)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = pts[j].copy()
        pad = (hi - lo) / (_GRID_RESOLUTION - 1)
        lo = np.maximum(lo, best_x - pad)
        hi = np.minimum(hi, best_x + pad)
    return best_x, best_v
