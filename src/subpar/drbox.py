"""Box-constrained maximization of smooth diminishing-returns objectives.

The continuous driver in continuous.py only sees an oracle protocol
(value_batch / gradient_batch / grad_and_value_batch / rounds_meter),
so the same code path runs unchanged here: the box [a, b] is rescaled
to the unit cube, the objective's closed-form gradient replaces the
extension estimator, and the fractional iterate itself is the output —
no rounding step.

For the quadratic family the rescaling is exact and stays in the
family:  with D = diag(b - a),

    G(z) = F(a + Dz) = F(a) + (D(h + Ha)) . z + 1/2 z' (DHD) z.

Coordinates with a_u = b_u carry no freedom and are eliminated before
the run; the returned point re-embeds them at their pinned value.
"""

from dataclasses import dataclass

import numpy as np

from .continuous import ParamOutOfRange, check_epsilon, run_core
from .instances import InvalidInstance, MultilinearQuadraticInstance, OutOfBox
from .multilinear import as_points
from .oracles import OracleAccounting


@dataclass
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise InvalidInstance(f"box needs two vectors of one length, got shapes "
                                  f"{self.lower.shape} and {self.upper.shape}")
        if not (self.lower <= self.upper).all():
            raise OutOfBox("box needs lower <= upper in every coordinate")

    @property
    def n(self):
        return self.lower.size

    @property
    def width(self):
        return self.upper - self.lower

    def embed(self, z):
        """Map a unit-cube point to box coordinates."""
        return self.lower + self.width * np.asarray(z, dtype=np.float64)


def _require_quadratic(instance):
    if not isinstance(instance, MultilinearQuadraticInstance):
        raise InvalidInstance(f"expected a quadratic instance, got "
                              f"{type(instance).__name__}")


class QuadraticContinuousOracle:
    """Direct value/gradient oracle over a quadratic on the unit cube.

    Speaks the same batched protocol as the extension estimator, with
    its own round meter: every batch is checked by as_points and then
    is one adaptive round, value queries count one per point, gradient
    queries n per point.
    """

    def __init__(self, instance):
        _require_quadratic(instance)
        self.instance = instance
        self.rounds_meter = OracleAccounting()
        self.F_queries = 0
        self.grad_queries = 0

    @property
    def n(self):
        return self.instance.n

    @property
    def f_queries(self):
        return 0   # no set oracle behind this one

    def value_batch(self, points):
        pts = as_points(points, self.n)
        self.rounds_meter.charge(pts.shape[0])
        self.F_queries += pts.shape[0]
        return self.instance.value_batch(pts)

    def gradient_batch(self, points):
        pts = as_points(points, self.n)
        self.rounds_meter.charge(pts.shape[0])
        self.grad_queries += self.n * pts.shape[0]
        return self.instance.gradient_batch(pts)

    def grad_and_value_batch(self, points):
        pts = as_points(points, self.n)
        self.rounds_meter.charge(pts.shape[0])
        self.F_queries += pts.shape[0]
        self.grad_queries += self.n * pts.shape[0]
        return self.instance.gradient_batch(pts), self.instance.value_batch(pts)


def rescale_to_cube(instance, box):
    """Reduce a quadratic on a box to a quadratic on the unit cube.

    Returns (cube_instance, active, embed) where active lists the
    coordinates with genuine freedom and embed maps a cube point over
    the active coordinates back to a full-dimensional box point.
    Returns cube_instance = None when every coordinate is pinned.
    """
    _require_quadratic(instance)
    if box.n != instance.n:
        raise InvalidInstance(f"box has {box.n} coordinates, the instance n={instance.n}")
    a = box.lower
    d = box.width
    active = np.flatnonzero(d > 0)
    c_new = float(instance.value(a))
    h_full = d * (instance.h + instance.H @ a)
    H_full = instance.H * np.outer(d, d)

    def embed(z_active):
        x = a.copy()
        x[active] = a[active] + d[active] * np.asarray(z_active, dtype=np.float64)
        return x

    if active.size == 0:
        return None, active, embed
    cube = MultilinearQuadraticInstance(
        n=int(active.size),
        c=c_new,
        h=h_full[active],
        H=H_full[np.ix_(active, active)],
    )
    return cube, active, embed


@dataclass
class DRRunResult:
    x: np.ndarray
    value: float
    iterations: int
    tau: float
    oracle: object        # its meters are the run's
    core: object = None


def run_dr(instance, epsilon, box=None, oracle=None):
    """Run the continuous driver on a quadratic over a box.

    The fractional final iterate is the answer; it is returned in the
    original box coordinates together with its objective value.

    Passing a pre-built oracle skips the box/rescale machinery and
    drives the core on it directly — useful for checking that two
    entry points produce the same trajectory on the same oracle.

    A box that pins every coordinate leaves nothing to optimize: the
    pinned point is the answer, and the returned oracle was never
    queried, so every meter reads 0.
    """
    check_epsilon(epsilon)
    if oracle is not None:
        core = run_core(oracle, epsilon)
        return DRRunResult(x=core.x, value=core.value,
                           iterations=core.iterations, tau=core.tau,
                           oracle=oracle, core=core)
    if box is None:
        box = BoxDomain(np.zeros(instance.n), np.ones(instance.n))
    cube, active, embed = rescale_to_cube(instance, box)
    if cube is None:
        x = embed(np.zeros(0))
        return DRRunResult(x=x, value=float(instance.value(x)), iterations=0,
                           tau=float(instance.value(x)),
                           oracle=QuadraticContinuousOracle(instance))
    oracle = QuadraticContinuousOracle(cube)
    core = run_core(oracle, epsilon)
    x = embed(core.x)
    return DRRunResult(x=x, value=float(instance.value(x)),
                       iterations=core.iterations, tau=core.tau, oracle=oracle,
                       core=core)


def grid_search_optimum(value_batch_fn, n, lower=None, upper=None,
                        resolution=9, refinements=3):
    """Dense coordinate-grid maximization with window refinement.

    Test oracle for small n: evaluates resolution**n points per pass,
    then shrinks the window around the best point and repeats.  Keep
    n small; the point count is checked to stay under ~5e6 per pass.
    """
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64).copy()
    hi = np.ones(n) if upper is None else np.asarray(upper, dtype=np.float64).copy()
    if not (resolution >= 3 and resolution ** n <= 5_000_000):
        raise ParamOutOfRange(f"grid search needs resolution >= 3 and resolution**n "
                              f"<= 5e6, got resolution={resolution}, n={n}")
    best_x, best_v = lo.copy(), -np.inf
    for _ in range(refinements):
        axes = [np.linspace(lo[u], hi[u], resolution) for u in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = value_batch_fn(pts)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v = float(vals[j])
            best_x = pts[j].copy()
        pad = (hi - lo) / (resolution - 1)
        lo = np.maximum(lo, best_x - pad)
        hi = np.minimum(hi, best_x + pad)
    return best_x, best_v
