"""Box-constrained maximization of smooth diminishing-returns objectives.

The continuous driver in continuous.py only sees the ContinuousOracle
protocol of multilinear.py (value_batch / gradient_batch /
grad_and_value_batch / rounds_meter), so the same code path runs
unchanged here: the box [a, b] is rescaled to the unit cube, a
MultilinearOracle in direct mode answers the protocol with the
objective's closed-form values and gradients, charged as the points
asked for, and the fractional iterate itself is the output — no
rounding step.  Exact `continuous` reads the same closed form, priced
as a set oracle's power set.

For the quadratic family the rescaling is exact and stays in the
family:  with D = diag(b - a),

    G(z) = F(a + Dz) = F(a) + (D(h + Ha)) . z + 1/2 z' (DHD) z.

Coordinates with a_u = b_u carry no freedom and are eliminated before
the run; the returned point re-embeds them at their pinned value.

The same rescaling gives the exact optimum over the box: the cube
instance still has a zero diagonal, so it is multilinear and its
maximum sits on a cube vertex, which brute force finds.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import brute_force
from .continuous import check_epsilon, run_core
from .instances import (NEGATIVE_TOL, BoxDomain, InvalidInstance,
                        MultilinearQuadraticInstance, NonNegativityViolation)
from .multilinear import MultilinearOracle
from .oracles import SetOracle


def rescale_to_cube(instance, box):
    """Reduce a quadratic on a box to a quadratic on the unit cube.

    Returns (cube_instance, active): active lists the coordinates with
    genuine freedom, and cube_instance is the quadratic over them, or
    None when every coordinate is pinned.  A cube point z over the
    active coordinates maps back to the box as box.embed(z') with z'
    equal to z on active and 0 elsewhere.

    Either way the objective is checked non-negative on the box: the
    cube instance is built with the construction check, and a pinned
    point's value must not dip below the same tolerance, or
    NonNegativityViolation is raised.
    """
    if instance.kind != "quadratic":
        raise InvalidInstance(f"expected a quadratic instance, got "
                              f"{type(instance).__name__}")
    if box.n != instance.n:
        raise InvalidInstance(f"box has {box.n} coordinates, the instance n={instance.n}")
    a = box.lower
    d = box.width
    active = np.flatnonzero(d > 0)
    fa = float(instance.value_batch(a)[0])
    if active.size == 0:
        if fa < -NEGATIVE_TOL:
            raise NonNegativityViolation(f"quadratic is negative at the pinned "
                                         f"point (value {fa:g})")
        return None, active
    h_full = d * (instance.h + instance.H @ a)
    cube = MultilinearQuadraticInstance(
        n=int(active.size),
        c=fa,
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


def _reduce(instance, box, reduced):
    """(box, cube, active): the box, default the unit cube, and
    rescale_to_cube's answer for it, made and checked here unless the
    caller hands it on as `reduced`."""
    if box is None:
        box = BoxDomain(np.zeros(instance.n), np.ones(instance.n))
    if reduced is None:
        reduced = rescale_to_cube(instance, box)
    return box, *reduced


def run_dr(instance, epsilon, box=None, reduced=None):
    """Run the continuous driver on a quadratic over a box (default the
    unit cube).

    The box is rescaled to the unit cube over its unpinned coordinates,
    the core runs there, and box.embed maps the fractional final iterate
    back: that point, in the original box coordinates, is the answer,
    returned with its objective value.  A caller that has already made
    (and so checked) rescale_to_cube(instance, box) hands it on as
    `reduced`, and the box is not checked again.  The core runs on a
    MultilinearOracle in direct mode, whose meters are the run's.

    A box that pins every coordinate leaves nothing to optimize: the
    pinned point is the answer, and the returned oracle was never
    queried, so every meter reads 0.
    """
    check_epsilon(epsilon)
    n = instance.n
    box, cube, active = _reduce(instance, box, reduced)
    oracle = MultilinearOracle(SetOracle(instance if cube is None else cube),
                               mode="direct")
    core = None if cube is None else run_core(oracle, epsilon)
    z = np.zeros(n)
    if core is not None:
        z[active] = core.x
    x = box.embed(z)
    value = float(instance.value_batch(x)[0])
    return DRRunResult(x=x, value=value, iterations=core.iterations if core else 0,
                       tau=core.tau if core else value, oracle=oracle, core=core)


def box_optimum(instance, box=None, reduced=None):
    """The exact maximum of a quadratic over a box (default the unit cube).

    F has a zero-diagonal H, so along any one coordinate it is affine:
    moving x_u to whichever bound does not lower F never lowers it, and
    doing so for every coordinate in turn reaches a vertex of the box
    at least as good as any point in it.  The rescaled cube instance
    keeps the zero diagonal, so the maximum is brute force over its
    2^n vertices (n <= BRUTE_LIMIT; TooLarge beyond).  A box that pins
    every coordinate has one point, whose value is the optimum.
    `reduced` is as for run_dr.
    """
    box, cube, _ = _reduce(instance, box, reduced)
    if cube is None:
        return float(instance.value_batch(box.lower)[0])
    return brute_force(SetOracle(cube))[1]
