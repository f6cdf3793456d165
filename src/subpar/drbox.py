"""Box-constrained maximization of smooth diminishing-returns objectives.

The continuous driver in continuous.py reads only its oracle's batched
protocol (n / value_batch / gradient_batch / grad_and_value_batch /
rounds_meter), so the same code path runs unchanged here: a
MultilinearOracle in direct mode answers the protocol with the
objective's closed-form values and gradients, charged as the points
asked for, and the fractional iterate itself is the output — no
rounding step.  Exact `continuous` reads the same closed form, priced
as a set oracle's power set.

A quadratic owns its box: construction rescales it to the unit cube
over the unpinned coordinates and checks it there, once (see
MultilinearQuadraticInstance).  The run reads that `cube` and maps its
answer back to the box.  The cube instance still has a zero diagonal,
so it is multilinear and its maximum sits on a cube vertex, which brute
force finds: that is the exact optimum over the box.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import brute_force
from .continuous import check_epsilon, run_core
from .instances import InvalidInstance
from .multilinear import MultilinearOracle
from .oracles import SetOracle


@dataclass
class DRRunResult:
    x: np.ndarray
    value: float
    iterations: int
    tau: float
    oracle: object        # its meters are the run's
    core: object = None


def _quadratic(instance):
    if instance.kind != "quadratic":
        raise InvalidInstance(f"expected a quadratic instance, got "
                              f"{type(instance).__name__}")
    return instance


def run_dr(instance, epsilon):
    """Run the continuous driver on a quadratic over its box.

    The core runs on the instance's unit-cube `cube`, and the box maps
    the fractional final iterate back: that point, in the original box
    coordinates, is the answer, returned with its objective value.  The
    core runs on a MultilinearOracle in direct mode, whose meters are
    the run's.

    A box that pins every coordinate leaves nothing to optimize: the
    pinned point is the answer, and the returned oracle was never
    queried, so every meter reads 0.
    """
    check_epsilon(epsilon)
    cube = _quadratic(instance).cube
    oracle = MultilinearOracle(SetOracle(instance if cube is None else cube),
                               mode="direct")
    core = None if cube is None else run_core(oracle, epsilon)
    x = np.zeros(instance.n)
    if core is not None:
        x[instance.active] = core.x
    if instance.box is not None:
        x = instance.box.embed(x)
    value = float(instance.value_batch(x)[0])
    return DRRunResult(x=x, value=value, iterations=core.iterations if core else 0,
                       tau=core.tau if core else value, oracle=oracle, core=core)


def box_optimum(instance):
    """The exact maximum of a quadratic over its box.

    F has a zero-diagonal H, so along any one coordinate it is affine:
    moving x_u to whichever bound does not lower F never lowers it, and
    doing so for every coordinate in turn reaches a vertex of the box
    at least as good as any point in it.  The cube instance keeps the
    zero diagonal, so the maximum is brute force over its 2^n vertices
    (n <= BRUTE_LIMIT; TooLarge beyond).  A box that pins every
    coordinate has one point, whose value is the optimum.
    """
    cube = _quadratic(instance).cube
    if cube is None:
        return float(instance.value_batch(instance.box.lower)[0])
    return brute_force(SetOracle(cube))[1]
