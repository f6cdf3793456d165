"""subpar: submodular maximization with batched oracles and
adaptive-round accounting.

The package provides:
  - instrumented set/extension oracles that count queries and adaptive
    rounds (one batch = one round); the one extension oracle prices a
    round as set queries (exact, sampled) or as its points (direct),
  - a continuous double-auction driver over the multilinear extension
    with constant adaptivity in the ground-set size,
  - a sampling-only discrete variant of the same driver,
  - box-constrained maximization of smooth diminishing-returns
    quadratics through the identical core loop,
  - baselines (double greedy, random half, brute force) and an
    invariant-verification suite.
"""

__version__ = "0.1.0"

from .baselines import TooLarge, brute_force, double_greedy, random_half
from .continuous import (ContinuousState, ParamOutOfRange, StateInvariantViolation,
                         run_continuous, run_core)
from .discrete import DiscreteParams, run_discrete
from .drbox import box_optimum, run_dr
from .instances import (BoxDomain, CoverageInstance, CutInstance, InvalidInstance,
                        MultilinearQuadraticInstance, NonNegativityViolation, OutOfBox,
                        UnreadableInstance, dump_instance, generate_random_instance,
                        load_instance)
from .multilinear import ExactTooLarge, MultilinearOracle, lovasz_value, sample_set
from .oracles import InvalidElement, NonFiniteValue, OracleAccounting, SetOracle, ids_of
from .reports import DiscreteIterationTrace, IterationTrace, RunReport
from .verify import Finding, run_verify

__all__ = [
    "__version__",
    "BoxDomain", "ContinuousState", "CoverageInstance", "CutInstance",
    "DiscreteIterationTrace", "DiscreteParams", "ExactTooLarge", "Finding",
    "InvalidElement", "InvalidInstance", "IterationTrace", "MultilinearOracle",
    "MultilinearQuadraticInstance", "NonFiniteValue", "NonNegativityViolation",
    "OracleAccounting", "OutOfBox", "ParamOutOfRange", "RunReport", "SetOracle",
    "StateInvariantViolation", "TooLarge", "UnreadableInstance",
    "box_optimum", "brute_force", "double_greedy", "dump_instance",
    "generate_random_instance", "ids_of", "load_instance", "lovasz_value",
    "random_half", "run_continuous", "run_core", "run_discrete", "run_dr",
    "run_verify", "sample_set",
]
