"""subpar: submodular maximization with batched oracles and
adaptive-round accounting.

The package provides:
  - instrumented set/extension oracles that count queries and adaptive
    rounds (one batch = one round),
  - a continuous double-auction driver over the multilinear extension
    with constant adaptivity in the ground-set size,
  - a sampling-only discrete variant of the same driver,
  - box-constrained maximization of smooth diminishing-returns
    quadratics through the identical core loop,
  - baselines (double greedy, random half, brute force) and an
    invariant-verification suite.
"""

__version__ = "0.1.0"

from .baselines import TooLarge, brute_force, brute_force_ids, double_greedy, random_half
from .continuous import (ContinuousState, ParamOutOfRange, StateInvariantViolation,
                         compute_rates, pre_process, run_continuous, run_core, update)
from .discrete import (DiscreteParams, discrete_preprocess, discrete_update,
                       estimate_tau, finalize, g_estimates, round_step, run_discrete)
from .drbox import (BoxDomain, QuadraticContinuousOracle, grid_search_optimum,
                    rescale_to_cube, run_dr)
from .instances import (CoverageInstance, CutInstance, InvalidInstance,
                        MultilinearQuadraticInstance, NonNegativityViolation, OutOfBox,
                        UnreadableInstance, dump_instance, generate_random_instance,
                        load_instance)
from .multilinear import ExactTooLarge, MultilinearOracle, lovasz_value, sample_set
from .oracles import (InvalidElement, NonFiniteValue, OracleAccounting, SetOracle, ids_of,
                      mask_of)
from .reports import DiscreteIterationTrace, IterationTrace, RunReport
from .verify import Finding, run_verify

__all__ = [
    "__version__",
    "BoxDomain", "ContinuousState", "CoverageInstance", "CutInstance",
    "DiscreteIterationTrace", "DiscreteParams", "ExactTooLarge", "Finding",
    "InvalidElement", "InvalidInstance", "IterationTrace", "MultilinearOracle",
    "MultilinearQuadraticInstance", "NonFiniteValue", "NonNegativityViolation",
    "OracleAccounting", "OutOfBox", "ParamOutOfRange",
    "QuadraticContinuousOracle", "RunReport", "SetOracle",
    "StateInvariantViolation", "TooLarge", "UnreadableInstance",
    "brute_force", "brute_force_ids", "compute_rates", "discrete_preprocess",
    "discrete_update", "double_greedy", "dump_instance", "estimate_tau",
    "finalize", "g_estimates", "generate_random_instance",
    "grid_search_optimum", "ids_of",
    "load_instance", "lovasz_value", "mask_of", "pre_process", "random_half",
    "rescale_to_cube", "round_step", "run_continuous", "run_core",
    "run_discrete", "run_dr", "run_verify", "sample_set", "update",
]
