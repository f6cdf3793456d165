"""Reference algorithms: double greedy, random half, brute force.

Double greedy is the classic sequential 1/2-approximation: two evolving
solutions, one growing from the empty set and one shrinking from the
ground set, meeting after a single pass.  Its adaptivity is n by
construction (one 4-query batch per element), which is exactly what the
benchmark sweep contrasts against the constant-round driver.
"""

import numpy as np

from .oracles import all_subsets_matrix


BRUTE_LIMIT = 24     # largest n brute force enumerates


class TooLarge(ValueError):
    pass


def double_greedy(set_oracle, randomized=True, rng=None):
    """Single pass over elements with growing X and shrinking Y.

    Per element: a = gain of adding u to X, b = gain of dropping u from
    Y.  The randomized variant keeps u with probability a+/(a+ + b+)
    (keep when both clamp to zero); the deterministic variant keeps u
    iff a >= b.  Returns the final membership vector.
    """
    n = set_oracle.n
    if randomized and rng is None:
        rng = np.random.default_rng(0)
    X = np.zeros(n, dtype=bool)
    Y = np.ones(n, dtype=bool)
    for u in range(n):
        # a base per element: X and Y always differ, so the shared
        # shape's search for repeated bases would find none
        g = set_oracle.eval_gains(np.stack([X, Y])[:, None], [u])[:, 0]
        a, b = g[0], -g[1]
        if randomized:
            ap, bp = max(a, 0.0), max(b, 0.0)
            keep = True if ap + bp == 0.0 else rng.random() < ap / (ap + bp)
        else:
            keep = a >= b
        if keep:
            X[u] = True
        else:
            Y[u] = False
    return X


def random_half(set_oracle, rng=None):
    """Uniformly random subset: every element kept with probability 1/2."""
    if rng is None:
        rng = np.random.default_rng(0)
    return rng.random(set_oracle.n) < 0.5


def brute_force(set_oracle):
    """Exact maximizer by exhaustive enumeration, one giant batch.

    Ties break toward the subset with the smallest characteristic
    bitmask (element u = bit u), so {0} beats {1} beats {0,1}.
    """
    n = set_oracle.n
    if n > BRUTE_LIMIT:
        raise TooLarge(f"brute force limited to n <= {BRUTE_LIMIT}, got {n}")
    members = all_subsets_matrix(n)
    vals = set_oracle.eval_batch(members)
    best = int(np.argmax(vals))        # argmax returns the first (lowest mask)
    return members[best].copy(), float(vals[best])

