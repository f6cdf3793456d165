"""Exact expectation of the discrete update's G estimator, by enumeration.

A test oracle: tests compare the driver's Monte-Carlo estimates with it.
"""

import numpy as np


def expected_update_gain(instance, X, Y, r, delta):
    """Exact expectation the update's G estimator targets (test oracle).

    Enumerates the supports of both random draws; by linearity each
    undecided u only needs the marginal distribution of its own draw.
    Requires |Y \\ X| small enough to enumerate (2^k supports).
    """
    idx = np.flatnonzero(Y & ~X)
    k = idx.size
    assert k <= 12
    n = instance.n
    total = 0.0
    for side in ("x", "y"):
        probs = delta * r[idx] if side == "x" else delta * (1.0 - r[idx])
        for j, u in enumerate(idx):
            acc = 0.0
            for mask in range(1 << k):
                p = 1.0
                members = X.copy() if side == "x" else Y.copy()
                for t in range(k):
                    if mask >> t & 1:
                        p *= probs[t]
                        if side == "x":
                            members[idx[t]] = True
                        else:
                            members[idx[t]] = False
                    else:
                        p *= 1.0 - probs[t]
                if p == 0.0:
                    continue
                plus, minus = members.copy(), members.copy()
                plus[u] = True
                minus[u] = False
                fp, fm = instance.evaluate_batch(np.stack([plus, minus]))
                acc += p * (fp - fm)
            if side == "x":
                total += r[idx][j] * acc
            else:
                total -= (1.0 - r[idx][j]) * acc
    return total
