"""Associativity-stable reductions and log-domain weight arithmetic.

Floating-point addition is not associative, so the grouping of a sum must
be pinned down before results can be reproduced across different worker
counts.  Everything here folds values over a fixed balanced binary tree:
a worker reduces its local block with `tree_sum`, the communicator merges
the per-rank roots in the same pairwise order, and the combined expression
tree is identical no matter how the block is partitioned.  Prefix sums use
the matching up-sweep/down-sweep so that scan results are reproducible too.
"""

from __future__ import annotations

import numpy as np


def _require_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def tree_sum(values: np.ndarray) -> np.ndarray:
    """Sum along axis 0 by folding adjacent pairs until one row remains.

    The length must be a power of two.  Returns a scalar for 1-D input and
    a row for 2-D input.
    """
    a = np.asarray(values)
    _require_power_of_two(a.shape[0])
    while a.shape[0] > 1:
        a = a[0::2] + a[1::2]
    return a[0]


def tree_layers(values: np.ndarray) -> list[np.ndarray]:
    """All levels of the pairwise summation tree, leaves first.

    layers[0] is the input, layers[-1] has a single entry (the root).
    """
    a = np.asarray(values)
    _require_power_of_two(a.shape[0])
    layers = [a]
    while a.shape[0] > 1:
        a = a[0::2] + a[1::2]
        layers.append(a)
    return layers


def tree_exclusive_scan(layers: list[np.ndarray], carry) -> np.ndarray:
    """Exclusive prefix sums for the leaves of a summation tree.

    `layers` comes from `tree_layers`; `carry` is the prefix of everything
    to the left of this block.  Descends the tree accumulating left-sibling
    subtree sums, which reproduces the exact addition order a single-block
    scan would use with the same carry.
    """
    leaves = layers[0]
    prefix = np.asarray(carry, dtype=leaves.dtype).reshape(1)
    for layer in reversed(layers[:-1]):
        widened = np.empty(2 * prefix.shape[0], dtype=prefix.dtype)
        widened[0::2] = prefix
        widened[1::2] = prefix + layer[0::2]
        prefix = widened
    return prefix


def log_sum_exp(log_values: np.ndarray) -> float:
    """Max-shifted log of a sum of exponentials; -inf for an all--inf input."""
    a = np.asarray(log_values, dtype=float)
    if a.size == 0:
        return float("-inf")
    m = np.max(a)
    if not np.isfinite(m):
        # All -inf (empty sum) stays -inf; a +inf or nan propagates.
        if m == float("-inf"):
            return float("-inf")
        return float(m)
    with np.errstate(invalid="ignore"):
        return float(m + np.log(np.sum(np.exp(a - m))))

