"""Entropy and pseudo-entropy arithmetic shared by all solvers.

All logarithms are base 2 and all values are reported in bits.  The
pseudo-entropy of a collection of node weights is the entropy-like sum
taken against a fixed *global* total instead of the local subtree total.
It is additive across disjoint node sets with the same reference total,
and over summary trees of a fixed subtree it is maximized by exactly the
trees that maximize the ordinary entropy, which is what makes the
dynamic programs compositional.

For a subtree of weight ``W_v`` inside a tree of total weight ``W``, the
two quantities are related by the affine identity

    entropy = (W / W_v) * pseudo_entropy - lg(W / W_v)
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []


def _term(weight: float, total: float) -> float:
    """Single ``-p lg p`` term with the convention 0 lg 0 = 0."""
    if weight <= 0.0:
        return 0.0
    p = weight / total
    if p <= 0.0:  # subnormal weights can underflow to zero
        return 0.0
    return -p * math.log2(p) + 0.0  # + 0.0 normalizes -0.0 at p == 1


def _terms(weights: np.ndarray, total: float) -> np.ndarray:
    """Vectorized ``-p lg p`` terms; zero weights contribute exactly 0."""
    p = np.asarray(weights, dtype=np.float64) / total
    out = np.zeros_like(p)
    mask = p > 0.0
    pm = p[mask]
    out[mask] = -pm * np.log2(pm) + 0.0
    return out
