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
from typing import Sequence

import numpy as np

__all__ = ["entropy"]


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


def entropy(weights: Sequence[float], total: float) -> float:
    """Shannon entropy in bits of ``weights`` normalized by ``total``.

    ``weights`` must be nonnegative and sum to ``total`` within a relative
    tolerance of 1e-9.  Zero weights contribute nothing (0 lg 0 = 0).

    Raises:
        ValueError: nonpositive total, negative weight, or sum mismatch.
    """
    if total <= 0.0:
        raise ValueError(f"total must be positive, got {total!r}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size and float(w.min()) < 0.0:
        raise ValueError("weights must be nonnegative")
    s = float(w.sum())
    if abs(s - total) > 1e-9 * max(abs(total), abs(s)):
        raise ValueError(f"weights sum to {s!r}, expected total {total!r}")
    return float(_terms(w, total).sum())
