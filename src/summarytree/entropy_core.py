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

Two logarithms are in use, and their last bits differ on some inputs.
The DP's fresh "absorb everything so far" entries take ``math.log2``
(:func:`_term`, and :func:`_fresh_terms` for arrays of them), while the
per-node terms ``pw`` and ``ps`` take ``np.log2`` (:func:`_terms`).
Tables, tie-breaks and output bytes rest on those exact bits, so neither
side may switch to the other's logarithm.
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


def _fresh_terms(weights: np.ndarray, total: float) -> np.ndarray:
    """:func:`_term` of every entry of a float64 array, with the same bits."""
    p = weights / total
    # math.log2 over a flat list; p <= 0 takes lg 1 = 0, so its term is 0.
    lg = np.fromiter(map(math.log2, np.where(p > 0.0, p, 1.0).ravel().tolist()), np.float64, p.size)
    return -p * lg.reshape(p.shape) + 0.0


def _terms(weights: np.ndarray, total: float) -> np.ndarray:
    """Vectorized ``-p lg p`` terms; zero weights contribute exactly 0."""
    p = np.asarray(weights, dtype=np.float64) / total
    out = np.zeros_like(p)
    mask = p > 0.0
    pm = p[mask]
    out[mask] = -pm * np.log2(pm) + 0.0
    return out
