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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PseudoEntropy",
    "entropy",
    "node_pseudo_entropy",
    "pseudo_to_entropy",
]

#: relative tolerance used when validating that weights sum to the stated total
SUM_REL_TOL = 1e-9


@dataclass(frozen=True)
class PseudoEntropy:
    """Entropy-like contribution normalized by a fixed reference total.

    ``value`` is ``-(w/total) * lg(w/total)`` summed over the node weights
    it covers; contributions with the same ``total`` add.
    """

    value: float
    total: float


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
    if abs(s - total) > SUM_REL_TOL * max(abs(total), abs(s)):
        raise ValueError(f"weights sum to {s!r}, expected total {total!r}")
    return float(_terms(w, total).sum())


def node_pseudo_entropy(weight: float, total: float) -> PseudoEntropy:
    """Pseudo-entropy contribution of a single node of the given weight.

    Raises:
        ValueError: nonpositive total, weight < 0, or weight > total.
    """
    if total <= 0.0:
        raise ValueError(f"total must be positive, got {total!r}")
    if weight < 0.0:
        raise ValueError("weight must be nonnegative")
    if weight > total:
        raise ValueError(f"weight {weight!r} exceeds reference total {total!r}")
    return PseudoEntropy(_term(weight, total), total)


def pseudo_to_entropy(p: PseudoEntropy, total: float, subtree_total: float) -> float:
    """Convert a subtree's pseudo-entropy into its ordinary entropy.

    ``total`` is the reference total the pseudo-entropy was computed
    against and ``subtree_total`` is the weight of the subtree itself.
    When the two coincide the value is returned unchanged.

    Raises:
        ValueError: nonpositive ``subtree_total`` or ``subtree_total > total``.
    """
    if subtree_total <= 0.0:
        raise ValueError(f"subtree total must be positive, got {subtree_total!r}")
    if subtree_total > total:
        raise ValueError("subtree total exceeds the reference total")
    if subtree_total == total:
        return p.value
    ratio = total / subtree_total
    return ratio * p.value - math.log2(ratio)
