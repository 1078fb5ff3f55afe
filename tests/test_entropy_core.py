import math
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from summarytree import entropy
from summarytree.entropy_core import _term


# Reference pseudo-entropy arithmetic.  The solvers only use the scalar
# term ``-p lg p`` against the whole tree's total; these helpers state the
# identities that make that compositional, so the tests below can check them.


@dataclass(frozen=True)
class PseudoEntropy:
    """Sum of ``-(w/total) lg(w/total)`` over some node weights, with its total."""

    value: float
    total: float


def node_pseudo_entropy(weight: float, total: float) -> PseudoEntropy:
    """Pseudo-entropy contribution of one node of the given weight."""
    if total <= 0.0:
        raise ValueError(f"total must be positive, got {total!r}")
    if weight < 0.0:
        raise ValueError("weight must be nonnegative")
    if weight > total:
        raise ValueError(f"weight {weight!r} exceeds reference total {total!r}")
    p = weight / total
    return PseudoEntropy(-p * math.log2(p) + 0.0 if p > 0.0 else 0.0, total)


def pseudo_to_entropy(p: PseudoEntropy, total: float, subtree_total: float) -> float:
    """Entropy of a subtree from its pseudo-entropy: the affine identity."""
    if subtree_total <= 0.0:
        raise ValueError(f"subtree total must be positive, got {subtree_total!r}")
    if subtree_total > total:
        raise ValueError("subtree total exceeds the reference total")
    if subtree_total == total:
        return p.value
    ratio = total / subtree_total
    return ratio * p.value - math.log2(ratio)


H_1_3 = 0.8112781244591328  # 0.25*lg4 + 0.75*lg(4/3), checked against the oracle


class TestEntropy:
    def test_uniform(self):
        assert entropy([1, 1, 1, 1], 4) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy([4], 4) == 0.0

    def test_quarter_split(self):
        assert entropy([1, 3], 4) == pytest.approx(H_1_3, rel=1e-12)

    def test_zero_weights_drop_out(self):
        assert entropy([0, 2, 0, 2], 4) == pytest.approx(1.0, abs=1e-12)

    def test_total_must_be_positive(self):
        with pytest.raises(ValueError):
            entropy([1], 0)
        with pytest.raises(ValueError):
            entropy([1], -3)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            entropy([1, 1], 4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            entropy([-1, 5], 4)


class TestNodePseudoEntropy:
    @pytest.mark.parametrize(
        "weight,total,expected",
        [(0, 10, 0.0), (10, 10, 0.0), (2, 8, 0.5)],
    )
    def test_values(self, weight, total, expected):
        assert node_pseudo_entropy(weight, total).value == pytest.approx(expected, abs=1e-12)

    def test_weight_above_total_rejected(self):
        with pytest.raises(ValueError):
            node_pseudo_entropy(11, 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            node_pseudo_entropy(-1, 10)


class TestPseudoToEntropy:
    def test_identity_at_full_total(self):
        assert pseudo_to_entropy(PseudoEntropy(1.0, 4), 4, 4) == 1.0
        assert pseudo_to_entropy(PseudoEntropy(0.0, 4), 4, 4) == 0.0

    def test_affine_identity_on_half_tree(self):
        # parts (1, 1) of a 4-unit total: pseudo 2 * 0.25*lg4 = 1.0,
        # subtree total 2 -> entropy 2*1.0 - lg2 = 1.0 = entropy([1,1], 2)
        p = PseudoEntropy(
            node_pseudo_entropy(1, 4).value + node_pseudo_entropy(1, 4).value, 4
        )
        out = pseudo_to_entropy(p, 4, 2)
        assert out == pytest.approx(entropy([1, 1], 2), rel=1e-12)

    def test_bad_subtree_total(self):
        with pytest.raises(ValueError):
            pseudo_to_entropy(PseudoEntropy(0.5, 4), 4, 0)
        with pytest.raises(ValueError):
            pseudo_to_entropy(PseudoEntropy(0.5, 4), 4, 5)


positive_weight_lists = st.lists(
    st.floats(0, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
).filter(lambda ws: sum(ws) > 1e-6)


@given(positive_weight_lists, positive_weight_lists)
def test_pseudo_entropy_additive(ws_a, ws_b):
    total = sum(ws_a) + sum(ws_b)
    whole = sum(node_pseudo_entropy(w, total).value for w in ws_a + ws_b)
    parts = sum(node_pseudo_entropy(w, total).value for w in ws_a) + sum(
        node_pseudo_entropy(w, total).value for w in ws_b
    )
    assert whole == pytest.approx(parts, abs=1e-12)


@given(positive_weight_lists, st.floats(1.0, 1e6))
def test_pseudo_entropy_consistent_with_entropy(ws, extra):
    """Converting the summed pseudo-entropy reproduces the plain entropy."""
    subtree_total = sum(ws)
    total = subtree_total + extra
    p = PseudoEntropy(sum(node_pseudo_entropy(w, total).value for w in ws), total)
    got = pseudo_to_entropy(p, total, subtree_total)
    want = entropy(ws, subtree_total)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(positive_weight_lists, st.floats(1.0, 1e6))
def test_dp_term_is_the_reference_pseudo_entropy(ws, extra):
    """The scalar term the DP adds up is the reference single-node pseudo-entropy."""
    total = sum(ws) + extra
    for w in ws:
        assert _term(w, total) == node_pseudo_entropy(w, total).value


@given(
    positive_weight_lists,
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
)
def test_splitting_never_decreases_entropy(ws, a, b):
    merged = ws + [a + b]
    split = ws + [a, b]
    total = sum(split)
    if total <= 0:
        return
    assert entropy(merged, total) <= entropy(split, total) + 1e-9


def test_argmax_invariance_on_enumerated_candidates():
    """Pseudo-entropy and entropy rank candidate summaries identically."""
    from summarytree import enumerate_all
    from tests.conftest import make_tree

    # Subtree rooted at 'x' inside a larger tree of total weight 12.
    sub = make_tree([("x", None, 1), ("a", "x", 2), ("b", "x", 3), ("c", "a", 1)])
    W_sub = sub.W
    W_full = 12.0
    for k in range(1, 5):
        cands = [[nd.weight for nd in t.nodes] for t in enumerate_all(sub, k)]
        ents = [entropy(ws, W_sub) for ws in cands]
        pseudos = [
            sum(node_pseudo_entropy(w, W_full).value for w in ws) for ws in cands
        ]
        best_e = max(ents)
        best_p = max(pseudos)
        argmax_e = {i for i, e in enumerate(ents) if abs(e - best_e) < 1e-12}
        argmax_p = {i for i, p in enumerate(pseudos) if abs(p - best_p) < 1e-12}
        assert argmax_e == argmax_p
