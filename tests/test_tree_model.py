import json

import numpy as np
import pytest
from hypothesis import given

from summarytree import TreeError, build_tree, canonicalize, from_arrays, read_csv, read_json
from tests.conftest import assert_canonical, deep_json_chain, make_tree, tree_records


class TestBuildTree:
    def test_three_node_star(self):
        t = build_tree([("r", None, 1), ("a", "r", 1), ("b", "r", 1)])
        assert t.n == 3
        assert t.weights.sum() == 3.0

    def test_zero_total_weight_rejected(self):
        with pytest.raises(TreeError, match="total weight"):
            build_tree([("r", None, 0)])

    def test_overflowing_total_weight_rejected(self):
        with pytest.raises(TreeError, match="total weight"):
            build_tree([("r", None, 1e308), ("a", "r", 1e308), ("b", "r", 1e308)])

    def test_cycle_rejected(self):
        with pytest.raises(TreeError, match="cycle|root"):
            build_tree([("a", "b", 1), ("b", "a", 1)])

    def test_cycle_with_root_rejected(self):
        with pytest.raises(TreeError, match="cycle"):
            build_tree([("r", None, 1), ("a", "b", 1), ("b", "a", 1)])

    def test_three_cycle_off_root_rejected(self):
        # 3 is not a power of two, so pointer jumping never settles on it.
        with pytest.raises(TreeError, match="cycle"):
            build_tree([("r", None, 1), ("a", "c", 1), ("b", "a", 1), ("c", "b", 1)])

    def test_duplicate_id_rejected(self):
        with pytest.raises(TreeError, match="duplicate"):
            build_tree([("r", None, 1), ("r", "r", 1)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeError, match="unknown parent"):
            build_tree([("r", None, 1), ("a", "q", 1)])

    def test_multiple_roots_rejected(self):
        with pytest.raises(TreeError, match="multiple roots"):
            build_tree([("r", None, 1), ("s", None, 1)])

    def test_no_root_rejected(self):
        with pytest.raises(TreeError, match="no root"):
            build_tree([("a", "b", 1), ("b", "a", 1), ("c", "a", 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(TreeError, match="negative"):
            build_tree([("r", None, 1), ("a", "r", -2)])

    def test_empty_rejected(self):
        with pytest.raises(TreeError):
            build_tree([])

    @pytest.mark.parametrize(
        "weight", [None, [1], "abc", {}, 10**400, True, np.True_, "2", b"1", np.complex128(1)]
    )
    def test_weight_float_rejects_is_tree_error(self, weight):
        with pytest.raises(TreeError, match=r"weight .* for id 'b' is not a float"):
            build_tree([("r", None, 1), ("a", "r", 2), ("b", "r", weight), ("c", "r", None)])
        with pytest.raises(TreeError, match="id 'r'"):
            build_tree([("r", None, weight)])

    def test_shares_the_weight_check_with_read_json(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"id": "r", "weight": true, "children": [{"id": "a", "weight": "2"}]}')
        with pytest.raises(TreeError) as from_records:
            build_tree([("r", None, True), ("a", "r", "2")])
        with pytest.raises(TreeError) as from_json:
            read_json(p)
        assert str(from_json.value) == str(from_records.value)
        assert str(from_records.value) == "weight True for id 'r' is not a float"

    @pytest.mark.parametrize(
        "records",
        [[(1, None, 1.0), ("a", 1, 2.0)], [("r", None, 1.0), (2, "r", 2.0)], [(["r"], None, 1.0)]],
        ids=["root", "child", "unhashable"],
    )
    def test_id_that_is_not_a_string_rejected(self, records):
        with pytest.raises(TreeError, match="is not a string"):
            build_tree(records)

    @pytest.mark.parametrize("parent", [["r"], {"id": "r"}, 1, b"r"], ids=repr)
    def test_parent_id_that_is_not_a_string_rejected(self, parent):
        with pytest.raises(TreeError, match=r"parent id .* of id 'a' is not a string"):
            build_tree([("r", None, 1), ("b", "r", 1), ("a", parent, 1)])

    def test_parent_id_check_between_duplicates_and_per_node_faults(self):
        with pytest.raises(TreeError, match="duplicate id"):
            build_tree([("r", None, 1), ("r", ["r"], 1)])
        with pytest.raises(TreeError, match="parent id"):
            build_tree([("r", None, -1), ("a", "q", 1), ("b", ["r"], 1)])


class TestFromArrays:
    def test_matches_build_tree(self):
        a = from_arrays([-1, 0, 0, 1], [1.0, 2.0, 0.0, 3.0], ["r", "a", "b", "c"])
        b = build_tree([("r", None, 1), ("a", "r", 2), ("b", "r", 0), ("c", "a", 3)])
        assert a.ids == b.ids and a.root == b.root
        assert np.array_equal(a.parent_idx, b.parent_idx)
        assert np.array_equal(a.weights, b.weights)

    def test_parent_index_out_of_range_rejected(self):
        for parents in ([-1, 5], [-1, 2], [-1, -2]):
            with pytest.raises(TreeError, match="unknown parent"):
                from_arrays(parents, [1.0, 1.0])

    def test_lengths_must_agree(self):
        for parents, weights, ids in (
            ([-1, 0, 0], [1.0, 1.0], None),
            ([-1, 0], [1.0, 1.0, 3.0], None),
            ([-1, 0], [1.0, 1.0], ["r"]),
        ):
            with pytest.raises(TreeError, match="length"):
                from_arrays(parents, weights, ids)

    def test_duplicate_ids_rejected_like_build_tree(self):
        with pytest.raises(TreeError) as from_records:
            build_tree([("r", None, 1), ("a", "r", 1), ("r", "r", 1)])
        with pytest.raises(TreeError, match="duplicate") as from_ids:
            from_arrays([-1, 0, 0], [1.0, 1.0, 1.0], ["r", "a", "r"])
        assert str(from_ids.value) == str(from_records.value)

    def test_three_cycle_off_root_rejected(self):
        with pytest.raises(TreeError, match="cycle"):
            from_arrays([-1, 3, 1, 2], [1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "weight",
        ["abc", 10**400, object(), True, np.True_, "2", b"1", np.complex128(1)],
        ids=["string", "huge", "object", "bool", "numpy-bool", "numeric-string", "bytes",
             "complex"],
    )
    def test_weight_that_is_not_a_float64_rejected(self, weight):
        with pytest.raises(TreeError, match="float64"):
            from_arrays([-1], [weight])
        with pytest.raises(TreeError, match="float64"):
            from_arrays([-1, 0], np.array([1.0, weight], dtype=object))

    @pytest.mark.parametrize(
        "weights",
        [["1", "2"], [True, 2.0], np.array([True, True]), [b"1", b"2"], np.array(["1", "2"]),
         np.array([b"1", b"2"]), np.array([1.0, 2.0], dtype=complex)],
        ids=["strings", "bool-and-float", "bool-array", "bytes", "str-array", "bytes-array",
             "complex-array"],
    )
    def test_bool_string_bytes_and_complex_weights_rejected(self, weights):
        with pytest.raises(TreeError, match="float64"):
            from_arrays([-1, 0], weights)

    @pytest.mark.parametrize("ids", [[1, "a"], [1, 2], ["r", None]])
    def test_id_that_is_not_a_string_rejected(self, ids):
        with pytest.raises(TreeError, match="is not a string"):
            from_arrays([-1, 0], [1.0, 2.0], ids=ids)

    @pytest.mark.parametrize(
        "parents",
        [[-1, 0.7, 0.2], [-1.5, 0, 0], [-1, 0, 1e30], [-1, 0, float("nan")], [-1, 0, None],
         [-1, 0, 2**63], [-1, 0, 10**400], [-1, 0, "a"],
         np.array([0, 0, 2**64 - 1], dtype=np.uint64), np.array([-1.0, 0.0, 2.0**63])],
    )
    def test_non_integer_parent_rejected(self, parents):
        with pytest.raises(TreeError, match="integer"):
            from_arrays(parents, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "parents",
        [[-1, 0, 1], [-1.0, 0.0, 1.0], np.array([-1, 0, 1], dtype=np.int32),
         np.array([-1.0, 0.0, 1.0]), [-1, False, True]],
    )
    def test_integral_parents_accepted(self, parents):
        t = from_arrays(parents, [1.0, 1.0, 1.0])
        assert t.parent_idx.dtype == np.int64
        assert t.parent_idx.tolist() == [int(x) for x in parents]


class TestCanonicalize:
    def test_star_child_order_by_size(self):
        t = make_tree([("r", None, 1), ("a", "r", 3), ("b", "r", 1), ("c", "r", 2)])
        assert t.W == 7.0
        kids = [t.ext(c) for c in t.children(1)]
        assert kids == ["b", "c", "a"]

    def test_path_sizes_and_counts(self):
        t = make_tree([("r", None, 1), ("x", "r", 1), ("y", "x", 1)])
        assert t.size[1] == 3 and t.size[2] == 2 and t.size[3] == 1
        assert t.count[1] == 3

    def test_size_ties_broken_by_id(self):
        t = make_tree([("r", None, 0), ("b", "r", 1), ("a", "r", 1), ("c", "r", 1)])
        assert [t.ext(c) for c in t.children(1)] == ["a", "b", "c"]

    def test_conservation(self):
        t = make_tree([("r", None, 2), ("a", "r", 0.5), ("b", "a", 1.25)])
        assert float(t.weight[1:].sum()) == pytest.approx(t.W, rel=1e-12)


def _independent_subtree_sums(records):
    """Recompute subtree weight sums with a plain dict walk."""
    children = {}
    weights = {}
    root = None
    for node_id, parent, w in records:
        weights[node_id] = w
        children.setdefault(node_id, [])
        if parent is None:
            root = node_id
        else:
            children.setdefault(parent, []).append(node_id)
    sums = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            sums[node] = weights[node] + sum(sums[c] for c in children[node])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children[node])
    return sums


def _folded_subtree_sums(records):
    """Subtree sums folded in the documented float64 order.

    ``size[p] = w[p] + size[c_last] + ... + size[c_first]``, left to
    right, over p's children in record order.
    """
    children = {node_id: [] for node_id, _, _ in records}
    weights = {node_id: float(w) for node_id, _, w in records}
    root = None
    for node_id, parent, _ in records:
        if parent is None:
            root = node_id
        else:
            children[parent].append(node_id)
    sums = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            s = weights[node]
            for c in reversed(children[node]):
                s += sums[c]
            sums[node] = s
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children[node])
    return sums


@given(tree_records())
def test_sizes_match_independent_traversal(recs):
    t = make_tree(recs)
    sums = _independent_subtree_sums(recs)
    folded = _folded_subtree_sums(recs)
    for v in range(1, t.n + 1):
        assert float(t.size[v]) == pytest.approx(sums[t.ext(v)], rel=1e-9, abs=1e-9)
        assert float(t.size[v]) == folded[t.ext(v)]


@given(tree_records())
def test_labeling_invariants(recs):
    t = make_tree(recs)
    # labels 1..n map one-to-one onto the input ids
    assert sorted(t.ext_of_label[1:]) == sorted(node_id for node_id, _, _ in recs)
    assert_canonical(t)


@given(tree_records())
def test_scaled_copy_preserves_structure(recs):
    t = make_tree(recs)
    s = t.with_scaled_weights(4.0)
    assert np.array_equal(s.parent, t.parent)
    assert np.allclose(s.size, t.size * 4.0)
    assert s.W == pytest.approx(4.0 * t.W, rel=1e-12)


class TestFileFormats:
    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,parent,weight\nr,,1\nx,r,2.5\ny,r,0\n", encoding="utf-8")
        t = read_csv(p)
        assert t.n == 3 and t.weights.sum() == 3.5

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("node,up,w\nr,,1\n", encoding="utf-8")
        with pytest.raises(TreeError, match="header"):
            read_csv(p)

    def test_csv_bad_weight(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,parent,weight\nr,,abc\n", encoding="utf-8")
        with pytest.raises(TreeError, match="weight"):
            read_csv(p)

    def test_json_nested(self, tmp_path):
        doc = {
            "id": "r",
            "weight": 1,
            "children": [
                {"id": "a", "weight": 2, "children": []},
                {"id": "b", "weight": 3},
            ],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        t = read_json(p)
        assert t.n == 3 and t.weights.sum() == 6.0

    def test_json_missing_field(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"id": "r"}), encoding="utf-8")
        with pytest.raises(TreeError):
            read_json(p)

    def test_deep_json_chain(self, tmp_path):
        depth = 300
        p = tmp_path / "deep.json"
        p.write_text(deep_json_chain(depth), encoding="utf-8")
        assert read_json(p).n == depth + 1

    def test_too_deep_json_is_tree_error(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text(deep_json_chain(3000), encoding="utf-8")
        with pytest.raises(TreeError, match="too deep.*CSV"):
            read_json(p)
