import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summarytree import TreeError, build_tree, canonicalize, from_arrays, read_csv, read_json
from summarytree.tree_model import _NARROW
from tests.conftest import (OVERFLOW_STAR, WIDE_OVERFLOW_STAR, assert_canonical, csv_text,
                            deep_json_chain, make_tree, tree_records)


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

    def test_overflowing_size_fold_rejected(self):
        t = build_tree(OVERFLOW_STAR)
        assert np.isfinite(t.weights.sum())
        with pytest.raises(TreeError, match="^total weight overflows a float64$"):
            canonicalize(t)

    def test_overflowing_fold_of_a_wide_level_rejected(self, tmp_path):
        assert len(WIDE_OVERFLOW_STAR) - 1 >= _NARROW  # the fold sums the leaves with numpy
        p = tmp_path / "t.csv"
        p.write_text(csv_text(WIDE_OVERFLOW_STAR), encoding="utf-8")
        for t in (build_tree(WIDE_OVERFLOW_STAR), read_csv(p)):
            assert np.isfinite(t.weights.sum())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TreeError, match="^total weight overflows a float64$"):
                    canonicalize(t)

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

    def test_overflowing_size_fold_rejected(self):
        parents = [-1] + [0] * (len(OVERFLOW_STAR) - 1)
        t = from_arrays(parents, [w for _, _, w in OVERFLOW_STAR])
        with pytest.raises(TreeError, match="^total weight overflows a float64$"):
            canonicalize(t)

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


def _fold_shapes() -> dict:
    """Parent lists whose depth levels fall on both sides of the fold's narrow cutoff."""
    rng = np.random.default_rng(9)
    shapes = {}
    for name, k in (("below", _NARROW - 1), ("at", _NARROW), ("above", _NARROW + 1)):
        # Every spine node holds the next one and k - 1 leaves: k children a level.
        shapes[f"comb-{name}-cutoff"] = [-1, *range(29), *np.repeat(np.arange(30), k - 1).tolist()]
    shapes["uniform"] = [-1, *(rng.random(2999) * np.arange(1, 3000)).astype(int).tolist()]
    # A wide level, a long path below one of its nodes and a wide fan at its end.
    fan = 3 * _NARROW
    shapes["fan-path-fan"] = [-1, *[0] * fan, 1, *range(fan + 1, fan + 100), *[fan + 100] * fan]
    shapes["binary"] = [-1, *((np.arange(1, 2047) - 1) // 2).tolist()]
    return shapes


FOLD_SHAPES = _fold_shapes()


@pytest.mark.parametrize("shape", FOLD_SHAPES)
def test_fold_matches_per_node_reference(shape):
    rng = np.random.default_rng(len(FOLD_SHAPES[shape]))
    # 1.0 next to 1e16 is lost or kept depending on the order of the sum.
    w = rng.choice([1e16, 1.0, 3.0, 0.5], len(FOLD_SHAPES[shape]), p=[0.1, 0.3, 0.3, 0.3])
    recs = [(f"n{i}", None if p < 0 else f"n{p}", float(x))
            for i, (p, x) in enumerate(zip(FOLD_SHAPES[shape], w))]
    t = make_tree(recs)
    folded = _folded_subtree_sums(recs)
    assert t.size[1:].tolist() == [folded[i] for i in t.ext_of_label[1:]]
    assert folded != _independent_subtree_sums(recs)  # the order changes bits here
    counts = _independent_subtree_sums([(i, p, 1.0) for i, p, _ in recs])
    assert t.count[1:].tolist() == [counts[i] for i in t.ext_of_label[1:]]


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


def reference_read_csv(path):
    """Read the CSV one row at a time into records, as read_csv once did.

    A ``csv.Error`` (a field over the limit, or a NUL before Python 3.11)
    is reported as read_csv reports it.
    """
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            if [c.strip().lower() for c in header[:3]] != ["id", "parent", "weight"]:
                raise TreeError("CSV header must be 'id,parent,weight'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 3:
                    raise TreeError(f"malformed CSV row: {row!r}")
                try:
                    weight = float(row[2])
                except ValueError as exc:
                    raise TreeError(f"bad weight in CSV row {row!r}") from exc
                records.append((row[0], row[1] or None, weight))
        except csv.Error as exc:
            raise TreeError(f"CSV line {reader.line_num}: {exc}") from None
    return build_tree(records)


def _read_outcome(read, path):
    """The tree ``read`` returns, weights as int64 bits, or its TreeError message."""
    try:
        t = read(path)
    except TreeError as exc:
        return str(exc)
    return t.ids, t.parent_idx.tolist(), t.weights.view(np.int64).tolist(), t.root


# The plain ids need no quotes; "@" stands for a NUL, put in after csv.writer.
PLAIN_IDS = ["r", "a", "b", "c", "\u00e9 x"]
CSV_IDS = [*PLAIN_IDS, "a,b", 'q"', "\u00e9\nx", "n@"]
CSV_WEIGHTS = ["1", "0", "2.5", " 3 ", "-1", "-0", "nan", "inf", "1e400", "1_0", "0x1", "abc", ""]
ROW_KINDS = ["row", "row", "row", "row", "short", "long", "blank", "pair"]


@st.composite
def csv_files(draw):
    """CSV text mixing good rows with short, long, blank and bad-weight rows and duplicate ids.

    About half the files use only ids that need no quotes, and about half
    only good rows.  Some lose their final newline, have one line end in
    a lone CR or, in a CRLF file, in a bare LF, or hold a short row next
    to a long one, so that the comma count of the two balances.
    """
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ids = draw(st.sampled_from([PLAIN_IDS, CSV_IDS]))
    kinds = draw(st.sampled_from([["row"], ROW_KINDS]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    writer.writerow(draw(st.sampled_from([["id", "parent", "weight"], [" ID", "Parent ", "weight", "x"],
                                          ["id", "parent"]])))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            out.write(draw(st.sampled_from(["", "   ", "\t", "\t\t", " , ", ","])) + eol)
            continue
        row = [draw(st.sampled_from(ids)), draw(st.sampled_from(["", "zz", *ids])),
               draw(st.sampled_from(CSV_WEIGHTS)) if draw(st.booleans()) else "1"]
        if kind == "short":
            row = row[: draw(st.integers(1, 2))]
        elif kind == "long":
            row += draw(st.lists(st.sampled_from(["x", "", "2"]), min_size=1, max_size=2))
        elif kind == "pair":
            writer.writerow(row[:2])
            row.append("x")
        writer.writerow(row)
    lines = out.getvalue().replace("@", "\x00").split(eol)  # the last is empty
    at = draw(st.integers(0, len(lines) - 2))
    end = draw(st.sampled_from([eol, eol, "\r", "\n"]))
    text = eol.join(lines[: at + 1]) + end + eol.join(lines[at + 1 :])
    if draw(st.booleans()):
        text = text.removesuffix(eol)
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=300)
@given(csv_files())
def test_read_csv_matches_row_by_row_reference(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _read_outcome(read_csv, p) == _read_outcome(reference_read_csv, p)


@pytest.mark.parametrize(
    "rows, message",
    [("r,,1\na,r,x\nb\n", "bad weight in CSV row ['a', 'r', 'x']"),
     ("r,,1\nb\na,r,x\n", "malformed CSV row: ['b']"),
     ("r,,1,note\na,r,x,y,\n", "bad weight in CSV row ['a', 'r', 'x', 'y', '']"),
     ("r,,1\na,r,2,y\na,r,x\n", "bad weight in CSV row ['a', 'r', 'x']"),
     ("r,,1\n\n  \na,r,2,y\na,r,3\n", "duplicate id 'a'")],
    ids=["bad-weight-first", "short-row-first", "long-row", "bad-weight-after-long-row",
         "duplicate-after-blank"],
)
def test_csv_faults_in_row_order(tmp_path, rows, message):
    p = tmp_path / "t.csv"
    p.write_text("id,parent,weight\n" + rows, encoding="utf-8")
    assert _read_outcome(read_csv, p) == message == _read_outcome(reference_read_csv, p)


@pytest.mark.parametrize(
    "text, line",
    [("id,parent,weight\nr,,1\n" + "a" * 200_000 + ",r,2\n", 3),
     ("id,parent,weight\nr,,1\na,r,2\nb,a," + "1" * 200_000 + "\n", 4),
     ("id,parent," + "w" * 200_000 + "\nr,,1\n", 1),
     ("id,parent,weight\nr,,1\n" + "a" * (csv.field_size_limit() + 1) + ",r,2\n", 3)],
    ids=["long-id", "long-weight", "long-header", "id-one-over"],
)
def test_csv_overlong_field_is_tree_error(tmp_path, text, line):
    p = tmp_path / "t.csv"
    p.write_text(text, encoding="utf-8")
    want = f"CSV line {line}: field larger than field limit ({csv.field_size_limit()})"
    assert _read_outcome(read_csv, p) == want


def test_csv_bad_weight_before_overlong_field(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,parent,weight\nr,,1\na,r,x\n" + "b" * 200_000 + ",r,2\n", encoding="utf-8")
    assert _read_outcome(read_csv, p) == "bad weight in CSV row ['a', 'r', 'x']"


def test_csv_bad_weight_before_undecodable_bytes(tmp_path):
    # The bad byte lies beyond the reader's first decoded chunk, so the row
    # by row reader met the bad weight first.
    p = tmp_path / "t.csv"
    rows = "".join(f"n{i},r,1\n" for i in range(4000))
    p.write_bytes(b"id,parent,weight\nr,,1\na,r,x\n" + rows.encode() + b"z,r,\xff\n")
    want = "bad weight in CSV row ['a', 'r', 'x']"
    assert _read_outcome(read_csv, p) == want == _read_outcome(reference_read_csv, p)


def test_csv_columns_equal_records_on_overflow_star(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(csv_text(OVERFLOW_STAR), encoding="utf-8")
    assert _read_outcome(read_csv, p) == _read_outcome(lambda _: build_tree(OVERFLOW_STAR), p)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


def test_plain_csv_is_split_without_csv_reader(tmp_path, monkeypatch):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"\xef\xbb\xbfid,parent,weight\r\nr,,1\r\na,r,2.5\nb,a,0")
    want = _read_outcome(reference_read_csv, plain)
    assert want[0] == ("r", "a", "b")
    monkeypatch.setattr(csv, "reader", _no_csv_reader)
    assert _read_outcome(read_csv, plain) == want
    # A quote, a NUL (which Python 3.10's csv rejects), a lone CR, a blank
    # line and a short row each send the file to csv.reader.
    for rows in ['"a",r,2', "a\x00,r,2", "a\rb,r,2", "a,r,2\n\nb,r,3", "a,r,2\nb,r"]:
        other = tmp_path / "other.csv"
        other.write_text(f"id,parent,weight\nr,,1\n{rows}\n", encoding="utf-8", newline="")
        with pytest.raises(AssertionError, match="csv.reader called"):
            read_csv(other)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_csv_field_at_the_limit_is_split(tmp_path, monkeypatch, eol):
    p = tmp_path / "t.csv"
    big = "a" * csv.field_size_limit()
    p.write_text(eol.join(["id,parent,weight", "r,,1", f"{big},r,2"]), encoding="utf-8", newline="")
    want = _read_outcome(reference_read_csv, p)
    assert want[0] == ("r", big)
    monkeypatch.setattr(csv, "reader", _no_csv_reader)
    assert _read_outcome(read_csv, p) == want
