"""Region sampling, NMS-vs-brute-force, corpus determinism, noise metric."""

import gc
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from hypalign import datasynth as ds

from reference_state import state_to_json


# --- grid sampling -----------------------------------------------------------


def test_grid_k1_is_full_image():
    boxes = ds.grid_sample(1)
    assert boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_grid_k2_quarters():
    boxes = ds.grid_sample(2)
    assert boxes.shape == (4, 4)
    for x1, y1, x2, y2 in boxes:
        assert x2 - x1 == pytest.approx(0.5)
        assert y2 - y1 == pytest.approx(0.5)


def test_grid_k3_tiles_exactly():
    boxes = ds.grid_sample(3)
    assert boxes.shape == (9, 4)
    assert abs(sum((x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in boxes.tolist())
               - 1.0) <= 1e-12
    overlaps = ds.iou(boxes, boxes)
    assert np.array_equal(overlaps, np.eye(9))


def test_grid_rows_are_the_fractions_of_the_tiling():
    # row i * k + j is the tile of row i and column j, each corner one
    # correctly rounded division
    k = 7
    assert ds.grid_sample(k).tolist() == [
        [j / k, i / k, (j + 1) / k, (i + 1) / k]
        for i in range(k) for j in range(k)]


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        ds.grid_sample(0)


# --- iou ----------------------------------------------------------------------


def test_iou_identical_is_one():
    b = np.array([[0.1, 0.2, 0.5, 0.8]])
    assert ds.iou(b, b)[0, 0] == pytest.approx(1.0)


def test_iou_disjoint_is_zero():
    assert ds.iou(np.array([[0.0, 0.0, 0.2, 0.2]]),
                  np.array([[0.5, 0.5, 0.9, 0.9]]))[0, 0] == 0.0


def test_iou_half_width_offset_is_one_third():
    # squares offset by half their side: inter = A/2, union = 3A/2
    a = np.array([[0.0, 0.0, 0.5, 0.5]])
    b = np.array([[0.25, 0.0, 0.75, 0.5]])
    assert ds.iou(a, b)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def scalar_iou(a, b):
    """The IoU of two corner rows in Python floats, one operation at a
    time."""
    ax1, ay1, ax2, ay2 = a[:4]
    bx1, by1, bx2, by2 = b[:4]
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    return inter / ((ax2 - ax1) * (ay2 - ay1)
                    + (bx2 - bx1) * (by2 - by1) - inter)


def test_iou_matches_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    a = [random_box(rng) for _ in range(40)]
    b = a[:5] + [random_box(rng) for _ in range(25)]
    got = ds.iou(np.array(a)[:, :4], np.array(b)[:, :4])
    assert got.shape == (40, 30)
    assert got.tolist() == [[scalar_iou(x, y) for y in b] for x in a]


@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 4)])
def test_iou_rejects_anything_but_corner_rows(shape):
    with pytest.raises(ValueError,
                       match=re.escape(f"shapes {shape} and (1, 4)")):
        ds.iou(np.zeros(shape), np.zeros((1, 4)))


def test_box_validation():
    # a scored row is checked where it enters nms or proposal_sample, and
    # the lowest failing row is named
    for row, message in [
            ([-0.1, 0.0, 0.5, 0.5, 0.5], "box 1: box coordinate x1=-0.1 "
                                         "outside [0, 1]"),
            ([0.0, 0.0, 0.5, 1.5, 0.5], "box 1: box coordinate y2=1.5 "),
            ([0.0, np.nan, 0.5, 0.5, 0.5], "box 1: box coordinate y1=nan "),
            ([0.5, 0.0, 0.5, 0.5, 0.5], "box 1: box requires x1 < x2 and "
                                        "y1 < y2"),
            ([0.0, 0.6, 0.5, 0.5, 0.5], "box 1: box requires x1 < x2"),
            ([0.0, 0.0, 0.5, 0.5, 1.5], "box 1: objectness score 1.5 "
                                        "outside [0, 1]"),
            ([0.0, 0.0, 0.5, 0.5, np.nan], "box 1: objectness score nan ")]:
        boxes = [[0.1, 0.1, 0.2, 0.2, 0.9], row, [2.0, 0.0, 1.0, 0.5, 0.5]]
        with pytest.raises(ValueError, match=re.escape(message)):
            ds.nms(boxes, 0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            ds.proposal_sample(boxes, 3)


@pytest.mark.parametrize("shape", [(0,), (5,), (2, 4), (1, 2, 5)])
def test_nms_rejects_anything_but_scored_rows(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        ds.nms(np.zeros(shape), 0.5)


# --- nms ------------------------------------------------------------------------


def brute_force_nms(boxes, threshold):
    """Straightforward reference: scalar IoU, explicit kept-list scan."""
    order = sorted(range(len(boxes)),
                   key=lambda i: (-boxes[i][4], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if scalar_iou(boxes[i], boxes[j]) >= threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


def random_box(rng):
    """A scored row [x1, y1, x2, y2, score] of Python floats."""
    x = np.sort(rng.uniform(0, 1, size=2))
    y = np.sort(rng.uniform(0, 1, size=2))
    while x[1] - x[0] < 1e-3:
        x = np.sort(rng.uniform(0, 1, size=2))
    while y[1] - y[0] < 1e-3:
        y = np.sort(rng.uniform(0, 1, size=2))
    return [float(x[0]), float(y[0]), float(x[1]), float(y[1]),
            float(rng.uniform(0, 1))]


def test_nms_keeps_disjoint_boxes():
    boxes = [[0.0, 0.0, 0.2, 0.2, 0.9],
             [0.5, 0.5, 0.7, 0.7, 0.4],
             [0.8, 0.0, 0.9, 0.2, 0.7]]
    kept = ds.nms(boxes, 0.5)
    assert len(kept) == 3
    scores = kept[:, 4].tolist()
    assert scores == sorted(scores, reverse=True)


TINY = 3.6e-165   # a side whose square underflows to 0


@pytest.mark.parametrize("box", [
    [0.0, 0.0, TINY, TINY],
    [2 * TINY, 2 * TINY, 3 * TINY, 3 * TINY],
    [0.1, 0.0, 0.5, 5e-324],
], ids=["origin", "disjoint", "flat"])
def test_a_box_whose_area_underflows_is_rejected_by_row(box):
    # its IoU would be 0/0, and nms read that NaN as an overlap: it kept 1
    # of [[0, 0, t, t, 0.9], [2t, 2t, 3t, 3t, 0.8]]
    area = re.escape("box area (x2 - x1) * (y2 - y1) is 0")
    with pytest.raises(ValueError, match="box 1: " + area):
        ds.nms([[0.1, 0.1, 0.2, 0.2, 0.9], box + [0.8]], 0.5)
    with pytest.raises(ValueError, match="record 1: " + area):
        ds.Corpus.from_lists([[0.1, 0.1, 0.2, 0.2], box], [[1], [1]],
                             [[1], [1]], [[], []])
    with pytest.raises(ValueError, match="record 1: gt_" + area):
        ds.Corpus.from_lists([[0.1, 0.1, 0.2, 0.2]] * 2, [[1], [1]],
                             [[1], [1]], [[], []], gt_box=[None, box])


def test_nms_suppresses_duplicates():
    dup = [0.1, 0.1, 0.4, 0.4]
    boxes = [dup + [0.3], dup + [0.9], dup + [0.5]]
    kept = ds.nms(boxes, 0.5)
    assert kept.tolist() == [dup + [0.9]]


def test_nms_ties_break_by_lower_index():
    boxes = [[0.1, 0.1, 0.4, 0.4, 0.5],
             [0.11, 0.1, 0.41, 0.4, 0.5]]
    kept = ds.nms(boxes, 0.3)
    assert kept.tolist() == [boxes[0]]


def test_nms_keeps_nothing_of_no_boxes():
    assert ds.nms(np.zeros((0, 5)), 0.5).shape == (0, 5)


def test_nms_matches_brute_force_on_randoms():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        boxes = [random_box(rng) for _ in range(n)]
        if rng.uniform() < 0.3 and n >= 2:  # force some exact score ties
            boxes[1] = boxes[1][:4] + [boxes[0][4]]
        thr = float(rng.uniform(0.1, 0.9))
        assert ds.nms(boxes, thr).tolist() == brute_force_nms(boxes, thr)


def test_nms_rejects_unscored_and_bad_threshold():
    with pytest.raises(ValueError, match="objectness score nan"):
        ds.nms([[0.0, 0.0, 0.5, 0.5, np.nan]], 0.5)
    with pytest.raises(ValueError, match="threshold"):
        ds.nms([[0.0, 0.0, 0.5, 0.5, 0.5]], 1.0)


# --- proposal sampling -----------------------------------------------------------


def test_proposal_sample_keeps_all_when_roomy():
    boxes = [[0.0, 0.0, 0.1, 0.1, 0.2],
             [0.5, 0.5, 0.6, 0.6, 0.9],
             [0.8, 0.8, 0.9, 0.9, 0.6]]
    kept = ds.proposal_sample(boxes, top_n=10, iou_threshold=1.0 - 1e-9)
    assert kept[:, 4].tolist() == [0.9, 0.6, 0.2]


def test_proposal_sample_top1_is_best():
    boxes = [[0.0, 0.0, 0.1, 0.1, 0.2],
             [0.5, 0.5, 0.6, 0.6, 0.9]]
    kept = ds.proposal_sample(boxes, top_n=1)
    assert kept.tolist() == [boxes[1]]


def test_proposal_sample_matches_sort_then_nms_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        boxes = [random_box(rng) for _ in range(n)]
        top_n = int(rng.integers(1, 12))
        thr = float(rng.uniform(0.2, 0.8))
        order = sorted(range(n), key=lambda i: (-boxes[i][4], i))
        want = brute_force_nms([boxes[i] for i in order[:top_n]], thr)
        assert ds.proposal_sample(boxes, top_n, thr).tolist() == want


def test_proposal_sample_rejects_bad_inputs():
    with pytest.raises(ValueError, match="proposals"):
        ds.proposal_sample([], 3)
    with pytest.raises(ValueError, match="top_n"):
        ds.proposal_sample([[0.0, 0.0, 0.5, 0.5, 0.5]], 0)


# --- concept tree ------------------------------------------------------------------


def test_balanced_tree_layout():
    tree = ds.ConceptTree.balanced(categories=3, leaves_per_category=2)
    assert tree.root == 0
    assert tree.leaves() == [4, 5, 6, 7, 8, 9]
    assert tree.ancestors(4) == [1, 0]
    assert tree.ancestors(9) == [3, 0]
    assert len(tree.nodes()) == 10


def test_tree_round_trips_through_json():
    tree = ds.ConceptTree.balanced(4, 3)
    again = ds.ConceptTree.from_json(json.loads(json.dumps(tree.to_json())))
    assert again == tree


def test_tree_validation():
    with pytest.raises(ValueError, match="depth"):
        ds.ConceptTree(root=0, children={0: (1, 2)})
    with pytest.raises(ValueError, match="twice"):
        ds.ConceptTree(root=0, children={0: (1, 2), 1: (3,), 2: (3,)})


# --- synonyms ------------------------------------------------------------------------


def test_default_synonyms_cover_all_leaves():
    tree = ds.ConceptTree.balanced(2, 3)
    syn = ds.default_synonyms(tree)
    assert sorted(syn.forms) == tree.leaves()
    for leaf, forms in syn.forms.items():
        assert leaf in forms
    # every other leaf got one synonym beyond itself
    counts = sorted(len(v) for v in syn.forms.values())
    assert counts == [1, 1, 1, 2, 2, 2]


def test_synonym_map_rejects_missing_self():
    with pytest.raises(ValueError, match="missing"):
        ds.SynonymMap(forms={3: (4,)})


def test_synonym_resolution():
    syn = ds.SynonymMap(forms={3: (3, 10), 4: (4,)})
    tokens = ds.IdLists(np.array([10, 7, 3, 4]), np.array([0, 2, 4]))
    # rows are records, columns classes 3 and 4
    assert syn.mentions(tokens).tolist() == [[True, False], [True, True]]
    assert syn.to_json() == {"3": [3, 10], "4": [4]}
    assert ds.SynonymMap.from_json(syn.to_json()) == syn


# --- noise metric -----------------------------------------------------------------


def corpus(*records):
    """A corpus of (tokens, true_objects, hallucinated) records, each over
    the same region box."""
    columns = [list(column) for column in zip(*records)] or [[], [], []]
    return ds.Corpus.from_lists([[0.1, 0.1, 0.5, 0.5]] * len(records),
                                *columns)


def test_noise_metric_clean_corpus_is_zero():
    syn = ds.SynonymMap(forms={1: (1,), 2: (2,)})
    records = corpus(([1, 99], [1], []), ([2], [2], []))
    assert ds.caption_noise_metric(records, syn) == 0.0


def test_noise_metric_all_absent_is_hundred():
    syn = ds.SynonymMap(forms={1: (1,), 2: (2,)})
    records = corpus(([1], [2], [1]), ([2], [1], [2]))
    assert ds.caption_noise_metric(records, syn) == pytest.approx(100.0)


def test_noise_metric_one_of_four_is_25_percent():
    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 5)})
    records = corpus(([1, 2, 3, 4], [1, 2, 3], [4]))
    assert ds.caption_noise_metric(records, syn) == pytest.approx(25.0)


def test_noise_metric_counts_synonym_mentions():
    syn = ds.SynonymMap(forms={1: (1, 10), 2: (2,)})
    records = corpus(([10, 2], [2], [1]))  # class 1 mentioned via 10
    assert ds.caption_noise_metric(records, syn) == pytest.approx(50.0)


def test_noise_metric_invariant_to_order_and_duplication():
    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 5)})
    records = corpus(([1, 2], [1], [2]), ([3], [3], []), ([4, 1], [4, 1], []))
    base = ds.caption_noise_metric(records, syn)
    assert ds.caption_noise_metric(records[::-1], syn) == pytest.approx(base)
    twice = records[np.tile(np.arange(len(records)), 2)]
    assert ds.caption_noise_metric(twice, syn) == pytest.approx(base)


def test_noise_metric_rejects_empty_and_unmentioned():
    syn = ds.SynonymMap(forms={1: (1,)})
    with pytest.raises(ValueError, match="no records"):
        ds.caption_noise_metric(corpus(), syn)
    with pytest.raises(ValueError, match="mentions no"):
        ds.caption_noise_metric(corpus(([99], [], [])), syn)


def test_noise_metric_matches_a_loop_over_records_bit_for_bit():
    # 1 to 9 mentioned classes with 0 to all of them absent give fractions
    # whose float sum depends on its order (with seed 1, numpy's pairwise
    # sum differs in the last bit); the loop adds in record order
    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 10)})
    rng = np.random.default_rng(1)
    rows = []
    for _ in range(300):
        mentioned = rng.permutation(9)[:rng.integers(1, 10)] + 1
        absent = int(rng.integers(0, len(mentioned) + 1))
        rows.append((mentioned.tolist(), mentioned[absent:].tolist(),
                     mentioned[:absent].tolist()))
    acc = 0.0
    for tokens, true, _ in rows:
        acc += len(set(tokens) - set(true)) / len(set(tokens))
    assert ds.caption_noise_metric(corpus(*rows), syn) == (
        acc / len(rows) * 100.0)


# --- corpus files ----------------------------------------------------------------


def write_payloads(path, payloads):
    path.write_text("".join(json.dumps(p) + "\n" for p in payloads))


def payload(tokens, true_objects, hallucinated, **fields):
    return dict({"v": "v1", "scene": 0, "box": [0.1, 0.1, 0.5, 0.5],
                 "score": None, "gt_box": None, "tokens": tokens,
                 "true_objects": true_objects,
                 "hallucinated": hallucinated}, **fields)


def test_caption_record_validation(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_payloads(path, [payload([1], [1], [1])])
    with pytest.raises(ValueError, match="disjoint|absent"):
        ds.read_corpus(path)
    write_payloads(path, [payload([], [1], [])])
    with pytest.raises(ValueError, match="token"):
        ds.read_corpus(path)


def test_record_from_json_rejects_negative_ids(tmp_path):
    # a negative token id would silently read the last embedding row
    path = tmp_path / "corpus.jsonl"
    good = payload([4, 1], [4], [5])
    write_payloads(path, [good])
    assert ds.read_corpus(path) == corpus(([4, 1], [4], [5]))
    for field in ("tokens", "true_objects", "hallucinated"):
        write_payloads(path, [dict(good, **{field: good[field] + [-1]})])
        with pytest.raises(ValueError, match=f"negative id in {field}"):
            ds.read_corpus(path)


def test_the_lowest_failing_record_is_reported(tmp_path):
    # each check runs over all records at once; the report is the first
    # record a record-by-record reader would have failed on
    path = tmp_path / "corpus.jsonl"
    write_payloads(path, [payload([1], [1], []),
                          payload([-1], [1], []),
                          payload([1], [1], [], box=[0.5, 0.1, 0.2, 0.5])])
    with pytest.raises(ValueError, match="record 1: negative id in tokens"):
        ds.read_corpus(path)


def _generated_lines(tmp_path):
    tree = ds.ConceptTree.balanced(3, 4)
    records, _ = ds.synth_corpus(tree, scenes=60, noise_rate=0.3, seed=1)
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, records)
    lines = path.read_text().splitlines()
    assert len(lines) > 501
    return path, lines


def _edit(field, value):
    def edit(line):
        record = json.loads(line)
        record[field] = value(record[field])
        return json.dumps(record)
    return edit


def _drop(field):
    def edit(line):
        record = json.loads(line)
        del record[field]
        return json.dumps(record)
    return edit


@pytest.mark.parametrize("edit,problem", [
    (_edit("box", lambda box: [1.5] + box[1:]),
     "box coordinate x1=1.5 outside [0, 1]"),
    (_edit("tokens", lambda ids: ids + [-1]), "negative id in tokens: -1"),
    (_drop("tokens"), "tokens missing"),
    (lambda line: line[:len(line) // 2], "invalid JSON"),
    (_edit("v", lambda v: "v2"), "v: unsupported corpus schema 'v2'"),
    (_edit("gt_box", lambda box: box[2:] + box[:2]),
     "gt_box requires x1 < x2 and y1 < y2"),
    (_edit("score", lambda score: 1.5), "objectness score 1.5 outside"),
    (lambda line: "[1, 2]", "not a JSON object"),
], ids=["bad-box", "negative-id", "missing-field", "truncated-json",
        "wrong-v", "gt-box-order", "score-range", "not-an-object"])
def test_corpus_errors_name_the_file_record_and_field(tmp_path, edit,
                                                      problem):
    path, lines = _generated_lines(tmp_path)
    lines[500] = edit(lines[500])
    # a blank line is not a record: the index counts records
    path.write_text("\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        ds.read_corpus(path)
    assert str(err.value).startswith(f"{path}: record 500: {problem}")


@pytest.mark.parametrize("field,value", [
    ("tokens", 0.5), ("tokens", True), ("tokens", "3"), ("tokens", 2**70),
    ("true_objects", 4.0), ("hallucinated", False), ("scene", 3.9),
    ("scene", True), ("scene", "3"),
])
def test_ids_and_scenes_must_be_json_integers(tmp_path, field, value):
    # a float scene once moved its record to another split, a boolean or
    # a float token read as an integer row
    path, lines = _generated_lines(tmp_path)
    lines[7] = _edit(field, lambda old: value if field == "scene"
                     else old + [value])(lines[7])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=f"record 7: {field}: {value!r} is not a "
                             "64-bit integer"):
        ds.read_corpus(path)


@pytest.mark.parametrize("field,value,bad", [
    ("box", ["0.1", 0.2, 0.5, 0.6], "'0.1' is not a number"),
    ("box", [0.1, 0.2, True, 0.6], "True is not a number"),
    ("box", [0.1, [0.2], 0.5, 0.6], r"\[0.2\] is not a number"),
    ("box", [0.1, 0.2, 0.5], r"\[0.1, 0.2, 0.5\] is not \[x1, y1, x2, y2\]"),
    ("box", "0.1 0.2 0.5 0.6", r"'0.1 0.2 0.5 0.6' is not \[x1, y1, x2, y2\]"),
    ("gt_box", [False, 0, True, 1], "False is not a number"),
    ("score", "0.7", "'0.7' is not a number or null"),
    ("score", True, "True is not a number or null"),
    ("score", [0.7], r"\[0.7\] is not a number or null"),
])
def test_floats_must_be_json_numbers(tmp_path, field, value, bad):
    # a string or a boolean once read as a coordinate or score: "0.7" as
    # 0.7 and true as 1.0
    path, lines = _generated_lines(tmp_path)
    lines[7] = _edit(field, lambda old: value)(lines[7])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"record 7: {field}: {bad}"):
        ds.read_corpus(path)


def test_float_columns_read_null_as_nan_and_integers_as_floats(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_payloads(path, [payload([4], [4], [], box=[0, 0, 1, 1], score=1,
                                  gt_box=[0, 0.5, 1, 1]),
                          payload([4], [4], [], score=None)])
    records = ds.read_corpus(path)
    assert records.box.tolist() == [[0.0, 0.0, 1.0, 1.0], [0.1, 0.1, 0.5, 0.5]]
    assert records.score[0] == 1.0 and np.isnan(records.score[1])
    assert records.gt_box[0].tolist() == [0.0, 0.5, 1.0, 1.0]
    assert np.isnan(records.gt_box[1]).all()
    assert all(column.dtype == np.float64 for column in (
        records.box, records.score, records.gt_box))
    # a null coordinate reads as NaN, which the box check then rejects
    write_payloads(path, [payload([4], [4], [], box=[0.1, None, 0.5, 0.5])])
    with pytest.raises(ValueError, match="record 0: box coordinate y1=nan"):
        ds.read_corpus(path)


def _read(path):
    """What ``read_corpus`` returns, or the type and message it raises,
    with the path left out."""
    try:
        return ds.read_corpus(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {str(exc).replace(str(path), '<path>')}"


def _beyond_float(lines, field, value):
    """The lines with record 2's ``field`` set to ``value``, which holds an
    integer beyond float range."""
    row = json.loads(lines[2])
    row[field] = value
    return b"\n".join(lines[:2] + [json.dumps(row).encode()] + lines[3:])


#: corpus files whose line ends, blank lines, byte order mark, encoding or
#: a cut line are read as a text-mode read of the file read them: the
#: records of the plain file, or the error, as the parent's text-mode read
#: gave it; a box, ground-truth box or score written as an integer beyond
#: float range fails, naming the record and field.  Each edits the
#: generated lines of ``_edge_lines``
READ_EDGES = {
    "crlf": (lambda lines: b"\r\n".join(lines) + b"\r\n", None),
    "cr": (lambda lines: b"\r".join(lines) + b"\r", None),
    "blank-lines": (lambda lines: b"\n \t\n" + b"\n\n".join(lines)
                    + b"\n\r\n\x0c\n", None),
    # str.strip finds a no-break space blank, bytes.strip does not
    "no-break-space-line": (lambda lines: lines[0] + b"\n\xc2\xa0\n"
                            + b"\n".join(lines[1:]), None),
    # json.loads of bytes would skip the mark; of the text, it fails
    "utf-8-bom": (lambda lines: b"\xef\xbb\xbf" + b"\n".join(lines),
                  "ValueError: <path>: record 0: invalid JSON: Unexpected "
                  "UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
                  "(char 0)"),
    "utf-8-bom-at-record-3": (
        lambda lines: b"\n".join(lines[:3]) + b"\n\n\xef\xbb\xbf"
        + b"\n".join(lines[3:]),
        "ValueError: <path>: record 3: invalid JSON: Unexpected UTF-8 BOM "
        "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    "truncated": (lambda lines: b"\r\n".join(lines[:4] + [lines[4][:30]]
                                               + lines[5:]),
                  "ValueError: <path>: record 4: invalid JSON: Expecting "
                  "',' delimiter: line 1 column 30 (char 29)"),
    # the text-mode read's own error, at the byte's place in the file
    "invalid-utf-8": (lambda lines: b"\n".join(lines[:3]) + b"\n\xff"
                      + b"\n".join(lines[3:]),
                      "UnicodeDecodeError: 'utf-8' codec can't decode byte "
                      "0xff in position 788: invalid start byte"),
    "box-beyond-float": (
        lambda lines: _beyond_float(lines, "box", [0.1, 10 ** 400, 0.5, 0.6]),
        "ValueError: <path>: record 2: box: an integer beyond float range"),
    "gt-box-beyond-float": (
        lambda lines: _beyond_float(lines, "gt_box",
                                    [0.1, 0.2, 0.5, -10 ** 400]),
        "ValueError: <path>: record 2: gt_box: an integer beyond float "
        "range"),
    "score-beyond-float": (
        lambda lines: _beyond_float(lines, "score", 10 ** 400),
        "ValueError: <path>: record 2: score: an integer beyond float "
        "range"),
    # no line is one JSON value, though the lines joined by commas are
    # three records: two on line 0, a third split after its box
    "records-across-lines": (
        lambda lines: lines[0] + b"," + lines[1] + b"\n"
        + lines[2].replace(b'],"', b']\n"', 1),
        "ValueError: <path>: record 0: invalid JSON: Extra data: line 1 "
        "column 265 (char 264)"),
    "nested-past-the-recursion-limit": (
        lambda lines: lines[0] + b"\n" + b"[" * 5000 + b"]" * 5000 + b"\n"
        + b"\n".join(lines[1:]),
        "ValueError: <path>: record 1: invalid JSON: maximum recursion depth "
        "exceeded while decoding a JSON array from a unicode string"),
}


def _edge_lines(tmp_path):
    records, _ = ds.synth_corpus(ds.ConceptTree.balanced(2, 2), scenes=2,
                                 noise_rate=0.5, seed=3)
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, records)
    lines = path.read_bytes().splitlines()
    assert len(lines) == 21
    return path, records, lines


@pytest.mark.parametrize("case", READ_EDGES)
def test_read_corpus_edges_keep_the_text_mode_values_and_errors(tmp_path,
                                                                case):
    path, records, lines = _edge_lines(tmp_path)
    edit, error = READ_EDGES[case]
    path.write_bytes(edit(lines))
    assert _read(path) == (records if error is None else error)


def _chunked_lines(tmp_path):
    """``_generated_lines`` as bytes: records in three of the reader's
    chunks, the last of them record 512 on."""
    path, lines = _generated_lines(tmp_path)
    assert 2 * ds._CHUNK < len(lines) < 3 * ds._CHUNK
    return path, [line.encode() for line in lines]


def test_chunked_read_equals_from_lists_of_the_records(tmp_path):
    # every third record leaves out the fields that may be absent
    path, lines = _chunked_lines(tmp_path)
    rows = [json.loads(line) for line in lines]
    for row in rows[::3]:
        del row["score"], row["gt_box"], row["scene"]
    path.write_text("\n".join(map(json.dumps, rows)))
    assert ds.read_corpus(path) == ds.Corpus.from_lists(
        box=[row["box"] for row in rows],
        tokens=[row["tokens"] for row in rows],
        true_objects=[row["true_objects"] for row in rows],
        hallucinated=[row["hallucinated"] for row in rows],
        score=[row.get("score") for row in rows],
        gt_box=[row.get("gt_box") for row in rows],
        scene=[row.get("scene", 0) for row in rows])


#: errors in record 650, in the reader's last chunk, as the reader of one
#: array of the whole file reported them
LAST_CHUNK_ERRORS = {
    "truncated": (lambda line: line[:30],
                  "ValueError: <path>: record 650: invalid JSON: Expecting "
                  "',' delimiter: line 1 column 31 (char 30)"),
    "invalid-utf-8": (lambda line: b"\xff" + line,
                      "UnicodeDecodeError: 'utf-8' codec can't decode byte "
                      "0xff in position 167311: invalid start byte"),
    "box-beyond-float": (
        lambda line: line.replace(b'"box":[0.0,', b'"box":[1' + b"0" * 400
                                  + b",", 1),
        "ValueError: <path>: record 650: box: an integer beyond float "
        "range"),
    "wrong-v": (lambda line: line.replace(b'"v":"v1"', b'"v":"v2"'),
                "ValueError: <path>: record 650: v: unsupported corpus "
                "schema 'v2'"),
}


@pytest.mark.parametrize("case", LAST_CHUNK_ERRORS)
def test_errors_in_the_last_chunk_name_the_record_in_the_file(tmp_path,
                                                              case):
    path, lines = _chunked_lines(tmp_path)
    edit, error = LAST_CHUNK_ERRORS[case]
    lines[650] = edit(lines[650])
    path.write_bytes(b"\n".join(lines))
    assert _read(path) == error


def test_errors_keep_their_precedence_across_chunks(tmp_path):
    # a version beats a missing field in an earlier chunk, and a line that
    # is no JSON value beats both
    path, lines = _chunked_lines(tmp_path)
    lines[300] = _drop("box")(lines[300]).encode()
    lines[600] = _edit("v", lambda v: "v2")(lines[600]).encode()
    path.write_bytes(b"\n".join(lines))
    assert _read(path) == ("ValueError: <path>: record 600: v: unsupported "
                           "corpus schema 'v2'")
    lines[690] = lines[690][:-1]
    path.write_bytes(b"\n".join(lines))
    assert _read(path).startswith("ValueError: <path>: record 690: invalid "
                                  "JSON: Expecting ',' delimiter")


def test_read_corpus_parses_with_the_collector_off(tmp_path, monkeypatch):
    # a collection in the chunk loop would scan objects that all survive
    path, lines = _chunked_lines(tmp_path)
    parse, collecting = ds.orjson.loads, []
    monkeypatch.setattr(ds.orjson, "loads", lambda data: collecting.append(
        gc.isenabled()) or parse(data))
    assert len(ds.read_corpus(path)) == len(lines) and gc.isenabled()
    # a chunk that fails leaves the collector as it found it
    lines[300] = _drop("box")(lines[300]).encode()
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match="record 300: box missing"):
        ds.read_corpus(path)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ValueError, match="record 300: box missing"):
            ds.read_corpus(path)
        assert not gc.isenabled()
    finally:
        gc.enable()
    # a parse a chunk: three for the file, then two for each read that
    # stops in the second chunk
    assert collecting == [False] * (3 + 2 + 2)


def _traced_peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_corpus_peaks_below_a_parse_of_the_file_as_one_array(tmp_path):
    # one chunk's records are dicts at a time, and the file's lines go as
    # they are parsed: less than one parse of the file's records alone
    # holds, let alone its bytes
    path, lines = _chunked_lines(tmp_path)
    array = b"[" + b",".join(lines) + b"]"
    assert _traced_peak(ds.read_corpus, path) < _traced_peak(
        ds.orjson.loads, array)


def _corpus_text(tmp_path):
    _, lines = _generated_lines(tmp_path)
    return "[" + ",".join(lines) + "]"


def _state_text(tmp_path):
    from hypalign import trainer as tr
    config = tr.ExperimentConfig(d=8, batch=4, steps=3, eval_every=3,
                                 scenes=16, categories=2,
                                 leaves_per_category=2)
    state, _ = tr.train(config)
    return ds.json_line(state_to_json(state))


#: texts that json reads one way and orjson another, or only one of them
#: reads, and the files this package writes
JSON_TEXTS = {
    "corpus": _corpus_text,
    "state": _state_text,
    "nan": "[1.5, NaN]",
    "infinity": '{"a": Infinity}',
    "-infinity": "[-Infinity]",
    "1e400": "[1e400]",
    "1e-400": "[1e-400]",
    "2**63-1": str(2**63 - 1),
    "2**63": f"[{2**63}]",
    "2**64": f'{{"a": [0.5, {2**64}]}}',
    "-2**63-1": f"[{-2**63 - 1}]",
    "25-digit": "[" + "1234567890" * 2 + "12345]",
    "19-fraction-digits": "[-0.0022839923002638268]",
    "lone-surrogate": '["\\ud800"]',
    "duplicate-keys": '{"b": 1, "a": 2, "b": 3}',
    "bom": '\ufeff{"a": 1}',
    "truncated": '{"a": [1, 2',
    "64-deep": "[" * 64 + "]" * 64,
    "65-deep": "[" * 65 + "]" * 65,
    "5000-deep": "[" * 5000 + "]" * 5000,
    "bracket-in-a-string": '{"a]": [[1]]}',
    # a string's bracket closes each level, so its brackets alone nest 1 deep
    "5000-deep-behind-strings": '["]", ' * 5000 + "1" + ', "["]' * 5000,
    # the guard reads a NUL as a wall between texts, which no JSON holds
    "nul-between-values": "[1]\x00[2]",
    "nul-in-a-string": '["a\x00b"]',
}


def _parsed(parse, text: str) -> str:
    """``repr`` of what ``parse`` returns, so int and float differ, or the
    type and message of what it raises."""
    try:
        return repr(parse(text))
    except (ValueError, RecursionError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", JSON_TEXTS)
def test_read_json_gives_json_loads_values_and_errors(tmp_path, name):
    text = JSON_TEXTS[name]
    if callable(text):
        text = text(tmp_path)
    assert _parsed(ds.read_json, text) == _parsed(json.loads, text)


def test_read_json_parses_written_files_without_json(tmp_path, monkeypatch):
    corpus, state = _corpus_text(tmp_path), _state_text(tmp_path)

    def unused(text):
        raise AssertionError("json.loads was called")
    monkeypatch.setattr(json, "loads", unused)
    assert ds.read_json(corpus)[0]["v"] == ds.SCHEMA_VERSION
    assert ds.read_json(state)["adam_t"] == 3


def test_read_json_parses_with_the_collector_off(monkeypatch):
    # a collection in the parse would scan objects that all survive it
    parse, collecting = ds.orjson.loads, []
    monkeypatch.setattr(ds.orjson, "loads", lambda data: collecting.append(
        gc.isenabled()) or parse(data))
    assert ds.read_json('[{"a": [1]}]') == [{"a": [1]}] and gc.isenabled()
    # a collector that was off stays off, whichever parser reads the text
    gc.disable()
    try:
        assert ds.read_json("[1]") == [1] and ds.read_json("[NaN]") != [0]
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert collecting == [False, False, False]


def test_write_corpus_is_atomic(tmp_path):
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, corpus(([4], [4], [])))
    before = path.read_bytes()

    def lines():
        yield b"{}"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        ds.write_lines(path, lines())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


#: the encoder every file was written with before orjson wrote any line
STDLIB = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: where orjson's text could differ from json's: the float range edges,
#: zero, the smallest subnormal and the non-finite floats, non-ASCII, DEL
#: and lone surrogates, ints past 64 bits, keys that are not strings, and
#: tuples
WRITER_CASES = {
    "1e-4": [1e-4], "-1e-4": [-1e-4],
    "below 1e-4": [np.nextafter(1e-4, 0.0).item()],
    "1e16": [1e16], "-1e16": [-1e16],
    "below 1e16": [np.nextafter(1e16, 0.0).item()],
    "zero": [0.0], "negative zero": [-0.0], "subnormal": [5e-324],
    "nan": [float("nan")], "inf": [float("inf")], "-inf": [-float("inf")],
    "non-ascii": {"kind": "é"}, "lone surrogate": ["\ud800"],
    "del": ["\x7f"], "controls": ["\x00\x1f\n\t\"\\/"],
    "2**64": [2**64], "2**64 - 1": [2**64 - 1], "-2**63": [-2**63],
    "-2**63 - 1": [-2**63 - 1], "int key": {1: [0.5]},
    "tuple": {"box": (0.25, 1, None, True)},
}


def _floats_of(row) -> list:
    if isinstance(row, float):
        return [row]
    if isinstance(row, dict):
        row = list(row.values())
    if isinstance(row, (list, tuple)):
        return [x for item in row for x in _floats_of(item)]
    return []


@pytest.mark.parametrize("case", WRITER_CASES)
def test_json_bytes_are_the_stdlib_encoders(case):
    row = WRITER_CASES[case]
    plain = bool(ds.plain_floats(_floats_of(row)).all())
    assert ds.json_bytes(row, plain) == STDLIB.encode(row).encode("ascii")
    assert ds.json_bytes(row, False) == STDLIB.encode(row).encode("ascii")


def test_plain_floats_edges():
    below = np.nextafter
    values = [1e-4, below(1e-4, 0.0), 1e16, below(1e16, 0.0), 0.0, -0.0,
              5e-324, np.nan, np.inf, -1e-4, -below(1e16, 0.0)]
    assert ds.plain_floats(values).tolist() == [
        True, False, False, True, True, True, False, False, False, True,
        True]


def _fuzz_floats(rng, n: int) -> np.ndarray:
    """Shuffled: raw 64-bit patterns, decades from 1e-330 to 1e308,
    magnitudes from 1e-5 to 1e17 about both edges of the plain range,
    uniforms in [-1, 1] and the special values, n of each."""
    specials = np.array([0.0, 5e-324, np.nan, np.inf, 1e-4,
                         np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
                         1e16, np.nextafter(1e16, 0.0), 1e308, 1e-308])
    sign = rng.choice([-1.0, 1.0], 4 * n)
    with np.errstate(over="ignore", under="ignore"):
        decades = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-330, 309,
                                                                    n)
    parts = [rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
             np.concatenate([decades, 10.0 ** rng.uniform(-5.0, 17.0, n),
                             rng.uniform(0.0, 1.0, n),
                             rng.choice(specials, n)]) * sign]
    return rng.permutation(np.concatenate(parts))


def test_json_bytes_fuzz_against_the_stdlib_encoder(monkeypatch):
    # rows of 1 to 3 floats, an id and a kind, shaped like the export's;
    # the plain flags are one numpy check over all their floats
    rng = np.random.default_rng(2024)
    floats = _fuzz_floats(rng, 50_000)
    ends = np.cumsum(rng.integers(1, 4, len(floats)))
    starts = np.concatenate(([0], ends))[:np.searchsorted(ends, len(floats),
                                                          side="right")]
    ends = ends[:len(starts)]
    plain = np.logical_and.reduceat(ds.plain_floats(floats), starts)
    ids = [0, 7, 2**63 - 1, -2**63, 2**64 - 1, 2**64, -2**63 - 1, -5]
    kinds = ["object", "caption", "é", "\x7f", "a\"b\\c", "\x00"]
    values = floats.tolist()
    rows = [{"id": i if i % 7 else ids[i % 8],
             "kind": "object" if i % 11 else kinds[i % 6],
             "vector": values[a:b]}
            for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))]
    to_json = []
    monkeypatch.setattr(ds, "json_line", lambda payload: to_json.append(1)
                        or STDLIB.encode(payload))
    got = [ds.json_bytes(row, ok) for row, ok in zip(rows, plain.tolist())]
    want = [STDLIB.encode(row).encode("ascii") for row in rows]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, (rows[bad[0]], got[bad[0]], want[bad[0]])
    # both writers wrote many rows
    assert len(rows) >= 100_000 and 20_000 < len(to_json) < len(rows) - 20_000


def test_generated_corpus_is_written_by_orjson(tmp_path, monkeypatch):
    records, _ = ds.synth_corpus(ds.ConceptTree.balanced(3, 4), scenes=20,
                                 noise_rate=0.3, seed=5)
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, records)
    want = path.read_bytes()

    def unused(payload):
        raise AssertionError("a generated record was written by json")
    monkeypatch.setattr(ds, "json_line", unused)
    ds.write_corpus(path, records)
    assert path.read_bytes() == want


def test_corpus_with_a_tiny_coordinate_keeps_the_stdlib_bytes(tmp_path,
                                                               monkeypatch):
    # x1 = 5e-5 is written "5e-05" by json and "0.00005" by orjson; that
    # record alone goes to json
    records = ds.Corpus.from_lists(
        box=[[5e-05, 0.1, 0.5, 0.5], [0.25, 0.1, 0.5, 0.5]],
        tokens=[[3, 1], [4]], true_objects=[[3], [4]], hallucinated=[[], []],
        score=[None, 0.75], gt_box=[[0.0, 0.1, 0.5, 0.5], None],
        scene=[0, 1])
    calls = []
    monkeypatch.setattr(ds, "json_line",
                        lambda payload: calls.append(payload)
                        or STDLIB.encode(payload))
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, records)
    rows = [{"v": "v1", "scene": 0, "box": [5e-05, 0.1, 0.5, 0.5],
             "score": None, "gt_box": [0.0, 0.1, 0.5, 0.5], "tokens": [3, 1],
             "true_objects": [3], "hallucinated": []},
            {"v": "v1", "scene": 1, "box": [0.25, 0.1, 0.5, 0.5],
             "score": 0.75, "gt_box": None, "tokens": [4],
             "true_objects": [4], "hallucinated": []}]
    assert path.read_text() == "".join(STDLIB.encode(row) + "\n"
                                       for row in rows)
    assert b"[5e-05," in path.read_bytes() and calls == rows[:1]


def test_corpus_rows_select_records():
    records = corpus(([1, 2], [2, 1, 2], []), ([3], [3], [4]),
                     ([5, 6, 7], [7, 5], []))
    picked = records[np.array([2, 0])]
    assert len(picked) == 2
    assert picked.tokens.lists() == [[5, 6, 7], [1, 2]]
    # object ids are a set: sorted, without repeats
    assert picked.true_objects.lists() == [[5, 7], [1, 2]]
    assert picked.hallucinated.lists() == [[], []]
    assert records[np.array([False, True, True])] == records[1:]
    # a record's class is its smallest true object
    assert picked.leaves().tolist() == [5, 1]


# --- corpus generation -----------------------------------------------------------


def test_corpus_reproducible_and_serialization_round_trips(tmp_path):
    tree = ds.ConceptTree.balanced(3, 4)
    rec1, gt1 = ds.synth_corpus(tree, scenes=5, noise_rate=0.2, seed=9)
    rec2, gt2 = ds.synth_corpus(tree, scenes=5, noise_rate=0.2, seed=9)
    assert rec1 == rec2
    assert all(np.array_equal(a, b) for a, b in zip(gt1, gt2))
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, rec1)
    first = path.read_bytes()
    ds.write_corpus(path, rec2)
    assert path.read_bytes() == first
    assert ds.read_corpus(path) == rec1


#: (tree shape, ``synth_corpus`` arguments) of each pinned generator run: a
#: 1-leaf tree (a noisy draw has no leaf to inject), clean and very noisy
#: corpora, more objects per scene than leaves, and the extremes of the
#: proposal count, grid size and NMS threshold.
GENERATOR_CASES = {
    "one-leaf": ((1, 1), dict(scenes=6, noise_rate=0.5, seed=1)),
    "rho-0": ((3, 3), dict(scenes=10, noise_rate=0.0, seed=2)),
    "rho-0.9": ((3, 3), dict(scenes=10, noise_rate=0.9, seed=3)),
    "crowded": ((2, 2), dict(scenes=8, noise_rate=0.4, seed=4,
                             objects_per_scene=6)),
    "top-n-1": ((3, 2), dict(scenes=8, noise_rate=0.3, seed=5, top_n=1)),
    "top-n-8": ((3, 2), dict(scenes=8, noise_rate=0.3, seed=6, top_n=8)),
    "k-1": ((2, 3), dict(scenes=8, noise_rate=0.3, seed=7, k=1)),
    "k-4": ((2, 3), dict(scenes=8, noise_rate=0.3, seed=8, k=4)),
    "iou-0.1": ((4, 2), dict(scenes=8, noise_rate=0.3, seed=9, top_n=6,
                             iou_threshold=0.1)),
    "iou-0.9": ((4, 2), dict(scenes=8, noise_rate=0.3, seed=10, top_n=6,
                             iou_threshold=0.9)),
}

#: sha256 of the ``write_corpus`` bytes and of the scene objects of each
#: case.  The generator's random stream is its output contract: update
#: these only for an intended change.
GENERATOR_DIGESTS = {
    "one-leaf": (
        "11216fbe2a8a4c0716d9fa45bd629ff7b682d2d80f9786c1fe90187c01924360",
        "47d4e4e668cc8dedc4fd761b6f941310577e062bf038d5660d1642a4b114e8a2"),
    "rho-0": (
        "ea745f6af43f3d1d5a2c2ff83ca59756b1c08260cb026e74c16831cacba80bbe",
        "e1c326f96edeb8e23663bab50f6b8a4d7678d0e78b8ef9c0f696770ac6da76cd"),
    "rho-0.9": (
        "5c545f70aac7c972f95564dd415613c886097eaeb3b49e0875353e0b60a5548a",
        "ba4f3131d02a121b60b2ab9d84d29ed13e423a5dec55be0e0bf108d1f8abf2c0"),
    "crowded": (
        "021304af72b21cf8e8c83a5df6cd61b20dd268f552605719c75423d6477a183d",
        "cad1ecfd2f80b355138f2b110bf0c65a83fe8164e11826ffea5b03a97a9644bf"),
    "top-n-1": (
        "313732d571e38ce090f74b33d7873e1f6722af4a3ce09fe25bf2c6ced80101db",
        "df4cc76aa2b1dfc244b5c25ec35a80c77de52631bd5e0b48e770671d6996e270"),
    "top-n-8": (
        "637baa076312bc8af5d34949269aadd452d9d5a6048c0ef006d681ce202beecd",
        "b95a37e4a5214ad450af4482c2d3cd8aecf319f6cdbd6679206265552bb7de6d"),
    "k-1": (
        "393a3738b2658ddb261f74b8b8358a18ab1b8a29c8dae4f793ac1c2206bd0623",
        "3cfd6fd91de29e19bd3ab0ca1be934b9404d41dc6b0afa1a672724dbb868a1f3"),
    "k-4": (
        "aced652d2f24ced306aecfdb28d5bb0a8f4b0900f1a7b3aa0bff5d49f19795ca",
        "4a4c10e3a55c2c9f7d3298d6da0dbd0146b7ceaf2f55a987b50084052d914c5c"),
    "iou-0.1": (
        "6a2016264fc898ddb5ba339bd5549cd566295684706c2767b481f25ab689646b",
        "fbd77ee4cedf2c086095568753e7d1cecd2271df16003bc143a63d37d22f95e8"),
    "iou-0.9": (
        "a983e986ffe6423ee4c17985648a2b92f5da21dd6f55c7a6b736e2d8a2f74e18",
        "b07bf14bc4849514f3549ef1521860762b4cbeaddb964467191fef107a70ccda"),
}


@pytest.mark.parametrize("case", list(GENERATOR_CASES))
def test_generator_output_matches_pinned_digests(tmp_path, case):
    shape, kwargs = GENERATOR_CASES[case]
    records, (classes, boxes) = ds.synth_corpus(
        ds.ConceptTree.balanced(*shape), **kwargs)
    ds.write_corpus(tmp_path / "corpus.jsonl", records)
    objects = ds.json_line([[[c, *box] for c, box in zip(cs, bs)]
                            for cs, bs in zip(classes.tolist(),
                                              boxes.tolist())])
    got = (hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()),
           hashlib.sha256(objects.encode()))
    assert tuple(h.hexdigest() for h in got) == GENERATOR_DIGESTS[case]


# synth_corpus makes fewer Generator calls than the plain forms below: a
# hallucinated mention, the keep/noise uniforms, a scene's boxes and
# scores, a one-form pick and a caption's shuffle; the stream and every
# value must be the same, or the pinned digests above move

SEEDS = (0, 1, 7, 2024, 2**40 + 3)


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_with_p_is_searchsorted_of_one_random(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 49):
        candidates = rng.permutation(100)[:n]
        weights = np.where(rng.random(n) < 0.3, 4.0, 1.0)
        probs = weights / weights.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        a, b = (np.random.default_rng([seed, n]) for _ in range(2))
        for _ in range(200):
            want = a.choice(candidates, p=probs)
            assert candidates[cdf.searchsorted(b.random(),
                                               side="right")] == want
        assert same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_k_uniform_calls_are_one_random_k(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in (1, 2, 3, 4, 17):
        assert [a.uniform() for _ in range(k)] == b.random(k).tolist()
    assert same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_a_b_calls_are_an_affine_map_of_one_random(seed):
    # a scene's random boxes: centre and size, scalar and size=2 calls
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for low, high in ((0.15, 0.85), (0.15, 0.45), (0.0, 0.7), (0.6, 1.0)):
        for k in (1, 2, 5):
            want = [a.uniform(low, high) for _ in range(k)]
            want += a.uniform(low, high, size=2).tolist()
            assert (low + (high - low) * b.random(k + 2)).tolist() == want
    assert same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_of_one_draws_nothing(seed):
    # integers(2) keeps half of a 64-bit draw for the next 32-bit one;
    # integers(1) between them must not take it
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        want = [int(a.integers(2)), int(a.integers(1)), int(a.integers(3))]
        assert [int(b.integers(2)), 0, int(b.integers(3))] == want
        assert same_state(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_of_a_list_is_indexing_by_a_permutation(seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 2, 3, 4, 7, 40, 2, 3):
        tokens = [100 + 3 * i for i in range(n)]
        want = [tokens[i] for i in a.permutation(len(tokens)).tolist()]
        b.shuffle(tokens)
        assert tokens == want
        assert same_state(a, b)


def test_one_leaf_tree_has_no_mention_to_inject():
    tree = ds.ConceptTree.balanced(1, 1)
    records, (classes, boxes) = ds.synth_corpus(tree, scenes=4,
                                                noise_rate=0.9, seed=2)
    assert len(records) and not records.hallucinated.lengths().any()
    assert classes.tolist() == [[2]] * 4 and boxes.shape == (4, 1, 4)
    assert set(records.true_objects.values.tolist()) == {2}


def test_corpus_different_seeds_differ():
    tree = ds.ConceptTree.balanced(3, 4)
    rec1, _ = ds.synth_corpus(tree, scenes=3, noise_rate=0.0, seed=1)
    rec2, _ = ds.synth_corpus(tree, scenes=3, noise_rate=0.0, seed=2)
    assert rec1 != rec2


def test_clean_corpus_has_no_hallucinations():
    tree = ds.ConceptTree.balanced(3, 4)
    syn = ds.default_synonyms(tree)
    records, _ = ds.synth_corpus(tree, scenes=10, noise_rate=0.0, seed=3,
                                 synonyms=syn)
    assert not records.hallucinated.lengths().any()
    assert ds.caption_noise_metric(records, syn) == 0.0


def test_noisy_corpus_injection_rate_tracks_rho():
    tree = ds.ConceptTree.balanced(5, 4)
    records, _ = ds.synth_corpus(tree, scenes=900, noise_rate=0.3, seed=4)
    assert len(records) >= 10_000
    frac = np.count_nonzero(records.hallucinated.lengths()) / len(records)
    assert abs(frac - 0.3) <= 0.01


def test_corpus_records_entail_their_objects():
    tree = ds.ConceptTree.balanced(3, 4)
    syn = ds.default_synonyms(tree)
    records, (objects, boxes) = ds.synth_corpus(tree, scenes=8,
                                                noise_rate=0.4, seed=5,
                                                synonyms=syn)
    classes = list(syn.forms)
    mentions = syn.mentions(records.tokens)
    for i, (tokens, true, hall) in enumerate(zip(
            records.tokens.lists(), records.true_objects.lists(),
            records.hallucinated.lists())):
        mentioned = {c for c, hit in zip(classes, mentions[i]) if hit}
        assert set(true) <= mentioned
        assert set(hall) <= mentioned
        assert not (set(hall) & set(true))
        # caption also names at least one ancestor attribute
        ancestors = set(tree.ancestors(true[0]))
        assert ancestors & set(tokens)
        scene = records.scene[i]
        assert set(true) <= set(objects[scene].tolist())
        assert records.gt_box[i].tolist() in boxes[scene].tolist()


def test_corpus_rejects_bad_noise_rate():
    tree = ds.ConceptTree.balanced(2, 2)
    with pytest.raises(ValueError, match="noise rate"):
        ds.synth_corpus(tree, scenes=1, noise_rate=1.0, seed=0)
    with pytest.raises(ValueError, match="scenes"):
        ds.synth_corpus(tree, scenes=0, noise_rate=0.0, seed=0)
    for top_n in (0, -1):
        with pytest.raises(ValueError, match=f"top_n must be positive, got "
                                             f"{top_n}"):
            ds.synth_corpus(tree, scenes=1, noise_rate=0.0, seed=0,
                            top_n=top_n)
    with pytest.raises(ValueError, match="objects_per_scene must be >= 1"):
        ds.synth_corpus(tree, scenes=1, noise_rate=0.0, seed=0,
                        objects_per_scene=0)


def test_hallucinations_prefer_siblings():
    tree = ds.ConceptTree.balanced(categories=6, leaves_per_category=4)
    records, _ = ds.synth_corpus(tree, scenes=400, noise_rate=0.8, seed=6)
    parents = tree.parent_map()
    sibling = 0
    total = 0
    for true, hall in zip(records.true_objects.lists(),
                          records.hallucinated.lists()):
        if not hall:
            continue
        total += 1
        sibling += int(parents[hall[0]] == parents[true[0]])
    # 3 siblings at weight 4 vs 20 non-siblings at weight 1 -> p(sib) = 12/32
    assert total > 500
    assert abs(sibling / total - 12 / 32) < 0.05
