"""IoU and NMS invariants and the corpus and state JSON round trips.

Property tests draw their inputs with hypothesis, derandomized and without
an example database, so every run checks the same examples.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypalign import datasynth as ds
from hypalign import trainer as tr

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

unit = st.floats(0.0, 1.0)


@st.composite
def boxes(draw, scored=st.none()):
    """A corner row [x1, y1, x2, y2], with the drawn score appended unless
    it is None."""
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    # the box checker's rule: an area that underflows to 0 is rejected
    assume((x2 - x1) * (y2 - y1) > 0.0)
    score = draw(scored)
    return [x1, y1, x2, y2] + ([] if score is None else [score])


ids = st.integers(0, 10_000)


@st.composite
def record_lines(draw):
    """One corpus record as a JSON object, in the form ``write_corpus``
    gives it; a scored ``gt_box`` carries its score as a fifth entry."""
    box = draw(boxes(scored=st.none() | unit))
    gt_box = draw(st.none() | boxes(scored=st.none() | unit))
    true_objects = draw(st.frozensets(ids, max_size=4))
    return {
        "v": "v1", "scene": draw(ids), "box": box[:4],
        "score": box[4] if len(box) == 5 else None,
        "gt_box": gt_box,
        "tokens": draw(st.lists(ids, min_size=1, max_size=6)),
        "true_objects": sorted(true_objects),
        "hallucinated": sorted(draw(st.frozensets(ids, max_size=3))
                               - true_objects)}


# --- boxes ---------------------------------------------------------------------


@PROPERTY
@given(a=boxes(), b=boxes())
def test_iou_is_symmetric_bounded_and_one_on_itself(a, b):
    rows = np.array([a, b])
    overlaps = ds.iou(rows, rows)
    assert overlaps[0, 1] == overlaps[1, 0]
    assert 0.0 <= overlaps[0, 1] <= 1.0
    assert overlaps[0, 0] == overlaps[1, 1] == 1.0


@PROPERTY
@given(candidates=st.lists(boxes(scored=unit), max_size=12),
       threshold=st.floats(0.05, 0.95))
def test_nms_keeps_a_score_ordered_subset_without_overlaps(candidates,
                                                           threshold):
    kept = ds.nms(np.array(candidates).reshape(-1, 5), threshold).tolist()
    remaining = list(candidates)
    for box in kept:
        remaining.remove(box)   # a sub-multiset of the input
    scores = [box[4] for box in kept]
    assert scores == sorted(scores, reverse=True)
    rows = np.array(kept).reshape(-1, 5)[:, :4]
    overlaps = ds.iou(rows, rows)
    assert (overlaps[~np.eye(len(kept), dtype=bool)] < threshold).all()


# --- JSON round trips ----------------------------------------------------------


@PROPERTY
@given(records=st.lists(record_lines(), min_size=1, max_size=4))
def test_record_json_round_trip(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    text = "".join(ds.json_line(record) + "\n" for record in records)
    path.write_text(text)
    scored = [i for i, record in enumerate(records)
              if record["gt_box"] is not None and len(record["gt_box"]) == 5]
    if scored:
        # a corpus file stores no ground-truth score: it would be lost
        with pytest.raises(ValueError, match=f"record {scored[0]}: gt_box"):
            ds.read_corpus(path)
        return
    corpus = ds.read_corpus(path)
    assert len(corpus) == len(records)
    ds.write_corpus(path, corpus)
    assert path.read_text() == text
    assert ds.read_corpus(path) == corpus


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([8, 16]),
       scale=st.floats(1e-300, 1e300), adam_t=st.integers(0, 10**6))
def test_state_json_round_trip(seed, d, scale, adam_t):
    config = tr.ExperimentConfig(d=d, seed=seed, categories=2,
                                 leaves_per_category=2)
    state = tr.init(config)
    rng = np.random.default_rng(seed)

    def noisy(values):
        return {k: np.asarray(rng.normal(size=v.shape) * scale)
                for k, v in values.items()}

    state.params, state.adam_m = noisy(state.params), noisy(state.adam_m)
    state.adam_v, state.adam_t = noisy(state.adam_v), adam_t
    again = tr.state_from_json(json.loads(ds.json_line(
        tr.state_to_json(state))))
    assert again.config == state.config and again.adam_t == adam_t
    for field in ("params", "adam_m", "adam_v"):
        want, got = getattr(state, field), getattr(again, field)
        assert want.keys() == got.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), (field, name)
            assert type(got[name]) is type(want[name])
