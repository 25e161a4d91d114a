"""Region sampling, NMS-vs-brute-force, corpus determinism, noise metric."""

import json

import numpy as np
import pytest

from hypalign import datasynth as ds


# --- grid sampling -----------------------------------------------------------


def test_grid_k1_is_full_image():
    boxes = ds.grid_sample(1)
    assert len(boxes) == 1
    assert boxes[0].coords() == (0.0, 0.0, 1.0, 1.0)


def test_grid_k2_quarters():
    boxes = ds.grid_sample(2)
    assert len(boxes) == 4
    for b in boxes:
        assert b.x2 - b.x1 == pytest.approx(0.5)
        assert b.y2 - b.y1 == pytest.approx(0.5)


def test_grid_k3_tiles_exactly():
    boxes = ds.grid_sample(3)
    assert len(boxes) == 9
    assert abs(sum(b.area for b in boxes) - 1.0) <= 1e-12
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            if i != j:
                assert ds.iou(a, b) == 0.0


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        ds.grid_sample(0)


# --- iou ----------------------------------------------------------------------


def test_iou_identical_is_one():
    b = ds.Box(0.1, 0.2, 0.5, 0.8)
    assert ds.iou(b, b) == pytest.approx(1.0)


def test_iou_disjoint_is_zero():
    assert ds.iou(ds.Box(0.0, 0.0, 0.2, 0.2), ds.Box(0.5, 0.5, 0.9, 0.9)) == 0.0


def test_iou_half_width_offset_is_one_third():
    # squares offset by half their side: inter = A/2, union = 3A/2
    a = ds.Box(0.0, 0.0, 0.5, 0.5)
    b = ds.Box(0.25, 0.0, 0.75, 0.5)
    assert ds.iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_box_validation():
    with pytest.raises(ValueError, match="outside"):
        ds.Box(-0.1, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="x1 < x2"):
        ds.Box(0.5, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="score"):
        ds.Box(0.0, 0.0, 0.5, 0.5, score=1.5)


# --- nms ------------------------------------------------------------------------


def brute_force_nms(boxes, threshold):
    """Straightforward reference: inline IoU, explicit kept-list scan."""
    order = sorted(range(len(boxes)),
                   key=lambda i: (-boxes[i].score, i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            ax1, ay1, ax2, ay2 = boxes[i].coords()
            bx1, by1, bx2, by2 = boxes[j].coords()
            iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
            ih = max(0.0, min(ay2, by2) - max(ay1, by1))
            inter = iw * ih
            union = ((ax2 - ax1) * (ay2 - ay1)
                     + (bx2 - bx1) * (by2 - by1) - inter)
            if inter / union >= threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [boxes[i] for i in kept]


def random_box(rng, score=True):
    x = np.sort(rng.uniform(0, 1, size=2))
    y = np.sort(rng.uniform(0, 1, size=2))
    while x[1] - x[0] < 1e-3:
        x = np.sort(rng.uniform(0, 1, size=2))
    while y[1] - y[0] < 1e-3:
        y = np.sort(rng.uniform(0, 1, size=2))
    s = float(rng.uniform(0, 1)) if score else None
    return ds.Box(float(x[0]), float(y[0]), float(x[1]), float(y[1]), score=s)


def test_nms_keeps_disjoint_boxes():
    boxes = [ds.Box(0.0, 0.0, 0.2, 0.2, score=0.9),
             ds.Box(0.5, 0.5, 0.7, 0.7, score=0.4),
             ds.Box(0.8, 0.0, 0.9, 0.2, score=0.7)]
    kept = ds.nms(boxes, 0.5)
    assert len(kept) == 3
    scores = [b.score for b in kept]
    assert scores == sorted(scores, reverse=True)


def test_nms_suppresses_duplicates():
    dup = (0.1, 0.1, 0.4, 0.4)
    boxes = [ds.Box(*dup, score=0.3), ds.Box(*dup, score=0.9),
             ds.Box(*dup, score=0.5)]
    kept = ds.nms(boxes, 0.5)
    assert len(kept) == 1
    assert kept[0].score == 0.9


def test_nms_ties_break_by_lower_index():
    dup = (0.1, 0.1, 0.4, 0.4)
    boxes = [ds.Box(0.1, 0.1, 0.4, 0.4, score=0.5),
             ds.Box(0.11, 0.1, 0.41, 0.4, score=0.5)]
    kept = ds.nms(boxes, 0.3)
    assert len(kept) == 1
    assert kept[0] == boxes[0]


def test_nms_matches_brute_force_on_randoms():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 21))
        boxes = [random_box(rng) for _ in range(n)]
        if rng.uniform() < 0.3 and n >= 2:  # force some exact score ties
            boxes[1] = ds.Box(*boxes[1].coords(), score=boxes[0].score)
        thr = float(rng.uniform(0.1, 0.9))
        assert ds.nms(boxes, thr) == brute_force_nms(boxes, thr)


def test_nms_rejects_unscored_and_bad_threshold():
    with pytest.raises(ValueError, match="unscored"):
        ds.nms([ds.Box(0.0, 0.0, 0.5, 0.5)], 0.5)
    with pytest.raises(ValueError, match="threshold"):
        ds.nms([ds.Box(0.0, 0.0, 0.5, 0.5, score=0.5)], 1.0)


# --- proposal sampling -----------------------------------------------------------


def test_proposal_sample_keeps_all_when_roomy():
    rng = np.random.default_rng(5)
    boxes = [ds.Box(0.0, 0.0, 0.1, 0.1, score=0.2),
             ds.Box(0.5, 0.5, 0.6, 0.6, score=0.9),
             ds.Box(0.8, 0.8, 0.9, 0.9, score=0.6)]
    kept = ds.proposal_sample(boxes, top_n=10, iou_threshold=1.0 - 1e-9)
    assert [b.score for b in kept] == [0.9, 0.6, 0.2]


def test_proposal_sample_top1_is_best():
    boxes = [ds.Box(0.0, 0.0, 0.1, 0.1, score=0.2),
             ds.Box(0.5, 0.5, 0.6, 0.6, score=0.9)]
    kept = ds.proposal_sample(boxes, top_n=1)
    assert kept == [boxes[1]]


def test_proposal_sample_matches_sort_then_nms_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        boxes = [random_box(rng) for _ in range(n)]
        top_n = int(rng.integers(1, 12))
        thr = float(rng.uniform(0.2, 0.8))
        order = sorted(range(n), key=lambda i: (-boxes[i].score, i))
        want = brute_force_nms([boxes[i] for i in order[:top_n]], thr)
        assert ds.proposal_sample(boxes, top_n, thr) == want


def test_proposal_sample_rejects_bad_inputs():
    with pytest.raises(ValueError, match="proposals"):
        ds.proposal_sample([], 3)
    with pytest.raises(ValueError, match="top_n"):
        ds.proposal_sample([ds.Box(0.0, 0.0, 0.5, 0.5, score=0.5)], 0)


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
    assert syn.mentioned_classes([10, 7]) == {3}
    assert syn.mentioned_classes([3, 4]) == {3, 4}
    assert syn.to_json() == {"3": [3, 10], "4": [4]}
    assert ds.SynonymMap.from_json(syn.to_json()) == syn


# --- noise metric -----------------------------------------------------------------


def make_record(tokens, true_objects, hallucinated, box=None):
    return ds.CaptionRecord(
        box=box or ds.Box(0.1, 0.1, 0.5, 0.5),
        tokens=tuple(tokens),
        true_objects=frozenset(true_objects),
        hallucinated=frozenset(hallucinated),
    )


def test_noise_metric_clean_corpus_is_zero():
    syn = ds.SynonymMap(forms={1: (1,), 2: (2,)})
    records = [make_record([1, 99], {1}, set()),
               make_record([2], {2}, set())]
    assert ds.caption_noise_metric(records, syn) == 0.0


def test_noise_metric_all_absent_is_hundred():
    syn = ds.SynonymMap(forms={1: (1,), 2: (2,)})
    records = [make_record([1], {2}, {1}), make_record([2], {1}, {2})]
    assert ds.caption_noise_metric(records, syn) == pytest.approx(100.0)


def test_noise_metric_one_of_four_is_25_percent():
    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 5)})
    records = [make_record([1, 2, 3, 4], {1, 2, 3}, {4})]
    assert ds.caption_noise_metric(records, syn) == pytest.approx(25.0)


def test_noise_metric_counts_synonym_mentions():
    syn = ds.SynonymMap(forms={1: (1, 10), 2: (2,)})
    records = [make_record([10, 2], {2}, {1})]  # class 1 mentioned via 10
    assert ds.caption_noise_metric(records, syn) == pytest.approx(50.0)


def test_noise_metric_invariant_to_order_and_duplication():
    syn = ds.SynonymMap(forms={i: (i,) for i in range(1, 5)})
    records = [make_record([1, 2], {1}, {2}),
               make_record([3], {3}, set()),
               make_record([4, 1], {4, 1}, set())]
    base = ds.caption_noise_metric(records, syn)
    assert ds.caption_noise_metric(records[::-1], syn) == pytest.approx(base)
    assert ds.caption_noise_metric(records * 2, syn) == pytest.approx(base)


def test_noise_metric_rejects_empty_and_unmentioned():
    syn = ds.SynonymMap(forms={1: (1,)})
    with pytest.raises(ValueError, match="no records"):
        ds.caption_noise_metric([], syn)
    with pytest.raises(ValueError, match="mentions no"):
        ds.caption_noise_metric([make_record([99], set(), set())], syn)


def test_caption_record_validation():
    with pytest.raises(ValueError, match="disjoint|absent"):
        make_record([1], {1}, {1})
    with pytest.raises(ValueError, match="token"):
        make_record([], {1}, set())


def test_record_from_json_rejects_negative_ids():
    # a negative token id would silently read the last embedding row
    good = json.loads(ds.record_to_json(make_record([4, 1], {4}, {5})))
    assert ds.record_from_json(json.dumps(good)) == make_record([4, 1], {4},
                                                                {5})
    for field in ("tokens", "true_objects", "hallucinated"):
        bad = dict(good, **{field: good[field] + [-1]})
        with pytest.raises(ValueError, match=f"negative id in {field}"):
            ds.record_from_json(json.dumps(bad))


def test_write_corpus_is_atomic(tmp_path):
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, [make_record([4], {4}, set())])
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        ds.write_corpus(path, [make_record([7], {7}, set()), None])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


# --- corpus generation -----------------------------------------------------------


def test_corpus_reproducible_and_serialization_round_trips(tmp_path):
    tree = ds.ConceptTree.balanced(3, 4)
    rec1, gt1 = ds.synth_corpus(tree, scenes=5, noise_rate=0.2, seed=9)
    rec2, gt2 = ds.synth_corpus(tree, scenes=5, noise_rate=0.2, seed=9)
    assert rec1 == rec2
    assert gt1 == gt2
    path = tmp_path / "corpus.jsonl"
    ds.write_corpus(path, rec1)
    first = path.read_bytes()
    ds.write_corpus(path, rec2)
    assert path.read_bytes() == first
    assert ds.read_corpus(path) == rec1


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
    assert all(not r.hallucinated for r in records)
    assert ds.caption_noise_metric(records, syn) == 0.0


def test_noisy_corpus_injection_rate_tracks_rho():
    tree = ds.ConceptTree.balanced(5, 4)
    records, _ = ds.synth_corpus(tree, scenes=900, noise_rate=0.3, seed=4)
    assert len(records) >= 10_000
    frac = sum(1 for r in records if r.hallucinated) / len(records)
    assert abs(frac - 0.3) <= 0.01


def test_corpus_records_entail_their_objects():
    tree = ds.ConceptTree.balanced(3, 4)
    syn = ds.default_synonyms(tree)
    records, scene_objects = ds.synth_corpus(tree, scenes=8, noise_rate=0.4,
                                             seed=5, synonyms=syn)
    for rec in records:
        mentioned = syn.mentioned_classes(rec.tokens)
        assert rec.true_objects <= mentioned
        assert rec.hallucinated <= mentioned
        assert not (rec.hallucinated & rec.true_objects)
        # caption also names at least one ancestor attribute
        ancestors = set(tree.ancestors(next(iter(rec.true_objects))))
        assert ancestors & set(rec.tokens)
        scene_classes = {o.cls for o in scene_objects[rec.scene]}
        assert rec.true_objects <= scene_classes
        assert rec.gt_box in [o.box for o in scene_objects[rec.scene]]


def test_corpus_rejects_bad_noise_rate():
    tree = ds.ConceptTree.balanced(2, 2)
    with pytest.raises(ValueError, match="noise rate"):
        ds.synth_corpus(tree, scenes=1, noise_rate=1.0, seed=0)
    with pytest.raises(ValueError, match="scenes"):
        ds.synth_corpus(tree, scenes=0, noise_rate=0.0, seed=0)


def test_hallucinations_prefer_siblings():
    tree = ds.ConceptTree.balanced(categories=6, leaves_per_category=4)
    records, _ = ds.synth_corpus(tree, scenes=400, noise_rate=0.8, seed=6)
    parents = tree.parent_map()
    sibling = 0
    total = 0
    for rec in records:
        if not rec.hallucinated:
            continue
        leaf = next(iter(rec.true_objects))
        inject = next(iter(rec.hallucinated))
        total += 1
        sibling += int(parents[inject] == parents[leaf])
    # 3 siblings at weight 4 vs 20 non-siblings at weight 1 -> p(sib) = 12/32
    assert total > 500
    assert abs(sibling / total - 12 / 32) < 0.05
