"""Region sampling, box geometry, and the synthetic caption corpus.

The corpus stands in for a captioner run over region crops: every record
pairs a region with a token sequence that entails the region's object (its
leaf concept plus sampled ancestor attributes).  Hallucination noise is
injected at a controlled rate as co-occurrence-correlated absent leaves,
and measured back with a CHAIR-style incorrect-object percentage.

A corpus is one :class:`Corpus` of numpy columns, built and checked once
at its boundary (generation or ``read_corpus``); every consumer reads the
columns.  Corpus files are UTF-8 JSON lines with a schema version field
("v1"); generation is single-threaded and fully determined by the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

DEFAULT_GRID_K = 3
DEFAULT_NMS_THRESHOLD = 0.5
SCHEMA_VERSION = "v1"

#: Co-occurrence weight of a sibling leaf relative to a non-sibling when
#: sampling hallucinated mentions.
SIBLING_WEIGHT = 4.0


# ---------------------------------------------------------------------------
# boxes: n x 4 corner rows (x1, y1, x2, y2) in normalized image coordinates,
# and n x 5 scored rows whose last column is the objectness score


def grid_sample(k: int) -> np.ndarray:
    """The k x k tiling of the unit image: k*k corner rows, row-major."""
    if k < 1:
        raise ValueError(f"grid size must be >= 1, got {k}")
    i, j = np.divmod(np.arange(k * k), k)
    return np.stack([j / k, i / k, (j + 1) / k, (i + 1) / k], axis=1)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of every row of ``a`` with every row of
    ``b``: corner rows (x1, y1, x2, y2), n x 4 and m x 4, give n x m.

    The IoU of two boxes is the 1 x 1 case.  Each entry takes the same
    float64 operations, in the same order, as ``inter / (area_a + area_b -
    inter)`` on Python floats, so it has the same bits.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 4 or b.shape[1] != 4:
        raise ValueError(f"iou takes n x 4 corner rows, got shapes {a.shape} "
                         f"and {b.shape}")
    # (width, height) of every intersection, then of every box
    wh = np.maximum(0.0, np.minimum(a[:, None, 2:], b[None, :, 2:])
                    - np.maximum(a[:, None, :2], b[None, :, :2]))
    inter = wh[..., 0] * wh[..., 1]
    size_a, size_b = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]
    area_a, area_b = size_a[:, 0] * size_a[:, 1], size_b[:, 0] * size_b[:, 1]
    return inter / (area_a[:, None] + area_b - inter)


_CORNERS = ("x1", "y1", "x2", "y2")


def _first(bad: np.ndarray) -> Optional[int]:
    """Index of the first true entry of a boolean vector, or None."""
    hits = bad.nonzero()[0]
    return int(hits[0]) if hits.size else None


def _fail_first(checks: list, where: str) -> None:
    """Raise ``ValueError(f"{where}{i}: ...")`` for the lowest row i that
    fails a ``(failing rows, message for row i)`` check; the checks of a
    row are tried in order."""
    failing = [(i, text) for bad, text in checks
               for i in [_first(bad)] if i is not None]
    if failing:
        i, text = min(failing, key=lambda pair: pair[0])
        raise ValueError(f"{where}{i}: {text(i)}")


def _box_check(field: str, rows: np.ndarray, live) -> tuple:
    """(failing rows, message for row i): a live n x 4 corner row needs
    0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1, and an area that does not
    underflow to 0 (its IoU would be 0/0)."""
    lo, hi = rows[:, :2], rows[:, 2:]
    valid = (0.0 <= lo) & (lo < hi) & (hi <= 1.0)
    size = hi - lo

    def message(i):
        outside = ~((rows[i] >= 0.0) & (rows[i] <= 1.0))
        if outside.any():
            j = int(np.argmax(outside))
            return (f"{field} coordinate {_CORNERS[j]}={float(rows[i, j])} "
                    "outside [0, 1]")
        if not valid[i].all():
            return f"{field} requires x1 < x2 and y1 < y2"
        return f"{field} area (x2 - x1) * (y2 - y1) is 0"

    return (live & ~(valid[:, 0] & valid[:, 1]
                     & (size[:, 0] * size[:, 1] > 0.0)), message)


def _score_check(scores: np.ndarray, scored) -> tuple:
    return (scored & ~((scores >= 0.0) & (scores <= 1.0)),
            lambda i: f"objectness score {scores[i]} outside [0, 1]")


def _scored_rows(boxes) -> np.ndarray:
    """``boxes`` as a checked n x 5 float array of scored rows."""
    rows = np.asarray(boxes, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ValueError("boxes must be n x 5 scored rows (x1, y1, x2, y2, "
                         f"score), got shape {rows.shape}")
    _fail_first([_box_check("box", rows[:, :4], True),
                 _score_check(rows[:, 4], True)], "box ")
    return rows


def nms(boxes, iou_threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression of n x 5 scored rows, by descending
    score: the kept rows, in the order they are kept.

    A box is kept iff its IoU with every previously kept box is strictly
    below the threshold; score ties break toward the lower original index.
    The IoU of every pair comes from one :func:`iou` call.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    rows = _scored_rows(boxes)
    order = np.argsort(-rows[:, 4], kind="stable").tolist()
    overlaps = iou(rows[:, :4], rows[:, :4]).tolist()
    kept: list = []
    for i in order:
        if all(overlaps[i][k] < iou_threshold for k in kept):
            kept.append(i)
    return rows[kept]


def proposal_sample(proposals, top_n: int,
                    iou_threshold: float = DEFAULT_NMS_THRESHOLD
                    ) -> np.ndarray:
    """Keep the top_n highest-objectness of n x 5 scored rows (ties toward
    the lower index), then de-duplicate them with :func:`nms`."""
    if not len(proposals):
        raise ValueError("no proposals to sample from")
    if top_n <= 0:
        raise ValueError(f"top_n must be positive, got {top_n}")
    rows = _scored_rows(proposals)
    return nms(rows[np.argsort(-rows[:, 4], kind="stable")[:top_n]],
               iou_threshold)


# ---------------------------------------------------------------------------
# concept tree and synonyms


@dataclass(frozen=True)
class ConceptTree:
    """Rooted concept hierarchy; leaves are object classes.

    Internal nodes act as attribute concepts that captions may mention
    alongside the leaf they entail.  The nodes, leaves and parent map are
    computed once, when the tree is built and checked; the accessors return
    copies.
    """

    root: int
    children: dict

    def __post_init__(self):
        children = {int(k): tuple(int(c) for c in v)
                    for k, v in self.children.items()}
        object.__setattr__(self, "children", children)
        seen = set()
        stack = [(self.root, 0)]
        max_depth = 0
        while stack:
            node, depth = stack.pop()
            if node in seen:
                raise ValueError(f"node {node} reachable twice (not a tree)")
            seen.add(node)
            max_depth = max(max_depth, depth)
            for c in children.get(node, ()):
                stack.append((c, depth + 1))
        referenced = {c for cs in children.values() for c in cs}
        referenced.add(self.root)
        unreachable = referenced - seen
        if unreachable:
            raise ValueError(f"unreachable nodes: {sorted(unreachable)}")
        if max_depth < 2:
            raise ValueError("concept tree must have depth >= 2")
        nodes = sorted(seen)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_leaves",
                           [n for n in nodes if not children.get(n)])
        object.__setattr__(self, "_parents",
                           {c: n for n, cs in children.items() for c in cs})

    def leaves(self) -> list:
        return list(self._leaves)

    def nodes(self) -> list:
        return list(self._nodes)

    def parent_map(self) -> dict:
        return dict(self._parents)

    def ancestors(self, node: int) -> list:
        """Ancestors from the immediate parent up to the root."""
        out = []
        while node in self._parents:
            node = self._parents[node]
            out.append(node)
        return out

    @classmethod
    def balanced(cls, categories: int, leaves_per_category: int
                 ) -> "ConceptTree":
        """Root 0, categories 1..C, then leaves in category order."""
        if categories < 1 or leaves_per_category < 1:
            raise ValueError("categories and leaves_per_category must be >= 1")
        children = {0: tuple(range(1, categories + 1))}
        next_id = categories + 1
        for cat in range(1, categories + 1):
            children[cat] = tuple(range(next_id, next_id + leaves_per_category))
            next_id += leaves_per_category
        return cls(root=0, children=children)

    def to_json(self) -> dict:
        return {"root": self.root,
                "children": {str(k): list(v)
                             for k, v in sorted(self.children.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "ConceptTree":
        return cls(root=int(data["root"]), children=data["children"])


@dataclass(frozen=True)
class SynonymMap:
    """Object class id -> surface-form token ids (always including itself)."""

    forms: dict

    def __post_init__(self):
        forms = {int(k): tuple(int(f) for f in v)
                 for k, v in sorted(self.forms.items())}
        for cls_id, surface in forms.items():
            if cls_id not in surface:
                raise ValueError(f"class {cls_id} missing from its own forms")
        object.__setattr__(self, "forms", forms)

    def mentions(self, tokens: "IdLists") -> np.ndarray:
        """Records x classes (in class order): whether any of a record's
        tokens is a surface form of the class.  Every record needs a
        token."""
        top = self.max_token_id() + 1
        table = np.zeros((top + 1, len(self.forms)), dtype=bool)
        for col, surface in enumerate(self.forms.values()):
            table[list(surface), col] = True
        # ids past every surface form land on the last row, which is empty
        rows = table[np.minimum(tokens.values, top)]
        return np.logical_or.reduceat(rows, tokens.offsets[:-1], axis=0)

    def max_token_id(self) -> int:
        return max(max(surface) for surface in self.forms.values())

    def to_json(self) -> dict:
        return {str(k): list(v) for k, v in self.forms.items()}

    @classmethod
    def from_json(cls, data: dict) -> "SynonymMap":
        return cls(forms={int(k): v for k, v in data.items()})


def default_synonyms(tree: ConceptTree) -> SynonymMap:
    """One extra surface form for every other leaf, ids after the tree's."""
    leaves = tree.leaves()
    next_id = max(tree.nodes()) + 1
    forms = {}
    for pos, leaf in enumerate(leaves):
        if pos % 2 == 0:
            forms[leaf] = (leaf, next_id)
            next_id += 1
        else:
            forms[leaf] = (leaf,)
    return SynonymMap(forms=forms)


# ---------------------------------------------------------------------------
# the caption corpus: one column per field

@dataclass(frozen=True, eq=False)
class IdLists:
    """One list of ids per record, stored flat: record i owns
    ``values[offsets[i]:offsets[i + 1]]``."""

    values: np.ndarray     # int64
    offsets: np.ndarray    # int64, one more entry than records

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, IdLists)
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.offsets, other.offsets))

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def owner(self) -> np.ndarray:
        """The record each id belongs to."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def rows_with(self, flagged: np.ndarray) -> np.ndarray:
        """Per record, whether any of its ids is flagged (one flag per id)."""
        return np.bincount(self.owner()[flagged], minlength=len(self)) > 0

    def row(self, i: int) -> list:
        return self.values[self.offsets[i]:self.offsets[i + 1]].tolist()

    def lists(self) -> list:
        values, bounds = self.values.tolist(), self.offsets.tolist()
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]

    def take(self, rows: np.ndarray) -> "IdLists":
        """The lists of the given records (nonnegative indices), in order."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        index = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1],
                                                   lengths)
        return IdLists(self.values[index], offsets)


def _repeats(owner: np.ndarray, values: np.ndarray) -> tuple:
    """The (record, id) pairs sorted by record then id, and a mask of the
    pairs equal to the one before."""
    order = np.lexsort((values, owner))
    owner, values = owner[order], values[order]
    repeat = np.zeros(len(values), dtype=bool)
    repeat[1:] = (owner[1:] == owner[:-1]) & (values[1:] == values[:-1])
    return owner, values, repeat


def _distinct(ids: IdLists) -> IdLists:
    """Each list sorted, without repeats."""
    owner, values, repeat = _repeats(ids.owner(), ids.values)
    lengths = np.bincount(owner[~repeat], minlength=len(ids))
    return IdLists(values[~repeat], np.concatenate(([0], np.cumsum(lengths))))


def _integers(values: list, field: str, record_of, fail) -> np.ndarray:
    """An int64 array of integers (a boolean is not one); any other value
    fails, naming the record ``record_of(position)``."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    for k, v in enumerate(values):
        if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                or not -2**63 <= v < 2**63):
            fail(record_of(k), f"{field}: {v!r} is not a 64-bit integer")
    return np.array(values, dtype=np.int64)


def _id_lists(lists: list, field: str, fail) -> IdLists:
    if not set(map(type, lists)) <= {list, tuple}:
        i = next(i for i, v in enumerate(lists)
                 if not isinstance(v, (list, tuple)))
        fail(i, f"{field}: {lists[i]!r} is not a list of ids")
    offsets = np.concatenate(([0], np.cumsum(list(map(len, lists)),
                                             dtype=np.int64)))
    values = _integers(
        list(chain.from_iterable(lists)), field,
        lambda k: int(np.searchsorted(offsets, k, side="right")) - 1, fail)
    return IdLists(values, offsets)


def _floats(values: list, field: str, shape: tuple, fail) -> np.ndarray:
    """One float64 entry of ``shape`` per record (None reads as NaN)."""
    try:
        out = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        out = None
    if out is not None and out.shape == (len(values),) + shape:
        return out
    for i, v in enumerate(values):
        try:
            bad = np.array(v, dtype=np.float64).shape != shape
        except (TypeError, ValueError):
            bad = True
        if bad:
            fail(i, f"{field}: {v!r} is not "
                    + ("[x1, y1, x2, y2]" if shape else "a number or null"))
    return np.zeros((0,) + shape)


def _negative_check(field: str, ids: IdLists) -> tuple:
    return (ids.rows_with(ids.values < 0),
            lambda i: f"negative id in {field}: {min(ids.row(i))}")


@dataclass(frozen=True, eq=False)
class Corpus:
    """Caption records as columns: record i pairs region ``box[i]`` with
    its caption ``tokens``, the objects truly present in it and any
    injected hallucinated objects (always disjoint from the true ones).

    ``box`` and ``gt_box`` are n x 4 float rows (x1, y1, x2, y2); a record
    without a ground-truth box has a NaN ``gt_box`` row, and an unscored
    region a NaN ``score``.  ``scene`` is an int64 vector.  The id fields
    are :class:`IdLists`; ``true_objects`` and ``hallucinated`` lists are
    sorted and distinct.  :meth:`from_lists` builds one and checks every
    field; indexing with a slice, index array or mask selects records.
    """

    box: np.ndarray
    score: np.ndarray
    gt_box: np.ndarray
    scene: np.ndarray
    tokens: IdLists
    true_objects: IdLists
    hallucinated: IdLists

    def __len__(self) -> int:
        return len(self.scene)

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray)
            else a == b for a, b in zip(vars(self).values(),
                                        vars(other).values()))

    def __getitem__(self, rows) -> "Corpus":
        rows = np.arange(len(self))[rows]
        if rows.ndim != 1:
            raise TypeError("select records with a slice, an index array "
                            "or a boolean mask")
        return Corpus(*(column[rows] if isinstance(column, np.ndarray)
                        else column.take(rows)
                        for column in vars(self).values()))

    def leaves(self) -> np.ndarray:
        """Each record's class: the smallest of its true objects."""
        true = self.true_objects
        empty = _first(true.lengths() == 0)
        if empty is not None:
            raise ValueError(f"record {empty}: true_objects is empty, so "
                             "the record has no class")
        return np.minimum.reduceat(true.values, true.offsets[:-1])

    @classmethod
    def from_lists(cls, box: list, tokens: list, true_objects: list,
                   hallucinated: list, score: Optional[list] = None,
                   gt_box: Optional[list] = None,
                   scene: Optional[list] = None,
                   where: str = "") -> "Corpus":
        """Check per-record values and store them as columns.

        Every argument holds one entry per record: ``box`` and ``gt_box``
        corner lists ``[x1, y1, x2, y2]`` (a ``gt_box`` may be None; it
        has no score), ``score`` a number or None, ``scene`` an integer,
        and the id fields lists of nonnegative integers.  Omitted columns
        mean unscored, no ground truth and scene 0.  The lowest failing
        record raises a ValueError ``{where}record {i}: {field} ...``.
        """
        n = len(box)
        score = [None] * n if score is None else score
        gt_box = [None] * n if gt_box is None else gt_box
        scene = [0] * n if scene is None else scene
        if any(len(column) != n for column in (
                tokens, true_objects, hallucinated, score, gt_box, scene)):
            raise ValueError(f"{where}every column needs one entry per "
                             f"record ({n})")

        def fail(i, text):
            raise ValueError(f"{where}record {i}: {text}")

        ids = {field: _id_lists(lists, field, fail) for field, lists in (
            ("tokens", tokens), ("true_objects", true_objects),
            ("hallucinated", hallucinated))}
        scenes = _integers(scene, "scene", int, fail)
        boxes = _floats(box, "box", (4,), fail)
        gts = _floats([[math.nan] * 4 if b is None else b for b in gt_box],
                      "gt_box", (4,), fail)
        scores = _floats(score, "score", (), fail)
        scored = np.array([s is not None for s in score], dtype=bool)
        has_gt = np.array([b is not None for b in gt_box], dtype=bool)
        true = _distinct(ids["true_objects"])
        hall = _distinct(ids["hallucinated"])
        owner, _, shared = _repeats(np.concatenate((true.owner(),
                                                    hall.owner())),
                                    np.concatenate((true.values,
                                                    hall.values)))

        _fail_first(
            [_box_check("box", boxes, True), _score_check(scores, scored),
             _box_check("gt_box", gts, has_gt)]
            + [_negative_check(field, lists) for field, lists in ids.items()]
            + [(ids["tokens"].lengths() == 0,
                lambda i: "tokens is empty: a caption needs at least one "
                          "token"),
               (np.bincount(owner[shared], minlength=n) > 0,
                lambda i: "hallucinated ids must be absent from "
                          "true_objects")], f"{where}record ")
        return cls(box=boxes, score=scores, gt_box=gts, scene=scenes,
                   tokens=ids["tokens"], true_objects=true,
                   hallucinated=hall)


def caption_noise_metric(records: Corpus, synonyms: SynonymMap) -> float:
    """Percentage of incorrectly described objects.

    Per record, the fraction of mentioned object classes (resolved through
    the synonym map) that are absent from the record's ground truth,
    averaged over records and scaled to percent.  Invariant to record
    order and to duplicating every record.
    """
    n = len(records)
    if not n:
        raise ValueError("no records to score")
    mentioned = synonyms.mentions(records.tokens)
    silent = _first(~mentioned.any(axis=1))
    if silent is not None:
        raise ValueError(f"record {silent} mentions no object classes")
    classes = np.array(list(synonyms.forms))
    true = records.true_objects
    col = np.minimum(np.searchsorted(classes, true.values), len(classes) - 1)
    hit = classes[col] == true.values
    truth = np.zeros_like(mentioned)
    truth[true.owner()[hit], col[hit]] = True
    fractions = (mentioned & ~truth).sum(axis=1) / mentioned.sum(axis=1)
    # a running total in record order, as a loop over records would sum
    return float(np.add.accumulate(fractions)[-1]) / n * 100.0


# ---------------------------------------------------------------------------
# corpus generation


def _random_box(rng) -> list:
    """A corner row around a uniform centre, clipped to the image."""
    cx, cy = rng.uniform(0.15, 0.85, size=2).tolist()
    w, h = rng.uniform(0.15, 0.45, size=2).tolist()
    return [max(0.0, cx - w / 2), max(0.0, cy - h / 2),
            min(1.0, cx + w / 2), min(1.0, cy + h / 2)]


def _jitter_box(rng, box: np.ndarray, scale: float, score: float) -> list:
    """A scored row: ``box`` moved by Gaussian noise, at least 0.02 wide
    and high."""
    x1, y1, x2, y2 = (box + rng.normal(scale=scale, size=4)).tolist()
    x1, y1 = min(max(x1, 0.0), 0.97), min(max(y1, 0.0), 0.97)
    return [x1, y1, max(min(x2, 1.0), x1 + 0.02),
            max(min(y2, 1.0), y1 + 0.02), score]


def synth_corpus(tree: ConceptTree, scenes: int, noise_rate: float,
                 seed: int, synonyms: Optional[SynonymMap] = None,
                 k: int = DEFAULT_GRID_K, objects_per_scene: int = 3,
                 top_n: int = 4,
                 iou_threshold: float = DEFAULT_NMS_THRESHOLD,
                 min_match_iou: float = 0.05,
                 ancestor_keep_prob: float = 0.7,
                 sibling_weight: float = SIBLING_WEIGHT):
    """Generate caption records over B (truth), P (proposals), G (grid).

    Every region is matched to the scene object of highest IoU and given a
    caption entailing that object: one surface-form mention of its leaf
    plus sampled ancestor attributes.  With probability ``noise_rate`` the
    caption additionally mentions one co-occurrence-correlated leaf that
    is absent from the region's ground truth; injected ids go to the
    ``hallucinated`` set.  Proposal objectness is synthetic (there is no
    detector in the loop to score regions at generation time).

    A scene's objects are corner rows, its proposals scored rows and its
    regions (objects, sampled proposals, grid) one array of corner rows,
    matched to the objects by one :func:`iou` call.  What a leaf's
    captions draw from is built once per call; per region only the draws
    remain, in as few ``Generator`` calls as give the same stream.

    Returns ``(records, (classes, boxes))``: a :class:`Corpus`, and the
    class ids (scenes x objects) and corner rows (scenes x objects x 4) of
    every scene's objects.  Byte-identical for a fixed seed and arguments.
    """
    if not (0.0 <= noise_rate < 1.0):
        raise ValueError(f"noise rate must be in [0, 1), got {noise_rate}")
    if scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {scenes}")
    if synonyms is None:
        synonyms = default_synonyms(tree)
    rng = np.random.default_rng(seed)
    leaves = tree.leaves()
    leaf_ids = np.array(leaves)
    leaf_parents = np.array(list(map(tree.parent_map().get, leaves)))
    n_obj = min(objects_per_scene, len(leaves))
    grid = grid_sample(k)
    picked, objects = [], []
    columns: dict = {name: [] for name in (
        "box", "tokens", "true_objects", "hallucinated", "score", "gt_box",
        "scene")}
    # leaf index -> (its surface forms, ancestors, the other leaves and the
    # cumulative distribution of a hallucinated mention over them, as
    # Generator.choice builds it: siblings weigh sibling_weight, the rest
    # 1); built on first use, as a table of every leaf is leaves x leaves
    draws: dict = {}

    def leaf_draws(i: int) -> tuple:
        if i not in draws:
            candidates, cdf = np.delete(leaf_ids, i), None
            if len(candidates):
                weights = np.where(
                    np.delete(leaf_parents, i) == leaf_parents[i],
                    sibling_weight, 1.0)
                cdf = (weights / weights.sum()).cumsum()
                cdf /= cdf[-1]
            draws[i] = (synonyms.forms.get(leaves[i], (leaves[i],)),
                        tree.ancestors(leaves[i]), candidates, cdf)
        return draws[i]

    for scene_id in range(scenes):
        chosen = rng.choice(len(leaves), size=n_obj, replace=False).tolist()
        truth = np.array([_random_box(rng) for _ in chosen])
        picked.append(chosen)
        objects.append(truth)
        proposals = [_jitter_box(rng, box, 0.05, rng.uniform(0.6, 1.0))
                     for box in truth]
        for _ in range(top_n):
            proposals.append([*_random_box(rng), rng.uniform(0.0, 0.7)])
        sampled = proposal_sample(proposals, top_n, iou_threshold)
        regions = np.concatenate((truth, sampled[:, :4], grid))
        scores = [None] * n_obj + sampled[:, 4].tolist() + [None] * len(grid)
        overlaps = iou(regions, truth)
        best = overlaps.argmax(axis=1)
        matched = overlaps[np.arange(len(regions)), best] >= min_match_iou
        owners, gt_boxes = best[matched].tolist(), truth.tolist()
        columns["box"] += regions[matched].tolist()
        columns["score"] += [scores[r] for r in np.flatnonzero(matched)]
        columns["gt_box"] += [gt_boxes[j] for j in owners]
        columns["true_objects"] += [[leaves[chosen[j]]] for j in owners]
        columns["scene"] += [scene_id] * len(owners)
        for j in owners:
            surface, ancestors, candidates, cdf = leaf_draws(chosen[j])
            tokens = [surface[int(rng.integers(len(surface)))]]
            # one draw per ancestor (kept below ancestor_keep_prob), then
            # the noise draw
            uniforms = rng.random(len(ancestors) + 1).tolist()
            kept = [a for a, u in zip(ancestors, uniforms)
                    if u < ancestor_keep_prob]
            tokens.extend(kept or ancestors[:1])
            hallucinated = []
            if uniforms[-1] < noise_rate and cdf is not None:
                # Generator.choice(candidates, p=...), one draw
                inject = int(candidates[cdf.searchsorted(rng.random(),
                                                         side="right")])
                forms = synonyms.forms.get(inject, (inject,))
                tokens.append(forms[int(rng.integers(len(forms)))])
                hallucinated = [inject]
            order = rng.permutation(len(tokens)).tolist()
            columns["tokens"].append([tokens[i] for i in order])
            columns["hallucinated"].append(hallucinated)
    return Corpus.from_lists(**columns), (leaf_ids[picked], np.array(objects))


# ---------------------------------------------------------------------------
# serialization (one JSON object per line, schema "v1")


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds this
#: encoder on every call; one instance writes every line
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(payload) -> str:
    """Compact, key-sorted JSON text: the form of every file written."""
    return _ENCODER.encode(payload)


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a newline to ``path``, atomically.

    The text goes to a temporary file beside ``path`` that then replaces
    it, so an error part-way leaves the old file as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_corpus(path, records: Corpus) -> None:
    """One key-sorted JSON object per record, in record order."""
    unscored = np.isnan(records.score).tolist()
    no_gt = np.isnan(records.gt_box[:, 0]).tolist()
    rows = zip(records.scene.tolist(), records.box.tolist(),
               records.score.tolist(), unscored, records.gt_box.tolist(),
               no_gt, records.tokens.lists(), records.true_objects.lists(),
               records.hallucinated.lists())
    write_lines(path, (json_line({
        "v": SCHEMA_VERSION, "scene": scene, "box": box,
        "score": None if no_score else score,
        "gt_box": None if no_box else gt_box, "tokens": tokens,
        "true_objects": true, "hallucinated": hallucinated})
        for (scene, box, score, no_score, gt_box, no_box, tokens, true,
             hallucinated) in rows))


def _field(rows: list, name: str, where: str) -> list:
    try:
        return list(map(itemgetter(name), rows))
    except (KeyError, TypeError):
        i = next(i for i, row in enumerate(rows)
                 if not isinstance(row, dict) or name not in row)
        problem = (f"{name} missing" if isinstance(rows[i], dict)
                   else "not a JSON object")
        raise ValueError(f"{where}record {i}: {problem}") from None


def read_corpus(path) -> Corpus:
    """Load and check a corpus file.

    The non-blank lines are parsed as one JSON array; a line that is not a
    JSON value is found line by line only when that fails.  Records are
    numbered from 0 over the non-blank lines, and every error reads
    ``{path}: record {i}: {field} ...``.  ``score`` and ``gt_box`` may be
    absent (null) and ``scene`` defaults to 0.
    """
    where = f"{os.fspath(path)}: "
    with open(path, encoding="utf-8") as fh:
        lines = list(filter(str.strip, fh.read().split("\n")))
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        rows = None
    if rows is None or len(rows) != len(lines):
        for i, line in enumerate(lines):
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}record {i}: invalid JSON: {exc}"
                                 ) from None
    versions = _field(rows, "v", where)
    if versions.count(SCHEMA_VERSION) != len(rows):
        i = next(i for i, v in enumerate(versions) if v != SCHEMA_VERSION)
        raise ValueError(f"{where}record {i}: v: unsupported corpus schema "
                         f"{versions[i]!r}")
    return Corpus.from_lists(
        box=_field(rows, "box", where), tokens=_field(rows, "tokens", where),
        true_objects=_field(rows, "true_objects", where),
        hallucinated=_field(rows, "hallucinated", where),
        score=[row.get("score") for row in rows],
        gt_box=[row.get("gt_box") for row in rows],
        scene=[row.get("scene", 0) for row in rows], where=where)
