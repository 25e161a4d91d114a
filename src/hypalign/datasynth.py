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
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_GRID_K = 3
DEFAULT_NMS_THRESHOLD = 0.5
SCHEMA_VERSION = "v1"

#: Co-occurrence weight of a sibling leaf relative to a non-sibling when
#: sampling hallucinated mentions.
SIBLING_WEIGHT = 4.0


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned region in normalized image coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float
    score: Optional[float] = None

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"box coordinate {name}={v} outside [0, 1]")
            object.__setattr__(self, name, v)
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError("box requires x1 < x2 and y1 < y2")
        if self.score is not None:
            if not (0.0 <= self.score <= 1.0):
                raise ValueError(
                    f"objectness score {self.score} outside [0, 1]")
            object.__setattr__(self, "score", float(self.score))

    def coords(self) -> tuple:
        return (self.x1, self.y1, self.x2, self.y2)


def grid_sample(k: int) -> list:
    """Split the unit image into a k x k tiling (row-major)."""
    if k < 1:
        raise ValueError(f"grid size must be >= 1, got {k}")
    boxes = []
    for i in range(k):
        for j in range(k):
            boxes.append(Box(j / k, i / k, (j + 1) / k, (i + 1) / k))
    return boxes


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
    a, b = a[:, None, :], b[None, :, :]
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2])
                    - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3])
                    - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def nms(boxes: Sequence[Box], iou_threshold: float) -> list:
    """Greedy non-maximum suppression by descending score.

    A box is kept iff its IoU with every previously kept box is strictly
    below the threshold; score ties break toward the lower original index.
    The IoU of every pair comes from one :func:`iou` call.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    boxes = list(boxes)
    for i, b in enumerate(boxes):
        if b.score is None:
            raise ValueError(f"unscored box at index {i}")
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    corners = np.array([b.coords() for b in boxes]).reshape(-1, 4)
    overlaps = iou(corners, corners).tolist()
    kept: list = []
    for i in order:
        if all(overlaps[i][k] < iou_threshold for k in kept):
            kept.append(i)
    return [boxes[i] for i in kept]


def proposal_sample(proposals: Sequence[Box], top_n: int,
                    iou_threshold: float = DEFAULT_NMS_THRESHOLD) -> list:
    """Keep the top_n highest-objectness proposals, then de-duplicate."""
    proposals = list(proposals)
    if not proposals:
        raise ValueError("no proposals to sample from")
    if top_n <= 0:
        raise ValueError(f"top_n must be positive, got {top_n}")
    order = sorted(range(len(proposals)),
                   key=lambda i: (-proposals[i].score, i))
    shortlist = [proposals[i] for i in order[:top_n]]
    return nms(shortlist, iou_threshold)


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

_CORNERS = ("x1", "y1", "x2", "y2")


def _first(bad: np.ndarray) -> Optional[int]:
    """Index of the first true entry of a boolean vector, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


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


def _box_checks(field: str, rows: np.ndarray, live: np.ndarray) -> list:
    """(failing records, message) checks of the live n x 4 corner rows."""
    outside = live[:, None] & ~((rows >= 0.0) & (rows <= 1.0))

    def coordinate(i):
        j = int(np.argmax(outside[i]))
        return (f"{field} coordinate {_CORNERS[j]}={float(rows[i, j])} "
                "outside [0, 1]")

    ordered = (rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])
    return [(outside.any(axis=1), coordinate),
            (live & ~ordered,
             lambda i: f"{field} requires x1 < x2 and y1 < y2")]


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

        # (failing records, message for record i), in the order a record
        # is checked; the lowest failing record is reported
        checks = (
            _box_checks("box", boxes, np.ones(n, dtype=bool))
            + [(scored & ~((scores >= 0.0) & (scores <= 1.0)),
                lambda i: f"objectness score {scores[i]} outside [0, 1]")]
            + _box_checks("gt_box", gts, has_gt)
            + [_negative_check(field, lists) for field, lists in ids.items()]
            + [(ids["tokens"].lengths() == 0,
                lambda i: "tokens is empty: a caption needs at least one "
                          "token"),
               (np.bincount(owner[shared], minlength=n) > 0,
                lambda i: "hallucinated ids must be absent from "
                          "true_objects")])
        failing = [(i, message) for bad, message in checks
                   for i in [_first(bad)] if i is not None]
        if failing:
            i, message = min(failing, key=lambda pair: pair[0])
            fail(i, message(i))
        return cls(box=boxes, score=scores, gt_box=gts, scene=scenes,
                   tokens=ids["tokens"], true_objects=true,
                   hallucinated=hall)


@dataclass(frozen=True)
class SceneObject:
    cls: int
    box: Box


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


def _random_box(rng) -> Box:
    cx, cy = rng.uniform(0.15, 0.85, size=2)
    w, h = rng.uniform(0.15, 0.45, size=2)
    x1, x2 = max(0.0, cx - w / 2), min(1.0, cx + w / 2)
    y1, y2 = max(0.0, cy - h / 2), min(1.0, cy + h / 2)
    return Box(x1, y1, x2, y2)


def _jitter_box(rng, box: Box, scale: float, score: float) -> Box:
    d = rng.normal(scale=scale, size=4)
    x1 = min(max(box.x1 + d[0], 0.0), 0.97)
    y1 = min(max(box.y1 + d[1], 0.0), 0.97)
    x2 = max(min(box.x2 + d[2], 1.0), x1 + 0.02)
    y2 = max(min(box.y2 + d[3], 1.0), y1 + 0.02)
    return Box(x1, y1, x2, y2, score=score)


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

    Scene objects and proposals are :class:`Box` objects; the regions of a
    scene are one array of corner rows, matched to the scene's objects by
    one :func:`iou` call.  A leaf's ancestors and co-occurrence
    probabilities are computed once per call, when the leaf is first
    matched.  Per region, only the random draws remain.

    Returns ``(records, scene_objects)``: a :class:`Corpus` and, in
    ``scene_objects[s]``, the ground-truth objects of scene ``s``.
    Byte-identical for a fixed seed and arguments.
    """
    if not (0.0 <= noise_rate < 1.0):
        raise ValueError(f"noise rate must be in [0, 1), got {noise_rate}")
    if scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {scenes}")
    if synonyms is None:
        synonyms = default_synonyms(tree)
    rng = np.random.default_rng(seed)
    leaves = tree.leaves()
    parents = tree.parent_map()
    leaf_ids = np.array(leaves)
    leaf_parents = np.array([parents[leaf] for leaf in leaves])
    n_obj = min(objects_per_scene, len(leaves))
    grid = np.array([box.coords() for box in grid_sample(k)])
    columns: dict = {name: [] for name in (
        "box", "tokens", "true_objects", "hallucinated", "score", "gt_box",
        "scene")}
    all_scene_objects: list = []
    # leaf index -> (ancestors, the other leaves, the probability that a
    # noisy caption mentions each: siblings weigh sibling_weight, the rest
    # 1); built on first use, as a table of every leaf is leaves x leaves
    draws: dict = {}

    def leaf_draws(i: int) -> tuple:
        if i not in draws:
            weights = np.where(np.delete(leaf_parents, i) == leaf_parents[i],
                               sibling_weight, 1.0)
            draws[i] = (tree.ancestors(leaves[i]), np.delete(leaf_ids, i),
                        weights / weights.sum())
        return draws[i]

    for scene_id in range(scenes):
        chosen = rng.choice(len(leaves), size=n_obj, replace=False).tolist()
        scene_objects = [SceneObject(cls=leaves[i], box=_random_box(rng))
                         for i in chosen]
        all_scene_objects.append(scene_objects)

        proposals = []
        for obj in scene_objects:
            proposals.append(_jitter_box(rng, obj.box, 0.05,
                                         float(rng.uniform(0.6, 1.0))))
        for _ in range(top_n):
            base = _random_box(rng)
            proposals.append(Box(base.x1, base.y1, base.x2, base.y2,
                                 score=float(rng.uniform(0.0, 0.7))))
        sampled = proposal_sample(proposals, top_n, iou_threshold)
        truth = [obj.box.coords() for obj in scene_objects]
        regions = np.concatenate(
            (np.array(truth + [box.coords() for box in sampled]), grid))
        scores = ([None] * n_obj + [box.score for box in sampled]
                  + [None] * len(grid))
        overlaps = iou(regions, np.array(truth))
        best = overlaps.argmax(axis=1)
        matched = overlaps[np.arange(len(regions)), best] >= min_match_iou

        for r, region, j in zip(np.flatnonzero(matched).tolist(),
                                regions[matched].tolist(),
                                best[matched].tolist()):
            leaf = leaves[chosen[j]]
            ancestors, candidates, probs = leaf_draws(chosen[j])
            surface = synonyms.forms.get(leaf, (leaf,))
            tokens = [int(surface[int(rng.integers(len(surface)))])]
            kept = [a for a in ancestors
                    if rng.uniform() < ancestor_keep_prob]
            if not kept and ancestors:
                kept = [ancestors[0]]
            tokens.extend(kept)
            hallucinated = []
            if rng.uniform() < noise_rate and len(candidates):
                inject = int(rng.choice(candidates, p=probs))
                forms = synonyms.forms.get(inject, (inject,))
                tokens.append(int(forms[int(rng.integers(len(forms)))]))
                hallucinated = [inject]
            order = rng.permutation(len(tokens)).tolist()
            for name, value in (
                    ("box", region),
                    ("tokens", [tokens[i] for i in order]),
                    ("true_objects", [leaf]),
                    ("hallucinated", hallucinated),
                    ("score", scores[r]),
                    ("gt_box", truth[j]),
                    ("scene", scene_id)):
                columns[name].append(value)
    return Corpus.from_lists(**columns), all_scene_objects


# ---------------------------------------------------------------------------
# serialization (one JSON object per line, schema "v1")


def json_line(payload) -> str:
    """Compact, key-sorted JSON text: the form of every file written."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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
