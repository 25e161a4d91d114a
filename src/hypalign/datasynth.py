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

import gc
import json
import math
import os
import reprlib
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np
import orjson

DEFAULT_GRID_K = 3
DEFAULT_NMS_THRESHOLD = 0.5
SCHEMA_VERSION = "v1"

#: Co-occurrence weight of a sibling leaf relative to a non-sibling when
#: sampling hallucinated mentions.
SIBLING_WEIGHT = 4.0
#: The least IoU with a scene object at which a region is captioned.
MIN_MATCH_IOU = 0.05
#: The chance that a caption mentions each ancestor of its object's leaf.
ANCESTOR_KEEP_PROB = 0.7


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
    wh = np.minimum(a[:, None, 2:], b[:, 2:])
    wh -= np.maximum(a[:, None, :2], b[:, :2])
    inter = np.maximum(0.0, wh, out=wh)[..., 0] * wh[..., 1]
    area_a = _area(a)
    area_b = area_a if b is a else _area(b)
    return inter / (area_a[:, None] + area_b - inter)


def _area(rows: np.ndarray) -> np.ndarray:
    """(x2 - x1) * (y2 - y1) of every corner row."""
    size = rows[:, 2:] - rows[:, :2]
    return size[:, 0] * size[:, 1]


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

    def message(i):
        outside = ~((rows[i] >= 0.0) & (rows[i] <= 1.0))
        if outside.any():
            j = int(np.argmax(outside))
            return (f"{field} coordinate {_CORNERS[j]}={float(rows[i, j])} "
                    "outside [0, 1]")
        if not valid[i].all():
            return f"{field} requires x1 < x2 and y1 < y2"
        return f"{field} area (x2 - x1) * (y2 - y1) is 0"

    return (live & ~(valid[:, 0] & valid[:, 1] & (_area(rows) > 0.0)),
            message)


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


def nms(boxes, iou_threshold: float, top_n: Optional[int] = None
        ) -> np.ndarray:
    """Greedy non-maximum suppression of n x 5 scored rows, by descending
    score: the kept rows, in the order they are kept.

    A box is kept iff its IoU with every previously kept box is strictly
    below the threshold; score ties break toward the lower original index.
    With ``top_n``, only the top_n highest-scoring rows take part; every
    row is checked.  The IoU of every pair comes from one :func:`iou` call.
    """
    if top_n is not None and top_n <= 0:
        raise ValueError(f"top_n must be positive, got {top_n}")
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    rows = _scored_rows(boxes)
    rows = rows[np.argsort(-rows[:, 4], kind="stable")[:top_n]]
    corners = rows[:, :4]
    overlaps = iou(corners, corners).tolist()
    kept: list = []
    for i in range(len(rows)):
        if all(overlaps[i][k] < iou_threshold for k in kept):
            kept.append(i)
    return rows[kept]


def proposal_sample(proposals, top_n: int,
                    iou_threshold: float = DEFAULT_NMS_THRESHOLD
                    ) -> np.ndarray:
    """Keep the top_n highest-objectness of n x 5 scored rows (ties toward
    the lower index), then de-duplicate them: :func:`nms` with
    ``top_n``."""
    if not len(proposals):
        raise ValueError("no proposals to sample from")
    return nms(proposals, iou_threshold, top_n)


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
        """The tree of a ``to_json`` object; an input of another shape
        raises naming the field, e.g. ``tree.children.3: expected a list,
        got 5``."""
        _exact_fields(_object(data, "tree"), ("root", "children"), "tree.")
        return cls(root=int(data["root"]),
                   children=_lists(data["children"], "tree.children"))


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
        """The map of a ``to_json`` object; an input of another shape
        raises naming the field, e.g. ``synonyms.5: expected a list, got
        3``."""
        return cls(forms={int(k): v for k, v in
                          _lists(data, "synonyms").items()})


def _object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else a ``ValueError`` naming
    ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name}: expected an object, got "
                         f"{reprlib.repr(value)}")
    return value


def _exact_fields(value: dict, names, where: str = "") -> None:
    """Raise unless the object ``value`` has exactly the fields ``names``,
    naming the first that differs: ``{where}{field}: missing`` or
    ``unknown field``."""
    for name in sorted(value.keys() ^ set(names)):
        raise ValueError(f"{where}{name}: " + ("missing" if name in names
                                               else "unknown field"))


def _lists(value, name: str) -> dict:
    """``value`` if it is a JSON object of lists, else a ``ValueError``
    naming ``name`` or the entry."""
    for key, entry in _object(value, name).items():
        if not isinstance(entry, list):
            raise ValueError(f"{name}.{key}: expected a list, got "
                             f"{reprlib.repr(entry)}")
    return value


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
            return np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
    for k, v in enumerate(values):
        if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                or not -2**63 <= v < 2**63):
            fail(record_of(k), f"{field}: {v!r} is not a 64-bit integer")
    return np.fromiter(values, np.int64, len(values))


def _id_lists(lists: list, field: str, fail) -> IdLists:
    if not set(map(type, lists)) <= {list, tuple}:
        i = next(i for i, v in enumerate(lists)
                 if not isinstance(v, (list, tuple)))
        fail(i, f"{field}: {lists[i]!r} is not a list of ids")
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lists), np.int64, len(lists)),
              out=offsets[1:])
    values = _integers(
        list(chain.from_iterable(lists)), field,
        lambda k: int(np.searchsorted(offsets, k, side="right")) - 1, fail)
    return IdLists(values, offsets)


#: the least integer that float() rounds beyond the largest float64
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def _floats(values: list, field: str, shape: tuple, fail) -> np.ndarray:
    """One float64 entry of ``shape`` per record: a number, or None, which
    reads as NaN.  An entry of another shape, a value that is no number (a
    boolean or a string) or an integer beyond float range fails, naming the
    record."""
    width = shape[0] if shape else 1
    try:
        flat = list(chain.from_iterable(values)) if shape else values
        shaped = not shape or set(map(len, values)) <= {width}
    except TypeError:
        flat, shaped = [], False
    if shaped and set(map(type, flat)) <= {float, int, type(None)}:
        try:
            return np.fromiter(flat, np.float64, len(flat)).reshape(
                (len(values),) + shape)
        except OverflowError:
            pass   # an integer beyond float range, which the loop names
    for i, v in enumerate(values):
        if shape and not (isinstance(v, (list, tuple)) and len(v) == width):
            fail(i, f"{field}: {v!r} is not [x1, y1, x2, y2]")
        for x in v if shape else [v]:
            if x is not None and (isinstance(x, bool) or not isinstance(
                    x, (int, float, np.integer, np.floating))):
                fail(i, f"{field}: {x!r} is not a number"
                        + ("" if shape else " or null"))
            if isinstance(x, int) and abs(x) >= _FLOAT_OVERFLOW:
                fail(i, f"{field}: an integer beyond float range")
    return np.fromiter(flat, np.float64, len(flat)).reshape(
        (len(values),) + shape)


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


#: ``low`` and ``high - low`` of the uniform draws of a random box's
#: centre (x, y) and size (w, h), then of a random proposal's score:
#: ``Generator.uniform(low, high)`` is ``low + (high - low) * random()``
_RANDOM_LOW = np.array([0.15, 0.15, 0.15, 0.15, 0.0])
_RANDOM_SPAN = np.array([0.85 - 0.15] * 2 + [0.45 - 0.15] * 2 + [0.7 - 0.0])


def _random_rows(rng, n: int, width: int) -> np.ndarray:
    """n corner rows around uniform centres, clipped to the image, each
    followed by a uniform score when ``width`` is 5: one ``random`` call
    for the n * width draws, row by row."""
    rows = _RANDOM_LOW[:width] + _RANDOM_SPAN[:width] * rng.random(
        n * width).reshape(n, width)
    centre, half = rows[:, :2], rows[:, 2:4] / 2
    rows[:, :4] = np.concatenate((np.maximum(0.0, centre - half),
                                  np.minimum(1.0, centre + half)), axis=1)
    return rows


def _jitter_rows(rng, boxes: np.ndarray, scale: float) -> np.ndarray:
    """Scored rows: each box moved by Gaussian noise, at least 0.02 wide
    and high, with a score uniform in [0.6, 1) drawn before its noise."""
    scores, noise = zip(*[(rng.uniform(0.6, 1.0),
                           rng.normal(scale=scale, size=4)) for _ in boxes])
    moved = boxes + np.array(noise)
    lo = np.minimum(np.maximum(moved[:, :2], 0.0), 0.97)
    hi = np.maximum(np.minimum(moved[:, 2:], 1.0), lo + 0.02)
    return np.column_stack((lo, hi, scores))


def _pick(rng, forms: tuple):
    """``forms[rng.integers(len(forms))]``; one form draws nothing, as
    ``integers(1)`` does not."""
    return forms[int(rng.integers(len(forms)))] if len(forms) > 1 else forms[0]


def synth_corpus(tree: ConceptTree, scenes: int, noise_rate: float,
                 seed: int, synonyms: Optional[SynonymMap] = None,
                 k: int = DEFAULT_GRID_K, objects_per_scene: int = 3,
                 top_n: int = 4,
                 iou_threshold: float = DEFAULT_NMS_THRESHOLD):
    """Generate caption records over B (truth), P (proposals), G (grid).

    Every region whose IoU with some scene object reaches
    ``MIN_MATCH_IOU`` is matched to the object of highest IoU and given a
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
    if objects_per_scene < 1:
        raise ValueError("objects_per_scene must be >= 1, got "
                         f"{objects_per_scene}")
    if top_n < 1:
        raise ValueError(f"top_n must be positive, got {top_n}")
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
    # Generator.choice builds it: siblings weigh SIBLING_WEIGHT, the rest
    # 1); built on first use, as a table of every leaf is leaves x leaves
    draws: dict = {}

    def leaf_draws(i: int) -> tuple:
        if i not in draws:
            candidates, cdf = np.delete(leaf_ids, i), None
            if len(candidates):
                weights = np.where(
                    np.delete(leaf_parents, i) == leaf_parents[i],
                    SIBLING_WEIGHT, 1.0)
                cdf = (weights / weights.sum()).cumsum()
                cdf /= cdf[-1]
            draws[i] = (synonyms.forms.get(leaves[i], (leaves[i],)),
                        tree.ancestors(leaves[i]), candidates, cdf)
        return draws[i]

    for scene_id in range(scenes):
        chosen = rng.choice(len(leaves), size=n_obj, replace=False).tolist()
        truth = _random_rows(rng, n_obj, 4)
        picked.append(chosen)
        objects.append(truth)
        proposals = np.concatenate((_jitter_rows(rng, truth, 0.05),
                                    _random_rows(rng, top_n, 5)))
        sampled = proposal_sample(proposals, top_n, iou_threshold)
        regions = np.concatenate((truth, sampled[:, :4], grid))
        scores = [None] * n_obj + sampled[:, 4].tolist() + [None] * len(grid)
        overlaps = iou(regions, truth)
        best = overlaps.argmax(axis=1)
        matched = overlaps[np.arange(len(regions)), best] >= MIN_MATCH_IOU
        owners, gt_boxes = best[matched].tolist(), truth.tolist()
        columns["box"] += regions[matched].tolist()
        columns["score"] += [scores[r] for r in np.flatnonzero(matched)]
        columns["gt_box"] += [gt_boxes[j] for j in owners]
        columns["true_objects"] += [[leaves[chosen[j]]] for j in owners]
        columns["scene"] += [scene_id] * len(owners)
        scene_draws = [leaf_draws(i) for i in chosen]
        for j in owners:
            surface, ancestors, candidates, cdf = scene_draws[j]
            tokens = [_pick(rng, surface)]
            # one draw per ancestor (kept below ANCESTOR_KEEP_PROB), then
            # the noise draw
            uniforms = rng.random(len(ancestors) + 1).tolist()
            kept = [a for a, u in zip(ancestors, uniforms)
                    if u < ANCESTOR_KEEP_PROB]
            tokens.extend(kept or ancestors[:1])
            hallucinated = []
            if uniforms[-1] < noise_rate and cdf is not None:
                # Generator.choice(candidates, p=...), one draw
                inject = int(candidates[cdf.searchsorted(rng.random(),
                                                         side="right")])
                tokens.append(_pick(rng, synonyms.forms.get(inject,
                                                            (inject,))))
                hallucinated = [inject]
            # in place, as indexing by rng.permutation(len(tokens)) would
            rng.shuffle(tokens)
            columns["tokens"].append(tokens)
            columns["hallucinated"].append(hallucinated)
    return Corpus.from_lists(**columns), (leaf_ids[picked], np.array(objects))


# ---------------------------------------------------------------------------
# serialization (one JSON object per line, schema "v1")


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds this
#: encoder on every call; one instance writes every line
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


#: orjson writes a float as ``json`` does when it is 0 or its magnitude is
#: in [_PLAIN_LOW, _PLAIN_HIGH); outside, their exponent styles differ
_PLAIN_LOW, _PLAIN_HIGH = 1e-4, 1e16


def json_line(payload) -> str:
    """Compact, key-sorted JSON text: the form of every file written."""
    return _ENCODER.encode(payload)


def plain_floats(values) -> np.ndarray:
    """Entry by entry, whether a float is one that orjson writes as
    ``json`` does: 0, or a magnitude in [1e-4, 1e16).  NaN and the
    infinities are not."""
    size = np.abs(values)
    return (size == 0.0) | ((size >= _PLAIN_LOW) & (size < _PLAIN_HIGH))


def json_bytes(row, plain) -> bytes:
    """``json_line(row)`` as ASCII bytes: the one writer of every file.

    ``plain`` says that every float in ``row`` passes :func:`plain_floats`,
    which the caller checks on its numpy columns, for all rows at once.
    Such a row is written by orjson, several times faster, unless orjson
    rejects it (an int outside 64 bits, a key that is not a string, a lone
    surrogate) or its bytes hold a character that ``json`` escapes and
    orjson does not (non-ASCII, or DEL); those rows, and every row without
    ``plain``, go to :func:`json_line`.  Rows are made of dict, list,
    tuple, str, int, float, bool and None.
    """
    if plain:
        try:
            line = orjson.dumps(row, option=orjson.OPT_SORT_KEYS)
        except TypeError:
            pass
        else:
            if line.isascii() and b"\x7f" not in line:
                return line
    return json_line(row).encode("ascii")


#: ``bytes.translate`` tables of :func:`read_json`'s guard: every digit to
#: "0", "." kept and every other byte to a space; the braces to brackets,
#: with every byte deleted but brackets, quotes, backslashes and NUL
_DIGIT_RUNS = bytes(48 if 48 <= i <= 57 else 46 if i == 46 else 32
                    for i in range(256))
_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_NESTING = bytes(set(range(256)) - set(b'[]{}"\\\0'))
#: an integer literal this long may lie outside orjson's 64-bit range
_LONG_INT = b"0" * 19
#: a text may nest this deep and still be read by orjson: json raises
#: RecursionError only near the interpreter's recursion limit (1000)
_MAX_DEPTH = 64


def read_json(text):
    """``json.loads(text)``: the same value, or the same error.  Bytes
    read as their UTF-8 text: ``json.loads(text.decode("utf-8"))``.

    The text is parsed by orjson, which is several times faster, except
    where orjson's answer would differ, which goes to ``json``:
    - orjson reads an integer outside [-2**63, 2**64) as a float, so a run
      of 19 or more digits that no "." precedes goes to ``json``;
    - orjson reads any depth of nesting, where ``json`` raises
      RecursionError, so a text that may nest deeper than ``_MAX_DEPTH``
      goes to ``json``: one that does, and one with a string that holds a
      bracket, a quote or a backslash, whose depth the guard cannot see;
    - orjson rejects NaN, Infinity, numbers out of float range and lone
      surrogates, which ``json`` reads, so a text orjson rejects goes to
      ``json`` (which also raises its own error for text that is not
      JSON).

    Every object orjson makes survives its parse, so a collection during
    the parse could free nothing; the garbage collector is off for it.
    """
    data = (text if isinstance(text, bytes)
            else text.encode("utf-8", "surrogatepass"))
    if _orjson_reads_as_json(data):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
        finally:
            if collecting:
                gc.enable()
    return json.loads(text.decode("utf-8") if isinstance(text, bytes)
                      else text)


def _orjson_reads_as_json(data: bytes) -> bool:
    """Whether the JSON text ``data`` holds no long integer literal and
    nests at most ``_MAX_DEPTH`` deep, with no bracket, quote or backslash
    in a string.  A NUL byte, which no JSON text holds, parts texts: each
    part's brackets and quotes must pair within it."""
    digits = data.translate(_DIGIT_RUNS)
    if digits.startswith(_LONG_INT) or b" " + _LONG_INT in digits:
        return False
    del digits
    # the brackets outside strings; each pass drops the innermost pairs
    nesting = data.translate(_BRACKETS, _NOT_NESTING).replace(b'""', b"")
    for _ in range(_MAX_DEPTH + 1):
        shallower = nesting.replace(b"[]", b"")
        if shallower == nesting:
            return not nesting.strip(b"\0")
        nesting = shallower
    return False


def load_json(path):
    """The JSON value in the file at ``path`` (:func:`read_json`); bytes
    that are not UTF-8 raise ``{path}: invalid UTF-8: ...``, and text that
    is not JSON, or nests past the recursion limit, ``{path}: invalid
    JSON: ...``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return read_json(fh.read())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{os.fspath(path)}: invalid UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{os.fspath(path)}: invalid JSON: {exc}") from None


def write_bytes(path, pieces: Iterable[bytes]) -> None:
    """Write the byte strings ``pieces`` to ``path``, atomically.

    The bytes go to a temporary file beside ``path`` that then replaces
    it, so an error part-way leaves the old file as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_lines(path, lines: Iterable[bytes]) -> None:
    """Write each line and a newline to ``path``, atomically."""
    # a write for each 256 lines: one a line costs more, and one for the
    # whole file holds all of its bytes at once
    ends = chain.from_iterable(zip(lines, repeat(b"\n")))
    write_bytes(path, iter(lambda: b"".join(islice(ends, 512)), b""))


def write_corpus(path, records: Corpus) -> None:
    """One key-sorted JSON object per record, in record order."""
    unscored = np.isnan(records.score)
    no_gt = np.isnan(records.gt_box[:, 0])
    plain = (plain_floats(records.box).all(axis=1)
             & (unscored | plain_floats(records.score))
             & (no_gt | plain_floats(records.gt_box).all(axis=1)))
    rows = zip(records.scene.tolist(), records.box.tolist(),
               records.score.tolist(), unscored.tolist(),
               records.gt_box.tolist(), no_gt.tolist(),
               records.tokens.lists(), records.true_objects.lists(),
               records.hallucinated.lists(), plain.tolist())
    write_lines(path, (json_bytes({
        "v": SCHEMA_VERSION, "scene": scene, "box": box,
        "score": None if no_score else score,
        "gt_box": None if no_box else gt_box, "tokens": tokens,
        "true_objects": true, "hallucinated": hallucinated}, ok)
        for (scene, box, score, no_score, gt_box, no_box, tokens, true,
             hallucinated, ok) in rows))


#: the fields every record has but ``v``, and those that may be absent,
#: with the value they then take
_FIELDS = ("box", "tokens", "true_objects", "hallucinated")
_OPTIONAL = {"score": None, "gt_box": None, "scene": 0}
#: the lines parsed at once: only one chunk's records are ever dicts
_CHUNK = 256


def _columns(lines: list):
    """The fields of the records that the byte strings ``lines`` hold, as
    lists; None if a line is no JSON object of this schema version with
    every field that orjson reads as ``json`` does.  A chunk's lines are
    let go and parsed as one array, its fields moved to the lists, before
    the next chunk, with the garbage collector off as in :func:`read_json`.
    The guard, with a NUL between lines, finds each line's brackets paired
    within it, so the array holds one value a line only if each line is
    one JSON value."""
    columns = {name: [] for name in _FIELDS + tuple(_OPTIONAL)}
    collecting = gc.isenabled()
    gc.disable()
    try:
        for start in range(0, len(lines), _CHUNK):
            chunk = lines[start:start + _CHUNK]
            lines[start:start + _CHUNK] = [None] * len(chunk)
            if not _orjson_reads_as_json(b"\0".join(chunk)):
                return None
            rows = orjson.loads(b"[" + b",".join(chunk) + b"]")
            if (len(rows) != len(chunk)
                    or set(map(itemgetter("v"), rows)) != {SCHEMA_VERSION}):
                return None
            for name in _FIELDS:
                columns[name] += map(itemgetter(name), rows)
            for name, absent in _OPTIONAL.items():
                columns[name] += map(dict.get, rows, repeat(name),
                                     repeat(absent))
            del chunk, rows
    except (orjson.JSONDecodeError, KeyError, TypeError):
        return None
    finally:
        if collecting:
            gc.enable()
    return columns


def _field(rows: list, name: str, where: str) -> list:
    try:
        return list(map(itemgetter(name), rows))
    except (KeyError, TypeError):
        i = next(i for i, row in enumerate(rows)
                 if not isinstance(row, dict) or name not in row)
        problem = (f"{name} missing" if isinstance(rows[i], dict)
                   else "not a JSON object")
        raise ValueError(f"{where}record {i}: {problem}") from None


def _text_lines(data: bytes) -> list:
    """The UTF-8 bytes ``data`` split into lines as a text-mode read splits
    them: at LF, CRLF or CR."""
    return data.decode("utf-8").replace("\r\n", "\n").replace(
        "\r", "\n").split("\n")


def _checked_columns(path, where: str) -> dict:
    """:func:`_columns` of the file at ``path`` as a text-mode read sees
    it, read line by line: the first record whose line holds invalid UTF-8
    raises, then the first line that is no JSON value, then the first
    record that is no object or lacks ``v``, then the first of another
    schema version, then the first that lacks another field."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = _text_lines(data)
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; the last of their
        # lines is the start of the bad byte's
        i = len(list(filter(str.strip, _text_lines(data[:exc.start])[:-1])))
        raise ValueError(f"{where}record {i}: invalid UTF-8: {exc}"
                         ) from None
    # a line that only str.strip finds blank (say, a no-break space) is no
    # record
    lines = list(filter(str.strip, lines))
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{where}record {i}: invalid JSON: {exc}"
                             ) from None
    versions = _field(rows, "v", where)
    if versions.count(SCHEMA_VERSION) != len(rows):
        i = next(i for i, v in enumerate(versions) if v != SCHEMA_VERSION)
        raise ValueError(f"{where}record {i}: v: unsupported corpus schema "
                         f"{versions[i]!r}")
    columns = {name: _field(rows, name, where) for name in _FIELDS}
    columns.update((name, list(map(dict.get, rows, repeat(name),
                                   repeat(absent))))
                   for name, absent in _OPTIONAL.items())
    return columns


def read_corpus(path) -> Corpus:
    """Load and check a corpus file.

    The file's bytes are split at line ends (LF, CRLF or CR), and each
    non-blank line must be one JSON object; the lines are parsed in chunks
    straight into the fields' columns.  Only when that fails is the file
    read again as a text-mode read sees it, which finds the first line
    that holds invalid UTF-8, else the first that is no JSON value, else
    the first bad record.  Records are numbered from 0 over the non-blank lines, and
    every error reads ``{path}: record {i}: {field} ...``.  ``score`` and
    ``gt_box`` may be absent (null) and ``scene`` defaults to 0.
    """
    where = f"{os.fspath(path)}: "
    with open(path, "rb") as fh:
        columns = _columns(list(filter(bytes.strip,
                                       fh.read().splitlines())))
    if columns is None:
        columns = _checked_columns(path, where)
    return Corpus.from_lists(**columns, where=where)
