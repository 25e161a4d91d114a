"""Region sampling, box geometry, and the synthetic caption corpus.

The corpus stands in for a captioner run over region crops: every record
pairs a region with a token sequence that entails the region's object (its
leaf concept plus sampled ancestor attributes).  Hallucination noise is
injected at a controlled rate as co-occurrence-correlated absent leaves,
and measured back with a CHAIR-style incorrect-object percentage.

Corpus files are UTF-8 JSON lines with a schema version field ("v1");
generation is single-threaded and fully determined by the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
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

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def coords(self) -> tuple:
        return (self.x1, self.y1, self.x2, self.y2)

    def features(self) -> np.ndarray:
        """(cx, cy, w, h) vector used as the proposal feature."""
        return np.array([(self.x1 + self.x2) / 2.0,
                         (self.y1 + self.y2) / 2.0,
                         self.x2 - self.x1,
                         self.y2 - self.y1])


def grid_sample(k: int) -> list:
    """Split the unit image into a k x k tiling (row-major)."""
    if k < 1:
        raise ValueError(f"grid size must be >= 1, got {k}")
    boxes = []
    for i in range(k):
        for j in range(k):
            boxes.append(Box(j / k, i / k, (j + 1) / k, (i + 1) / k))
    return boxes


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes."""
    iw = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    ih = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def nms(boxes: Sequence[Box], iou_threshold: float) -> list:
    """Greedy non-maximum suppression by descending score.

    A box is kept iff its IoU with every previously kept box is strictly
    below the threshold; score ties break toward the lower original index.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    boxes = list(boxes)
    for i, b in enumerate(boxes):
        if b.score is None:
            raise ValueError(f"unscored box at index {i}")
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept: list = []
    for i in order:
        if all(iou(boxes[i], k) < iou_threshold for k in kept):
            kept.append(boxes[i])
    return kept


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
    alongside the leaf they entail.
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

    def leaves(self) -> list:
        out = [n for n in self.nodes() if not self.children.get(n)]
        return sorted(out)

    def nodes(self) -> list:
        seen = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            seen.append(node)
            stack.extend(reversed(self.children.get(node, ())))
        return sorted(seen)

    def parent_map(self) -> dict:
        return {c: n for n, cs in self.children.items() for c in cs}

    def ancestors(self, node: int) -> list:
        """Ancestors from the immediate parent up to the root."""
        parents = self.parent_map()
        out = []
        while node in parents:
            node = parents[node]
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

    def mentioned_classes(self, tokens: Iterable[int]) -> set:
        toks = set(tokens)
        return {c for c, surface in self.forms.items()
                if toks & set(surface)}

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
# caption records


@dataclass(frozen=True)
class CaptionRecord:
    """A region caption: token ids, the objects truly present, and any
    injected hallucinated objects (always disjoint from the true set)."""

    box: Box
    tokens: tuple
    true_objects: frozenset
    hallucinated: frozenset
    scene: int = 0
    gt_box: Optional[Box] = None

    def __post_init__(self):
        for name, kind in (("tokens", tuple), ("true_objects", frozenset),
                           ("hallucinated", frozenset)):
            ids = kind(int(t) for t in getattr(self, name))
            if any(t < 0 for t in ids):
                raise ValueError(f"negative id in {name}: {min(ids)}")
            object.__setattr__(self, name, ids)
        if not self.tokens:
            raise ValueError("caption needs at least one token")
        if self.true_objects & self.hallucinated:
            raise ValueError("hallucinated ids must be absent from the truth")
        if self.gt_box is not None and self.gt_box.score is not None:
            raise ValueError("gt_box must be unscored: the corpus format "
                             "stores no ground-truth score")


@dataclass(frozen=True)
class SceneObject:
    cls: int
    box: Box


def caption_noise_metric(records: Sequence[CaptionRecord],
                         synonyms: SynonymMap) -> float:
    """Percentage of incorrectly described objects.

    Per record, the fraction of mentioned object classes (resolved through
    the synonym map) that are absent from the record's ground truth,
    averaged over records and scaled to percent.  Invariant to record
    order and to duplicating every record.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to score")
    acc = 0.0
    for i, rec in enumerate(records):
        mentioned = synonyms.mentioned_classes(rec.tokens)
        if not mentioned:
            raise ValueError(f"record {i} mentions no object classes")
        incorrect = mentioned - rec.true_objects
        acc += len(incorrect) / len(mentioned)
    return acc / len(records) * 100.0


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


def _co_occurring_leaf(rng, tree: ConceptTree, leaf: int,
                       sibling_weight: float) -> Optional[int]:
    parents = tree.parent_map()
    candidates = [l for l in tree.leaves() if l != leaf]
    if not candidates:
        return None
    weights = np.array([sibling_weight if parents.get(l) == parents.get(leaf)
                        else 1.0 for l in candidates])
    probs = weights / weights.sum()
    return int(rng.choice(candidates, p=probs))


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

    Returns ``(records, scene_objects)`` where ``scene_objects[s]`` lists
    the ground-truth objects of scene ``s``.  Byte-identical for a fixed
    seed and arguments.
    """
    if not (0.0 <= noise_rate < 1.0):
        raise ValueError(f"noise rate must be in [0, 1), got {noise_rate}")
    if scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {scenes}")
    if synonyms is None:
        synonyms = default_synonyms(tree)
    rng = np.random.default_rng(seed)
    leaves = tree.leaves()
    n_obj = min(objects_per_scene, len(leaves))
    records: list = []
    all_scene_objects: list = []

    for scene_id in range(scenes):
        chosen = rng.choice(len(leaves), size=n_obj, replace=False)
        scene_objects = [SceneObject(cls=leaves[int(i)], box=_random_box(rng))
                         for i in chosen]
        all_scene_objects.append(scene_objects)

        truth_regions = [obj.box for obj in scene_objects]
        proposals = []
        for obj in scene_objects:
            proposals.append(_jitter_box(rng, obj.box, 0.05,
                                         float(rng.uniform(0.6, 1.0))))
        for _ in range(top_n):
            base = _random_box(rng)
            proposals.append(Box(base.x1, base.y1, base.x2, base.y2,
                                 score=float(rng.uniform(0.0, 0.7))))
        sampled = proposal_sample(proposals, top_n, iou_threshold)
        regions = truth_regions + sampled + grid_sample(k)

        for region in regions:
            overlaps = [iou(region, obj.box) for obj in scene_objects]
            best = int(np.argmax(overlaps))
            if overlaps[best] < min_match_iou:
                continue
            matched = scene_objects[best]
            leaf = matched.cls
            surface = synonyms.forms.get(leaf, (leaf,))
            tokens = [int(surface[int(rng.integers(len(surface)))])]
            ancestors = tree.ancestors(leaf)
            kept = [a for a in ancestors
                    if rng.uniform() < ancestor_keep_prob]
            if not kept and ancestors:
                kept = [ancestors[0]]
            tokens.extend(kept)
            hallucinated: set = set()
            if rng.uniform() < noise_rate:
                inject = _co_occurring_leaf(rng, tree, leaf, sibling_weight)
                if inject is not None:
                    forms = synonyms.forms.get(inject, (inject,))
                    tokens.append(int(forms[int(rng.integers(len(forms)))]))
                    hallucinated.add(inject)
            order = rng.permutation(len(tokens))
            records.append(CaptionRecord(
                box=region,
                tokens=tuple(tokens[i] for i in order),
                true_objects=frozenset({leaf}),
                hallucinated=frozenset(hallucinated),
                scene=scene_id,
                gt_box=matched.box,
            ))
    return records, all_scene_objects


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


def _box_to_json(box: Optional[Box]):
    if box is None:
        return None
    return [box.x1, box.y1, box.x2, box.y2]


def record_to_json(rec: CaptionRecord) -> str:
    payload = {
        "v": SCHEMA_VERSION,
        "scene": rec.scene,
        "box": _box_to_json(rec.box),
        "score": rec.box.score,
        "gt_box": _box_to_json(rec.gt_box),
        "tokens": list(rec.tokens),
        "true_objects": sorted(rec.true_objects),
        "hallucinated": sorted(rec.hallucinated),
    }
    return json_line(payload)


def record_from_json(line: str) -> CaptionRecord:
    data = json.loads(line)
    if data.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported corpus schema: {data.get('v')!r}")
    box = Box(*data["box"], score=data.get("score"))
    gt = data.get("gt_box")
    return CaptionRecord(
        box=box,
        tokens=tuple(data["tokens"]),
        true_objects=frozenset(data["true_objects"]),
        hallucinated=frozenset(data["hallucinated"]),
        scene=int(data.get("scene", 0)),
        gt_box=Box(*gt) if gt is not None else None,
    )


def write_corpus(path, records: Sequence[CaptionRecord]) -> None:
    write_lines(path, (record_to_json(rec) for rec in records))


def read_corpus(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [record_from_json(line) for line in fh if line.strip()]
