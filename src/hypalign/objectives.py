"""Training losses over embedding batches.

Every loss is a scalar, nonnegative and finite for valid inputs, and
accepts either plain numpy rows or autodiff ``Var`` rows, so the same
code is used for evaluation and for differentiable training.  Batch
reductions run in fixed index order for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import autodiff as ad
from .autodiff import val
from .geometry import (APERTURE_K, LorentzPoint, exp_map_origin,
                       exterior_angle, half_aperture, lorentz_distance)

#: Default entailment margin; same order as the aperture constant K.
DEFAULT_MARGIN = 0.1


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights for the composite objectives (all 1 by default)."""

    bbox: float = 1.0
    cls: float = 1.0
    cap: float = 1.0
    entail: float = 1.0

    def __post_init__(self):
        for name in ("bbox", "cls", "cap", "entail"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"negative loss weight: {name}")


@dataclass(frozen=True)
class LossReport:
    """Per-term (weighted) losses plus their sum.

    Fields may hold floats or tape ``Var`` scalars; ``values()`` extracts
    plain floats for logging.  The total always equals the sum of the four
    term fields, inactive terms being exact zeros.
    """

    bbox: object = 0.0
    cls: object = 0.0
    cap: object = 0.0
    entail: object = 0.0
    total: object = 0.0

    def values(self) -> dict:
        return {name: float(val(getattr(self, name)))
                for name in ("bbox", "cls", "cap", "entail", "total")}


def _rows(batch) -> list:
    rows = list(batch)
    if not rows:
        raise ValueError("empty embedding batch")
    return rows


def _tau(tau):
    if not (val(tau) > 0.0):
        raise ValueError(f"temperature must be positive, got {val(tau)}")
    return tau


def _row_norms(rows: Sequence, what: str) -> list:
    norms = []
    for i, r in enumerate(rows):
        n = ad.norm(r)
        if val(n) == 0.0:
            raise ValueError(f"zero-norm {what} row {i}: cosine undefined")
        norms.append(n)
    return norms


def classification_loss(visual, labels, targets: Sequence[int], tau):
    """Cross-entropy of cosine similarities against class label embeddings.

    Mean over visual rows i of -log softmax_j(cos(v_i, l_j) / tau) at the
    target label index.
    """
    vrows = _rows(visual)
    lrows = _rows(labels)
    targets = list(targets)
    if len(targets) != len(vrows):
        raise ValueError("one target index per visual row required")
    n = len(lrows)
    if any(not (0 <= t < n) for t in targets):
        raise ValueError(f"target index out of range for {n} labels")
    t = _tau(tau)
    vnorms = _row_norms(vrows, "visual")
    lnorms = _row_norms(lrows, "label")
    per_row = []
    for i, v in enumerate(vrows):
        sims = [ad.div(ad.dot(v, l), ad.mul(vnorms[i], lnorms[j]))
                for j, l in enumerate(lrows)]
        logits = ad.div(ad.stack(sims), t)
        per_row.append(ad.sub(ad.logsumexp(logits), ad.get(logits,
                                                           targets[i])))
    return ad.mean(per_row)


def euclidean_contrastive_loss(visual, captions, tau):
    """InfoNCE on cosine similarity over matched visual/caption pairs."""
    vrows = _rows(visual)
    crows = _rows(captions)
    if len(vrows) != len(crows):
        raise ValueError("visual and caption batches must be matched")
    t = _tau(tau)
    vnorms = _row_norms(vrows, "visual")
    cnorms = _row_norms(crows, "caption")
    per_row = []
    for i, v in enumerate(vrows):
        sims = [ad.div(ad.dot(v, c), ad.mul(vnorms[i], cnorms[j]))
                for j, c in enumerate(crows)]
        logits = ad.div(ad.stack(sims), t)
        per_row.append(ad.sub(ad.logsumexp(logits), ad.get(logits, i)))
    return ad.mean(per_row)


def hyperbolic_contrastive_loss(visual, captions, curvature, tau):
    """InfoNCE with negated Lorentzian distance as the similarity.

    Rows are lifted with the exponential map at the origin first; unlike
    the cosine losses this one is sensitive to the scale of its inputs.
    """
    vrows = _rows(visual)
    crows = _rows(captions)
    if len(vrows) != len(crows):
        raise ValueError("visual and caption batches must be matched")
    t = _tau(tau)
    vpts = [exp_map_origin(r, curvature) for r in vrows]
    cpts = [exp_map_origin(r, curvature) for r in crows]
    per_row = []
    for i, v in enumerate(vpts):
        dists = [lorentz_distance(v, c) for c in cpts]
        logits = ad.div(ad.neg(ad.stack(dists)), t)
        per_row.append(ad.sub(ad.logsumexp(logits), ad.get(logits, i)))
    return ad.mean(per_row)


def entailment_loss(captions_lifted: Sequence[LorentzPoint],
                    visuals_lifted: Sequence[LorentzPoint],
                    margin: float = DEFAULT_MARGIN,
                    aperture_k: float = APERTURE_K):
    """Cone-membership hinge loss imposing `caption entails object`.

    For each caption cone i: penalize the matched visual falling outside
    the cone, and penalize every other visual j != i that is not outside
    by at least ``margin``:

        mean_i [ max(0, angle(c_i, v_i) - A(c_i))
                 + sum_{j != i} max(0, margin - max(0, angle(c_i, v_j) - A(c_i))) ]
    """
    cpts = list(captions_lifted)
    vpts = list(visuals_lifted)
    if not cpts or len(cpts) != len(vpts):
        raise ValueError("matched, non-empty lifted batches required")
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    per_row = []
    for i, c in enumerate(cpts):
        aperture = half_aperture(c, aperture_k).radians
        term = ad.hinge(ad.sub(exterior_angle(c, vpts[i]).radians, aperture))
        for j, v in enumerate(vpts):
            if j == i:
                continue
            outside = ad.hinge(ad.sub(exterior_angle(c, v).radians, aperture))
            term = ad.add(term, ad.hinge(ad.sub(margin, outside)))
        per_row.append(term)
    return ad.mean(per_row)


def _box4(box):
    if hasattr(box, "x1"):
        return (box.x1, box.y1, box.x2, box.y2)
    coords = tuple(box)
    if len(coords) != 4:
        raise ValueError("a box is (x1, y1, x2, y2)")
    return coords


def bbox_regression_loss(pred, gt):
    """Mean smooth-L1 (threshold 1) over the 4 coordinates of matched boxes."""
    pred = list(pred)
    gt = list(gt)
    if not pred or len(pred) != len(gt):
        raise ValueError("matched, non-empty box batches required")
    terms = []
    for p, g in zip(pred, gt):
        (px1, py1, px2, py2) = _box4(p)
        (gx1, gy1, gx2, gy2) = _box4(g)
        for a, b, c, d in ((px1, py1, px2, py2), (gx1, gy1, gx2, gy2)):
            if not (val(c) > val(a) and val(d) > val(b)):
                raise ValueError("degenerate box: requires x1 < x2, y1 < y2")
        for pc, gc in ((px1, gx1), (py1, gy1), (px2, gx2), (py2, gy2)):
            terms.append(ad.smooth_l1(ad.sub(pc, gc)))
    return ad.mean(terms)


def _weighted(weight: float, term):
    if isinstance(term, float) and term == 0.0:
        return 0.0
    return ad.mul(term, float(weight))


def _compose(bbox, cls, cap, entail, weights: LossWeights) -> LossReport:
    wb = _weighted(weights.bbox, bbox)
    wc = _weighted(weights.cls, cls)
    wp = _weighted(weights.cap, cap)
    we = _weighted(weights.entail, entail)
    total = ad.add(ad.add(ad.add(wb, wc), wp), we)
    report = LossReport(bbox=wb, cls=wc, cap=wp, entail=we, total=total)
    parts = sum(report.values()[k] for k in ("bbox", "cls", "cap", "entail"))
    if abs(report.values()["total"] - parts) > 1e-12:
        raise AssertionError("loss report total drifted from its parts")
    return report


def objective_hyper(bbox, cls, cap, entail,
                    weights: LossWeights = LossWeights()) -> LossReport:
    """Composite objective: bbox + cls + hyperbolic cap + entailment."""
    return _compose(bbox, cls, cap, entail, weights)


def objective_baseline(bbox, cls, cap,
                       weights: LossWeights = LossWeights()) -> LossReport:
    """Composite objective with the plain contrastive caption term only."""
    return _compose(bbox, cls, cap, 0.0, weights)


def objective_det(bbox, cls,
                  weights: LossWeights = LossWeights()) -> LossReport:
    """Detection-only objective: bbox + cls."""
    return _compose(bbox, cls, 0.0, 0.0, weights)
