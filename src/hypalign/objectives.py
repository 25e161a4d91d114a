"""Training losses over embedding batches.

Every loss is a scalar, nonnegative and finite for valid inputs, and
accepts either a plain numpy matrix or an autodiff ``Var`` matrix, so the
same code is used for evaluation and for differentiable training.  A batch
is one non-empty n x d matrix of rows (the hyperbolic losses take two lifted
batches, ``LorentzPoint`` values); each loss is a fixed handful of array
ops whatever the batch size.  Reductions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .geometry import (APERTURE_K, LorentzPoint, exterior_angle,
                       half_aperture, lorentz_distance)

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


def _matrix(batch):
    """An embedding batch: one non-empty n x d matrix, an array or a Var."""
    shape = np.shape(val(batch))
    if (not isinstance(batch, (ad.Var, np.ndarray)) or len(shape) != 2
            or not shape[0]):
        raise ValueError("an embedding batch is one non-empty n x d matrix "
                         f"(an array or a Var), got shape {shape}")
    return batch


def _tau(tau):
    if not (val(tau) > 0.0):
        raise ValueError(f"temperature must be positive, got {val(tau)}")
    return tau


def _row_norms(rows, what: str):
    norms = ad.norm(rows)
    zero = np.flatnonzero(val(norms) == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm {what} {zero[0]}: cosine undefined")
    return norms


def pairwise_cosine(a, b, what_a: str, what_b: str):
    """Cosine similarity of every row of ``a`` with every row of ``b``.

    A zero row has no direction and is rejected, naming it as
    ``{what} {index}``.
    """
    return ad.div(ad.dot(a, b), ad.outer(_row_norms(a, what_a),
                                         _row_norms(b, what_b)))


def _cross_entropy(logits, targets: Sequence[int]):
    """Mean over rows of -log softmax(row) at the row's target column: one
    ``autodiff.cross_entropy`` node."""
    cols = np.asarray(targets, dtype=np.intp)
    if cols.shape != (len(val(logits)),):
        raise ValueError("one target column per logits row required")
    return ad.cross_entropy(logits, aux=cols)


def classification_loss(visual, labels, targets: Sequence[int], tau):
    """Cross-entropy of cosine similarities against class label embeddings.

    Mean over visual rows i of -log softmax_j(cos(v_i, l_j) / tau) at the
    target label index.
    """
    v = _matrix(visual)
    lab = _matrix(labels)
    targets = list(targets)
    if len(targets) != len(val(v)):
        raise ValueError("one target index per visual row required")
    n = len(val(lab))
    if any(not (0 <= t < n) for t in targets):
        raise ValueError(f"target index out of range for {n} labels")
    t = _tau(tau)
    sims = pairwise_cosine(v, lab, "visual row", "label row")
    return _cross_entropy(ad.div(sims, t), targets)


def euclidean_contrastive_loss(visual, captions, tau):
    """InfoNCE on cosine similarity over matched visual/caption pairs."""
    v, c = _matrix(visual), _matrix(captions)
    if len(val(v)) != len(val(c)):
        raise ValueError("visual and caption batches must be matched")
    t = _tau(tau)
    sims = pairwise_cosine(v, c, "visual row", "caption row")
    return _cross_entropy(ad.div(sims, t), range(len(val(v))))


def _lifted(a, b, loss: str) -> int:
    if not all(isinstance(p, LorentzPoint) for p in (a, b)):
        raise ValueError(f"{loss} takes two lifted n x d batches "
                         "(LorentzPoint values)")
    n = len(val(a.space))
    if n != len(val(b.space)):
        raise ValueError("matched lifted batches required")
    return n


def hyperbolic_contrastive_loss(visual: LorentzPoint, captions: LorentzPoint,
                                tau):
    """InfoNCE with negated Lorentzian distance as the similarity.

    ``visual`` and ``captions`` are matched lifted batches (``LorentzPoint``
    values, as ``exp_map_origin`` makes them); unlike the cosine losses
    this one is sensitive to the scale of the rows before the lift.
    """
    n = _lifted(visual, captions, "hyperbolic_contrastive_loss")
    t = _tau(tau)
    dists = lorentz_distance(visual, captions)
    return _cross_entropy(ad.div(ad.neg(dists), t), range(n))


def entailment_loss(cpts: LorentzPoint, vpts: LorentzPoint,
                    margin: float = DEFAULT_MARGIN,
                    aperture_k: float = APERTURE_K):
    """Cone-membership hinge loss imposing `caption entails object`.

    ``cpts`` and ``vpts`` are matched lifted batches of n rows each.  For
    each caption cone i: penalize the matched visual falling outside the
    cone, and penalize every other visual j != i that is not outside by at
    least ``margin``:

        mean_i [ max(0, angle(c_i, v_i) - A(c_i))
                 + sum_{j != i} max(0, margin - max(0, angle(c_i, v_j) - A(c_i))) ]
    """
    n = _lifted(cpts, vpts, "entailment_loss")
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    aperture = half_aperture(cpts, aperture_k).radians
    angles = exterior_angle(cpts, vpts).radians
    outside = ad.hinge(ad.sub(angles, ad.outer(aperture, np.ones(n))))
    eye = np.eye(n)
    terms = ad.add(ad.mul(outside, eye),
                   ad.mul(ad.hinge(ad.sub(margin, outside)), 1.0 - eye))
    return ad.div(ad.sum(terms), float(n))


def bbox_regression_loss(pred, gt):
    """Mean smooth-L1 (threshold 1) over the 4 coordinates of matched boxes:
    ``pred`` and ``gt`` are n x 4 matrices (arrays or Vars) of
    (x1, y1, x2, y2) rows."""
    if not all(isinstance(m, (ad.Var, np.ndarray)) for m in (pred, gt)):
        raise ValueError("box batches are n x 4 matrices (arrays or Vars)")
    p, g = val(pred), val(gt)
    if p.shape != g.shape or p.ndim != 2 or p.shape[1] != 4 or not len(p):
        raise ValueError("matched, non-empty n x 4 box batches required")
    if not (np.all(p[:, 2:] > p[:, :2]) and np.all(g[:, 2:] > g[:, :2])):
        raise ValueError("degenerate box: requires x1 < x2, y1 < y2")
    return ad.div(ad.sum(ad.smooth_l1(ad.sub(pred, gt))), 4.0 * len(p))


def _weighted(weight: float, term):
    """A weighted term; an inactive term (None) is an exact zero."""
    return 0.0 if term is None else ad.mul(term, float(weight))


def _compose(bbox, cls, cap, entail, weights: LossWeights) -> LossReport:
    wb = _weighted(weights.bbox, bbox)
    wc = _weighted(weights.cls, cls)
    wp = _weighted(weights.cap, cap)
    we = _weighted(weights.entail, entail)
    total = ad.add(ad.add(ad.add(wb, wc), wp), we)
    report = LossReport(bbox=wb, cls=wc, cap=wp, entail=we, total=total)
    values = report.values()
    if abs(values.pop("total") - sum(values.values())) > 1e-12:
        raise AssertionError("loss report total drifted from its parts")
    return report


def objective_hyper(bbox, cls, cap, entail,
                    weights: LossWeights = LossWeights()) -> LossReport:
    """Composite objective: bbox + cls + hyperbolic cap + entailment."""
    return _compose(bbox, cls, cap, entail, weights)


def objective_baseline(bbox, cls, cap,
                       weights: LossWeights = LossWeights()) -> LossReport:
    """Composite objective with the plain contrastive caption term only."""
    return _compose(bbox, cls, cap, None, weights)


def objective_det(bbox, cls,
                  weights: LossWeights = LossWeights()) -> LossReport:
    """Detection-only objective: bbox + cls."""
    return _compose(bbox, cls, None, None, weights)
