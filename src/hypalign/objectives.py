"""Training losses over embedding batches.

Every loss is a scalar, nonnegative and finite for valid inputs, and
accepts either a plain numpy matrix or an autodiff ``Var`` matrix, so the
same code is used for evaluation and for differentiable training.  A batch
is one non-empty n x d matrix of rows (the hyperbolic losses take two lifted
batches, ``LorentzPoint`` values).  Each loss checks its inputs here and is
then one ``autodiff`` row whatever the batch size: the cosine
cross-entropy (classification, Euclidean contrastive), the cross-entropy
of -d / tau (hyperbolic contrastive, after the distance row), the cone
hinge (entailment, after the aperture and angle rows) and the mean smooth
L1 (box regression); the weighted total of the active terms is one more.
Reductions are deterministic.
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

#: The loss terms, in the order the total sums them.
_TERMS = ("bbox", "cls", "cap", "entail")


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights for the composite objectives (all 1 by default)."""

    bbox: float = 1.0
    cls: float = 1.0
    cap: float = 1.0
    entail: float = 1.0

    def __post_init__(self):
        for name in _TERMS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"negative loss weight: {name}")


@dataclass(frozen=True)
class LossReport:
    """Per-term (weighted) losses plus their sum.

    The term fields are plain numbers; the total is a tape ``Var`` scalar
    when any term is, so a step differentiates it.  ``values()`` extracts
    plain floats for logging.  The total is the sum of the four term
    fields in order, inactive terms being exact zeros.
    """

    bbox: object = 0.0
    cls: object = 0.0
    cap: object = 0.0
    entail: object = 0.0
    total: object = 0.0

    def values(self) -> dict:
        return {name: float(val(getattr(self, name)))
                for name in (*_TERMS, "total")}


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
    if not val(norms).all():
        zero = np.flatnonzero(val(norms) == 0.0)
        raise ValueError(f"zero-norm {what} {zero[0]}: cosine undefined")
    return norms


def pairwise_cosine(a, b, what_a: str, what_b: str):
    """Cosine similarity of every row of ``a`` with every row of ``b``.

    A zero row has no direction and is rejected, naming it as
    ``{what} {index}``.
    """
    return ad.div(ad.dot(a, b), ad.outer(_row_norms(a, what_a),
                                         _row_norms(b, what_b)))


def _cosine_cross_entropy(a, b, tau, targets: np.ndarray, what_a: str,
                          what_b: str):
    """Mean over rows i of -log softmax_j(cos(a_i, b_j) / tau) at column
    ``targets[i]``: one ``autodiff.cosine_cross_entropy`` node.  The row
    norms are checked here, naming a zero row, and ride in the node's
    aux."""
    tau = _tau(tau)
    norms = (_row_norms(val(a), what_a), _row_norms(val(b), what_b))
    return ad.cosine_cross_entropy(a, b, tau, aux=(targets, *norms))


def classification_loss(visual, labels, targets: Sequence[int], tau):
    """Cross-entropy of cosine similarities against class label embeddings.

    Mean over visual rows i of -log softmax_j(cos(v_i, l_j) / tau) at the
    target label index.
    """
    v = _matrix(visual)
    lab = _matrix(labels)
    cols = ad.indices(targets, "target")
    if cols.shape != (len(val(v)),):
        raise ValueError("one target index per visual row required")
    n = len(val(lab))
    if not ((cols >= 0) & (cols < n)).all():
        raise ValueError(f"target index out of range for {n} labels")
    return _cosine_cross_entropy(v, lab, tau, cols, "visual row",
                                 "label row")


def euclidean_contrastive_loss(visual, captions, tau):
    """InfoNCE on cosine similarity over matched visual/caption pairs."""
    v, c = _matrix(visual), _matrix(captions)
    if len(val(v)) != len(val(c)):
        raise ValueError("visual and caption batches must be matched")
    return _cosine_cross_entropy(v, c, tau, np.arange(len(val(v))),
                                 "visual row", "caption row")


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
    # the logits -d / tau, as d / (-tau): one cross-entropy node
    return ad.cross_entropy(lorentz_distance(visual, captions), t,
                            aux=(np.arange(n), -1.0))


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
    _lifted(cpts, vpts, "entailment_loss")
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    aperture = half_aperture(cpts, aperture_k).radians
    angles = exterior_angle(cpts, vpts).radians
    return ad.cone_hinge(angles, aperture, aux=float(margin))


def bbox_regression_loss(pred, gt):
    """Mean smooth-L1 (threshold 1) over the 4 coordinates of matched boxes:
    ``pred`` and ``gt`` are n x 4 matrices (arrays or Vars) of
    (x1, y1, x2, y2) rows."""
    if not all(isinstance(m, (ad.Var, np.ndarray)) for m in (pred, gt)):
        raise ValueError("box batches are n x 4 matrices (arrays or Vars)")
    p, g = val(pred), val(gt)
    if p.shape != g.shape or p.ndim != 2 or p.shape[1] != 4 or not len(p):
        raise ValueError("matched, non-empty n x 4 box batches required")
    if not ((p[:, 2:] > p[:, :2]).all() and (g[:, 2:] > g[:, :2]).all()):
        raise ValueError("degenerate box: requires x1 < x2, y1 < y2")
    return ad.smooth_l1_loss(pred, gt)


def _compose(bbox, cls, cap, entail, weights: LossWeights) -> LossReport:
    """The weighted terms and their total, one ``autodiff.weighted_total``
    node; an inactive term (None) is an exact zero and records nothing."""
    terms = (bbox, cls, cap, entail)
    scale = tuple(None if t is None else np.float64(getattr(weights, name))
                  for t, name in zip(terms, _TERMS))
    parts = [0.0 if w is None else val(t) * w for t, w in zip(terms, scale)]
    total = ad.weighted_total(*(0.0 if t is None else t for t in terms),
                              aux=scale)
    return LossReport(*parts, total=total)


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
