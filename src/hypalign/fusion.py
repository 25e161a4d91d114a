"""Language- and spatial-aware visual embedding construction.

``cross_modal_attention`` mixes each visual row with the text rows of its
own caption, ``positional_encode`` adds box geometry (sinusoidal encoding
plus a learned projection of the proposal feature), and ``fuse`` combines
the two views through a small residual MLP standing in for a region-fusion
network.

Each forward takes an n x d matrix of visual rows, one per region, works
on plain arrays or autodiff ``Var`` values alike, and records a fixed
handful of tape nodes whatever n is.  Attention is one node, all heads
included: ``cross_modal_attention`` checks the rows and the token owners
and builds the -inf mask, and ``autodiff.attention`` does the rest.  The
fusion MLP is one ``autodiff.residual_mlp`` node.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import val

DEFAULT_HEAD_COUNT = 4


def _shape(x) -> tuple:
    return np.shape(val(x))


@dataclass(frozen=True)
class AttentionWeights:
    """Projection matrices for multi-head cross-modal attention.

    ``w_q``, ``w_k``, ``w_v`` map d -> d_h (right multiplication of row
    vectors); ``w_out`` maps the d_h head outputs, side by side, back to d.
    """

    w_q: object
    w_k: object
    w_v: object
    w_out: object
    head_count: int = DEFAULT_HEAD_COUNT
    #: ``False`` skips the shape and finiteness checks, for weights whose
    #: layout is already checked and whose values are known finite
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if not check:
            return
        d, dh = _shape(self.w_q)
        if _shape(self.w_k) != (d, dh) or _shape(self.w_v) != (d, dh):
            raise ValueError("query/key/value projections disagree on shape")
        if _shape(self.w_out) != (dh, d):
            raise ValueError("output projection must map d_h back to d")
        if self.head_count < 1 or dh % self.head_count != 0:
            raise ValueError(
                f"hidden dim {dh} not divisible by {self.head_count} heads")
        for name in ("w_q", "w_k", "w_v", "w_out"):
            if not np.all(np.isfinite(val(getattr(self, name)))):
                raise ValueError(f"non-finite entries in {name}")


def cross_modal_attention(visual, text, owner: Sequence[int],
                          weights: AttentionWeights):
    """Attend from each visual row over the text rows it owns.

    ``text`` holds the token rows of every caption in the batch; ``owner[j]``
    is the visual row that text row j belongs to.  Scores are scaled by
    1/sqrt(d_h) and are -inf outside the row's own tokens, so one row-wise
    softmax per head covers the batch; each head's output is projected by
    its rows of ``w_out`` and the heads are summed.  The whole formula is
    one ``autodiff.attention`` node.
    """
    d = _shape(weights.w_q)[0]
    vis_shape, text_shape = _shape(visual), _shape(text)
    if (len(vis_shape) != 2 or len(text_shape) != 2
            or vis_shape[1] != d or text_shape[1] != d):
        raise ValueError(f"attention takes n x {d} visual rows and L x {d} "
                         f"text rows, got shapes {vis_shape} and "
                         f"{text_shape}")
    owner = ad.indices(owner, "owner")
    own = owner.ravel()[None, :] == np.arange(vis_shape[0])[:, None]
    if (owner.shape != (text_shape[0],) or not own.any(axis=0).all()
            or not own.any(axis=1).all()):
        raise ValueError("each text row needs an owner visual row, and each "
                         "visual row at least one text row")
    return ad.attention(visual, text, weights.w_q, weights.w_k, weights.w_v,
                        weights.w_out,
                        aux=(np.where(own, 0.0, -np.inf), weights.head_count))


def encode_boxes(corners: np.ndarray, d: int) -> tuple:
    """The (cx, cy, w, h) proposal feature rows of an n x 4 array of
    checked (x1, y1, x2, y2) boxes, and their fixed sinusoidal encoding,
    n x d; each row depends on its box alone.

    Each feature gets d/8 frequency bands at geometrically spaced
    wavelengths (angle = pi * 2^band * value), emitting a sin/cos pair per
    band; all entries lie in [-1, 1].
    """
    if d % 8 != 0:
        raise ValueError(f"embedding dim must be divisible by 8, got {d}")
    x1, y1, x2, y2 = corners.T
    z = np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1], axis=1)
    angle = (math.pi * 2.0 ** np.arange(d // 8)) * z[:, :, None]
    return z, np.stack([np.sin(angle), np.cos(angle)], axis=3).reshape(-1, d)


def positional_encode(visual, boxes: tuple, proj):
    """Spatial-aware embeddings: row i is v_i + proj(p_i) + PE(p_i), with
    p_i the proposal feature of box i and PE(p_i) its encoding, row i of
    each array of ``boxes``, the ``encode_boxes`` pair of n box rows."""
    n, d = _shape(visual)
    if (not isinstance(boxes, tuple)
            or [np.shape(b) for b in boxes] != [(n, 4), (n, d)]):
        raise ValueError("positional encoding needs one box row per visual "
                         "row: the encode_boxes pair of n x 4 corners")
    if _shape(proj) != (4, d):
        raise ValueError("proposal projection must map p to the embedding dim")
    return ad.add(ad.add(visual, ad.matmul(boxes[0], proj)), boxes[1])


@dataclass(frozen=True)
class FusionMlp:
    """Residual two-layer MLP: x + tanh(x W1 + b1) W2 + b2.

    The residual form admits an exact identity-pass construction (zero
    second layer), which a plain MLP with a smooth nonlinearity cannot
    achieve; width is fixed at 2d.
    """

    w1: object
    b1: object
    w2: object
    b2: object
    #: ``False`` skips the shape checks, as for ``AttentionWeights``
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if not check:
            return
        d, hidden = _shape(self.w1)
        if hidden != 2 * d:
            raise ValueError("fusion hidden width must be 2d")
        if (_shape(self.b1) != (hidden,) or _shape(self.w2) != (hidden, d)
                or _shape(self.b2) != (d,)):
            raise ValueError("fusion MLP parameter shapes disagree")


def fuse(v_l, v_s, mlp: FusionMlp):
    """Combine language-aware and spatial-aware n x d embeddings row-wise,
    in one ``autodiff.residual_mlp`` node; the biases are added to every
    row."""
    if _shape(v_l) != _shape(v_s) or len(_shape(v_l)) != 2:
        raise ValueError("fuse requires two equally shaped n x d matrices")
    return ad.residual_mlp(v_l, v_s, mlp.w1, mlp.b1, mlp.w2, mlp.b2)
