"""Language- and spatial-aware visual embedding construction.

``cross_modal_attention`` mixes each visual row with the text rows of its
own caption, ``positional_encode`` adds box geometry (sinusoidal encoding
plus a learned projection of the proposal feature), and ``fuse`` combines
the two views through a small residual MLP standing in for a region-fusion
network.

Each forward takes an n x d matrix of visual rows, one per region, works
on plain arrays or autodiff ``Var`` values alike, and records a fixed
handful of tape nodes whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def __post_init__(self):
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
    its rows of ``w_out`` and the heads are summed.
    """
    n = _shape(visual)[0]
    owner = np.asarray(owner, dtype=np.intp)
    own = owner[None, :] == np.arange(n)[:, None]
    if (owner.shape != (_shape(text)[0],) or not own.any(axis=0).all()
            or not own.any(axis=1).all()):
        raise ValueError("each text row needs an owner visual row, and each "
                         "visual row at least one text row")
    mask = np.where(own, 0.0, -np.inf)
    dh = _shape(weights.w_q)[1]
    scale = 1.0 / math.sqrt(dh)
    hd = dh // weights.head_count
    q = ad.matmul(visual, weights.w_q)
    keys = ad.matmul(text, weights.w_k)
    values = ad.matmul(text, weights.w_v)
    out = None
    for h in range(weights.head_count):
        lo, hi = h * hd, (h + 1) * hd
        scores = ad.mul(ad.dot(ad.cols(q, lo, hi), ad.cols(keys, lo, hi)),
                        scale)
        attn = ad.softmax(ad.add(scores, mask))
        head = ad.matmul(ad.matmul(attn, ad.cols(values, lo, hi)),
                         ad.take_row(weights.w_out, range(lo, hi)))
        out = head if out is None else ad.add(out, head)
    return out


def sinusoidal_box_encoding(features, d: int) -> np.ndarray:
    """Fixed sinusoidal encoding of an n x 4 matrix of (cx, cy, w, h) rows:
    n x d.

    Each coordinate gets d/8 frequency bands at geometrically spaced
    wavelengths (angle = pi * 2^band * value), emitting a sin/cos pair per
    band; all entries lie in [-1, 1].
    """
    if d % 8 != 0:
        raise ValueError(f"embedding dim must be divisible by 8, got {d}")
    z = np.asarray(features, dtype=np.float64)
    angle = (math.pi * 2.0 ** np.arange(d // 8)) * z[:, :, None]
    return np.stack([np.sin(angle), np.cos(angle)], axis=3).reshape(-1, d)


def positional_encode(visual, corners: np.ndarray, proj):
    """Spatial-aware embeddings: row i is v_i + proj(p_i) + PE(p_i), with
    p_i the (cx, cy, w, h) proposal feature of box row i of ``corners``,
    an n x 4 array of checked (x1, y1, x2, y2) boxes."""
    n, d = _shape(visual)
    if not isinstance(corners, np.ndarray) or corners.shape != (n, 4):
        raise ValueError("positional encoding needs one box row per visual "
                         "row: an n x 4 array of (x1, y1, x2, y2) corners")
    if _shape(proj) != (4, d):
        raise ValueError("proposal projection must map p to the embedding dim")
    x1, y1, x2, y2 = corners.T
    features = np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1],
                        axis=1)
    return ad.add(ad.add(visual, ad.matmul(features, proj)),
                  sinusoidal_box_encoding(features, d))


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

    def __post_init__(self):
        d, hidden = _shape(self.w1)
        if hidden != 2 * d:
            raise ValueError("fusion hidden width must be 2d")
        if (_shape(self.b1) != (hidden,) or _shape(self.w2) != (hidden, d)
                or _shape(self.b2) != (d,)):
            raise ValueError("fusion MLP parameter shapes disagree")


def fuse(v_l, v_s, mlp: FusionMlp):
    """Combine language-aware and spatial-aware n x d embeddings row-wise;
    the biases are added to every row."""
    if _shape(v_l) != _shape(v_s) or len(_shape(v_l)) != 2:
        raise ValueError("fuse requires two equally shaped n x d matrices")
    x = ad.add(v_l, v_s)
    hidden = ad.tanh(ad.add(ad.matmul(x, mlp.w1), mlp.b1))
    return ad.add(ad.add(x, ad.matmul(hidden, mlp.w2)), mlp.b2)
