"""Language- and spatial-aware visual embedding construction.

``cross_modal_attention`` mixes text rows into a visual embedding,
``positional_encode`` adds box geometry (sinusoidal encoding plus a learned
projection of the proposal feature), and ``fuse`` combines the two views
through a small residual MLP standing in for a region-fusion network.

All forwards are pure functions of their inputs and work on plain arrays
or autodiff ``Var`` values alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .datasynth import Box

DEFAULT_HEAD_COUNT = 4


def _shape(x) -> tuple:
    return np.shape(val(x))


@dataclass(frozen=True)
class AttentionWeights:
    """Projection matrices for multi-head cross-modal attention.

    ``w_q``, ``w_k``, ``w_v`` map d -> d_h (right multiplication of row
    vectors); ``w_out`` maps the concatenated d_h head outputs back to d.
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

    @property
    def hidden_dim(self) -> int:
        return _shape(self.w_q)[1]


def cross_modal_attention(v, text, weights: AttentionWeights):
    """Attend from a visual embedding over text rows.

    Scores are scaled by 1/sqrt(d_h); each head softmaxes over the n text
    rows, head outputs are concatenated and projected by ``w_out``.
    """
    if _shape(text)[0] == 0:
        raise ValueError("attention requires at least one text row")
    dh = weights.hidden_dim
    scale = 1.0 / math.sqrt(dh)
    q = ad.vecmat(v, weights.w_q)
    keys = ad.matmul(text, weights.w_k)
    values = ad.matmul(text, weights.w_v)
    hd = dh // weights.head_count
    dists = []
    head_values = []
    for h in range(weights.head_count):
        lo, hi = h * hd, (h + 1) * hd
        scores = ad.mul(ad.matvec(ad.cols(keys, lo, hi),
                                  ad.vslice(q, lo, hi)), scale)
        dists.append(ad.softmax(scores))
        head_values.append(ad.cols(values, lo, hi))
    mixed = [ad.vecmat(d, hv) for d, hv in zip(dists, head_values)]
    return ad.vecmat(ad.concat(mixed), weights.w_out)


@dataclass(frozen=True)
class RegionFeature:
    """A region's visual embedding, its box, and its proposal feature."""

    v: object
    box: Box
    p: object

    def __post_init__(self):
        if not isinstance(self.box, Box):
            raise ValueError("RegionFeature.box must be a Box")
        for name in ("v", "p"):
            if not np.all(np.isfinite(val(getattr(self, name)))):
                raise ValueError(f"non-finite entries in {name}")


def sinusoidal_box_encoding(box: Box, d: int) -> np.ndarray:
    """Fixed sinusoidal encoding of (cx, cy, w, h).

    Each coordinate gets d/8 frequency bands at geometrically spaced
    wavelengths (angle = pi * 2^band * value), emitting a sin/cos pair per
    band; all entries lie in [-1, 1].
    """
    if d % 8 != 0:
        raise ValueError(f"embedding dim must be divisible by 8, got {d}")
    bands = d // 8
    out = []
    for z in box.features():
        for b in range(bands):
            angle = math.pi * (2.0 ** b) * float(z)
            out.append(math.sin(angle))
            out.append(math.cos(angle))
    return np.array(out)


def positional_encode(rf: RegionFeature, proj):
    """Spatial-aware embedding: v + proj(p) + PE(box)."""
    d = _shape(rf.v)[0]
    p_dim = _shape(rf.p)[0]
    if _shape(proj) != (p_dim, d):
        raise ValueError("proposal projection must map p to the embedding dim")
    encoded = sinusoidal_box_encoding(rf.box, d)
    return ad.add(ad.add(rf.v, ad.vecmat(rf.p, proj)), encoded)


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

    @classmethod
    def identity(cls, d: int) -> "FusionMlp":
        """Parameters that make ``fuse`` the exact identity map."""
        return cls(w1=np.zeros((d, 2 * d)), b1=np.zeros(2 * d),
                   w2=np.zeros((2 * d, d)), b2=np.zeros(d))


def fuse(v_l, v_s, mlp: FusionMlp):
    """Combine language-aware and spatial-aware embeddings."""
    if _shape(v_l) != _shape(v_s):
        raise ValueError("fuse requires equally shaped embeddings")
    x = ad.add(v_l, v_s)
    hidden = ad.tanh(ad.add(ad.vecmat(x, mlp.w1), mlp.b1))
    return ad.add(ad.add(x, ad.vecmat(hidden, mlp.w2)), mlp.b2)
