"""Lorentz (hyperboloid) model primitives.

A point of curvature ``C > 0`` lives on the upper sheet
``{(x_time, x_space) : <p, p>_H = -1/C, x_time > 0}`` where the Lorentzian
inner product is ``<u, v>_H = <u_space, v_space> - u_time * v_time``.  The
time coordinate is always derived from the space part, never stored
independently, so constructed points are on-manifold by definition.

Points come one at a time or as a batch, as in MERU's ``exp_map0`` /
``pairwise_dist`` / ``oxy_angle``: a :class:`LorentzPoint` holds one spatial
vector (d) or n spatial rows (n x d).  Functions of one point set return a
scalar, or one value per row; functions of two point sets return a scalar
for two single points and the n x m matrix over all row pairs for two
batches.  A single point is the 1-row case of the same formulas.  Edge cases
are masks over the batch, never per-pair branches: bitwise-identical points
are at distance 0, and coincident points have exterior angle 0, both with
zero gradient.

All operations are pure and deterministic, and they accept either plain
numerics or autodiff ``Var`` nodes (see :mod:`hypalign.autodiff`), so the
same formulas serve evaluation and training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val

#: Cone-aperture constant; keeps asin arguments away from overflow.
APERTURE_K = 0.1

#: Values of -C<u,v>_H below 1 - this tolerance are rejected as off-manifold.
OFF_MANIFOLD_TOL = 1e-6


@dataclass(frozen=True)
class Angle:
    """Angles in radians, restricted to [0, pi]: a scalar or an array."""

    radians: object  # float | ndarray | ad.Var

    def __post_init__(self):
        r = val(self.radians)
        if not np.all((r >= -1e-12) & (r <= math.pi + 1e-12)):
            raise ValueError(f"angle out of [0, pi]: {r}")

    @property
    def value(self):
        """The radians as a float, or as an array for a batch."""
        r = val(self.radians)
        return float(r) if np.ndim(r) == 0 else np.array(r)


def _check_curvature(c):
    cv = val(c)
    if not (cv > 0.0 and math.isfinite(cv)):
        raise ValueError(f"curvature must be positive and finite, got {cv}")
    return c


def _batched(p: "LorentzPoint") -> bool:
    return np.ndim(val(p.space)) == 2


def _indicator(cond) -> object:
    """1.0 where ``cond`` holds, else 0.0: a float, or an array for a batch."""
    out = np.where(cond, 1.0, 0.0)
    return float(out) if out.ndim == 0 else out


class LorentzPoint:
    """Hyperboloid points: a spatial vector (d) or rows (n x d), plus the
    curvature-implied time.

    ``space_norm`` and ``time`` (a scalar, or one entry per row) are
    computed once at construction and reused by the distance/angle
    operations.
    """

    __slots__ = ("space", "curvature", "space_norm", "time")

    def __init__(self, space, curvature):
        curvature = _check_curvature(curvature)
        sv = val(space)
        if np.ndim(sv) not in (1, 2):
            raise ValueError("spatial part must be a vector or a matrix")
        if not np.all(np.isfinite(sv)):
            raise ValueError("non-finite spatial coordinates")
        self.space = space
        self.curvature = curvature
        self.space_norm = ad.norm(space)
        # time = sqrt(1/C + ||space||^2) >= 1/sqrt(C)
        self.time = ad.sqrt(ad.add(ad.div(1.0, curvature),
                                   ad.mul(self.space_norm, self.space_norm)))

    def self_inner(self):
        """<p, p>_H, one per row for a batch; equals -1/C on the manifold."""
        inner = lorentz_inner(self, self)
        if _batched(self):
            return ad.pick(inner, range(len(val(self.space))))
        return inner

    def __repr__(self):
        return (f"LorentzPoint(space={val(self.space)!r}, "
                f"C={float(val(self.curvature))!r})")


def exp_map_origin(x, curvature) -> LorentzPoint:
    """Lift a Euclidean vector, or each row of a matrix, onto the hyperboloid.

    The spatial part is ``sinh(sqrt(C) ||x||) / (sqrt(C) ||x||) * x``; the
    scaling factor tends to 1 as ``x -> 0`` (series-expanded), so the map
    is smooth at the origin and lifts 0 to the apex.
    """
    curvature = _check_curvature(curvature)
    xv = val(x)
    if not np.all(np.isfinite(xv)):
        raise ValueError("non-finite input to exp_map_origin")
    t = ad.mul(ad.sqrt(curvature), ad.norm(x))
    return LorentzPoint(ad.scale_rows(ad.sinhc(t), x), curvature)


def _same_curvature(u: LorentzPoint, v: LorentzPoint):
    cu, cv = float(val(u.curvature)), float(val(v.curvature))
    if cu != cv:
        raise ValueError(f"curvature mismatch: {cu} vs {cv}")
    if _batched(u) != _batched(v):
        raise ValueError("pair a single point with a single point, "
                         "or a batch with a batch")


def lorentz_inner(u: LorentzPoint, v: LorentzPoint):
    """Lorentzian inner product <u, v>_H (symmetric, always <= -1/C); for
    two batches, the n x m matrix over row pairs."""
    _same_curvature(u, v)
    return ad.sub(ad.dot(u.space, v.space), ad.outer(u.time, v.time))


def _distinct(u: LorentzPoint, v: LorentzPoint):
    """0.0 where two points are bitwise identical, else 1.0."""
    us, vs = np.asarray(val(u.space)), np.asarray(val(v.space))
    if us.ndim == 1:
        return _indicator(not (u is v or np.array_equal(us, vs)))
    return _indicator(~np.all(us[:, None, :] == vs[None, :, :], axis=2))


def lorentz_distance(u: LorentzPoint, v: LorentzPoint):
    """Geodesic distance sqrt(1/C) * arccosh(-C <u, v>_H); for two batches,
    the n x m matrix over row pairs.

    The arccosh argument is clamped to >= 1 against rounding; arguments
    below 1 - OFF_MANIFOLD_TOL are rejected as genuinely off-manifold.
    Bitwise-identical points are masked to exactly zero with zero gradient:
    the inner product cancels catastrophically there, and zero is the
    subgradient convention at the kink anyway.
    """
    _same_curvature(u, v)
    c = u.curvature
    keep = _distinct(u, v)
    arg = ad.neg(ad.mul(c, lorentz_inner(u, v)))
    low = (np.asarray(val(arg)) < 1.0 - OFF_MANIFOLD_TOL) & (keep != 0.0)
    if np.any(low):
        worst = float(np.min(np.asarray(val(arg))[low]))
        raise ValueError(f"off-manifold pair: -C<u,v>_H = {worst} < 1")
    dist = ad.mul(ad.sqrt(ad.div(1.0, c)),
                  ad.arccosh(ad.clamp_min(arg, 1.0)))
    return ad.mul(dist, keep)


def half_aperture(c: LorentzPoint, k: float = APERTURE_K) -> Angle:
    """Half aperture asin(2K / (sqrt(C) ||c_space||)) of the cone at c, one
    per row for a batch.

    Monotonically non-increasing in the spatial norm; undefined at the
    apex (zero spatial norm), which is rejected.
    """
    if np.any(np.asarray(val(c.space_norm)) == 0.0):
        raise ValueError("cone undefined for a point with zero spatial norm")
    ratio = ad.div(2.0 * k, ad.mul(ad.sqrt(c.curvature), c.space_norm))
    return Angle(ad.asin(ad.clamp_max(ratio, 1.0)))


def exterior_angle(c: LorentzPoint, v: LorentzPoint) -> Angle:
    """Angle at ``c`` between the geodesic toward ``v`` and the direction
    away from the hyperboloid apex; for two batches, the n x m matrix over
    row pairs.

    cos(angle) = (v_time + c_time * C * <c,v>_H)
                 / (||c_space|| * sqrt((C <c,v>_H)^2 - 1))

    Coincident points ((C <c,v>_H)^2 <= 1) have no geodesic between them:
    their angle is 0 by convention, with zero gradient, so one such pair
    cannot abort a batch.  Membership in the entailment cone of ``c`` is
    the test ``exterior_angle(c, v) <= half_aperture(c)``.
    """
    _same_curvature(c, v)
    if np.any(np.asarray(val(c.space_norm)) == 0.0):
        raise ValueError("exterior angle undefined at the apex")
    curv = c.curvature
    ci = ad.mul(curv, lorentz_inner(c, v))
    denom_sq = ad.sub(ad.mul(ci, ci), 1.0)
    keep = _indicator(np.asarray(val(denom_sq)) > 0.0)
    # coincident entries get denominator 1, so every entry stays finite
    # before the mask zeroes their angle
    denom_sq = ad.add(ad.mul(denom_sq, keep), 1.0 - keep)
    ones = np.ones(len(val(c.time))) if _batched(c) else 1.0
    num = ad.add(ad.outer(ones, v.time), ad.scale_rows(c.time, ci))
    den = ad.scale_rows(c.space_norm, ad.sqrt(denom_sq))
    cos_angle = ad.clamp_max(ad.clamp_min(ad.div(num, den), -1.0), 1.0)
    return Angle(ad.mul(ad.arccos(cos_angle), keep))


def cone_contains(c: LorentzPoint, v: LorentzPoint,
                  k: float = APERTURE_K):
    """True iff v lies inside the entailment cone of c; for two batches,
    the n x m boolean matrix over row pairs."""
    angle = exterior_angle(c, v).value
    aperture = half_aperture(c, k).value
    if isinstance(aperture, float):
        return angle <= aperture
    return angle <= aperture[:, None]
