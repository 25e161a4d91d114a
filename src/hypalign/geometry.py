"""Lorentz (hyperboloid) model primitives.

A point of curvature ``C > 0`` lives on the upper sheet
``{(x_time, x_space) : <p, p>_H = -1/C, x_time > 0}`` where the Lorentzian
inner product is ``<u, v>_H = <u_space, v_space> - u_time * v_time``.  The
time coordinate is always derived from the space part, never stored
independently, so constructed points are on-manifold by definition.

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
    """An angle in radians, restricted to [0, pi]."""

    radians: object  # float | ad.Var

    def __post_init__(self):
        r = val(self.radians)
        if not (-1e-12 <= r <= math.pi + 1e-12):
            raise ValueError(f"angle out of [0, pi]: {r}")

    @property
    def value(self) -> float:
        return float(val(self.radians))


def _check_curvature(c):
    cv = val(c)
    if not (cv > 0.0 and math.isfinite(cv)):
        raise ValueError(f"curvature must be positive and finite, got {cv}")
    return c


class LorentzPoint:
    """A hyperboloid point: spatial vector plus curvature-implied time.

    ``space_norm`` and ``time`` are computed once at construction and
    reused by the distance/angle operations.
    """

    __slots__ = ("space", "curvature", "space_norm", "time")

    def __init__(self, space, curvature):
        curvature = _check_curvature(curvature)
        sv = val(space)
        if not np.all(np.isfinite(sv)):
            raise ValueError("non-finite spatial coordinates")
        self.space = space
        self.curvature = curvature
        self.space_norm = ad.norm(space)
        # time = sqrt(1/C + ||space||^2) >= 1/sqrt(C)
        self.time = ad.sqrt(ad.add(ad.div(1.0, curvature),
                                   ad.mul(self.space_norm, self.space_norm)))

    def self_inner(self):
        """<p, p>_H; equals -1/C for any on-manifold point."""
        return lorentz_inner(self, self)

    def __repr__(self):
        return (f"LorentzPoint(space={val(self.space)!r}, "
                f"C={float(val(self.curvature))!r})")


def exp_map_origin(x, curvature) -> LorentzPoint:
    """Lift a Euclidean vector onto the hyperboloid.

    The spatial part is ``sinh(sqrt(C) ||x||) / (sqrt(C) ||x||) * x``; the
    scaling factor tends to 1 as ``x -> 0`` (series-expanded), so the map
    is smooth at the origin and lifts 0 to the apex.
    """
    curvature = _check_curvature(curvature)
    xv = val(x)
    if not np.all(np.isfinite(xv)):
        raise ValueError("non-finite input to exp_map_origin")
    t = ad.mul(ad.sqrt(curvature), ad.norm(x))
    factor = ad.sinhc(t)
    return LorentzPoint(ad.mul(factor, x), curvature)


def _same_curvature(u: LorentzPoint, v: LorentzPoint):
    cu, cv = float(val(u.curvature)), float(val(v.curvature))
    if cu != cv:
        raise ValueError(f"curvature mismatch: {cu} vs {cv}")


def lorentz_inner(u: LorentzPoint, v: LorentzPoint):
    """Lorentzian inner product <u, v>_H (symmetric, always <= -1/C)."""
    _same_curvature(u, v)
    return ad.sub(ad.dot(u.space, v.space), ad.mul(u.time, v.time))


def _identical_points(u: LorentzPoint, v: LorentzPoint) -> bool:
    return u is v or np.array_equal(np.asarray(val(u.space)),
                                    np.asarray(val(v.space)))


def lorentz_distance(u: LorentzPoint, v: LorentzPoint):
    """Geodesic distance sqrt(1/C) * arccosh(-C <u, v>_H).

    The arccosh argument is clamped to >= 1 against rounding; arguments
    below 1 - OFF_MANIFOLD_TOL are rejected as genuinely off-manifold.
    Bitwise-identical points short-circuit to exactly zero: the inner
    product cancels catastrophically there, and zero is the subgradient
    convention at the kink anyway.
    """
    _same_curvature(u, v)
    c = u.curvature
    if _identical_points(u, v):
        for x in (u.space, v.space, c):
            if isinstance(x, ad.Var):
                return x.tape.const(0.0)
        return 0.0
    arg = ad.neg(ad.mul(c, lorentz_inner(u, v)))
    if val(arg) < 1.0 - OFF_MANIFOLD_TOL:
        raise ValueError(
            f"off-manifold pair: -C<u,v>_H = {val(arg)} < 1")
    return ad.mul(ad.sqrt(ad.div(1.0, c)),
                  ad.arccosh(ad.clamp_min(arg, 1.0)))


def half_aperture(c: LorentzPoint, k: float = APERTURE_K) -> Angle:
    """Half aperture asin(2K / (sqrt(C) ||c_space||)) of the cone at c.

    Monotonically non-increasing in the spatial norm; undefined at the
    apex (zero spatial norm), which is rejected.
    """
    if val(c.space_norm) == 0.0:
        raise ValueError("cone undefined for a point with zero spatial norm")
    ratio = ad.div(2.0 * k, ad.mul(ad.sqrt(c.curvature), c.space_norm))
    return Angle(ad.asin(ad.clamp_max(ratio, 1.0)))


def exterior_angle(c: LorentzPoint, v: LorentzPoint) -> Angle:
    """Angle at ``c`` between the geodesic toward ``v`` and the direction
    away from the hyperboloid apex.

    cos(angle) = (v_time + c_time * C * <c,v>_H)
                 / (||c_space|| * sqrt((C <c,v>_H)^2 - 1))

    Membership in the entailment cone of ``c`` is the test
    ``exterior_angle(c, v) <= half_aperture(c)``.
    """
    _same_curvature(c, v)
    if val(c.space_norm) == 0.0:
        raise ValueError("exterior angle undefined at the apex")
    curv = c.curvature
    ci = ad.mul(curv, lorentz_inner(c, v))
    denom_sq = ad.sub(ad.mul(ci, ci), 1.0)
    if val(denom_sq) <= 0.0:
        raise ValueError("exterior angle undefined for coincident points")
    num = ad.add(v.time, ad.mul(c.time, ci))
    den = ad.mul(c.space_norm, ad.sqrt(denom_sq))
    cos_angle = ad.clamp_max(ad.clamp_min(ad.div(num, den), -1.0), 1.0)
    return Angle(ad.arccos(cos_angle))


def cone_contains(c: LorentzPoint, v: LorentzPoint,
                  k: float = APERTURE_K) -> bool:
    """True iff v lies inside the entailment cone of c."""
    return exterior_angle(c, v).value <= half_aperture(c, k).value
