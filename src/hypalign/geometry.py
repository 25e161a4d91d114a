"""Lorentz (hyperboloid) model primitives.

A point of curvature ``C > 0`` lives on the upper sheet
``{(x_time, x_space) : <p, p>_H = -1/C, x_time > 0}`` where the Lorentzian
inner product is ``<u, v>_H = <u_space, v_space> - u_time * v_time``.  The
time coordinate is always derived from the space part, never stored
independently, so constructed points are on-manifold by definition.

Points come as a batch, as in MERU's ``exp_map0`` / ``pairwise_dist`` /
``oxy_angle``: a :class:`LorentzPoint` holds n spatial rows (an n x d
matrix, n >= 1; one point is a 1-row batch).  Functions of one batch return
one value per row; functions of two batches return the n x m matrix over
all row pairs.  Edge cases are masks over the batch, never per-pair
branches: bitwise-identical points are at distance 0, and coincident points
have exterior angle 0, both with zero gradient.

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
    """Angles in radians, restricted to [0, pi]: one per row or row pair."""

    radians: object  # float | ndarray | ad.Var

    def __post_init__(self):
        # the extremes, from 0.0 so that an empty array passes; NaN fails
        r = val(self.radians)
        if not (np.minimum.reduce(r, axis=None, initial=0.0) >= -1e-12
                and np.maximum.reduce(r, axis=None, initial=0.0)
                <= math.pi + 1e-12):
            raise ValueError(f"angle out of [0, pi]: {r}")

    @property
    def value(self) -> np.ndarray:
        """The radians as a plain array."""
        return np.array(val(self.radians))


def _check_curvature(c):
    cv = val(c)
    if not (cv > 0.0 and math.isfinite(cv)):
        raise ValueError(f"curvature must be positive and finite, got {cv}")
    return c


def _check_rows(x, what: str) -> None:
    shape = np.shape(val(x))
    if len(shape) != 2 or not shape[0]:
        raise ValueError(f"{what} must be an n x d matrix of rows with "
                         f"n >= 1, got shape {shape}")


class LorentzPoint:
    """A batch of hyperboloid points: spatial rows (n x d), plus the
    curvature-implied time.

    ``space_norm`` and ``time`` (one entry per row) are plain arrays even
    for rows on a tape, computed once at construction and reused by the
    distance and cone rows, which differentiate through them: in a tape
    expression of one's own they are constants and pass no gradient.
    """

    __slots__ = ("space", "curvature", "space_norm", "time")

    def __init__(self, space, curvature):
        curvature = _check_curvature(curvature)
        _check_rows(space, "the spatial part")
        self._place(space, curvature)

    def _place(self, space, curvature):
        # curvature and row shape already checked (a lift keeps the shape);
        # plain rows are kept as a float64 array
        sv = ad._num(val(space))
        if not np.isfinite(sv).all():
            raise ValueError("non-finite spatial coordinates")
        self.space = space if isinstance(space, ad.Var) else sv
        self.curvature = curvature
        self.space_norm = ad._norm(sv)
        # time = sqrt(1/C + ||space||^2) >= 1/sqrt(C)
        self.time = np.sqrt(1.0 / val(curvature)
                            + self.space_norm * self.space_norm)

    def __repr__(self):
        return (f"LorentzPoint(space={val(self.space)!r}, "
                f"C={float(val(self.curvature))!r})")


def exp_map_origin(x, curvature) -> LorentzPoint:
    """Lift each row of an n x d matrix onto the hyperboloid.

    The spatial part is ``sinh(sqrt(C) ||x||) / (sqrt(C) ||x||) * x``; the
    scaling factor tends to 1 as ``x -> 0`` (series-expanded), so the map
    is smooth at the origin and lifts 0 to the apex.
    """
    curvature = _check_curvature(curvature)
    _check_rows(x, "exp_map_origin input")
    xv = val(x)
    if not np.isfinite(xv).all():
        raise ValueError("non-finite input to exp_map_origin")
    point = LorentzPoint.__new__(LorentzPoint)
    point._place(ad.lift(x, curvature), curvature)
    return point


def _same_curvature(u: LorentzPoint, v: LorentzPoint):
    cu, cv = float(val(u.curvature)), float(val(v.curvature))
    if cu != cv:
        raise ValueError(f"curvature mismatch: {cu} vs {cv}")


def _inner(u: LorentzPoint, v: LorentzPoint) -> np.ndarray:
    """Lorentzian inner product <u, v>_H (symmetric, always <= -1/C) of
    every row pair, as a plain n x m matrix, for rows on a tape too: the
    distance and cone rows differentiate through it."""
    _same_curvature(u, v)
    return ad._dot(val(u.space), val(v.space)) - u.time[:, None] * v.time


def lorentz_distance(u: LorentzPoint, v: LorentzPoint):
    """Geodesic distance sqrt(1/C) * arccosh(-C <u, v>_H) of every row
    pair: an n x m matrix.

    The arccosh argument is clamped to >= 1 against rounding; arguments
    below 1 - OFF_MANIFOLD_TOL are rejected as genuinely off-manifold.
    Bitwise-identical points are masked to exactly zero with zero gradient:
    the inner product cancels catastrophically there, and zero is the
    subgradient convention at the kink anyway.
    """
    inner = _inner(u, v)
    return ad.lorentz_dist(u.space, v.space, u.curvature, v.curvature,
                           aux=(u.time, v.time, inner, OFF_MANIFOLD_TOL))


def half_aperture(c: LorentzPoint, k: float = APERTURE_K) -> Angle:
    """Half aperture asin(2K / (sqrt(C) ||c_space||)) of the cone at each
    row of c.

    Monotonically non-increasing in the spatial norm; undefined at the
    apex (zero spatial norm), which is rejected.
    """
    if np.any(c.space_norm == 0.0):
        raise ValueError("cone undefined for a point with zero spatial norm")
    return Angle(ad.cone_aperture(c.space, c.curvature,
                                  aux=(c.space_norm, k)))


def exterior_angle(c: LorentzPoint, v: LorentzPoint) -> Angle:
    """Angle at ``c`` between the geodesic toward ``v`` and the direction
    away from the hyperboloid apex, for every row pair: an n x m matrix.

    cos(angle) = (v_time + c_time * C * <c,v>_H)
                 / (||c_space|| * sqrt((C <c,v>_H)^2 - 1))

    Coincident points ((C <c,v>_H)^2 <= 1) have no geodesic between them:
    their angle is 0 by convention, with zero gradient, so one such pair
    cannot abort a batch.  Membership in the entailment cone of ``c`` is
    the test ``exterior_angle(c, v) <= half_aperture(c)``.
    """
    inner = _inner(c, v)
    if np.any(c.space_norm == 0.0):
        raise ValueError("exterior angle undefined at the apex")
    return Angle(ad.cone_angle(c.space, v.space, c.curvature, v.curvature,
                               aux=(c.space_norm, c.time, v.time, inner)))


def cone_contains(c: LorentzPoint, v: LorentzPoint,
                  k: float = APERTURE_K):
    """Whether row j of v lies inside the entailment cone of row i of c:
    the n x m boolean matrix over row pairs."""
    return exterior_angle(c, v).value <= half_aperture(c, k).value[:, None]
