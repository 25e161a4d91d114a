"""Lorentz-model tests against high-precision and sampling oracles.

Frozen constants below were produced with the mpmath oracles in this file
at 50 decimal digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hypalign import autodiff as ad
from hypalign import geometry as geo

mp.mp.dps = 50


# --- oracles ----------------------------------------------------------------


def oracle_lift(vec, c):
    """Arbitrary-precision exponential map at the origin."""
    vec = [mp.mpf(float(x)) for x in vec]
    c = mp.mpf(float(c))
    n = mp.sqrt(sum(x * x for x in vec))
    t = mp.sqrt(c) * n
    fac = mp.sinh(t) / t if t != 0 else mp.mpf(1)
    space = [fac * x for x in vec]
    time = mp.sqrt(1 / c + sum(s * s for s in space))
    return space, time, c


def oracle_distance(p, q):
    (sp, tp, c) = p
    (sq, tq, _) = q
    inner = sum(a * b for a, b in zip(sp, sq)) - tp * tq
    return mp.sqrt(1 / c) * mp.acosh(-c * inner)


def oracle_exterior_angle(p, q):
    """Exterior angle via log maps and tangent-space inner products.

    Independent route: scale both points to the unit hyperboloid (angles
    are invariant under that conformal scaling), take the initial tangent
    of the geodesic toward the target and of the geodesic away from the
    apex, and measure the angle between them with the Minkowski metric.
    """
    (sp, tp, c) = p
    (sq, tq, _) = q
    rc = mp.sqrt(c)
    x = [tp * rc] + [s * rc for s in sp]   # (time, space...) on unit sheet
    y = [tq * rc] + [s * rc for s in sq]
    o = [mp.mpf(1)] + [mp.mpf(0)] * len(sp)

    def minkowski(u, v):
        return -u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))

    def log_map(base, target):
        alpha = -minkowski(base, target)
        coef = mp.acosh(alpha) / mp.sqrt(alpha * alpha - 1)
        return [coef * (t - alpha * b) for t, b in zip(target, base)]

    to_target = log_map(x, y)
    away_from_apex = [-u for u in log_map(x, o)]

    def tangent_angle(u, v):
        nu = mp.sqrt(minkowski(u, u))
        nv = mp.sqrt(minkowski(v, v))
        cosang = minkowski(u, v) / (nu * nv)
        cosang = max(min(cosang, mp.mpf(1)), mp.mpf(-1))
        return mp.acos(cosang)

    return tangent_angle(to_target, away_from_apex)


def lift(vec, c=1.0):
    """One point as a 1-row batch."""
    return geo.exp_map_origin(np.asarray(vec, dtype=float)[None, :], c)


def point(vec, c=1.0):
    """A 1-row batch with the given spatial part."""
    return geo.LorentzPoint(np.asarray(vec, dtype=float)[None, :], c)


def one(x):
    """The single entry of a 1-row (or 1 x 1) result."""
    return np.asarray(ad.val(x)).item()


def self_inner(p):
    """<p, p>_H of each row; -1/C on the manifold."""
    return np.diag(ad.val(geo._inner(p, p)))


# --- exp_map_origin ----------------------------------------------------------


def test_lift_of_zero_is_apex():
    for d in (1, 2, 5):
        p = lift(np.zeros(d), 1.0)
        assert np.allclose(ad.val(p.space), 0.0)
        assert one(p.time) == pytest.approx(1.0, abs=1e-15)


def test_lift_near_zero_is_first_order_identity():
    x = np.array([1e-9, -2e-9])
    p = lift(x, 1.0)
    assert np.allclose(ad.val(p.space), [x], rtol=1e-9)


def test_lift_norm_matches_high_precision_oracle():
    # sinh(sqrt(C)||x||)/sqrt(C) for x = (0.3, 0.4), C = 1
    p = lift([0.3, 0.4], 1.0)
    assert one(p.space_norm) == pytest.approx(0.5210953054937474,
                                              abs=1e-15)


def test_lift_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        lift([np.nan, 0.0])
    with pytest.raises(ValueError, match="curvature"):
        lift([1.0, 0.0], -2.0)


def test_manifold_constraint_on_random_lifts():
    """Lifts at embedding scale (sqrt(C)||x|| <= ~5, where double precision
    keeps sinh^2 roundoff below 1e-9)."""
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        c = float(rng.uniform(0.25, 2.0))
        x = rng.normal(scale=rng.uniform(0.05, 1.0), size=d)
        p = lift(x, c)
        assert abs(one(self_inner(p)) + 1.0 / c) <= 1e-9


# --- _inner -----------------------------------------------------------------


def test_inner_of_apexes_is_pure_time_term():
    a = lift([0.0, 0.0], 4.0)
    b = lift([0.0, 0.0], 4.0)
    assert one(geo._inner(a, b)) == pytest.approx(-0.25, abs=1e-15)


def test_inner_hand_evaluated_case():
    # spatial parts (1,0) and (0,1) at C=1: 0 - sqrt(2)*sqrt(2) = -2
    a = point([1.0, 0.0])
    b = point([0.0, 1.0])
    assert one(geo._inner(a, b)) == pytest.approx(-2.0, abs=1e-12)


def test_inner_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = lift(rng.normal(size=3), 2.0)
        v = lift(rng.normal(size=3), 2.0)
        assert one(geo._inner(u, v)) == one(geo._inner(v, u))


def test_inner_rejects_curvature_mismatch():
    u = lift([0.5, 0.0], 1.0)
    v = lift([0.5, 0.0], 2.0)
    with pytest.raises(ValueError, match="mismatch"):
        geo._inner(u, v)


# --- lorentz_distance --------------------------------------------------------


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = lift(rng.normal(size=4), 1.5)
        assert one(geo.lorentz_distance(p, p)) == 0.0


def test_distance_matches_high_precision_oracle():
    u = lift([0.5, 0.0], 1.0)
    v = lift([0.0, 0.5], 1.0)
    assert one(geo.lorentz_distance(u, v)) == pytest.approx(
        0.7212077167133576, abs=1e-14)


def test_distance_randoms_match_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = float(rng.uniform(0.3, 4.0))
        xu = rng.normal(size=3)
        xv = rng.normal(size=3)
        got = one(geo.lorentz_distance(lift(xu, c), lift(xv, c)))
        want = float(oracle_distance(oracle_lift(xu, c), oracle_lift(xv, c)))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_distance_is_a_metric_on_sampled_triples():
    rng = np.random.default_rng(17)
    c = 1.0
    for _ in range(1000):
        pts = [lift(rng.normal(scale=0.8, size=3), c) for _ in range(3)]
        dab = one(geo.lorentz_distance(pts[0], pts[1]))
        dba = one(geo.lorentz_distance(pts[1], pts[0]))
        dbc = one(geo.lorentz_distance(pts[1], pts[2]))
        dac = one(geo.lorentz_distance(pts[0], pts[2]))
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dac <= dab + dbc + 1e-8


def test_distance_rejects_off_manifold():
    u = lift([0.5, 0.0], 1.0)
    fake = point([0.5, 0.0])
    fake.time = np.array([0.5])  # breaks the manifold constraint on purpose
    with pytest.raises(ValueError, match="off-manifold"):
        geo.lorentz_distance(u, fake)


# --- half_aperture -----------------------------------------------------------


def test_half_aperture_boundary_is_pi_over_two():
    # sqrt(C)||c_space|| == 2K puts asin at its upper boundary
    c = point([0.2, 0.0])
    assert one(geo.half_aperture(c, k=0.1).value) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_half_aperture_direct_formula_case():
    # C = 1, ||c_space|| = 0.4, K = 0.1 -> asin(0.5) = pi/6
    c = point([0.4, 0.0])
    assert one(geo.half_aperture(c, k=0.1).value) == pytest.approx(
        math.pi / 6, rel=1e-12)


def test_half_aperture_vanishes_for_far_points():
    c = point([1e6, 0.0])
    assert one(geo.half_aperture(c).value) == pytest.approx(0.0, abs=1e-6)


def test_half_aperture_monotone_in_spatial_norm():
    rng = np.random.default_rng(19)
    norms = np.sort(rng.uniform(0.05, 10.0, size=200))
    apertures = [
        one(geo.half_aperture(point([n, 0.0])).value) for n in norms
    ]
    assert all(a >= b - 1e-15 for a, b in zip(apertures, apertures[1:]))


def test_half_aperture_rejects_apex():
    apex = lift([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="zero spatial norm"):
        geo.half_aperture(apex)


# --- exterior_angle ----------------------------------------------------------


def test_exterior_angle_collinear_is_zero():
    # v on the radial geodesic through c, further from the apex
    direction = np.array([0.6, 0.8])
    c = lift(direction * 0.5, 1.0)
    v = lift(direction * 1.5, 1.0)
    got = one(geo.exterior_angle(c, v).value)
    want = float(oracle_exterior_angle(oracle_lift(direction * 0.5, 1.0),
                                       oracle_lift(direction * 1.5, 1.0)))
    assert got == pytest.approx(want, abs=1e-6)
    assert got <= 1e-6


def test_exterior_angle_opposite_is_pi():
    direction = np.array([1.0, 0.0])
    c = lift(direction * 0.7, 1.0)
    v = lift(-direction * 0.9, 1.0)
    got = one(geo.exterior_angle(c, v).value)
    want = float(oracle_exterior_angle(oracle_lift(direction * 0.7, 1.0),
                                       oracle_lift(-direction * 0.9, 1.0)))
    assert got == pytest.approx(want, abs=1e-6)
    assert got == pytest.approx(math.pi, abs=1e-6)


def test_exterior_angle_matches_log_map_oracle_on_randoms():
    rng = np.random.default_rng(23)
    for _ in range(200):
        c = float(rng.uniform(0.3, 3.0))
        xc = rng.normal(scale=0.8, size=3)
        xv = rng.normal(scale=0.8, size=3)
        if np.linalg.norm(xc) < 1e-3 or np.linalg.norm(xc - xv) < 1e-3:
            continue
        got = one(geo.exterior_angle(lift(xc, c), lift(xv, c)).value)
        want = float(oracle_exterior_angle(oracle_lift(xc, c),
                                           oracle_lift(xv, c)))
        assert got == pytest.approx(want, abs=1e-8)


def test_cone_membership_agrees_with_sampling_oracle():
    """Membership decided by our closed form vs the log-map oracle angle."""
    rng = np.random.default_rng(29)
    checked = 0
    inside_seen = 0
    while checked < 400:
        xc = rng.normal(scale=0.7, size=2)
        if np.linalg.norm(xc) < 0.25:
            continue
        # bias half the samples toward the parent's own direction so both
        # outcomes of the membership test occur
        if checked % 2 == 0:
            xv = xc * rng.uniform(1.2, 3.0) + rng.normal(scale=0.05, size=2)
        else:
            xv = rng.normal(scale=0.7, size=2)
        if np.linalg.norm(xc - xv) < 1e-3:
            continue
        cpt, vpt = lift(xc, 1.0), lift(xv, 1.0)
        aperture = one(geo.half_aperture(cpt).value)
        angle = one(geo.exterior_angle(cpt, vpt).value)
        if abs(angle - aperture) < 1e-9:   # skip knife-edge cases
            continue
        oracle_angle = float(oracle_exterior_angle(oracle_lift(xc, 1.0),
                                                   oracle_lift(xv, 1.0)))
        assert (angle <= aperture) == (oracle_angle <= aperture)
        assert one(geo.cone_contains(cpt, vpt)) == (angle <= aperture)
        inside_seen += int(angle <= aperture)
        checked += 1
    assert 0 < inside_seen < checked  # both branches exercised


def test_exterior_angle_in_range_and_continuous():
    rng = np.random.default_rng(31)
    for _ in range(200):
        xc = rng.normal(scale=0.8, size=3)
        xv = rng.normal(scale=0.8, size=3)
        if np.linalg.norm(xc) < 0.1 or np.linalg.norm(xc - xv) < 0.05:
            continue
        c, v = lift(xc, 1.0), lift(xv, 1.0)
        angle = one(geo.exterior_angle(c, v).value)
        assert 0.0 <= angle <= math.pi
        if angle < 1e-3 or angle > math.pi - 1e-3:
            continue  # near the arccos clamp boundary
        v2 = lift(xv + rng.normal(scale=1e-6 / math.sqrt(3), size=3), 1.0)
        assert abs(one(geo.exterior_angle(c, v2).value) - angle) <= 1e-3


def test_exterior_angle_of_coincident_points_is_zero_with_zero_gradient():
    # no geodesic joins coincident points: the angle is 0 by convention
    p = lift([0.5, 0.1], 1.0)
    q = lift([0.5, 0.1], 1.0)
    assert one(geo.exterior_angle(p, q).value) == 0.0
    tape = ad.Tape()
    x = tape.leaf(np.array([[0.5, 0.1]]), name="x")
    y = tape.leaf(np.array([[0.5, 0.1]]), name="y")
    angle = geo.exterior_angle(geo.exp_map_origin(x, 1.0),
                               geo.exp_map_origin(y, 1.0)).radians
    grads = ad.backward(tape, ad.sum(angle))
    assert np.array_equal(grads["x"], np.zeros((1, 2)))
    assert np.array_equal(grads["y"], np.zeros((1, 2)))
    # inside a batch the coincident pair is masked; the others are exact
    cone_rows = np.array([[0.5, 0.1], [-0.3, 0.7]])
    other_rows = np.array([[0.5, 0.1], [0.9, -0.2]])
    angles = geo.exterior_angle(geo.exp_map_origin(cone_rows, 1.0),
                                geo.exp_map_origin(other_rows, 1.0)).value
    assert angles[0, 0] == 0.0
    for i, j in ((0, 1), (1, 0), (1, 1)):
        want = geo.exterior_angle(lift(cone_rows[i]), lift(other_rows[j]))
        assert angles[i, j] == pytest.approx(one(want.value), rel=1e-12)


def test_exterior_angle_rejects_apex_parent():
    apex = lift([0.0, 0.0], 1.0)
    v = lift([0.5, 0.0], 1.0)
    with pytest.raises(ValueError, match="apex"):
        geo.exterior_angle(apex, v)


# --- determinism and differentiation ----------------------------------------


def test_ops_are_bit_deterministic():
    rng = np.random.default_rng(37)
    xc, xv = rng.normal(size=3), rng.normal(size=3)

    def run():
        c, v = lift(xc, 1.3), lift(xv, 1.3)
        return (one(geo.lorentz_distance(c, v)),
                one(geo.half_aperture(c).value),
                one(geo.exterior_angle(c, v).value))

    assert run() == run()


def test_geometry_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    params = {"x": rng.normal(size=(1, 3)), "y": rng.normal(size=(1, 3)) + 0.5,
              "raw": 0.3}

    def build(p):
        c = ad.exp(p["raw"])
        u = geo.exp_map_origin(p["x"], c)
        v = geo.exp_map_origin(p["y"], c)
        return ad.add(ad.sum(geo.lorentz_distance(u, v)),
                      ad.add(ad.sum(geo.half_aperture(u).radians),
                             ad.sum(geo.exterior_angle(u, v).radians)))

    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    grads = ad.backward(tape, build(leaves))
    fd = ad.finite_diff(lambda p: float(ad.val(build(p))), params)
    for name in params:
        np.testing.assert_allclose(np.asarray(grads[name]),
                                   np.asarray(fd[name]),
                                   rtol=1e-5, atol=1e-8,
                                   err_msg=f"gradient mismatch for {name}")


def test_angle_range_validation():
    with pytest.raises(ValueError, match="angle"):
        geo.Angle(-0.5)
    with pytest.raises(ValueError, match="angle"):
        geo.Angle(4.0)
