"""Loss tests against independent scalar oracles and finite differences.

Frozen constants were produced by the mpmath oracles in this file at 50
decimal digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from hypalign import autodiff as ad
from hypalign import geometry as geo
from hypalign import objectives as obj
from hypalign.autodiff import val

mp.mp.dps = 50


def grad_check(build, params, tol=1e-5, step=1e-6):
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    grads = ad.backward(tape, build(leaves))
    fd = ad.finite_diff(lambda p: float(val(build(p))), params, step=step)
    for name in params:
        # atol floor covers components below central-difference resolution
        np.testing.assert_allclose(np.asarray(grads[name], dtype=float),
                                   np.asarray(fd[name], dtype=float),
                                   rtol=tol, atol=1e-8,
                                   err_msg=f"gradient mismatch for {name}")


# --- independent oracles ------------------------------------------------------


def oracle_softmax_ce(sim_rows, targets, tau):
    """Plain-python cross entropy over a similarity table."""
    total = 0.0
    for sims, t in zip(sim_rows, targets):
        logits = [s / tau for s in sims]
        m = max(logits)
        lse = m + math.log(sum(math.exp(l - m) for l in logits))
        total += lse - logits[t]
    return total / len(sim_rows)


def mp_lift(vec, c):
    vec = [mp.mpf(float(x)) for x in vec]
    c = mp.mpf(float(c))
    n = mp.sqrt(sum(x * x for x in vec))
    t = mp.sqrt(c) * n
    fac = mp.sinh(t) / t if t != 0 else mp.mpf(1)
    sp = [fac * x for x in vec]
    tm = mp.sqrt(1 / c + sum(s * s for s in sp))
    return sp, tm, c


def mp_dist(p, q):
    (sp, tp, c), (sq, tq, _) = p, q
    inner = sum(a * b for a, b in zip(sp, sq)) - tp * tq
    return mp.sqrt(1 / c) * mp.acosh(-c * inner)


def mp_aperture(p, k=0.1):
    (sp, _, c) = p
    n = mp.sqrt(sum(s * s for s in sp))
    return mp.asin(min(2 * k / (mp.sqrt(c) * n), mp.mpf(1)))


def mp_exterior(p, q):
    (sp, tp, c), (sq, tq, _) = p, q
    inner = sum(a * b for a, b in zip(sp, sq)) - tp * tq
    ci = c * inner
    num = tq + tp * ci
    den = mp.sqrt(sum(s * s for s in sp)) * mp.sqrt(ci * ci - 1)
    return mp.acos(max(min(num / den, mp.mpf(1)), mp.mpf(-1)))


def mp_entailment(c_rows, v_rows, curvature, margin, k=0.1):
    cp = [mp_lift(r, curvature) for r in c_rows]
    vp = [mp_lift(r, curvature) for r in v_rows]
    total = mp.mpf(0)
    for i, c in enumerate(cp):
        aperture = mp_aperture(c, k)
        term = max(mp.mpf(0), mp_exterior(c, vp[i]) - aperture)
        for j, v in enumerate(vp):
            if j == i:
                continue
            outside = max(mp.mpf(0), mp_exterior(c, v) - aperture)
            term += max(mp.mpf(0), mp.mpf(float(margin)) - outside)
        total += term
    return total / len(cp)


def rows_at(angles, norms):
    return np.array([[n * math.cos(a), n * math.sin(a)]
                     for a, n in zip(angles, norms)])


# --- classification loss ------------------------------------------------------


def test_classification_single_label_is_zero():
    rng = np.random.default_rng(0)
    loss = obj.classification_loss(rng.normal(size=(3, 4)),
                                   rng.normal(size=(1, 4)),
                                   [0, 0, 0], 0.5)
    assert val(loss) == 0.0


def test_classification_uniform_cosines_is_log_n():
    # identical label rows: every cosine equal -> uniform softmax
    visual = np.array([[1.0, 0.2], [0.4, -0.3]])
    labels = np.tile(np.array([[0.5, 0.1]]), (5, 1))
    loss = obj.classification_loss(visual, labels, [2, 4], 0.7)
    assert val(loss) == pytest.approx(math.log(5), abs=1e-12)


def test_classification_matches_scalar_oracle():
    # cosines are angle differences; row scales must not matter
    thetas, phis, tau = [0.3, 1.1], [0.0, 0.9, 2.0], 0.5
    visual = rows_at(thetas, [1.7, 0.4])
    labels = rows_at(phis, [2.0, 0.9, 5.0])
    targets = [0, 2]
    want = oracle_softmax_ce(
        [[math.cos(t - p) for p in phis] for t in thetas], targets, tau)
    got = val(obj.classification_loss(visual, labels, targets, tau))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.9796430064977198, rel=1e-12)  # mpmath


def test_classification_rejects_zero_norm_row():
    with pytest.raises(ValueError, match="zero-norm"):
        obj.classification_loss(np.array([[0.0, 0.0]]),
                                np.array([[1.0, 0.0], [0.0, 1.0]]), [0], 0.5)


def test_classification_rejects_bad_target():
    with pytest.raises(ValueError, match="target"):
        obj.classification_loss(np.ones((1, 2)), np.ones((2, 2)), [2], 0.5)


def test_classification_rejects_a_non_integer_target():
    # 1.7 is not truncated to label 1: the first bad entry is named
    rng = np.random.default_rng(12)
    visual, labels = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    with pytest.raises(ValueError, match="target entry 1 is 1.7, not an"):
        obj.classification_loss(visual, labels, [0, 1.7, 2], 0.1)
    with pytest.raises(ValueError, match="out of range for 3 labels"):
        obj.classification_loss(visual, labels, [0, -1, 2], 0.1)
    # whole numbers in a float array name the same labels as integers
    assert val(obj.classification_loss(visual, labels, [0.0, 1.0, 2.0],
                                       0.1)) == \
        val(obj.classification_loss(visual, labels, [0, 1, 2], 0.1))


# --- euclidean contrastive ----------------------------------------------------


def test_euclidean_contrastive_singleton_is_zero():
    loss = obj.euclidean_contrastive_loss(np.array([[0.3, 0.4]]),
                                          np.array([[-0.2, 0.9]]), 0.1)
    assert val(loss) == 0.0


def test_euclidean_contrastive_uniform_is_log_m():
    visual = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    captions = np.tile(np.array([[0.3, 0.3]]), (3, 1))
    loss = obj.euclidean_contrastive_loss(visual, captions, 0.3)
    assert val(loss) == pytest.approx(math.log(3), abs=1e-12)


def test_euclidean_contrastive_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    visual = rng.normal(size=(3, 4))
    captions = rng.normal(size=(3, 4))
    tau = 0.4
    sims = [[float(np.dot(v, c) / (np.linalg.norm(v) * np.linalg.norm(c)))
             for c in captions] for v in visual]
    want = oracle_softmax_ce(sims, [0, 1, 2], tau)
    got = val(obj.euclidean_contrastive_loss(visual, captions, tau))
    assert got == pytest.approx(want, rel=1e-12)


def test_euclidean_contrastive_rejects_empty_and_mismatch():
    with pytest.raises(ValueError, match="empty"):
        obj.euclidean_contrastive_loss([], [], 0.5)
    with pytest.raises(ValueError, match="matched"):
        obj.euclidean_contrastive_loss(np.ones((2, 2)), np.ones((3, 2)), 0.5)


# --- hyperbolic contrastive ----------------------------------------------------


def hyperbolic_cap(visual, captions, c, tau):
    """The hyperbolic contrastive loss of two row batches, each lifted."""
    return obj.hyperbolic_contrastive_loss(geo.exp_map_origin(visual, c),
                                           geo.exp_map_origin(captions, c),
                                           tau)


def test_hyperbolic_contrastive_singleton_is_zero():
    loss = hyperbolic_cap(np.array([[0.3, 0.4]]), np.array([[-0.2, 0.9]]),
                          1.0, 1.0)
    assert val(loss) == 0.0


def test_hyperbolic_contrastive_uniform_distances_is_log_m():
    visual = np.tile(np.array([[0.3, 0.2]]), (4, 1))
    captions = np.tile(np.array([[-0.1, 0.4]]), (4, 1))
    loss = hyperbolic_cap(visual, captions, 1.0, 0.7)
    assert val(loss) == pytest.approx(math.log(4), abs=1e-12)


def test_hyperbolic_contrastive_matches_high_precision_oracle():
    visual = np.array([[0.3, 0.1], [-0.2, 0.4], [0.05, -0.3]])
    captions = np.array([[0.25, 0.15], [-0.1, 0.35], [0.0, -0.2]])
    got = val(hyperbolic_cap(visual, captions, 1.0, 1.0))
    # mpmath composition of lift + distance + softmax at 50 digits
    assert got == pytest.approx(0.8305385263425157, rel=1e-12)


def test_cosine_losses_scale_invariant_hyperbolic_not():
    rng = np.random.default_rng(9)
    visual = rng.normal(size=(3, 4))
    captions = rng.normal(size=(3, 4))
    labels = rng.normal(size=(5, 4))
    targets = [0, 3, 1]
    scales = np.array([2.5, 0.3, 7.0])[:, None]

    base_cls = val(obj.classification_loss(visual, labels, targets, 0.5))
    got_cls = val(obj.classification_loss(visual * scales, labels, targets,
                                          0.5))
    assert got_cls == pytest.approx(base_cls, abs=1e-12)

    base_cap = val(obj.euclidean_contrastive_loss(visual, captions, 0.5))
    got_cap = val(obj.euclidean_contrastive_loss(visual * scales, captions,
                                                 0.5))
    assert got_cap == pytest.approx(base_cap, abs=1e-12)

    base_hyp = val(hyperbolic_cap(visual, captions, 1.0, 0.5))
    got_hyp = val(hyperbolic_cap(visual * scales, captions, 1.0, 0.5))
    assert abs(got_hyp - base_hyp) > 1e-3


# --- entailment loss ------------------------------------------------------------


def lift_batch(rows, c=1.0):
    return geo.exp_map_origin(np.asarray(rows, dtype=float), c)


def test_entailment_zero_when_all_constraints_have_slack():
    angles = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    captions = lift_batch(rows_at(angles, [0.5] * 3))
    visuals = lift_batch(rows_at(angles, [1.5] * 3))
    # sanity: matched pairs strictly inside, negatives outside by > margin
    apertures = geo.half_aperture(captions).value
    angle = geo.exterior_angle(captions, visuals).value
    for i, a in enumerate(apertures):
        assert angle[i, i] < a - 1e-3
        for j in range(3):
            if j != i:
                assert angle[i, j] > a + 0.1 + 1e-3
    loss = obj.entailment_loss(captions, visuals, margin=0.1)
    assert val(loss) == 0.0


def test_entailment_single_pair_inside_cone_is_zero():
    c = lift_batch([[0.5, 0.0]])
    v = lift_batch([[1.4, 0.05]])
    assert geo.cone_contains(c, v)[0, 0]
    assert val(obj.entailment_loss(c, v, margin=0.1)) == 0.0


def test_entailment_batch_of_two_matches_hinge_oracle():
    # row 1: matched visual outside its cone (inside-constraint violation);
    # row 1 negative: v2 barely outside, margin violated
    d1 = 0.23
    c_rows = [[0.5, 0.0], [0.0, 0.6]]
    v_rows = [[math.cos(0.8), math.sin(0.8)],
              [1.2 * math.cos(d1), 1.2 * math.sin(d1)]]
    margin = 0.1

    c1 = mp_lift(c_rows[0], 1.0)
    ap1 = mp_aperture(c1)
    e11 = mp_exterior(c1, mp_lift(v_rows[0], 1.0)) - ap1
    e12 = mp_exterior(c1, mp_lift(v_rows[1], 1.0)) - ap1
    assert float(e11) > 1e-3                      # inside violation
    assert 1e-3 < float(e12) < margin - 1e-3      # margin violation

    want = float(mp_entailment(c_rows, v_rows, 1.0, margin))
    got = val(obj.entailment_loss(lift_batch(c_rows), lift_batch(v_rows),
                                  margin=margin))
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-10)


def test_entailment_positive_when_violated_beyond_tolerance():
    # matched visual pushed outside the cone by a clear margin
    c = lift_batch([[0.5, 0.0]])
    v = lift_batch([[math.cos(1.2), math.sin(1.2)]])
    assert val(obj.entailment_loss(c, v)) > 1e-6


def test_entailment_rejects_caption_at_origin():
    c = lift_batch([[0.0, 0.0]])
    v = lift_batch([[0.5, 0.0]])
    with pytest.raises(ValueError, match="zero spatial norm"):
        obj.entailment_loss(c, v)


# --- bbox regression -------------------------------------------------------------


def test_bbox_exact_match_is_zero():
    boxes = np.array([(0.1, 0.1, 0.4, 0.5), (0.2, 0.3, 0.9, 0.8)])
    assert val(obj.bbox_regression_loss(boxes, boxes)) == 0.0


def test_bbox_unit_offset_hits_linear_branch():
    gt = np.array([(0.1, 0.1, 0.4, 0.5)])
    pred = np.array([(1.1, 1.1, 1.4, 1.5)])
    # |e| = 1 per coordinate -> |e| - 0.5 = 0.5 each
    assert val(obj.bbox_regression_loss(pred, gt)) == pytest.approx(0.5)


def test_bbox_small_offset_hits_quadratic_branch():
    gt = np.array([(0.1, 0.1, 0.4, 0.5)])
    pred = np.array([(0.2, 0.2, 0.5, 0.6)])
    # 0.5 * 0.1^2 per coordinate
    assert val(obj.bbox_regression_loss(pred, gt)) == pytest.approx(0.005)


def test_bbox_rejects_degenerate_box():
    good = np.array([(0.1, 0.1, 0.4, 0.5), (0.2, 0.3, 0.9, 0.8)])
    with pytest.raises(ValueError, match="degenerate"):
        obj.bbox_regression_loss(np.array([(0.5, 0.1, 0.4, 0.5), good[1]]),
                                 good)
    with pytest.raises(ValueError, match="degenerate"):
        obj.bbox_regression_loss(good,
                                 np.array([good[0], (0.2, 0.3, 0.9, 0.3)]))
    with pytest.raises(ValueError, match="n x 4"):
        obj.bbox_regression_loss(np.array([(0.1, 0.1, 0.4)]),
                                 np.array([(0.1, 0.1, 0.4)]))
    with pytest.raises(ValueError, match="matched"):
        obj.bbox_regression_loss(good, good[:1])


def test_bbox_rejects_lists_of_rows():
    # one batch form: an n x 4 array or Var, never a sequence of rows
    rows = [(0.1, 0.1, 0.4, 0.5), (0.2, 0.3, 0.9, 0.8)]
    with pytest.raises(ValueError, match="n x 4 matrices"):
        obj.bbox_regression_loss(rows, np.array(rows))
    with pytest.raises(ValueError, match="n x 4 matrices"):
        obj.bbox_regression_loss(np.array(rows), rows)


# --- composite objectives ---------------------------------------------------------


def test_objective_totals():
    report = obj.objective_hyper(0.0, 0.0, 0.0, 0.0)
    assert report.values()["total"] == 0.0
    report = obj.objective_hyper(0.1, 0.2, 0.3, 0.4)
    assert report.values()["total"] == pytest.approx(1.0, abs=1e-15)


def test_objective_baseline_recomposes_concrete_batch():
    rng = np.random.default_rng(33)
    visual = rng.normal(size=(3, 4))
    captions = rng.normal(size=(3, 4))
    labels = rng.normal(size=(4, 4))
    targets = [0, 1, 3]
    boxes_gt = np.array([(0.1, 0.1, 0.5, 0.5)] * 3)
    boxes_pred = np.array([(0.15, 0.1, 0.55, 0.5)] * 3)
    bbox = obj.bbox_regression_loss(boxes_pred, boxes_gt)
    cls = obj.classification_loss(visual, labels, targets, 0.5)
    cap = obj.euclidean_contrastive_loss(visual, captions, 0.5)
    report = obj.objective_baseline(bbox, cls, cap)
    v = report.values()
    assert v["total"] == pytest.approx(val(bbox) + val(cls) + val(cap),
                                       abs=1e-12)
    assert v["entail"] == 0.0
    det = obj.objective_det(bbox, cls)
    assert det.values()["total"] == pytest.approx(val(bbox) + val(cls),
                                                  abs=1e-12)
    assert det.values()["cap"] == 0.0


@pytest.mark.parametrize("objective,terms,inactive", [
    (obj.objective_hyper, 4, ()),
    (obj.objective_baseline, 3, ("entail",)),
    (obj.objective_det, 2, ("cap", "entail")),
])
def test_an_inactive_term_records_no_node(objective, terms, inactive):
    # the weighted total is one node; an inactive term is an exact zero
    # that no node carries, and takes no gradient
    tape = ad.Tape()
    values = (0.25, 1.5, 0.125, 2.0)[:terms]
    leaves = [tape.leaf(v, name) for v, name in zip(values, "abcd")]
    report = objective(*leaves, weights=obj.LossWeights(cls=3.0))
    assert len(tape) == terms + 1
    got = report.values()
    assert [got[name] for name in inactive] == [0.0] * len(inactive)
    assert got["total"] == sum(got[name] for name in
                               ("bbox", "cls", "cap", "entail"))
    grads = ad.backward(tape, report.total)
    assert [float(grads[name]) for name in "abcd"[:terms]] == \
        [1.0, 3.0, 1.0, 1.0][:terms]


def test_loss_report_total_equals_sum_of_parts():
    report = obj.objective_hyper(0.25, 1.5, 0.125, 2.0,
                                 weights=obj.LossWeights(cap=2.0))
    v = report.values()
    assert v["total"] == pytest.approx(
        v["bbox"] + v["cls"] + v["cap"] + v["entail"], abs=1e-12)
    assert v["cap"] == pytest.approx(0.25)


# --- batch-level properties -------------------------------------------------------


def test_losses_permutation_invariant():
    rng = np.random.default_rng(41)
    m = 5
    visual = rng.normal(size=(m, 3))
    captions = rng.normal(size=(m, 3))
    labels = rng.normal(size=(4, 3))
    targets = [int(t) for t in rng.integers(0, 4, size=m)]
    perm = rng.permutation(m)

    base = val(obj.classification_loss(visual, labels, targets, 0.5))
    got = val(obj.classification_loss(visual[perm], labels,
                                      [targets[i] for i in perm], 0.5))
    assert got == pytest.approx(base, abs=1e-12)

    base = val(obj.euclidean_contrastive_loss(visual, captions, 0.5))
    got = val(obj.euclidean_contrastive_loss(visual[perm], captions[perm],
                                             0.5))
    assert got == pytest.approx(base, abs=1e-12)

    base = val(hyperbolic_cap(visual, captions, 1.3, 0.5))
    got = val(hyperbolic_cap(visual[perm], captions[perm], 1.3, 0.5))
    assert got == pytest.approx(base, abs=1e-12)

    base = val(obj.entailment_loss(lift_batch(captions + 0.5),
                                   lift_batch(visual)))
    got = val(obj.entailment_loss(lift_batch((captions + 0.5)[perm]),
                                  lift_batch(visual[perm])))
    assert got == pytest.approx(base, abs=1e-12)


def test_losses_nonnegative_and_finite_on_randoms():
    rng = np.random.default_rng(43)
    for _ in range(20):
        m, d = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        visual = rng.normal(size=(m, d))
        captions = rng.normal(size=(m, d))
        labels = rng.normal(size=(3, d))
        targets = [int(t) for t in rng.integers(0, 3, size=m)]
        for loss in (
            obj.classification_loss(visual, labels, targets, 0.3),
            obj.euclidean_contrastive_loss(visual, captions, 0.3),
            hyperbolic_cap(visual, captions, 0.8, 0.3),
            obj.entailment_loss(lift_batch(captions, 0.8),
                                lift_batch(visual, 0.8)),
        ):
            assert val(loss) >= 0.0
            assert math.isfinite(val(loss))


# --- gradients ---------------------------------------------------------------------


def entailment_slack(c_rows, v_rows, curvature, margin, k=0.1):
    """Smallest |hinge argument| over the batch (for kink filtering)."""
    cpts = lift_batch(c_rows, curvature)
    vpts = lift_batch(v_rows, curvature)
    apertures = geo.half_aperture(cpts, k).value
    angle = geo.exterior_angle(cpts, vpts).value
    slack = math.inf
    for i, a in enumerate(apertures):
        slack = min(slack, abs(angle[i, i] - a))
        for j in range(len(vpts.space)):
            if j == i:
                continue
            e = max(0.0, angle[i, j] - a)
            slack = min(slack, abs(angle[i, j] - a), abs(margin - e))
    return slack


def test_classification_gradients():
    rng = np.random.default_rng(51)
    params = {"v": rng.normal(size=(2, 3)), "l": rng.normal(size=(3, 3)),
              "tau": 0.6}

    def build(p):
        return obj.classification_loss(p["v"], p["l"], [0, 2], p["tau"])

    grad_check(build, params)


def test_euclidean_contrastive_gradients():
    rng = np.random.default_rng(53)
    params = {"v": rng.normal(size=(3, 3)), "c": rng.normal(size=(3, 3)),
              "tau": 0.5}

    def build(p):
        return obj.euclidean_contrastive_loss(p["v"], p["c"], p["tau"])

    grad_check(build, params)


def test_hyperbolic_contrastive_gradients_including_curvature():
    rng = np.random.default_rng(55)
    params = {"v": rng.normal(size=(3, 2)), "c": rng.normal(size=(3, 2)),
              "tau": 0.7, "raw_curv": 0.2}

    def build(p):
        return hyperbolic_cap(p["v"], p["c"], ad.exp(p["raw_curv"]),
                              p["tau"])

    grad_check(build, params)


def test_entailment_gradients_away_from_kinks():
    rng = np.random.default_rng(57)
    margin = 0.1
    found = 0
    while found < 3:
        c_rows = rng.normal(scale=0.8, size=(3, 2))
        v_rows = rng.normal(scale=0.8, size=(3, 2))
        if min(np.linalg.norm(c_rows, axis=1)) < 0.2:
            continue
        if entailment_slack(c_rows, v_rows, 1.1, margin) < 1e-3:
            continue
        found += 1
        params = {"c": c_rows.copy(), "v": v_rows.copy(), "raw_curv": 0.1}

        def build(p):
            curv = ad.exp(p["raw_curv"])
            return obj.entailment_loss(geo.exp_map_origin(p["c"], curv),
                                       geo.exp_map_origin(p["v"], curv),
                                       margin=margin)

        grad_check(build, params)


def test_bbox_gradients():
    params = {"pred": np.array([[0.12, 0.2, 0.55, 0.61],
                                [0.3, 0.25, 0.8, 0.9]])}

    def build(p):
        return obj.bbox_regression_loss(p["pred"],
                                        np.array([(0.1, 0.1, 0.5, 0.5),
                                                  (0.2, 0.2, 0.9, 0.95)]))

    grad_check(build, params)


BATCH_INPUTS = {
    "exp_map_origin": lambda bad: geo.exp_map_origin(bad, 1.0),
    "LorentzPoint": lambda bad: geo.LorentzPoint(bad, 1.0),
    "classification_loss": lambda bad: obj.classification_loss(
        bad, np.ones((2, 3)), [0], 0.5),
    "euclidean_contrastive_loss": lambda bad: obj.euclidean_contrastive_loss(
        np.ones((1, 3)), bad, 0.5),
    "hyperbolic_contrastive_loss":
        lambda bad: obj.hyperbolic_contrastive_loss(bad, bad, 0.5),
    "entailment_loss": lambda bad: obj.entailment_loss(bad, bad),
}


@pytest.mark.parametrize("kind", ["vector", "empty"])
@pytest.mark.parametrize("name", sorted(BATCH_INPUTS) + ["take_row"])
def test_batch_inputs_reject_vectors_and_empty_batches(name, kind):
    # a batch is an n x d matrix with n >= 1; one point is a 1-row batch
    bad = np.ones(3) if kind == "vector" else np.zeros((0, 3))
    with pytest.raises(ValueError, match="n x d"):
        if name != "take_row":
            BATCH_INPUTS[name](bad)
        elif kind == "vector":
            ad.take_row(bad, [0])
        else:
            ad.take_row(np.ones((2, 3)), [])


def test_temperature_validation():
    rows = np.ones((2, 2))
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            obj.classification_loss(rows, rows, [0, 1], tau)
        with pytest.raises(ValueError, match="positive"):
            obj.euclidean_contrastive_loss(rows, rows, tau)
        with pytest.raises(ValueError, match="positive"):
            hyperbolic_cap(rows, rows, 1.0, tau)
