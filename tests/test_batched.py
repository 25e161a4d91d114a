"""The batched geometry and losses against 1-row calls and per-pair loops.

Property tests draw random batches with hypothesis, derandomized and from
the constant pool that ``conftest.py`` pins, so every run checks the same
examples whatever the package's source holds; the per-pair oracles below
use plain ``math`` only.  The node-count guards keep each batch loss, and
each full training step, a fixed handful of tape nodes whatever the batch
size.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypalign import autodiff as ad
from hypalign import geometry as geo
from hypalign import objectives as obj
from hypalign import trainer as tr

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def batch(rows, d):
    return arrays(np.float64, (rows, d),
                  elements=st.floats(-1.2, 1.2, allow_nan=False))


curvatures = st.floats(0.25, 2.0)


@st.composite
def two_batches(draw, same_rows=False):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    m = n if same_rows else draw(st.integers(1, 5))
    return draw(batch(n, d)), draw(batch(m, d))


def well_separated(a, b, gap=1e-2):
    """Rows apart from each other and from the origin: the angle and the
    distance are ill-conditioned near coincident points and the apex."""
    pairs = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return (pairs.min() >= gap and np.linalg.norm(a, axis=1).min() >= 0.1
            and np.linalg.norm(b, axis=1).min() >= 0.1)


# --- per-pair oracles (plain math) ---------------------------------------------


def m_lift(row, c):
    n = math.sqrt(sum(x * x for x in row))
    t = math.sqrt(c) * n
    factor = math.sinh(t) / t if t else 1.0
    space = [factor * x for x in row]
    return space, math.sqrt(1.0 / c + sum(s * s for s in space))


def m_inner(p, q):
    return sum(a * b for a, b in zip(p[0], q[0])) - p[1] * q[1]


def m_distance(p, q, c):
    return math.acosh(max(-c * m_inner(p, q), 1.0)) / math.sqrt(c)


def m_aperture(p, c, k=geo.APERTURE_K):
    n = math.sqrt(sum(s * s for s in p[0]))
    return math.asin(min(2.0 * k / (math.sqrt(c) * n), 1.0))


def m_angle(p, q, c):
    ci = c * m_inner(p, q)
    n = math.sqrt(sum(s * s for s in p[0]))
    root = math.sqrt(ci * ci - 1.0)
    cos = (q[1] + p[1] * ci) / (n * root)
    # the sine, sqrt(C) |q_space orthogonal to p_space| / root, keeps atan2
    # well-conditioned at an angle near 0 or pi (collinear rows), where
    # acos would magnify the rounding of cos past the tolerance
    along = sum(a * b for a, b in zip(p[0], q[0])) / (n * n)
    perp = math.sqrt(sum((b - along * a) ** 2 for a, b in zip(p[0], q[0])))
    return math.atan2(math.sqrt(c) * perp / root, cos)


def loop_hyperbolic_contrastive(v_rows, c_rows, c, tau):
    vp = [m_lift(r, c) for r in v_rows]
    cp = [m_lift(r, c) for r in c_rows]
    total = 0.0
    for i, v in enumerate(vp):
        logits = [-m_distance(v, q, c) / tau for q in cp]
        top = max(logits)
        lse = top + math.log(sum(math.exp(x - top) for x in logits))
        total += lse - logits[i]
    return total / len(vp)


def loop_entailment(c_rows, v_rows, c, margin):
    cp = [m_lift(r, c) for r in c_rows]
    vp = [m_lift(r, c) for r in v_rows]
    total = 0.0
    for i, cone in enumerate(cp):
        aperture = m_aperture(cone, c)
        total += max(0.0, m_angle(cone, vp[i], c) - aperture)
        for j, v in enumerate(vp):
            if j != i:
                outside = max(0.0, m_angle(cone, v, c) - aperture)
                total += max(0.0, margin - outside)
    return total / len(cp)


# --- geometry -------------------------------------------------------------------


@PROPERTY
@given(pair=two_batches(), c=curvatures)
def test_lifted_rows_are_on_the_manifold(pair, c):
    p = geo.exp_map_origin(pair[0], c)
    self_inner = np.diag(geo._inner(p, p))
    assert np.max(np.abs(-c * self_inner - 1.0)) <= 1e-9


@PROPERTY
@given(pair=two_batches(), c=curvatures)
def test_pairwise_matrices_equal_one_row_calls(pair, c):
    a, b = pair
    assume(well_separated(a, b))
    pa, pb = geo.exp_map_origin(a, c), geo.exp_map_origin(b, c)
    dist = geo.lorentz_distance(pa, pb)
    angle = geo.exterior_angle(pa, pb).value
    aperture = geo.half_aperture(pa).value
    assert dist.shape == angle.shape == (len(a), len(b))
    for i in range(len(a)):
        px = geo.exp_map_origin(a[i:i + 1], c)
        assert aperture[i] == pytest.approx(geo.half_aperture(px).value[0],
                                            rel=1e-12)
        for j in range(len(b)):
            py = geo.exp_map_origin(b[j:j + 1], c)
            assert dist[i, j] == pytest.approx(
                geo.lorentz_distance(px, py)[0, 0], rel=1e-9, abs=1e-7)
            assert angle[i, j] == pytest.approx(
                geo.exterior_angle(px, py).value[0, 0], rel=1e-9, abs=1e-7)


# --- losses ---------------------------------------------------------------------


@PROPERTY
@given(pair=two_batches(same_rows=True), c=curvatures,
       tau=st.floats(0.1, 2.0))
def test_batched_hyperbolic_contrastive_equals_pair_loop(pair, c, tau):
    v_rows, c_rows = pair
    assume(well_separated(v_rows, c_rows))
    got = obj.hyperbolic_contrastive_loss(geo.exp_map_origin(v_rows, c),
                                          geo.exp_map_origin(c_rows, c), tau)
    want = loop_hyperbolic_contrastive(v_rows.tolist(), c_rows.tolist(), c,
                                       tau)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


@PROPERTY
@given(pair=two_batches(same_rows=True), c=curvatures,
       margin=st.floats(0.0, 0.5))
# rows on the line through the apex and the cone's point, at an exterior
# angle near pi, where an arccos of the rounded cosine was off by 1.7e-7
@example(pair=(np.full((1, 3), 0.875), np.full((1, 3), 0.75)), c=1.5,
         margin=0.0)
@example(pair=(np.full((1, 1), 0.8125), np.full((1, 1), 0.75)), c=1.0,
         margin=0.0)
def test_batched_entailment_equals_pair_loop(pair, c, margin):
    c_rows, v_rows = pair
    assume(well_separated(c_rows, v_rows))
    got = obj.entailment_loss(geo.exp_map_origin(c_rows, c),
                              geo.exp_map_origin(v_rows, c), margin=margin)
    want = loop_entailment(c_rows.tolist(), v_rows.tolist(), c, margin)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-7)


# --- tape size guards -------------------------------------------------------------


def loss_nodes(n, d=16):
    """Tape nodes each batch loss records for an n-row batch."""
    rng = np.random.default_rng(n)
    tape = ad.Tape()
    v = tape.leaf(rng.normal(size=(n, d)), name="v")
    c = tape.leaf(rng.normal(size=(n, d)) + 0.5, name="c")
    labels = tape.leaf(rng.normal(size=(12, d)), name="labels")
    tau = tape.leaf(0.5, name="tau")
    curv = tape.leaf(1.0, name="curv")
    targets = [i % 12 for i in range(n)]
    losses = {
        "classification": lambda: obj.classification_loss(v, labels, targets,
                                                          tau),
        "euclidean_contrastive": lambda: obj.euclidean_contrastive_loss(
            v, c, tau),
        "hyperbolic_contrastive": lambda: obj.hyperbolic_contrastive_loss(
            geo.exp_map_origin(v, curv), geo.exp_map_origin(c, curv), tau),
        "entailment": lambda: obj.entailment_loss(
            geo.exp_map_origin(c, curv), geo.exp_map_origin(v, curv)),
    }
    counts = {}
    for name, build in losses.items():
        before = len(tape)
        build()
        counts[name] = len(tape) - before
    return counts


def test_batch_losses_record_the_same_nodes_at_any_batch_size():
    assert loss_nodes(4) == loss_nodes(16)


def step_tape(objective, batch_size):
    """The tape of one full step in the benchmark's configuration."""
    config = tr.ExperimentConfig(objective=objective, d=16, batch=16,
                                 rho=0.326, scenes=60, categories=4,
                                 leaves_per_category=3, seed=0)
    tree, synonyms, records, _ = tr.default_corpus(config)
    train, _ = tr.split_records(records)
    _, report = tr.step(tr.init(config, tree, synonyms), train[:batch_size])
    return report.total.tape


def step_nodes(objective, batch_size):
    """Tape nodes of one full step in the benchmark's configuration."""
    return len(step_tape(objective, batch_size))


@pytest.mark.parametrize("objective", tr.OBJECTIVES)
def test_step_records_the_same_nodes_at_any_batch_size(objective):
    # the forward, from fusion to the box head, is batched like the losses
    assert step_nodes(objective, 4) == step_nodes(objective, 16)


def test_hyper_step_tape_stays_small():
    # 36 nodes when this bound was set: one node per loss, one for the
    # weighted total, one for the caption embedding and one for the
    # positional sum (40 with those two spelled out in 3 nodes each, 66
    # with the losses spelled out in 4-10 nodes each, 92 with the box head,
    # the fusion MLP and both cross-entropies spelled out too, 137 with the
    # 4 attention heads spelled out in 46 nodes, 226 with two lifts and the
    # Lorentz formulas spelled out in elementwise ops, 1,691 with a
    # per-record forward)
    assert step_nodes("hyper", 16) <= 36


@pytest.mark.parametrize("objective,bound", [("baseline", 29),
                                             ("det-only", 27)])
def test_other_step_tapes_stay_small(objective, bound):
    # the counts when these bounds were set: one node for the positional
    # sum and (baseline) one for the caption embedding (33 and 29 before),
    # one node per loss and one for the weighted total, which records
    # nothing for an inactive term (53 and 42 before that), one node each
    # for the box head, the fusion MLP and every cross-entropy (79 and 64
    # before that), one node for multi-head attention (124 and 109 before
    # that), after one node per squash and constant operands of matrix ops
    # in aux (141 and 119 before that)
    assert step_nodes(objective, 16) <= bound


#: the rows every step records after its 15 parameter leaves, from the
#: temperature to the classification loss
_FORWARD_ROWS = ["exp", "take_row", "take_row", "attention", "positional",
                 "residual_mlp", "squash", "box_head", "smooth_l1_loss",
                 "take_row", "cosine_cross_entropy"]
#: each objective's rows in the order a step records them, so that a
#: folded row split again, or a row recorded twice, shows
STEP_ROWS = {
    "det-only": _FORWARD_ROWS + ["weighted_total"],
    "baseline": _FORWARD_ROWS + ["caption_embed", "cosine_cross_entropy",
                                 "weighted_total"],
    "hyper": _FORWARD_ROWS + ["caption_embed", "exp", "lift", "lift",
                              "lorentz_dist", "cross_entropy",
                              "cone_aperture", "cone_angle", "cone_hinge",
                              "weighted_total"],
}


@pytest.mark.parametrize("objective", tr.OBJECTIVES)
def test_step_records_its_rows_in_order(objective):
    tape = step_tape(objective, 16)
    assert [row for row, _, _ in tape.ops].count(None) == 15
    assert ([row.name for row, _, _ in tape.ops if row is not None]
            == STEP_ROWS[objective])
