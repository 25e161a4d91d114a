"""Tape engine tests: per-primitive derivative checks, determinism, guards."""

import importlib.util
import math
import re

import numpy as np
import pytest

from hypalign import autodiff as ad
from hypalign import geometry as geo
from hypalign import trainer as tr

import reference_ops as ref


def rel_err(a, b):
    """Largest deviation relative to the largest component.

    Relative to each element, a near-zero gradient component would measure
    the roundoff of the central difference instead of the adjoint.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


def check_gradients(build, params, tol=1e-7, step=1e-6):
    """Backward on a tape vs central differences on the plain-eval route."""
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    out = build(leaves)
    grads = ref.gradients(tape, out)
    fd = ad.finite_diff(lambda p: float(ad.val(build(p))), params, step=step)
    for name in params:
        err = rel_err(grads[name], fd[name])
        assert err <= tol, f"{name}: analytic vs fd rel err {err}"
    return grads


RNG = np.random.default_rng(20240811)


def test_square_gradient():
    tape = ad.Tape()
    x = tape.leaf(3.0, name="x")
    grads = ref.gradients(tape, ref.mul(x, x))
    assert grads["x"] == pytest.approx(6.0, abs=1e-12)


def test_arccosh_gradient_analytic():
    # d/dx arccosh(x) = 1/sqrt(x^2 - 1); at x = 2 this is 1/sqrt(3), read
    # off the distance row's derivative helper
    tape = ad.Tape()
    x = tape.leaf(2.0, name="x")
    grads = ref.gradients(tape, ref.arccosh(x))
    assert grads["x"] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


# --- exhaustive per-primitive coverage -------------------------------------

SCALAR_CASES = [
    ("add", lambda p: ref.add(p["a"], p["b"]), lambda: {"a": 0.7, "b": -1.3}),
    ("addc", lambda p: ref.add(p["a"], 2.5), lambda: {"a": 0.7}),
    ("sub", lambda p: ref.sub(p["a"], p["b"]), lambda: {"a": 1.2, "b": 0.4}),
    ("rsub", lambda p: ref.sub(1.5, p["a"]), lambda: {"a": 0.9}),
    ("neg", lambda p: ref.neg(p["a"]), lambda: {"a": 0.3}),
    ("mul", lambda p: ref.mul(p["a"], p["b"]), lambda: {"a": 1.7, "b": -0.6}),
    ("mulc", lambda p: ref.mul(p["a"], -3.0), lambda: {"a": 0.8}),
    ("div", lambda p: ref.div(p["a"], p["b"]), lambda: {"a": 1.3, "b": 0.7}),
    ("divc", lambda p: ref.div(p["a"], 4.0), lambda: {"a": 2.2}),
    ("cdiv", lambda p: ref.div(3.0, p["a"]), lambda: {"a": 1.4}),
    ("exp", lambda p: ad.exp(p["a"]), lambda: {"a": 0.4}),
    ("sqrt", lambda p: ref.sqrt(p["a"]),
     lambda: {"a": float(RNG.uniform(0.5, 3.0))}),
    ("sinhc", lambda p: ref.sinhc(p["a"]),
     lambda: {"a": float(RNG.uniform(0.2, 1.5))}),
    ("tanh", lambda p: ref.tanh(p["a"]),
     lambda: {"a": float(RNG.uniform(-1.0, 1.0))}),
    ("sigmoid", lambda p: ref.sigmoid(p["a"]),
     lambda: {"a": float(RNG.uniform(-1.0, 1.0))}),
    ("arccosh", lambda p: ref.arccosh(p["a"]),
     lambda: {"a": float(RNG.uniform(1.5, 3.0))}),
    ("asin", lambda p: ref.asin(p["a"]),
     lambda: {"a": float(RNG.uniform(-0.9, 0.9))}),
    ("arccos", lambda p: ref.arccos(p["a"]),
     lambda: {"a": float(RNG.uniform(-0.9, 0.9))}),
    ("clamp_min_active", lambda p: ref.clamp_min(p["a"], 0.0),
     lambda: {"a": 0.8}),
    ("clamp_min_inactive", lambda p: ref.clamp_min(p["a"], 0.0),
     lambda: {"a": -0.8}),
    ("clamp_max_active", lambda p: ref.clamp_max(p["a"], 1.0),
     lambda: {"a": 0.4}),
    ("clamp_max_inactive", lambda p: ref.clamp_max(p["a"], 1.0),
     lambda: {"a": 1.9}),
    ("hinge_active", lambda p: ref.hinge(p["a"]), lambda: {"a": 0.6}),
    ("hinge_inactive", lambda p: ref.hinge(p["a"]), lambda: {"a": -0.6}),
    ("smooth_l1_quadratic", lambda p: ref.smooth_l1(p["a"]),
     lambda: {"a": 0.3}),
    ("smooth_l1_linear", lambda p: ref.smooth_l1(p["a"]), lambda: {"a": 2.1}),
]


#: token counts of three captions over a five-token vocabulary
CAPTION_COUNTS = np.array([[1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0]])


def points(p, rows):
    """Rows of p as the spatial parts of a batch at curvature p["c"]."""
    return geo.LorentzPoint(p[rows], p["c"])


def identical_pair():
    # row 1 of V is row 0 of U bit for bit: a masked entry, weighted 0
    u, v = RNG.normal(size=(2, 4)), RNG.normal(size=(3, 4))
    v[1] = u[0]
    return {"U": u, "V": v, "c": float(RNG.uniform(0.5, 2.0))}


#: weights of a 2 x 3 pairwise matrix, 0 on the masked entry (0, 1)
PAIR_WEIGHTS = np.array([[1.0, 0.0, -2.0], [0.5, 3.0, -1.0]])

VECTOR_CASES = [
    ("dot",
     lambda p: ref.sum(ref.mul(ref.dot(p["U"], p["V"]),
                               np.arange(6.0).reshape(2, 3))),
     lambda: {"U": RNG.normal(size=(2, 4)), "V": RNG.normal(size=(3, 4))}),
    ("norm",
     lambda p: ref.sum(ref.mul(ref.norm(p["U"]), np.array([1.0, -2.0]))),
     lambda: {"U": RNG.normal(size=(2, 4)) + 2.0}),
    ("mul_scalar_array", lambda p: ref.sum(ref.mul(p["a"], p["u"])),
     lambda: {"a": 1.3, "u": RNG.normal(size=3)}),
    ("mul_array_array", lambda p: ref.sum(ref.mul(p["u"], p["v"])),
     lambda: {"u": RNG.normal(size=3), "v": RNG.normal(size=3)}),
    ("div_array_scalar", lambda p: ref.sum(ref.div(p["u"], p["a"])),
     lambda: {"u": RNG.normal(size=3), "a": 1.7}),
    ("matmul", lambda p: ref.sum(ref.matmul(p["A"], p["B"])),
     lambda: {"A": RNG.normal(size=(2, 4)), "B": RNG.normal(size=(4, 3))}),
    ("take_row",
     lambda p: ref.sum(ref.mul(ad.take_row(p["M"], [1]),
                               np.array([[1.0, 2.0]]))),
     lambda: {"M": RNG.normal(size=(3, 2))}),
    ("take_row_repeated",
     lambda p: ref.sum(ref.mul(ad.take_row(p["M"], [2, 0, 2]),
                               np.arange(6.0).reshape(3, 2))),
     lambda: {"M": RNG.normal(size=(3, 2))}),
    ("cols", lambda p: ref.sum(ref.cols(p["M"], 1, 3)),
     lambda: {"M": RNG.normal(size=(3, 4))}),
    ("logsumexp",
     lambda p: ref.sum(ref.mul(ref.logsumexp(p["U"]), np.array([1.0, -2.0]))),
     lambda: {"U": RNG.normal(size=(2, 5))}),
    ("softmax",
     lambda p: ref.sum(ref.mul(ref.softmax(p["u"]),
                               np.array([[1.0, -1.0, 2.0, 0.3]]))),
     lambda: {"u": RNG.normal(size=(1, 4))}),
    ("softmax_rows",
     lambda p: ref.sum(ref.mul(ref.softmax(p["M"]), np.array(
         [[1.0, -1.0, 2.0], [0.3, 0.0, -2.5]]))),
     lambda: {"M": RNG.normal(size=(2, 3))}),
    ("smooth_l1_array",
     lambda p: ref.sum(ref.mul(ref.smooth_l1(p["u"]), np.arange(1.0, 9.0))),
     lambda: {"u": np.concatenate([RNG.uniform(-0.9, 0.9, size=4),
                                   RNG.uniform(1.1, 3.0, size=2),
                                   -RNG.uniform(1.1, 3.0, size=2)])}),
    ("add_row_bias",
     lambda p: ref.sum(ref.mul(ref.sub(ref.add(p["M"], p["b"]), p["c"]),
                               np.arange(6.0).reshape(2, 3))),
     lambda: {"M": RNG.normal(size=(2, 3)), "b": RNG.normal(size=3),
              "c": RNG.normal(size=3)}),
    ("scale_rows",
     lambda p: ref.sum(ref.mul(ref.scale_rows(p["s"], p["M"]),
                               np.arange(6.0).reshape(2, 3))),
     lambda: {"s": RNG.normal(size=2), "M": RNG.normal(size=(2, 3))}),
    ("outer",
     lambda p: ref.sum(ref.mul(ref.outer(p["u"], p["v"]),
                               np.arange(6.0).reshape(3, 2))),
     lambda: {"u": RNG.normal(size=3), "v": RNG.normal(size=2)}),
    ("sum", lambda p: ref.sum(ref.mul(p["M"], p["M"])),
     lambda: {"M": RNG.normal(size=(2, 3))}),
    ("pick",
     lambda p: ref.sum(ref.mul(ref.pick(p["M"], [2, 0]),
                               np.array([1.0, -3.0]))),
     lambda: {"M": RNG.normal(size=(2, 3))}),
    ("lift",
     lambda p: ref.sum(ref.mul(ad.lift(p["U"], p["c"]),
                               np.arange(12.0).reshape(3, 4) - 5.0)),
     lambda: {"U": RNG.normal(size=(3, 4)),
              "c": float(RNG.uniform(0.5, 2.0))}),
    # sqrt(C)|x| below the sinhc series switch, and a zero row; there the
    # curvature's gradient is below the central difference's roundoff
    ("lift_series",
     lambda p: ref.sum(ref.mul(ad.lift(p["U"], 1.3),
                               np.arange(12.0).reshape(3, 4) - 5.0)),
     lambda: {"U": np.vstack([RNG.normal(scale=1e-5, size=(2, 4)),
                              np.zeros((1, 4))])}),
    ("lorentz_dist",
     lambda p: ref.sum(ref.mul(geo.lorentz_distance(points(p, "U"),
                                                    points(p, "V")),
                             PAIR_WEIGHTS)),
     identical_pair),
    # row 1 is too near the apex for 2K: its aperture is clamped at pi/2
    ("cone_aperture",
     lambda p: ref.sum(ref.mul(geo.half_aperture(points(p, "U")).radians,
                               np.array([1.5, -2.0, 0.7]))),
     lambda: {"U": RNG.normal(size=(3, 4)) * np.array([[1.0], [0.01], [2.0]]),
              "c": float(RNG.uniform(0.5, 2.0))}),
    # the curvature's gradient can cancel across entries to below the
    # central difference's roundoff: criterion 2 checks it, with a floor
    ("cone_angle",
     lambda p: ref.sum(ref.mul(geo.exterior_angle(
         geo.LorentzPoint(p["U"], 1.3),
         geo.LorentzPoint(p["V"], 1.3)).radians, PAIR_WEIGHTS)),
     lambda: {k: v for k, v in identical_pair().items() if k != "c"}),
    # a zero row stays zero, with the identity as its Jacobian
    ("squash",
     lambda p: ref.sum(ref.mul(ad.squash(p["U"], aux=3.0),
                               np.arange(12.0).reshape(3, 4) - 5.0)),
     lambda: {"U": np.vstack([RNG.normal(scale=2.0, size=(2, 4)),
                              np.zeros((1, 4))])}),
    # two heads; row 0 owns one token (text row 1), row 1 owns rows 0 and 2
    ("attention",
     lambda p: ref.sum(ref.mul(ad.attention(
         p["V"], p["T"], p["Wq"], p["Wk"], p["Wv"], p["Wo"],
         aux=(np.array([[-np.inf, 0.0, -np.inf], [0.0, -np.inf, 0.0]]), 2)),
         np.arange(8.0).reshape(2, 4) - 3.0)),
     lambda: {"V": RNG.normal(size=(2, 4)), "T": RNG.normal(size=(3, 4)),
              **{w: RNG.normal(scale=0.7, size=(4, 4))
                 for w in ("Wq", "Wk", "Wv", "Wo")}}),
    # three rows through the box head's weight and bias
    ("box_head",
     lambda p: ref.sum(ref.mul(ad.box_head(p["X"], p["W"], p["b"], aux=1e-3),
                               np.arange(12.0).reshape(3, 4) - 5.0)),
     lambda: {"X": RNG.normal(size=(3, 4)), "W": RNG.normal(size=(4, 4)),
              "b": RNG.normal(size=4)}),
    # three rows, two with the same target column; a plain temperature
    ("cross_entropy",
     lambda p: ad.cross_entropy(p["U"], 0.7, aux=(np.array([2, 0, 2]), 1.0)),
     lambda: {"U": RNG.normal(scale=2.0, size=(3, 4))}),
    ("residual_mlp",
     lambda p: ref.sum(ref.mul(ad.residual_mlp(p["A"], p["B"], p["W1"],
                                               p["b1"], p["W2"], p["b2"]),
                               np.arange(6.0).reshape(3, 2) - 2.0)),
     lambda: {"A": RNG.normal(size=(3, 2)), "B": RNG.normal(size=(3, 2)),
              "W1": RNG.normal(size=(2, 4)), "b1": RNG.normal(size=4),
              "W2": RNG.normal(size=(4, 2)), "b2": RNG.normal(size=2)}),
    # the cases below are drawn after all the others, so adding one moves
    # no earlier draw
    # the logits -u / tau of the hyperbolic loss, tau on the tape
    ("cross_entropy_negated",
     lambda p: ad.cross_entropy(p["U"], p["t"], aux=(np.array([1, 0, 1]),
                                                     -1.0)),
     lambda: {"U": RNG.normal(scale=2.0, size=(3, 4)),
              "t": float(RNG.uniform(0.5, 2.0))}),
    # the norms ride in aux, made from the rows on either route
    ("cosine_cross_entropy",
     lambda p: ad.cosine_cross_entropy(
         p["A"], p["B"], p["t"],
         aux=(np.array([2, 0, 2]), ref.norm(ad.val(p["A"])),
              ref.norm(ad.val(p["B"])))),
     lambda: {"A": RNG.normal(size=(3, 4)), "B": RNG.normal(size=(4, 4)),
              "t": float(RNG.uniform(0.3, 1.0))}),
    # margin 0.1: each angle lies at least 0.03 from the aperture and from
    # the aperture plus the margin, off both hinges' kinks
    ("cone_hinge",
     lambda p: ad.cone_hinge(p["angles"], p["A"], aux=0.1),
     lambda: (lambda a: {
         "A": a, "angles": a[:, None] + np.array(
             [[0.3, -0.2, 0.05], [-0.1, 0.2, 0.04], [0.06, -0.3, 0.25]])
         + RNG.uniform(-0.01, 0.01, size=(3, 3))})(
             RNG.uniform(0.3, 0.6, size=3))),
    # differences on both sides of the threshold 1
    ("smooth_l1_loss",
     lambda p: ad.smooth_l1_loss(p["P"], p["G"]),
     lambda: (lambda pred: {"P": pred, "G": pred - np.concatenate([
         RNG.uniform(-0.9, 0.9, size=4), RNG.uniform(1.1, 3.0, size=2),
         -RNG.uniform(1.1, 3.0, size=2)]).reshape(2, 4)})(
             RNG.normal(size=(2, 4)))),
    # an inactive third term, a plain zero without a weight
    ("weighted_total",
     lambda p: ad.weighted_total(p["a"], p["b"], 0.0, p["c"],
                                 aux=(0.5, 2.0, None, 1.5)),
     lambda: {"a": float(RNG.uniform(0.1, 2.0)),
              "b": float(RNG.uniform(0.1, 2.0)),
              "c": float(RNG.uniform(0.1, 2.0))}),
    # three captions over a five-token vocabulary, one token read twice
    ("caption_embed",
     lambda p: ref.sum(ref.mul(ad.caption_embed(p["T"], aux=(
         CAPTION_COUNTS, np.add.reduce(CAPTION_COUNTS, axis=1, keepdims=True),
         3.0)), np.arange(12.0).reshape(3, 4) - 5.0)),
     lambda: {"T": RNG.normal(scale=2.0, size=(5, 4))}),
    # the box features and their encoding ride in aux
    ("positional",
     lambda p: ref.sum(ref.mul(ad.positional(p["V"], p["P"], aux=(
         np.linspace(-1.0, 1.0, 12).reshape(3, 4),
         np.cos(np.arange(24.0)).reshape(3, 8))),
         np.arange(24.0).reshape(3, 8) - 11.0)),
     lambda: {"V": RNG.normal(size=(3, 8)), "P": RNG.normal(size=(4, 8))}),
]


@pytest.mark.parametrize("name,build,sample",
                         SCALAR_CASES + VECTOR_CASES,
                         ids=[c[0] for c in SCALAR_CASES + VECTOR_CASES])
def test_primitive_gradients(name, build, sample):
    for _ in range(5):
        check_gradients(build, sample(), tol=1e-7)


def spelled_out_box_head(x, w, b, eps=1e-3):
    """The box head as 13 tape nodes, as the trainer recorded it before it
    was one row: the reference ``box_head`` must match bit for bit."""
    raw = ref.add(ref.matmul(x, w), b)
    u = ref.add(ref.mul(ref.sigmoid(raw), 1.0 - 2.0 * eps), eps)
    sizes = ref.cols(u, 2, 4)
    near = ref.mul(ref.cols(u, 0, 2), ref.sub(1.0, sizes))
    return ref.add(ref.matmul(near, np.eye(2, 4)),
                   ref.matmul(ref.add(near, sizes), np.eye(2, 4, 2)))


def spelled_out_cross_entropy(u, tau, targets, sign=1.0):
    """The mean cross-entropy of u / (sign tau) as the losses recorded it
    before it was one row, the reference for ``cross_entropy``: a negation
    for sign -1, the division, then 5 tape nodes."""
    logits = ref.div(u if sign > 0 else ref.neg(u), tau)
    per_row = ref.sub(ref.logsumexp(logits), ref.pick(logits, targets))
    return ref.div(ref.sum(per_row), float(len(targets)))


def spelled_out_cosine_cross_entropy(a, b, tau, targets):
    """The cosine cross-entropy of the classification and Euclidean
    contrastive losses as 12 tape nodes, the reference for
    ``cosine_cross_entropy``."""
    sims = ref.div(ref.dot(a, b), ref.outer(ref.norm(a), ref.norm(b)))
    return spelled_out_cross_entropy(sims, tau, targets)


def spelled_out_cone_hinge(angles, aperture, margin):
    """The entailment loss's hinge terms as 10 tape nodes, the reference
    for ``cone_hinge``."""
    n = len(ad.val(aperture))
    outside = ref.hinge(ref.sub(angles, ref.outer(aperture, np.ones(n))))
    eye = np.eye(n)
    terms = ref.add(ref.mul(outside, eye),
                    ref.mul(ref.hinge(ref.sub(margin, outside)), 1.0 - eye))
    return ref.div(ref.sum(terms), float(n))


def spelled_out_smooth_l1_loss(pred, gt):
    """The box loss of n x 4 rows as 4 tape nodes, the reference for
    ``smooth_l1_loss``."""
    return ref.div(ref.sum(ref.smooth_l1(ref.sub(pred, gt))),
                   4.0 * len(ad.val(pred)))


def spelled_out_weighted_total(terms, weights):
    """The weighted total as the objectives recorded it, one node per
    weight and per sum; an inactive term (weight None) a plain 0.0."""
    parts = [0.0 if w is None else ref.mul(t, w)
             for t, w in zip(terms, weights)]
    total = parts[0]
    for part in parts[1:]:
        total = ref.add(total, part)
    return total


def spelled_out_residual_mlp(a, b, w1, b1, w2, b2):
    """The fusion MLP as 7 tape nodes, the reference for
    ``residual_mlp``."""
    x = ref.add(a, b)
    hidden = ref.tanh(ref.add(ref.matmul(x, w1), b1))
    return ref.add(ref.add(x, ref.matmul(hidden, w2)), b2)


def spelled_out_caption_embed(table, counts, totals, radius):
    """The caption embedding as the trainer recorded it before it was one
    row: a matmul, the division by the token counts and the squash."""
    return ad.squash(ref.div(ref.matmul(counts, table), totals), aux=radius)


def spelled_out_positional(visual, proj, features, encoding):
    """The positional sum as 3 tape nodes, the reference for
    ``positional``."""
    return ref.add(ref.add(visual, ref.matmul(features, proj)), encoding)


def _row_operands(name, rng, n, d):
    if name == "caption_embed":
        return [rng.normal(size=(d, d))]
    if name == "positional":
        return [rng.normal(size=(n, d)), rng.normal(size=(4, d))]
    if name == "box_head":
        return [rng.normal(size=(n, d)), rng.normal(scale=3.0, size=(d, 4)),
                rng.normal(size=4)]
    if name == "cross_entropy":
        return [rng.normal(scale=5.0, size=(n, d)), rng.uniform(0.05, 2.0)]
    if name == "cosine_cross_entropy":
        return [rng.normal(size=(n, d)), rng.normal(size=(d, d)),
                rng.uniform(0.05, 2.0)]
    if name == "cone_hinge":
        # angles on both sides of the aperture and of aperture + margin
        return [rng.uniform(0.0, 2.0, size=(n, n)),
                rng.uniform(0.1, 1.5, size=n)]
    if name == "smooth_l1_loss":
        return [rng.normal(scale=2.0, size=(n, 4)),
                rng.normal(scale=2.0, size=(n, 4))]
    if name == "weighted_total":
        return list(rng.uniform(0.0, 3.0, size=3))
    return [rng.normal(size=(n, d)), rng.normal(size=(n, d)),
            rng.normal(scale=0.5, size=(d, 2 * d)), rng.normal(size=2 * d),
            rng.normal(scale=0.5, size=(2 * d, d)), rng.normal(size=d)]


def _cosine_row(targets):
    def row(a, b, tau):
        return ad.cosine_cross_entropy(
            a, b, tau, aux=(targets, ref.norm(ad.val(a)), ref.norm(ad.val(b))))
    return row


#: the weights of the weighted total's four terms, the third inactive
TOTAL_WEIGHTS = (np.float64(0.75), np.float64(1.0), None, np.float64(2.5))


@pytest.mark.parametrize("n,d", [(1, 4), (6, 8), (16, 16)])
@pytest.mark.parametrize("name", ["box_head", "cross_entropy",
                                  "residual_mlp", "cross_entropy_negated",
                                  "cosine_cross_entropy", "cone_hinge",
                                  "smooth_l1_loss", "weighted_total",
                                  "caption_embed", "positional"])
def test_row_keeps_the_spelled_out_bits(name, n, d):
    # value and every operand adjoint, on the tape and on the plain route;
    # the first operand has a second consumer after the row, as the fused
    # rows of a training step do
    rng = np.random.default_rng([n, d])
    operands = _row_operands(name.replace("_negated", ""), rng, n, d)
    targets = rng.integers(0, d, n)
    # the plain operands of the caption and positional rows, from a
    # generator of their own: counts over a d-token vocabulary, each
    # caption at least one token, and the box features and encoding
    plain = np.random.default_rng([n, d, 1])
    counts = plain.integers(0, 3, size=(n, d)) + np.eye(n, d)
    totals = np.add.reduce(counts, axis=1, keepdims=True)
    boxes = plain.normal(size=(n, 4)), plain.normal(size=(n, d))
    # the logits of a loss are a fresh node that feeds nothing else, or
    # the temperature's division of one; the row's two adjoint terms then
    # sum in the spelled-out order
    rows = {"box_head": (spelled_out_box_head,
                         lambda *ops: ad.box_head(*ops, aux=1e-3)),
            "cross_entropy": (
                lambda u, t: spelled_out_cross_entropy(u, t, targets),
                lambda u, t: ad.cross_entropy(u, t, aux=(targets, 1.0))),
            "cross_entropy_negated": (
                lambda u, t: spelled_out_cross_entropy(u, t, targets, -1.0),
                lambda u, t: ad.cross_entropy(u, t, aux=(targets, -1.0))),
            "cosine_cross_entropy": (
                lambda a, b, t: spelled_out_cosine_cross_entropy(a, b, t,
                                                                 targets),
                _cosine_row(targets)),
            "cone_hinge": (
                lambda a, b: spelled_out_cone_hinge(a, b, 0.3),
                lambda a, b: ad.cone_hinge(a, b, aux=0.3)),
            "smooth_l1_loss": (spelled_out_smooth_l1_loss,
                               ad.smooth_l1_loss),
            "weighted_total": (
                lambda a, b, c: spelled_out_weighted_total((a, b, 0.0, c),
                                                           TOTAL_WEIGHTS),
                lambda a, b, c: ad.weighted_total(a, b, 0.0, c,
                                                  aux=TOTAL_WEIGHTS)),
            "residual_mlp": (spelled_out_residual_mlp, ad.residual_mlp),
            "caption_embed": (
                lambda t: spelled_out_caption_embed(t, counts, totals, 3.0),
                lambda t: ad.caption_embed(t, aux=(counts, totals, 3.0))),
            "positional": (
                lambda v, p: spelled_out_positional(v, p, *boxes),
                lambda v, p: ad.positional(v, p, aux=boxes))}
    weights = rng.normal(size=np.shape(rows[name][0](*operands)))
    if weights.ndim:
        weights[0] = 0.0   # a zero adjoint row keeps its signed zeros
    results = []
    for row in rows[name]:
        tape = ad.Tape()
        leaves = [tape.leaf(v, str(k)) for k, v in enumerate(operands)]
        out = row(*leaves)
        grads = ref.gradients(tape, ref.add(ref.sum(ref.mul(out, weights)),
                                          ref.sum(ref.tanh(leaves[0]))))
        results.append([out.value.tobytes(), row(*operands).tobytes()]
                       + [grads[str(k)].tobytes()
                          for k in range(len(operands))])
    assert results[0] == results[1]


@pytest.mark.parametrize("op,what", [(ad.take_row, "take_row index"),
                                     (ref.pick, "pick column")])
def test_gathers_reject_non_integer_indices_naming_the_first(op, what):
    # 1.7 is not truncated to 1: the first bad entry is named
    m = np.arange(12.0).reshape(3, 4)
    for idx, bad in [([0.0, 1.7, 2.2], "entry 1 is 1.7"),
                     ([np.nan, 1.0, 0.0], "entry 0 is nan"),
                     (np.array([True, False, True]), "entry 0 is True")]:
        with pytest.raises(ValueError, match=f"{what} {bad}, not an integer"):
            op(m, idx)
        with pytest.raises(ValueError, match=f"{what} {bad}, not an integer"):
            op(ad.Tape().leaf(m), idx)
    # whole numbers in a float array name the same entries as integers
    assert np.array_equal(op(m, [2.0, 0.0, 1.0]), op(m, [2, 0, 1]))


@pytest.mark.parametrize("scatter", [
    lambda a: ref.cols(a, 1, 3),
    lambda a: ad.take_row(a, [2, 0, 2]),
    lambda a: ref.pick(a, [1, 0, 3]),
], ids=["cols", "take_row", "pick"])
def test_scatter_adjoint_leaves_a_shared_adjoint_alone(scatter):
    # add hands one adjoint array to both of its leaves; the scatter of
    # ``a``, recorded earlier, runs later in backward and adds into a's slot
    def build(p):
        part = scatter(p["a"])
        both = ref.add(p["a"], p["b"])
        return ref.add(ref.sum(ref.mul(both, np.arange(12.0).reshape(3, 4))),
                       ref.sum(ref.mul(part, part)))

    for _ in range(3):
        check_gradients(build, {"a": RNG.normal(size=(3, 4)),
                                "b": RNG.normal(size=(3, 4))})


def test_scatter_adjoints_add_into_the_running_adjoint_in_order():
    # as a hyper step reads the token table: backward reaches a matmul of it
    # first, then a gather of distinct rows, then one of repeated rows.  Each
    # gather adds its rows into the running adjoint, (cur + g_a) + g_b, not
    # into a buffer of its own that is added after, cur + (g_a + g_b)
    rng = np.random.default_rng(11)
    table, counts = rng.normal(size=(5, 3)), rng.normal(size=(4, 5))
    distinct, repeated = [3, 0, 4], [1, 3, 3, 0, 3]
    g_m, g_a, g_b = (rng.normal(size=(n, 3)) for n in (4, 3, 5))
    tape = ad.Tape()
    leaf = tape.leaf(table, name="table")
    reads = [ad.take_row(leaf, repeated), ad.take_row(leaf, distinct),
             ref.matmul(counts, leaf)]
    out = ref.sum(ref.mul(reads[0], g_b))
    for read, g in zip(reads[1:], (g_a, g_m)):
        out = ref.add(out, ref.sum(ref.mul(read, g)))
    want, apart = counts.T @ g_m, np.zeros(table.shape)
    for rows, g in ((distinct, g_a), (repeated, g_b)):
        for r, row in zip(rows, g):
            want[r] = want[r] + row
            apart[r] = apart[r] + row
    assert ad.backward(tape, out).tobytes() == want.tobytes()
    # the two orders differ in these bits
    assert (counts.T @ g_m + apart).tobytes() != want.tobytes()


@pytest.mark.parametrize("pairwise", [
    geo.lorentz_distance,
    lambda c, v: geo.exterior_angle(c, v).radians,
], ids=["lorentz_dist", "cone_angle"])
def test_masked_pairs_keep_exact_zero_value_and_gradient(pairwise):
    # row 0 of each batch is the same point: the identical pair of the
    # distance, and for C = 1 a coincident pair ((C<c,v>_H)^2 <= 1) of the
    # angle; only that entry is weighted
    rows = {"x": np.array([[0.5, 0.1], [-0.3, 0.7]]),
            "y": np.array([[0.5, 0.1], [0.9, -0.2], [0.2, 0.4]])}
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in rows.items()}
    curv = tape.leaf(1.0, name="c")
    out = pairwise(geo.exp_map_origin(leaves["x"], curv),
                   geo.exp_map_origin(leaves["y"], curv))
    assert ad.val(out)[0, 0] == 0.0
    assert np.all(ad.val(out)[1:] != 0.0)
    weights = np.zeros((2, 3))
    weights[0, 0] = 1.7
    grads = ref.gradients(tape, ref.sum(ref.mul(out, weights)))
    for name, want in rows.items():
        assert np.array_equal(grads[name], np.zeros(want.shape))
    assert grads["c"] == 0.0


def test_sinhc_small_argument_series():
    # Taylor branch below the switch point; value and derivative stay smooth
    for t in [0.0, 1e-9, 1e-6, 5e-5]:
        assert ref.sinhc(t) == pytest.approx(1.0, abs=1e-8)
    tape = ad.Tape()
    x = tape.leaf(5e-5, name="x")
    grads = ref.gradients(tape, ref.sinhc(x))
    assert grads["x"] == pytest.approx(5e-5 / 3.0, rel=1e-6)


def test_clamp_and_hinge_zero_gradient_in_inactive_region():
    # the composite rows' clamps and hinges pass nothing on their inactive
    # side: a row too near the apex for 2K has its aperture clamped at
    # pi/2, and a cone hinge whose terms are all inactive, two of them at
    # the kink, has zero gradient
    tape = ad.Tape()
    x = tape.leaf(np.array([[0.01, 0.0]]), name="x")
    c = tape.leaf(1.0, name="c")
    aperture = geo.half_aperture(geo.LorentzPoint(x, c)).radians
    assert ad.val(aperture)[0] == math.pi / 2
    grads = ref.gradients(tape, ref.sum(aperture))
    assert not grads["x"].any() and grads["c"] == 0.0
    tape = ad.Tape()
    angles = tape.leaf(np.array([[0.5, 0.75], [1.0, 0.125]]), name="angles")
    apertures = tape.leaf(np.array([0.5, 0.25]), name="apertures")
    loss = ad.cone_hinge(angles, apertures, aux=0.25)
    assert loss.value == 0.0
    grads = ref.gradients(tape, loss)
    assert not grads["angles"].any() and not grads["apertures"].any()


def test_linear_finite_diff_is_exact():
    # zero curvature: a larger step has no truncation error, only less roundoff
    fd = ad.finite_diff(lambda p: 3.0 * p["x"] - 2.0 * p["y"],
                        {"x": 0.7, "y": -0.2}, step=1e-4)
    assert abs(fd["x"] - 3.0) <= 1e-10
    assert abs(fd["y"] + 2.0) <= 1e-10


def test_quadratic_finite_diff_is_exact_to_h_squared():
    fd = ad.finite_diff(lambda p: p["x"] ** 2, {"x": 1.5}, step=1e-6)
    assert abs(fd["x"] - 3.0) <= 1e-9


@pytest.mark.parametrize("op,operands", [
    ("softmax", (np.zeros(4),)),
    ("softmax", (np.zeros((2, 3, 4)),)),
    ("logsumexp", (np.zeros(4),)),
    ("norm", (np.zeros((2, 3, 4)),)),
    ("dot", (np.zeros((2, 4)), np.zeros(4))),
])
def test_row_ops_reject_other_ranks_naming_the_shape(op, operands):
    shape = next(u.shape for u in operands if u.ndim != 2)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        getattr(ref, op)(*operands)
    tape = ad.Tape()
    with pytest.raises(ValueError, match=f"{op} takes n x d matrices"):
        getattr(ref, op)(*(tape.leaf(u) for u in operands))


def test_gradient_cases_cover_every_primitive():
    # criterion 2 is the gate for new ops: a row made without a case in
    # test_primitive_gradients fails here.  The reference rows are
    # primitives too
    recorded = set()
    for _, build, sample in SCALAR_CASES + VECTOR_CASES:
        tape = ad.Tape()
        build({k: tape.leaf(v, name=k) for k, v in sample().items()})
        recorded |= {row for row, _, _ in tape.ops}
    assert recorded == {None, *ref.PACKAGE_ROWS, *ref.ROWS}


def test_op_table_holds_only_rows_a_step_records():
    # a package row that no training tape records has no job
    recorded = set()
    for objective in tr.OBJECTIVES:
        config = tr.ExperimentConfig(objective=objective, scenes=6, batch=6)
        tree, synonyms, records, _ = tr.default_corpus(config)
        _, report = tr.step(tr.init(config, tree, synonyms), records[:6])
        recorded |= {row for row, _, _ in report.total.tape.ops}
    assert recorded == {None, *ref.PACKAGE_ROWS}


def test_every_row_is_one_kind():
    # the package's rows and the reference rows alike are ad._Op rows,
    # whose backward handles every adjoint, scatters too
    others = [row.name for row in ref.PACKAGE_ROWS + ref.ROWS
              if type(row) is not ad._Op]
    assert others == []


@pytest.mark.parametrize("module", ["reference_ops", "reference_state"])
def test_importing_a_reference_module_changes_nothing_in_autodiff(module):
    # the reference rows stay in the tests: a fresh import adds no row and
    # no row name to the package, and rebinds none of its names
    bindings, names = dict(vars(ad)), list(ad._OP_NAMES)
    spec = importlib.util.find_spec(module)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert list(ad._OP_NAMES) == names == ["hinge"]
    assert vars(ad).keys() == bindings.keys()
    assert all(vars(ad)[k] is v for k, v in bindings.items())
    assert ref.rows_of(vars(ad)) == ref.PACKAGE_ROWS


def test_kernels_keep_the_spelled_out_values():
    # the Lorentz, squash and inner-product kernels call numpy where they
    # called the fine-grained ops: every value keeps its bits.  Row 0 is
    # below the sinhc series switch and too near the apex for 2K
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    x[0] *= 1e-5
    c = 1.3
    lifted = ref.scale_rows(ref.sinhc(ref.mul(ref.sqrt(c), ref.norm(x))), x)
    assert ad.lift(x, c).tobytes() == lifted.tobytes()
    u, v = geo.exp_map_origin(x, c), geo.exp_map_origin(y, c)
    assert u.space_norm.tobytes() == ref.norm(lifted).tobytes()
    inner = ref.sub(ref.dot(u.space, v.space), ref.outer(u.time, v.time))
    assert geo._inner(u, v).tobytes() == inner.tobytes()
    # no pair is identical, so the distance masks nothing
    dist = ref.mul(ref.sqrt(1.0 / c), ref.arccosh(
        ref.clamp_min(ref.neg(ref.mul(c, inner)), 1.0)))
    assert geo.lorentz_distance(u, v).tobytes() == dist.tobytes()
    ratio = ref.div(2.0 * geo.APERTURE_K, ref.mul(ref.sqrt(c), u.space_norm))
    aperture = ref.asin(ref.clamp_max(ratio, 1.0))
    assert geo.half_aperture(u).value.tobytes() == aperture.tobytes()
    ci = ref.mul(c, inner)
    dsq = ref.sub(ref.mul(ci, ci), 1.0)
    den = ref.scale_rows(u.space_norm, ref.sqrt(np.where(dsq > 0.0, dsq,
                                                         1.0)))
    q = ref.div(ref.add(v.time, ref.scale_rows(u.time, ci)), den)
    angle = ref.mul(ref.arccos(ref.clamp_max(ref.clamp_min(q, -1.0), 1.0)),
                    np.where(dsq > 0.0, 1.0, 0.0))
    assert geo.exterior_angle(u, v).value.tobytes() == angle.tobytes()
    n = ref.clamp_min(ref.norm(x), 1e-12)
    f = ref.div(ref.mul(ref.tanh(ref.div(n, 3.0)), 3.0), n)
    assert ad.squash(x, aux=3.0).tobytes() == ref.scale_rows(f, x).tobytes()
    # the caption embedding and the positional sum, drawn after the rest
    table = rng.normal(size=(7, 4))
    counts = rng.integers(0, 3, size=(5, 7)) + np.eye(5, 7)
    totals = np.add.reduce(counts, axis=1, keepdims=True)
    mean = ref.div(ref.matmul(counts, table), totals)
    assert (ad.caption_embed(table, aux=(counts, totals, 3.0)).tobytes()
            == ad.squash(mean, aux=3.0).tobytes())
    features, proj = rng.normal(size=(5, 4)), rng.normal(size=(4, 4))
    encoding = rng.normal(size=(5, 4))
    summed = ref.add(ref.add(x, ref.matmul(features, proj)), encoding)
    assert (ad.positional(x, proj, aux=(features, encoding)).tobytes()
            == summed.tobytes())


def where_sinhc(t):
    """sinh(t)/t and its derivative with np.where choosing, entry by
    entry, between the Taylor series and the closed form."""
    small = np.abs(t) < ad._SINHC_SWITCH
    safe = np.where(small, 1.0, t)
    t2 = t * t
    return (np.where(small, 1.0 + t2 / 6.0 + t2 * t2 / 120.0
                     + t2 * t2 * t2 / 5040.0, np.sinh(safe) / safe),
            np.where(small, t / 3.0 + t * t2 / 30.0 + t * t2 * t2 / 840.0,
                     np.cosh(safe) / safe - np.sinh(safe) / (safe * safe)))


@pytest.mark.parametrize("t", [
    np.array([1e-4, -1e-4, 3e-4, -0.7, 1.0, 2.5, 17.0, -40.0]),
    np.array([0.0, -0.0, 1e-300, 1e-9, -5e-5, 9.99e-5, -9.99e-5]),
    np.array([2.0, 0.0, 5e-5, -1.3, 1e-4, -1e-7, 0.3]),
], ids=["all_large", "all_small", "mixed"])
def test_sinhc_keeps_the_where_bits(t):
    # the closed form alone when no entry is below the switch
    value, deriv = where_sinhc(t)
    assert ad._sinhc(t).tobytes() == value.tobytes()
    assert ad._sinhc_deriv(t).tobytes() == deriv.tobytes()


def test_backward_deterministic_bit_identical():
    params = {"u": RNG.normal(size=(2, 3)), "a": 0.9}

    def build(p):
        s = ref.softmax(ref.mul(p["u"], p["a"]))
        return ref.add(ref.sum(ref.logsumexp(s)), ref.sum(ref.norm(p["u"])))

    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    out = build(leaves)
    g1 = ad.backward(tape, out)
    g2 = ad.backward(tape, out)
    assert g1.tobytes() == g2.tobytes()


def test_reused_operand_accumulates():
    tape = ad.Tape()
    x = tape.leaf(2.0, name="x")
    out = ref.add(ref.mul(x, x), x)  # x^2 + x -> 2x + 1
    grads = ref.gradients(tape, out)
    assert grads["x"] == pytest.approx(5.0, abs=1e-12)


def test_unreached_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(1.0, name="x")
    y = tape.leaf(np.ones(3), name="y")
    grads = ref.gradients(tape, ref.mul(x, 2.0))
    assert grads["x"] == 2.0
    assert np.array_equal(grads["y"], np.zeros(3))


def test_non_scalar_output_rejected():
    tape = ad.Tape()
    u = tape.leaf(np.ones(3), name="u")
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, ref.mul(u, 2.0))


def test_non_finite_leaf_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="non-finite"):
        tape.leaf(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        tape.leaf(np.array([1.0, np.inf]))


def test_duplicate_leaf_name_rejected():
    tape = ad.Tape()
    tape.leaf(1.0, name="x")
    with pytest.raises(ValueError, match="duplicate"):
        tape.leaf(2.0, name="x")


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    x = t1.leaf(1.0, name="x")
    y = t2.leaf(2.0, name="y")
    with pytest.raises(ValueError, match="tape"):
        ref.add(x, y)


def test_non_finite_gradient_reports_node():
    tape = ad.Tape()
    x = tape.leaf(1e200, name="x")
    # numpy warns of the overflow, which the test suite makes an error
    with np.errstate(over="ignore"):
        y = ref.mul(x, x)          # overflows to inf
        out = ref.mul(y, x)
        # out's VJP hands x the adjoint y = inf; the leaf only receives it
        with pytest.raises(ArithmeticError,
                           match=re.escape("from node 2 (op ref_mul)")):
            ad.backward(tape, out)


def test_non_finite_gradient_names_the_row_it_came_from(monkeypatch):
    # a composite row's VJP emits NaN, which reaches both leaves, one of
    # them through a later row: the error names the composite row
    vjp = ad.cone_hinge.vjp

    def poisoned(g, *rest):
        return vjp(g * np.nan, *rest)

    monkeypatch.setattr(ad.cone_hinge, "vjp", poisoned)
    tape = ad.Tape()
    x = tape.leaf(np.full((3, 3), -1.0), name="x")
    aperture = tape.leaf(np.full(3, 0.5), name="aperture")
    angles = ad.exp(x)
    out = ref.mul(ad.cone_hinge(angles, aperture, aux=0.1), 2.0)
    with pytest.raises(ArithmeticError,
                       match=re.escape("from node 3 (op cone_hinge)")):
        ad.backward(tape, out)


def test_finite_diff_reports_non_finite_probe():
    def f(p):
        x = p["x"]
        return x if x > 0 else float("nan")

    with pytest.raises(ValueError, match="x"):
        ad.finite_diff(f, {"x": 5e-7}, step=1e-6)


def test_tape_indices_reference_earlier_nodes_only():
    tape = ad.Tape()
    x = tape.leaf(1.0, name="x")
    out = ref.tanh(ref.mul(x, 2.0))
    for i, (_, inputs, _) in enumerate(tape.ops):
        assert all(j < i for j in inputs)
    assert out.idx == len(tape.ops) - 1


def _mask_batches(name):
    rng = np.random.default_rng(23)
    if name == "duplicates":
        rows = rng.normal(size=(4, 5))
        return rows[[0, 1, 1, 3]], rows[[1, 2, 0, 1, 1]]
    if name == "signed_zeros":
        return (np.array([[0.0, 1.0, -0.0], [2.0, 0.0, 0.0]]),
                np.array([[-0.0, 1.0, 0.0], [2.0, -0.0, -0.0],
                          [0.0, 1.0, 1e-300]]))
    if name == "equal_sums":
        # equal sums and largest entries, different rows, and one equal row
        return (np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]),
                np.array([[2.0, 2.0, 2.0], [1.0, 3.0, 2.0], [3.0, 2.0, 1.0],
                          [2.0, 3.0, 1.0]]))
    if name == "layouts":
        # equal rows in a C-ordered and a Fortran-ordered batch, whose row
        # sums may round differently
        rows = rng.normal(size=(6, 9)) * 10.0 ** rng.integers(-8, 8, (6, 9))
        return rows, np.asfortranarray(rows[[5, 0, 3, 3]])
    if name == "nan":
        rows = np.array([[np.nan, 1.0], [0.5, 2.0]])
        return rows, rows.copy()
    if name == "no_entries":
        return np.zeros((2, 0)), np.zeros((3, 0))
    pair = identical_pair()
    return pair["U"], pair["V"]


@pytest.mark.parametrize("name", ["duplicates", "signed_zeros", "equal_sums",
                                  "layouts", "nan", "no_entries",
                                  "identical_pair"])
def test_distinct_rows_equal_the_whole_row_comparison(name):
    # the distance's mask compares whole rows only where the largest
    # entries agree; it must equal comparing every pair in full.  This
    # test is last in the module, so identical_pair's draws move no other
    # test's data
    us, vs = _mask_batches(name)
    full = np.all(us[:, None, :] == vs[None, :, :], axis=2)
    assert ad._distinct(us, vs).tobytes() == np.where(full, 0.0,
                                                      1.0).tobytes()
