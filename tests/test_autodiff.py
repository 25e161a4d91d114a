"""Tape engine tests: per-primitive derivative checks, determinism, guards."""

import math
import re

import numpy as np
import pytest

from hypalign import autodiff as ad


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
    grads = ad.backward(tape, out)
    fd = ad.finite_diff(lambda p: float(ad.val(build(p))), params, step=step)
    for name in params:
        err = rel_err(grads[name], fd[name])
        assert err <= tol, f"{name}: analytic vs fd rel err {err}"
    return grads


RNG = np.random.default_rng(20240811)


def test_square_gradient():
    tape = ad.Tape()
    x = tape.leaf(3.0, name="x")
    grads = ad.backward(tape, ad.mul(x, x))
    assert grads["x"] == pytest.approx(6.0, abs=1e-12)


def test_arccosh_gradient_analytic():
    # d/dx arccosh(x) = 1/sqrt(x^2 - 1); at x = 2 this is 1/sqrt(3)
    tape = ad.Tape()
    x = tape.leaf(2.0, name="x")
    grads = ad.backward(tape, ad.arccosh(x))
    assert grads["x"] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


# --- exhaustive per-primitive coverage -------------------------------------

SCALAR_CASES = [
    ("add", lambda p: ad.add(p["a"], p["b"]), lambda: {"a": 0.7, "b": -1.3}),
    ("addc", lambda p: ad.add(p["a"], 2.5), lambda: {"a": 0.7}),
    ("sub", lambda p: ad.sub(p["a"], p["b"]), lambda: {"a": 1.2, "b": 0.4}),
    ("rsub", lambda p: ad.sub(1.5, p["a"]), lambda: {"a": 0.9}),
    ("neg", lambda p: ad.neg(p["a"]), lambda: {"a": 0.3}),
    ("mul", lambda p: ad.mul(p["a"], p["b"]), lambda: {"a": 1.7, "b": -0.6}),
    ("mulc", lambda p: ad.mul(p["a"], -3.0), lambda: {"a": 0.8}),
    ("div", lambda p: ad.div(p["a"], p["b"]), lambda: {"a": 1.3, "b": 0.7}),
    ("divc", lambda p: ad.div(p["a"], 4.0), lambda: {"a": 2.2}),
    ("cdiv", lambda p: ad.div(3.0, p["a"]), lambda: {"a": 1.4}),
    ("exp", lambda p: ad.exp(p["a"]), lambda: {"a": 0.4}),
    ("sqrt", lambda p: ad.sqrt(p["a"]),
     lambda: {"a": float(RNG.uniform(0.5, 3.0))}),
    ("sinhc", lambda p: ad.sinhc(p["a"]),
     lambda: {"a": float(RNG.uniform(0.2, 1.5))}),
    ("tanh", lambda p: ad.tanh(p["a"]),
     lambda: {"a": float(RNG.uniform(-1.0, 1.0))}),
    ("sigmoid", lambda p: ad.sigmoid(p["a"]),
     lambda: {"a": float(RNG.uniform(-1.0, 1.0))}),
    ("arccosh", lambda p: ad.arccosh(p["a"]),
     lambda: {"a": float(RNG.uniform(1.5, 3.0))}),
    ("asin", lambda p: ad.asin(p["a"]),
     lambda: {"a": float(RNG.uniform(-0.9, 0.9))}),
    ("arccos", lambda p: ad.arccos(p["a"]),
     lambda: {"a": float(RNG.uniform(-0.9, 0.9))}),
    ("clamp_min_active", lambda p: ad.clamp_min(p["a"], 0.0),
     lambda: {"a": 0.8}),
    ("clamp_min_inactive", lambda p: ad.clamp_min(p["a"], 0.0),
     lambda: {"a": -0.8}),
    ("clamp_max_active", lambda p: ad.clamp_max(p["a"], 1.0),
     lambda: {"a": 0.4}),
    ("clamp_max_inactive", lambda p: ad.clamp_max(p["a"], 1.0),
     lambda: {"a": 1.9}),
    ("hinge_active", lambda p: ad.hinge(p["a"]), lambda: {"a": 0.6}),
    ("hinge_inactive", lambda p: ad.hinge(p["a"]), lambda: {"a": -0.6}),
    ("smooth_l1_quadratic", lambda p: ad.smooth_l1(p["a"]),
     lambda: {"a": 0.3}),
    ("smooth_l1_linear", lambda p: ad.smooth_l1(p["a"]), lambda: {"a": 2.1}),
]

VECTOR_CASES = [
    ("dot",
     lambda p: ad.sum(ad.mul(ad.dot(p["U"], p["V"]),
                             np.arange(6.0).reshape(2, 3))),
     lambda: {"U": RNG.normal(size=(2, 4)), "V": RNG.normal(size=(3, 4))}),
    ("norm", lambda p: ad.sum(ad.mul(ad.norm(p["U"]), np.array([1.0, -2.0]))),
     lambda: {"U": RNG.normal(size=(2, 4)) + 2.0}),
    ("mul_scalar_array", lambda p: ad.sum(ad.mul(p["a"], p["u"])),
     lambda: {"a": 1.3, "u": RNG.normal(size=3)}),
    ("mul_array_array", lambda p: ad.sum(ad.mul(p["u"], p["v"])),
     lambda: {"u": RNG.normal(size=3), "v": RNG.normal(size=3)}),
    ("div_array_scalar", lambda p: ad.sum(ad.div(p["u"], p["a"])),
     lambda: {"u": RNG.normal(size=3), "a": 1.7}),
    ("matmul", lambda p: ad.sum(ad.matmul(p["A"], p["B"])),
     lambda: {"A": RNG.normal(size=(2, 4)), "B": RNG.normal(size=(4, 3))}),
    ("take_row",
     lambda p: ad.sum(ad.mul(ad.take_row(p["M"], [1]),
                             np.array([[1.0, 2.0]]))),
     lambda: {"M": RNG.normal(size=(3, 2))}),
    ("take_row_repeated",
     lambda p: ad.sum(ad.mul(ad.take_row(p["M"], [2, 0, 2]),
                             np.arange(6.0).reshape(3, 2))),
     lambda: {"M": RNG.normal(size=(3, 2))}),
    ("cols", lambda p: ad.sum(ad.cols(p["M"], 1, 3)),
     lambda: {"M": RNG.normal(size=(3, 4))}),
    ("logsumexp",
     lambda p: ad.sum(ad.mul(ad.logsumexp(p["U"]), np.array([1.0, -2.0]))),
     lambda: {"U": RNG.normal(size=(2, 5))}),
    ("softmax",
     lambda p: ad.sum(ad.mul(ad.softmax(p["u"]),
                             np.array([[1.0, -1.0, 2.0, 0.3]]))),
     lambda: {"u": RNG.normal(size=(1, 4))}),
    ("softmax_rows",
     lambda p: ad.sum(ad.mul(ad.softmax(p["M"]),
                             np.array([[1.0, -1.0, 2.0], [0.3, 0.0, -2.5]]))),
     lambda: {"M": RNG.normal(size=(2, 3))}),
    ("smooth_l1_array",
     lambda p: ad.sum(ad.mul(ad.smooth_l1(p["u"]), np.arange(1.0, 9.0))),
     lambda: {"u": np.concatenate([RNG.uniform(-0.9, 0.9, size=4),
                                   RNG.uniform(1.1, 3.0, size=2),
                                   -RNG.uniform(1.1, 3.0, size=2)])}),
    ("add_row_bias",
     lambda p: ad.sum(ad.mul(ad.sub(ad.add(p["M"], p["b"]), p["c"]),
                             np.arange(6.0).reshape(2, 3))),
     lambda: {"M": RNG.normal(size=(2, 3)), "b": RNG.normal(size=3),
              "c": RNG.normal(size=3)}),
    ("scale_rows",
     lambda p: ad.sum(ad.mul(ad.scale_rows(p["s"], p["M"]),
                             np.arange(6.0).reshape(2, 3))),
     lambda: {"s": RNG.normal(size=2), "M": RNG.normal(size=(2, 3))}),
    ("outer",
     lambda p: ad.sum(ad.mul(ad.outer(p["u"], p["v"]),
                             np.arange(6.0).reshape(3, 2))),
     lambda: {"u": RNG.normal(size=3), "v": RNG.normal(size=2)}),
    ("sum", lambda p: ad.sum(ad.mul(p["M"], p["M"])),
     lambda: {"M": RNG.normal(size=(2, 3))}),
    ("pick",
     lambda p: ad.sum(ad.mul(ad.pick(p["M"], [2, 0]), np.array([1.0, -3.0]))),
     lambda: {"M": RNG.normal(size=(2, 3))}),
]


@pytest.mark.parametrize("name,build,sample",
                         SCALAR_CASES + VECTOR_CASES,
                         ids=[c[0] for c in SCALAR_CASES + VECTOR_CASES])
def test_primitive_gradients(name, build, sample):
    for _ in range(5):
        check_gradients(build, sample(), tol=1e-7)


@pytest.mark.parametrize("scatter", [
    lambda a: ad.cols(a, 1, 3),
    lambda a: ad.take_row(a, [2, 0, 2]),
    lambda a: ad.pick(a, [1, 0, 3]),
], ids=["cols", "take_row", "pick"])
def test_scatter_adjoint_leaves_a_shared_adjoint_alone(scatter):
    # add hands one adjoint array to both of its leaves; the scatter of
    # ``a``, recorded earlier, runs later in backward and adds into a's slot
    def build(p):
        part = scatter(p["a"])
        both = ad.add(p["a"], p["b"])
        return ad.add(ad.sum(ad.mul(both, np.arange(12.0).reshape(3, 4))),
                      ad.sum(ad.mul(part, part)))

    for _ in range(3):
        check_gradients(build, {"a": RNG.normal(size=(3, 4)),
                                "b": RNG.normal(size=(3, 4))})


def test_sinhc_small_argument_series():
    # Taylor branch below the switch point; value and derivative stay smooth
    for t in [0.0, 1e-9, 1e-6, 5e-5]:
        assert ad.sinhc(t) == pytest.approx(1.0, abs=1e-8)
    tape = ad.Tape()
    x = tape.leaf(5e-5, name="x")
    grads = ad.backward(tape, ad.sinhc(x))
    assert grads["x"] == pytest.approx(5e-5 / 3.0, rel=1e-6)


def test_clamp_and_hinge_zero_gradient_in_inactive_region():
    for build, value in [
        (lambda p: ad.clamp_min(p["a"], 0.0), -0.5),
        (lambda p: ad.clamp_max(p["a"], 1.0), 1.5),
        (lambda p: ad.hinge(p["a"]), -0.5),
        (lambda p: ad.hinge(p["a"]), 0.0),  # kink takes the inactive side
    ]:
        tape = ad.Tape()
        leaves = {"a": tape.leaf(value, name="a")}
        grads = ad.backward(tape, build(leaves))
        assert grads["a"] == 0.0


def test_linear_finite_diff_is_exact():
    # zero curvature: a larger step has no truncation error, only less roundoff
    fd = ad.finite_diff(lambda p: 3.0 * p["x"] - 2.0 * p["y"],
                        {"x": 0.7, "y": -0.2}, step=1e-4)
    assert abs(fd["x"] - 3.0) <= 1e-10
    assert abs(fd["y"] + 2.0) <= 1e-10


def test_quadratic_finite_diff_is_exact_to_h_squared():
    fd = ad.finite_diff(lambda p: p["x"] ** 2, {"x": 1.5}, step=1e-6)
    assert abs(fd["x"] - 3.0) <= 1e-9


def test_softmax_sums_to_one_and_ignores_shift():
    # attention relies on both: each head's weights are one softmax
    u = np.random.default_rng(7).normal(size=(1, 5))
    s = ad.softmax(u)
    assert abs(float(np.sum(s)) - 1.0) <= 1e-12
    assert np.all(s >= 0.0)
    assert np.max(np.abs(ad.softmax(u + 1e4) - s)) <= 1e-9
    # row-wise on a matrix; a -inf entry (a masked token) gets weight 0
    m = np.vstack([u, u + 1e4, np.where(np.arange(5) < 2, -np.inf, u)])
    rows = ad.softmax(m)
    assert np.max(np.abs(rows[:2] - s)) <= 1e-9
    assert np.array_equal(rows[2, :2], [0.0, 0.0])
    assert np.max(np.abs(rows[2, 2:] - ad.softmax(u[:, 2:]))) <= 1e-12


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
        getattr(ad, op)(*operands)
    tape = ad.Tape()
    with pytest.raises(ValueError, match=f"{op} takes n x d matrices"):
        getattr(ad, op)(*(tape.leaf(u) for u in operands))


def test_gradient_cases_cover_every_primitive():
    # criterion 2 is the gate for new ops: a primitive registered without a
    # case in test_primitive_gradients fails here
    recorded = set()
    for _, build, sample in SCALAR_CASES + VECTOR_CASES:
        tape = ad.Tape()
        build({k: tape.leaf(v, name=k) for k, v in sample().items()})
        recorded |= {ad._OP_NAMES[opcode] for opcode, _, _ in tape.ops}
    assert recorded - {"leaf"} == set(ad._OP_NAMES) - {"leaf"}


def test_backward_deterministic_bit_identical():
    params = {"u": RNG.normal(size=(2, 3)), "a": 0.9}

    def build(p):
        s = ad.softmax(ad.mul(p["u"], p["a"]))
        return ad.add(ad.sum(ad.logsumexp(s)), ad.sum(ad.norm(p["u"])))

    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    out = build(leaves)
    g1 = ad.backward(tape, out)
    g2 = ad.backward(tape, out)
    assert g1["a"] == g2["a"]
    assert np.array_equal(g1["u"], g2["u"])


def test_reused_operand_accumulates():
    tape = ad.Tape()
    x = tape.leaf(2.0, name="x")
    out = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1
    grads = ad.backward(tape, out)
    assert grads["x"] == pytest.approx(5.0, abs=1e-12)


def test_unreached_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(1.0, name="x")
    y = tape.leaf(np.ones(3), name="y")
    grads = ad.backward(tape, ad.mul(x, 2.0))
    assert grads["x"] == 2.0
    assert np.array_equal(grads["y"], np.zeros(3))


def test_non_scalar_output_rejected():
    tape = ad.Tape()
    u = tape.leaf(np.ones(3), name="u")
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, ad.mul(u, 2.0))


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
        ad.add(x, y)


def test_non_finite_gradient_reports_node():
    tape = ad.Tape()
    x = tape.leaf(1e200, name="x")
    # numpy warns of the overflow, which the test suite makes an error
    with np.errstate(over="ignore"):
        y = ad.mul(x, x)          # overflows to inf
        out = ad.mul(y, x)
        with pytest.raises(ArithmeticError, match="node"):
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
    out = ad.tanh(ad.mul(x, 2.0))
    for i, (_, inputs, _) in enumerate(tape.ops):
        assert all(j < i for j in inputs)
    assert out.idx == len(tape.ops) - 1
