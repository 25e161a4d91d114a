"""The fine-grained ops that the composite rows of ``hypalign.autodiff``
spell out, kept as test references.

Each is a row of the package's one row kind, ``ad._Op``, made through the
small helpers below and, where the package has one, its private kernel or
derivative helper, so a tape records and differentiates it like any row.
The bit checks compare a composite row with its formula spelled out in
these ops, and the gradient checks reduce an array result to a scalar
with ``sum(mul(x, weights))``.  No training step records any of them.
``ROWS`` are this module's rows and ``PACKAGE_ROWS`` the package's own;
each row's name here starts with ``ref_``, so that none shares a name
with a package row.

``gradients`` splits ``ad.backward``'s vector into a map by leaf name, the
form the checks compare with ``ad.finite_diff``.
"""

import math
import operator

import numpy as np

from hypalign import autodiff as ad


def rows_of(namespace: dict) -> tuple:
    """The rows that a module's namespace binds, in binding order."""
    return tuple(op for op in namespace.values() if isinstance(op, ad._Op))


def _unary(name, kernel, vjp):
    """A one-operand row: ``kernel(x)`` is the value and ``vjp(g, ans, x)``
    the adjoint of x."""
    return ad._Op(name, lambda x, aux: (kernel(x), None),
                  lambda g, ans, saved, x, aux: ((0, vjp(g, ans, x)),))


def _binary(name, kernel, vjp_a, vjp_b):
    """A two-operand row: ``kernel(a, b)`` is the value, and ``vjp_a(g, a,
    b)`` and ``vjp_b(g, a, b)`` the adjoints of a and b."""
    return ad._Op(name, lambda a, b, aux: (kernel(a, b), None),
                  lambda g, ans, saved, a, b, aux: (
                      (0, vjp_a(g, a, b)), (1, vjp_b(g, a, b))))


def _gated(name, kernel, active):
    """A row ``kernel(x, aux)`` that passes the adjoint where ``active(x,
    aux)`` holds."""
    return ad._Op(name, lambda x, aux: (kernel(x, aux), None),
                  lambda g, ans, saved, x, aux: ((0, g * active(x, aux)),))


def _gather(name):
    """A row of the entries of a matrix at an index, aux, whose adjoint is
    the package's scatter pair."""
    return ad._Op(name, lambda m, index: (m[index], None),
                  lambda g, ans, saved, m, index: ((0, (index, g)),))


def _fit(grad, operand):
    """An adjoint summed down to a broadcast scalar or row vector."""
    if grad.ndim > operand.ndim:
        return np.add.reduce(grad, axis=0 if operand.ndim else None)
    return grad


def _softmax(u):
    ad._rows("softmax", u)
    e = np.exp(u - np.maximum.reduce(u, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


# equal shapes, a scalar paired with an array, or (add, sub, mul) a row
# vector and every row of a matrix
add = _binary("ref_add", operator.add, lambda g, a, b: _fit(g, a),
              lambda g, a, b: _fit(g, b))
sub = _binary("ref_sub", operator.sub, lambda g, a, b: _fit(g, a),
              lambda g, a, b: -_fit(g, b))
mul = _binary("ref_mul", operator.mul, lambda g, a, b: _fit(g * b, a),
              lambda g, a, b: _fit(g * a, b))
div = _binary("ref_div", operator.truediv, lambda g, a, b: _fit(g / b, a),
              lambda g, a, b: -_fit(g * a, b) / (b * b))
matmul = _binary("ref_matmul", np.matmul, lambda g, a, b: g @ b.T,
                 lambda g, a, b: a.T @ g)
neg = _unary("ref_neg", operator.neg, lambda g, ans, x: -g)
sqrt = _unary("ref_sqrt", np.sqrt,
              lambda g, ans, x: g / (2.0 * np.maximum(ans, 1e-150)))
# sinh(t)/t, series-expanded near t = 0
sinhc = _unary("ref_sinhc", ad._sinhc,
               lambda g, ans, x: g * ad._sinhc_deriv(x))
tanh = _unary("ref_tanh", np.tanh, lambda g, ans, x: g * (1.0 - ans * ans))
sigmoid = _unary("ref_sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)),
                 lambda g, ans, x: g * ans * (1.0 - ans))
arccosh = _unary("ref_arccosh", np.arccosh,
                 lambda g, ans, x: g / ad._acosh_den(x))
asin = _unary("ref_asin", np.arcsin, lambda g, ans, x: g / ad._trig_den(x))
arccos = _unary("ref_arccos", np.arccos,
                lambda g, ans, x: -g / ad._trig_den(x))
# the boundary of a clamp or hinge takes the inactive side: zero gradient
_CLAMP_MIN = _gated("ref_clamp_min", np.maximum, operator.gt)
_CLAMP_MAX = _gated("ref_clamp_max", np.minimum, operator.lt)
_HINGE = _gated("ref_hinge", np.maximum, operator.gt)
# smooth L1 (threshold 1), elementwise
smooth_l1 = _unary("ref_smooth_l1", ad._smooth_l1,
                   lambda g, ans, a: g * ad._smooth_l1_slope(a))
# inner product of every row of u with every row of v (u @ v.T)
dot = _binary("ref_dot", ad._dot, lambda g, u, v: g @ v,
              lambda g, u, v: g.T @ u)
# the vector of row norms of a matrix
norm = _unary("ref_norm", ad._norm, ad._norm_vjp)
_COLS = _gather("ref_cols")
# stable log(sum(exp(row))) of each row of a matrix
logsumexp = _unary("ref_logsumexp", ad._logsumexp,
                   lambda g, ans, u: g[:, None] * np.exp(u - ans[:, None]))
# softmax of each row of a matrix
softmax = _unary("ref_softmax", _softmax, lambda g, ans, u: ans * (
    g - np.add.reduce(g * ans, axis=1, keepdims=True)))
# row i of matrix m times s[i]
scale_rows = _binary("ref_scale_rows", lambda s, m: s[:, None] * m,
                     lambda g, s, m: ad._row_dot(g, m),
                     lambda g, s, m: s[:, None] * g)
# outer product of two vectors (n x m)
outer = _binary("ref_outer", np.outer, lambda g, a, b: g @ b,
                lambda g, a, b: a @ g)
# sum of all entries of an array, as a scalar
sum = _unary("ref_sum",  # shadows builtin
             lambda x: np.add.reduce(x, axis=None),
             lambda g, ans, x: np.full(x.shape, g))
_PICK = _gather("ref_pick")

#: this module's rows, and the package's
ROWS = rows_of(globals())
PACKAGE_ROWS = rows_of(vars(ad))


def split(tape, vector):
    """A gradient vector laid out as ``ad.backward`` returns it, split by
    leaf name into pieces shaped like their leaves."""
    grads, at = {}, 0
    for name, j in tape.names.items():
        shape = np.shape(tape.values[j])
        size = math.prod(shape)
        grads[name] = vector[at:at + size].reshape(shape)
        at += size
    return grads


def gradients(tape, output):
    """The gradient of every named leaf, by name."""
    return split(tape, ad.backward(tape, output))


def clamp_min(a, lo):
    return _CLAMP_MIN(a, aux=float(lo))


def clamp_max(a, hi):
    return _CLAMP_MAX(a, aux=float(hi))


def hinge(a):
    """max(0, a); subgradient 0 at the kink."""
    return _HINGE(a, aux=0.0)


def pick(m, idx):
    """Entry ``idx[i]`` of row i of matrix ``m``, for every row: a vector."""
    columns = ad.indices(idx, "pick column")
    rows = ad.val(m).shape[0]
    if columns.shape != (rows,):
        raise ValueError(f"pick needs one column index per row ({rows})")
    return _PICK(m, aux=(np.arange(rows), columns))


def cols(m, a, b):
    """Column slice of a matrix."""
    return _COLS(m, aux=(slice(None), np.arange(int(a), int(b))))
