"""Reverse-mode differentiation over float64 numpy values.

Primitive operations are recorded on an append-only :class:`Tape`; a node may
only reference earlier nodes, so the graph is acyclic by construction.
``backward`` walks the tape in reverse with a fixed accumulation order, which
makes repeated backward passes bit-identical.

Each primitive is one row of an op table: its name, its value kernel and its
vector-Jacobian products (VJPs).  A row's index is its opcode, and
``_OP_NAMES`` and the backward dispatch are read off the same table.  Every
row but the leaf and ``hinge`` is made by one maker, ``_composite``, whose
VJP is handed the node's stored output (``exp`` reads it instead of
recomputing it) and returns (operand, adjoint) pairs.  Accumulation never
writes into an array it does not own: an adjoint's first contribution is
kept as it is, possibly shared with other adjoints, and each later one
makes a new sum.  A gather's adjoint (``take_row``'s) is an ``(index,
rows)`` pair instead, which ``np.add.at`` adds into the running adjoint,
copied first if it is shared, so a slot read by several gathers takes
their rows in backward order.

Every public op is polymorphic: called with :class:`Var` arguments it records
a tape node (a plain operand rides in the node's aux and takes no adjoint),
called with plain numbers or arrays it just computes the value.  That gives
two independent evaluation routes for the same formula, which the
finite-difference checker exploits.  ``Var`` has no arithmetic operators.

Every value, on the tape and on the plain route, is float64 numpy: an array,
or a numpy float64 (or 0-d array) for a scalar such as the temperature, the
curvature or a loss total.  There is no broadcasting engine: ``add`` and
``div`` accept equal shapes, a scalar paired with an array, or (``add``) a
row vector added to every row of a matrix.  A batch is always an n x d
matrix of rows.  Besides those two, ``exp``, ``matmul`` and ``take_row``,
the table holds one row per formula that a training step records, so a
whole batch, from the fusion forward to each loss, is a handful of array
nodes: the hyperboloid lift, distance, cone aperture and exterior angle
(which ``geometry`` wraps), the embedding squash, multi-head attention and
the residual MLP (which ``fusion`` wraps), the trainer's box head, and
every loss (which ``objectives`` wraps): the cross-entropy at target
columns, of scaled logits or of cosine similarities, the entailment cone
hinge, the mean smooth L1 and the weighted total of the terms.  Each has
one plain-array kernel, for training and evaluation alike, which calls
numpy and this module's private helpers directly, and a hand-derived VJP
that sums each operand's adjoint terms in the order the formula's
spelled-out ops would, so a row keeps their bits.  The ``hinge`` row is a
name only, which no op records: the benchmark's tracer looks its opcode
up.  Index operands are integers: ``indices`` rejects any other entry,
naming it, and takes a whole float for its integer.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

import numpy as np

#: Gradient container returned by ``finite_diff``: one entry per named
#: parameter, shaped exactly like its value.
GradientMap = Dict[str, np.ndarray]

_ACOSH_GUARD = 1.0 + 1e-12   # derivative of arccosh is clipped below this
_TRIG_GUARD = 1.0 - 1e-12    # |argument| cap for asin/arccos derivatives
_SINHC_SWITCH = 1e-4         # below this, sinh(t)/t uses its Taylor series
_ARCCOS_SWITCH = 1.0 - 1e-6  # above this |cos|, an angle comes from its sine


class Var:
    """Handle to one tape node: its tape, index and value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value):
        self.tape, self.idx, self.value = tape, idx, value

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"


class Tape:
    """Append-only record of primitive ops.

    One tape per differentiated computation; tapes are not shared across
    threads.  Leaves may be named; ``backward`` returns the gradients of
    the named leaves, in the order they were named.
    """

    __slots__ = ("ops", "values", "names")

    def __init__(self):
        self.ops: list = []      # (opcode, input node ids, aux)
        self.values: list = []   # float64 array or scalar per node
        self.names: dict = {}    # leaf name -> node id

    def __len__(self):
        return len(self.values)

    def _record(self, opcode: int, inputs: tuple, aux, value) -> Var:
        idx = len(self.values)
        self.ops.append((opcode, inputs, aux))
        self.values.append(value)
        return Var(self, idx, value)

    def leaf(self, value, name: str | None = None,
             check: bool = True) -> Var:
        """Register an input node, optionally named for gradient lookup.

        The value must be finite.  ``check=False`` skips that check for a
        float64 value already found finite: ``trainer.step`` checks its
        parameters as one flat vector, which the update or the state's
        constructor has already found finite.
        """
        if check:
            value = _num(value)
            if not np.isfinite(value).all():
                raise ValueError("non-finite entries in leaf"
                                 + (f" {name!r}" if name else ""))
        idx = len(self.values)
        if name is not None:
            if name in self.names:
                raise ValueError(f"duplicate leaf name: {name!r}")
            self.names[name] = idx
        self.ops.append(_LEAF_OP)
        self.values.append(value)
        return Var(self, idx, value)


def val(x):
    """Underlying numeric value of a Var, or the input unchanged."""
    return x.value if isinstance(x, Var) else x


#: A plain operand as float64 numpy: np.float64 of an array or a sequence is
#: a float64 array (the array itself if it is one), of a number a scalar.
_num = np.float64


# ---------------------------------------------------------------------------
# the op table


class _Op:
    """One primitive: its name, its value kernel and its backward.

    A backward takes the node's adjoint ``g``, its stored output ``ans``, its
    input ids, its aux, the tape values, the adjoint list and the set of
    adjoint slots whose buffer no other slot shares.
    """

    __slots__ = ("code", "name", "kernel", "backward")

    def __init__(self, name: str, kernel, backward):
        self.code = len(_OPS)
        self.name, self.kernel, self.backward = name, kernel, backward
        _OPS.append(self)
        _OP_NAMES.append(name)
        _BACKWARDS.append(backward)


# the rows, and each row's name and backward, by opcode
_OPS: list = []
_OP_NAMES: list = []
_BACKWARDS: list = []
# every leaf's tape entry: opcode 0, no inputs, no aux
_LEAF_OP = (_Op("leaf", None, None).code, (), None)


def _fit(grad, operand):
    """An adjoint summed down to a broadcast scalar or row vector."""
    if grad.ndim > operand.ndim:
        return np.add.reduce(grad, axis=0 if operand.ndim else None)
    return grad


def _composite(name: str, kernel: Callable, vjp: Callable) -> Callable:
    """Register a row for a formula of one or more operands and return its
    op, ``op(*operands, aux=None)``.

    ``kernel(*values, aux)`` returns the value and what the VJP needs of
    the forward pass; ``vjp(g, ans, saved, *values, aux)`` returns
    (operand position, adjoint) pairs in the order they accumulate, so an
    operand that the spelled-out formula reads twice takes its adjoints as
    two terms, in that formula's backward order.  An adjoint may be an
    ``(index, rows)`` pair instead of an array: ``np.add.at`` adds the rows
    at the index into the operand's adjoint, in place.  ``aux`` holds the
    formula's plain parameters.  Any operand may be plain: the node's
    inputs are its Var operands, and its aux holds each operand's node id
    (None for a plain one), every operand value, ``aux`` and the saved
    intermediates.
    """
    def backward(g, ans, inputs, aux, values, adj, owned):
        ids, args, extra, saved = aux
        for k, grad in vjp(g, ans, saved, *args, extra):
            j = ids[k]
            if j is None:
                continue
            cur = adj[j]
            if type(grad) is not tuple:
                # the first contribution is kept as it is, and may be
                # shared with other slots, so a later one makes a new array
                # (the same IEEE sum as +=)
                adj[j] = grad if cur is None else cur + grad
                continue
            # a scatter adds into a buffer that slot alone holds: zeros, or
            # a copy of a borrowed adjoint
            if cur is None:
                cur = adj[j] = np.zeros(args[k].shape)
            elif j not in owned:
                cur = adj[j] = cur.copy()
            owned.add(j)
            np.add.at(cur, *grad)

    row = _Op(name, kernel, backward)

    def op(*operands, aux=None):
        tape, args, ids = None, [], []
        for a in operands:
            if isinstance(a, Var):
                if tape is None:
                    tape = a.tape
                elif a.tape is not tape:
                    raise ValueError("operands recorded on different tapes")
                args.append(a.value)
                ids.append(a.idx)
            else:
                args.append(_num(a))
                ids.append(None)
        value, saved = row.kernel(*args, aux)
        if tape is None:
            return value
        inputs = tuple([j for j in ids if j is not None])
        return tape._record(row.code, inputs, (ids, args, aux, saved), value)

    op.__name__ = name
    return op


def _rows(op: str, *arrays: np.ndarray) -> None:
    """Reject any operand of a row-wise op that is not an n x d matrix."""
    for u in arrays:
        if u.ndim != 2:
            raise ValueError(f"{op} takes n x d matrices of rows, got shape "
                             f"{u.shape}")


def _sinhc(t):
    # removable singularity at 0: 4-term Taylor series below the switch point
    small = np.abs(t) < _SINHC_SWITCH
    safe = np.where(small, 1.0, t)
    t2 = t * t
    return np.where(small, 1.0 + t2 / 6.0 + t2 * t2 / 120.0
                    + t2 * t2 * t2 / 5040.0, np.sinh(safe) / safe)


def _sinhc_deriv(t):
    small = np.abs(t) < _SINHC_SWITCH
    safe = np.where(small, 1.0, t)
    t2 = t * t
    return np.where(small, t / 3.0 + t * t2 / 30.0 + t * t2 * t2 / 840.0,
                    np.cosh(safe) / safe - np.sinh(safe) / (safe * safe))


def _acosh_den(x):
    # 1/sqrt(x^2-1) diverges at 1; clip so matched pairs (d = 0) stay finite
    return np.sqrt(np.square(np.maximum(x, _ACOSH_GUARD)) - 1.0)


def _trig_den(x):
    # sqrt(1-x^2), the denominator of the asin and arccos derivatives
    return np.sqrt(1.0 - np.square(np.minimum(np.maximum(x, -_TRIG_GUARD),
                                              _TRIG_GUARD)))


def _norm(u):
    _rows("norm", u)
    return np.sqrt(np.add.reduce(u * u, axis=1))


def _per_norm(a, norm):
    """a / norm, with 0 where the norm is 0 (the limit gradient used)."""
    live = norm > 1e-300
    return np.where(live, a / np.where(live, norm, 1.0), 0.0)


def _row_dot(g, x):
    """The inner product of each row of g with the same row of x."""
    return np.einsum("ij,ij->i", g, x)


def _norm_vjp(g, ans, u):
    return _per_norm(g, ans)[:, None] * u


def _dot(u, v):
    _rows("dot", u, v)
    return u @ v.T


def _logsumexp(u):
    _rows("logsumexp", u)
    m = np.maximum.reduce(u, axis=1, keepdims=True)
    return m[:, 0] + np.log(np.add.reduce(np.exp(u - m), axis=1))


def _smooth_l1(a):
    # 0.5 a^2 for |a| < 1, |a| - 0.5 otherwise (threshold 1), elementwise
    return np.where(np.abs(a) < 1.0, 0.5 * a * a, np.abs(a) - 0.5)


def _smooth_l1_slope(a):
    return np.where(np.abs(a) < 1.0, a, np.sign(a))


# ---------------------------------------------------------------------------
# primitive ops

add = _composite("add", lambda a, b, aux: (a + b, None),
                 lambda g, ans, saved, a, b, aux: ((0, _fit(g, a)),
                                                   (1, _fit(g, b))))
# a / b elementwise: equal shapes, or either operand a scalar
div = _composite("div", lambda a, b, aux: (a / b, None),
                 lambda g, ans, saved, a, b, aux: (
                     (0, _fit(g / b, a)), (1, -_fit(g * a, b) / (b * b))))
# math.exp of a scalar: np.exp differs from it in the last bit for some
# arguments, and the temperature and curvature are exp of scalar leaves
exp = _composite("exp", lambda x, aux: (
    np.exp(x) if x.ndim else np.float64(math.exp(x)), None),
    lambda g, ans, saved, x, aux: ((0, g * ans),))
matmul = _composite("matmul", lambda a, b, aux: (np.matmul(a, b), None),
                    lambda g, ans, saved, a, b, aux: ((0, g @ b.T),
                                                      (1, a.T @ g)))
# the rows of a matrix at an index vector, aux; the adjoint is a scatter
_take_row = _composite("take_row", lambda m, i: (m[i], None),
                       lambda g, ans, saved, m, i: ((0, (i, g)),))
# a name only: no op records it (see the module docstring)
_Op("hinge", None, None)


# ---------------------------------------------------------------------------
# composite rows: the Lorentz-model formulas, the embedding squash,
# multi-head attention, the residual MLP, the box head and the losses
#
# Each kernel is its formula's op sequence as numpy calls on plain arrays,
# the one implementation that training (on the tape) and evaluation share;
# each VJP is hand-derived, with the guards and gates of the ops it spans.  A
# hyperboloid point's spatial norm and time sqrt(1/C + |x|^2), and the
# inner products of two batches, are plain arrays in aux: the VJPs
# differentiate through them as functions of the rows and curvatures.


def _time_vjp(gt, x, c, t):
    """Adjoints of rows x and curvature c through t = sqrt(1/c + |x|^2)."""
    w = gt / t
    return w[:, None] * x, -np.add.reduce(w) / (2.0 * c * c)


def _inner_vjp(gl, us, vs, cu, cv, ut, vt, gut, gvt):
    """Adjoints of both row batches and curvatures through the inner
    product matrix <u, v>_H (adjoint gl) and the times (adjoints gut, gvt
    beyond the inner product's)."""
    gxu, gcu = _time_vjp(gut - gl @ vt, us, cu, ut)
    gxv, gcv = _time_vjp(gvt - gl.T @ ut, vs, cv, vt)
    return gl @ vs + gxu, gl.T @ us + gxv, gcu, gcv


def _lift(x, c, aux):
    # sinh(sqrt(C) |x|) / (sqrt(C) |x|) * x, row-wise
    norm = _norm(x)
    t = np.sqrt(c) * norm
    s = _sinhc(t)
    return s[:, None] * x, (norm, t, s)


def _lift_vjp(g, ans, saved, x, c, aux):
    norm, t, s = saved
    root = np.sqrt(c)
    dt = _row_dot(g, x) * _sinhc_deriv(t)   # adjoint of each row's t
    gx = s[:, None] * g + _per_norm(dt * root, norm)[:, None] * x
    return enumerate((gx, np.add.reduce(dt * norm) / (2.0 * root)))


def _lorentz_dist(us, vs, cu, cv, aux):
    # sqrt(1/C) arccosh(-C <u, v>_H), 0 for bitwise-identical rows
    ut, vt, inner, tol = aux
    keep = np.where(np.all(us[:, None, :] == vs[None, :, :], axis=2),
                    0.0, 1.0)
    arg = -(cu * inner)
    low = (arg < 1.0 - tol) & (keep != 0.0)
    if np.any(low):
        raise ValueError("off-manifold pair: -C<u,v>_H = "
                         f"{float(np.min(arg[low]))} < 1")
    root = np.sqrt(1.0 / cu)
    return (root * np.arccosh(np.maximum(arg, 1.0)) * keep,
            (keep, arg, root))


def _lorentz_dist_vjp(g, ans, saved, us, vs, cu, cv, aux):
    ut, vt, inner, _ = aux
    keep, arg, root = saved
    ga = np.where(arg > 1.0, (g * keep) * root / _acosh_den(arg), 0.0)
    gus, gvs, gcu, gcv = _inner_vjp(-cu * ga, us, vs, cu, cv, ut, vt, 0.0,
                                    0.0)
    gcu = (gcu - np.add.reduce(ga * inner, axis=None)
           - np.add.reduce(g * ans, axis=None) / (2.0 * cu))
    return enumerate((gus, gvs, gcu, gcv))


def _cone_aperture(cs, c, aux):
    # asin(min(2K / (sqrt(C) |c_space|), 1)) of each row
    sn, k = aux
    ratio = 2.0 * k / (np.sqrt(c) * sn)
    return np.arcsin(np.minimum(ratio, 1.0)), ratio


def _cone_aperture_vjp(g, ans, ratio, cs, c, aux):
    sn, _ = aux
    # the ratio's adjoint times the ratio: d ratio / d|c_space| is
    # -ratio / |c_space|, and d ratio / dC is -ratio / (2C)
    gr = np.where(ratio < 1.0, g * ratio / _trig_den(ratio), 0.0)
    return enumerate(((-gr / (sn * sn))[:, None] * cs,
                      -np.add.reduce(gr) / (2.0 * c)))


def _cone_angle(cs, vs, cc, cv, aux):
    # arccos((v_time + c_time C <c,v>_H) / (|c_space| sqrt((C <c,v>_H)^2
    # - 1))), with angle 0 and denominator 1 where (C <c,v>_H)^2 <= 1
    sn, ct, vt, inner = aux
    ci = cc * inner
    dsq = ci * ci - 1.0
    keep = np.where(dsq > 0.0, 1.0, 0.0)
    root = np.sqrt(np.where(dsq > 0.0, dsq, 1.0))
    den = sn[:, None] * root
    q = (vt + ct[:, None] * ci) / den
    cos = np.minimum(np.maximum(q, -1.0), 1.0)
    angle = np.arccos(cos)
    # near |q| = 1, v near the line through the apex and c, arccos would
    # magnify the rounding of q: there the angle is atan2 of q and the
    # well-conditioned sine, sqrt(C) |v_space orthogonal to c_space| / root
    i, j = np.nonzero(np.abs(q) > _ARCCOS_SWITCH)
    if i.size:
        u, v = cs[i] / sn[i][:, None], vs[j]
        perp = _norm(v - _row_dot(v, u)[:, None] * u)
        angle[i, j] = np.arctan2(np.sqrt(cc) * perp / root[i, j], q[i, j])
    return angle * keep, (ci, keep, root, den, q, cos)


def _cone_angle_vjp(g, ans, saved, cs, vs, cc, cv, aux):
    sn, ct, vt, inner = aux
    ci, keep, root, den, q, cos = saved
    gq = np.where((q > -1.0) & (q < 1.0), -(g * keep) / _trig_den(cos), 0.0)
    gnum = gq / den
    gden = -gnum * q
    gci = gden * sn[:, None] * ci / root + gnum * ct[:, None]
    gcs, gvs, gcc, gcv = _inner_vjp(
        cc * gci, cs, vs, cc, cv, ct, vt,
        np.add.reduce(gnum * ci, axis=1), np.add.reduce(gnum, axis=0))
    gsn = np.add.reduce(gden * root, axis=1)
    return enumerate((gcs + (gsn / sn)[:, None] * cs, gvs,
                      gcc + np.add.reduce(gci * inner, axis=None), gcv))


def _squash(x, radius):
    # x * radius tanh(|x| / radius) / |x|, row-wise, |x| clamped to 1e-12
    norm = _norm(x)
    n = np.maximum(norm, 1e-12)
    th = np.tanh(n / radius)
    f = th * radius / n
    return f[:, None] * x, (norm, n, th, f)


def _squash_vjp(g, ans, saved, x, radius):
    norm, n, th, f = saved
    # f'(n) = (1 - th^2 - f) / n, and d|x|/dx = x / |x| where unclamped
    w = np.where(norm > 1e-12, _row_dot(g, x) * (1.0 - th * th - f)
                 / (n * n), 0.0)
    return ((0, f[:, None] * g + w[:, None] * x),)


def _cross_entropy(u, tau, aux):
    # mean over rows of logsumexp(row) - row[target] of the logits
    # u / (sign tau), aux (targets, sign): the spelled-out division, then
    # the cross-entropy.  -(u)/tau and u/(-tau) are the same bits
    targets, sign = aux
    scale = sign * tau
    logits = u / scale
    lse = _logsumexp(logits)
    per_row = lse - logits[np.arange(len(targets)), targets]
    return (np.add.reduce(per_row, axis=None) / np.float64(len(targets)),
            (logits, lse, scale))


def _cross_entropy_vjp(g, ans, saved, u, tau, aux):
    logits, lse, scale = saved
    targets, sign = aux
    # the spelled-out adjoints in backward order: the mean, the sum (each
    # row's adjoint g / n), the picked entries (a scatter into zeros, one
    # entry a row, so 0.0 - g is what the scatter's 0.0 + (-g) gives), the
    # logsumexp, then the division: tau's adjoint is sign times that of the
    # divisor sign tau
    g_row = g / np.float64(len(targets))
    gl = np.zeros(logits.shape)
    gl[np.arange(len(targets)), targets] = 0.0 - g_row
    gl = gl + g_row * np.exp(logits - lse[:, None])
    return ((0, gl / scale),
            (1, sign * (-np.add.reduce(gl * u, axis=None) / (scale * scale))))


def _cosine_cross_entropy(a, b, tau, aux):
    # the cross-entropy of cos(a_i, b_j) / tau at each row's target, aux
    # (targets, row norms of a, row norms of b): the spelled-out dot
    # product, outer product of the norms and division, then the row above
    targets, na, nb = aux
    dots = _dot(a, b)
    o = na[:, None] * nb
    sims = dots / o
    value, saved = _cross_entropy(sims, tau, (targets, 1.0))
    return value, (dots, o, sims, saved)


def _cosine_cross_entropy_vjp(g, ans, saved, a, b, tau, aux):
    targets, na, nb = aux
    dots, o, sims, ce = saved
    (_, gs), (_, gtau) = _cross_entropy_vjp(g, ans, ce, sims, tau,
                                            (targets, 1.0))
    go = -(gs * dots) / (o * o)
    gd = gs / o
    # the spelled-out adjoints in backward order: tau at the division by
    # it, then the norms of b and of a, then the dot product
    return ((2, gtau), (1, _norm_vjp(na @ go, nb, b)),
            (0, _norm_vjp(go @ nb, na, a)), (0, gd @ b), (1, gd.T @ a))


def _cone_hinge(angles, aperture, margin):
    # mean over cones i of hinge(angle_ii - A_i) + sum over j != i of
    # hinge(margin - hinge(angle_ij - A_i)), each step the op the
    # spelled-out loss records, in its order
    n = len(aperture)
    eye = np.eye(n)
    s1 = angles - aperture[:, None]
    outside = np.maximum(s1, 0.0)
    s2 = margin - outside
    terms = outside * eye + np.maximum(s2, 0.0) * (1.0 - eye)
    return np.add.reduce(terms, axis=None) / np.float64(n), (eye, s1, s2)


def _cone_hinge_vjp(g, ans, saved, angles, aperture, margin):
    eye, s1, s2 = saved
    n = len(aperture)
    # the spelled-out adjoints in backward order: the mean, the sum, the
    # margin hinge, then the diagonal; the outside hinge, then the angles
    # and the aperture broadcast across each row
    gt = g / np.float64(n)
    g_out = -(gt * (1.0 - eye) * (s2 > 0.0)) + gt * eye
    g_s1 = g_out * (s1 > 0.0)
    return (0, g_s1), (1, (-g_s1) @ np.ones(n))


def _smooth_l1_loss(pred, gt, aux):
    # mean over every entry of smooth_l1(pred - gt): the spelled-out
    # difference, smooth L1, sum and division
    diff = pred - gt
    return (np.add.reduce(_smooth_l1(diff), axis=None)
            / np.float64(diff.size), diff)


def _smooth_l1_loss_vjp(g, ans, diff, pred, gt, aux):
    gd = g / np.float64(diff.size) * _smooth_l1_slope(diff)
    return (0, gd), (1, -gd)


def _weighted_total(*args):
    # ((w_0 t_0 + w_1 t_1) + w_2 t_2) + ..., in term order; an inactive term
    # (weight None) is added as it is, an exact 0.0
    *terms, weights = args
    total = None
    for t, w in zip(terms, weights):
        part = t if w is None else t * w
        total = part if total is None else total + part
    return total, None


def _weighted_total_vjp(g, ans, saved, *args):
    *terms, weights = args
    # each term's adjoint is g times its weight; the spelled-out backward
    # reaches the last term first
    return [(k, g * weights[k]) for k in range(len(terms) - 1, -1, -1)
            if weights[k] is not None]


def _residual_mlp(a, b, w1, b1, w2, b2, aux):
    # x + tanh(x w1 + b1) w2 + b2 with x = a + b, biases on every row
    x = a + b
    hidden = np.tanh(x @ w1 + b1)
    return x + hidden @ w2 + b2, (x, hidden)


def _residual_mlp_vjp(g, ans, saved, a, b, w1, b1, w2, b2, aux):
    x, hidden = saved
    # the spelled-out adjoints in backward order: x takes the residual's
    # adjoint first, then the first layer's
    g_pre = g @ w2.T * (1.0 - hidden * hidden)
    gx = g + g_pre @ w1.T
    return enumerate((gx, gx, x.T @ g_pre, np.add.reduce(g_pre, axis=0),
                      hidden.T @ g, np.add.reduce(g, axis=0)))


#: the near (x1, y1) and far (x2, y2) corner columns of a box row
_NEAR_CORNER = np.eye(2, 4)
_FAR_CORNER = np.eye(2, 4, 2)


def _box_head(x, w, b, eps):
    # u = eps + (1 - 2 eps) sigmoid(x w + b) per row, read as a start u[:2]
    # and a size u[2:]: (x1, y1) = start (1 - size), (x2, y2) = (x1, y1) +
    # size.  Each step is the op the spelled-out head records, in its order
    s = 1.0 / (1.0 + np.exp(-(x @ w + b)))
    u = s * (1.0 - 2.0 * eps) + eps
    size, start = u[:, 2:4], u[:, 0:2]
    rest = 1.0 - size
    near = start * rest
    return (near @ _NEAR_CORNER + (near + size) @ _FAR_CORNER,
            (s, start, rest))


def _box_head_vjp(g, ans, saved, x, w, b, eps):
    s, start, rest = saved
    # the spelled-out head's adjoints in its backward order: (x1, y1) and
    # (x2, y2) both reach the near corner, the size through (x2, y2) and
    # 1 - size; start and size go back into one buffer shaped like u
    g_far = g @ _FAR_CORNER.T
    g_near = g_far + g @ _NEAR_CORNER.T
    g_size = g_far + -(g_near * start)
    gu = np.zeros(s.shape)
    np.add(gu[:, 0:2], g_near * rest, out=gu[:, 0:2])
    np.add(gu[:, 2:4], g_size, out=gu[:, 2:4])
    graw = gu * (1.0 - 2.0 * eps) * s * (1.0 - s)
    return enumerate((graw @ w.T, x.T @ graw, np.add.reduce(graw, axis=0)))


def _heads(m, heads):
    # rows x d_h -> heads x rows x d_h/heads: head h is columns h*hd:(h+1)*hd
    return m.reshape(m.shape[0], heads, -1).transpose(1, 0, 2)


def _unheads(m):
    # heads x rows x d_h/heads -> rows x d_h, the inverse of _heads
    return m.transpose(1, 0, 2).reshape(m.shape[1], -1)


def _attention(visual, text, w_q, w_k, w_v, w_out, aux):
    # sum over heads of softmax(q_h k_h^T / sqrt(d_h) + mask) v_h w_out_h,
    # every head at once; the softmax runs in place in one heads x n x L
    # buffer, the largest array of an evaluation-size batch
    mask, heads = aux
    q = _heads(visual @ w_q, heads)
    k = _heads(text @ w_k, heads)
    v = _heads(text @ w_v, heads)
    attn = np.matmul(q, k.transpose(0, 2, 1))
    attn *= 1.0 / math.sqrt(w_q.shape[1])
    attn += mask
    attn -= np.maximum.reduce(attn, axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=2, keepdims=True)
    mixed = np.matmul(attn, v)
    out = np.matmul(mixed, w_out.reshape(heads, -1, w_out.shape[1]))
    return np.add.reduce(out, axis=0), (q, k, v, attn, mixed)


def _attention_vjp(g, ans, saved, visual, text, w_q, w_k, w_v, w_out, aux):
    q, k, v, attn, mixed = saved
    heads = aux[1]
    gmixed = np.matmul(g, w_out.reshape(heads, -1, w_out.shape[1])
                       .transpose(0, 2, 1))
    gv = _unheads(np.matmul(attn.transpose(0, 2, 1), gmixed))
    gs = np.matmul(gmixed, v.transpose(0, 2, 1))
    # the softmax VJP, then the 1/sqrt(d_h) scale; the mask passes it
    gs -= np.add.reduce(gs * attn, axis=2, keepdims=True)
    gs *= attn
    gs *= 1.0 / math.sqrt(w_q.shape[1])
    gq = _unheads(np.matmul(gs, k))
    gk = _unheads(np.matmul(gs.transpose(0, 2, 1), q))
    return enumerate((
        gq @ w_q.T, gv @ w_v.T + gk @ w_k.T, visual.T @ gq, text.T @ gk,
        text.T @ gv,
        np.matmul(mixed.transpose(0, 2, 1), g).reshape(w_out.shape)))


# the spatial part of the lift of each row to the hyperboloid
lift = _composite("lift", _lift, _lift_vjp)
# geodesic distance of every row pair; aux (u time, v time, <u, v>_H,
# off-manifold tolerance)
lorentz_dist = _composite("lorentz_dist", _lorentz_dist, _lorentz_dist_vjp)
# half aperture of the cone at each row; aux (spatial norms, K)
cone_aperture = _composite("cone_aperture", _cone_aperture,
                           _cone_aperture_vjp)
# exterior angle of every row pair; aux (c norms, c time, v time, <c, v>_H)
cone_angle = _composite("cone_angle", _cone_angle, _cone_angle_vjp)
# direction-preserving row norm bound; aux the radius
squash = _composite("squash", _squash, _squash_vjp)
# multi-head attention from visual rows over text rows, operands (visual,
# text, w_q, w_k, w_v, w_out); aux (n x L additive mask, head count)
attention = _composite("attention", _attention, _attention_vjp)

# mean over the rows of a matrix u of -log softmax(row / (sign tau)) at
# its target column, operands (u, tau); aux (the column of each row, an
# intp vector, and the sign, 1.0 or -1.0).  Its two adjoint terms sum in
# the spelled-out order when u feeds nothing else
cross_entropy = _composite("cross_entropy", _cross_entropy,
                           _cross_entropy_vjp)
# the same cross-entropy of cos(a_i, b_j) / tau over the rows of two
# matrices, operands (a, b, tau); aux (targets, row norms of a, row norms
# of b)
cosine_cross_entropy = _composite("cosine_cross_entropy",
                                  _cosine_cross_entropy,
                                  _cosine_cross_entropy_vjp)
# the entailment hinge of an n x n matrix of exterior angles (cone i, row
# j) against the n half apertures, operands (angles, apertures); aux the
# margin
cone_hinge = _composite("cone_hinge", _cone_hinge, _cone_hinge_vjp)
# mean smooth L1 over every entry of the difference of two equally shaped
# arrays, operands (pred, target)
smooth_l1_loss = _composite("smooth_l1_loss", _smooth_l1_loss,
                            _smooth_l1_loss_vjp)
# the sum of weighted scalar terms in order; aux one weight per term, None
# for an inactive term passed as a plain 0.0
weighted_total = _composite("weighted_total", _weighted_total,
                            _weighted_total_vjp)
# the residual fusion MLP of two n x d summands, operands (a, b, w1, b1,
# w2, b2): x + tanh(x w1 + b1) w2 + b2 with x = a + b
residual_mlp = _composite("residual_mlp", _residual_mlp, _residual_mlp_vjp)
# the sigmoid corner-size box head, operands (rows, weight, bias); aux
# the margin eps that keeps every box's width and height above zero
box_head = _composite("box_head", _box_head, _box_head_vjp)


def indices(idx, what: str) -> np.ndarray:
    """An array of integer indices as intp.  A whole number in a float
    array stands for its integer; any other entry is rejected, naming the
    first as ``{what} entry {position}``.  An integer array is not
    scanned."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        whole = (np.isfinite(idx) & (np.trunc(idx) == idx)
                 if idx.dtype.kind == "f" else np.zeros(idx.shape, bool))
        if not whole.all():
            j = int(np.argmin(whole))
            raise ValueError(f"{what} entry {j} is {idx.flat[j]}, not an "
                             "integer index")
    return idx.astype(np.intp, copy=False)


def take_row(m, i: Sequence[int]):
    """The rows of a matrix at a non-empty sequence of indices, as a matrix
    (an index may repeat)."""
    i = indices(i, "take_row index")
    if np.ndim(val(m)) != 2 or i.ndim != 1 or not i.size:
        raise ValueError("take_row takes an n x d matrix and a non-empty "
                         f"sequence of row indices, got shapes "
                         f"{np.shape(val(m))} and {i.shape}")
    return _take_row(m, aux=i)


# ---------------------------------------------------------------------------
# backward


def backward(tape: Tape, output: Var) -> np.ndarray:
    """Reverse-accumulate d(output)/d(leaf) for every named leaf.

    The traversal order is fixed (reverse node order), so two backward
    passes over the same tape produce bit-identical gradients.  Raises if
    the output is not a scalar recorded on this tape, or if a gradient is
    not finite; that error names the node, by index and row, whose VJP
    first turned a finite adjoint into non-finite ones.  Returns one new
    vector, the gradients flattened and laid end to end in the order their
    leaves were named (``tape.names``), the one array its finiteness check
    reads.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise ValueError("output is not a node of this tape")
    if output.value.ndim:
        raise ValueError("backward requires a scalar output node")
    adj: list = [None] * len(tape.values)
    adj[output.idx] = np.float64(1.0)
    owned: set = set()
    ops = tape.ops
    values = tape.values
    table = _BACKWARDS
    for i in range(output.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        opcode, inputs, aux = ops[i]
        if opcode:   # leaves, opcode 0, have no operands
            table[opcode](g, values[i], inputs, aux, values, adj, owned)
    grads = [np.zeros_like(values[j]) if adj[j] is None else adj[j]
             for j in tape.names.values()]
    # one check over every gradient at once; only a failure walks the tape
    vector = np.concatenate(grads, axis=None) if grads else np.empty(0)
    if not np.isfinite(vector).all():
        raise ArithmeticError(_non_finite_origin(tape, output))
    return vector


def _non_finite_origin(tape: Tape, output: Var) -> str:
    """Walk the tape in reverse again, checking the adjoints each row
    makes: the first row whose VJP turns its finite adjoint into
    non-finite ones is where a non-finite gradient came from."""
    adj: list = [None] * len(tape.values)
    adj[output.idx] = np.float64(1.0)
    owned: set = set()
    for i in range(output.idx, -1, -1):
        opcode, inputs, aux = tape.ops[i]
        if adj[i] is None or not opcode:
            continue
        _BACKWARDS[opcode](adj[i], tape.values[i], inputs, aux, tape.values,
                           adj, owned)
        if not all(adj[j] is None or np.isfinite(adj[j]).all()
                   for j in inputs):
            return (f"non-finite gradient from node {i} "
                    f"(op {_OPS[opcode].name})")
    return "non-finite gradient"


def finite_diff(f: Callable[[dict], float], params: dict,
                step: float = 1e-6) -> GradientMap:
    """Central-difference gradient of ``f`` at ``params``.

    ``f`` maps a dict of plain numbers/arrays to a scalar; every coordinate
    is perturbed by ``+-step`` (a scalar parameter is probed as a 0-d
    array).  Non-finite values at any probe point are reported with the
    offending parameter name.
    """
    grads: GradientMap = {}
    for name in params:
        base = np.asarray(params[name], dtype=np.float64)
        g = np.zeros(base.shape)
        for idx in np.ndindex(base.shape):
            hi, lo = base.copy(), base.copy()
            hi[idx] += step
            lo[idx] -= step
            fh = float(f({**params, name: hi}))
            fl = float(f({**params, name: lo}))
            if not (math.isfinite(fh) and math.isfinite(fl)):
                raise ValueError(
                    f"non-finite probe for parameter {name!r} at {idx}")
            g[idx] = (fh - fl) / (2.0 * step)
        grads[name] = g
    return grads
