"""Reverse-mode differentiation over scalars and small dense arrays.

Primitive operations are recorded on an append-only :class:`Tape`; a node may
only reference earlier nodes, so the graph is acyclic by construction.
``backward`` walks the tape in reverse with a fixed accumulation order, which
makes repeated backward passes bit-identical.  Each vector-Jacobian product
is handed its node's stored output (``exp``, ``sqrt``, ``tanh``, ``sigmoid``,
``norm``, ``logsumexp`` and ``softmax`` read it instead of recomputing it).
Accumulation never writes into an array it does not own: an adjoint's first
contribution is kept as it is, possibly shared with other adjoints, each
later one makes a new sum, and the scatter adjoints of ``take_row``,
``cols`` and ``pick`` copy a shared adjoint before adding into it.

Every public op in this module is polymorphic: called with :class:`Var`
arguments it records a tape node, called with plain floats / numpy arrays it
just computes the value.  That gives two independent evaluation routes for the
same formula, which the finite-difference checker exploits.  ``Var`` has no
arithmetic operators: every recorded node comes from an explicit op call.

Scalars are kept as Python floats, vectors and matrices as float64 numpy
arrays.  There is deliberately no broadcasting engine: binary ops accept equal
shapes, a scalar paired with an array, or (``add``, ``sub``) a row vector
added to every row of a matrix.  The unary ops work elementwise on scalars
and arrays alike; the temperature, the curvature and the loss totals are
scalars.  A batch is always an n x d matrix of rows: ``norm``, ``dot``,
``logsumexp`` and ``softmax`` work row-wise on it and reject any other rank,
naming the shape.  With them and ``matmul``, ``scale_rows``, ``outer``,
``pick``, ``sum``, ``cols`` and ``take_row`` of a sequence of rows, a whole
batch, from the fusion forward to each loss, is a handful of array nodes
instead of one node per row or pair.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Union

import numpy as np

Value = Union[float, np.ndarray]
#: Gradient container returned by ``backward``/``finite_diff``: one entry per
#: named leaf, shaped exactly like the leaf value.
GradientMap = Dict[str, Value]

_ACOSH_GUARD = 1.0 + 1e-12   # derivative of arccosh is clipped below this
_TRIG_GUARD = 1.0 - 1e-12    # |argument| cap for asin/arccos derivatives
_SINHC_SWITCH = 1e-4         # below this, sinh(t)/t uses its Taylor series

# ---------------------------------------------------------------------------
# opcodes

(
    _LEAF, _ADD, _ADDC, _SUB, _NEG, _MUL, _MULC, _DIV, _DIVC, _CDIV, _EXP,
    _SQRT, _SINHC, _TANH, _SIGMOID, _ARCCOSH, _ASIN, _ARCCOS, _CLAMP_MIN,
    _CLAMP_MAX, _HINGE, _SMOOTH_L1, _DOT, _NORM, _MATMUL, _TAKE_ROW, _COLS,
    _LOGSUMEXP, _SOFTMAX, _SCALE_ROWS, _OUTER, _SUM, _PICK,
) = range(33)

_OP_NAMES = [
    "leaf", "add", "addc", "sub", "neg", "mul", "mulc", "div", "divc",
    "cdiv", "exp", "sqrt", "sinhc", "tanh", "sigmoid", "arccosh", "asin",
    "arccos", "clamp_min", "clamp_max", "hinge", "smooth_l1", "dot", "norm",
    "matmul", "take_row", "cols", "logsumexp", "softmax", "scale_rows",
    "outer", "sum", "pick",
]


class Var:
    """Handle to one tape node: its tape, index and value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: Value):
        self.tape = tape
        self.idx = idx
        self.value = value

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"


class Tape:
    """Append-only record of primitive ops.

    One tape per differentiated computation; tapes are not shared across
    threads.  Leaves may be named, and named leaves are the keys of the
    GradientMap produced by ``backward``.
    """

    __slots__ = ("ops", "values", "names")

    def __init__(self):
        self.ops: list = []      # (opcode, input node ids, aux)
        self.values: list = []   # float | ndarray per node
        self.names: dict = {}    # node id -> leaf name

    def __len__(self):
        return len(self.values)

    def _record(self, opcode: int, inputs: tuple, aux, value: Value) -> Var:
        idx = len(self.values)
        self.ops.append((opcode, inputs, aux))
        self.values.append(value)
        return Var(self, idx, value)

    def leaf(self, value, name: str | None = None) -> Var:
        """Register an input node, optionally named for gradient lookup."""
        value = as_value(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"non-finite leaf value: {value!r}")
        elif not np.isfinite(value).all():
            raise ValueError("non-finite entries in leaf array")
        if name is not None and name in self.names.values():
            raise ValueError(f"duplicate leaf name: {name!r}")
        var = self._record(_LEAF, (), None, value)
        if name is not None:
            self.names[var.idx] = name
        return var

    def const(self, value) -> Var:
        """Register an unnamed input that gradients are not reported for."""
        return self.leaf(value, None)


def as_value(x) -> Value:
    """Normalize a plain input: numbers to float, arrays to float64."""
    if isinstance(x, Var):
        raise TypeError("as_value expects a plain number or array")
    if isinstance(x, np.ndarray):
        return np.asarray(x, dtype=np.float64)
    if np.isscalar(x):
        return float(x)
    return np.asarray(x, dtype=np.float64)


def val(x) -> Value:
    """Underlying numeric value of a Var, or the input unchanged."""
    return x.value if isinstance(x, Var) else x


def _tape_of(*args) -> Tape:
    tape = None
    for a in args:
        if isinstance(a, Var):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("operands recorded on different tapes")
    if tape is None:
        raise ValueError("no Var operand")
    return tape


# ---------------------------------------------------------------------------
# shared value kernels (used by both the tape route and the plain route)
#
# Elementwise kernels take a float or an array, and return the same kind.


def _elementwise(scalar_fn: Callable, array_fn: Callable) -> Callable:
    def kernel(x):
        return scalar_fn(x) if isinstance(x, float) else array_fn(x)
    return kernel


_exp_value = _elementwise(math.exp, np.exp)
_sqrt_value = _elementwise(math.sqrt, np.sqrt)
_tanh_value = _elementwise(math.tanh, np.tanh)
_arccosh_value = _elementwise(math.acosh, np.arccosh)
_asin_value = _elementwise(math.asin, np.arcsin)
_arccos_value = _elementwise(math.acos, np.arccos)


def _clamp_min_value(x: Value, lo: float) -> Value:
    return max(x, lo) if isinstance(x, float) else np.maximum(x, lo)


def _clamp_max_value(x: Value, hi: float) -> Value:
    return min(x, hi) if isinstance(x, float) else np.minimum(x, hi)


def _sigmoid_value(x: Value) -> Value:
    if isinstance(x, float):
        return 1.0 / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + np.exp(-x))


def _sinhc_value(t: Value) -> Value:
    # removable singularity at 0: 4-term Taylor series below the switch point
    a = np.asarray(t)
    small = np.abs(a) < _SINHC_SWITCH
    safe = np.where(small, 1.0, a)
    t2 = a * a
    out = np.where(small, 1.0 + t2 / 6.0 + t2 * t2 / 120.0
                   + t2 * t2 * t2 / 5040.0, np.sinh(safe) / safe)
    return float(out) if isinstance(t, float) else out


def _sinhc_deriv(t: Value) -> Value:
    a = np.asarray(t)
    small = np.abs(a) < _SINHC_SWITCH
    safe = np.where(small, 1.0, a)
    t2 = a * a
    out = np.where(small, a / 3.0 + a * t2 / 30.0 + a * t2 * t2 / 840.0,
                   np.cosh(safe) / safe - np.sinh(safe) / (safe * safe))
    return float(out) if isinstance(t, float) else out


_smooth_l1_value = _elementwise(
    lambda a: 0.5 * a * a if abs(a) < 1.0 else abs(a) - 0.5,
    lambda a: np.where(np.abs(a) < 1.0, 0.5 * a * a, np.abs(a) - 0.5))
_smooth_l1_deriv = _elementwise(
    lambda a: a if abs(a) < 1.0 else math.copysign(1.0, a),
    lambda a: np.where(np.abs(a) < 1.0, a, np.sign(a)))


def _rows(op: str, *arrays: np.ndarray) -> None:
    """Reject any operand of a row-wise op that is not an n x d matrix."""
    for u in arrays:
        if u.ndim != 2:
            raise ValueError(f"{op} takes n x d matrices of rows, got shape "
                             f"{u.shape}")


def _norm_value(u: np.ndarray) -> np.ndarray:
    _rows("norm", u)
    return np.sqrt(np.add.reduce(u * u, axis=1))


def _dot_value(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    _rows("dot", u, v)
    return u @ v.T


def _logsumexp_value(u: np.ndarray) -> np.ndarray:
    _rows("logsumexp", u)
    m = np.maximum.reduce(u, axis=1, keepdims=True)
    return m[:, 0] + np.log(np.add.reduce(np.exp(u - m), axis=1))


def _softmax_value(u: np.ndarray) -> np.ndarray:
    _rows("softmax", u)
    e = np.exp(u - np.maximum.reduce(u, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b):
    if isinstance(a, Var):
        if isinstance(b, Var):
            t = _tape_of(a, b)
            return t._record(_ADD, (a.idx, b.idx), None, a.value + b.value)
        c = as_value(b)
        return a.tape._record(_ADDC, (a.idx,), c, a.value + c)
    if isinstance(b, Var):
        c = as_value(a)
        return b.tape._record(_ADDC, (b.idx,), c, b.value + c)
    return as_value(a) + as_value(b)


def sub(a, b):
    if isinstance(a, Var):
        if isinstance(b, Var):
            t = _tape_of(a, b)
            return t._record(_SUB, (a.idx, b.idx), None, a.value - b.value)
        return add(a, -as_value(b))
    if isinstance(b, Var):
        return add(neg(b), as_value(a))
    return as_value(a) - as_value(b)


def neg(a):
    if isinstance(a, Var):
        return a.tape._record(_NEG, (a.idx,), None, -a.value)
    return -as_value(a)


def mul(a, b):
    if isinstance(a, Var):
        if isinstance(b, Var):
            t = _tape_of(a, b)
            return t._record(_MUL, (a.idx, b.idx), None, a.value * b.value)
        c = as_value(b)
        return a.tape._record(_MULC, (a.idx,), c, a.value * c)
    if isinstance(b, Var):
        c = as_value(a)
        return b.tape._record(_MULC, (b.idx,), c, b.value * c)
    return as_value(a) * as_value(b)


def div(a, b):
    """a / b elementwise: equal shapes, or either operand a scalar."""
    if isinstance(b, Var):
        if isinstance(a, Var):
            t = _tape_of(a, b)
            return t._record(_DIV, (a.idx, b.idx), None, a.value / b.value)
        c = as_value(a)
        return b.tape._record(_CDIV, (b.idx,), c, c / b.value)
    bb = as_value(b)
    if isinstance(a, Var):
        return a.tape._record(_DIVC, (a.idx,), bb, a.value / bb)
    return as_value(a) / bb


def _unary(opcode: int, fn: Callable, a):
    if isinstance(a, Var):
        return a.tape._record(opcode, (a.idx,), None, fn(a.value))
    return fn(as_value(a))


def exp(a):
    return _unary(_EXP, _exp_value, a)


def sqrt(a):
    return _unary(_SQRT, _sqrt_value, a)


def sinhc(a):
    """sinh(t)/t, series-expanded near t = 0."""
    return _unary(_SINHC, _sinhc_value, a)


def tanh(a):
    return _unary(_TANH, _tanh_value, a)


def sigmoid(a):
    return _unary(_SIGMOID, _sigmoid_value, a)


def arccosh(a):
    return _unary(_ARCCOSH, _arccosh_value, a)


def asin(a):
    return _unary(_ASIN, _asin_value, a)


def arccos(a):
    return _unary(_ARCCOS, _arccos_value, a)


def clamp_min(a, lo):
    lo = float(lo)
    if isinstance(a, Var):
        return a.tape._record(_CLAMP_MIN, (a.idx,), lo,
                              _clamp_min_value(a.value, lo))
    return _clamp_min_value(as_value(a), lo)


def clamp_max(a, hi):
    hi = float(hi)
    if isinstance(a, Var):
        return a.tape._record(_CLAMP_MAX, (a.idx,), hi,
                              _clamp_max_value(a.value, hi))
    return _clamp_max_value(as_value(a), hi)


def hinge(a):
    """max(0, a); subgradient 0 at the kink."""
    if isinstance(a, Var):
        return a.tape._record(_HINGE, (a.idx,), None,
                              _clamp_min_value(a.value, 0.0))
    return _clamp_min_value(as_value(a), 0.0)


def smooth_l1(a):
    """0.5 a^2 for |a| < 1, |a| - 0.5 otherwise (threshold 1), elementwise."""
    return _unary(_SMOOTH_L1, _smooth_l1_value, a)


def _binary(opcode: int, fn: Callable, a, b):
    """Record a two-operand op, registering plain operands as constants."""
    if isinstance(a, Var) or isinstance(b, Var):
        t = _tape_of(a, b)
        aa = a if isinstance(a, Var) else t.const(a)
        bb = b if isinstance(b, Var) else t.const(b)
        return t._record(opcode, (aa.idx, bb.idx), None,
                         fn(aa.value, bb.value))
    return fn(as_value(a), as_value(b))


def dot(u, v):
    """Inner product of every row of ``u`` with every row of ``v``
    (``u @ v.T``)."""
    return _binary(_DOT, _dot_value, u, v)


def norm(u):
    """The vector of row norms of a matrix."""
    return _unary(_NORM, _norm_value, u)


def matmul(a, b):
    return _binary(_MATMUL, np.matmul, a, b)


def scale_rows(s, m):
    """Row i of matrix ``m`` times ``s[i]``."""
    return _binary(_SCALE_ROWS, lambda a, b: a[:, None] * b, s, m)


def outer(a, b):
    """Outer product of two vectors (n x m)."""
    return _binary(_OUTER, np.outer, a, b)


def sum(u):  # shadows the builtin, which this module does not use
    """Sum of all entries of an array, as a scalar."""
    return _unary(_SUM, lambda x: float(np.add.reduce(x, axis=None)), u)


def pick(m, idx: Sequence[int]):
    """Entry ``idx[i]`` of row i of matrix ``m``, for every row: a vector."""
    cols = np.asarray(idx, dtype=np.intp)
    rows = val(m).shape[0]
    if cols.shape != (rows,):
        raise ValueError(f"pick needs one column index per row ({rows})")
    if isinstance(m, Var):
        return m.tape._record(_PICK, (m.idx,), cols,
                              m.value[np.arange(rows), cols])
    return as_value(m)[np.arange(rows), cols]


def take_row(m, i: Sequence[int]):
    """The rows of a matrix at a non-empty sequence of indices, as a matrix
    (an index may repeat)."""
    i = np.asarray(i, dtype=np.intp)
    if np.ndim(val(m)) != 2 or i.ndim != 1 or not i.size:
        raise ValueError("take_row takes an n x d matrix and a non-empty "
                         f"sequence of row indices, got shapes "
                         f"{np.shape(val(m))} and {i.shape}")
    if isinstance(m, Var):
        return m.tape._record(_TAKE_ROW, (m.idx,), i, m.value[i].copy())
    return as_value(m)[i].copy()


def cols(m, a: int, b: int):
    """Column slice of a matrix."""
    if isinstance(m, Var):
        return m.tape._record(_COLS, (m.idx,), (int(a), int(b)),
                              m.value[:, a:b].copy())
    return as_value(m)[:, a:b].copy()


def logsumexp(u):
    """Stable log(sum(exp(row))) of each row of a matrix."""
    return _unary(_LOGSUMEXP, _logsumexp_value, u)


def softmax(u):
    """Softmax of each row of a matrix."""
    return _unary(_SOFTMAX, _softmax_value, u)


# ---------------------------------------------------------------------------
# backward
#
# A vector-Jacobian product takes the node's adjoint ``g``, its stored
# output ``ans``, its input ids, its aux, the tape values, the adjoint list
# and the set of adjoint slots whose buffer no other slot shares.


def _acc(adj, j, contrib):
    # the first contribution is kept as it is, and may be shared with other
    # slots, so a later one makes a new array (the same IEEE sum as +=)
    cur = adj[j]
    adj[j] = contrib if cur is None else cur + contrib


def _acc_into(adj, owned, j, shape, write):
    """Accumulate through the in-place ``write`` into a buffer of ``shape``
    that slot ``j`` alone holds: a zeros buffer, or a copy of a borrowed
    adjoint."""
    cur = adj[j]
    if cur is None:
        cur = adj[j] = np.zeros(shape)
    elif j not in owned:
        cur = adj[j] = cur.copy()
    owned.add(j)
    write(cur)


def _fit(grad: Value, operand: Value) -> Value:
    """An adjoint summed down to an operand that was broadcast: a scalar,
    or a row vector over the rows of a matrix."""
    if isinstance(operand, np.ndarray):
        if grad.ndim > operand.ndim:
            return np.add.reduce(grad, axis=0)
        return grad
    if isinstance(grad, np.ndarray):
        return float(np.add.reduce(grad, axis=None))
    return grad


def _bw_add(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], _fit(g, values[inputs[0]]))
    _acc(adj, inputs[1], _fit(g, values[inputs[1]]))


def _bw_addc(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], _fit(g, values[inputs[0]]))


def _bw_sub(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], _fit(g, values[inputs[0]]))
    _acc(adj, inputs[1], -_fit(g, values[inputs[1]]))


def _bw_neg(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], -g)


def _bw_mul(g, ans, inputs, aux, values, adj, owned):
    ia, ib = inputs
    va, vb = values[ia], values[ib]
    _acc(adj, ia, _fit(g * vb, va))
    _acc(adj, ib, _fit(g * va, vb))


def _bw_mulc(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], _fit(g * aux, values[inputs[0]]))


def _bw_div(g, ans, inputs, aux, values, adj, owned):
    ia, ib = inputs
    va, vb = values[ia], values[ib]
    _acc(adj, ia, _fit(g / vb, va))
    _acc(adj, ib, -_fit(g * va, vb) / (vb * vb))


def _bw_divc(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], _fit(g / aux, values[inputs[0]]))


def _bw_cdiv(g, ans, inputs, aux, values, adj, owned):
    vb = values[inputs[0]]
    _acc(adj, inputs[0], -_fit(g * aux, vb) / (vb * vb))


def _bw_exp(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g * ans)


def _bw_sqrt(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g / (2.0 * _clamp_min_value(ans, 1e-150)))


def _bw_sinhc(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g * _sinhc_deriv(values[inputs[0]]))


def _bw_tanh(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g * (1.0 - ans * ans))


def _bw_sigmoid(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g * ans * (1.0 - ans))


def _bw_arccosh(g, ans, inputs, aux, values, adj, owned):
    # 1/sqrt(x^2-1) diverges at 1; clip so matched pairs (d = 0) stay finite
    x = _clamp_min_value(values[inputs[0]], _ACOSH_GUARD)
    _acc(adj, inputs[0], g / _sqrt_value(x * x - 1.0))


def _trig_clip(x: Value) -> Value:
    return _clamp_max_value(_clamp_min_value(x, -_TRIG_GUARD), _TRIG_GUARD)


def _bw_asin(g, ans, inputs, aux, values, adj, owned):
    x = _trig_clip(values[inputs[0]])
    _acc(adj, inputs[0], g / _sqrt_value(1.0 - x * x))


def _bw_arccos(g, ans, inputs, aux, values, adj, owned):
    x = _trig_clip(values[inputs[0]])
    _acc(adj, inputs[0], -g / _sqrt_value(1.0 - x * x))


def _gate(g, inputs, adj, active):
    """Pass the adjoint where ``active`` holds (a bool or a bool array)."""
    if isinstance(active, np.ndarray):
        _acc(adj, inputs[0], g * active)
    elif active:
        _acc(adj, inputs[0], g)


def _bw_clamp_min(g, ans, inputs, aux, values, adj, owned):
    # the boundary takes the inactive side: zero
    _gate(g, inputs, adj, values[inputs[0]] > aux)


def _bw_clamp_max(g, ans, inputs, aux, values, adj, owned):
    _gate(g, inputs, adj, values[inputs[0]] < aux)


def _bw_hinge(g, ans, inputs, aux, values, adj, owned):
    _gate(g, inputs, adj, values[inputs[0]] > 0.0)


def _bw_smooth_l1(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g * _smooth_l1_deriv(values[inputs[0]]))


def _bw_dot(g, ans, inputs, aux, values, adj, owned):
    ia, ib = inputs
    _acc(adj, ia, g @ values[ib])
    _acc(adj, ib, g.T @ values[ia])


def _bw_norm(g, ans, inputs, aux, values, adj, owned):
    # at a zero row the limit gradient used is 0
    live = ans > 1e-300
    coef = np.where(live, g / np.where(live, ans, 1.0), 0.0)
    _acc(adj, inputs[0], coef[:, None] * values[inputs[0]])


def _bw_matmul(g, ans, inputs, aux, values, adj, owned):
    ia, ib = inputs
    _acc(adj, ia, g @ values[ib].T)
    _acc(adj, ib, values[ia].T @ g)


def _bw_scale_rows(g, ans, inputs, aux, values, adj, owned):
    i_s, i_m = inputs
    _acc(adj, i_s, np.einsum("ij,ij->i", g, values[i_m]))
    _acc(adj, i_m, values[i_s][:, None] * g)


def _bw_outer(g, ans, inputs, aux, values, adj, owned):
    ia, ib = inputs
    _acc(adj, ia, g @ values[ib])
    _acc(adj, ib, values[ia] @ g)


def _bw_sum(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], np.full(values[inputs[0]].shape, g))


def _bw_pick(g, ans, inputs, aux, values, adj, owned):
    shape = values[inputs[0]].shape

    def write(buf):
        buf[np.arange(shape[0]), aux] += g

    _acc_into(adj, owned, inputs[0], shape, write)


def _bw_take_row(g, ans, inputs, aux, values, adj, owned):
    def write(buf):
        np.add.at(buf, aux, g)   # repeated rows accumulate

    _acc_into(adj, owned, inputs[0], values[inputs[0]].shape, write)


def _bw_cols(g, ans, inputs, aux, values, adj, owned):
    a, b = aux

    def write(buf):
        buf[:, a:b] += g

    _acc_into(adj, owned, inputs[0], values[inputs[0]].shape, write)


def _bw_logsumexp(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0], g[:, None] * np.exp(values[inputs[0]] - ans[:, None]))


def _bw_softmax(g, ans, inputs, aux, values, adj, owned):
    _acc(adj, inputs[0],
         ans * (g - np.add.reduce(g * ans, axis=1, keepdims=True)))


_BACKWARD = [
    None, _bw_add, _bw_addc, _bw_sub, _bw_neg, _bw_mul, _bw_mulc, _bw_div,
    _bw_divc, _bw_cdiv, _bw_exp, _bw_sqrt, _bw_sinhc, _bw_tanh, _bw_sigmoid,
    _bw_arccosh, _bw_asin, _bw_arccos, _bw_clamp_min, _bw_clamp_max,
    _bw_hinge, _bw_smooth_l1, _bw_dot, _bw_norm, _bw_matmul, _bw_take_row,
    _bw_cols, _bw_logsumexp, _bw_softmax, _bw_scale_rows, _bw_outer, _bw_sum,
    _bw_pick,
]


def _zeros_like(v: Value) -> Value:
    return 0.0 if isinstance(v, float) else np.zeros(v.shape)


def _finite(v: Value) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    return bool(np.isfinite(v).all())


def backward(tape: Tape, output: Var) -> GradientMap:
    """Reverse-accumulate d(output)/d(leaf) for every named leaf.

    The traversal order is fixed (reverse node order), so two backward
    passes over the same tape produce bit-identical gradients.  Raises if
    the output is not a scalar recorded on this tape, or if a non-finite
    adjoint appears (the error names the originating node).  Two leaves
    may be handed the same gradient array: treat the arrays as read-only.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise ValueError("output is not a node of this tape")
    if not isinstance(output.value, float):
        raise ValueError("backward requires a scalar output node")
    adj: list = [None] * len(tape.values)
    adj[output.idx] = 1.0
    owned: set = set()
    ops = tape.ops
    values = tape.values
    table = _BACKWARD
    for i in range(output.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        opcode, inputs, aux = ops[i]
        if opcode == _LEAF:
            continue
        table[opcode](g, values[i], inputs, aux, values, adj, owned)
    grads: GradientMap = {}
    bad = False
    for idx, name in tape.names.items():
        g = adj[idx]
        if g is None:
            g = _zeros_like(values[idx])
        elif not _finite(g):
            bad = True
        grads[name] = g
    if bad:
        for i in range(output.idx + 1):
            if adj[i] is not None and not _finite(adj[i]):
                opcode = tape.ops[i][0]
                raise ArithmeticError(
                    f"non-finite gradient at node {i} (op {_OP_NAMES[opcode]})"
                )
    return grads


def finite_diff(f: Callable[[dict], float], params: dict,
                step: float = 1e-6) -> GradientMap:
    """Central-difference gradient of ``f`` at ``params``.

    ``f`` maps a dict of plain floats/arrays to a scalar; every coordinate
    is perturbed by ``+-step``.  Non-finite values at any probe point are
    reported with the offending parameter name.
    """
    grads: GradientMap = {}
    for name in params:
        base = params[name]
        if isinstance(base, np.ndarray):
            g = np.zeros(base.shape)
            for idx in np.ndindex(base.shape):
                hi = dict(params)
                arr = base.copy()
                arr[idx] += step
                hi[name] = arr
                lo = dict(params)
                arr = base.copy()
                arr[idx] -= step
                lo[name] = arr
                fh, fl = float(f(hi)), float(f(lo))
                if not (math.isfinite(fh) and math.isfinite(fl)):
                    raise ValueError(
                        f"non-finite probe for parameter {name!r} at {idx}")
                g[idx] = (fh - fl) / (2.0 * step)
            grads[name] = g
        else:
            hi = dict(params)
            hi[name] = float(base) + step
            lo = dict(params)
            lo[name] = float(base) - step
            fh, fl = float(f(hi)), float(f(lo))
            if not (math.isfinite(fh) and math.isfinite(fl)):
                raise ValueError(f"non-finite probe for parameter {name!r}")
            grads[name] = (fh - fl) / (2.0 * step)
    return grads
