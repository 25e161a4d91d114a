"""Reverse-mode differentiation over float64 numpy values.

Primitive operations are recorded on an append-only :class:`Tape`; a node may
only reference earlier nodes, so the graph is acyclic by construction.
``backward`` walks the tape in reverse with a fixed accumulation order, which
makes repeated backward passes bit-identical.

Each primitive is one row of an op table: its name, its value kernel and its
vector-Jacobian products (VJPs).  A row's index is its opcode, and
``_OP_NAMES`` and the backward dispatch are read off the same table.  A VJP
is handed the node's stored output (``exp``, ``sqrt``, ``tanh``,
``sigmoid``, ``norm``, ``logsumexp`` and ``softmax`` read it instead of
recomputing it).  Accumulation never writes into an array it does not own:
an adjoint's first contribution is kept as it is, possibly shared with other
adjoints, each later one makes a new sum, and the scatter adjoints of
``take_row``, ``cols`` and ``pick`` copy a shared adjoint before adding.

Every public op is polymorphic: called with :class:`Var` arguments it records
a tape node (a plain operand of ``add``, ``sub``, ``mul`` or ``div`` rides
in the node's aux, one of a matrix op becomes a constant leaf), called with
plain numbers or arrays it just computes the value.  That gives two
independent evaluation routes for the same formula, which the
finite-difference checker exploits.  ``Var`` has no arithmetic operators.

Every value, on the tape and on the plain route, is float64 numpy: an array,
or a numpy float64 (or 0-d array) for a scalar such as the temperature, the
curvature or a loss total.  There is no broadcasting engine: binary ops
accept equal shapes, a scalar paired with an array, or (``add``, ``sub``) a
row vector added to every row of a matrix.  A batch is always an n x d
matrix of rows: ``norm``, ``dot``, ``logsumexp`` and ``softmax`` work
row-wise on it and reject any other rank, naming the shape.  With them and
``matmul``, ``scale_rows``, ``outer``, ``pick``, ``sum``, ``cols`` and
``take_row``, a whole batch, from the fusion forward to each loss, is a
handful of array nodes instead of one node per row or pair.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Sequence

import numpy as np

#: Gradient container returned by ``backward``/``finite_diff``: one entry per
#: named leaf, shaped exactly like the leaf value.
GradientMap = Dict[str, np.ndarray]

_ACOSH_GUARD = 1.0 + 1e-12   # derivative of arccosh is clipped below this
_TRIG_GUARD = 1.0 - 1e-12    # |argument| cap for asin/arccos derivatives
_SINHC_SWITCH = 1e-4         # below this, sinh(t)/t uses its Taylor series


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
    threads.  Leaves may be named, and named leaves are the keys of the
    GradientMap produced by ``backward``.
    """

    __slots__ = ("ops", "values", "names")

    def __init__(self):
        self.ops: list = []      # (opcode, input node ids, aux)
        self.values: list = []   # float64 array or scalar per node
        self.names: dict = {}    # node id -> leaf name

    def __len__(self):
        return len(self.values)

    def _record(self, opcode: int, inputs: tuple, aux, value) -> Var:
        idx = len(self.values)
        self.ops.append((opcode, inputs, aux))
        self.values.append(value)
        return Var(self, idx, value)

    def leaf(self, value, name: str | None = None) -> Var:
        """Register an input node, optionally named for gradient lookup."""
        value = _num(value)
        if not np.isfinite(value).all():
            raise ValueError("non-finite entries in leaf"
                             + (f" {name!r}" if name else ""))
        if name is None:
            return self._record(_LEAF.code, (), None, value)
        return self.params({name: value})[name]

    def params(self, values: dict) -> dict:
        """Named leaves for a map of float64 parameters, as Vars by name.

        The values are not checked here: ``trainer.step`` checks them as
        one flat vector, which the update, the state-file load and ``init``
        have already found finite.
        """
        taken = set(self.names.values()) & values.keys()
        if taken:
            raise ValueError(f"duplicate leaf name: {min(taken)!r}")
        out = {}
        for name, value in values.items():
            var = out[name] = self._record(_LEAF.code, (), None, value)
            self.names[var.idx] = name
        return out

    def const(self, value) -> Var:
        """Register an unnamed input that gradients are not reported for."""
        return self.leaf(value, None)


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


_OPS: list = []
_LEAF = _Op("leaf", None, None)


def _acc(adj, j, contrib):
    # the first contribution is kept as it is, and may be shared with other
    # slots, so a later one makes a new array (the same IEEE sum as +=)
    cur = adj[j]
    adj[j] = contrib if cur is None else cur + contrib


def _fit(grad, operand):
    """An adjoint summed down to a broadcast scalar or row vector."""
    if grad.ndim > operand.ndim:
        return np.add.reduce(grad, axis=0 if operand.ndim else None)
    return grad


def _unary(name: str, kernel: Callable, vjp: Callable) -> Callable:
    """Register a one-operand row and return its op: ``kernel(x)`` is the
    value and ``vjp(g, ans, x)`` the adjoint of x."""
    def backward(g, ans, inputs, aux, values, adj, owned):
        _acc(adj, inputs[0], vjp(g, ans, values[inputs[0]]))

    row = _Op(name, kernel, backward)

    def op(a):
        if isinstance(a, Var):
            return a.tape._record(row.code, (a.idx,), None,
                                  row.kernel(a.value))
        return row.kernel(_num(a))

    op.__name__ = name
    return op


def _apply(row: _Op, a, aux):
    """Record a one-operand row with a parameter ``aux``, or compute it."""
    if isinstance(a, Var):
        return a.tape._record(row.code, (a.idx,), aux,
                              row.kernel(a.value, aux))
    return row.kernel(_num(a), aux)


def _gated(name: str, kernel: Callable, active: Callable) -> _Op:
    """A row that passes the adjoint where ``active(x, aux)`` holds."""
    def backward(g, ans, inputs, aux, values, adj, owned):
        _acc(adj, inputs[0], g * active(values[inputs[0]], aux))

    return _Op(name, kernel, backward)


def _scatter(name: str, kernel: Callable, write: Callable) -> _Op:
    """A row whose adjoint goes, by ``write(buf, aux, g)``, into part of a
    buffer shaped like its operand that slot alone holds: a zeros buffer,
    or a copy of a borrowed adjoint."""
    def backward(g, ans, inputs, aux, values, adj, owned):
        j = inputs[0]
        cur = adj[j]
        if cur is None:
            cur = adj[j] = np.zeros(values[j].shape)
        elif j not in owned:
            cur = adj[j] = cur.copy()
        owned.add(j)
        write(cur, aux, g)

    return _Op(name, kernel, backward)


def _binary(name: str, kernel: Callable, vjp_a: Callable, vjp_b: Callable,
            fold: bool = True) -> Callable:
    """Register a two-operand row and return its op.

    ``vjp_a(g, a, b)`` and ``vjp_b(g, a, b)`` are the adjoints of a and b,
    each summed down to its operand's shape.  With ``fold`` a plain operand
    rides in the node's aux as (position of the Var, constant); without, it
    is registered as a constant leaf.
    """
    def backward(g, ans, inputs, aux, values, adj, owned):
        if aux is None:
            a, b = values[inputs[0]], values[inputs[1]]
            _acc(adj, inputs[0], vjp_a(g, a, b))
            _acc(adj, inputs[1], vjp_b(g, a, b))
        elif aux[0] == 0:
            _acc(adj, inputs[0], vjp_a(g, values[inputs[0]], aux[1]))
        else:
            _acc(adj, inputs[0], vjp_b(g, aux[1], values[inputs[0]]))

    row = _Op(name, kernel, backward)

    def op(a, b):
        if isinstance(a, Var):
            if isinstance(b, Var):
                if a.tape is not b.tape:
                    raise ValueError("operands recorded on different tapes")
                return a.tape._record(row.code, (a.idx, b.idx), None,
                                      row.kernel(a.value, b.value))
            if not fold:
                return op(a, a.tape.const(b))
            c = _num(b)
            return a.tape._record(row.code, (a.idx,), (0, c),
                                  row.kernel(a.value, c))
        if isinstance(b, Var):
            if not fold:
                return op(b.tape.const(a), b)
            c = _num(a)
            return b.tape._record(row.code, (b.idx,), (1, c),
                                  row.kernel(c, b.value))
        return row.kernel(_num(a), _num(b))

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


def _norm(u):
    _rows("norm", u)
    return np.sqrt(np.add.reduce(u * u, axis=1))


def _norm_vjp(g, ans, u):
    # at a zero row the limit gradient used is 0
    live = ans > 1e-300
    return np.where(live, g / np.where(live, ans, 1.0), 0.0)[:, None] * u


def _dot(u, v):
    _rows("dot", u, v)
    return u @ v.T


def _logsumexp(u):
    _rows("logsumexp", u)
    m = np.maximum.reduce(u, axis=1, keepdims=True)
    return m[:, 0] + np.log(np.add.reduce(np.exp(u - m), axis=1))


def _softmax(u):
    _rows("softmax", u)
    e = np.exp(u - np.maximum.reduce(u, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# primitive ops

add = _binary("add", operator.add, lambda g, a, b: _fit(g, a),
              lambda g, a, b: _fit(g, b))
_sub = _binary("sub", operator.sub, lambda g, a, b: _fit(g, a),
               lambda g, a, b: -_fit(g, b))
mul = _binary("mul", operator.mul, lambda g, a, b: _fit(g * b, a),
              lambda g, a, b: _fit(g * a, b))
# a / b elementwise: equal shapes, or either operand a scalar
div = _binary("div", operator.truediv, lambda g, a, b: _fit(g / b, a),
              lambda g, a, b: -_fit(g * a, b) / (b * b))
neg = _unary("neg", operator.neg, lambda g, ans, x: -g)
# math.exp of a scalar: np.exp differs from it in the last bit for some
# arguments, and the temperature and curvature are exp of scalar leaves
exp = _unary("exp", lambda x: np.exp(x) if x.ndim else np.float64(math.exp(x)),
             lambda g, ans, x: g * ans)
sqrt = _unary("sqrt", np.sqrt,
              lambda g, ans, x: g / (2.0 * np.maximum(ans, 1e-150)))
# sinh(t)/t, series-expanded near t = 0
sinhc = _unary("sinhc", _sinhc, lambda g, ans, x: g * _sinhc_deriv(x))
tanh = _unary("tanh", np.tanh, lambda g, ans, x: g * (1.0 - ans * ans))
sigmoid = _unary("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)),
                 lambda g, ans, x: g * ans * (1.0 - ans))
# 1/sqrt(x^2-1) diverges at 1; clip so matched pairs (d = 0) stay finite
arccosh = _unary("arccosh", np.arccosh, lambda g, ans, x: g / np.sqrt(
    np.square(np.maximum(x, _ACOSH_GUARD)) - 1.0))
asin = _unary("asin", np.arcsin, lambda g, ans, x: g / np.sqrt(
    1.0 - np.square(np.clip(x, -_TRIG_GUARD, _TRIG_GUARD))))
arccos = _unary("arccos", np.arccos, lambda g, ans, x: -g / np.sqrt(
    1.0 - np.square(np.clip(x, -_TRIG_GUARD, _TRIG_GUARD))))
# the boundary of a clamp or hinge takes the inactive side: zero gradient
_CLAMP_MIN = _gated("clamp_min", np.maximum, operator.gt)
_CLAMP_MAX = _gated("clamp_max", np.minimum, operator.lt)
_HINGE = _gated("hinge", np.maximum, operator.gt)
# 0.5 a^2 for |a| < 1, |a| - 0.5 otherwise (threshold 1), elementwise
smooth_l1 = _unary(
    "smooth_l1",
    lambda a: np.where(np.abs(a) < 1.0, 0.5 * a * a, np.abs(a) - 0.5),
    lambda g, ans, a: g * np.where(np.abs(a) < 1.0, a, np.sign(a)))
# inner product of every row of u with every row of v (u @ v.T)
dot = _binary("dot", _dot, lambda g, u, v: g @ v, lambda g, u, v: g.T @ u,
              fold=False)
# the vector of row norms of a matrix
norm = _unary("norm", _norm, _norm_vjp)
matmul = _binary("matmul", np.matmul, lambda g, a, b: g @ b.T,
                 lambda g, a, b: a.T @ g, fold=False)
_TAKE_ROW = _scatter("take_row", operator.getitem, np.add.at)
_COLS = _scatter("cols", lambda m, s: m[:, s].copy(),
                 lambda buf, s, g: np.add(buf[:, s], g, out=buf[:, s]))
# stable log(sum(exp(row))) of each row of a matrix
logsumexp = _unary("logsumexp", _logsumexp,
                   lambda g, ans, u: g[:, None] * np.exp(u - ans[:, None]))
# softmax of each row of a matrix
softmax = _unary("softmax", _softmax, lambda g, ans, u: ans * (
    g - np.add.reduce(g * ans, axis=1, keepdims=True)))
# row i of matrix m times s[i]
scale_rows = _binary("scale_rows", lambda s, m: s[:, None] * m,
                     lambda g, s, m: np.einsum("ij,ij->i", g, m),
                     lambda g, s, m: s[:, None] * g, fold=False)
# outer product of two vectors (n x m)
outer = _binary("outer", np.outer, lambda g, a, b: g @ b,
                lambda g, a, b: a @ g, fold=False)
# sum of all entries of an array, as a scalar
sum = _unary("sum", lambda x: np.add.reduce(x, axis=None),  # shadows builtin
             lambda g, ans, x: np.full(x.shape, g))
_PICK = _scatter("pick", operator.getitem, np.add.at)

_OP_NAMES = [row.name for row in _OPS]


def sub(a, b):
    # a plain minuend takes two nodes, neg then add: the node counts per
    # step that the tests and the benchmark track stay as they are
    if isinstance(b, Var) and not isinstance(a, Var):
        return add(neg(b), a)
    return _sub(a, b)


def clamp_min(a, lo):
    return _apply(_CLAMP_MIN, a, float(lo))


def clamp_max(a, hi):
    return _apply(_CLAMP_MAX, a, float(hi))


def hinge(a):
    """max(0, a); subgradient 0 at the kink."""
    return _apply(_HINGE, a, 0.0)


def pick(m, idx: Sequence[int]):
    """Entry ``idx[i]`` of row i of matrix ``m``, for every row: a vector."""
    cols = np.asarray(idx, dtype=np.intp)
    rows = val(m).shape[0]
    if cols.shape != (rows,):
        raise ValueError(f"pick needs one column index per row ({rows})")
    return _apply(_PICK, m, (np.arange(rows), cols))


def take_row(m, i: Sequence[int]):
    """The rows of a matrix at a non-empty sequence of indices, as a matrix
    (an index may repeat)."""
    i = np.asarray(i, dtype=np.intp)
    if np.ndim(val(m)) != 2 or i.ndim != 1 or not i.size:
        raise ValueError("take_row takes an n x d matrix and a non-empty "
                         f"sequence of row indices, got shapes "
                         f"{np.shape(val(m))} and {i.shape}")
    return _apply(_TAKE_ROW, m, i)


def cols(m, a: int, b: int):
    """Column slice of a matrix."""
    return _apply(_COLS, m, slice(int(a), int(b)))


# ---------------------------------------------------------------------------
# backward


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
    if output.value.ndim:
        raise ValueError("backward requires a scalar output node")
    adj: list = [None] * len(tape.values)
    adj[output.idx] = np.float64(1.0)
    owned: set = set()
    ops = tape.ops
    values = tape.values
    table = [row.backward for row in _OPS]
    for i in range(output.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        opcode, inputs, aux = ops[i]
        if opcode:   # leaves, opcode 0, have no operands
            table[opcode](g, values[i], inputs, aux, values, adj, owned)
    grads: GradientMap = {
        name: np.zeros_like(values[j]) if adj[j] is None else adj[j]
        for j, name in tape.names.items()}
    if not all(np.isfinite(g).all() for g in grads.values()):
        for i in range(output.idx + 1):
            if adj[i] is not None and not np.isfinite(adj[i]).all():
                raise ArithmeticError(f"non-finite gradient at node {i} "
                                      f"(op {_OPS[tape.ops[i][0]].name})")
    return grads


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
