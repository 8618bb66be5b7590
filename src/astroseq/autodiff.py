"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is a 2-D numpy array wrapped in a :class:`ValueNode`; every
primitive takes nodes, so wrap arrays with :func:`leaf` or :func:`constant`.
Operations executed inside a ``with Tape():`` block record their inputs and
a vector-Jacobian closure; outside a tape they compute values only, which
is what the replay-based trainer uses for its gradient-free forward pass.

Design points that the rest of the package relies on:

* Backward walks nodes in reverse creation order, which is a valid reverse
  topological order because parents always exist before children.  The
  accumulation order is therefore fixed, so repeated backward passes over
  identical graphs produce bitwise-identical gradients.
* One ``backward`` call is one reverse sweep, and it consumes its tape;
  any further sweep through that tape's nodes, from it or from a new tape
  that used them, raises :class:`TapeConsumedError`.
  Several objectives recorded on one tape are differentiated together by
  passing the extra roots as ``more``: the sweep propagates the sum of
  their seeds, so shared intermediates are visited once.
* Leaf gradients (``ValueNode.grad``) persist and accumulate additively
  across sweeps, so one leaf may serve several tapes.  Intermediate
  gradients are transient per sweep.
* ``Tape.stored_floats`` counts the float64 entries of recorded
  intermediate values.  Leaves are excluded: they are the model, not
  activations.  The trainer uses this counter for its memory accounting.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidArgumentError,
    ShapeError,
    TapeConsumedError,
)

# Floor used when inverting attention normalizers; reciprocal clamps its
# argument to this value instead of dividing by something arbitrarily tiny.
RECIPROCAL_FLOOR = 1e-6

_tape_stack: list["Tape"] = []


def active_tape() -> "Tape | None":
    """The innermost tape currently recording, or None."""
    return _tape_stack[-1] if _tape_stack else None


class Tape:
    """Records one forward pass for a reverse sweep.

    Use as a context manager::

        with Tape() as tape:
            out = matmul(x, w)
        backward(out)

    The first backward call consumes the tape.
    """

    def __init__(self) -> None:
        self._ops: list[ValueNode] = []
        self.consumed = False
        self.stored_floats = 0

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")
        return False

    def _record_op(self, node: "ValueNode") -> None:
        self._ops.append(node)
        self.stored_floats += node.value.size

    def _release(self) -> None:
        # ``_tape`` stays set, so a released node is never taken for a leaf.
        for node in self._ops:
            node._parents = ()
            node._vjp = None


class ValueNode:
    """A float64 matrix plus the bookkeeping needed for reverse mode.

    ``grad`` is a zero-initialized accumulator of the same shape.  It is
    only ever populated for leaves; read it after backward.
    """

    __slots__ = ("value", "requires_grad", "_grad", "_parents", "_vjp", "_tape")

    def __init__(self, value, requires_grad: bool = False):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"ValueNode requires a 2-D matrix, got shape {arr.shape}")
        self.value = arr
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self._parents: tuple[ValueNode, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def is_leaf(self) -> bool:
        return self._tape is None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def _accumulate(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        self._grad += g

    def __repr__(self) -> str:
        flags = "leaf" if self.is_leaf else "op"
        return f"ValueNode(shape={self.value.shape}, {flags}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad: bool = True) -> ValueNode:
    """Create a differentiation endpoint (parameter or input).

    A leaf belongs to no tape: its floats are not counted as activation
    storage, and every sweep that reaches it adds into its ``grad``.
    """
    return ValueNode(value, requires_grad=requires_grad)


def constant(value) -> ValueNode:
    """A matrix that never receives gradients (masks, geometry, pooled weights)."""
    return ValueNode(value, requires_grad=False)


def _emit(value: np.ndarray, parents: tuple[ValueNode, ...], vjp) -> ValueNode:
    tape = active_tape()
    needs = tape is not None and any(p.requires_grad for p in parents)
    node = ValueNode(value, requires_grad=needs)
    if needs:
        node._parents = parents
        node._vjp = vjp
        node._tape = tape
        tape._record_op(node)
    return node


def _require_same_shape(a: ValueNode, b: ValueNode, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b) -> ValueNode:
    _require_same_shape(a, b, "add")
    return _emit(a.value + b.value, (a, b), lambda g: (g, g))


def subtract(a, b) -> ValueNode:
    _require_same_shape(a, b, "subtract")
    return _emit(a.value - b.value, (a, b), lambda g: (g, -g))


def hadamard(a, b) -> ValueNode:
    _require_same_shape(a, b, "hadamard")
    av, bv = a.value, b.value
    return _emit(av * bv, (a, b), lambda g: (g * bv, g * av))


def scalar_mul(a, c: float) -> ValueNode:
    c = float(c)
    return _emit(a.value * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> ValueNode:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions {a.value.shape} x {b.value.shape} do not align"
        )
    av, bv = a.value, b.value
    return _emit(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def transpose(a) -> ValueNode:
    return _emit(a.value.T.copy(), (a,), lambda g: (g.T,))


def row_sum(a) -> ValueNode:
    """Sum each row: (r, c) -> (r, 1)."""
    r, c = a.value.shape
    return _emit(
        a.value.sum(axis=1, keepdims=True),
        (a,),
        lambda g: (np.repeat(g, c, axis=1),),
    )


def col_sum(a) -> ValueNode:
    """Sum each column: (r, c) -> (1, c)."""
    r, c = a.value.shape
    return _emit(
        a.value.sum(axis=0, keepdims=True),
        (a,),
        lambda g: (np.repeat(g, r, axis=0),),
    )


def broadcast_col(a, n_cols: int) -> ValueNode:
    """Tile a column vector (r, 1) across n_cols columns."""
    if a.value.shape[1] != 1:
        raise ShapeError(f"broadcast_col expects a column vector, got {a.value.shape}")
    if n_cols < 1:
        raise InvalidArgumentError("broadcast_col: n_cols must be positive")
    return _emit(
        np.repeat(a.value, n_cols, axis=1),
        (a,),
        lambda g: (g.sum(axis=1, keepdims=True),),
    )


def broadcast_row(a, n_rows: int) -> ValueNode:
    """Tile a row vector (1, c) across n_rows rows (bias addition helper)."""
    if a.value.shape[0] != 1:
        raise ShapeError(f"broadcast_row expects a row vector, got {a.value.shape}")
    if n_rows < 1:
        raise InvalidArgumentError("broadcast_row: n_rows must be positive")
    return _emit(
        np.repeat(a.value, n_rows, axis=0),
        (a,),
        lambda g: (g.sum(axis=0, keepdims=True),),
    )


def add_bias(x, bias) -> ValueNode:
    """Add a (1, c) bias row to every row of x."""
    return add(x, broadcast_row(bias, x.value.shape[0]))


# ---------------------------------------------------------------------------
# nonlinear primitives


def elu_plus_one(a) -> ValueNode:
    """The strictly positive feature map x >= 0 -> x + 1, x < 0 -> exp(x)."""
    x = a.value
    pos = x >= 0
    out = np.where(pos, x + 1.0, np.exp(np.minimum(x, 0.0)))
    # For x < 0 the output equals the derivative, so reuse it.
    return _emit(out, (a,), lambda g: (g * np.where(pos, 1.0, out),))


def relu(a) -> ValueNode:
    x = a.value
    mask = (x > 0).astype(np.float64)
    return _emit(x * mask, (a,), lambda g: (g * mask,))


def power(a, exponent: float) -> ValueNode:
    """Elementwise x ** exponent for strictly positive x."""
    exponent = float(exponent)
    x = a.value
    if np.any(x <= 0.0):
        raise DomainError("power: inputs must be strictly positive")
    out = x**exponent
    return _emit(out, (a,), lambda g: (g * exponent * x ** (exponent - 1.0),))


def reciprocal(a) -> ValueNode:
    """Elementwise 1 / max(x, floor) for positive x.

    Inputs at or below zero indicate a corrupted normalizer and raise
    :class:`DomainError`; inputs inside (0, floor) are clamped, and the
    gradient there is zero because the output is locally constant.
    """
    x = a.value
    if np.any(x <= 0.0):
        raise DomainError("reciprocal: inputs must be strictly positive")
    clamped = np.maximum(x, RECIPROCAL_FLOOR)
    out = 1.0 / clamped
    live = (x >= RECIPROCAL_FLOOR).astype(np.float64)
    return _emit(out, (a,), lambda g: (-g * out * out * live,))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> ValueNode:
    """Row-wise layer normalization with learnable (1, c) gain and bias."""
    n, c = x.value.shape
    if gain.value.shape != (1, c) or bias.value.shape != (1, c):
        raise ShapeError(
            f"layer_norm: gain/bias must be (1, {c}), got {gain.value.shape} and {bias.value.shape}"
        )
    mu = x.value.mean(axis=1, keepdims=True)
    centered = x.value - mu
    var = (centered**2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.value + bias.value

    def vjp(g):
        d_gain = (g * xhat).sum(axis=0, keepdims=True)
        d_bias = g.sum(axis=0, keepdims=True)
        d_xhat = g * gain.value
        mean_d = d_xhat.mean(axis=1, keepdims=True)
        mean_dx = (d_xhat * xhat).mean(axis=1, keepdims=True)
        d_x = inv_std * (d_xhat - mean_d - xhat * mean_dx)
        return (d_x, d_gain, d_bias)

    return _emit(out, (x, gain, bias), vjp)


def softmax_rows(a) -> ValueNode:
    x = a.value
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner),)

    return _emit(y, (a,), vjp)


# ---------------------------------------------------------------------------
# structural primitives


def concat_rows(a, b) -> ValueNode:
    if a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(
            f"concat_rows: column counts {a.value.shape} vs {b.value.shape} differ"
        )
    ra = a.value.shape[0]
    return _emit(
        np.concatenate([a.value, b.value], axis=0),
        (a, b),
        lambda g: (g[:ra], g[ra:]),
    )


def concat_cols(a, b) -> ValueNode:
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(
            f"concat_cols: row counts {a.value.shape} vs {b.value.shape} differ"
        )
    ca = a.value.shape[1]
    return _emit(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        lambda g: (g[:, :ca], g[:, ca:]),
    )


def slice_rows(a, start: int, stop: int) -> ValueNode:
    r = a.value.shape[0]
    # start == stop yields an empty slice; callers use it for optional blocks.
    if not (0 <= start <= stop <= r):
        raise InvalidArgumentError(f"slice_rows: bad range [{start}, {stop}) for {r} rows")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        return (full,)

    return _emit(a.value[start:stop].copy(), (a,), vjp)


def slice_cols(a, start: int, stop: int) -> ValueNode:
    c = a.value.shape[1]
    if not (0 <= start <= stop <= c):
        raise InvalidArgumentError(f"slice_cols: bad range [{start}, {stop}) for {c} columns")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[:, start:stop] = g
        return (full,)

    return _emit(a.value[:, start:stop].copy(), (a,), vjp)


def embedding_rows(table, ids) -> ValueNode:
    """Gather rows of a (vocab, d) table by integer id; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    vocab = table.value.shape[0]
    if ids.size == 0:
        raise InvalidArgumentError("embedding_rows: empty id list")
    if ids.min() < 0 or ids.max() >= vocab:
        raise InvalidArgumentError(
            f"embedding_rows: ids outside [0, {vocab}) (got {ids.min()}..{ids.max()})"
        )

    def vjp(g):
        full = np.zeros_like(table.value)
        np.add.at(full, ids, g)
        return (full,)

    return _emit(table.value[ids].copy(), (table,), vjp)


# ---------------------------------------------------------------------------
# losses


def mse(pred, target) -> ValueNode:
    """Mean squared error against a constant target, as a (1, 1) node."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.value.shape:
        raise ShapeError(f"mse: target shape {target.shape} vs pred {pred.value.shape}")
    diff = pred.value - target
    size = diff.size
    out = np.array([[float((diff**2).mean())]])
    return _emit(out, (pred,), lambda g: (g[0, 0] * 2.0 * diff / size,))


def cross_entropy(logits, labels) -> ValueNode:
    """Mean cross-entropy of (n, c) logits against integer labels, as (1, 1)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.value.shape
    if labels.shape[0] != n:
        raise ShapeError(f"cross_entropy: {labels.shape[0]} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= c:
        raise InvalidArgumentError(f"cross_entropy: labels outside [0, {c})")
    x = logits.value
    shifted = x - x.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    picked = log_probs[np.arange(n), labels]
    out = np.array([[float(-picked.mean())]])
    probs = np.exp(log_probs)

    def vjp(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (g[0, 0] * grad / n,)

    return _emit(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# reverse sweep


def backward(node: ValueNode, seed=None, more=()) -> int:
    """Accumulate d(sum of seed . root)/d(leaf) into every reached leaf's grad.

    The roots are ``node`` with ``seed`` plus the ``(root, seed)`` pairs in
    ``more``, all recorded on one tape; a ``None`` seed means all-ones (the
    usual choice for a (1, 1) loss).  The sweep consumes the tape.  Returns
    the peak float count of transient (non-leaf) gradient matrices alive at
    any point of the sweep, seeds included.
    """
    tape = node._tape
    if tape is None:
        raise InvalidArgumentError(
            "backward root was not recorded on a tape (a leaf or a tape-free result)"
        )
    if tape.consumed:
        raise TapeConsumedError("tape already consumed by a backward sweep")

    pending: dict[int, np.ndarray] = {}
    for root, root_seed in ((node, seed), *more):
        if root._tape is not tape:
            raise InvalidArgumentError("backward roots must be recorded on the same tape")
        if root_seed is None:
            root_seed = np.ones_like(root.value)
        else:
            root_seed = np.array(root_seed, dtype=np.float64)
            if root_seed.shape != root.value.shape:
                raise ShapeError(
                    f"backward: seed shape {root_seed.shape} does not match output "
                    f"{root.value.shape}"
                )
        prev = pending.get(id(root))
        pending[id(root)] = root_seed if prev is None else prev + root_seed
    live_floats = sum(g.size for g in pending.values())
    peak_floats = live_floats
    # Only the roots and parents of swept nodes ever enter ``pending``, so
    # nodes no root depends on are skipped without a separate pass.
    for n in reversed(tape._ops):
        g = pending.pop(id(n), None)
        if g is None:
            continue
        live_floats -= g.size
        for parent, pg in zip(n._parents, n._vjp(g)):
            if not parent.requires_grad:
                continue
            if parent.is_leaf:
                parent._accumulate(pg)
            elif parent._tape is not tape:
                if parent._tape.consumed:
                    raise TapeConsumedError("an operand was recorded on a consumed tape")
                raise InvalidArgumentError("an operand was recorded on another tape")
            else:
                prev = pending.get(id(parent))
                if prev is None:
                    pending[id(parent)] = pg
                    live_floats += pg.size
                else:
                    pending[id(parent)] = prev + pg
        peak_floats = max(peak_floats, live_floats)

    tape.consumed = True
    tape._release()
    return peak_floats
