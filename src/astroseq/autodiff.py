"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is a numpy array of at least two dimensions wrapped in a
:class:`ValueNode`; every primitive takes nodes, so wrap arrays with
:func:`leaf` or :func:`constant`.  Operations executed inside a
``with Tape():`` block record their inputs and a vector-Jacobian closure;
outside a tape they compute values only, which is what the replay-based
trainer uses for its gradient-free forward pass.

Every primitive acts on the last two axes and carries any leading axes
along, so a (B, r, c) stack runs B matrices through one op; a plain
(r, c) matrix is the case with no leading axes.  Operands of different
shapes meet by one broadcasting rule.  ``add``, ``subtract``,
``hadamard``, ``matmul`` and the concatenations take a 2-D operand beside
a stacked one: every matrix of the stack uses it.  ``add``, ``subtract``
and ``hadamard`` also take an operand whose row or column axis has size 1
where the other's does not, as numpy does.  A broadcast operand's
gradient is summed over the leading axes it lacks, then over each size-1
axis, so it equals, bit for bit, the gradient through an explicit
``broadcast_row``/``broadcast_col`` tile.  That is how one parameter,
memory seed or positional summary serves a whole stack, and how a bias
row or a per-row scale serves every row without a tiled copy on the tape.

Design points that the rest of the package relies on:

* Backward walks nodes in reverse creation order, which is a valid reverse
  topological order because parents always exist before children.  The
  accumulation order is therefore fixed, so repeated backward passes over
  identical graphs produce bitwise-identical gradients.
* One ``backward`` call is one reverse sweep, and it consumes its tape;
  a second sweep raises :class:`TapeConsumedError`.  The consumed tape
  drops its nodes, so reference counting frees them and their values.
  An op takes its operands from its own tape or from leaves: recording
  one on a node of a consumed tape raises :class:`TapeConsumedError`, and
  on a node of another live tape :class:`InvalidArgumentError`, before any
  gradient is written.
  Several objectives recorded on one tape are differentiated together by
  passing the extra roots as ``more``: the sweep propagates the sum of
  their seeds, so shared intermediates are visited once.
* ``matmul`` and ``hadamard`` compute no gradient for an operand that
  does not require one (a mask, the positional decay profile).
* Leaf gradients (``ValueNode.grad``) persist and accumulate additively
  across sweeps, so one leaf may serve several tapes.  Intermediate
  gradients are transient per sweep.
* ``Tape.stored_floats`` counts the float64 entries of recorded
  intermediate values.  Inputs are excluded: leaves are the model, not
  activations, and constants (masks, the positional decay profile) are
  fixed data.  So are views: ``slice_rows``, ``slice_cols`` and
  ``transpose`` re-index their operand's value without copying it, which
  is safe because no op writes into a ``value`` (parameter updates
  replace the array).  A vjp keeps nothing else but per-row statistics
  (``layer_norm``'s mean and inverse deviation, one float per row, also
  uncounted): a mask such as ``relu``'s is derived again from the values
  in the backward pass.  The trainer uses this counter for its memory
  accounting.
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

# Added to each row's variance in layer_norm before its inverse square root.
LAYER_NORM_EPS = 1e-5

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

    def _record_op(self, node: "ValueNode", floats: int) -> None:
        self._ops.append(node)
        self.stored_floats += floats

    def _release(self) -> None:
        # ``_tape`` stays set, so a released node is never taken for a leaf.
        # Emptying ``_ops`` breaks the tape <-> node cycle for refcounting.
        for node in self._ops:
            node._parents = ()
            node._vjp = None
        self._ops = []


class ValueNode:
    """A float64 matrix, or a stack of them, plus the bookkeeping needed for
    reverse mode.

    ``grad`` is a zero-initialized accumulator of the same shape.  It is
    only ever populated for leaves; read it after backward.
    """

    __slots__ = ("value", "requires_grad", "_grad", "_parents", "_vjp", "_tape")

    def __init__(self, value, requires_grad: bool = False):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim < 2:
            raise ShapeError(f"ValueNode requires a matrix or a stack of them, got {arr.shape}")
        self.value = arr
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self._parents: tuple[ValueNode, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
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


def leaf(value) -> ValueNode:
    """Create a differentiation endpoint (parameter or input); ``constant``
    is the leaf that receives no gradient.

    A leaf belongs to no tape: its floats are not counted as activation
    storage, and every sweep that reaches it adds into its ``grad``.
    """
    return ValueNode(value, requires_grad=True)


def constant(value) -> ValueNode:
    """A matrix that never receives gradients (masks, geometry, pooled weights)."""
    return ValueNode(value, requires_grad=False)


def _emit(value: np.ndarray, parents: tuple[ValueNode, ...], vjp, view: bool = False) -> ValueNode:
    """Wrap an op's value, recording it when a tape is active and an operand
    needs a gradient.  A ``view`` shares its operand's memory, so it adds no
    stored floats."""
    tape = active_tape()
    needs = False
    if tape is not None:
        for p in parents:
            owner = p._tape
            if owner is not None and owner is not tape:
                if owner.consumed:
                    raise TapeConsumedError("an operand was recorded on a consumed tape")
                raise InvalidArgumentError("an operand was recorded on another tape")
            needs = needs or p.requires_grad
    node = ValueNode(value, requires_grad=needs)
    if needs:
        node._parents = parents
        node._vjp = vjp
        node._tape = tape
        tape._record_op(node, 0 if view else value.size)
    return node


def _lead(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """The leading axes of a result from operands of shapes ``sa`` and
    ``sb``: theirs where they agree, or the stacked one's beside a 2-D one."""
    if len(sa) > 2 and len(sb) > 2 and sa[:-2] != sb[:-2]:
        raise ShapeError(f"{op}: leading axes of {sa} and {sb} differ")
    return sa[:-2] or sb[:-2]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``g`` summed to an operand of ``shape``: over the leading axes it
    lacks first, then over each of the last two axes where it has size 1
    and ``g`` does not.  A tile's gradient sums in that order too."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    for axis in (-2, -1):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _require_broadcastable(a, b, op: str) -> None:
    """Leading axes by ``_lead``; each of the last two axes equal, or of
    size 1 in one operand."""
    sa, sb = a.value.shape, b.value.shape
    if sa != sb:
        _lead(op, sa, sb)
        if any(x != y and 1 not in (x, y) for x, y in zip(sa[-2:], sb[-2:])):
            raise ShapeError(f"{op}: shapes {sa} and {sb} differ other than by a size-1 axis")


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b) -> ValueNode:
    _require_broadcastable(a, b, "add")
    sa, sb = a.value.shape, b.value.shape
    return _emit(a.value + b.value, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def subtract(a, b) -> ValueNode:
    _require_broadcastable(a, b, "subtract")
    sa, sb = a.value.shape, b.value.shape
    return _emit(
        a.value - b.value, (a, b), lambda g: (_unbroadcast(g, sa), -_unbroadcast(g, sb))
    )


def hadamard(a, b) -> ValueNode:
    _require_broadcastable(a, b, "hadamard")
    av, bv = a.value, b.value
    return _emit(
        av * bv,
        (a, b),
        lambda g: (
            _unbroadcast(g * bv, av.shape) if a.requires_grad else None,
            _unbroadcast(g * av, bv.shape) if b.requires_grad else None,
        ),
    )


def scalar_mul(a, c: float) -> ValueNode:
    c = float(c)
    return _emit(a.value * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> ValueNode:
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions {av.shape} x {bv.shape} do not align")
    _lead("matmul", av.shape, bv.shape)

    def vjp(g):
        ga = _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape) if a.requires_grad else None
        gb = _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape) if b.requires_grad else None
        return ga, gb

    return _emit(av @ bv, (a, b), vjp)


# ---------------------------------------------------------------------------
# shape primitives
#
# Each kind has one implementation, told by ``axis``: -2 acts on rows, -1
# on columns.

_AXIS_NAME = {-2: "row", -1: "column"}


def _span(axis: int, start: int, stop: int | None) -> tuple:
    """The index selecting [start, stop) along ``axis``."""
    if axis == -2:
        return (..., slice(start, stop), slice(None))
    return (..., slice(start, stop))


def _concat(op: str, a, b, axis: int) -> ValueNode:
    other = -3 - axis
    sa, sb = a.value.shape, b.value.shape
    lead = _lead(op, sa, sb)
    if sa[other] != sb[other]:
        raise ShapeError(f"{op}: {_AXIS_NAME[other]} counts of {sa} and {sb} differ")
    split = sa[axis]
    value = np.concatenate(
        [np.broadcast_to(a.value, lead + sa[-2:]), np.broadcast_to(b.value, lead + sb[-2:])],
        axis=axis,
    )
    return _emit(
        value,
        (a, b),
        lambda g: (
            _unbroadcast(g[_span(axis, 0, split)], sa),
            _unbroadcast(g[_span(axis, split, None)], sb),
        ),
    )


def _slice(op: str, a, start: int, stop: int, axis: int) -> ValueNode:
    """A view of [start, stop) along ``axis``; start == stop yields an empty
    slice, which callers use for optional blocks."""
    size = a.value.shape[axis]
    if not (0 <= start <= stop <= size):
        raise InvalidArgumentError(
            f"{op}: bad range [{start}, {stop}) for {size} {_AXIS_NAME[axis]}s"
        )
    span = _span(axis, start, stop)

    def vjp(g):
        full = np.zeros_like(a.value)
        full[span] = g
        return (full,)

    return _emit(a.value[span], (a,), vjp, view=True)


def _sum(a, axis: int) -> ValueNode:
    n = a.value.shape[axis]
    return _emit(
        a.value.sum(axis=axis, keepdims=True),
        (a,),
        lambda g: (np.repeat(g, n, axis=axis),),
    )


def _tile(op: str, a, n: int, axis: int) -> ValueNode:
    if a.value.shape[axis] != 1:
        raise ShapeError(f"{op} expects a single {_AXIS_NAME[axis]}, got {a.value.shape}")
    if n < 1:
        raise InvalidArgumentError(f"{op}: the count must be positive")
    return _emit(
        np.repeat(a.value, n, axis=axis),
        (a,),
        lambda g: (g.sum(axis=axis, keepdims=True),),
    )


def concat_rows(a, b) -> ValueNode:
    return _concat("concat_rows", a, b, -2)


def concat_cols(a, b) -> ValueNode:
    return _concat("concat_cols", a, b, -1)


def slice_rows(a, start: int, stop: int) -> ValueNode:
    return _slice("slice_rows", a, start, stop, -2)


def slice_cols(a, start: int, stop: int) -> ValueNode:
    return _slice("slice_cols", a, start, stop, -1)


def transpose(a) -> ValueNode:
    return _emit(a.value.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),), view=True)


def row_sum(a) -> ValueNode:
    """Sum each row: (r, c) -> (r, 1)."""
    return _sum(a, -1)


def col_sum(a) -> ValueNode:
    """Sum each column: (r, c) -> (1, c)."""
    return _sum(a, -2)


def broadcast_col(a, n_cols: int) -> ValueNode:
    """Tile a column vector (r, 1) across n_cols columns."""
    return _tile("broadcast_col", a, n_cols, -1)


def broadcast_row(a, n_rows: int) -> ValueNode:
    """Tile a row vector (1, c) across n_rows rows."""
    return _tile("broadcast_row", a, n_rows, -2)


def add_bias(x, bias) -> ValueNode:
    """Add a (1, c) bias row to every row of x."""
    return add(x, bias)


def embedding_rows(table, ids) -> ValueNode:
    """Gather rows of a (vocab, d) table by integer id; backward scatter-adds.

    (n,) ids give an (n, d) matrix and (B, n) ids a (B, n, d) stack.
    """
    ids = np.asarray(ids, dtype=np.int64)
    vocab, d = table.value.shape
    if ids.size == 0:
        raise InvalidArgumentError("embedding_rows: empty id list")
    if ids.min() < 0 or ids.max() >= vocab:
        raise InvalidArgumentError(
            f"embedding_rows: ids outside [0, {vocab}) (got {ids.min()}..{ids.max()})"
        )

    def vjp(g):
        # One bincount over the bins id·d + column adds each bin's rows in
        # row order, as np.add.at would, bit for bit, at a fraction of its cost.
        bins = (ids.reshape(-1, 1) * d + np.arange(d)).ravel()
        return (np.bincount(bins, weights=g.ravel(), minlength=vocab * d).reshape(vocab, d),)

    return _emit(table.value[ids], (table,), vjp)


# ---------------------------------------------------------------------------
# nonlinear primitives


def elu_plus_one(a) -> ValueNode:
    """The strictly positive feature map x >= 0 -> x + 1, x < 0 -> exp(x)."""
    x = a.value
    out = np.where(x >= 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
    # The derivative is 1 where out >= 1 (x >= 0) and out itself elsewhere.
    return _emit(out, (a,), lambda g: (g * np.minimum(out, 1.0),))


def relu(a) -> ValueNode:
    x = a.value
    return _emit(x * (x > 0), (a,), lambda g: (g * (x > 0),))


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
    out = 1.0 / np.maximum(x, RECIPROCAL_FLOOR)
    return _emit(out, (a,), lambda g: (-g * out * out * (x >= RECIPROCAL_FLOOR),))


def layer_norm(x, gain, bias) -> ValueNode:
    """Row-wise layer normalization with learnable (1, c) gain and bias,
    over a variance offset by ``LAYER_NORM_EPS``.

    The backward pass recomputes the normalized rows from ``x`` and the
    per-row mean and inverse deviation, so it keeps no (r, c) array of its
    own."""
    c = x.value.shape[-1]
    if gain.value.shape != (1, c) or bias.value.shape != (1, c):
        raise ShapeError(
            f"layer_norm: gain/bias must be (1, {c}), got {gain.value.shape} and {bias.value.shape}"
        )
    mu = x.value.mean(axis=-1, keepdims=True)
    centered = x.value - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    out = centered * inv_std * gain.value + bias.value

    def vjp(g):
        xhat = (x.value - mu) * inv_std
        d_gain = _unbroadcast(g * xhat, (1, c))
        d_bias = _unbroadcast(g, (1, c))
        d_xhat = g * gain.value
        mean_d = d_xhat.mean(axis=-1, keepdims=True)
        mean_dx = (d_xhat * xhat).mean(axis=-1, keepdims=True)
        d_x = inv_std * (d_xhat - mean_d - xhat * mean_dx)
        return (d_x, d_gain, d_bias)

    return _emit(out, (x, gain, bias), vjp)


def softmax_rows(a) -> ValueNode:
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _emit(y, (a,), vjp)


# ---------------------------------------------------------------------------
# losses


def mse(pred, target) -> ValueNode:
    """Mean squared error against a constant target: (1, 1) for a matrix,
    (B, 1, 1) for a stack, one mean each."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.value.shape:
        raise ShapeError(f"mse: target shape {target.shape} vs pred {pred.value.shape}")
    diff = pred.value - target
    size = diff.shape[-2] * diff.shape[-1]
    out = (diff**2).mean(axis=(-2, -1), keepdims=True)
    return _emit(out, (pred,), lambda g: (g * 2.0 * diff / size,))


def cross_entropy(logits, labels) -> ValueNode:
    """Mean cross-entropy of (..., n, c) logits against integer labels, one
    per row: (1, 1) for a matrix, (B, 1, 1) for a stack, one mean each."""
    x = logits.value
    *lead, n, c = x.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != x.size // c:
        raise ShapeError(f"cross_entropy: {labels.size} labels for {x.size // c} rows")
    labels = labels.reshape(*lead, n, 1)
    if labels.min() < 0 or labels.max() >= c:
        raise InvalidArgumentError(f"cross_entropy: labels outside [0, {c})")
    shifted = x - x.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    picked = np.take_along_axis(log_probs, labels, axis=-1)
    out = -picked.mean(axis=-2, keepdims=True)
    probs = np.exp(log_probs)
    one_hot = labels == np.arange(c)

    return _emit(out, (logits,), lambda g: (g * (probs - one_hot) / n,))


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
