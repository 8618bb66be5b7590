"""Linear-cost attention with a write phase and a read phase.

The mechanism never forms a token-by-token score matrix.  A *write* pass
compresses the sequence into fixed-size summaries:

* ``H``       (m, d): sum of outer products (phi(k_t) + phi(r_t)) c_t v_t / m,
  the content pathway (keys) and the positional one (rows r_t of a learned
  positional summary R) written by one product,
  (phi(K) + phi(R))^T (V * c) / m;
* ``presyn``  (1, m): (c^T phi(K)) ** alpha, a compressive record of
  total key mass.

``c`` is the (n, 1) validity column: 1 for a row that is written, 0 for
one that is not, and all ones when the caller passes no mask.  It weights
V once, with the 1/m scale folded in, so a masked row writes nothing
through either pathway.

A *read* pass then queries the summaries: each output row is
``phi(q_n) H . P_n + x_n`` where ``P_n = 1 / (phi(q_n) presyn^T)``
normalizes per token.  All intermediates are (n, m), (n, d) or (m, d);
cost grows linearly with token count.
``astro_attention`` writes every head's summaries over all rows, then
reads them for each row block its caller asks for.  Rows outside every
block are written but never read, which is how the segment model skips
token rows that nothing downstream reads.

The positional summary R is built from a distance-decay profile
``exp(-|i - j| * pos_scale)`` mixed through two learned projections sized
to a fixed capacity ``n_max``.  Token positions are their row indices, so
memory tokens appended after the sequence occupy the positions right after
it.  R = mix (profile (mix^T read)) is built right to left, so every
product is (n, n) x (n, m) and the build costs O(n^2 m), taped or not; at
n == n_max its only (n, n) intermediate is mix^T.  That is the floor here:
``pos_mix`` is itself an (n_max, n_max) parameter.  R depends on nothing
but ``pos_mix``/``pos_read``, so whoever owns a parameter version builds
it once with ``positional_matrix`` and hands it to every
``astro_attention`` call; the per-call work is then linear in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ValueNode
from .errors import CapacityError, InvalidArgumentError, ShapeError

phi = ad.elu_plus_one
"""Strictly positive feature map applied to keys, queries, and positions."""


@dataclass
class AttentionParams:
    """Projections plus mechanism hyperparameters for one attention block.

    ``w_query``/``w_key`` are (d, m), ``w_value`` is (d, d), the positional
    pair is (n_max, n_max) and (n_max, m).  With several heads the m and d
    axes are split evenly and ``w_out`` (d, d) recombines the heads.
    """

    w_query: ValueNode
    w_key: ValueNode
    w_value: ValueNode
    pos_mix: ValueNode
    pos_read: ValueNode
    w_out: ValueNode | None = None
    alpha: float = 0.25
    pos_scale: float = 2.0
    n_heads: int = 1

    def __post_init__(self):
        d, m = self.w_query.shape
        if self.w_key.shape != (d, m):
            raise ShapeError(f"w_key {self.w_key.shape} must match w_query {(d, m)}")
        if self.w_value.shape != (d, d):
            raise ShapeError(f"w_value must be ({d}, {d}), got {self.w_value.shape}")
        n_max = self.pos_mix.shape[0]
        if self.pos_mix.shape != (n_max, n_max):
            raise ShapeError(f"pos_mix must be square, got {self.pos_mix.shape}")
        if self.pos_read.shape != (n_max, m):
            raise ShapeError(
                f"pos_read must be ({n_max}, {m}), got {self.pos_read.shape}"
            )
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidArgumentError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (np.isfinite(self.pos_scale) and self.pos_scale >= 0):
            raise InvalidArgumentError(
                f"pos_scale must be finite and non-negative, got {self.pos_scale}"
            )
        if self.n_heads < 1:
            raise InvalidArgumentError("n_heads must be at least 1")
        if m % self.n_heads or d % self.n_heads:
            raise InvalidArgumentError(
                f"n_heads={self.n_heads} must divide m={m} and d={d}"
            )
        if self.n_heads > 1:
            if self.w_out is None:
                raise InvalidArgumentError("multi-head attention needs w_out")
            if self.w_out.shape != (d, d):
                raise ShapeError(f"w_out must be ({d}, {d}), got {self.w_out.shape}")

    @property
    def d_model(self) -> int:
        return self.w_query.shape[0]

    @property
    def m_hidden(self) -> int:
        return self.w_query.shape[1]

    @property
    def n_max(self) -> int:
        return self.pos_mix.shape[0]


def uniform_init(rng: np.random.Generator, rows: int, cols: int, fan: int) -> np.ndarray:
    """A (rows, cols) draw from uniform(+-1/sqrt(fan)), fan being the fan-in."""
    bound = 1.0 / np.sqrt(fan)
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_attention_arrays(
    d: int, m: int, n_max: int, rng: np.random.Generator, n_heads: int = 1
) -> dict[str, np.ndarray]:
    """Fresh projection matrices: uniform(+-1/sqrt(fan_in))."""
    arrays = {
        "w_query": uniform_init(rng, d, m, d),
        "w_key": uniform_init(rng, d, m, d),
        "w_value": uniform_init(rng, d, d, d),
        "pos_mix": uniform_init(rng, n_max, n_max, n_max),
        "pos_read": uniform_init(rng, n_max, m, n_max),
    }
    if n_heads > 1:
        arrays["w_out"] = uniform_init(rng, d, d, d)
    return arrays


def make_attention_params(
    arrays: dict[str, np.ndarray],
    alpha: float = 0.25,
    pos_scale: float = 2.0,
    n_heads: int = 1,
) -> AttentionParams:
    """Wrap plain arrays as trainable leaves (handy for standalone use)."""
    return AttentionParams(
        **{key: ad.leaf(arr) for key, arr in arrays.items()},
        alpha=alpha, pos_scale=pos_scale, n_heads=n_heads,
    )


def _decay_profile(n_tokens: int, pos_scale: float) -> np.ndarray:
    """exp(-|i - j| * pos_scale) over positions 0..n_tokens-1."""
    idx = np.arange(n_tokens, dtype=np.float64)
    return np.exp(-np.abs(idx[:, None] - idx[None, :]) * pos_scale)


def positional_matrix(n_tokens: int, params: AttentionParams) -> ValueNode:
    """The (n_tokens, m) positional summary R.

    Differentiable through ``pos_mix``/``pos_read`` when a tape is active.
    """
    if n_tokens < 1:
        raise InvalidArgumentError("n_tokens must be at least 1")
    if n_tokens > params.n_max:
        raise CapacityError(
            f"{n_tokens} tokens exceed this block's capacity of {params.n_max}"
        )
    profile = ad.constant(_decay_profile(n_tokens, params.pos_scale))
    if n_tokens == params.n_max:
        mix, read = params.pos_mix, params.pos_read
    else:
        mix = ad.slice_cols(ad.slice_rows(params.pos_mix, 0, n_tokens), 0, n_tokens)
        read = ad.slice_rows(params.pos_read, 0, n_tokens)
    # Right to left, so every product is (n, n) x (n, m).
    return ad.matmul(mix, ad.matmul(profile, ad.matmul(ad.transpose(mix), read)))


def _mask_col(mask, n_rows: int) -> np.ndarray:
    """A (n_rows,) mask, or a (B, n_rows) stack of them, as a column
    (..., n_rows, 1) that broadcasts across any width."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim not in (1, 2) or mask.shape[-1] != n_rows:
        raise ShapeError(f"mask of shape {mask.shape} does not cover {n_rows} rows")
    if not mask.any(axis=-1).all():
        raise InvalidArgumentError("mask excludes every row; nothing to write")
    return mask[..., None]


def _head_cols(a: ValueNode, h: int, n_heads: int) -> ValueNode:
    """Head ``h``'s block of columns; with one head, ``a`` itself (no copy)."""
    if n_heads == 1:
        return a
    width = a.shape[-1] // n_heads
    return ad.slice_cols(a, h * width, (h + 1) * width)


def astro_attention(
    x: ValueNode,
    params: AttentionParams,
    pos: ValueNode | None = None,
    mask=None,
    blocks: Sequence[tuple[int, int]] | None = None,
) -> ValueNode | tuple[ValueNode, ...]:
    """Full attention block: per head, write the summaries, then read them.

    ``pos`` is the block's positional summary R for x's token count, as
    ``positional_matrix`` builds it; without it the block builds its own.
    ``mask`` marks valid rows with 1; masked rows contribute nothing to any
    summary.  Several heads split the m and d axes evenly and ``w_out``
    recombines them.  A (B, n, d) stack ``x`` takes a (B, n) stack of masks
    and attends within each of its B matrices.

    Every row is written.  Without ``blocks`` the call reads every row
    and returns one node.  ``blocks`` lists the row ranges [start, stop)
    to read instead, and the call returns a tuple of one node per range;
    the segment model always passes it.  A row outside every range costs
    only its share of the write.  Each range reads on its own, so its rows
    come out bit for bit the same whatever other ranges are read beside it.
    """
    n, d = x.shape[-2:]
    if d != params.d_model:
        raise ShapeError(f"x has width {d}, parameters expect {params.d_model}")
    heads = params.n_heads
    m_h = params.m_hidden // heads
    col = _mask_col(np.ones(n) if mask is None else mask, n)
    k = ad.matmul(x, params.w_key)
    # V weighted once by c / m: every head writes both pathways through it.
    v = ad.hadamard(ad.matmul(x, params.w_value), ad.constant(col / m_h))
    valid = ad.constant(col.swapaxes(-1, -2))
    r = positional_matrix(n, params) if pos is None else pos
    summaries = []
    for h in range(heads):
        phi_k = phi(_head_cols(k, h, heads))
        written = ad.matmul(
            ad.transpose(ad.add(phi_k, phi(_head_cols(r, h, heads)))), _head_cols(v, h, heads)
        )
        summaries.append((written, ad.power(ad.matmul(valid, phi_k), params.alpha)))
    if blocks is None:
        return _read(x, params, summaries, 0, n)
    return tuple(_read(x, params, summaries, start, stop) for start, stop in blocks)


def _read(x: ValueNode, params: AttentionParams, summaries, start: int, stop: int) -> ValueNode:
    """Rows [start, stop) of the block's output: each head's summaries
    queried by those rows, heads recombined, plus the rows themselves."""
    heads = params.n_heads
    rows = x if (start, stop) == (0, x.shape[-2]) else ad.slice_rows(x, start, stop)
    # Projected after the write, so the reverse sweep reaches q right after
    # the reads instead of holding its gradient through the whole write.
    q = ad.matmul(rows, params.w_query)
    for h, (hebb, key_norm) in enumerate(summaries):
        phi_q = phi(_head_cols(q, h, heads))
        feedback = ad.reciprocal(ad.matmul(phi_q, ad.transpose(key_norm)))
        y = ad.hadamard(ad.matmul(phi_q, hebb), feedback)
        out = y if h == 0 else ad.concat_cols(out, y)
    if heads > 1:
        out = ad.matmul(out, params.w_out)
    return ad.add(out, rows)
