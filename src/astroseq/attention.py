"""Linear-cost attention with a write phase and a read phase.

The mechanism never forms a token-by-token score matrix.  A *write* pass
compresses the sequence into fixed-size summaries:

* ``hebb_keys``  (m, d): sum of outer products phi(k_t) v_t / m, the
  content pathway;
* ``hebb_pos``   (m, d): the same accumulation driven by a learned
  positional summary instead of the keys;
* ``presyn``     (1, m): (sum_t phi(k_t)) ** alpha, a compressive record
  of total key mass.

A *read* pass then queries the summaries: each output row is
``phi(q_n) (H . P_n) + x_n`` where ``H`` is the summed pathway matrix and
``P_n = 1 / (phi(q_n) presyn^T)`` normalizes per token.  All intermediates
are (n, m), (n, d) or (m, d); cost grows linearly with token count.
``astro_attention`` runs both passes for each head in one loop.

The positional summary R is built from a distance-decay profile
``exp(-|i - j| * pos_scale)`` mixed through two learned projections sized
to a fixed capacity ``n_max``.  Token positions are their row indices, so
memory tokens appended after the sequence occupy the positions right after
it.  Building R is the one quadratic-size computation; when no tape is
recording, its value is cached per token count and parameter version, so
repeated inference pays only the linear part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import ValueNode, active_tape
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
    _pos_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        if self.pos_scale < 0:
            raise InvalidArgumentError("pos_scale must be non-negative")
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


def init_attention_arrays(
    d: int, m: int, n_max: int, rng: np.random.Generator, n_heads: int = 1
) -> dict[str, np.ndarray]:
    """Fresh projection matrices: uniform(+-1/sqrt(fan_in))."""

    def uniform(rows, cols, fan):
        bound = 1.0 / np.sqrt(fan)
        return rng.uniform(-bound, bound, size=(rows, cols))

    arrays = {
        "w_query": uniform(d, m, d),
        "w_key": uniform(d, m, d),
        "w_value": uniform(d, d, d),
        "pos_mix": uniform(n_max, n_max, n_max),
        "pos_read": uniform(n_max, m, n_max),
    }
    if n_heads > 1:
        arrays["w_out"] = uniform(d, d, d)
    return arrays


def make_attention_params(
    arrays: dict[str, np.ndarray],
    alpha: float = 0.25,
    pos_scale: float = 2.0,
    n_heads: int = 1,
) -> AttentionParams:
    """Wrap plain arrays as trainable leaves (handy for standalone use)."""
    return AttentionParams(
        w_query=ad.leaf(arrays["w_query"]),
        w_key=ad.leaf(arrays["w_key"]),
        w_value=ad.leaf(arrays["w_value"]),
        pos_mix=ad.leaf(arrays["pos_mix"]),
        pos_read=ad.leaf(arrays["pos_read"]),
        w_out=ad.leaf(arrays["w_out"]) if "w_out" in arrays else None,
        alpha=alpha,
        pos_scale=pos_scale,
        n_heads=n_heads,
    )


@lru_cache(maxsize=64)
def _decay_profile(n_tokens: int, pos_scale: float) -> np.ndarray:
    """exp(-|i - j| * pos_scale) over positions 0..n_tokens-1 (read-only)."""
    idx = np.arange(n_tokens, dtype=np.float64)
    r = np.exp(-np.abs(idx[:, None] - idx[None, :]) * pos_scale)
    r.setflags(write=False)
    return r


def positional_matrix(n_tokens: int, params: AttentionParams) -> ValueNode:
    """The (n_tokens, m) positional summary R.

    Differentiable through ``pos_mix``/``pos_read`` when a tape is active.
    Otherwise the value is cached per token count, together with the
    ``pos_mix``/``pos_read`` value arrays it was built from; it is reused
    while both are still the current arrays, so inference and benchmarking
    pay the quadratic construction once per parameter version.
    """
    if n_tokens < 1:
        raise InvalidArgumentError("n_tokens must be at least 1")
    if n_tokens > params.n_max:
        raise CapacityError(
            f"{n_tokens} tokens exceed this block's capacity of {params.n_max}"
        )
    taping = active_tape() is not None
    version = (params.pos_mix.value, params.pos_read.value)
    cached = None if taping else params._pos_cache.get(n_tokens)
    if cached is not None and cached[0] is version[0] and cached[1] is version[1]:
        return ad.constant(cached[2])
    profile = ad.constant(_decay_profile(n_tokens, params.pos_scale))
    if n_tokens == params.n_max:
        mix, read = params.pos_mix, params.pos_read
    else:
        mix = ad.slice_cols(ad.slice_rows(params.pos_mix, 0, n_tokens), 0, n_tokens)
        read = ad.slice_rows(params.pos_read, 0, n_tokens)
    mixed = ad.matmul(ad.matmul(mix, profile), ad.transpose(mix))
    out = ad.matmul(mixed, read)
    if not taping:
        params._pos_cache[n_tokens] = (*version, out.value)
    return out


def _mask_tile(mask, n_rows: int, n_cols: int) -> ValueNode:
    mask = np.asarray(mask, dtype=np.float64).reshape(-1)
    if mask.shape[0] != n_rows:
        raise ShapeError(f"mask has {mask.shape[0]} entries for {n_rows} rows")
    if not mask.any():
        raise InvalidArgumentError("mask excludes every row; nothing to write")
    return ad.constant(np.repeat(mask[:, None], n_cols, axis=1))


def _head_cols(a: ValueNode, h: int, n_heads: int) -> ValueNode:
    """Head ``h``'s block of columns; with one head, ``a`` itself (no copy)."""
    if n_heads == 1:
        return a
    width = a.shape[1] // n_heads
    return ad.slice_cols(a, h * width, (h + 1) * width)


def astro_attention(
    x: ValueNode,
    params: AttentionParams,
    use_H_astro: bool = True,
    use_P: bool = True,
    mask=None,
) -> ValueNode:
    """Full attention block: per head, write the summaries, then read them.

    ``mask`` marks valid rows with 1; masked rows contribute nothing to any
    summary.  With ``use_H_astro=False`` the positional pathway is dropped;
    with ``use_P=False`` the per-token normalizer falls back to the plain
    linear-attention denominator phi(q) (sum phi(k))^T / m, which makes the
    double ablation equal textbook linear attention plus the residual.
    Several heads split the m and d axes evenly and ``w_out`` recombines
    them.
    """
    n, d = x.shape
    if d != params.d_model:
        raise ShapeError(f"x has width {d}, parameters expect {params.d_model}")
    heads = params.n_heads
    m_h = params.m_hidden // heads
    k = ad.matmul(x, params.w_key)
    v = ad.matmul(x, params.w_value)
    r = positional_matrix(n, params)
    tile = _mask_tile(mask, n, m_h) if mask is not None else None
    for h in range(heads):
        phi_k = phi(_head_cols(k, h, heads))
        phi_r = phi(_head_cols(r, h, heads))
        if tile is not None:
            phi_k = ad.hadamard(phi_k, tile)
            phi_r = ad.hadamard(phi_r, tile)
        v_h = _head_cols(v, h, heads)
        hebb_keys = ad.scalar_mul(ad.matmul(ad.transpose(phi_k), v_h), 1.0 / m_h)
        hebb_pos = ad.scalar_mul(ad.matmul(ad.transpose(phi_r), v_h), 1.0 / m_h)
        key_mass = ad.col_sum(phi_k)
        key_norm = (
            ad.power(key_mass, params.alpha) if use_P else ad.scalar_mul(key_mass, 1.0 / m_h)
        )
        if h == 0:
            # Project queries only after the first head's write: the reverse
            # sweep then reaches this projection right after the reads
            # instead of holding q's gradient through the whole write.
            q = ad.matmul(x, params.w_query)
        phi_q = phi(_head_cols(q, h, heads))
        feedback = ad.reciprocal(ad.matmul(phi_q, ad.transpose(key_norm)))
        hebb = ad.add(hebb_keys, hebb_pos) if use_H_astro else hebb_keys
        y = ad.matmul(phi_q, hebb)
        y = ad.hadamard(y, ad.broadcast_col(feedback, hebb.shape[1]))
        out = y if h == 0 else ad.concat_cols(out, y)
    if heads > 1:
        out = ad.matmul(out, params.w_out)
    return ad.add(out, x)
