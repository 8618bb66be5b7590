"""Segment-recurrent classifier built on the linear-cost attention block.

A long token sequence is cut into fixed-length segments.  Each segment is
embedded, a bank of learned memory rows is appended after it, and the
combined matrix runs through post-norm attention/feed-forward blocks.  The
transformed memory rows carry state to the next segment, scaled by a
per-segment retention factor; the classifier head pools the final
segment's valid rows together with the final memory.

Each parameter is itself an autodiff leaf (:class:`Parameter`).  A leaf
belongs to no tape, so one parameter set serves every tape the trainer
records, and each reverse sweep adds straight into the parameters'
gradients, in the order the sweep visits them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, astro_attention, init_attention_arrays
from .autodiff import ValueNode
from .errors import InvalidArgumentError, NumericalOverflowError, ShapeError
from .retention import RetentionSchedule, uniform_schedule
from .seeding import STREAM_INIT, spawn


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``seg_len`` counts sequence tokens per segment; ``mem_tokens`` rows are
    appended after them, so each attention block must hold
    ``seg_len + mem_tokens`` tokens.  ``mem_tokens`` may be zero, which
    disables recurrence entirely (every segment then runs independently).
    """

    vocab_size: int
    n_classes: int
    d_model: int = 32
    m_hidden: int = 16
    n_heads: int = 1
    ffn_dim: int = 64
    n_layers: int = 1
    seg_len: int = 16
    n_segments: int = 2
    mem_tokens: int = 2
    dropout: float = 0.0
    alpha: float = 0.25
    pos_scale: float = 2.0
    pad_id: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise InvalidArgumentError("vocab_size must be at least 2")
        if self.n_classes < 2:
            raise InvalidArgumentError("n_classes must be at least 2")
        for name in ("d_model", "m_hidden", "ffn_dim", "n_layers", "seg_len", "n_segments"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.mem_tokens < 0:
            raise InvalidArgumentError("mem_tokens must be non-negative")
        if self.n_heads < 1:
            raise InvalidArgumentError("n_heads must be at least 1")
        if self.m_hidden % self.n_heads or self.d_model % self.n_heads:
            raise InvalidArgumentError(
                f"n_heads={self.n_heads} must divide m_hidden={self.m_hidden} "
                f"and d_model={self.d_model}"
            )
        if not (0.0 <= self.dropout < 1.0):
            raise InvalidArgumentError("dropout must be in [0, 1)")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidArgumentError("alpha must be in (0, 1]")
        if self.pos_scale < 0:
            raise InvalidArgumentError("pos_scale must be non-negative")
        if not (0 <= self.pad_id < self.vocab_size):
            raise InvalidArgumentError("pad_id must be a valid vocabulary id")

    @property
    def n_tokens(self) -> int:
        """Rows per attention call: segment tokens plus memory rows."""
        return self.seg_len + self.mem_tokens

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidArgumentError(f"bad model config: {exc}") from exc


class Parameter(ValueNode):
    """A named trainable matrix: an autodiff leaf with a persistent gradient.

    Every sweep that reaches it adds into ``grad``, until ``zero_grad``.
    An update replaces ``value`` with a new array and never writes into the
    old one: the tape-free positional cache recognises a parameter version
    by the identity of its value array.
    """

    __slots__ = ("name", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.decay = decay

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape}, decay={self.decay})"


@dataclass(frozen=True)
class SegmentBatch:
    """One sequence split into per-segment id and validity-mask rows."""

    ids: np.ndarray          # (n_segments, seg_len) int64
    mask: np.ndarray         # (n_segments, seg_len) float64, 1 = real token
    label: int | None = None
    length: int = 0          # original token count before padding

    @property
    def n_segments(self) -> int:
        return self.ids.shape[0]


def split_segments(
    tokens,
    seg_len: int,
    n_segments: int,
    pad_id: int = 0,
    label: int | None = None,
) -> SegmentBatch:
    """Right-pad a token sequence and cut it into ``n_segments`` rows.

    The validity mask is positional (derived from the original length), so
    the pad id never needs to appear in the data alphabet.  Sequences
    longer than ``seg_len * n_segments`` are rejected rather than
    truncated.
    """
    tokens = np.asarray(tokens, dtype=np.int64).ravel()
    if seg_len < 1 or n_segments < 1:
        raise InvalidArgumentError("seg_len and n_segments must be positive")
    capacity = seg_len * n_segments
    if tokens.size == 0:
        raise InvalidArgumentError("cannot split an empty sequence")
    if tokens.size > capacity:
        raise InvalidArgumentError(
            f"sequence of {tokens.size} tokens exceeds capacity {capacity}"
        )
    if np.any(tokens == pad_id):
        raise InvalidArgumentError(f"sequence contains the pad id {pad_id}")
    ids = np.full((n_segments, seg_len), pad_id, dtype=np.int64)
    mask = np.zeros((n_segments, seg_len), dtype=np.float64)
    flat_ids = ids.reshape(-1)
    flat_mask = mask.reshape(-1)
    flat_ids[: tokens.size] = tokens
    flat_mask[: tokens.size] = 1.0
    return SegmentBatch(ids=ids, mask=mask, label=label, length=int(tokens.size))


class SegmentModel:
    """Parameter store plus the forward graph builders."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = spawn(seed, STREAM_INIT)
        d, cfg = config.d_model, config

        def uniform(rows, cols, fan):
            bound = 1.0 / np.sqrt(fan)
            return rng.uniform(-bound, bound, size=(rows, cols))

        self._add("embed", uniform(cfg.vocab_size, d, d), decay=False)
        self._add("mem_init", uniform(cfg.mem_tokens, d, d), decay=False)
        for i in range(cfg.n_layers):
            attn_arrays = init_attention_arrays(
                d, cfg.m_hidden, cfg.n_tokens, rng, n_heads=cfg.n_heads
            )
            for key, arr in attn_arrays.items():
                self._add(f"block{i}.attn.{key}", arr, decay=True)
            self._add(f"block{i}.norm_attn.gain", np.ones((1, d)), decay=False)
            self._add(f"block{i}.norm_attn.bias", np.zeros((1, d)), decay=False)
            self._add(f"block{i}.ffn.w_in", uniform(d, cfg.ffn_dim, d), decay=True)
            self._add(f"block{i}.ffn.b_in", np.zeros((1, cfg.ffn_dim)), decay=False)
            self._add(f"block{i}.ffn.w_out", uniform(cfg.ffn_dim, d, cfg.ffn_dim), decay=True)
            self._add(f"block{i}.ffn.b_out", np.zeros((1, d)), decay=False)
            self._add(f"block{i}.norm_ffn.gain", np.ones((1, d)), decay=False)
            self._add(f"block{i}.norm_ffn.bias", np.zeros((1, d)), decay=False)
        self._add("head.w", uniform(d, cfg.n_classes, d), decay=True)
        self._add("head.b", np.zeros((1, cfg.n_classes)), decay=False)
        p = self.params
        self.attn = tuple(
            AttentionParams(
                w_query=p[f"block{i}.attn.w_query"],
                w_key=p[f"block{i}.attn.w_key"],
                w_value=p[f"block{i}.attn.w_value"],
                pos_mix=p[f"block{i}.attn.pos_mix"],
                pos_read=p[f"block{i}.attn.pos_read"],
                w_out=p.get(f"block{i}.attn.w_out"),
                alpha=cfg.alpha,
                pos_scale=cfg.pos_scale,
                n_heads=cfg.n_heads,
            )
            for i in range(cfg.n_layers)
        )

    def _add(self, name: str, value: np.ndarray, decay: bool) -> None:
        if name in self.params:
            raise InvalidArgumentError(f"duplicate parameter name {name!r}")
        self.params[name] = Parameter(name, value, decay)

    # -- bookkeeping --------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        return iter(self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values, keyed by name."""
        return {name: p.value.copy() for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise InvalidArgumentError(
                f"parameter name mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise ShapeError(
                    f"parameter {name!r}: expected {p.value.shape}, got {arr.shape}"
                )
            p.value = arr.copy()
            p.zero_grad()

    # -- graph builders -----------------------------------------------------

    def _dropout(self, node: ValueNode, rng) -> ValueNode:
        rate = self.config.dropout
        if rng is None or rate == 0.0:
            return node
        keep = (rng.random(node.shape) >= rate).astype(np.float64) / (1.0 - rate)
        return ad.hadamard(node, ad.constant(keep))

    def segment_forward(
        self,
        ids,
        mask,
        memory: ValueNode,
        drop_rng=None,
    ) -> tuple[ValueNode, ValueNode]:
        """Run one segment; returns (token rows, raw memory rows).

        ``memory`` is the carried state entering this segment; the returned
        memory is unscaled (the caller applies the retention factor).
        Memory rows are always valid in the attention mask.  Dropout is
        applied only when ``drop_rng`` is given (training); it must be a
        generator seeded per segment so a replayed forward reproduces the
        same masks.
        """
        cfg = self.config
        ids = np.asarray(ids, dtype=np.int64).ravel()
        mask = np.asarray(mask, dtype=np.float64).ravel()
        if ids.shape[0] != cfg.seg_len or mask.shape[0] != cfg.seg_len:
            raise ShapeError(
                f"segment needs {cfg.seg_len} ids and mask entries, "
                f"got {ids.shape[0]} and {mask.shape[0]}"
            )
        if memory.shape != (cfg.mem_tokens, cfg.d_model):
            raise ShapeError(
                f"memory must be {(cfg.mem_tokens, cfg.d_model)}, got {memory.shape}"
            )
        p = self.params
        x = ad.embedding_rows(p["embed"], ids)
        h = ad.concat_rows(x, memory)
        full_mask = np.concatenate([mask, np.ones(cfg.mem_tokens)])
        for i, attn_params in enumerate(self.attn):
            a = astro_attention(h, attn_params, mask=full_mask)
            a = self._dropout(a, drop_rng)
            h1 = ad.layer_norm(
                a, p[f"block{i}.norm_attn.gain"], p[f"block{i}.norm_attn.bias"]
            )
            f = ad.relu(
                ad.add_bias(ad.matmul(h1, p[f"block{i}.ffn.w_in"]), p[f"block{i}.ffn.b_in"])
            )
            f = self._dropout(f, drop_rng)
            f = ad.add_bias(ad.matmul(f, p[f"block{i}.ffn.w_out"]), p[f"block{i}.ffn.b_out"])
            h = ad.layer_norm(
                ad.add(h1, f),
                p[f"block{i}.norm_ffn.gain"],
                p[f"block{i}.norm_ffn.bias"],
            )
        out = ad.slice_rows(h, 0, cfg.seg_len)
        mem_out = ad.slice_rows(h, cfg.seg_len, cfg.n_tokens)
        return out, mem_out

    def classify(self, out_rows: ValueNode, memory: ValueNode, mask) -> ValueNode:
        """Logits from mean-pooling valid final-segment rows and memory rows."""
        cfg = self.config
        mask = np.asarray(mask, dtype=np.float64).ravel()
        if mask.shape[0] != cfg.seg_len:
            raise ShapeError(f"mask needs {cfg.seg_len} entries, got {mask.shape[0]}")
        weights = np.concatenate([mask, np.ones(cfg.mem_tokens)])
        total = weights.sum()
        if total <= 0:
            raise InvalidArgumentError("nothing to pool: empty mask and no memory rows")
        pool = ad.constant((weights / total)[None, :])
        pooled = ad.matmul(pool, ad.concat_rows(out_rows, memory))
        return ad.add_bias(ad.matmul(pooled, self.params["head.w"]), self.params["head.b"])

    def predict(
        self, batch: SegmentBatch, schedule: RetentionSchedule | None = None
    ) -> tuple[int, np.ndarray]:
        """Tape-free rollout over all segments; returns (label, logits row)."""
        T = batch.n_segments
        if schedule is None:
            schedule = uniform_schedule(T)
        if schedule.n_segments != T:
            raise InvalidArgumentError(
                f"schedule covers {schedule.n_segments} segments, batch has {T}"
            )
        mem = self.params["mem_init"]
        out = None
        for t in range(1, T + 1):
            out, mem_raw = self.segment_forward(batch.ids[t - 1], batch.mask[t - 1], mem)
            mem = ad.scalar_mul(mem_raw, schedule.factor(t))
        logits = self.classify(out, mem, batch.mask[-1]).value
        if not np.isfinite(logits).all():
            raise NumericalOverflowError("logits")
        return int(np.argmax(logits)), logits.copy()
