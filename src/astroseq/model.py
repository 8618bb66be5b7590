"""Segment-recurrent classifier built on the linear-cost attention block.

A long token sequence is cut into fixed-length segments.  Each segment is
embedded, a bank of learned memory rows is appended after it, and the
combined matrix runs through post-norm attention/feed-forward blocks.  The
transformed memory rows carry state to the next segment, scaled by a
per-segment retention factor; the classifier head pools the final
segment's valid rows together with the final memory.  ``segments`` is
the one walk: prediction, full backprop and both passes of replay take
it, so the retention factor is applied in one place.

Only the memory rows cross a segment boundary, so a segment's token rows
matter only where a loss or a prediction reads them.  Every block but the
last runs on all rows, because the next block's write reads them all; the
last block reads the memory rows as one row block, then the token rows as
another only where they are wanted (``segment_forward``).  The memory
block reads on its own either way, so every walk yields the same memory
bits whatever token rows it runs.  A walk runs the token rows of the
segments from ``tokens_from`` on: prediction those of T alone, and the
trainer those its loss reads.

A :class:`SegmentBatch` is always a stack of B labeled sequences, ids
(B, T, seg_len) and labels (B,); one sample is a stack of one
(``split_segments``), and ``stack_batches`` joins stacks.  Id ``PAD_ID``
(0) pads a sequence to the segments' capacity and no sequence holds it, so
a row is a real token exactly where its id is not ``PAD_ID``: the model
reads validity from the ids.
Every autodiff primitive acts on the last two axes and carries leading
ones along, so a stack walks the segments as one (B, rows, d) graph: each
sample attends, pools and is scored within its own matrix, while the
parameters, the memory seed and the positional summaries are 2-D and
shared by the whole stack.

Each parameter is itself an autodiff leaf (:class:`Parameter`).  A leaf
belongs to no tape, so one parameter set serves every tape the trainer
records, and each reverse sweep adds straight into the parameters'
gradients, in the order the sweep visits them.  ``segment_forward`` takes
each block's positional features P = phi(R), R being its positional
summary, from its caller, who builds them once per parameter version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import attention
from . import autodiff as ad
from .attention import AttentionParams, astro_attention, init_attention_arrays, uniform_init
from .autodiff import ValueNode
from .errors import InvalidArgumentError, NumericalOverflowError, ShapeError
from .retention import RetentionSchedule
from .seeding import STREAM_DROPOUT, STREAM_INIT, spawn

# The most rows or columns one axis of a model may have.  Every array a
# model builds has at most two such axes (a stack's rows stay near
# STACK_ROWS, and seg_len + mem_tokens is at most twice this), so numpy can
# address it, and one too large for memory raises MemoryError when it is
# allocated, which the CLI reports with exit 2.
MAX_AXIS = 2**28

# The id that pads a sequence out to its segments; no sequence may hold it.
PAD_ID = 0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``seg_len`` counts sequence tokens per segment; ``mem_tokens`` rows are
    appended after them, so each attention block must hold
    ``seg_len + mem_tokens`` tokens.  ``mem_tokens`` may be zero, which
    disables recurrence entirely (every segment then runs independently,
    so each must hold a real token).
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

    def __post_init__(self):
        if self.vocab_size < 2:
            raise InvalidArgumentError("vocab_size must be at least 2")
        if self.n_classes < 2:
            raise InvalidArgumentError("n_classes must be at least 2")
        for name in ("d_model", "m_hidden", "ffn_dim", "n_layers", "seg_len", "n_segments"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be positive")
        for name in ("vocab_size", "n_classes", "d_model", "m_hidden", "ffn_dim", "seg_len",
                     "n_segments", "mem_tokens"):
            if getattr(self, name) > MAX_AXIS:
                raise InvalidArgumentError(
                    f"{name} = {getattr(self, name)} is too large: a model axis holds at most "
                    f"{MAX_AXIS}"
                )
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
        if not (np.isfinite(self.pos_scale) and self.pos_scale >= 0):
            raise InvalidArgumentError(
                f"pos_scale must be finite and non-negative, got {self.pos_scale}"
            )

    @property
    def n_tokens(self) -> int:
        """Rows per attention call: segment tokens plus memory rows."""
        return self.seg_len + self.mem_tokens


class Parameter(ValueNode):
    """A named trainable matrix: an autodiff leaf with a persistent gradient.

    Every sweep that reaches it adds into ``grad``, until ``zero_grad``.
    An update replaces ``value`` with a new array and never writes into the
    old one, so a recorded tape, or a positional summary built from the old
    version, keeps the values it was made from.
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
    """A stack of B sequences, each split into per-segment id rows padded
    with ``PAD_ID``, with one label per sample."""

    ids: np.ndarray    # (B, n_segments, seg_len) int64
    label: np.ndarray  # (B,) int64

    @property
    def n_segments(self) -> int:
        return self.ids.shape[1]


def stack_batches(batches: Sequence[SegmentBatch]) -> SegmentBatch:
    """Join stacks along the sample axis.  They must share (n_segments,
    seg_len)."""
    if not batches:
        raise InvalidArgumentError("cannot stack zero sequences")
    shapes = sorted({b.ids.shape[1:] for b in batches})
    if len(shapes) > 1:
        raise InvalidArgumentError(f"cannot stack samples of (n_segments, seg_len) {shapes}")
    return SegmentBatch(
        ids=np.concatenate([b.ids for b in batches]),
        label=np.concatenate([b.label for b in batches]),
    )


def split_segments(tokens, seg_len: int, n_segments: int, label: int) -> SegmentBatch:
    """Right-pad a token sequence with ``PAD_ID`` and cut it into
    ``n_segments`` rows: a stack of one, ids (1, n_segments, seg_len) and
    label (1,).

    A sequence holding ``PAD_ID`` is rejected, so the padding is exactly
    the positions past the sequence's length.  Sequences longer than
    ``seg_len * n_segments`` are rejected rather than truncated.
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
    if np.any(tokens == PAD_ID):
        raise InvalidArgumentError(f"sequence contains the pad id {PAD_ID}")
    ids = np.full(capacity, PAD_ID, dtype=np.int64)
    ids[: tokens.size] = tokens
    return SegmentBatch(
        ids=ids.reshape(1, n_segments, seg_len), label=np.array([label], dtype=np.int64)
    )


def _segment_rng(drop_seed, t: int):
    """Segment t's dropout generators, one per stacked sample, from a list
    of one seed each (or None).  A tuple seed scopes its generator further
    (e.g. (master, epoch, sample)) while staying replay-stable."""
    if drop_seed is None:
        return None
    seeds = [seed if isinstance(seed, tuple) else (seed,) for seed in drop_seed]
    return [spawn(head, STREAM_DROPOUT, *rest, t) for head, *rest in seeds]


class SegmentModel:
    """Parameter store plus the forward graph builders."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = spawn(seed, STREAM_INIT)
        d, cfg = config.d_model, config
        self._add("embed", uniform_init(rng, cfg.vocab_size, d, d), decay=False)
        self._add("mem_init", uniform_init(rng, cfg.mem_tokens, d, d), decay=False)
        attn = []
        for i in range(cfg.n_layers):
            attn_arrays = init_attention_arrays(
                d, cfg.m_hidden, cfg.n_tokens, rng, n_heads=cfg.n_heads
            )
            for key, arr in attn_arrays.items():
                self._add(f"block{i}.attn.{key}", arr, decay=True)
            attn.append(AttentionParams(
                **{key: self.params[f"block{i}.attn.{key}"] for key in attn_arrays},
                alpha=cfg.alpha, pos_scale=cfg.pos_scale, n_heads=cfg.n_heads,
            ))
            self._add(f"block{i}.norm_attn.gain", np.ones((1, d)), decay=False)
            self._add(f"block{i}.norm_attn.bias", np.zeros((1, d)), decay=False)
            self._add(f"block{i}.ffn.w_in", uniform_init(rng, d, cfg.ffn_dim, d), decay=True)
            self._add(f"block{i}.ffn.b_in", np.zeros((1, cfg.ffn_dim)), decay=False)
            self._add(
                f"block{i}.ffn.w_out", uniform_init(rng, cfg.ffn_dim, d, cfg.ffn_dim), decay=True
            )
            self._add(f"block{i}.ffn.b_out", np.zeros((1, d)), decay=False)
            self._add(f"block{i}.norm_ffn.gain", np.ones((1, d)), decay=False)
            self._add(f"block{i}.norm_ffn.bias", np.zeros((1, d)), decay=False)
        self._add("head.w", uniform_init(rng, d, cfg.n_classes, d), decay=True)
        self._add("head.b", np.zeros((1, cfg.n_classes)), decay=False)
        self.attn = tuple(attn)

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

    def _keep(self, rng, shape: tuple[int, int]) -> np.ndarray | None:
        """A dropout keep-mask of ``shape`` per stacked sample, scaled by
        1 / (1 - rate), each drawn from its sample's own generator; None
        when dropout is off."""
        rate = self.config.dropout
        if rng is None or rate == 0.0:
            return None
        draw = np.stack([r.random(shape) for r in rng])
        return (draw >= rate).astype(np.float64) / (1.0 - rate)

    def _tail(self, i: int, a: ValueNode, keep, start: int, stop: int) -> ValueNode:
        """Block i's row-wise tail on rows [start, stop) of its attention
        output ``a``: dropout, layer norm, FFN, dropout, residual, layer
        norm.  ``keep`` holds the block's two dropout masks over all rows."""
        p = self.params

        def dropout(node, mask):
            return node if mask is None else ad.hadamard(node, ad.constant(mask[:, start:stop]))

        h1 = ad.layer_norm(
            dropout(a, keep[0]), p[f"block{i}.norm_attn.gain"], p[f"block{i}.norm_attn.bias"]
        )
        f = ad.relu(ad.add_bias(ad.matmul(h1, p[f"block{i}.ffn.w_in"]), p[f"block{i}.ffn.b_in"]))
        f = dropout(f, keep[1])
        f = ad.add_bias(ad.matmul(f, p[f"block{i}.ffn.w_out"]), p[f"block{i}.ffn.b_out"])
        return ad.layer_norm(
            ad.add(h1, f), p[f"block{i}.norm_ffn.gain"], p[f"block{i}.norm_ffn.bias"]
        )

    def _with_memory(self, ids: np.ndarray) -> np.ndarray:
        """A segment's validity: 1 for each of its ``ids`` that is not
        ``PAD_ID``, then 1 for each memory row."""
        ones = np.ones(ids.shape[:-1] + (self.config.mem_tokens,))
        return np.concatenate([ids != PAD_ID, ones], axis=-1)

    def positional(self) -> tuple[ValueNode, ...]:
        """Each block's positional features P = phi(R) (taped when a tape is
        active)."""
        return tuple(attention.positional_matrix(self.config.n_tokens, a) for a in self.attn)

    def segment_forward(
        self,
        ids,
        memory: ValueNode,
        pos: tuple[ValueNode, ...],
        drop_rng=None,
        *,
        tokens: bool = True,
    ) -> tuple[ValueNode | None, ValueNode]:
        """Run one segment; returns (token rows, raw memory rows).

        ``ids`` are (B, seg_len), one row per stacked sample, and the rows
        come back (B, ·, d).  ``memory`` is the carried state entering this
        segment, (mem_tokens, d) shared by the stack or (B, mem_tokens, d);
        the returned memory is unscaled (``segments`` applies the retention
        factor).  ``pos`` holds each block's P, as ``positional`` builds
        it.  The attention mask is 1 where an id is not ``PAD_ID`` and on
        every memory row.  Dropout is applied only when ``drop_rng`` is
        given (training): a list of B generators, one per sample, seeded
        per segment so a replayed forward reproduces the same masks.

        Every block but the last runs on all rows, because the next
        block's write reads them all.  The last block writes all rows,
        then reads them and runs its tail as row blocks: the memory rows,
        then, if ``tokens``, the token rows; without ``tokens`` the token
        rows come back None.  The memory block reads on its own, so its
        rows come out bit for bit the same whether or not the token rows
        run.  It runs first: the reverse sweep then holds its small
        gradient, not the token block's, while it sweeps the other block.
        With no memory rows the memory block is empty and nothing crosses
        the boundary, so without ``tokens`` no block runs and ``memory``
        comes back as given.
        """
        cfg = self.config
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != cfg.seg_len:
            raise ShapeError(f"segment needs (B, {cfg.seg_len}) ids, got shape {ids.shape}")
        lead = memory.shape[:-2]
        if memory.shape[-2:] != (cfg.mem_tokens, cfg.d_model) or lead not in ((), ids.shape[:-1]):
            raise ShapeError(
                f"memory must be {(cfg.mem_tokens, cfg.d_model)} per sample, got {memory.shape}"
            )
        if not (tokens or cfg.mem_tokens):
            return None, memory
        n, s, last = cfg.n_tokens, cfg.seg_len, len(self.attn) - 1
        blocks = [(s, n), (0, s)] if tokens else [(s, n)]
        h = ad.concat_rows(ad.embedding_rows(self.params["embed"], ids), memory)
        full_mask = self._with_memory(ids)
        for i, (attn_params, r) in enumerate(zip(self.attn, pos, strict=True)):
            # Each mask is drawn over all rows, so the generator advances
            # alike whichever rows run.
            keep = [self._keep(drop_rng, (n, width)) for width in (cfg.d_model, cfg.ffn_dim)]
            spans = blocks if i == last else [(0, n)]
            reads = astro_attention(h, attn_params, r, mask=full_mask, blocks=spans)
            outs = [self._tail(i, a, keep, *span) for a, span in zip(reads, spans)]
            h = outs[0]
        return (outs[1] if tokens else None), outs[0]

    def classify(self, out_rows: ValueNode, memory: ValueNode, ids) -> ValueNode:
        """Logits (B, 1, n_classes) from mean-pooling each sample's valid
        rows of the segment whose ``ids`` (B, seg_len) made ``out_rows``,
        and its memory rows."""
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != cfg.seg_len:
            raise ShapeError(f"ids must be (B, {cfg.seg_len}), got {ids.shape}")
        weights = self._with_memory(ids)
        total = weights.sum(axis=-1, keepdims=True)
        if (total <= 0).any():
            raise InvalidArgumentError("nothing to pool: only padding and no memory rows")
        pool = ad.constant((weights / total)[..., None, :])
        pooled = ad.matmul(pool, ad.concat_rows(out_rows, memory))
        return ad.add_bias(ad.matmul(pooled, self.params["head.w"]), self.params["head.b"])

    def segments(
        self,
        batch: SegmentBatch,
        schedule: RetentionSchedule,
        pos: tuple[ValueNode, ...],
        drop_seed=None,
        start: int = 1,
        memory: ValueNode | None = None,
        tokens_from: int = 1,
    ) -> Iterator[tuple[int, ValueNode | None, ValueNode]]:
        """Walk segments ``start..T``; yields (t, token rows, memory rows
        scaled by segment t's retention factor).

        ``memory`` enters segment ``start`` (default: ``mem_init``) and
        ``pos`` holds each block's P.  Segment t's dropout generator is
        seeded from ``drop_seed`` and t alone, so a walk resumed at t from
        the memory yielded at t-1 repeats the full walk's segment t.
        ``drop_seed`` is a list of one seed per stacked sample.  Segments
        from ``tokens_from`` on run their token rows (see
        ``segment_forward``); before it they come back None.  Ops record
        on the active tape, if any.
        """
        T = batch.n_segments
        if schedule.n_segments != T:
            raise InvalidArgumentError(
                f"schedule covers {schedule.n_segments} segments, batch has {T}"
            )
        B = len(batch.ids)
        if drop_seed is not None and (not isinstance(drop_seed, list) or len(drop_seed) != B):
            raise InvalidArgumentError(f"a stack of {B} samples takes a list of {B} dropout seeds")
        mem = self.params["mem_init"] if memory is None else memory
        for t in range(start, T + 1):
            ids = batch.ids[:, t - 1]
            if not self.config.mem_tokens and (ids == PAD_ID).all(axis=-1).any():
                raise InvalidArgumentError(
                    f"segment {t} holds only padding and mem_tokens = 0 leaves it "
                    "no row to attend over; set mem_tokens > 0 or fewer segments"
                )
            out, mem_raw = self.segment_forward(
                ids, mem, pos, _segment_rng(drop_seed, t), tokens=t >= tokens_from
            )
            mem = ad.scalar_mul(mem_raw, schedule.factor(t))
            yield t, out, mem

    def predict(
        self, batch: SegmentBatch, schedule: RetentionSchedule, pos
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tape-free rollout over all segments under ``schedule``, with P
        from ``positional``; returns (B,) labels and (B, 1, n_classes)
        logits.  Only segment T's token rows are read, so only they run."""
        *_, (_, out, mem) = self.segments(batch, schedule, pos, tokens_from=batch.n_segments)
        logits = self.classify(out, mem, batch.ids[:, -1]).value
        if not np.isfinite(logits).all():
            raise NumericalOverflowError("logits")
        return logits.argmax(axis=-1)[:, 0], logits.copy()
