"""Gradient computation over segment rollouts, two ways, plus AdamW.

``bptt_rollout`` records the whole multi-segment forward on one tape and
runs a single reverse sweep: exact gradients, activation storage growing
with the number of segments.

``amrb_rollout`` computes the same gradients with bounded storage.  A
tape-free forward keeps only the memory matrix entering each segment (the
replay buffer).  Walking segments last to first, it replays one segment on
a fresh tape with the buffered memory as a detached leaf, and makes one
reverse sweep from up to two roots: that segment's loss, if it has one,
and the replayed memory output seeded with the gradient flowing in from
the *later* segment.  The gradient reaching the memory leaf becomes the
injection for the segment before it.

The parameters are the autodiff leaves, so both rollouts add each
gradient straight into ``model.params[...].grad``.  Replay visits the
operations in the order the single BPTT sweep does, so the two give the
same gradients bit for bit.

Per-rollout reports count float64 activation storage: what the forward
retains for backward (tape contents for BPTT, the replay buffer for
AMRB), and the peak alive during the backward phase (retained storage
plus transient gradient matrices; for AMRB, the buffer plus one segment's
tape).  Parameter values, their gradient accumulators, and optimizer
moments are identical between the two algorithms and are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError, TrainingAbortError
from .model import SegmentBatch, SegmentModel
from .retention import RetentionSchedule
from .seeding import STREAM_DROPOUT, spawn

LossFn = Callable[[int, ad.ValueNode, ad.ValueNode, np.ndarray], "ad.ValueNode | None"]


@dataclass(frozen=True)
class GradReport:
    """What one rollout computed and what it cost.

    ``seg_losses[t-1]`` is segment t's loss value (0.0 where the loss
    function returned None).
    """

    seg_losses: tuple[float, ...]
    total_loss: float
    forward_peak: int
    backward_peak: int
    replay_floats: int

    def memory_report(self) -> dict:
        return {
            "forward_peak_floats": self.forward_peak,
            "backward_peak_floats": self.backward_peak,
            "replay_buffer_bytes": self.replay_floats * 8,
        }


def classification_loss(model: SegmentModel, batch: SegmentBatch, mode: str = "final") -> LossFn:
    """Cross-entropy against the batch label.

    ``final`` scores only the last segment; ``per_segment`` scores every
    segment against the same label (deep supervision), summed without
    rescaling.
    """
    if mode not in ("final", "per_segment"):
        raise InvalidArgumentError(f"unknown loss mode {mode!r}")
    if batch.label is None:
        raise InvalidArgumentError("batch has no label to train against")
    T = batch.n_segments

    def loss_fn(t, out, mem, mask):
        if mode == "final" and t < T:
            return None
        logits = model.classify(out, mem, mask)
        return ad.cross_entropy(logits, [batch.label])

    return loss_fn


def _check_rollout_args(model: SegmentModel, batch: SegmentBatch, schedule: RetentionSchedule):
    T = batch.n_segments
    if schedule.n_segments != T:
        raise InvalidArgumentError(
            f"schedule covers {schedule.n_segments} segments, batch has {T}"
        )
    if batch.ids.shape[1] != model.config.seg_len:
        raise InvalidArgumentError(
            f"batch segments hold {batch.ids.shape[1]} tokens, model expects "
            f"{model.config.seg_len}"
        )
    return T


def _segment_rng(drop_seed, t: int):
    """Per-segment dropout generator; a tuple seed scopes it further
    (e.g. (master, epoch, sample)) while staying replay-stable."""
    if drop_seed is None:
        return None
    if isinstance(drop_seed, tuple):
        head, *rest = drop_seed
        return spawn(head, STREAM_DROPOUT, *rest, t)
    return spawn(drop_seed, STREAM_DROPOUT, t)


def bptt_rollout(
    model: SegmentModel,
    batch: SegmentBatch,
    schedule: RetentionSchedule,
    loss_fn: LossFn,
    drop_seed=None,
) -> GradReport:
    """Exact reference: one tape across all segments, one reverse sweep."""
    T = _check_rollout_args(model, batch, schedule)
    seg_losses = [0.0] * T
    with ad.Tape() as tape:
        mem = model.params["mem_init"]
        total = None
        for t in range(1, T + 1):
            out, mem_raw = model.segment_forward(
                batch.ids[t - 1],
                batch.mask[t - 1],
                mem,
                drop_rng=_segment_rng(drop_seed, t),
            )
            mem = ad.scalar_mul(mem_raw, schedule.factor(t))
            node = loss_fn(t, out, mem, batch.mask[t - 1])
            if node is not None:
                seg_losses[t - 1] = float(node.value[0, 0])
                total = node if total is None else ad.add(total, node)
        if total is None:
            raise InvalidArgumentError("loss function produced no loss for any segment")
    forward_peak = tape.stored_floats
    pending_peak = ad.backward(total)
    return GradReport(
        seg_losses=tuple(seg_losses),
        total_loss=float(sum(seg_losses)),
        forward_peak=forward_peak,
        backward_peak=forward_peak + pending_peak,
        replay_floats=0,
    )


def amrb_rollout(
    model: SegmentModel,
    batch: SegmentBatch,
    schedule: RetentionSchedule,
    loss_fn: LossFn,
    drop_seed=None,
) -> GradReport:
    """Replay-based gradients: bounded storage, same result as BPTT."""
    T = _check_rollout_args(model, batch, schedule)
    cfg = model.config

    # Forward, tape-free: remember only what enters each segment.
    replay = [model.params["mem_init"].value.copy()]
    for t in range(1, T):
        _, mem_raw = model.segment_forward(
            batch.ids[t - 1],
            batch.mask[t - 1],
            ad.constant(replay[-1]),
            drop_rng=_segment_rng(drop_seed, t),
        )
        replay.append(mem_raw.value * schedule.factor(t))
    replay_floats = T * cfg.mem_tokens * cfg.d_model

    # Backward, last segment first, one tape per segment.
    seg_losses = [0.0] * T
    grad_mem_next: np.ndarray | None = None
    backward_peak = 0
    saw_loss = False
    for t in range(T, 0, -1):
        with ad.Tape() as tape:
            mem_in = ad.leaf(replay[t - 1])
            out, mem_raw = model.segment_forward(
                batch.ids[t - 1],
                batch.mask[t - 1],
                mem_in,
                drop_rng=_segment_rng(drop_seed, t),
            )
            mem_scaled = ad.scalar_mul(mem_raw, schedule.factor(t))
            loss_node = loss_fn(t, out, mem_scaled, batch.mask[t - 1])
        roots = []
        if loss_node is not None:
            saw_loss = True
            seg_losses[t - 1] = float(loss_node.value[0, 0])
            roots.append((loss_node, None))
        if grad_mem_next is not None and grad_mem_next.size > 0:
            roots.append((mem_scaled, grad_mem_next))
        pending_peak = ad.backward(*roots[0], more=roots[1:]) if roots else 0
        grad_mem_next = mem_in.grad
        backward_peak = max(backward_peak, replay_floats + tape.stored_floats + pending_peak)
    if not saw_loss:
        raise InvalidArgumentError("loss function produced no loss for any segment")

    model.params["mem_init"].grad[...] += grad_mem_next
    return GradReport(
        seg_losses=tuple(seg_losses),
        total_loss=float(sum(seg_losses)),
        forward_peak=replay_floats,
        backward_peak=backward_peak,
        replay_floats=replay_floats,
    )


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Decay applies only to parameters flagged ``decay`` (matrices, not
    biases, gains, embeddings, or the memory seed).  ``grad_clip``
    rescales the whole gradient vector when its global norm exceeds the
    limit.  Non-finite gradients abort with the offending parameter name.
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float | None = None,
    ):
        self.params = list(params)
        if not self.params:
            raise InvalidArgumentError("optimizer needs at least one parameter")
        if lr <= 0:
            raise InvalidArgumentError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise InvalidArgumentError("betas must lie in [0, 1)")
        if grad_clip is not None and grad_clip <= 0:
            raise InvalidArgumentError("grad_clip must be positive")
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.grad_clip = grad_clip
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value) for p in self.params}
        self._v = {p.name: np.zeros_like(p.value) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            if not np.isfinite(p.grad).all():
                raise TrainingAbortError(p.name)
        scale = 1.0
        if self.grad_clip is not None:
            norm = float(np.sqrt(sum(float((p.grad**2).sum()) for p in self.params)))
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for p in self.params:
            g = p.grad * scale
            m = self._m[p.name]
            v = self._v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if p.decay and self.weight_decay:
                update = update + self.weight_decay * p.value
            # A new array, never an in-place write (see ``Parameter``).
            p.value = p.value - self.lr * update
