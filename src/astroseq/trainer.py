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

Both take a stack of B sequences (``SegmentBatch``; one sample is a
stack of one).  A stack's loss is the sum of its samples' losses, so its
gradients are the sum of its samples' one-sample gradients, and a step
of B samples can run as one stacked rollout instead of B.

Both take each block's positional features P = phi(R), R being its
positional summary, as a leaf from a :class:`PositionalStep`, built once per
optimizer step (a rollout called without one is a step of one sample), so
no segment tape rebuilds R or applies phi to it.

Replay's forward and each replayed segment, like BPTT's forward, walk
``SegmentModel.segments``, which applies the retention factor.  The
parameters are the autodiff leaves, so both rollouts add each gradient
straight into ``model.params[...].grad``.  Replay visits the
operations in the order the single BPTT sweep does, so the two give the
same gradients bit for bit.

Both take their loss from ``classification_loss``.  Replay runs the
token rows only where the loss reads them: its tape-free forward never
does, and its replays run them from the loss's ``tokens_from`` on (T
under ``final``, every segment under ``per_segment``).  BPTT walks every
row of every segment and never reads the loss for it: it is replay's
oracle and the storage baseline replay is measured against (the gate's
C2).  The last block reads a segment's memory rows as their own row
block on every walk, so they come out the same bits whether or not the
token rows run, and replay's sweep never reaches a token block BPTT ran
and replay skipped: the skip changes no gradient bit.  Under
``per_segment`` the two row blocks add ops against reading all rows in
one piece, as the model once did, while replay's forward no longer runs
token rows.

Per-rollout reports count float64 activation storage: what the forward
retains for backward (tape contents for BPTT, the replay buffer for
AMRB), and the peak alive during the backward phase (retained storage
plus transient gradient matrices; for AMRB, the buffer plus one segment's
tape; for both, the step's P build and P's gradient).  Parameter values,
their gradient accumulators, and optimizer moments are identical between
the two algorithms and are not counted.  The counts hold recorded values
(``Tape.stored_floats``); they leave out inputs, leaves and constants, of
which the n x n decay profile of each layer's R build is the largest, and
per-row statistics, so a rollout's real peak sits somewhat above them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError, TrainingAbortError
from .model import SegmentBatch, SegmentModel
from .retention import RetentionSchedule

@dataclass(frozen=True)
class GradReport:
    """What one rollout computed and what it cost.

    ``seg_losses[t-1]`` is segment t's loss summed over the stack (0.0
    where the loss function returned None); the float counts are the stack's.
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


def classification_loss(model: SegmentModel, batch: SegmentBatch, mode: str = "final"):
    """Cross-entropy of each stacked sample against its label.

    ``final`` scores only the last segment; ``per_segment`` scores every
    segment against the same label (deep supervision), summed without
    rescaling.  The returned function maps (t, token rows, scaled memory
    rows) to segment t's loss node, one loss per sample, (B, 1, 1), or
    None; it carries ``mode``, from which the rollouts pick their rows.
    """
    if mode not in ("final", "per_segment"):
        raise InvalidArgumentError(f"unknown loss mode {mode!r}")
    T = batch.n_segments

    def loss_fn(t, out, mem):
        if mode == "final" and t < T:
            return None
        logits = model.classify(out, mem, batch.ids[:, t - 1])
        return ad.cross_entropy(logits, batch.label)

    loss_fn.tokens_from = T if mode == "final" else 1
    return loss_fn


class PositionalStep:
    """Each block's P = phi(R), built on its own tape once per optimizer
    step; the step's rollouts add into the ``leaves``' gradients, and
    ``backward`` sweeps their sums through the build, phi included, once,
    into the parameters."""

    def __init__(self, model: SegmentModel):
        with ad.Tape() as tape:
            self._built = model.positional()
        self.leaves = tuple(ad.leaf(p.value) for p in self._built)
        # Alive from the build to its sweep: its tape plus P's gradients.
        self.floats = tape.stored_floats + sum(p.value.size for p in self._built)

    def backward(self) -> None:
        roots = [(p, leaf.grad) for p, leaf in zip(self._built, self.leaves)]
        ad.backward(*roots[0], more=roots[1:])


def bptt_rollout(
    model: SegmentModel,
    batch: SegmentBatch,
    schedule: RetentionSchedule,
    loss_fn,
    drop_seed=None,
    step: PositionalStep | None = None,
) -> GradReport:
    """Exact reference: one tape across all segments, one reverse sweep,
    over every row of every segment, whatever rows the loss reads."""
    T = batch.n_segments
    own_step, step = step is None, step or PositionalStep(model)
    seg_losses = [0.0] * T
    with ad.Tape() as tape:
        total = None
        for t, out, mem in model.segments(batch, schedule, step.leaves, drop_seed):
            node = loss_fn(t, out, mem)
            if node is not None:
                seg_losses[t - 1] = float(node.value.sum())
                total = node if total is None else ad.add(total, node)
    forward_peak = tape.stored_floats
    pending_peak = ad.backward(total)
    if own_step:
        step.backward()
    return GradReport(
        seg_losses=tuple(seg_losses),
        total_loss=float(sum(seg_losses)),
        forward_peak=forward_peak,
        backward_peak=forward_peak + pending_peak + step.floats,
        replay_floats=0,
    )


def amrb_rollout(
    model: SegmentModel,
    batch: SegmentBatch,
    schedule: RetentionSchedule,
    loss_fn,
    drop_seed=None,
    step: PositionalStep | None = None,
) -> GradReport:
    """Replay-based gradients: bounded storage, same result as BPTT."""
    T = batch.n_segments
    own_step, step = step is None, step or PositionalStep(model)
    walk = partial(model.segments, batch, schedule, step.leaves, drop_seed)

    # Forward, tape-free: remember only what enters each segment.
    replay = [model.params["mem_init"].value.copy()]
    replay += [mem.value for _, _, mem in islice(walk(tokens_from=T + 1), T - 1)]
    replay_floats = sum(mem.size for mem in replay)

    # Backward, last segment first, one tape per segment.
    seg_losses = [0.0] * T
    grad_mem_next: np.ndarray | None = None
    backward_peak = 0
    for t in range(T, 0, -1):
        with ad.Tape() as tape:
            mem_in = ad.leaf(replay[t - 1])
            _, out, mem_scaled = next(walk(start=t, memory=mem_in, tokens_from=loss_fn.tokens_from))
            loss_node = loss_fn(t, out, mem_scaled)
        roots = []
        if loss_node is not None:
            seg_losses[t - 1] = float(loss_node.value.sum())
            roots.append((loss_node, None))
        if grad_mem_next is not None and grad_mem_next.size > 0:
            roots.append((mem_scaled, grad_mem_next))
        pending_peak = ad.backward(*roots[0], more=roots[1:]) if roots else 0
        grad_mem_next = mem_in.grad
        backward_peak = max(backward_peak, replay_floats + tape.stored_floats + pending_peak)

    model.params["mem_init"].grad[...] += grad_mem_next
    if own_step:
        step.backward()
    return GradReport(
        seg_losses=tuple(seg_losses),
        total_loss=float(sum(seg_losses)),
        forward_peak=replay_floats,
        backward_peak=backward_peak + step.floats,
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
