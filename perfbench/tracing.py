"""Spans recorded from outside the program, by wrapping its public functions.

Each target is replaced, where its caller looks it up, by a wrapper that
takes ``*args, **kwargs``, so a change to a wrapped signature needs no
change here.  A span is ``[name, start, end, parent, ok]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``ok`` is false when
the call raised.  Spans stay in memory until the caller reads them; the
originals are put back when ``installed()`` exits, even on error.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from astroseq import attention, autodiff, harness, model, neuroglia, retention, tasks, trainer

# (owner, attribute, span name, tag taped/free).  Probes are the few spans
# the end-to-end metrics need; they stay on in untraced runs and cost a
# few microseconds per optimizer step.
PROBES = (
    (trainer.AdamW, "zero_grad", "trainer.zero_grad", False),
    (trainer.AdamW, "step", "trainer.optimizer_step", False),
    (harness, "evaluate_accuracy", "harness.evaluate_accuracy", False),
)


def layer_targets():
    """Every wrapped function of the traced run, probes included."""
    targets = list(PROBES)
    targets += [
        (harness, "resolve_schedule", "retention.resolve_schedule", False),
        (harness, "amrb_rollout", "trainer.rollout", False),
        (harness, "bptt_rollout", "trainer.rollout", False),
        (harness, "save_checkpoint", "checkpoint.save", False),
        (retention, "run_stp_cycles", "neuroglia.run_stp_cycles", False),
        (neuroglia, "step", "neuroglia.step", False),
        (model, "astro_attention", "attention.astro_attention", True),
        (attention, "positional_matrix", "attention.positional", True),
        (autodiff, "backward", "autodiff.backward", False),
    ]
    for name, fn in vars(model.SegmentModel).items():
        if callable(fn) and not name.startswith("_"):
            targets.append((model.SegmentModel, name, f"model.{name}", name == "segment_forward"))
    for cls in vars(tasks).values():
        if isinstance(cls, type) and cls.__module__ == tasks.__name__ and "dataset" in vars(cls):
            targets.append((cls, "dataset", "tasks.dataset", False))
    return tuple(targets)


class Tracer:
    """Installs wrappers around ``targets`` and collects their spans."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.originals: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, tagged: bool):
        spans, stack = self.spans, self._stack
        clock, active_tape = time.perf_counter, autodiff.active_tape
        taped, free = f"{name}.taped", f"{name}.free"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = (taped if active_tape() is not None else free) if tagged else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        self.spans.clear()
        self._stack.clear()
        originals = self.originals = []
        try:
            for owner, attr, name, tagged in self.targets:
                original = vars(owner).get(attr)
                if original is None:  # gone from the program: its spans read as zero
                    continue
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, tagged))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether every function the last ``installed()`` wrapped is back."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self.originals)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own
