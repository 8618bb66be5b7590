"""Synthetic sequence-classification tasks that stress cross-segment memory.

All three tasks emit token sequences that exactly fill
``seg_len * n_segments`` positions, so every segment contains real tokens
even when the model runs without memory rows.  Token id 0 is
``model.PAD_ID``: it pads a sequence to its segments and never appears
in one, so it marks the padding by itself.

* ``copy``: a payload symbol shown at the very start must be reported
  when a query token arrives at the very end.  With more than one
  segment, only carried memory can bridge the gap.
* ``kv_retrieval``: a key is announced in segment 1; key/value pairs
  arrive later, with the pair matching the announced key placed in the
  second half of the sequence among distractors.  The label is that
  pair's value.
* ``listops``: bracketed prefix expressions over single digits with MIN,
  MAX, MED (lower median) and SUMMOD (sum modulo 10); the label is the
  result digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import PAD_ID, SegmentBatch, split_segments
from .seeding import STREAM_DATA, spawn


@dataclass(frozen=True)
class TaskSpec:
    """What a generator produces and how sequences are segmented."""

    name: str
    vocab_size: int
    n_classes: int
    seg_len: int
    n_segments: int

    @property
    def capacity(self) -> int:
        return self.seg_len * self.n_segments


class _TaskBase:
    spec: TaskSpec

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def dataset(self, n: int, seed: int, split: int = 0) -> list[SegmentBatch]:
        """``n`` labeled one-sample stacks; ``split`` selects the stream
        (0 train, 1 validation, ...) so splits never share samples."""
        if n < 1:
            raise InvalidArgumentError("dataset size must be positive")
        rng = spawn(seed, STREAM_DATA, split)
        return [self._segmented(*self.sample(rng)) for _ in range(n)]

    def _segmented(self, tokens, label: int) -> SegmentBatch:
        spec = self.spec
        return split_segments(tokens, spec.seg_len, spec.n_segments, label)


class CopyTask(_TaskBase):
    """Report the first token when queried at the end.

    Layout: ``payload FILLER ... FILLER QUERY`` over the full capacity.
    Ids: 1 filler, 2 query, then ``n_classes`` payload symbols.
    """

    FILLER = 1
    QUERY = 2

    def __init__(self, seg_len: int, n_segments: int, n_classes: int = 4):
        if n_classes < 2:
            raise InvalidArgumentError("copy task needs at least 2 payload symbols")
        if seg_len * n_segments < 3:
            raise InvalidArgumentError("copy task needs room for payload and query")
        self.spec = TaskSpec(
            name="copy",
            vocab_size=3 + n_classes,
            n_classes=n_classes,
            seg_len=seg_len,
            n_segments=n_segments,
        )

    def payload_id(self, label: int) -> int:
        return 3 + label

    def sample(self, rng):
        spec = self.spec
        label = int(rng.integers(spec.n_classes))
        tokens = np.full(spec.capacity, self.FILLER, dtype=np.int64)
        tokens[0] = self.payload_id(label)
        tokens[-1] = self.QUERY
        return tokens, label


class KVRetrievalTask(_TaskBase):
    """Bind an announced key to the value it appears with later.

    Segment 1 opens ``ANNOUNCE key``; the matching ``key value`` pair lands
    in the second half of the segments, distractor pairs with other keys
    land anywhere after segment 1.  Ids: 1 filler, 2 announce, then
    ``n_keys`` key symbols, then ``n_classes`` value symbols.
    """

    FILLER = 1
    ANNOUNCE = 2

    def __init__(
        self,
        seg_len: int,
        n_segments: int,
        n_classes: int = 4,
        n_keys: int = 6,
        n_distractors: int = 3,
    ):
        if n_segments < 2:
            raise InvalidArgumentError("kv_retrieval needs at least 2 segments")
        if seg_len < 2:
            raise InvalidArgumentError("kv_retrieval needs segments of at least 2 tokens")
        if n_keys < 2 or n_classes < 2:
            raise InvalidArgumentError("kv_retrieval needs at least 2 keys and 2 values")
        if n_distractors < 0:
            raise InvalidArgumentError("n_distractors must be non-negative")
        # Each pair takes a slot of two adjacent tokens inside one of
        # segments 2..T, which hold seg_len // 2 slots each.
        self.n_slots = (n_segments - 1) * (seg_len // 2)
        if self.n_slots < 1 + n_distractors:
            raise InvalidArgumentError(
                f"{n_distractors} distractors plus the target pair do not fit "
                f"in {n_segments - 1} segments of {seg_len // 2} pair slots"
            )
        self.n_keys = n_keys
        self.n_distractors = n_distractors
        self.spec = TaskSpec(
            name="kv_retrieval",
            vocab_size=3 + n_keys + n_classes,
            n_classes=n_classes,
            seg_len=seg_len,
            n_segments=n_segments,
        )

    def key_id(self, k: int) -> int:
        return 3 + k

    def value_id(self, v: int) -> int:
        return 3 + self.n_keys + v

    def sample(self, rng):
        spec = self.spec
        T, S = spec.n_segments, spec.seg_len
        label = int(rng.integers(spec.n_classes))
        key = int(rng.integers(self.n_keys))
        tokens = np.full(spec.capacity, self.FILLER, dtype=np.int64)
        tokens[0] = self.ANNOUNCE
        tokens[1] = self.key_id(key)

        # Slot j opens at offset 2 * (j % half) of segment 2 + j // half.
        half = S // 2

        def place(slot, k, v):
            base = S * (1 + slot // half) + 2 * (slot % half)
            tokens[base] = self.key_id(k)
            tokens[base + 1] = self.value_id(v)

        # The target lies in the second half of the segments.  Each
        # distractor draw skips the target's slot and the announced key.
        target = int(rng.integers(((T + 1) // 2 - 1) * half, self.n_slots))
        picks = rng.choice(self.n_slots - 1, size=self.n_distractors, replace=False)
        place(target, key, label)
        for p in picks.tolist():
            dk = int(rng.integers(self.n_keys - 1))
            dv = int(rng.integers(spec.n_classes))
            place(p + (p >= target), dk + (dk >= key), dv)
        return tokens, label


class ListOpsTask(_TaskBase):
    """Evaluate bracketed prefix expressions over digits, each drawn within
    the capacity.

    Ids: digits 0..9 are 1..10, then MIN, MAX, MED, SUMMOD, OPEN, CLOSE.
    ``dataset`` balances labels by quota so each digit appears equally
    often (within rounding); ``sample`` alone is unconstrained.
    """

    MIN, MAX, MED, SUMMOD, OPEN, CLOSE = 11, 12, 13, 14, 15, 16
    OPS = ("MIN", "MAX", "MED", "SUMMOD")

    # ``_gen_expr`` recurses once per nesting level, at two Python frames a
    # level on Python 3.11, so a draw some 500 levels deep overruns the
    # interpreter's default recursion limit of 1000.  100 leaves room for the
    # caller's frames and is ten times LRA's ListOps depth of 10.
    MAX_DEPTH = 100
    # ``_gen_expr`` draws an argument count below max_args + 1, and numpy
    # takes an exclusive int64 bound of at most 2**63.
    MAX_ARGS = 2**63 - 1

    def __init__(self, seg_len: int, n_segments: int, max_depth: int = 2, max_args: int = 4):
        if not (1 <= max_depth <= self.MAX_DEPTH and 2 <= max_args <= self.MAX_ARGS):
            raise InvalidArgumentError(
                f"listops needs max_depth 1..{self.MAX_DEPTH}, max_args 2..{self.MAX_ARGS}"
            )
        # The shortest expression is OPEN op digit digit CLOSE.
        if seg_len * n_segments < 5:
            raise InvalidArgumentError("listops needs room for one bracketed operation")
        self.max_depth = max_depth
        self.max_args = max_args
        self.spec = TaskSpec(
            name="listops",
            vocab_size=17,
            n_classes=10,
            seg_len=seg_len,
            n_segments=n_segments,
        )

    @classmethod
    def apply_op(cls, op: str, args: list[int]) -> int:
        if op == "MIN":
            return min(args)
        if op == "MAX":
            return max(args)
        if op == "MED":
            return sorted(args)[(len(args) - 1) // 2]
        if op == "SUMMOD":
            return sum(args) % 10
        raise InvalidArgumentError(f"unknown operator {op!r}")

    def _gen_expr(self, rng, depth: int, tokens: list[int], room: int) -> int:
        """Append one expression of at most ``room`` tokens to ``tokens`` and
        return its value.  Leaves are digits.  The budget binds only where
        an unbounded draw would overrun it: an operator (at least ``OPEN op
        d d CLOSE``) needs 5 tokens, ``n`` arguments need ``n + 3``, and each
        argument leaves one token for every later argument and the CLOSE."""
        if depth >= self.max_depth or (depth > 0 and rng.random() < 0.4) or room < 5:
            d = int(rng.integers(10))
            tokens.append(1 + d)
            return d
        op_index = int(rng.integers(4))
        n_args = min(int(rng.integers(2, self.max_args + 1)), room - 3)
        end = len(tokens) + room
        tokens += [self.OPEN, 11 + op_index]
        values = [
            self._gen_expr(rng, depth + 1, tokens, end - len(tokens) - (n_args - i))
            for i in range(n_args)
        ]
        tokens.append(self.CLOSE)
        return self.apply_op(self.OPS[op_index], values)

    def sample(self, rng):
        # One draw within the capacity; segmentation pads the tail.
        tokens: list[int] = []
        value = self._gen_expr(rng, 0, tokens, self.spec.capacity)
        return np.asarray(tokens, dtype=np.int64), value

    def dataset(self, n: int, seed: int, split: int = 0) -> list[SegmentBatch]:
        """Quota-balanced: each label appears floor/ceil(n / 10) times."""
        if n < 1:
            raise InvalidArgumentError("dataset size must be positive")
        rng = spawn(seed, STREAM_DATA, split)
        quota = {label: n // 10 + (1 if label < n % 10 else 0) for label in range(10)}
        out = []
        guard = 0
        while len(out) < n:
            tokens, label = self.sample(rng)
            if quota[label] > 0:
                quota[label] -= 1
                out.append(self._segmented(tokens, label))
                guard = 0
            else:
                guard += 1
                if guard > 100000:
                    raise InvalidArgumentError(
                        "listops label balancing stalled; loosen depth/args"
                    )
        return out

