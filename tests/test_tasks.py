"""Task generators: structure, label correctness, balance, determinism."""

import hashlib

import numpy as np
import pytest

from astroseq.config import RunConfig
from astroseq.errors import ConfigError, InvalidArgumentError
from astroseq.seeding import STREAM_DATA, spawn
from astroseq.tasks import (
    CopyTask,
    KVRetrievalTask,
    ListOpsTask,
    PAD_ID,
)


def label_shares(batches, n_classes):
    counts = np.zeros(n_classes)
    for b in batches:
        counts[b.label] += 1
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# copy


def test_copy_layout_and_label():
    task = CopyTask(seg_len=4, n_segments=2, n_classes=5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        tokens, label = task.sample(rng)
        assert tokens.shape == (8,)
        assert tokens[0] == task.payload_id(label)
        assert tokens[-1] == task.QUERY
        assert np.all(tokens[1:-1] == task.FILLER)
        assert PAD_ID not in tokens
        assert tokens.max() < task.spec.vocab_size


def test_copy_fills_every_segment():
    task = CopyTask(seg_len=4, n_segments=2)
    for batch in task.dataset(20, seed=0):
        assert batch.mask.all()


def test_copy_balance_and_determinism():
    task = CopyTask(seg_len=4, n_segments=2, n_classes=4)
    data = task.dataset(10000, seed=0)
    shares = label_shares(data, 4)
    assert np.abs(shares - 0.25).max() < 0.02
    again = task.dataset(10, seed=0)
    for a, b in zip(data[:10], again):
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.label, b.label)
    other_split = task.dataset(10, seed=0, split=1)
    assert any(
        not np.array_equal(a.ids, b.ids) for a, b in zip(again, other_split)
    )


# ---------------------------------------------------------------------------
# kv retrieval


def pairs_in(tokens, task):
    """(position, key index, value index) for every key/value pair."""
    found = []
    k_lo, k_hi = 3, 3 + task.n_keys
    v_lo = k_hi
    for i, t in enumerate(tokens[:-1]):
        if k_lo <= t < k_hi and tokens[i + 1] >= v_lo:
            found.append((i, int(t - k_lo), int(tokens[i + 1] - v_lo)))
    return found


def test_kv_structure_and_label():
    task = KVRetrievalTask(seg_len=6, n_segments=8, n_classes=4, n_keys=6, n_distractors=3)
    spec = task.spec
    rng = np.random.default_rng(1)
    for _ in range(100):
        tokens, label = task.sample(rng)
        assert tokens.shape == (spec.capacity,)
        assert tokens[0] == task.ANNOUNCE
        announced = int(tokens[1]) - 3
        assert 0 <= announced < task.n_keys
        pairs = pairs_in(tokens, task)
        assert len(pairs) == 1 + task.n_distractors
        matches = [p for p in pairs if p[1] == announced]
        assert len(matches) == 1
        pos, _, value = matches[0]
        assert value == label
        # The informative pair sits in the second half of the segments.
        segment = pos // spec.seg_len + 1
        assert segment >= 1 + (spec.n_segments + 1) // 2
        assert all(p[1] != announced for p in pairs if p[0] != pos)


def test_kv_balance():
    task = KVRetrievalTask(seg_len=6, n_segments=4, n_classes=4)
    shares = label_shares(task.dataset(10000, seed=0), 4)
    assert np.abs(shares - 0.25).max() < 0.02


def test_kv_rejects_impossible_layouts():
    with pytest.raises(InvalidArgumentError):
        KVRetrievalTask(seg_len=2, n_segments=2, n_distractors=5)
    with pytest.raises(InvalidArgumentError):
        KVRetrievalTask(seg_len=6, n_segments=1)


def listed_kv_sample(task, rng):
    """The sampler that lists every pair slot, kept as the oracle for the
    slot arithmetic of ``KVRetrievalTask.sample``."""
    spec = task.spec
    T, S = spec.n_segments, spec.seg_len
    label = int(rng.integers(spec.n_classes))
    key = int(rng.integers(task.n_keys))
    tokens = np.full(spec.capacity, task.FILLER, dtype=np.int64)
    tokens[0] = task.ANNOUNCE
    tokens[1] = task.key_id(key)

    # Pair slots: (segment, even offset) so pairs stay inside a segment.
    slots_per_segment = S // 2
    second_half_start = 1 + (T + 1) // 2  # 1-based segment index
    target_slots = [
        (t, 2 * s)
        for t in range(second_half_start, T + 1)
        for s in range(slots_per_segment)
    ]
    all_slots = [
        (t, 2 * s) for t in range(2, T + 1) for s in range(slots_per_segment)
    ]
    target = target_slots[int(rng.integers(len(target_slots)))]
    remaining = [slot for slot in all_slots if slot != target]
    picks = rng.choice(len(remaining), size=task.n_distractors, replace=False)

    def place(slot, k_id, v_id):
        t, off = slot
        base = (t - 1) * S + off
        tokens[base] = k_id
        tokens[base + 1] = v_id

    place(target, task.key_id(key), task.value_id(label))
    other_keys = [k for k in range(task.n_keys) if k != key]
    for p in picks:
        dk = other_keys[int(rng.integers(len(other_keys)))]
        dv = int(rng.integers(spec.n_classes))
        place(remaining[int(p)], task.key_id(dk), task.value_id(dv))
    return tokens, label


def dataset_bytes(data):
    return b"".join(b.ids.tobytes() + b.mask.tobytes() + b.label.tobytes() for b in data)


@pytest.mark.parametrize("seg_len", [2, 3, 5, 6, 7])
@pytest.mark.parametrize("n_segments", [2, 3, 4, 7])
@pytest.mark.parametrize("n_keys", [2, 6])
def test_kv_slot_arithmetic_matches_the_listed_slots(seg_len, n_segments, n_keys):
    """Each dataset equals, byte for byte, the one the listing sampler
    draws from the same stream: with an odd ``seg_len`` (the last token of
    each segment unused), with no distractors and with as many as fit."""
    n_slots = (n_segments - 1) * (seg_len // 2)
    for n_distractors in sorted({0, min(3, n_slots - 1), n_slots - 1}):
        task = KVRetrievalTask(
            seg_len, n_segments, n_classes=3, n_keys=n_keys, n_distractors=n_distractors
        )
        for seed, split in ((0, 0), (1, 1)):
            rng = spawn(seed, STREAM_DATA, split)
            listed = [task._segmented(*listed_kv_sample(task, rng)) for _ in range(25)]
            assert dataset_bytes(task.dataset(25, seed, split)) == dataset_bytes(listed)


def test_kv_datasets_are_unchanged():
    """Both splits at the benchmark workloads' layouts (digests pinned from
    the sampler that listed every pair slot)."""
    pinned = {
        (6, 8): "b2bc35a247ed0e324d3fcdb2ee5b2d803dba5b4e71fa209b95e94800f08ff915",
        (252, 4): "c15723b0b24f84b39b50d0fba0e05eadaf4aa5cf87402f0747ecf1c637ab9ee3",
    }
    for (seg_len, n_segments), digest in pinned.items():
        task = KVRetrievalTask(seg_len, n_segments)
        h = hashlib.sha256()
        for split in (0, 1):
            for b in task.dataset(40, 0, split=split):
                h.update(b.ids.tobytes())
                h.update(b.mask.tobytes())
                h.update(str(int(b.label[0])).encode())
        assert h.hexdigest() == digest, (seg_len, n_segments)


# ---------------------------------------------------------------------------
# listops


def eval_listops_tokens(tokens):
    """Independent parser/evaluator used as the oracle for labels."""
    pos = 0

    def parse():
        nonlocal pos
        t = int(tokens[pos])
        if 1 <= t <= 10:
            pos += 1
            return t - 1
        assert t == 15, f"expected OPEN at {pos}, got {t}"
        pos += 1
        op = int(tokens[pos])
        pos += 1
        args = []
        while int(tokens[pos]) != 16:
            args.append(parse())
        pos += 1
        if op == 11:
            return min(args)
        if op == 12:
            return max(args)
        if op == 13:
            srt = sorted(args)
            return srt[(len(srt) - 1) // 2]
        assert op == 14
        return sum(args) % 10

    value = parse()
    assert pos == len(tokens)
    return value


def test_listops_reduction_semantics():
    assert ListOpsTask.apply_op("MAX", [2, 4, 1]) == 4
    assert ListOpsTask.apply_op("MIN", [2, 4, 1]) == 1
    assert ListOpsTask.apply_op("MED", [1, 2, 3, 4]) == 2  # lower median
    assert ListOpsTask.apply_op("MED", [9, 0, 5]) == 5
    assert ListOpsTask.apply_op("SUMMOD", [7, 8]) == 5
    with pytest.raises(InvalidArgumentError):
        ListOpsTask.apply_op("AVG", [1, 2])


def test_listops_labels_match_independent_evaluator():
    task = ListOpsTask(seg_len=8, n_segments=4, max_depth=3, max_args=3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        tokens, label = task.sample(rng)
        assert len(tokens) <= task.spec.capacity
        assert eval_listops_tokens(tokens) == label


def test_listops_dataset_is_quota_balanced():
    task = ListOpsTask(seg_len=8, n_segments=2)
    shares = label_shares(task.dataset(10000, seed=0), 10)
    assert np.abs(shares - 0.1).max() < 0.02


def test_listops_segments_carry_expression():
    task = ListOpsTask(seg_len=4, n_segments=4)
    batch = task.dataset(1, seed=3)[0]
    assert batch.mask[0, 0].all()
    flat = batch.ids.reshape(-1)[: int(batch.mask.sum())]
    assert [eval_listops_tokens(flat)] == batch.label.tolist()


def test_listops_datasets_that_always_fit_are_unchanged():
    """At the default depth and arguments no draw exceeds 31 tokens (an
    operator over 4 operators of 4 digits each: 2 + 4 x 7 + 1), so at a
    capacity of 31 or more no draw is cut short or redrawn: both splits are
    those the unbounded redraw made (digests pinned from it)."""
    pinned = {
        (8, 4): "f18d4e5469ffabd2774e3c592dbc26a5ce16e2f1450aeeed67fab6ecbe0d8637",
        (31, 1): "b8d150ac55c48326546df4fbb43a5f12adda8e01d9f24982c08bf3fbf595e98d",
        (64, 32): "c0e4a7b5e9bc234a5ffe208c2cc709f3e24c7b043c30c52a5daf61dca6be85a6",
    }
    for (seg_len, n_segments), digest in pinned.items():
        task = ListOpsTask(seg_len, n_segments)
        h = hashlib.sha256()
        for split in (0, 1):
            for b in task.dataset(40, 0, split=split):
                h.update(b.ids.tobytes())
                h.update(b.mask.tobytes())
                h.update(str(int(b.label[0])).encode())
        assert h.hexdigest() == digest, (seg_len, n_segments)


def test_listops_depth_is_bounded_by_what_the_generator_can_recurse_to():
    """One level past ``MAX_DEPTH`` is refused; a draw at the bound with
    100,000 tokens of capacity nests that deep and still evaluates."""
    with pytest.raises(InvalidArgumentError, match="max_depth"):
        ListOpsTask(1000, 100, max_depth=ListOpsTask.MAX_DEPTH + 1)
    task = ListOpsTask(1000, 100, max_depth=ListOpsTask.MAX_DEPTH, max_args=3)
    tokens, label = task.sample(np.random.default_rng(0))
    nesting = np.cumsum((tokens == task.OPEN).astype(int) - (tokens == task.CLOSE))
    assert nesting.max() == ListOpsTask.MAX_DEPTH
    assert len(tokens) <= task.spec.capacity == 100_000
    assert eval_listops_tokens(tokens) == label


def test_listops_small_capacities_still_build():
    """At 5 to 8 tokens most default draws are capped by the capacity; every
    sample still parses and keeps its label."""
    for seg_len, n_segments in ((4, 2), (5, 1)):
        task = ListOpsTask(seg_len, n_segments)
        for seed in range(3):
            data = task.dataset(200, seed)
            assert len(data) == 200
            for b in data:
                assert [eval_listops_tokens(b.ids[b.mask.astype(bool)])] == b.label.tolist()


# ---------------------------------------------------------------------------
# choosing a task by name


def test_run_config_task_dispatch_and_unknown_name():
    """``RunConfig`` builds each named task with its own settings and
    refuses a name it does not know when it is made."""
    copy = RunConfig(task="copy", seg_len=4, n_segments=2, n_classes=6).build_task()
    assert isinstance(copy, CopyTask) and copy.spec.n_classes == 6
    kv = RunConfig(task="kv_retrieval", seg_len=6, n_segments=8, n_keys=5).build_task()
    assert isinstance(kv, KVRetrievalTask) and kv.n_keys == 5
    listops = RunConfig(task="listops", seg_len=8, n_segments=2, max_depth=1).build_task()
    assert isinstance(listops, ListOpsTask) and listops.max_depth == 1
    with pytest.raises(ConfigError, match="'sorting'"):
        RunConfig(task="sorting")
