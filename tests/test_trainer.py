"""Replay-based gradients against full-backprop and finite-difference oracles."""

import numpy as np
import pytest

from astroseq import autodiff as ad
from astroseq.errors import InvalidArgumentError, TrainingAbortError
from astroseq.model import ModelConfig, Parameter, SegmentModel, _segment_rng, split_segments
from astroseq.retention import RetentionSchedule, uniform_schedule
from astroseq.trainer import (
    AdamW,
    PositionalStep,
    amrb_rollout,
    bptt_rollout,
    classification_loss,
)

from conftest import rel_err


def build_setup(
    seed, n_segments=3, mem_tokens=2, n_heads=1, dropout=0.0, mode="final", n_layers=1
):
    cfg = ModelConfig(
        vocab_size=9,
        n_classes=3,
        d_model=4,
        m_hidden=4,
        n_heads=n_heads,
        ffn_dim=6,
        n_layers=n_layers,
        seg_len=3,
        n_segments=n_segments,
        mem_tokens=mem_tokens,
        dropout=dropout,
    )
    model = SegmentModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    length = cfg.seg_len * n_segments
    tokens = rng.integers(1, cfg.vocab_size, size=length)
    batch = split_segments(tokens, cfg.seg_len, n_segments, label=int(rng.integers(3)))
    return model, batch


def skewed_schedule(T):
    raw = np.array([0.5**k for k in range(T)], dtype=np.float64)
    f = raw / raw.sum()
    f[-1] = 1.0 - f[:-1].sum()  # make the sum exactly 1.0
    return RetentionSchedule(n_segments=T, factors=tuple(f), source={"kind": "derived"})


def grads_by_name(model):
    return {name: p.grad.copy() for name, p in model.params.items()}


def run_both(model, batch, schedule, mode="final", drop_seed=None):
    loss_fn = classification_loss(model, batch, mode=mode)
    model.zero_grads()
    rep_b = bptt_rollout(model, batch, schedule, loss_fn, drop_seed=drop_seed)
    g_bptt = grads_by_name(model)
    model.zero_grads()
    rep_a = amrb_rollout(model, batch, schedule, loss_fn, drop_seed=drop_seed)
    g_amrb = grads_by_name(model)
    return rep_b, g_bptt, rep_a, g_amrb


def assert_grad_maps_match(g_bptt, g_amrb, tol=1e-10):
    worst = 0.0
    for name in g_bptt:
        worst = max(worst, rel_err(g_amrb[name], g_bptt[name]))
    assert worst < tol, f"worst parameter gradient discrepancy {worst}"


# ---------------------------------------------------------------------------
# replay gradients equal full backprop


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_replay_matches_full_backprop_final_loss(seed):
    model, batch = build_setup(seed)
    rep_b, g_bptt, rep_a, g_amrb = run_both(model, batch, skewed_schedule(3))
    assert_grad_maps_match(g_bptt, g_amrb)
    assert rep_a.seg_losses == pytest.approx(rep_b.seg_losses, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_replay_matches_full_backprop_per_segment_loss(seed):
    model, batch = build_setup(seed, mode="per_segment")
    rep_b, g_bptt, rep_a, g_amrb = run_both(
        model, batch, skewed_schedule(3), mode="per_segment"
    )
    assert_grad_maps_match(g_bptt, g_amrb)
    assert rep_a.total_loss == pytest.approx(rep_b.total_loss, rel=1e-12)


def test_replay_matches_full_backprop_multi_head():
    model, batch = build_setup(0, n_heads=2)
    _, g_bptt, _, g_amrb = run_both(model, batch, skewed_schedule(3))
    assert_grad_maps_match(g_bptt, g_amrb)


def test_replay_matches_full_backprop_uniform_schedule():
    model, batch = build_setup(2)
    _, g_bptt, _, g_amrb = run_both(model, batch, uniform_schedule(3))
    assert_grad_maps_match(g_bptt, g_amrb)


def test_replay_matches_full_backprop_with_dropout():
    """Replayed segments must regenerate the same dropout masks."""
    model, batch = build_setup(1, dropout=0.3)
    _, g_bptt, _, g_amrb = run_both(model, batch, skewed_schedule(3), drop_seed=[77])
    assert_grad_maps_match(g_bptt, g_amrb)


def test_replay_matches_full_backprop_zero_memory():
    model, batch = build_setup(0, mem_tokens=0)
    rep_b, g_bptt, rep_a, g_amrb = run_both(model, batch, uniform_schedule(3))
    assert_grad_maps_match(g_bptt, g_amrb)
    assert model.params["mem_init"].grad.shape == (0, 4)
    assert rep_a.replay_floats == 0


@pytest.mark.parametrize("mode,roots", [("final", [1, 1, 1, 1]), ("per_segment", [1, 2, 2, 1])])
def test_replay_sweeps_each_segment_once(monkeypatch, mode, roots):
    """Loss and injected memory gradient share one reverse sweep per segment;
    a rollout run as a step of its own then sweeps its R build once."""
    model, batch = build_setup(0)
    seen = []
    original = ad.backward

    def counting(node, seed=None, more=()):
        seen.append(1 + len(more))
        return original(node, seed, more)

    monkeypatch.setattr(ad, "backward", counting)
    amrb_rollout(model, batch, skewed_schedule(3), classification_loss(model, batch, mode=mode))
    assert seen == roots


def per_segment_build_grads(model, batches, schedule, mode, drop_seeds):
    """One step's gradients with R built afresh in every segment, on the
    rollout's own tape, as each segment built it before R was shared."""
    model.zero_grads()
    for batch, drop_seed in zip(batches, drop_seeds):
        loss_fn = classification_loss(model, batch, mode=mode)
        with ad.Tape():
            mem, total = model.params["mem_init"], None
            for t in range(1, batch.n_segments + 1):
                out, mem_raw = model.segment_forward(
                    batch.ids[:, t - 1], mem, model.positional(),
                    drop_rng=_segment_rng([drop_seed], t),
                )
                mem = ad.scalar_mul(mem_raw, schedule.factor(t))
                node = loss_fn(t, out, mem)
                if node is not None:
                    total = node if total is None else ad.add(total, node)
        ad.backward(total)
    return grads_by_name(model)


@pytest.mark.parametrize("rollout", [amrb_rollout, bptt_rollout])
def test_shared_positional_step_matches_per_segment_builds(rollout):
    """A step whose rollouts share one R build gets the gradients of
    per-segment builds: 2 layers, 2 heads, dropout, a loss per segment."""
    model, _ = build_setup(4, n_heads=2, dropout=0.1, n_layers=2)
    rng = np.random.default_rng(8)
    batches = [
        split_segments(rng.integers(1, 9, size=9), 3, 3, label=int(rng.integers(3)))
        for _ in range(3)
    ]
    schedule, drop_seeds = skewed_schedule(3), [(5, 1, i) for i in range(3)]
    expected = per_segment_build_grads(model, batches, schedule, "per_segment", drop_seeds)
    model.zero_grads()
    step = PositionalStep(model)
    for batch, drop_seed in zip(batches, drop_seeds):
        loss_fn = classification_loss(model, batch, mode="per_segment")
        rollout(model, batch, schedule, loss_fn, drop_seed=[drop_seed], step=step)
    step.backward()
    assert_grad_maps_match(expected, grads_by_name(model), tol=1e-12)


def test_step_builds_positional_summary_once_per_layer(monkeypatch):
    """However many samples and segments a step has, it records one taped
    R build per layer."""
    from astroseq import attention

    model, batch = build_setup(0, n_layers=2)
    taped = []
    original = attention.positional_matrix

    def counting(n_tokens, params):
        taped.append(ad.active_tape() is not None)
        return original(n_tokens, params)

    monkeypatch.setattr(attention, "positional_matrix", counting)
    loss_fn = classification_loss(model, batch, mode="per_segment")
    step = PositionalStep(model)
    for rollout in (amrb_rollout, bptt_rollout, amrb_rollout):
        rollout(model, batch, skewed_schedule(3), loss_fn, drop_seed=[1], step=step)
    step.backward()
    assert taped == [True, True]


@pytest.mark.parametrize("n_heads", [1, 2])
def test_segments_apply_no_feature_map_to_the_step_positional_leaves(monkeypatch, n_heads):
    """The step's leaves hold the positional features phi(R), built once,
    so no segment of either rollout applies phi to a leaf or its heads."""
    from astroseq import attention

    model, batch = build_setup(0, n_heads=n_heads, n_layers=2)
    step = PositionalStep(model)
    assert all((leaf.value > 0).all() for leaf in step.leaves)
    operands = []
    original = attention.phi

    def recording(a):
        # Head columns are views, so a phi of any head shares the leaf's memory.
        operands.append(any(np.shares_memory(a.value, leaf.value) for leaf in step.leaves))
        return original(a)

    monkeypatch.setattr(attention, "phi", recording)
    loss_fn = classification_loss(model, batch, mode="per_segment")
    for rollout in (amrb_rollout, bptt_rollout):
        rollout(model, batch, skewed_schedule(3), loss_fn, drop_seed=[1], step=step)
    step.backward()
    assert operands and not any(operands)


@pytest.mark.parametrize(
    "mode,taped",
    [
        # The tape-free forward runs only the memory rows (2 of them).  A
        # replay runs the memory rows, then, where the loss reads them,
        # the token rows (3): at T under ``final``, everywhere under
        # ``per_segment``.
        ("final", [(True, 2), (True, 3), (True, 2), (True, 2)]),
        ("per_segment", [(True, 2), (True, 3)] * 3),
    ],
)
def test_replay_runs_only_the_token_rows_its_loss_reads(monkeypatch, mode, taped):
    from test_model import last_ffn_rows

    model, batch = build_setup(0, n_layers=2)
    loss_fn = classification_loss(model, batch, mode=mode)
    seen = last_ffn_rows(monkeypatch, model)
    amrb_rollout(model, batch, skewed_schedule(3), loss_fn)
    assert seen == [(False, 2)] * 2 + taped


def test_full_backprop_and_unscoped_losses_run_every_token_row(monkeypatch):
    """BPTT walks every row in replay's two row blocks, the memory rows,
    then the token rows, whichever segments its loss reads."""
    from test_model import last_ffn_rows

    model, batch = build_setup(0)
    seen = last_ffn_rows(monkeypatch, model)
    bptt_rollout(model, batch, skewed_schedule(3), classification_loss(model, batch))
    assert seen == [(True, 2), (True, 3)] * 3
    seen.clear()
    per_segment = classification_loss(model, batch, mode="per_segment")
    bptt_rollout(model, batch, skewed_schedule(3), per_segment)
    assert seen == [(True, 2), (True, 3)] * 3


def test_segments_without_memory_rows_run_only_where_read(monkeypatch):
    """With no memory rows nothing crosses a segment boundary, so replay
    under ``final`` and prediction run no layer before segment T; at T the
    memory block is empty and the token block runs."""
    from test_model import last_ffn_rows

    model, batch = build_setup(0, mem_tokens=0)
    seen = last_ffn_rows(monkeypatch, model)
    amrb_rollout(model, batch, skewed_schedule(3), classification_loss(model, batch))
    assert seen == [(True, 0), (True, 3)]
    seen.clear()
    model.predict(batch, skewed_schedule(3), model.positional())
    assert seen == [(False, 0), (False, 3)]


def test_replay_matches_full_backprop_single_segment():
    model, batch = build_setup(0, n_segments=1)
    _, g_bptt, _, g_amrb = run_both(model, batch, uniform_schedule(1))
    assert_grad_maps_match(g_bptt, g_amrb)


# ---------------------------------------------------------------------------
# independent finite-difference oracle


def rollout_loss_value(model, batch, schedule, mode="final"):
    """Tape-free total loss, recomputed from the current parameter values."""
    loss_fn = classification_loss(model, batch, mode=mode)
    T = batch.n_segments
    mem, pos = model.params["mem_init"], model.positional()
    total = 0.0
    for t in range(1, T + 1):
        out, mem_raw = model.segment_forward(batch.ids[:, t - 1], mem, pos)
        mem = ad.scalar_mul(mem_raw, schedule.factor(t))
        node = loss_fn(t, out, mem)
        if node is not None:
            total += float(node.value[0, 0, 0])
    return total


@pytest.mark.parametrize("name", ["mem_init", "block0.attn.w_query", "head.w", "embed"])
def test_rollout_gradients_match_finite_differences(name):
    model, batch = build_setup(0, n_segments=2)
    schedule = skewed_schedule(2)
    model.zero_grads()
    bptt_rollout(model, batch, schedule, classification_loss(model, batch))
    analytic = model.params[name].grad.copy()
    value = model.params[name].value
    h = 1e-6
    fd = np.zeros_like(value)
    for idx in np.ndindex(value.shape):
        orig = value[idx]
        value[idx] = orig + h
        up = rollout_loss_value(model, batch, schedule)
        value[idx] = orig - h
        down = rollout_loss_value(model, batch, schedule)
        value[idx] = orig
        fd[idx] = (up - down) / (2 * h)
    assert rel_err(analytic, fd) < 1e-6


def test_memory_seed_gradient_matches_finite_differences():
    """The retention chain rule, checked end to end against perturbations."""
    model, batch = build_setup(3, n_segments=3)
    schedule = skewed_schedule(3)
    model.zero_grads()
    amrb_rollout(model, batch, schedule, classification_loss(model, batch))
    value = model.params["mem_init"].value
    h = 1e-6
    fd = np.zeros_like(value)
    for idx in np.ndindex(value.shape):
        orig = value[idx]
        value[idx] = orig + h
        up = rollout_loss_value(model, batch, schedule)
        value[idx] = orig - h
        down = rollout_loss_value(model, batch, schedule)
        value[idx] = orig
        fd[idx] = (up - down) / (2 * h)
    assert rel_err(model.params["mem_init"].grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# storage accounting


def test_replay_buffer_size_is_boundaries_times_memory():
    """The buffer holds the T - 1 memories that cross a segment boundary;
    segment 1 replays from the memory seed itself."""
    model, batch = build_setup(0, n_segments=3)
    report = amrb_rollout(model, batch, uniform_schedule(3), classification_loss(model, batch))
    cfg = model.config
    assert report.replay_floats == (3 - 1) * cfg.mem_tokens * cfg.d_model
    assert report.forward_peak == report.replay_floats
    assert report.memory_report()["replay_buffer_bytes"] == report.replay_floats * 8


def test_full_backprop_storage_grows_with_segments_replay_does_not():
    peaks_b, peaks_a = {}, {}
    for T in (1, 2, 4, 8):
        model, batch = build_setup(0, n_segments=T)
        loss_fn = classification_loss(model, batch)
        model.zero_grads()
        peaks_b[T] = bptt_rollout(model, batch, uniform_schedule(T), loss_fn).backward_peak
        model.zero_grads()
        peaks_a[T] = amrb_rollout(model, batch, uniform_schedule(T), loss_fn).backward_peak
    assert peaks_b[8] > 6 * peaks_b[1] * 0.9
    assert peaks_a[8] < 1.2 * peaks_a[1]
    assert peaks_b[8] / peaks_a[8] >= 4.0


def test_single_segment_peaks_differ_only_by_buffer():
    model, batch = build_setup(0, n_segments=1)
    loss_fn = classification_loss(model, batch)
    model.zero_grads()
    rep_b = bptt_rollout(model, batch, uniform_schedule(1), loss_fn)
    model.zero_grads()
    rep_a = amrb_rollout(model, batch, uniform_schedule(1), loss_fn)
    # One segment crosses no boundary, so the buffer is empty.
    assert rep_a.replay_floats == 0
    assert rep_a.backward_peak == rep_b.backward_peak


def test_gradients_accumulate_across_rollouts():
    model, batch = build_setup(0)
    loss_fn = classification_loss(model, batch)
    schedule = uniform_schedule(3)
    model.zero_grads()
    amrb_rollout(model, batch, schedule, loss_fn)
    once = grads_by_name(model)
    amrb_rollout(model, batch, schedule, loss_fn)
    twice = grads_by_name(model)
    for name in once:
        assert rel_err(twice[name], 2 * once[name]) < 1e-12


def test_rollout_rejects_mismatched_schedule():
    model, batch = build_setup(0)
    with pytest.raises(InvalidArgumentError):
        amrb_rollout(model, batch, uniform_schedule(2), classification_loss(model, batch))


def test_classification_loss_guards():
    model, batch = build_setup(0)
    with pytest.raises(InvalidArgumentError):
        classification_loss(model, batch, mode="nope")


# ---------------------------------------------------------------------------
# optimizer


def test_predict_after_step_equals_fresh_model():
    """``predict`` builds R from the parameters as they are after a step."""
    model, batch = build_setup(0)
    schedule = uniform_schedule(3)
    _, before = model.predict(batch, schedule, model.positional())
    pos_mix = model.params["block0.attn.pos_mix"].value.copy()
    model.zero_grads()
    amrb_rollout(model, batch, schedule, classification_loss(model, batch))
    AdamW(model.parameters(), lr=0.05).step()
    assert not np.array_equal(model.params["block0.attn.pos_mix"].value, pos_mix)
    fresh = SegmentModel(model.config, seed=1)
    fresh.load_arrays(model.state_arrays())
    _, after = model.predict(batch, schedule, model.positional())
    assert np.array_equal(after, fresh.predict(batch, schedule, fresh.positional())[1])
    assert not np.array_equal(after, before)


def make_params(values):
    return [Parameter(f"p{i}", v, decay=(i == 0)) for i, v in enumerate(values)]


def test_adamw_matches_hand_computed_reference():
    rng = np.random.default_rng(0)
    value = rng.normal(size=(2, 3))
    grads = [rng.normal(size=(2, 3)) for _ in range(3)]
    param = Parameter("w", value.copy(), decay=True)
    opt = AdamW([param], lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.1)

    ref = value.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for k, g in enumerate(grads, start=1):
        param.grad[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**k)
        vhat = v / (1 - 0.999**k)
        ref -= 0.01 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.1 * ref)
        assert rel_err(param.value, ref) < 1e-12


def test_adamw_decay_is_decoupled_and_respects_flags():
    decayed = Parameter("w", np.full((2, 2), 2.0), decay=True)
    frozen = Parameter("b", np.full((1, 2), 2.0), decay=False)
    opt = AdamW([decayed, frozen], lr=0.5, weight_decay=0.01)
    opt.step()  # zero gradients: only decay can move anything
    assert rel_err(decayed.value, np.full((2, 2), 2.0 * (1 - 0.5 * 0.01))) < 1e-12
    assert np.array_equal(frozen.value, np.full((1, 2), 2.0))


def test_adamw_grad_clip_rescales_global_norm():
    a = Parameter("a", np.zeros((1, 1)), decay=False)
    b = Parameter("b", np.zeros((1, 1)), decay=False)
    a.grad[...] = 3.0
    b.grad[...] = 4.0  # global norm 5
    clipped = AdamW([a, b], lr=1.0, betas=(0.0, 0.0), eps=0.0, grad_clip=1.0)
    clipped.step()
    # with beta=0 the update is sign-like: g/|g|; clipping must not change that
    assert a.value[0, 0] == pytest.approx(-1.0)
    # but moments see the scaled gradients
    assert clipped._m["a"][0, 0] == pytest.approx(3.0 / 5.0)
    assert clipped._v["b"][0, 0] == pytest.approx((4.0 / 5.0) ** 2)


def test_adamw_aborts_on_non_finite_gradient():
    p = Parameter("w", np.zeros((1, 1)), decay=True)
    p.grad[...] = np.nan
    opt = AdamW([p], lr=0.1)
    with pytest.raises(TrainingAbortError) as info:
        opt.step()
    assert info.value.parameter == "w"


def test_adamw_argument_validation():
    p = Parameter("w", np.zeros((1, 1)), decay=True)
    with pytest.raises(InvalidArgumentError):
        AdamW([], lr=0.1)
    with pytest.raises(InvalidArgumentError):
        AdamW([p], lr=0.0)
    with pytest.raises(InvalidArgumentError):
        AdamW([p], lr=0.1, grad_clip=-1.0)
