"""Acceptance gate: nine pinned end-to-end behavior checks.

Each test prints one ``[acceptance] C<k> <name>: PASS|FAIL (<measured>)``
line, repeats it in the terminal summary, and enforces a wall-clock
budget alongside the numerical criterion.  Tolerances and configurations
are frozen; loosening them to make a failing check pass defeats the
point of the gate.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import conftest
from conftest import finite_diff_grad, rel_err
from test_attention import fresh, loop_reference

from astroseq import autodiff as ad
from astroseq import attention as at
from astroseq.config import RunConfig
from astroseq.harness import resolve_schedule, train_run
from astroseq.model import ModelConfig, SegmentModel, split_segments
from astroseq.neuroglia import (
    DriveSpec,
    SimParams,
    build_geometry,
    coupling_tensor,
    initial_state,
    run_stp_cycles,
)
from astroseq.retention import RetentionSchedule, ltp_increments
from astroseq.trainer import amrb_rollout, bptt_rollout, classification_loss


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared tiny-model fixtures for the gradient and storage checks


def _tiny_model(n_segments: int, seed: int) -> SegmentModel:
    cfg = ModelConfig(
        vocab_size=12,
        n_classes=3,
        d_model=8,
        m_hidden=6,
        n_heads=1,
        ffn_dim=12,
        n_layers=1,
        seg_len=8,
        n_segments=n_segments,
        mem_tokens=2,
        dropout=0.0,
    )
    return SegmentModel(cfg, seed=seed)


def _decay_schedule(n_segments: int) -> RetentionSchedule:
    # distinct factors per segment so the scaling chain rule is exercised
    raw = 0.5 ** np.arange(n_segments, dtype=np.float64)
    factors = raw / raw.sum()
    return RetentionSchedule(
        n_segments=n_segments,
        factors=tuple(float(f) for f in factors),
        source={"kind": "synthetic-decay"},
    )


def _random_batch(model: SegmentModel, seed: int):
    cfg = model.config
    rng = np.random.default_rng(90_000 + seed)
    n = cfg.seg_len * cfg.n_segments
    ids = rng.integers(1, cfg.vocab_size, size=n)
    label = int(rng.integers(0, cfg.n_classes))
    return split_segments(ids, cfg.seg_len, cfg.n_segments, label=label)


def _param_grads(model: SegmentModel) -> dict[str, np.ndarray]:
    return {p.name: p.grad.copy() for p in model.parameters()}


# ---------------------------------------------------------------------------
# C1: replay training computes the same gradients as full backprop


def test_c1_replay_gradients_match_full_backprop():
    """Worst parameter-gradient discrepancy <= 1e-10 over 60 rollout pairs."""
    started = time.perf_counter()
    tol = 1e-10
    worst = 0.0
    comparisons = 0
    for n_segments in (2, 4, 8):
        schedule = _decay_schedule(n_segments)
        for seed in range(20):
            model = _tiny_model(n_segments, seed)
            batch = _random_batch(model, seed + 31 * n_segments)

            model.zero_grads()
            bptt_rollout(model, batch, schedule, classification_loss(model, batch))
            reference = _param_grads(model)

            model.zero_grads()
            amrb_rollout(model, batch, schedule, classification_loss(model, batch))
            replay = _param_grads(model)

            for name, expected in reference.items():
                worst = max(worst, rel_err(replay[name], expected))
            comparisons += 1
    elapsed = time.perf_counter() - started
    ok = worst <= tol and elapsed < 60.0
    _verdict(
        "C1 replay gradients match full backprop",
        ok,
        f"worst rel err {worst:.3e} over {comparisons} rollout pairs, "
        f"tol {tol:.0e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C2: replay training stores far fewer floats than full backprop


def test_c2_replay_storage_advantage():
    """Backward-phase peak float ratio (full backprop / replay) >= 4 at 8 segments."""
    started = time.perf_counter()
    n_segments = 8
    model = _tiny_model(n_segments, seed=0)
    schedule = _decay_schedule(n_segments)
    batch = _random_batch(model, seed=0)

    model.zero_grads()
    full = bptt_rollout(model, batch, schedule, classification_loss(model, batch))
    model.zero_grads()
    replay = amrb_rollout(model, batch, schedule, classification_loss(model, batch))

    ratio = full.backward_peak / replay.backward_peak
    elapsed = time.perf_counter() - started
    ok = ratio >= n_segments / 2 and elapsed < 60.0
    _verdict(
        "C2 replay storage advantage",
        ok,
        f"peak floats {full.backward_peak} vs {replay.backward_peak}, "
        f"ratio {ratio:.2f} >= {n_segments / 2:.1f}, {elapsed:.1f}s",
    )


# Beside C2: the storage advantage holds in real memory, because every
# consumed tape is freed by reference counting.


def _kv_rollout_inputs(n_segments: int = 8):
    """The README key-value model and one sample, under a uniform schedule."""
    cfg = RunConfig(task="kv_retrieval", seg_len=6, n_segments=n_segments, mem_tokens=4)
    task = cfg.build_task()
    model = SegmentModel(cfg.model_config(task.spec.vocab_size, task.spec.n_classes), seed=0)
    batch = task.dataset(1, 0, split=0)[0]
    schedule = RetentionSchedule(
        n_segments=n_segments, factors=(1.0,) * n_segments, source={"kind": "uniform"}
    )
    return model, batch, schedule


def test_rollouts_leave_no_unreachable_objects():
    model, batch, schedule = _kv_rollout_inputs()
    gc.collect()
    gc.disable()
    try:
        for rollout in (amrb_rollout, bptt_rollout, amrb_rollout, bptt_rollout):
            rollout(model, batch, schedule, classification_loss(model, batch))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_replay_real_peak_below_full_backprop():
    """tracemalloc peak of one rollout: full backprop / replay >= T/2 at T=8."""
    n_segments = 8
    model, batch, schedule = _kv_rollout_inputs(n_segments)
    peaks = {}
    for rollout in (amrb_rollout, bptt_rollout):
        rollout(model, batch, schedule, classification_loss(model, batch))  # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rollout(model, batch, schedule, classification_loss(model, batch))
            peaks[rollout.__name__] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    ratio = peaks["bptt_rollout"] / peaks["amrb_rollout"]
    assert ratio >= n_segments / 2, f"real peak bytes {peaks}, ratio {ratio:.2f}"


def _listops_rollout_inputs(n_segments: int, seg_len: int = 16):
    """A ListOps model (``seg_len``-token segments, 4 memory rows) and one
    sample, under a uniform schedule."""
    cfg = RunConfig(task="listops", seg_len=seg_len, n_segments=n_segments, mem_tokens=4)
    task = cfg.build_task()
    model = SegmentModel(cfg.model_config(task.spec.vocab_size, task.spec.n_classes), seed=0)
    batch = task.dataset(1, 0, split=0)[0]
    schedule = RetentionSchedule(
        n_segments=n_segments, factors=(1.0,) * n_segments, source={"kind": "uniform"}
    )
    return model, batch, schedule


def _real_peak(rollout, model, batch, schedule) -> int:
    """tracemalloc peak bytes of one rollout, after a warm-up rollout."""
    rollout(model, batch, schedule, classification_loss(model, batch))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rollout(model, batch, schedule, classification_loss(model, batch))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_replay_real_peak_stays_flat_as_segments_grow():
    """Over T in {4, 8, 16}, on kv and ListOps: replay's tracemalloc peak
    grows by at most 1.25x while full backprop's grows at least 3x."""
    for inputs in (_kv_rollout_inputs, _listops_rollout_inputs):
        peaks = {
            rollout.__name__: [_real_peak(rollout, *inputs(T)) for T in (4, 8, 16)]
            for rollout in (amrb_rollout, bptt_rollout)
        }
        amrb, bptt = peaks["amrb_rollout"], peaks["bptt_rollout"]
        detail = f"{inputs.__name__}: real peak bytes at T=4/8/16 {peaks}"
        assert amrb[-1] / amrb[0] <= 1.25, detail
        assert bptt[-1] / bptt[0] >= 3.0, detail


def test_replay_real_peak_stays_flat_at_paper_lengths():
    """ListOps at the Long Range Arena's lengths, L in {1024, 2048, 4096}
    tokens in 64-token segments: replay's tracemalloc peak grows by at most
    1.25x while full backprop's grows at least 3x."""
    lengths = (1024, 2048, 4096)
    peaks = {
        rollout.__name__: [
            _real_peak(rollout, *_listops_rollout_inputs(L // 64, seg_len=64)) for L in lengths
        ]
        for rollout in (amrb_rollout, bptt_rollout)
    }
    amrb, bptt = peaks["amrb_rollout"], peaks["bptt_rollout"]
    detail = f"real peak bytes at L={lengths}: {peaks}"
    assert amrb[-1] / amrb[0] <= 1.25, detail
    assert bptt[-1] / bptt[0] >= 3.0, detail


# ---------------------------------------------------------------------------
# C3: derived retention schedules are normalized, positive, decreasing


def test_c3_derived_retention_schedules():
    """For 2/4/6/8 segments: factors sum to 1 (+-1e-12), positive, non-increasing;
    the slow-level trace shows shrinking per-cycle increments."""
    started = time.perf_counter()
    sum_tol = 1e-12
    ok = True
    snippets = []
    for n_segments in (2, 4, 6, 8):
        cfg = RunConfig(n_segments=n_segments, retention_mode="derived")
        factors = np.asarray(resolve_schedule(cfg).factors)
        ok = ok and abs(factors.sum() - 1.0) <= sum_tol
        ok = ok and bool(np.all(factors > 0.0))
        ok = ok and bool(np.all(np.diff(factors) <= 1e-15))
        snippets.append(f"T={n_segments} f1={factors[0]:.3f} fT={factors[-1]:.4f}")

    # same dynamical system as resolve_schedule, inspected pre-normalization
    cfg = RunConfig(n_segments=8, retention_mode="derived")
    params, extras = cfg.sim_params()
    coupling = coupling_tensor(
        build_geometry(extras["n_neurons"], extras["spacing"]), extras["scale"]
    )
    trace = run_stp_cycles(
        params, coupling, 8, extras["cycle_seconds"], DriveSpec(extras["drive_hz"])
    )
    increments = ltp_increments(trace, 8)
    ok = ok and bool(np.all(np.diff(increments) < 0.0))

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _verdict(
        "C3 derived retention schedules",
        ok,
        "; ".join(snippets) + f"; increments strictly shrinking, {elapsed:.1f}s",
    )


def test_derived_schedules_stay_monotone_over_many_segments():
    """At T in {16, 32} on the default config the derived factors never
    grow, and the multi-cycle run's per-cycle increments strictly shrink:
    the drive keeps its phase however many cycles are simulated."""
    for n_segments in (16, 32):
        cfg = RunConfig(n_segments=n_segments, retention_mode="derived")
        factors = np.asarray(resolve_schedule(cfg).factors)
        assert np.all(np.diff(factors) <= 0.0), (n_segments, factors)
    params, extras = RunConfig().sim_params()
    coupling = coupling_tensor(
        build_geometry(extras["n_neurons"], extras["spacing"]), extras["scale"]
    )
    trace = run_stp_cycles(
        params, coupling, 32, extras["cycle_seconds"], DriveSpec(extras["drive_hz"])
    )
    increments = ltp_increments(trace, 32)
    assert np.all(np.diff(increments) < 0.0), increments


# ---------------------------------------------------------------------------
# C4: matrix attention equals the explicit per-token accumulation oracle


def test_c4_attention_matches_per_token_oracle():
    """Matrix-form outputs match the one-token-at-a-time loop to <= 1e-12."""
    started = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    for seed in range(50):
        n = 3 + (seed * 13) % 62  # token counts spread over 3..64
        n_heads = 2 if seed % 3 == 0 else 1
        x, arrays, params = fresh(seed, n=n, d=8, m=6, n_heads=n_heads)
        out = at.astro_attention(ad.constant(x), params)
        oracle = loop_reference(x, arrays, n_heads=n_heads)
        worst = max(worst, rel_err(out.value, oracle))
    elapsed = time.perf_counter() - started
    ok = worst <= tol and elapsed < 30.0
    _verdict(
        "C4 attention matches per-token oracle",
        ok,
        f"worst rel err {worst:.3e} over 50 seeds, n up to 64, tol {tol:.0e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C5: every tape primitive and the composed attention block pass
# central finite-difference checks


def test_c5_finite_difference_gradients():
    """Tape gradients vs central differences: rel err < 1e-6 everywhere."""
    started = time.perf_counter()
    tol = 1e-6
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    m = rng.standard_normal((4, 5))
    col = rng.standard_normal((3, 1))
    row = rng.standard_normal((1, 4))
    gain = rng.standard_normal((1, 4))
    bias = rng.standard_normal((1, 4))
    positive = np.abs(rng.standard_normal((3, 4))) + 0.5
    away_from_kink = np.where(np.abs(a) < 0.2, a + 0.5, a)
    table = rng.standard_normal((5, 4))
    ids = np.array([0, 4, 2])
    labels = np.array([1, 0, 3])

    cases = [
        ("add", lambda l: ad.add(l[0], l[1]), [a, b]),
        ("subtract", lambda l: ad.subtract(l[0], l[1]), [a, b]),
        ("hadamard", lambda l: ad.hadamard(l[0], l[1]), [a, b]),
        ("scalar_mul", lambda l: ad.scalar_mul(l[0], 1.7), [a]),
        ("matmul", lambda l: ad.matmul(l[0], l[1]), [a, m]),
        ("transpose", lambda l: ad.transpose(l[0]), [a]),
        ("row_sum", lambda l: ad.row_sum(l[0]), [a]),
        ("col_sum", lambda l: ad.col_sum(l[0]), [a]),
        ("broadcast_col", lambda l: ad.broadcast_col(l[0], 4), [col]),
        ("broadcast_row", lambda l: ad.broadcast_row(l[0], 3), [row]),
        ("add_bias", lambda l: ad.add_bias(l[0], l[1]), [a, row]),
        ("elu_plus_one", lambda l: ad.elu_plus_one(l[0]), [a]),
        ("relu", lambda l: ad.relu(l[0]), [away_from_kink]),
        ("power", lambda l: ad.power(l[0], 0.25), [positive]),
        ("reciprocal", lambda l: ad.reciprocal(l[0]), [positive]),
        ("layer_norm", lambda l: ad.layer_norm(l[0], l[1], l[2]), [a, gain, bias]),
        ("softmax_rows", lambda l: ad.softmax_rows(l[0]), [a]),
        ("concat_rows", lambda l: ad.concat_rows(l[0], l[1]), [a, b]),
        ("concat_cols", lambda l: ad.concat_cols(l[0], l[1]), [a, col]),
        ("slice_rows", lambda l: ad.slice_rows(l[0], 1, 3), [a]),
        ("slice_cols", lambda l: ad.slice_cols(l[0], 0, 2), [a]),
        ("embedding_rows", lambda l: ad.embedding_rows(l[0], ids), [table]),
        ("mse", lambda l: ad.mse(l[0], b), [a]),
        ("cross_entropy", lambda l: ad.cross_entropy(l[0], labels), [a]),
    ]

    worst = 0.0
    worst_name = ""

    def fd_sweep(name, build, arrays):
        nonlocal worst, worst_name
        with ad.Tape():
            leaves = [ad.leaf(arr) for arr in arrays]
            out = build(leaves)
            weights = rng.standard_normal(out.value.shape)
            ad.backward(out, seed=weights)

        def objective(arrs):
            nodes = [ad.constant(arr) for arr in arrs]
            return float(np.sum(weights * build(nodes).value))

        for i, lf in enumerate(leaves):
            err = rel_err(lf.grad, finite_diff_grad(objective, arrays, i))
            if err > worst:
                worst, worst_name = err, f"{name}[{i}]"

    for name, build, arrays in cases:
        fd_sweep(name, build, arrays)

    # composed block: gradients w.r.t. every attention parameter
    block_rng = np.random.default_rng(31)
    arrays = at.init_attention_arrays(4, 4, 7, block_rng, n_heads=2)
    x = block_rng.standard_normal((5, 4))
    names = sorted(arrays)

    def block_nodes(leaves):
        kw = dict(zip(names, leaves))
        params = at.AttentionParams(
            w_query=kw["w_query"],
            w_key=kw["w_key"],
            w_value=kw["w_value"],
            pos_mix=kw["pos_mix"],
            pos_read=kw["pos_read"],
            w_out=kw.get("w_out"),
            n_heads=2,
        )
        return at.astro_attention(ad.constant(x), params)

    fd_sweep("attention_block", block_nodes, [arrays[k] for k in names])

    elapsed = time.perf_counter() - started
    ok = worst < tol and elapsed < 60.0
    _verdict(
        "C5 finite-difference gradient checks",
        ok,
        f"{len(cases)} primitives + attention block, worst rel err {worst:.3e} "
        f"at {worst_name}, tol {tol:.0e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C6: attention cost grows linearly while the softmax reference grows
# quadratically


def test_c6_attention_wall_clock_scaling():
    """Per-doubling time ratio in [1.6, 2.6] for the linear block and
    [3.2, 5.2] for quadratic softmax, n = 128..1024, single-threaded BLAS."""
    started = time.perf_counter()
    script = (
        "import json\n"
        "from astroseq.harness import bench_attention\n"
        "rows = bench_attention(sizes=(128, 256, 512, 1024), d_model=64,\n"
        "                       m_hidden=32, repeats=25)\n"
        "print(json.dumps(rows))\n"
    )
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=115,
    )
    assert proc.returncode == 0, f"bench subprocess failed: {proc.stderr}"
    rows = json.loads(proc.stdout)

    def per_doubling(key):
        times = [r[key] for r in rows]
        ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
        return float(np.exp(np.mean(np.log(ratios))))

    astro = per_doubling("astro_seconds")
    softmax = per_doubling("softmax_seconds")
    elapsed = time.perf_counter() - started
    ok = 1.6 <= astro <= 2.6 and 3.2 <= softmax <= 5.2 and elapsed < 120.0
    _verdict(
        "C6 attention wall-clock scaling",
        ok,
        f"geomean ratio per doubling: linear block {astro:.2f} in [1.6, 2.6], "
        f"softmax {softmax:.2f} in [3.2, 5.2], {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# C7: memory tokens are the channel that carries the long-range payload


def test_c7_memory_tokens_carry_the_payload():
    """Copy task, 2 segments: 4 memory tokens exceed 95% validation accuracy
    within 30 epochs; 0 memory tokens stay within 5 points of chance."""
    started = time.perf_counter()
    base = dict(
        task="copy",
        seg_len=8,
        n_segments=2,
        n_classes=4,
        d_model=32,
        m_hidden=16,
        ffn_dim=64,
        n_layers=1,
        n_heads=1,
        algorithm="amrb",
        loss_mode="final",
        retention_mode="uniform",
        batch_size=16,
        train_samples=256,
        val_samples=128,
        lr=3e-3,
        weight_decay=0.01,
        grad_clip=1.0,
        epochs=30,
    )
    with_memory = train_run(
        RunConfig(**{**base, "mem_tokens": 4, "target_val_acc": 0.96}), seed=0
    )
    mem_accs = [e["val_acc"] for e in with_memory["epochs"]]

    no_memory = train_run(RunConfig(**{**base, "mem_tokens": 0}), seed=0)
    bare_accs = [e["val_acc"] for e in no_memory["epochs"]]

    chance = 1.0 / 4
    elapsed = time.perf_counter() - started
    ok = (
        len(mem_accs) <= 30
        and max(mem_accs) > 0.95
        and all(abs(acc - chance) <= 0.05 for acc in bare_accs)
        and elapsed < 600.0
    )
    _verdict(
        "C7 memory tokens carry the payload",
        ok,
        f"4 tokens: {max(mem_accs):.3f} acc in {len(mem_accs)} epochs; "
        f"0 tokens: stays in [{min(bare_accs):.3f}, {max(bare_accs):.3f}] "
        f"around chance {chance:.2f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# C8: the derived retention schedule beats the all-ones ablation


def test_c8_derived_schedule_beats_uniform_ablation():
    """Key-value retrieval over 8 segments, 3 seeds, fixed 10-epoch budget:
    median validation accuracy with the derived schedule >= uniform's."""
    started = time.perf_counter()
    base = dict(
        task="kv_retrieval",
        seg_len=6,
        n_segments=8,
        n_classes=4,
        n_keys=6,
        n_distractors=3,
        d_model=32,
        m_hidden=16,
        ffn_dim=64,
        n_layers=1,
        n_heads=1,
        mem_tokens=4,
        algorithm="amrb",
        loss_mode="final",
        batch_size=16,
        train_samples=256,
        val_samples=256,
        lr=3e-3,
        weight_decay=0.01,
        grad_clip=1.0,
        epochs=10,
    )
    medians = {}
    finals = {}
    for mode in ("uniform", "derived"):
        finals[mode] = []
        for seed in (0, 1, 2):
            cfg = RunConfig(**{**base, "retention_mode": mode})
            record = train_run(cfg, seed=seed)
            finals[mode].append(record["epochs"][-1]["val_acc"])
        medians[mode] = statistics.median(finals[mode])
    elapsed = time.perf_counter() - started
    ok = medians["derived"] >= medians["uniform"] and elapsed < 1800.0
    _verdict(
        "C8 derived schedule beats uniform ablation",
        ok,
        f"median val acc derived {medians['derived']:.3f} >= "
        f"uniform {medians['uniform']:.3f} "
        f"(per-seed derived {[f'{a:.3f}' for a in finals['derived']]}, "
        f"uniform {[f'{a:.3f}' for a in finals['uniform']]}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# C9: spatial coupling concentrates fast plasticity at the grid centre


def test_c9_spatial_coupling_shapes_fast_plasticity():
    """5x5 synapse grid, bias 0.1, coupling scale 2.0: the centre synapse's
    fast-plasticity peak exceeds the corner's."""
    started = time.perf_counter()
    params = SimParams(bias=0.1)
    coupling = coupling_tensor(build_geometry(5, spacing=1.0), scale=2.0)
    state = initial_state(5, params, stp=0.05)
    trace = run_stp_cycles(
        params, coupling, 1, 50.0, DriveSpec(rate_hz=10.0), initial=state
    )
    centre = float(trace.stp[:, 2, 2].max())
    corner = float(trace.stp[:, 0, 0].max())
    elapsed = time.perf_counter() - started
    ok = centre > corner and elapsed < 60.0
    _verdict(
        "C9 spatial coupling shapes fast plasticity",
        ok,
        f"centre peak {centre:.2f} > corner peak {corner:.2f}, {elapsed:.1f}s",
    )
