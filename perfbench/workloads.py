"""What the benchmark runs and what it reports.

Each workload is one ``RunConfig`` handed to ``astroseq.harness.train_run``
plus the size of one timed trial.  Every workload shares d_model 32,
m_hidden 16, one head, one layer, batch 16 and the ``kv_retrieval`` task;
they differ in where the time goes, so that each optimisation has a
workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMON = dict(
    task="kv_retrieval",
    n_classes=4,
    n_keys=6,
    n_distractors=3,
    d_model=32,
    m_hidden=16,
    n_heads=1,
    ffn_dim=64,
    n_layers=1,
    batch_size=16,
    lr=0.003,
    weight_decay=0.01,
    grad_clip=1.0,
    loss_mode="final",
)

# The README key-value config: 8 segments of 6 tokens, 4 memory rows.
_KV = dict(seg_len=6, n_segments=8, mem_tokens=4, retention_mode="derived")

# ``config`` overrides COMMON.  ``trial`` sizes one train_run call: training
# and validation samples per epoch, and epochs.  A third workload, kv_amrb's
# inputs trained with bptt, was dropped: its timings spread by up to a fifth
# between runs at 40 s a run, and three workloads leave no time budget for
# longer runs.  Every layer is still measured, and each kv_amrb run trains
# bptt briefly as the oracle for amrb.
WORKLOADS = {
    "kv_amrb": dict(
        why=(
            "the paper's training path: thousands of tiny tape ops per sample, so per-op "
            "overhead in autodiff and model dominates, and schedule derivation dominates set-up"
        ),
        config=dict(_KV, algorithm="amrb"),
        trial=dict(train_samples=128, val_samples=64, epochs=1),
    ),
    "long_segment": dict(
        why=(
            "4 segments of 252 tokens plus 4 memory rows, so attention covers 256 rows and the "
            "taped positional build dominates; uniform schedule, so set-up skips the simulator"
        ),
        config=dict(seg_len=252, n_segments=4, mem_tokens=4, retention_mode="uniform",
                    algorithm="amrb"),
        trial=dict(train_samples=64, val_samples=32, epochs=1),
    ),
}

# Seconds one run measures, and the trials it makes however long they take.
# Each step's time is the best of the trials' repeats of it.
RUN_SECONDS = 55
MIN_TRIALS = 5

# Training samples per run of the amrb-against-bptt parameter check.
ORACLE_TRIAL = dict(train_samples=32, val_samples=16, epochs=1)
ORACLE_TOLERANCE = 1e-9

# name -> (unit, better, bound).  The bound is the share of the parent's
# median by which the metric may worsen before a change is rejected.  On a
# shared 2-core machine the best-of-repeats timings still drift by about a
# tenth between runs minutes apart, so every timing gets the widest bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "epoch_s": ("s", "lower", 0.25),
    "train_samples_per_s": ("1/s", "higher", 0.25),
    "step_ms_p50": ("ms", "lower", 0.25),
    "step_ms_tail": ("ms", "lower", 0.25),
    "eval_samples_per_s": ("1/s", "higher", 0.25),
    # Differs between seeds by up to a twentieth (long_segment trains 64 samples).
    "train_loss": ("nats", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better).  Measured in a separate traced run.
PER_LAYER = {
    "tasks.dataset_s": ("s", "lower"),
    "retention.derive_s": ("s", "lower"),
    "neuroglia.simulate_s": ("s", "lower"),
    "neuroglia.euler_steps": ("count", "lower"),
    "model.segment_forward.taped.self_s": ("s", "lower"),
    "model.segment_forward.taped.calls": ("count", "lower"),
    "model.segment_forward.free.self_s": ("s", "lower"),
    "model.segment_forward.free.calls": ("count", "lower"),
    "trainer.recompute_ratio": ("ratio", "higher"),
    "attention.taped.self_s": ("s", "lower"),
    "attention.taped.calls": ("count", "lower"),
    "attention.free.self_s": ("s", "lower"),
    "attention.free.calls": ("count", "lower"),
    "attention.positional.taped_s": ("s", "lower"),
    "attention.positional.taped.calls": ("count", "lower"),
    "attention.positional.free_s": ("s", "lower"),
    "attention.positional.free.calls": ("count", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "trainer.rollout.self_s": ("s", "lower"),
    "trainer.rollouts": ("count", "lower"),
    "trainer.optimizer_s": ("s", "lower"),
    "trainer.optimizer_steps": ("count", "lower"),
    "trainer.forward_peak_floats": ("floats", "lower"),
    "trainer.backward_peak_floats": ("floats", "lower"),
    "trainer.replay_buffer_bytes": ("B", "lower"),
    "model.predict_s": ("s", "lower"),
    "model.predict.calls": ("count", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# layer -> per-layer metric -> (end-to-end metric it should move, workloads
# where it should move).  Where a workload is left out, the prediction for
# it is no change.
LAYER_MAP = {
    "tasks": {"tasks.dataset_s": ("setup_s", ["kv_amrb", "long_segment"])},
    "retention": {"retention.derive_s": ("setup_s", ["kv_amrb"])},
    "neuroglia": {
        "neuroglia.simulate_s": ("setup_s", ["kv_amrb"]),
        "neuroglia.euler_steps": ("setup_s", ["kv_amrb"]),
    },
    "model": {
        "model.segment_forward.taped.self_s": ("step_ms_p50", ["kv_amrb"]),
        "model.segment_forward.free.self_s": ("train_samples_per_s", ["kv_amrb"]),
        "model.predict_s": ("eval_samples_per_s", ["kv_amrb", "long_segment"]),
    },
    "attention": {
        "attention.taped.self_s": ("step_ms_p50", ["long_segment"]),
        "attention.free.self_s": ("eval_samples_per_s", ["long_segment"]),
        "attention.positional.taped_s": ("step_ms_p50", ["long_segment"]),
        "attention.positional.free_s": ("eval_samples_per_s", ["long_segment"]),
    },
    "autodiff": {
        "autodiff.backward_s": ("step_ms_p50", ["kv_amrb", "long_segment"]),
        "autodiff.backward_calls": ("step_ms_p50", ["kv_amrb", "long_segment"]),
    },
    "trainer": {
        "trainer.recompute_ratio": ("train_samples_per_s", ["kv_amrb"]),
        "trainer.rollout.self_s": ("step_ms_p50", ["kv_amrb", "long_segment"]),
        "trainer.optimizer_s": ("step_ms_p50", ["kv_amrb", "long_segment"]),
        "trainer.forward_peak_floats": ("peak_rss_mb", ["long_segment"]),
        "trainer.backward_peak_floats": ("peak_rss_mb", ["long_segment"]),
        "trainer.replay_buffer_bytes": ("peak_rss_mb", ["long_segment"]),
    },
    "checkpoint": {
        "checkpoint.save_s": ("epoch_s", ["kv_amrb", "long_segment"]),
    },
}


def definition() -> dict:
    """The repository's BENCHMARK.json, made from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(definition(), indent=2) + "\n")
