"""Fast check of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END, LAYER_MAP, PER_LAYER, WORKLOADS, definition  # noqa: E402

TINY = dict(train_samples=16, val_samples=8, epochs=1)


@pytest.fixture
def work_dir():
    path = ROOT / ".perfbench_work" / "smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_and_restores_wrappers(name, trace, work_dir):
    targets = tracing.layer_targets()
    before = [vars(owner).get(attr) for owner, attr, _, _ in targets]
    result = measure.run_workload(name, seed=7, seconds=0, trace=trace, work_dir=work_dir,
                                  trial=TINY, min_trials=1)
    assert result["correct"], result["report"]
    assert result["attempted"] == TINY["epochs"] * (TINY["train_samples"] + TINY["val_samples"]) * (
        2 if trace else 1)
    assert result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert isinstance(entry["value"], (int, float))
    after = [vars(owner).get(attr) for owner, attr, _, _ in targets]
    assert all(now is then for now, then in zip(after, before))


def test_training_abort_is_counted_not_raised(monkeypatch, work_dir):
    from astroseq.errors import TrainingAbortError
    from astroseq.trainer import AdamW

    step = AdamW.step
    calls = []

    def step_that_aborts_second_time(self):
        calls.append(1)
        if len(calls) == 2:
            raise TrainingAbortError("head.w")
        step(self)

    monkeypatch.setattr(AdamW, "step", step_that_aborts_second_time)
    trial = dict(train_samples=48, val_samples=8, epochs=1)
    result = measure.run_workload("kv_amrb", seed=7, seconds=0, trace=False, work_dir=work_dir,
                                  trial=trial, min_trials=1)
    # One of three steps finished: its 16 samples are done, the other 32
    # rollouts and all 8 predictions count as failed.
    assert result["attempted"] == 56 and result["failed"] == 40
    assert not result["correct"]
    assert result["report"]["errors"] == ["TrainingAbortError: non-finite gradient for parameter 'head.w'"]


def test_benchmark_json_is_made_from_the_definitions():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == definition()
    for workload in WORKLOADS.values():
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metrics in LAYER_MAP.values():
        for metric, (moves, workloads) in metrics.items():
            assert metric in PER_LAYER and moves in END_TO_END
            assert set(workloads) <= set(WORKLOADS)
