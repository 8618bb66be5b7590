"""Command-line interface: outputs, artifacts, and exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import astroseq
from astroseq import cli, harness, retention
from astroseq.checkpoint import save_checkpoint
from astroseq.cli import main
from astroseq.config import SIM_EXTRA_KEYS, load_run_config, read_stored_run
from astroseq.model import MAX_AXIS, SegmentModel
from astroseq.neuroglia import SimParams
from conftest import write_raw_checkpoint


def write_tiny_config(tmp_path, extra=""):
    text = """
[task]
name = copy
seg_len = 4
n_segments = 2
n_classes = 3

[model]
d_model = 8
m_hidden = 4
ffn_dim = 8
mem_tokens = 2

[training]
epochs = 2
batch_size = 8
train_samples = 24
val_samples = 12
""" + extra
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_retention_uniform_prints_schedule(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = main(["retention", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["factors"] == [1.0, 1.0]
    assert (tmp_path / "out" / "retention.json").exists()


def test_retention_derived_small_system(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, "\n[retention]\nmode = derived\nn_neurons = 2\n")
    code = main(["retention", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"]["kind"] == "derived"
    assert abs(sum(payload["factors"]) - 1.0) < 1e-9


def test_retention_degenerate_system_exits_3(tmp_path, capsys):
    # No drive and no initial fast plasticity: the slow level never moves.
    cfg = write_tiny_config(
        tmp_path, "\n[retention]\nmode = derived\nn_neurons = 2\ndrive_hz = 0\ninit_stp = 0\n"
    )
    code = main(["retention", "--config", str(cfg)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["retention", "simulate"])
def test_unknown_task_exits_2(tmp_path, capsys, command):
    """Commands that train no model still refuse a task name the config
    does not know, with one error line naming it."""
    cfg = write_tiny_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("name = copy", "name = sorting"))
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'sorting'" in lines[0]


@pytest.mark.parametrize("command", ["retention", "simulate", "train", "gradcheck", "bench"])
@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param("[model]\nd_model = -5\n", "d_model", id="d_model_-5"),
        pytest.param("[model]\ndropout = 3\n", "dropout", id="dropout_3"),
        pytest.param("[task]\nseg_len = 0\n", "copy task", id="seg_len_0"),
    ],
)
def test_every_command_refuses_what_train_refuses(tmp_path, capsys, text, named, command):
    """A config whose task or model cannot be built exits 2 with one error
    line, before any ``--out-dir`` is made, whatever the command."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_simulate_writes_trace_and_boundaries(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path, "\n[retention]\nn_neurons = 2\n")
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--cycles", "1", "--out-dir", str(out)])
    assert code == 0
    assert "simulated 1 cycles" in capsys.readouterr().out
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "time,fac_mean,stp_mean,ltp_mean"
    assert len(trace) > 100
    boundaries = json.loads((out / "boundaries.json").read_text())
    assert len(boundaries["cycle_ends"]) == 1
    assert boundaries["ltp_levels"][0] > 0


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = main(["gradcheck", "--config", str(cfg), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gradient check passed" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["max_rel_discrepancy"] < 1e-8
    assert payload["memory"]["amrb"]["replay_buffer_bytes"] > 0


def test_gradcheck_discrepancy_exits_3(tmp_path, monkeypatch, capsys):
    # Replay matches backprop bit for bit, so perturb one replayed entry.
    replay = cli.amrb_rollout

    def perturbed(model, *args):
        report = replay(model, *args)
        model.params["head.b"].grad[0, 0] += 1e-6
        return report

    monkeypatch.setattr(cli, "amrb_rollout", perturbed)
    cfg = write_tiny_config(tmp_path)
    code = main(["gradcheck", "--config", str(cfg), "--tolerance", "1e-8"])
    assert code == 3
    assert "FAILED" in capsys.readouterr().err


def test_train_then_eval_round_trip(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    assert (out / "run.json").exists()
    assert (out / "model.ckpt").exists()

    code = main(
        ["eval", "--config", str(cfg), "--checkpoint", str(out / "model.ckpt")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "eval"
    assert 0.0 <= payload["val_acc"] <= 1.0


def test_listops_without_memory_names_the_padding_segment(tmp_path, capsys):
    """Short ListOps expressions leave the last segments all padding; with
    no memory rows such a segment has nothing to attend over."""
    path = tmp_path / "listops.ini"
    path.write_text(
        "[task]\nname = listops\nseg_len = 8\nn_segments = 4\n"
        "[model]\nd_model = 8\nm_hidden = 4\nffn_dim = 8\nmem_tokens = 0\n"
        "[training]\nepochs = 1\nbatch_size = 8\ntrain_samples = 8\nval_samples = 8\n"
    )
    code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: segment ") and "mem_tokens = 0" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("algorithm", ["amrb", "bptt"])
def test_listops_trains_at_long_range_arena_settings(tmp_path, capsys, algorithm):
    """Depth 10, 10 arguments, 2048 tokens: every draw fits the capacity,
    so training runs."""
    path = tmp_path / "lra.ini"
    path.write_text(
        "[task]\nname = listops\nseg_len = 64\nn_segments = 32\nmax_depth = 10\nmax_args = 10\n"
        f"[recurrence]\nalgorithm = {algorithm}\n"
        "[training]\nepochs = 1\ntrain_samples = 4\nval_samples = 2\n"
    )
    assert main(["train", "--config", str(path)]) == 0
    assert "trained 1 epochs on listops" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["retention"], ["gradcheck", "--out-dir"]])
def test_closed_stdout_keeps_the_exit_code_and_the_artifact(tmp_path, command):
    """A reader that closes stdout before the first write: no traceback and
    no message at interpreter exit, the command's own exit code, and the
    ``--out-dir`` artifact written."""
    argv = command + [str(tmp_path)] if command[-1] == "--out-dir" else command
    src = str(Path(astroseq.__file__).resolve().parents[1])
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    proc = subprocess.Popen(
        [sys.executable, "-m", "astroseq", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""
    if command[0] == "gradcheck":
        assert json.loads((tmp_path / "gradcheck.json").read_text())["max_rel_discrepancy"] <= 1e-8


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "no.ckpt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names,reason",
    [([b"\xff\xfe"], "corrupt parameter name"), ([b"w", b"w"], "'w' twice")],
    ids=["not_utf8", "duplicate"],
)
def test_eval_malformed_checkpoint_exits_2(tmp_path, capsys, names, reason):
    cfg = write_tiny_config(tmp_path)
    path = tmp_path / "model.ckpt"
    write_raw_checkpoint(path, names)
    code = main(["eval", "--config", str(cfg), "--checkpoint", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


def tiny_checkpoint_inputs(tmp_path):
    """The tiny config's path, its run block and fresh parameters for it."""
    cfg_path = write_tiny_config(tmp_path)
    run_cfg = load_run_config(cfg_path)
    spec = run_cfg.build_task().spec
    model_cfg = run_cfg.model_config(spec.vocab_size, spec.n_classes)
    return cfg_path, asdict(run_cfg), SegmentModel(model_cfg).state_arrays()


def test_eval_non_finite_logits_exits_3(tmp_path, capsys):
    # With a NaN head every logit is NaN, and argmax would silently pick class 0.
    cfg_path, run, arrays = tiny_checkpoint_inputs(tmp_path)
    arrays["head.w"][:] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, {"run": run}, arrays)
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(path)])
    assert code == 3
    assert "logits" in capsys.readouterr().err


def test_eval_segment_count_mismatch_exits_2(tmp_path, capsys):
    # A copy model built for 2 segments must not be scored on a 3-segment task.
    cfg_path, run, arrays = tiny_checkpoint_inputs(tmp_path)
    path = tmp_path / "two.ckpt"
    save_checkpoint(path, {"run": run}, arrays)
    three = tmp_path / "three.ini"
    three.write_text(cfg_path.read_text().replace("n_segments = 2", "n_segments = 3"))
    code = main(["eval", "--config", str(three), "--checkpoint", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_segments 3 vs 2" in err


@pytest.mark.parametrize("field", ["seg_len", "n_layers", "mem_tokens", "n_classes", "n_heads"])
def test_eval_mistyped_model_config_exits_2(tmp_path, capsys, field):
    # Floats that equal ints, and n_heads = true (which equals 1), are still
    # the wrong type.
    cfg_path, run, arrays = tiny_checkpoint_inputs(tmp_path)
    run[field] = True if field == "n_heads" else float(run[field])
    path = tmp_path / "typed.ckpt"
    save_checkpoint(path, {"run": run}, arrays)
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("pos_scale", [float("nan"), float("inf")])
def test_eval_non_finite_pos_scale_exits_2(tmp_path, capsys, pos_scale):
    # JSON spells these NaN and Infinity; the stored run must be refused
    # before any logits are computed.
    cfg_path, run, arrays = tiny_checkpoint_inputs(tmp_path)
    path = tmp_path / "pos.ckpt"
    save_checkpoint(path, {"run": {**run, "pos_scale": pos_scale}}, arrays)
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pos_scale" in err


def train_tiny(tmp_path, extra=""):
    """Train the tiny config plus ``extra``; returns (config path, run directory)."""
    cfg = write_tiny_config(tmp_path, extra)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return cfg, out


DERIVED = "\n[retention]\nmode = derived\nn_neurons = 2\ncycle_seconds = 4\n"
SLOW_LTP = "\n[simulator]\ntau_ltp = 7.0\n"


def test_eval_without_config_scores_the_stored_run(tmp_path, capsys):
    # A derived-trained model is scored under its own schedule, not the
    # default uniform one.
    _, out = train_tiny(tmp_path, DERIVED)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "model.ckpt")]) == 0
    record = json.loads(capsys.readouterr().out)
    trained = json.loads((out / "run.json").read_text())
    assert trained["retention"]["source"]["kind"] == "derived"
    assert record["retention"]["factors"] == trained["retention"]["factors"]
    assert record["n_samples"] == trained["config"]["val_samples"]


def test_eval_config_with_other_retention_mode_exits_2(tmp_path, capsys):
    cfg, out = train_tiny(tmp_path, DERIVED)
    uniform = tmp_path / "uniform.ini"
    uniform.write_text(cfg.read_text().replace("mode = derived", "mode = uniform"))
    capsys.readouterr()
    code = main(["eval", "--config", str(uniform), "--checkpoint", str(out / "model.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "retention_mode" in err


def test_eval_config_with_other_simulator_constants_exits_2(tmp_path, capsys):
    cfg, out = train_tiny(tmp_path, DERIVED + SLOW_LTP)
    other = tmp_path / "other.ini"
    other.write_text(cfg.read_text().replace("tau_ltp = 7.0", "tau_ltp = 8.0"))
    capsys.readouterr()
    code = main(["eval", "--config", str(other), "--checkpoint", str(out / "model.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tau_ltp 8.0 vs 7.0" in err


def test_eval_config_may_change_training_keys(tmp_path, capsys):
    cfg, out = train_tiny(tmp_path)
    other = tmp_path / "other.ini"
    other.write_text(
        cfg.read_text()
        .replace("epochs = 2", "epochs = 5")
        .replace("val_samples = 12", "val_samples = 7")
        + "lr = 0.5\n"
    )
    capsys.readouterr()
    assert main(["eval", "--config", str(other), "--checkpoint", str(out / "model.ckpt")]) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 7


def test_eval_elsewhere_scores_under_the_stored_constants(tmp_path, monkeypatch, capsys):
    """The stored run carries the ``[simulator]`` constants, so eval of the
    checkpoint alone, from another directory, derives training's factors."""
    (tmp_path / "train").mkdir()
    _, out = train_tiny(tmp_path / "train", DERIVED + SLOW_LTP)
    trained = json.loads((out / "run.json").read_text())
    assert trained["config"]["simulator"]["tau_ltp"] == 7.0
    # ...and they matter: the default constants derive other factors.
    stored = read_stored_run(trained["config"])
    default = harness.resolve_schedule(replace(stored, simulator=SimParams()))
    assert trained["retention"]["factors"] != list(default.factors)
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    (out / "model.ckpt").rename(eval_dir / "model.ckpt")
    shutil.rmtree(tmp_path / "train")
    monkeypatch.chdir(eval_dir)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", "model.ckpt"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["retention"]["factors"] == trained["retention"]["factors"]
    assert record["retention"]["source"]["digest"] == trained["retention"]["source"]["digest"]
    assert record["val_acc"] == trained["final"]["val_acc"]


def test_eval_of_a_run_stored_with_a_simulator_file_exits_2(tmp_path, capsys):
    """A run block of the shape stored before ``[simulator]`` (a
    ``sim_params_file`` and no ``simulator``) is refused with one line,
    before ``--out-dir`` is made."""
    _, run, arrays = tiny_checkpoint_inputs(tmp_path)
    del run["simulator"]
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, {"run": {**run, "sim_params_file": None}, "seed": 0}, arrays)
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(path), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "['sim_params_file']" in captured.err and "['simulator']" in captured.err


def test_stored_config_names_the_experiment_the_schedule_ran(tmp_path, capsys):
    """``[simulator]`` sets constants only, so ``run.json``'s config and its
    schedule's ``source`` agree on the six experiment keys; a section that
    also sets one makes ``train`` exit 2 before ``--out-dir`` is made."""
    cfg, out = train_tiny(tmp_path, DERIVED + SLOW_LTP)
    run = json.loads((out / "run.json").read_text())
    source = run["retention"]["source"]
    assert {key: run["config"][name] for key, name in SIM_EXTRA_KEYS.items()} == {
        key: source[key] for key in SIM_EXTRA_KEYS
    }
    cfg.write_text(cfg.read_text() + "n_neurons = 2\n")
    refused = tmp_path / "refused"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out-dir", str(refused)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "'n_neurons' in section [simulator]" in captured.err
    assert not refused.exists()


@pytest.mark.parametrize(
    "payload",[{"seed": 0}, [1, 2], "run", None], ids=["no_run", "list", "string", "null"]
)
def test_eval_checkpoint_without_run_block_exits_2(tmp_path, capsys, payload):
    cfg_path, _, arrays = tiny_checkpoint_inputs(tmp_path)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, payload, arrays)
    for argv in (["--config", str(cfg_path)], []):
        code = main(["eval", *argv, "--checkpoint", str(path)])
        assert code == 2
        assert "holds no run config" in capsys.readouterr().err


def test_simulate_and_retention_share_initial_state(tmp_path, monkeypatch, capsys):
    seen = []
    original = retention.run_stp_cycles

    def spy(*args, initial=None, **kwargs):
        seen.append(initial)
        return original(*args, initial=initial, **kwargs)

    monkeypatch.setattr(retention, "run_stp_cycles", spy)
    digests = []
    for init_stp, n_neurons, extra in (
        (0.2, 2, "init_stp = 0.2\n"),
        (0.0, 2, "init_stp = 0.0\n"),
        (0.0, 2, "init_stp = 0.0\n[simulator]\ndt = 0.02\n"),
    ):
        cfg = write_tiny_config(
            tmp_path,
            "\n[retention]\nmode = derived\nn_neurons = 2\ncycle_seconds = 4\n" + extra,
        )
        seen.clear()
        assert main(["simulate", "--config", str(cfg), "--cycles", "2"]) == 0
        assert f"{n_neurons} neurons" in capsys.readouterr().out
        out = tmp_path / "ret"
        assert main(["retention", "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        simulated, derived = seen
        for name in ("v", "fac", "stp", "ltp", "rate", "spikes"):
            assert np.array_equal(getattr(simulated, name), getattr(derived, name))
        assert derived.stp.shape == (n_neurons, n_neurons)
        assert np.all(derived.stp == init_stp)
        source = json.loads((out / "retention.json").read_text())["source"]
        assert (source["init_stp"], source["n_neurons"]) == (init_stp, n_neurons)
        digests.append(source["digest"])
    assert len(set(digests)) == 3
    assert [p.name for p in out.iterdir()] == ["retention.json"]


def test_run_too_large_to_allocate_exits_2(tmp_path, monkeypatch, capsys):
    def out_of_memory(self, *args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB for an array with shape (10000002,)")

    monkeypatch.setattr(SegmentModel, "__init__", out_of_memory)
    code = main(["gradcheck", "--config", str(write_tiny_config(tmp_path))])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "728. TiB" in err
    assert err.count("\n") == 1 and "Traceback" not in err


EVERY = ("retention", "train", "simulate", "gradcheck")


@pytest.mark.parametrize(
    "text, named, command",
    [
        pytest.param(text, named, command, id=f"{case}-{command}")
        for case, text, named, commands in [
            ("cycle_seconds_1e300", "[retention]\nmode = derived\ncycle_seconds = 1e300\n",
             "cycle", EVERY),
            ("seg_len_1e18", f"[task]\nseg_len = {10**18}\n", "seg_len", EVERY),
            ("seg_len_1e20", f"[task]\nseg_len = {10**20}\n", "seg_len", EVERY),
            ("d_model_1e20", f"[model]\nd_model = {10**20}\n", "d_model", EVERY),
            ("n_segments_1e20", f"[retention]\nmode = uniform\n[task]\nn_segments = {10**20}\n",
             "n_segments", EVERY),
            ("n_neurons_1e20", f"[retention]\nmode = derived\nn_neurons = {10**20}\n",
             "n_neurons", EVERY),
        ]
        for command in commands
    ],
)
def test_setting_too_large_to_build_exits_2(tmp_path, text, named, command):
    """A setting whose arrays numpy could not even size is refused, naming
    it, before anything is built from it.  Each case runs in its own
    process under a timeout, so a command that sets out to build it fails
    the test instead of stalling the suite."""
    path = tmp_path / "huge.ini"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "astroseq", command, "--config", str(path)],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert named in proc.stderr


@pytest.mark.parametrize("size", [2**28 + 1, 10**11])
def test_bench_size_too_large_to_build_exits_2(size):
    """A ``--sizes`` token count past ``model.MAX_AXIS`` is refused before
    the attention timing sizes an array for it, in its own process under
    a timeout, as above."""
    proc = subprocess.run(
        [sys.executable, "-m", "astroseq", "bench", "--sizes", f"8,{size}", "--repeats", "1"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "--sizes" in proc.stderr


@pytest.mark.parametrize(
    "key, command", [("batch_size", "bench"), ("train_samples", "train"), ("val_samples", "train")]
)
def test_sample_count_past_max_axis_exits_2(tmp_path, capsys, key, command):
    """A sample count past ``model.MAX_AXIS`` is refused as the config is
    read, with one line naming it, before ``--out-dir`` is made or any
    sample is drawn."""
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[training]\n{key} = {MAX_AXIS + 1}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: {key} = {MAX_AXIS + 1} is too large: a split or batch holds at most "
        f"{MAX_AXIS} samples\n"
    )


def test_listops_depth_past_the_generator_bound_exits_2(tmp_path):
    """A ListOps depth the expression generator cannot recurse to is refused
    with one line, before any draw and before ``--out-dir`` is made, in its
    own process under a timeout, as above."""
    path = tmp_path / "deep.ini"
    path.write_text(
        "[task]\nname = listops\nseg_len = 1000\nn_segments = 100\n"
        "max_depth = 1000000\nmax_args = 3\n"
        "[training]\ntrain_samples = 1\nval_samples = 1\nepochs = 1\n"
    )
    out_dir = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "astroseq", "train", "--config", str(path),
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "max_depth" in proc.stderr
    assert not out_dir.exists()


def test_listops_args_past_the_generator_bound_exits_2(tmp_path):
    """A ListOps ``max_args`` past the int64 bound of the argument-count draw
    is refused with one line, before any draw and before ``--out-dir`` is
    made, in its own process under a timeout, as above."""
    path = tmp_path / "wide.ini"
    path.write_text(
        f"[task]\nname = listops\nseg_len = 8\nn_segments = 2\nmax_args = {10**20}\n"
        "[training]\ntrain_samples = 1\nval_samples = 1\nepochs = 1\n"
    )
    out_dir = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "astroseq", "train", "--config", str(path),
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "max_args" in proc.stderr
    assert not out_dir.exists()


def test_numerical_failure_prints_only_its_message(tmp_path):
    """A learning rate that overflows the weights exits 3 with the one
    ``numerical failure:`` line and no numpy warning ahead of it.  It runs
    in its own process, so stderr holds everything the run printed."""
    path = tmp_path / "overflow.ini"
    path.write_text(
        "[model]\nd_model = 8\nm_hidden = 4\nffn_dim = 8\n"
        "[training]\nepochs = 1\ntrain_samples = 16\nval_samples = 8\n"
        "lr = 1e300\ngrad_clip = none\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "astroseq", "train", "--config", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


def test_bad_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[training]\nmomentum = 0.9\n")
    code = main(["retention", "--config", str(path)])
    assert code == 2
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["act_ltp = sigmoid", "kappa = sigmoid", "tau_n = 0.5", "init_stp = 0.1"]
)
def test_removed_nonlinearity_key_exits_2(tmp_path, capsys, line):
    """``[simulator]`` takes only ``SimParams`` field names: one that still
    names a nonlinearity (now fixed), a field's old alias or an experiment
    key (set in ``[retention]`` only) is refused with one line, before
    ``--out-dir`` is made."""
    cfg = write_tiny_config(tmp_path, DERIVED + f"\n[simulator]\n{line}\n")
    out = tmp_path / "out"
    assert main(["retention", "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(line.split()[0]) in captured.err


def test_bench_tiny_sizes(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = main(
        ["bench", "--config", str(cfg), "--sizes", "8,16", "--repeats", "1",
         "--out-dir", str(tmp_path / "bench")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"schema", "attention", "stack_samples", "stacks", "retention"}
    assert [r["n_tokens"] for r in payload["attention"]] == [8, 16]
    assert payload["stack_samples"] == harness.STACK_ROWS // 6
    assert [r["stack_samples"] for r in payload["stacks"]] == [1, 2, 4, 8, harness.STACK_ROWS // 6]
    retention = payload["retention"]
    assert [r["n_segments"] for r in retention] == [2, 4, 8, 16]
    for row in retention:
        assert set(row) == {
            "n_segments", "seconds", "median_seconds", "cpu_seconds", "simulated_cycles"
        }
        assert row["seconds"] > 0 and row["cpu_seconds"] >= 0
        assert row["simulated_cycles"] == 1  # the default drive repeats every cycle
    assert (tmp_path / "bench" / "bench.json").exists()


def test_bench_repeats_reach_every_best_of_row(tmp_path, monkeypatch, capsys):
    """--repeats sets the attention and stack-sweep timings; each retention
    row times one derivation."""
    seen = []
    best = harness._best

    def recording(fn, repeats):
        seen.append(repeats)
        return best(fn, repeats)

    monkeypatch.setattr(harness, "_best", recording)
    cfg = write_tiny_config(tmp_path)
    assert main(["bench", "--config", str(cfg), "--sizes", "8", "--repeats", "2"]) == 0
    # attention: linear block and softmax; the stack sweep: a step per
    # algorithm and an evaluation at each of 1, 2, 4 and 8 samples a stack
    # (batch_size 8) and at the run's own STACK_ROWS // 6; then four
    # retention rows.
    assert seen == [2, 2] + [2, 2, 2] * 5 + [1] * 4


def test_bench_payload_names_its_schema(tmp_path, capsys):
    """The payload carries its schema version and the run's stack_samples,
    each stack row per algorithm the real peak bytes beside the counted
    floats, every timed row its median wall time beside its best, and the
    stack sweep one row per stack size, the run's own included."""
    from astroseq.harness import BENCH_SCHEMA

    cfg = write_tiny_config(tmp_path)
    assert main(["bench", "--config", str(cfg), "--sizes", "8", "--repeats", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == BENCH_SCHEMA == 4
    for row in payload["attention"]:
        assert row["astro_median_seconds"] >= row["astro_seconds"]
        assert row["softmax_median_seconds"] >= row["softmax_seconds"]
    stacks = payload["stacks"]
    assert [row["stack_samples"] for row in stacks] == [1, 2, 4, 8, payload["stack_samples"]]
    for row in stacks:
        assert set(row) == {"stack_samples", "amrb", "bptt", "evaluation"}
        for name in ("amrb", "bptt"):
            assert row[name]["tracemalloc_peak_bytes"] > 0
            assert row[name]["step_median_seconds"] >= row[name]["step_seconds"]
        assert row["evaluation"]["median_seconds"] >= row["evaluation"]["seconds"]


def test_bench_bad_sizes_exits_2(tmp_path, capsys):
    code = main(["bench", "--sizes", "a,b"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--sizes=8", "--repeats=0"],
        ["bench", "--sizes=8", "--repeats=-3"],
        ["bench", "--sizes=-4"],
        ["gradcheck", "--tolerance=-1e-8"],
        ["gradcheck", "--tolerance=nan"],
        ["gradcheck", "--tolerance=inf"],
    ],
)
def test_out_of_range_option_exits_2(argv, capsys):
    assert main(argv) == 2
    assert argv[-1].split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, taken",
    [
        pytest.param(command, taken, id=command if taken is None else f"{command}-{taken}")
        for command, taken in [
            ("retention", None),
            ("train", None),
            ("train", "run.json"),
            ("train", "model.ckpt"),
            ("retention", "retention.json"),
            ("simulate", "trace.csv"),
            ("gradcheck", "gradcheck.json"),
            ("eval", "eval.json"),
        ]
    ],
)
def test_out_dir_naming_a_file_exits_2(tmp_path, capsys, command, taken):
    """An --out-dir that is a file, or where the command's file is a
    directory, exits 2 with one error line naming the path, and leaves no
    .tmp file."""
    cfg = write_tiny_config(tmp_path)
    argv = [command, "--config", str(cfg)]
    if command == "eval":
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
        argv += ["--checkpoint", str(tmp_path / "run" / "model.ckpt")]
    out = tmp_path / "out"
    if taken is None:
        out.write_text("")
    else:
        (out / taken).mkdir(parents=True)
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--out-dir" if taken is None else str(out / taken)) in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2
