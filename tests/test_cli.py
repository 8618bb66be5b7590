"""Command-line interface: outputs, artifacts, and exit-code contract."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from astroseq import cli, retention
from astroseq.checkpoint import save_checkpoint
from astroseq.cli import main
from astroseq.config import load_run_config
from astroseq.model import SegmentModel
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


def test_eval_non_finite_logits_exits_3(tmp_path, capsys):
    # With a NaN head every logit is NaN, and argmax would silently pick class 0.
    cfg_path = write_tiny_config(tmp_path)
    run_cfg = load_run_config(cfg_path)
    spec = run_cfg.build_task().spec
    model_cfg = run_cfg.model_config(spec.vocab_size, spec.n_classes)
    arrays = SegmentModel(model_cfg).state_arrays()
    arrays["head.w"][:] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, {"model": asdict(model_cfg)}, arrays)
    code = main(["eval", "--config", str(cfg_path), "--checkpoint", str(path)])
    assert code == 3
    assert "logits" in capsys.readouterr().err


def test_simulate_and_retention_share_initial_state(tmp_path, monkeypatch, capsys):
    seen = []
    original = retention.run_stp_cycles

    def spy(*args, initial=None, **kwargs):
        seen.append(initial)
        return original(*args, initial=initial, **kwargs)

    monkeypatch.setattr(retention, "run_stp_cycles", spy)
    digests = []
    for init_stp in (0.2, 0.0):
        cfg = write_tiny_config(
            tmp_path,
            "\n[retention]\nmode = derived\nn_neurons = 2\ncycle_seconds = 4\n"
            f"init_stp = {init_stp}\n",
        )
        seen.clear()
        assert main(["simulate", "--config", str(cfg), "--cycles", "2"]) == 0
        out = tmp_path / "ret"
        assert main(["retention", "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        simulated, derived = seen
        for name in ("v", "fac", "stp", "ltp", "rate", "spikes"):
            assert np.array_equal(getattr(simulated, name), getattr(derived, name))
        assert np.all(derived.stp == init_stp)
        source = json.loads((out / "retention.json").read_text())["source"]
        assert source["init_stp"] == init_stp
        digests.append(source["digest"])
    assert digests[0] != digests[1]
    assert len(list((tmp_path / "ret" / "retention_cache").glob("retention_*.json"))) == 2


def test_bad_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[training]\nmomentum = 0.9\n")
    code = main(["retention", "--config", str(path)])
    assert code == 2
    assert "momentum" in capsys.readouterr().err


def test_bench_tiny_sizes(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = main(
        ["bench", "--config", str(cfg), "--sizes", "8,16", "--repeats", "1",
         "--out-dir", str(tmp_path / "bench")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n_tokens"] for r in payload["attention"]] == [8, 16]
    assert set(payload["rollouts"]) == {"amrb", "bptt"}
    assert (tmp_path / "bench" / "bench.json").exists()


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


@pytest.mark.parametrize("command", ["retention", "train"])
def test_out_dir_naming_a_file_exits_2(tmp_path, capsys, command):
    cfg = write_tiny_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", str(cfg), "--out-dir", str(taken)]) == 2
    assert "--out-dir" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2
