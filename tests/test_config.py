"""Config parsing: simulator parameter files and INI run configs."""

import pytest

from astroseq.config import (
    RunConfig,
    dump_sim_params,
    load_run_config,
    load_sim_params,
    parse_run_config,
    parse_sim_params,
    run_config_to_ini,
)
from astroseq.errors import ConfigError
from astroseq.neuroglia import SimParams
from astroseq.tasks import KVRetrievalTask


# ---------------------------------------------------------------------------
# simulator parameter files


def test_sim_params_accepts_compact_aliases():
    text = """
    # physics-style names
    tau_n = 0.6
    tau_p_l = 7.5
    lambda = 0.3
    gamma_s = 0.15
    b = 0.05
    kappa = sigmoid
    g = linear
    """
    params, extras = parse_sim_params(text)
    assert params.tau_mem == 0.6
    assert params.tau_ltp == 7.5
    assert params.leak == 0.3
    assert params.stp_decay == 0.15
    assert params.bias == 0.05
    assert params.act_ltp == "sigmoid"
    assert extras == {}


def test_sim_params_accepts_descriptive_names_and_extras():
    text = "tau_mem = 0.9\nn_neurons = 5\nscale = 2.0\ninit_stp = 0.05\n"
    params, extras = parse_sim_params(text)
    assert params.tau_mem == 0.9
    assert extras == {"n_neurons": 5, "scale": 2.0, "init_stp": 0.05}
    assert isinstance(extras["n_neurons"], int)


def test_sim_params_rejects_duplicates_even_across_aliases():
    with pytest.raises(ConfigError):
        parse_sim_params("tau_n = 0.5\ntau_mem = 0.6\n")


def test_sim_params_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_sim_params("tau_q = 1.0\n")
    with pytest.raises(ConfigError):
        parse_sim_params("tau_n = fast\n")
    with pytest.raises(ConfigError):
        parse_sim_params("just a line\n")


def test_sim_params_validation_errors_become_config_errors():
    with pytest.raises(ConfigError):
        parse_sim_params("dt = -0.1\n")
    with pytest.raises(ConfigError):
        parse_sim_params("phi = sigmoidal\n")


def test_sim_params_dump_round_trip():
    params = SimParams(tau_mem=0.7, leak=0.3, act_ltp="sigmoid")
    extras = {"n_neurons": 4, "drive_hz": 12.5}
    text = dump_sim_params(params, extras)
    params2, extras2 = parse_sim_params(text)
    assert params2 == params
    assert extras2 == extras


def test_load_sim_params_from_file(tmp_path):
    path = tmp_path / "sim.params"
    path.write_text("tau_n = 0.5\ndrive_hz = 8.0\n")
    params, extras = load_sim_params(path)
    assert params.tau_mem == 0.5
    assert extras["drive_hz"] == 8.0
    with pytest.raises(ConfigError):
        load_sim_params(tmp_path / "missing.params")


# ---------------------------------------------------------------------------
# run configs


def test_empty_run_config_gives_defaults():
    cfg = parse_run_config("")
    assert cfg == RunConfig()


def test_run_config_round_trip():
    cfg = RunConfig(
        task="kv_retrieval",
        n_segments=8,
        mem_tokens=4,
        n_heads=2,
        m_hidden=16,
        algorithm="bptt",
        loss_mode="per_segment",
        retention_mode="derived",
        grad_clip=None,
        sim_params_file=None,
    )
    assert parse_run_config(run_config_to_ini(cfg)) == cfg


def test_run_config_sections_override_defaults():
    text = """
[task]
name = listops
seg_len = 12
n_segments = 4

[training]
lr = 0.001
grad_clip = none
"""
    cfg = parse_run_config(text)
    assert cfg.task == "listops"
    assert cfg.seg_len == 12
    assert cfg.lr == 0.001
    assert cfg.grad_clip is None
    assert cfg.d_model == RunConfig().d_model


def test_run_config_rejects_unknown_sections_keys_and_values():
    with pytest.raises(ConfigError):
        parse_run_config("[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError):
        parse_run_config("[training]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError):
        parse_run_config("[training]\nepochs = soon\n")
    with pytest.raises(ConfigError):
        parse_run_config("[recurrence]\nalgorithm = magic\n")
    with pytest.raises(ConfigError):
        parse_run_config("no section header")


def test_run_config_builds_task_and_model():
    cfg = parse_run_config(
        "[task]\nname = kv_retrieval\nseg_len = 6\nn_segments = 8\nn_keys = 5\n"
    )
    task = cfg.build_task()
    assert isinstance(task, KVRetrievalTask)
    assert task.n_keys == 5
    mc = cfg.model_config(task.spec.vocab_size, task.spec.n_classes)
    assert mc.vocab_size == task.spec.vocab_size
    assert mc.seg_len == 6
    assert mc.n_segments == 8


def test_run_config_sim_params_defaults_and_file(tmp_path):
    cfg = RunConfig()
    params, extras = cfg.sim_params()
    assert params == SimParams()
    assert extras["n_neurons"] == cfg.n_neurons

    sim_file = tmp_path / "sim.params"
    sim_file.write_text("tau_n = 0.45\nn_neurons = 7\n")
    cfg2 = RunConfig(sim_params_file=str(sim_file))
    params2, extras2 = cfg2.sim_params()
    assert params2.tau_mem == 0.45
    assert extras2["n_neurons"] == 7


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("training", "grad_clip", "nan"),
        ("training", "weight_decay", "nan"),
        ("training", "lr", "inf"),
        ("retention", "drive_hz", "nan"),
        ("retention", "scale", "inf"),
        ("model", "pos_scale", "inf"),
        ("model", "dropout", "-inf"),
    ],
)
def test_run_config_rejects_non_finite_floats(section, key, value):
    with pytest.raises(ConfigError, match="not finite"):
        parse_run_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("line", ["tau_mem = nan", "tau_n = inf", "scale = inf", "drive_hz = nan"])
def test_sim_params_reject_non_finite_floats(line):
    with pytest.raises(ConfigError, match="not finite"):
        parse_sim_params(line + "\n")


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")
