"""Config parsing: simulator parameter files and INI run configs."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from astroseq.config import (
    _RUN_SCHEMA,
    RunConfig,
    load_run_config,
    load_sim_params,
    parse_run_config,
    parse_sim_params,
)
from astroseq.errors import ConfigError
from astroseq.neuroglia import SimParams
from astroseq.tasks import KVRetrievalTask

README = Path(__file__).resolve().parents[1] / "README.md"


# ---------------------------------------------------------------------------
# simulator parameter files


def test_sim_params_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate key 'tau_mem'"):
        parse_sim_params("tau_mem = 0.5\ntau_mem = 0.6\n")


def test_sim_params_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_sim_params("tau_q = 1.0\n")
    with pytest.raises(ConfigError):
        parse_sim_params("tau_mem = fast\n")
    with pytest.raises(ConfigError):
        parse_sim_params("just a line\n")


def test_sim_params_validation_errors_become_config_errors():
    with pytest.raises(ConfigError):
        parse_sim_params("dt = -0.1\n")
    with pytest.raises(ConfigError):
        parse_sim_params("tau_ltp = 0.5\n")  # not above tau_stp


def test_sim_params_file_parses_to_values():
    text = "tau_mem = 0.7\nleak = 0.3\n"
    assert parse_sim_params(text) == SimParams(tau_mem=0.7, leak=0.3)


def test_load_sim_params_from_file(tmp_path):
    path = tmp_path / "sim.params"
    path.write_text("tau_mem = 0.5\ndt = 0.02\n")
    assert load_sim_params(path) == SimParams(tau_mem=0.5, dt=0.02)
    with pytest.raises(ConfigError):
        load_sim_params(tmp_path / "missing.params")


# ---------------------------------------------------------------------------
# run configs


def test_empty_run_config_gives_defaults():
    cfg = parse_run_config("")
    assert cfg == RunConfig()


def test_run_config_ini_parses_to_values():
    text = """
[task]
name = kv_retrieval
n_segments = 8

[model]
m_hidden = 16
n_heads = 2
mem_tokens = 4

[recurrence]
algorithm = bptt
loss_mode = per_segment

[training]
grad_clip = none

[retention]
mode = derived
params_file = none
"""
    assert parse_run_config(text) == RunConfig(
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


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nepochs = 1\nbogus = 3\n",
        "[DEFAULT]\nseg_len = 4\n[task]\nname = copy\n",
        "[DEFAULT]\nseg_len = 4\n[task]\nname = copy\n[model]\nd_model = 8\n",
    ],
    ids=["alone", "beside_task", "beside_task_and_model"],
)
def test_run_config_rejects_default_section(text):
    # configparser hides [DEFAULT] from sections() and copies its keys into
    # every other section; it is not a section of the run config.
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        parse_run_config(text)


def test_readme_example_parses_and_sets_every_key():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = parse_run_config(block)
    assert cfg.task == "kv_retrieval" and cfg.retention_mode == "derived"
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(block)
    assert {s: set(cp[s]) for s in cp.sections()} == {
        s: set(keys) for s, keys in _RUN_SCHEMA.items()
    }
    # ...and the schema names every RunConfig field once.
    fields = [name for keys in _RUN_SCHEMA.values() for name in keys.values()]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_readme_simulator_file_sets_every_constant_once():
    """The README's simulator file parses and sets each ``SimParams`` field
    once, to its default."""
    block = re.search(r"```conf\n(.*?)```", README.read_text(), re.S).group(1)
    assert parse_sim_params(block) == SimParams()
    keys = [line.split("=")[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(SimParams))


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
    sim_file.write_text("tau_mem = 0.45\n")
    cfg2 = RunConfig(n_neurons=7, sim_params_file=str(sim_file))
    params2, extras2 = cfg2.sim_params()
    assert params2 == SimParams(tau_mem=0.45)
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


@pytest.mark.parametrize("line", ["tau_mem = nan", "tau_ltp = inf"])
def test_sim_params_reject_non_finite_floats(line):
    with pytest.raises(ConfigError, match="not finite"):
        parse_sim_params(line + "\n")


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")
