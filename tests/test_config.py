"""Config parsing: INI run configs and their ``[simulator]`` constants."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from astroseq.config import (
    _RUN_SCHEMA,
    RunConfig,
    load_run_config,
    parse_run_config,
    read_stored_run,
)
from astroseq.errors import ConfigError
from astroseq.neuroglia import SimParams
from astroseq.tasks import KVRetrievalTask

README = Path(__file__).resolve().parents[1] / "README.md"


# ---------------------------------------------------------------------------
# [simulator]


def simulator(text):
    return parse_run_config("[simulator]\n" + text).simulator


def test_sim_params_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="'tau_mem'"):
        simulator("tau_mem = 0.5\ntau_mem = 0.6\n")


def test_sim_params_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match=r"unknown key 'tau_q' in section \[simulator\]"):
        simulator("tau_q = 1.0\n")
    with pytest.raises(ConfigError, match=r"\[simulator\] tau_mem = 'fast' is not a valid float"):
        simulator("tau_mem = fast\n")
    with pytest.raises(ConfigError):
        simulator("just a line\n")


def test_sim_params_validation_errors_become_config_errors():
    with pytest.raises(ConfigError, match=r"\[simulator\]: dt must be positive"):
        simulator("dt = -0.1\n")
    with pytest.raises(ConfigError, match="slow astrocyte timescale"):
        simulator("tau_ltp = 0.5\n")  # not above tau_stp


def test_sim_params_file_parses_to_values():
    assert simulator("tau_mem = 0.7\nleak = 0.3\n") == SimParams(tau_mem=0.7, leak=0.3)
    assert parse_run_config("").simulator == SimParams()


def test_load_sim_params_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[simulator]\ntau_mem = 0.5\ndt = 0.02\n")
    assert load_run_config(path).simulator == SimParams(tau_mem=0.5, dt=0.02)


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

[simulator]
tau_ltp = 7.0
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
        simulator=SimParams(tau_ltp=7.0),
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
    # Constants are set in [simulator]; no key names a file of them.
    with pytest.raises(ConfigError, match=r"unknown key 'params_file' in section \[retention\]"):
        parse_run_config("[retention]\nparams_file = sim.params\n")
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
    # ...and the schema names every RunConfig field once, [simulator] every
    # SimParams field.
    fields = [name for s, keys in _RUN_SCHEMA.items() if s != "simulator" for name in keys.values()]
    assert sorted([*fields, "simulator"]) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert list(_RUN_SCHEMA["simulator"].values()) == [f.name for f in dataclasses.fields(SimParams)]


def test_readme_simulator_section_sets_every_constant_once():
    """The README's ``[simulator]`` section sets each ``SimParams`` field
    once, to its default."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    assert parse_run_config(block).simulator == SimParams()
    section = block.split("[simulator]\n", 1)[1]
    keys = [line.split("=")[0].strip() for line in section.splitlines() if "=" in line]
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


def test_run_config_sim_params_defaults_and_file():
    cfg = RunConfig()
    params, extras = cfg.sim_params()
    assert params == SimParams()
    assert extras["n_neurons"] == cfg.n_neurons

    cfg2 = parse_run_config("[retention]\nn_neurons = 7\n[simulator]\ntau_mem = 0.45\n")
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
        simulator(line + "\n")


@pytest.mark.parametrize(
    "simulator, named",
    [
        (None, "simulator must be an object"),
        ({"tau_ltp": 7.0}, "missing keys ['bias',"),
        ({**dataclasses.asdict(SimParams()), "kappa": 1.0}, "unknown keys ['kappa']"),
        ({**dataclasses.asdict(SimParams()), "dt": "0.04"}, "dt = '0.04' is not a valid float"),
        ({**dataclasses.asdict(SimParams()), "tau_ltp": 0.5}, "slow astrocyte timescale"),
    ],
    ids=["null", "missing", "unknown", "mistyped", "invalid"],
)
def test_stored_simulator_is_read_as_strictly_as_the_run(simulator, named):
    stored = {**dataclasses.asdict(RunConfig()), "simulator": simulator}
    with pytest.raises(ConfigError, match=r"^stored run: simulator") as caught:
        read_stored_run(stored)
    assert named in str(caught.value)


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")
