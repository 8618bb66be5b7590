"""Run configuration (INI sections) and stored runs.

Two formats feed the command-line tools:

* A *run config*: INI sections ``[task]``, ``[model]``, ``[recurrence]``,
  ``[training]``, ``[retention]`` and ``[simulator]`` describing one
  training or evaluation run.  Every key has a default, so an empty file
  is a valid run.  ``[simulator]`` takes the dynamical system's numeric
  constants (its nonlinearities are fixed), each key a ``SimParams`` field
  name; the experiment around the system (grid size, drive rate, cycle
  length, ...) is set in ``[retention]`` only.
* A *stored run*: ``asdict(RunConfig)`` as JSON, a checkpoint's ``run``
  block, its ``simulator`` an object of every constant.

A setting's type is the annotation of its ``RunConfig`` or ``SimParams``
field; ``_check`` states what each type admits.
"""

from __future__ import annotations

import configparser
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidArgumentError
from .model import MAX_AXIS, ModelConfig
from .neuroglia import SimParams
from .retention import check_experiment
from .tasks import CopyTask, KVRetrievalTask, ListOpsTask

_KINDS = {"int": int, "float": float, "str": str}
_SIM_TYPES = {f.name: f.type for f in dataclasses.fields(SimParams)}


def _check(annotation: str, value, where: str):
    """``value`` as a field annotated ``int``, ``float`` or ``str`` (or ``| None``):
    no bool is a number, an int may stand for a float, floats must be finite.
    A ``SimParams`` field is an object of every constant (``_stored``)."""
    if annotation == "SimParams":
        return _simulator(_stored(value, _SIM_TYPES, where), where)
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    accepted = (int, float) if kind == "float" else _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} = {value!r} is not a valid {annotation}")
    # Unlike math.isfinite, this comparison also takes ints too large for a float.
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} = {value!r} is not finite")
    return float(value) if kind == "float" else value


def _convert(annotation: str, raw: str, where: str):
    """Read the text ``raw`` as a field of this annotation (``_check``); an
    optional field's ``none`` or empty text is None."""
    kind = annotation.removesuffix(" | None")
    raw = raw.strip()
    if kind != annotation and raw.lower() in ("none", ""):
        return None
    try:
        value = _KINDS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"{where} = {raw!r} is not a valid {kind}") from exc
    return _check(kind, value, where)


def _stored(data, types: dict, where: str) -> dict:
    """The JSON object ``data`` as fields of these annotations: every name
    present and no other, each value through ``_check``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {type(data).__name__}")
    unknown, missing = sorted(set(data) - set(types)), sorted(set(types) - set(data))
    if unknown or missing:
        raise ConfigError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    return {name: _check(kind, data[name], f"{where}: {name}") for name, kind in types.items()}


def _simulator(values: dict, where: str) -> SimParams:
    try:
        return SimParams(**values)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration

# INI keys named differently from their RunConfig fields.
_RENAMED = {"name": "task", "mode": "retention_mode", "scale": "coupling_scale"}

# section -> ini key -> field: a RunConfig field, in [simulator] a SimParams one
_RUN_SCHEMA: dict[str, dict[str, str]] = {
    section: {key: _RENAMED.get(key, key) for key in keys.split()}
    for section, keys in {
        "task": "name seg_len n_segments n_classes n_keys n_distractors max_depth max_args",
        "model": "d_model m_hidden n_heads ffn_dim n_layers mem_tokens dropout alpha pos_scale",
        "recurrence": "algorithm loss_mode",
        "training": (
            "epochs batch_size train_samples val_samples lr weight_decay grad_clip "
            "target_val_acc"
        ),
        "retention": "mode n_neurons spacing scale cycle_seconds drive_hz init_stp",
        "simulator": " ".join(_SIM_TYPES),
    }.items()
}

# The experiment keys of [retention] -> RunConfig field: the extras of
# ``RunConfig.sim_params``.
SIM_EXTRA_KEYS = {key: name for key, name in _RUN_SCHEMA["retention"].items() if key != "mode"}


@dataclass(frozen=True)
class RunConfig:
    """Everything one training/evaluation run needs, with usable defaults."""

    # task
    task: str = "copy"
    seg_len: int = 8
    n_segments: int = 2
    n_classes: int = 4
    n_keys: int = 6
    n_distractors: int = 3
    max_depth: int = 2
    max_args: int = 4
    # model
    d_model: int = 32
    m_hidden: int = 16
    n_heads: int = 1
    ffn_dim: int = 64
    n_layers: int = 1
    mem_tokens: int = 2
    dropout: float = 0.0
    alpha: float = 0.25
    pos_scale: float = 2.0
    # recurrence
    algorithm: str = "amrb"
    loss_mode: str = "final"
    # training
    epochs: int = 20
    batch_size: int = 16
    train_samples: int = 256
    val_samples: int = 128
    lr: float = 3e-3
    weight_decay: float = 0.01
    grad_clip: float | None = 1.0
    target_val_acc: float | None = None
    # retention
    retention_mode: str = "uniform"
    n_neurons: int = 3
    spacing: float = 1.0
    coupling_scale: float = 1.0
    cycle_seconds: float = 50.0
    drive_hz: float = 10.0
    init_stp: float = 0.05
    # simulator
    simulator: SimParams = SimParams()

    def __post_init__(self):
        if self.task not in ("copy", "kv_retrieval", "listops"):
            raise ConfigError(
                f"unknown task {self.task!r}; expected copy, kv_retrieval or listops"
            )
        if self.algorithm not in ("amrb", "bptt"):
            raise ConfigError(f"algorithm must be amrb or bptt, got {self.algorithm!r}")
        if self.loss_mode not in ("final", "per_segment"):
            raise ConfigError(
                f"loss_mode must be final or per_segment, got {self.loss_mode!r}"
            )
        if self.retention_mode not in ("uniform", "derived"):
            raise ConfigError(
                f"retention mode must be uniform or derived, got {self.retention_mode!r}"
            )
        for name in ("epochs", "batch_size", "train_samples", "val_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("batch_size", "train_samples", "val_samples"):
            if getattr(self, name) > MAX_AXIS:
                raise ConfigError(
                    f"{name} = {getattr(self, name)} is too large: a split or batch holds "
                    f"at most {MAX_AXIS} samples"
                )
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive (or none)")
        if self.target_val_acc is not None and not (0.0 < self.target_val_acc <= 1.0):
            raise ConfigError("target_val_acc must lie in (0, 1]")

    # -- derived objects ----------------------------------------------------

    def build_task(self):
        if self.task == "copy":
            return CopyTask(self.seg_len, self.n_segments, n_classes=self.n_classes)
        if self.task == "kv_retrieval":
            return KVRetrievalTask(
                self.seg_len, self.n_segments, n_classes=self.n_classes,
                n_keys=self.n_keys, n_distractors=self.n_distractors,
            )
        return ListOpsTask(
            self.seg_len, self.n_segments, max_depth=self.max_depth, max_args=self.max_args
        )

    def model_config(self, vocab_size: int, n_classes: int) -> ModelConfig:
        """The model fields of this config, for a task's vocabulary and classes."""
        own = {f.name for f in dataclasses.fields(self)}
        shared = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(ModelConfig)
            if f.name in own
        }
        return ModelConfig(**{**shared, "vocab_size": vocab_size, "n_classes": n_classes})

    def sim_params(self) -> tuple[SimParams, dict]:
        """(SimParams, extras) for derived retention: the ``[simulator]``
        constants and this config's six experiment keys."""
        return self.simulator, {key: getattr(self, name) for key, name in SIM_EXTRA_KEYS.items()}


_RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_run_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig; unknown sections or keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad run config: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    values: dict = {}
    constants: dict = {}
    for section in cp.sections():
        if section not in _RUN_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _RUN_SCHEMA[section]
        into, types = (constants, _SIM_TYPES) if section == "simulator" else (values, _RUN_TYPES)
        for key, raw in cp.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            into[schema[key]] = _convert(types[schema[key]], raw, f"[{section}] {key}")
    return RunConfig(**values, simulator=_simulator(constants, "[simulator]"))


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read run config {path}: {exc}") from exc
    return parse_run_config(text)


def read_stored_run(data) -> RunConfig:
    """A stored run, ``asdict(RunConfig)`` read back from JSON: every field
    present and no other, each with a value of its field's type
    (``_check``), ``simulator`` as strictly as the run."""
    return RunConfig(**_stored(data, _RUN_TYPES, "stored run"))


def check_run(cfg: RunConfig) -> None:
    """Refuse a run that could not be carried out, building nothing for
    it: a task or model that does not build, an experiment key the
    simulator would refuse, whatever the retention mode, and
    ``mem_tokens = 0`` where the task's shortest sequence fits in the
    first T - 1 segments, which leaves segment T only padding and no row
    to attend over."""
    task = cfg.build_task()
    cfg.model_config(task.spec.vocab_size, task.spec.n_classes)
    check_experiment(*cfg.sim_params())
    if cfg.mem_tokens == 0 and task.min_tokens <= cfg.seg_len * (cfg.n_segments - 1):
        raise InvalidArgumentError(
            f"segment {cfg.n_segments} may hold only padding ({cfg.task} draws {task.min_tokens} "
            "tokens or more), and mem_tokens = 0 leaves it no row to attend over"
        )


def check_same_run(given: RunConfig, stored: RunConfig) -> None:
    """Refuse ``given`` if a [task], [model], [retention] or [simulator]
    setting differs from ``stored``, naming each; [recurrence] and
    [training] do not change a score."""
    compared = [(given, stored, _RUN_SCHEMA[s].values()) for s in ("task", "model", "retention")]
    compared.append((given.simulator, stored.simulator, _SIM_TYPES))
    mismatched = [
        f"{name} {getattr(a, name)!r} vs {getattr(b, name)!r}"
        for a, b, names in compared
        for name in names
        if getattr(a, name) != getattr(b, name)
    ]
    if mismatched:
        raise InvalidArgumentError(f"config differs from the stored run ({', '.join(mismatched)})")
