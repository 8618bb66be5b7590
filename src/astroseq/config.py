"""Run configuration (INI sections) and simulator parameter files.

Two file formats feed the command-line tools:

* A *run config*: INI sections ``[task]``, ``[model]``, ``[recurrence]``,
  ``[training]``, ``[retention]`` describing one training or evaluation
  run.  Every key has a default, so an empty file is a valid run.
* A *simulator parameter file*: flat ``key = value`` lines for the
  dynamical system.  Keys may use either the descriptive field names of
  ``SimParams`` or the compact physics-style aliases (``tau_n``,
  ``lambda``, ``gamma_s``, ...); a few extra keys describe the
  surrounding experiment (grid size, drive rate, cycle length).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .neuroglia import SimParams
from .tasks import make_task

# ---------------------------------------------------------------------------
# simulator parameter files

SIM_ALIASES = {
    "tau_n": "tau_mem",
    "tau_s": "tau_fac",
    "tau_p_s": "tau_stp",
    "tau_p_l": "tau_ltp",
    "lambda": "leak",
    "beta": "fac_decay",
    "gamma_s": "stp_decay",
    "gamma_l": "ltp_decay",
    "b": "bias",
    "c": "fac_input",
    "d": "stp_input",
    "phi": "act_rate",
    "theta": "act_hebb",
    "psi": "act_astro",
    "kappa": "act_ltp",
    "g": "syn_gain",
}

_SIM_STRING_FIELDS = {"act_rate", "act_hebb", "act_astro", "act_ltp", "syn_gain"}
_SIM_FIELDS = {f.name for f in dataclasses.fields(SimParams)}

# Experiment-scope keys that may sit in the same file.
SIM_EXTRA_KEYS = {
    "n_neurons": int,
    "spacing": float,
    "scale": float,
    "cycle_seconds": float,
    "drive_hz": float,
    "init_stp": float,
}


def parse_sim_params(text: str) -> tuple[SimParams, dict]:
    """Parse ``key = value`` lines into (SimParams, extras).

    ``#`` starts a comment; blank lines are skipped; unknown or repeated
    keys are errors.  Extras hold the experiment-scope keys, coerced.
    """
    values: dict = {}
    extras: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        canonical = SIM_ALIASES.get(key, key)
        if canonical in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(canonical)
        if canonical in _SIM_FIELDS:
            if canonical in _SIM_STRING_FIELDS:
                values[canonical] = value
            else:
                values[canonical] = _coerce(float, value, key, lineno)
        elif canonical in SIM_EXTRA_KEYS:
            extras[canonical] = _coerce(SIM_EXTRA_KEYS[canonical], value, key, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown simulator key {key!r}")
    try:
        params = SimParams(**values)
    except Exception as exc:
        raise ConfigError(f"bad simulator parameters: {exc}") from exc
    return params, extras


def _coerce(kind, value: str, key: str, lineno: int):
    try:
        result = kind(value)
    except ValueError as exc:
        raise ConfigError(
            f"line {lineno}: cannot read {key!r}={value!r} as {kind.__name__}"
        ) from exc
    if not math.isfinite(result):
        raise ConfigError(f"line {lineno}: {key!r}={value!r} is not finite")
    return result


def load_sim_params(path) -> tuple[SimParams, dict]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read simulator parameters {path}: {exc}") from exc
    return parse_sim_params(text)


def dump_sim_params(params: SimParams, extras: dict | None = None) -> str:
    """Emit a file that parses back to exactly these values."""
    lines = [f"{name} = {getattr(params, name)}" for name in sorted(_SIM_FIELDS)]
    for key in sorted(extras or {}):
        if key not in SIM_EXTRA_KEYS:
            raise ConfigError(f"unknown extra simulator key {key!r}")
        lines.append(f"{key} = {extras[key]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run configuration

_OPTIONAL_FLOAT = "optional_float"
_OPTIONAL_STR = "optional_str"

# section -> ini key -> (dataclass field, type tag)
_RUN_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "task": {
        "name": ("task", str),
        "seg_len": ("seg_len", int),
        "n_segments": ("n_segments", int),
        "n_classes": ("n_classes", int),
        "n_keys": ("n_keys", int),
        "n_distractors": ("n_distractors", int),
        "max_depth": ("max_depth", int),
        "max_args": ("max_args", int),
    },
    "model": {
        "d_model": ("d_model", int),
        "m_hidden": ("m_hidden", int),
        "n_heads": ("n_heads", int),
        "ffn_dim": ("ffn_dim", int),
        "n_layers": ("n_layers", int),
        "mem_tokens": ("mem_tokens", int),
        "dropout": ("dropout", float),
        "alpha": ("alpha", float),
        "pos_scale": ("pos_scale", float),
    },
    "recurrence": {
        "algorithm": ("algorithm", str),
        "loss_mode": ("loss_mode", str),
    },
    "training": {
        "epochs": ("epochs", int),
        "batch_size": ("batch_size", int),
        "train_samples": ("train_samples", int),
        "val_samples": ("val_samples", int),
        "lr": ("lr", float),
        "weight_decay": ("weight_decay", float),
        "grad_clip": ("grad_clip", _OPTIONAL_FLOAT),
        "target_val_acc": ("target_val_acc", _OPTIONAL_FLOAT),
    },
    "retention": {
        "mode": ("retention_mode", str),
        "n_neurons": ("n_neurons", int),
        "spacing": ("spacing", float),
        "scale": ("coupling_scale", float),
        "cycle_seconds": ("cycle_seconds", float),
        "drive_hz": ("drive_hz", float),
        "init_stp": ("init_stp", float),
        "params_file": ("sim_params_file", _OPTIONAL_STR),
    },
}


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
    sim_params_file: str | None = None

    def __post_init__(self):
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
        knobs: dict = {}
        if self.task in ("copy", "kv_retrieval"):
            knobs["n_classes"] = self.n_classes
        if self.task == "kv_retrieval":
            knobs.update(n_keys=self.n_keys, n_distractors=self.n_distractors)
        if self.task == "listops":
            knobs.update(max_depth=self.max_depth, max_args=self.max_args)
        return make_task(self.task, self.seg_len, self.n_segments, **knobs)

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
        """Simulator parameters for derived retention, file overrides applied."""
        extras = {
            "n_neurons": self.n_neurons,
            "spacing": self.spacing,
            "scale": self.coupling_scale,
            "cycle_seconds": self.cycle_seconds,
            "drive_hz": self.drive_hz,
            "init_stp": self.init_stp,
        }
        if self.sim_params_file is None:
            return SimParams(), extras
        params, file_extras = load_sim_params(self.sim_params_file)
        extras.update(file_extras)
        return params, extras


def parse_run_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig; unknown sections or keys are errors."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad run config: {exc}") from exc
    values: dict = {}
    for section in cp.sections():
        if section not in _RUN_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _RUN_SCHEMA[section]
        for key, raw in cp.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, kind = schema[key]
            values[field_name] = _convert(kind, raw, section, key)
    return RunConfig(**values)


def _convert(kind, raw: str, section: str, key: str):
    raw = raw.strip()
    if kind is _OPTIONAL_FLOAT:
        if raw.lower() in ("none", ""):
            return None
        kind = float
    elif kind is _OPTIONAL_STR:
        return None if raw.lower() in ("none", "") else raw
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read run config {path}: {exc}") from exc
    return parse_run_config(text)


def run_config_to_ini(cfg: RunConfig) -> str:
    """Emit INI text that parses back to an equal RunConfig."""
    lines = []
    for section, schema in _RUN_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field_name, _) in schema.items():
            value = getattr(cfg, field_name)
            lines.append(f"{key} = {'none' if value is None else value}")
        lines.append("")
    return "\n".join(lines)
