"""Experiment configuration: one JSON file drives training, evaluation, and
planning. Every run writes its fully resolved config back into the run
directory so (config, seed, format versions) reproduce it exactly.
"""

from __future__ import annotations

import json
import os
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .env import EnvConfig
from .errors import ConfigError
from .model import ModelConfig
from .planner import ConstraintSet, PlannerConfig
from .terrain import MAX_LEVEL, TERRAIN_KINDS

CONFIG_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TrainSettings:
    iterations: int = 300
    steps_per_iteration: int = 240
    gamma: float = 0.99
    gae_lambda: float = 0.95
    ppo_epochs: int = 4
    ppo_minibatches: int = 4
    clip_ratio: float = 0.2
    entropy_coef: float = 0.005
    learning_rate: float = 1e-4
    model_updates_per_iteration: int = 8
    model_batch: int = 16
    model_seq_len: int = 16
    replay_capacity: int = 200_000
    grad_clip_model: float = 100.0
    grad_clip_ac: float = 1.0
    num_envs: int = 64
    curriculum: bool = True
    curriculum_window: int = 50
    checkpoint_every: int = 50
    save_resume_state: bool = True

    def validate(self):
        for name in ("iterations", "steps_per_iteration", "ppo_epochs",
                     "ppo_minibatches", "model_batch", "model_seq_len", "num_envs",
                     "curriculum_window", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name}", "must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("train.gamma", "must lie in (0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError("train.gae_lambda", "must lie in [0, 1]")
        # written `not x > 0` so that NaN fails too; a negative clip norm
        # would flip the sign of every gradient
        for name in ("learning_rate", "grad_clip_model", "grad_clip_ac"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"train.{name}", "must be positive")
        if not 0.0 < self.clip_ratio < 1.0:
            raise ConfigError("train.clip_ratio", "must lie in (0, 1)")
        for name in ("entropy_coef", "model_updates_per_iteration"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"train.{name}", "must be >= 0")
        return self


def _coerce(value, ftype, path):
    origin = typing.get_origin(ftype)
    if origin is typing.Union or isinstance(ftype, types.UnionType):
        args = typing.get_args(ftype)
        if value is None and type(None) in args:
            return None
        return _coerce(value, next(a for a in args if a is not type(None)), path)
    if ftype is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or int(value) != value:
            raise ConfigError(path, f"expected integer, got {value!r}")
        return int(value)
    if ftype is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected number, got {value!r}")
        return float(value)
    if ftype is bool:
        if not isinstance(value, bool):
            raise ConfigError(path, f"expected boolean, got {value!r}")
        return value
    if ftype is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected string, got {value!r}")
        return value
    if origin is tuple or ftype is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected list, got {value!r}")
        return tuple(value)
    if is_dataclass(ftype):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected object, got {value!r}")
        return _apply(ftype, value, path)
    return value


def _apply(cls, data: dict, path: str):
    """Build dataclass `cls` from a dict, reporting dotted-path field errors."""
    known = {f.name for f in fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
        sub = f"{path}.{key}" if path else key
        kwargs[key] = _coerce(value, hints[key], sub)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(path or cls.__name__, str(e)) from e


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    run_tag: str = "run"
    out_dir: str | None = None
    env: EnvConfig = field(default_factory=EnvConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    train: TrainSettings = field(default_factory=TrainSettings)

    def validate(self) -> "ExperimentConfig":
        self.train.validate()
        self.planner.validate()
        env = self.env
        if not env.dt > 0.0:
            raise ConfigError("env.dt", "must be positive")
        if env.terrain_kind not in TERRAIN_KINDS:
            raise ConfigError("env.terrain_kind", f"must be one of {TERRAIN_KINDS}")
        if not 0 <= env.terrain_level <= MAX_LEVEL:
            raise ConfigError("env.terrain_level", f"must lie in 0..{MAX_LEVEL}")
        if not all(lo < hi for lo, hi in zip(env.action_low, env.action_high)):
            raise ConfigError("env.action_low", "must lie below action_high")
        for name in ("max_steps", "scan_every"):
            if getattr(env, name) < 1:
                raise ConfigError(f"env.{name}", "must be >= 1")
        for name in ("sigma_lin", "sigma_ang"):
            if not getattr(env, name) > 0.0:
                raise ConfigError(f"env.{name}", "tracking scale must be positive")
        for name in ("d_h", "d_z", "d_e", "imagination_horizon", "embed_hidden",
                     "head_hidden", "decoder_hidden"):
            if getattr(self.model, name) < 1:
                raise ConfigError(f"model.{name}", "must be >= 1")
        if not self.model.beta_kl >= 0.0:
            raise ConfigError("model.beta_kl", "must be >= 0")
        if env.scan_every != int(round(self.model.dt_model / env.dt)):
            raise ConfigError(
                "model.dt_model", "model timestep must equal env.dt * env.scan_every "
                "(the two-rate contract)")
        if self.train.steps_per_iteration % self.steps_per_tick:
            raise ConfigError("train.steps_per_iteration", "must be a multiple of "
                              f"env.scan_every = {self.steps_per_tick} (whole model ticks)")
        if self.train.replay_capacity < self.max_episode_records:
            raise ConfigError("train.replay_capacity", "must hold the "
                              f"{self.max_episode_records} records of the longest episode")
        return self

    @property
    def steps_per_tick(self) -> int:
        return self.env.scan_every

    @property
    def max_episode_records(self) -> int:
        """Model ticks, and so replay records, in the longest episode."""
        return -(-self.env.max_steps // self.steps_per_tick)

    def to_dict(self) -> dict:
        def conv(obj):
            if is_dataclass(obj) and not isinstance(obj, type):
                return {f.name: conv(getattr(obj, f.name)) for f in fields(obj)}
            if isinstance(obj, tuple):
                return list(obj)
            return obj
        d = conv(self)
        d["config_schema_version"] = CONFIG_SCHEMA_VERSION
        return d

    def resolved_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        data = dict(data)
        version = data.pop("config_schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION:
            raise ConfigError("config_schema_version",
                              f"unsupported version {version}")
        if "seed" not in data:
            raise ConfigError("seed", "required field is missing")
        cfg = _apply(cls, data, "")
        return cfg.validate()

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        if not os.path.exists(path):
            raise ConfigError("<config file>", f"no such file: {path}")
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError("<config file>", f"invalid JSON: {e}") from e
        return cls.from_dict(data)

