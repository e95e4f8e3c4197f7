"""Run configuration: sectioned key-value files plus command-line overrides.

The config format is INI-style (``[section]`` headers, ``key = value``
lines, ``#``/``;`` comments), chosen because the resolved experiment
manifests stay diff-able.  Overrides are dotted ``section.key=value``
strings and win over file values.  Unknown sections or keys are errors; so
are missing required keys.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Optional, get_type_hints

from .costmodel import ALGORITHMS
from .distsim import SHARD_POLICIES, worker_spans
from .errors import ArgumentError, ConfigError, at_least, check_fields, one_of
from .kfac import KfacHyper
from .model import NetworkSpec
from .datasets import SYNTHETIC_KINDS, SYNTHETIC_RULES


@dataclass(frozen=True)
class DataConfig:
    kind: str = "gaussian_blobs"
    classes: int = 10
    dim: int = 64
    samples: int = 10000
    noise: float = 0.1
    out_dim: int = 1
    images: str = ""
    labels: str = ""
    eval_fraction: float = 0.1

    def __post_init__(self):
        check_fields(vars(self), {"kind": one_of(SYNTHETIC_KINDS + ("idx",)), **SYNTHETIC_RULES,
                                  "eval_fraction": ((lambda v: 0.0 <= v < 1.0), "in [0, 1)")})
        if self.kind == "gaussian_blobs":  # every class gets a sample
            check_fields(vars(self), {"samples": ((lambda v: v >= self.classes),
                                                  f">= classes ({self.classes})")})


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "dp_kfac"
    workers: int = 1
    shard_policy: str = "disjoint"
    epochs: int = 1
    batch_size: int = 128
    seed: int = 0
    out_dir: str = "runs/latest"

    def __post_init__(self):
        check_fields(vars(self), {"algorithm": one_of(ALGORITHMS), "workers": at_least(1),
                                  "shard_policy": one_of(SHARD_POLICIES), "epochs": at_least(1),
                                  "batch_size": at_least(1), "seed": at_least(0)})


@dataclass(frozen=True)
class HyperConfig(KfacHyper):
    """KfacHyper's knobs plus the optimizer's: lr, momentum and the LR schedule."""

    lr: float = 0.1
    momentum: float = 0.9
    warmup_iters: int = 0
    decay_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        check_fields(vars(self), {
            "lr": ((lambda v: 0.0 < v < math.inf), "finite and > 0"),
            "momentum": ((lambda v: 0.0 <= v < 1.0), "in [0, 1)"), "warmup_iters": at_least(0),
            "decay_epochs": ((lambda v: all(e >= 0 for e in v)), "a list of epochs >= 0")})

    def lr_at(self, t: int, epoch: int, workers: int) -> float:
        """Learning rate at iteration ``t`` in epoch ``epoch`` on ``workers``
        workers: a linear ramp from ``lr`` to ``workers * lr`` over the warmup
        iterations, then divided by 10 at every decay epoch already reached."""
        peak = self.lr * workers
        if self.warmup_iters > 0 and t < self.warmup_iters:
            return self.lr + (peak - self.lr) * (t / self.warmup_iters)
        drops = sum(1 for e in self.decay_epochs if epoch >= e)
        return peak / 10.0 ** drops


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    data: DataConfig
    train: TrainConfig
    hyper: HyperConfig

    def to_dict(self) -> dict:
        """The resolved ``config`` block of a run manifest."""
        return {section: asdict(getattr(self, section)) for section in _SECTIONS}


def _int_list(raw: str) -> tuple[int, ...]:
    """Comma- or space-separated integers; an empty item (``64,,10``) is an
    error, not a skipped entry."""
    raw = raw.strip()
    if not raw:
        return ()
    items = [item.strip() for item in raw.split(",")]
    if "" in items:
        raise ValueError("empty list item")
    return tuple(int(x) for item in items for x in item.split())


# section -> the dataclass whose fields are its keys
_SECTIONS = {"network": NetworkSpec, "data": DataConfig, "train": TrainConfig, "hyper": HyperConfig}
# each key is read by the caster of its field's type; its record checks the value
_CASTERS = {int: int, float: float, str: str, tuple[int, ...]: _int_list}
# field type -> (the test a run manifest's JSON value must pass, what it asks
# for); by type(), not isinstance(), because a bool is not an int here
_JSON_TYPES = {
    int: ((lambda v: type(v) is int), "an integer"),
    float: ((lambda v: type(v) in (int, float)), "a number"),
    str: ((lambda v: type(v) is str), "a string"),
    tuple[int, ...]: ((lambda v: type(v) in (list, tuple) and all(type(e) is int for e in v)),
                      "a list of integers"),
}
# section -> key -> field type, in field order
_FIELDS = {section: get_type_hints(cls) for section, cls in _SECTIONS.items()}
# section -> key -> caster; a field type with no caster fails here, at import
_SCHEMA: dict[str, dict[str, object]] = {
    section: {key: _CASTERS[annotation] for key, annotation in fields.items()}
    for section, fields in _FIELDS.items()
}


def parse_overrides(pairs) -> dict[str, str]:
    """Turn ``section.key=value`` strings (optionally ``--``-prefixed) into a
    flat mapping."""
    overrides = {}
    for raw in pairs:
        item = raw[2:] if raw.startswith("--") else raw
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {raw!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        overrides[dotted] = value
    return overrides


def _build(values: Mapping[str, Mapping[str, object]], cast) -> RunConfig:
    """The validated RunConfig of ``values`` (section -> key -> value), each
    cast by ``cast(section, key, value)``; absent keys keep their defaults."""
    for section, keys in values.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    if "layer_dims" not in values.get("network", {}):
        raise ConfigError("missing required key network.layer_dims")
    built = {}
    for section, cls in _SECTIONS.items():
        kwargs = {key: cast(section, key, raw) for key, raw in values.get(section, {}).items()}
        try:
            built[section] = cls(**kwargs)
        except ArgumentError as exc:  # its message starts with the field's name
            raise ConfigError(f"{section}.{exc}") from exc
    cfg = RunConfig(**built)
    validate_config(cfg)
    return cfg


def _cast(section: str, key: str, raw):
    try:
        return _SCHEMA[section][key](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _cast_json(section: str, key: str, value):
    """A run manifest's value, checked against its field's type and then
    cast as text is: an int field takes an int that is not a bool, a float
    field an int or a float; the record checks choices and ranges."""
    annotation = _FIELDS[section][key]
    test, wanted = _JSON_TYPES[annotation]
    if not test(value):
        raise ConfigError(f"{section}.{key} must be {wanted}, got {value!r}")
    return tuple(value) if annotation == tuple[int, ...] else _cast(section, key, value)


def load_config(path, overrides: Optional[Mapping[str, str]] = None) -> RunConfig:
    """Parse, override, validate.  A value means the same in the file as in
    an override: ``%`` is an ordinary character."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values: dict[str, dict[str, str]] = {s: dict(parser.items(s)) for s in parser.sections()}
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        values.setdefault(section, {})[key] = value
    return _build(values, _cast)


def config_from_dict(d: Mapping) -> RunConfig:
    """Rebuild a RunConfig from a run manifest's resolved ``config`` block,
    so a finished run's JSON is sufficient to reproduce it exactly."""
    try:
        values = {section: dict(d[section]) for section in _SECTIONS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"run manifest config block is incomplete: {exc}") from exc
    return _build(values, _cast_json)


def validate_config(cfg: RunConfig):
    """The rules that span sections; each record has checked its own keys."""
    t, d = cfg.train, cfg.data
    try:
        worker_spans(t.batch_size, t.workers, t.shard_policy)
    except ArgumentError as exc:
        raise ConfigError(f"train.batch_size, train.workers and train.shard_policy: {exc}") from exc
    if d.kind == "idx":
        for label, p in (("data.images", d.images), ("data.labels", d.labels)):
            if not p:
                raise ConfigError(f"{label} is required for data.kind=idx")
            if not Path(p).is_file():
                raise ConfigError(f"{label}: file not found: {p}")
    if d.kind == "gaussian_blobs" and cfg.network.loss_kind != "softmax_cross_entropy":
        raise ConfigError("gaussian_blobs is a classification task; use softmax_cross_entropy")
    if d.kind == "deep_linear_regression" and cfg.network.loss_kind != "mean_squared_error":
        raise ConfigError("deep_linear_regression needs loss_kind=mean_squared_error")
    # the network must fit the data
    expected_in = {"gaussian_blobs": d.dim, "deep_linear_regression": d.dim}.get(d.kind)
    if expected_in is not None and cfg.network.layer_dims[0] != expected_in:
        raise ConfigError(
            f"network.layer_dims[0]={cfg.network.layer_dims[0]} does not match data.dim={d.dim}"
        )
    if d.kind == "gaussian_blobs" and cfg.network.layer_dims[-1] != d.classes:
        raise ConfigError(
            f"network.layer_dims[-1]={cfg.network.layer_dims[-1]} "
            f"does not match data.classes={d.classes}"
        )
    if d.kind == "deep_linear_regression" and cfg.network.layer_dims[-1] != d.out_dim:
        raise ConfigError("network output dim does not match data.out_dim")
