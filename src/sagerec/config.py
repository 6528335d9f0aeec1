"""Experiment configuration: strict structured-text loading.

One file describes a whole experiment: the synthetic world, the training run,
the gradient bounds, the evaluation metrics, the output directory and the seed
list. YAML is the primary format; JSON files (by extension) are accepted too.
Each section is read by walking its config dataclass: the fields are the
allowed keys and their annotations the value types. Unknown keys and values
of the wrong type are errors with file and line, not warnings: sweep
correctness depends on configs meaning exactly what they say.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

from .bounds import BoundConfig
from .simenv import WorldConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Any configuration problem; the message starts with path[:line]."""


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation settings: ranking depth and entropy units."""

    k: int = 10
    entropy_base: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.entropy_base is not None and (
            self.entropy_base <= 0 or self.entropy_base == 1.0
        ):
            raise ValueError("entropy_base must be positive and not 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description; invalid states are unrepresentable."""

    out_dir: str
    seeds: tuple[int, ...]
    world: WorldConfig = field(default_factory=WorldConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise ValueError("out_dir must be a nonempty path")
        if not self.seeds:
            raise ValueError("seeds must be a nonempty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if self.train.users_per_step > self.world.n_users:
            raise ValueError(
                f"train.users_per_step ({self.train.users_per_step}) exceeds "
                f"world.n_users ({self.world.n_users})"
            )
        if self.train.slate_length > self.world.n_items:
            raise ValueError("train.slate_length exceeds world.n_items")
        for name, k in (("metrics.k", self.metrics.k), ("train.eval_k", self.train.eval_k)):
            if k > self.world.n_items:
                raise ValueError(f"{name} ({k}) exceeds world.n_items")


# The file sets these TrainConfig fields elsewhere: each run's seed comes from
# the top-level ``seeds`` and the bounds from the top-level ``bounds`` section.
_SET_ELSEWHERE = {TrainConfig: {"seed", "bounds"}}
_TOP_LEVEL = {**get_type_hints(ExperimentConfig), "bounds": BoundConfig}
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _parse(text: str, where: str):
    if where.endswith(".json"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where}:{exc.lineno}: {exc.msg}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"{where}:{mark.line + 1}" if mark is not None else where
        raise ConfigError(f"{loc}: {exc}") from exc


def _key_lines(text: str) -> dict[tuple[str, ...], int]:
    """Map nested key paths to 1-based line numbers for diagnostics."""
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines: dict[tuple[str, ...], int] = {}

    def walk(node, prefix: tuple[str, ...]) -> None:
        if not isinstance(node, yaml.MappingNode):
            return
        for key_node, value_node in node.value:
            if isinstance(key_node, yaml.ScalarNode):
                path = prefix + (str(key_node.value),)
                lines[path] = key_node.start_mark.line + 1
                walk(value_node, path)

    walk(root, ())
    return lines


def _locate(where: str, lines: dict, path: tuple[str, ...]) -> str:
    line = lines.get(path)
    return f"{where}:{line}" if line is not None else where


def _is(value, kind) -> bool:
    """Whether ``value`` may stand for ``kind``; an int may stand for a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _value(value, hint, path: tuple[str, ...], lines: dict, where: str):
    """``value`` checked against its annotation ``hint``.

    A dataclass annotation is a nested section; ``tuple[X, ...]`` is written
    as a list. Other values pass on unchanged.
    """
    if is_dataclass(hint):
        return _build(hint, value, path, lines, where)
    args = get_args(hint)
    if value is None and type(None) in args:
        return None
    if get_origin(hint) is tuple:
        if isinstance(value, list) and all(_is(v, args[0]) for v in value):
            return tuple(value)
        expected = f"a list, each entry {_KINDS[args[0]]}"
    else:
        (kind,) = [a for a in args if a is not type(None)] or [hint]
        if _is(value, kind):
            return value
        expected = _KINDS[kind]
    raise ConfigError(
        f"{_locate(where, lines, path)}: {'.'.join(path)} must be {expected}, "
        f"got {value!r}"
    )


def _values(raw, hints: dict, path: tuple[str, ...], lines: dict, where: str) -> dict:
    """The keys of the mapping ``raw`` at ``path``, each checked against ``hints``."""
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{_locate(where, lines, path)}: section {'.'.join(path)!r} must be a mapping"
        )
    values = {}
    for key, value in raw.items():
        if not isinstance(key, str) or key not in hints:
            key_path = path + (str(key),)
            raise ConfigError(
                f"{_locate(where, lines, key_path)}: unknown config key "
                f"{'.'.join(key_path)!r} (allowed: {', '.join(sorted(hints))})"
            )
        values[key] = _value(value, hints[key], path + (key,), lines, where)
    return values


def _build(cls, raw, path: tuple[str, ...], lines: dict, where: str):
    """The dataclass ``cls`` from the section at ``path``; an absent section is all defaults."""
    hints = get_type_hints(cls)
    keys = {f.name for f in fields(cls)} - _SET_ELSEWHERE.get(cls, set())
    values = _values({} if raw is None else raw, {k: hints[k] for k in keys}, path, lines, where)
    return _construct(cls, values, path, lines, where)


def _construct(cls, values: dict, path: tuple[str, ...], lines: dict, where: str):
    try:
        return cls(**values)
    except ValueError as exc:
        # Rebuild the dataclass from a growing prefix of its fields, the rest at
        # their defaults: the key that brings the same error in is the one to point at.
        prefix, key = {}, None
        for name in (f.name for f in fields(cls) if f.name in values):
            prefix[name] = values[name]
            try:
                cls(**prefix)
            except (TypeError, ValueError) as trial:
                if str(trial) == str(exc):
                    key = name
                    break
        at = path if key is None else path + (key,)
        label = ".".join(path) or "config"
        raise ConfigError(f"{_locate(where, lines, at)}: invalid {label}: {exc}") from exc


def load_experiment_config(
    path: str | Path,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> ExperimentConfig:
    """Load and fully validate one experiment file.

    ``out_override`` and ``seed_override`` apply before validation, so a config
    with no ``out_dir`` is still usable with an explicit output flag.
    Raises :class:`ConfigError` for anything wrong with the content; I/O
    failures propagate as ``OSError``.
    """
    where = str(path)
    text = Path(path).read_text()
    data = _parse(text, where)
    lines = _key_lines(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be a mapping")
    for key, override in (("out_dir", out_override), ("seeds", seed_override)):
        if override is not None:
            data[key] = override
            lines.pop((key,), None)  # no longer the file's value, so it has no line
    if not data.get("out_dir"):
        raise ConfigError(f"{where}: no output directory (set out_dir or pass --out)")
    if data.get("seeds") is None:
        raise ConfigError(f"{where}: missing required key 'seeds'")
    if _is(data["seeds"], int):
        data["seeds"] = [data["seeds"]]
    values = _values(data, _TOP_LEVEL, (), lines, where)
    train = values.get("train", TrainConfig())
    values["train"] = replace(train, bounds=values.pop("bounds", train.bounds))
    return _construct(ExperimentConfig, values, (), lines, where)
