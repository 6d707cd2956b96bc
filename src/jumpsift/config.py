"""Run configuration: ExperimentConfig, named presets, the key-value config
file format, and seed resolution.

Config files are plain `key = value` lines, '#' comments, one required
`schema_version` key. Precedence when the CLI is driving: command-line flag,
then config-file key, then preset value, then built-in default.
RUN_PARAMETERS declares each run parameter once; the CLI flags, the
defaults, the parsing and the manifest echo all read it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from .errors import ConfigError, InvalidArgumentError
from .estimators import ThresholdSpec
from .grids import (_MAX_ARRAY_BYTES, COUNT, FINITE, INTEGER, JITTER, POSITIVE, TimeGrid,
                    _check_fields, build_irregular_grid)
from .models import MODEL_CLASSES, SCHEMA_VERSION, CustomModel, ModelConfig

DEFAULT_BASE_SEED = 123456789
ENV_SEED = "JUMPSIFT_SEED"

# Values are strings on purpose: presets go through the same parsing path
# as config files, so a preset is exactly quotable as a file.
PRESETS: dict[str, dict[str, str]] = {
    "model1-desk": {"model": "model1", "n": "2000", "paths": "500", "beta": "0.9"},
    "model1-full": {"model": "model1", "n": "6000", "paths": "5000", "beta": "0.9"},
    "model2-desk": {"model": "model2", "n": "2000", "paths": "500", "beta": "0.9",
                    "substeps": "5"},
    "model2-full": {"model": "model2", "n": "6000", "paths": "5000", "beta": "0.9",
                     "substeps": "5"},
    "model3-desk": {"model": "model3", "n": "2000", "paths": "500", "beta": "0.99"},
    "model3-full": {"model": "model3", "n": "6000", "paths": "5000", "beta": "0.99"},
    "diffusion-desk": {"model": "custom", "drift": "zero",
                       "spot_vol": "constant:0.3", "jumps": "none",
                       "n": "2000", "paths": "500", "beta": "0.9"},
}

class RunParameter(NamedTuple):
    key: str              # config-file key, --flag dest and manifest echo key
    field: str            # the RunSettings field it fills
    kind: type            # int or float
    default: str | None   # as a config-file string; None: resolve_seed()'s
    help: str | None      # --flag help; None: config file only


# Row order is the order of the manifest echo.
RUN_PARAMETERS: tuple[RunParameter, ...] = (
    RunParameter("n", "n", int, "2000", "observation intervals per path"),
    RunParameter("t", "t_end", float, "1.0", None),
    RunParameter("paths", "n_paths", int, "500", "number of Monte Carlo paths"),
    RunParameter("beta", "beta", float, "0.9", "threshold exponent in r(h) = c * h^beta"),
    RunParameter("scale_c", "scale_c", float, "1.0", "threshold scale c"),
    RunParameter("substeps", "substeps", int, "1", "simulation substeps per interval"),
    RunParameter("jitter", "jitter", float, "0.0", "grid irregularity in [0, 1)"),
    RunParameter("parallelism", "parallelism", int, "1",
                 "processes, the caller included (results unaffected)"),
    RunParameter("seed", "seed", int, None, "base seed (else $JUMPSIFT_SEED, else default)"),
)

# A custom model's fields are its config keys, in manifest echo order.
_CUSTOM_KEYS = tuple(f.name for f in fields(CustomModel))
_ALL_KEYS = {"schema_version", "preset", "model", *_CUSTOM_KEYS,
             *(p.key for p in RUN_PARAMETERS)}
# A config file's keys, less the two that select values rather than hold one.
_VALUE_KEYS = _ALL_KEYS - {"schema_version", "preset"}
_KEY_OF = {p.field: p.key for p in RUN_PARAMETERS}  # RunSettings field -> its key

_DEFAULTS: dict[str, str] = {
    "model": "model1",
    **{p.key: p.default for p in RUN_PARAMETERS if p.default is not None},
}


def _check_ranges(run, name=str) -> None:
    """The rules of an ExperimentConfig or a RunSettings: each field's own, then
    the array size of n * substeps and t_end / n. Messages call field f name(f)."""
    _check_fields(run, name)
    if (run.n * run.substeps + 1) * 8 > _MAX_ARRAY_BYTES:
        # Checked before t / n, which overflows for an int beyond any double.
        raise InvalidArgumentError(
            f"n = {run.n} with substeps = {run.substeps} needs arrays of"
            f" n * substeps + 1 = {run.n * run.substeps + 1} doubles,"
            " more than numpy can allocate")
    if run.t_end / run.n < sys.float_info.min:
        # Below it, n + 1 distinct times need not fit in [0, t].
        t, n = name("t_end"), name("n")
        raise InvalidArgumentError(
            f"{t} / {n} must be at least the smallest normal double"
            f" ({sys.float_info.min!r}), got {t} = {run.t_end!r}, {n} = {run.n}")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything a repeated-path run depends on.

    Construction checks each field's declared rule, n * substeps and t_end / n.
    parallelism is the total number of processes, the calling one included
    (see montecarlo._map_paths); it never affects results.
    """

    model: ModelConfig
    threshold: ThresholdSpec
    n: int = field(default=2000, metadata={"rule": COUNT})
    t_end: float = field(default=1.0, metadata={"rule": POSITIVE})
    jitter: float = field(default=0.0, metadata={"rule": JITTER})
    substeps: int = field(default=1, metadata={"rule": COUNT})
    n_paths: int = field(default=500, metadata={"rule": COUNT})
    base_seed: int = field(default=0, metadata={"rule": INTEGER})
    parallelism: int = field(default=1, metadata={"rule": COUNT})

    __post_init__ = _check_ranges

    def build_grid(self) -> TimeGrid:
        return build_irregular_grid(self.n, self.t_end, self.jitter, self.base_seed)


@dataclass(frozen=True, slots=True)
class RunSettings:
    """Fully resolved run parameters, the seed included. The fields after
    model are those of RUN_PARAMETERS, in its order; a rule names the key."""

    model: ModelConfig
    n: int = field(metadata={"rule": COUNT})
    t_end: float = field(metadata={"rule": POSITIVE})
    n_paths: int = field(metadata={"rule": COUNT})
    beta: float = field(metadata={"rule": FINITE})
    scale_c: float = field(metadata={"rule": FINITE})
    substeps: int = field(metadata={"rule": COUNT})
    jitter: float = field(metadata={"rule": JITTER})
    parallelism: int = field(metadata={"rule": COUNT})
    seed: int = field(metadata={"rule": INTEGER})

    def __post_init__(self):
        _check_ranges(self, _KEY_OF.get)

    def threshold(self) -> ThresholdSpec:
        return ThresholdSpec(self.beta, self.scale_c)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.model,
            threshold=self.threshold(),
            n=self.n,
            t_end=self.t_end,
            jitter=self.jitter,
            substeps=self.substeps,
            n_paths=self.n_paths,
            base_seed=self.seed,
            parallelism=self.parallelism,
        )

    def with_seed(self, seed: int) -> "RunSettings":
        return replace(self, seed=int(seed))


def load_config_file(path: str) -> dict[str, str]:
    """Parses `key = value` lines into raw strings and validates the schema.

    Every key must be known; schema_version is required and pinned, so an
    empty file fails naming exactly that key.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        raw[key] = value
    if "schema_version" not in raw:
        raise ConfigError(f"{path}: missing required key 'schema_version'")
    if _parse("schema_version", int, raw["schema_version"]) != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {raw['schema_version']!r}"
            f" (expected {SCHEMA_VERSION})")
    return raw


def preset_values(name: str) -> dict[str, str]:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known: {known})")
    return dict(PRESETS[name])


def merge_settings(file_values: dict[str, str] | None = None,
                   overrides: dict[str, str] | None = None,
                   preset: str | None = None) -> RunSettings:
    """Layers defaults < preset < config file < overrides, then builds.

    A `preset` key inside the file applies at the preset layer; the explicit
    `preset` argument (the CLI flag) wins over it. Before any other check,
    a key that names no run value fails, the first in sorted order named.
    A seed that no layer sets is resolve_seed()'s.
    """
    file_values = dict(file_values or {})
    file_values.pop("schema_version", None)
    file_preset = file_values.pop("preset", None)
    overrides = overrides or {}
    unknown = sorted((file_values.keys() | overrides.keys()) - _VALUE_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    merged = dict(_DEFAULTS)
    chosen = preset or file_preset
    if chosen is not None:
        merged.update(preset_values(chosen))
    # Every layer's value is read from its text, as a config file's is.
    for key, value in (*file_values.items(), *overrides.items()):
        if value is not None:
            merged[key] = str(value)
    if "seed" not in merged:
        merged["seed"] = str(resolve_seed())
    return _build(merged)


def resolve_seed() -> int:
    """The JUMPSIFT_SEED variable, else the default."""
    env = os.environ.get(ENV_SEED)
    return DEFAULT_BASE_SEED if env is None else _parse(ENV_SEED, int, env)


def _build(merged: dict[str, str]) -> RunSettings:
    name = merged["model"]
    if name not in MODEL_CLASSES:
        raise ConfigError(f"unknown model {name!r} (known: {', '.join(MODEL_CLASSES)})")
    custom = {k: merged[k] for k in _CUSTOM_KEYS if k in merged}
    if custom and name != "custom":
        raise ConfigError(f"keys {sorted(custom)} require model = custom, not {name!r}")
    try:
        model: ModelConfig = MODEL_CLASSES[name](**custom)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid custom model: {exc}") from exc

    values = {p.field: _parse(p.key, p.kind, merged[p.key]) for p in RUN_PARAMETERS}
    try:  # an inadmissible threshold still runs
        return RunSettings(model, **values)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def _parse(key: str, kind: type, value: str) -> int | float:
    """Reads a value's text as its table type; an int is a Python integer
    literal, so hex and octal work. The key's rule rejects NaN and the
    infinities."""
    try:
        return int(value, 0) if kind is int else kind(value)
    except (ValueError, TypeError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None
