"""Serializable experiment configuration.

A RunConfig bundles a benchmark recipe, a training recipe, and an optional
hyperparameter grid over the learning rate, weight decay, and the
reconstruction loss weight. JSON serialization is canonical (sorted keys,
two-space indent), so parse(serialize(x)) == x and serializing a parsed
canonical document reproduces it byte for byte. Unknown keys are rejected
with the offending path.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace

from .deform import DeformSpec
from .errors import DataFormatError
from .synthbench import BenchConfig
from .training import TrainConfig

GRID_AXES = ("lr", "ssl_weight", "weight_decay")


@dataclass
class RunConfig:
    bench: BenchConfig = field(default_factory=BenchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: dict | None = None


def _build_dataclass(cls, data, where: str):
    if not isinstance(data, dict):
        raise DataFormatError(f"{where}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise DataFormatError(f"{where}: unknown keys {unknown}")
    kwargs = dict(data)
    if cls is TrainConfig and "deform" in kwargs:
        kwargs["deform"] = _build_dataclass(DeformSpec, kwargs["deform"], f"{where}.deform")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise DataFormatError(f"{where}: {exc}") from None


def _check_grid(grid, where: str):
    if grid is None:
        return None
    if not isinstance(grid, dict):
        raise DataFormatError(f"{where}: expected an object")
    unknown = sorted(set(grid) - set(GRID_AXES))
    if unknown:
        raise DataFormatError(
            f"{where}: unknown axes {unknown}; supported: {list(GRID_AXES)}"
        )
    for axis, values in grid.items():
        if (
            not isinstance(values, list)
            or not values
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        ):
            raise DataFormatError(f"{where}.{axis}: expected a non-empty number list")
    return {k: [float(v) for v in v_list] for k, v_list in grid.items()}


def run_config_to_json(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def run_config_from_json(text: str | bytes) -> RunConfig:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise DataFormatError(f"config: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DataFormatError("config: expected a top-level object")
    unknown = sorted(set(data) - {"bench", "train", "grid"})
    if unknown:
        raise DataFormatError(f"config: unknown keys {unknown}")
    return RunConfig(
        bench=_build_dataclass(BenchConfig, data.get("bench", {}), "config.bench"),
        train=_build_dataclass(TrainConfig, data.get("train", {}), "config.train"),
        grid=_check_grid(data.get("grid"), "config.grid"),
    )


def load_run_config(path) -> RunConfig:
    # bytes: json.loads decodes them and reports bad UTF-8 as a ValueError
    with open(path, "rb") as fh:
        return run_config_from_json(fh.read())


def load_train_config(path) -> TrainConfig:
    """The TrainConfig of a RunConfig file that holds only its `train`
    section, as `pcda train --config` reads it. The benchmark comes from
    `--bench` and train runs no grid, so `bench` and `grid` keys are refused
    rather than ignored."""
    with open(path, "rb") as fh:
        blob = fh.read()
    cfg = run_config_from_json(blob)
    ignored = sorted(set(json.loads(blob)) & {"bench", "grid"})
    if ignored:
        raise DataFormatError(f"config: train reads only the 'train' section, not {ignored}")
    return cfg.train


def save_run_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(run_config_to_json(cfg))


def expand_grid(cfg: RunConfig) -> list:
    """One TrainConfig per grid point, axes varied in sorted-name order."""
    if not cfg.grid:
        return [replace(cfg.train)]
    axes = sorted(cfg.grid)
    combos = itertools.product(*(cfg.grid[a] for a in axes))
    return [replace(cfg.train, **dict(zip(axes, combo))) for combo in combos]
