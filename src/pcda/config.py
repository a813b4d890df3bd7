"""The training-config file that `pcda train --config` reads.

The file is a JSON object `{"train": {...}}` of TrainConfig fields, with a
nested `deform` object of DeformSpec fields. Unknown keys, values of the
wrong JSON type and any top-level key but `train` are refused with the
offending path, so a file is never half-read.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .deform import DeformSpec
from .errors import DataFormatError
from .training import TrainConfig

# the JSON values a field annotated with each scalar type accepts; a bool
# is a number to Python but not to a config file
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _fits(value, annotation: str) -> bool:
    if isinstance(value, bool):
        return annotation == "bool"
    return isinstance(value, _JSON_TYPES[annotation])


def _build_dataclass(cls, data, where: str):
    if not isinstance(data, dict):
        raise DataFormatError(f"{where}: expected an object, got {type(data).__name__}")
    types = {f.name: f.type for f in fields(cls)}  # annotations as strings
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise DataFormatError(f"{where}: unknown keys {unknown}")
    kwargs = dict(data)
    for name, value in data.items():
        if types[name] == "DeformSpec":
            kwargs[name] = _build_dataclass(DeformSpec, value, f"{where}.{name}")
        elif not _fits(value, types[name]):
            raise DataFormatError(f"{where}.{name}: expected {types[name]}, got {value!r}")
    return cls(**kwargs)


def load_train_config(path) -> TrainConfig:
    """The TrainConfig of a `{"train": {...}}` file. The benchmark comes
    from `--bench` and a run has one config, so any other top-level key
    (such as `bench` or `grid`) is refused rather than ignored."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        data = json.loads(blob)  # bytes: bad UTF-8 is a ValueError too
    except ValueError as exc:
        raise DataFormatError(f"config: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DataFormatError("config: expected a top-level object")
    other = sorted(set(data) - {"train"})
    if other:
        raise DataFormatError(f"config: train reads only the 'train' section, not {other}")
    return _build_dataclass(TrainConfig, data.get("train", {}), "config.train")
