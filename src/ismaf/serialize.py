"""Model checkpoint format: JSON with base64-encoded float64 parameter
payloads, the full train config, and a sha256 integrity checksum.

Loading rebuilds the model against a dataset: the construction seed inside
the stored config reproduces the initial parameter draw (and therefore the
frozen graph structure) bitwise, after which the trained values are swapped
in."""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import DatasetBundle
from .model import IsmafModel

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Unreadable, tampered, or incompatible model file."""


def _payload(model: IsmafModel) -> dict:
    params = {}
    for name, value in model.store.items():
        params[name] = {
            "shape": list(value.shape),
            "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode("ascii"),
        }
    return {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "seed": model.config.seed,
        "params": params,
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(model: IsmafModel, path) -> None:
    payload = _payload(model)
    payload["checksum"] = _checksum({k: v for k, v in payload.items() if k != "checksum"})
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _check_shape(path, name: str, entry: dict, want: tuple) -> None:
    if tuple(entry["shape"]) != want:
        raise ModelFileError(
            f"{path}: parameter {name!r} has shape {tuple(entry['shape'])} in the "
            f"file but {want} for this dataset"
        )


def load_model(path, dataset: DatasetBundle) -> IsmafModel:
    """Restore a trained model against the dataset it will be used with."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelFileError(f"{path} is not a model file")
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"model format version {version} is not supported (expected {FORMAT_VERSION})"
        )
    stored_sum = payload.get("checksum")
    actual = _checksum({k: v for k, v in payload.items() if k != "checksum"})
    if stored_sum != actual:
        raise ModelFileError(f"{path}: checksum mismatch, file is corrupt or tampered")

    config = TrainConfig.from_dict(payload["config"])
    stored = payload["params"]
    # The shapes that depend on the dataset are checked before the model,
    # and with it the social graph, is built.
    early = {"text.embed": (dataset.vocab_size, config.d)}
    if dataset.posts:
        early["visual.w"] = (dataset.posts[0].visual_feat.shape[0], config.d)
    for name, want in early.items():
        if name in stored:
            _check_shape(path, name, stored[name], want)
    model = IsmafModel(config, dataset)
    if set(stored) != set(model.store.names()):
        missing = set(stored) ^ set(model.store.names())
        raise ModelFileError(f"{path}: parameter set mismatch: {sorted(missing)}")
    for name, entry in stored.items():
        _check_shape(path, name, entry, model.store.value(name).shape)
    for name, entry in stored.items():
        value = np.frombuffer(base64.b64decode(entry["data"]), dtype=np.float64)
        model.store.assign(name, value.reshape(entry["shape"]).copy())
    return model
