"""Training configuration and its flat key=value file format."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .encoders import CONNECT_KINDS, check_theta
from .fusion import FUSION_KINDS


@dataclass(frozen=True)
class TrainConfig:
    d: int = 300
    heads: int = 8
    batch_size: int = 64
    epochs: int = 50
    lr: float = 0.002
    lr_decay: float = 0.98
    dropout: float = 0.5
    tau_scl: float = 0.5
    tau_cmca: float = 0.5
    lambda1: float = 0.3
    lambda2: float = 0.7
    lambda3: float = 0.4
    lambda4: float = 0.4
    theta: float = 0.5
    seed: int = 0
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    fusion: str = "af"
    token_len: int = 6
    gat_layers: int = 2
    gat_leaky_slope: float = 0.2
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    connect_kinds: str = "all"

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if typing.get_origin(kind) is tuple:  # a bool is no number here; an int is a float
                want, typed = "a tuple of ints", type(value) is tuple and all(type(k) is int for k in value)
            else:
                want = kind.__name__
                typed = isinstance(value, (int, float) if kind is float else kind) and type(value) is not bool
            if not typed:
                raise ValueError(f"{name} must be {want}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("train_frac", "val_frac", "test_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError(
                f"split fractions must sum to 1, got "
                f"{(self.train_frac, self.val_frac, self.test_frac)}"
            )
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("lr", "lr_decay", "tau_scl", "tau_cmca"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_theta(self.theta)
        if self.fusion not in FUSION_KINDS:
            raise ValueError(f"fusion must be one of {FUSION_KINDS}, got {self.fusion!r}")
        if self.connect_kinds not in CONNECT_KINDS:
            raise ValueError(
                f"connect_kinds must be one of {CONNECT_KINDS}, got {self.connect_kinds!r}"
            )
        if self.token_len < 1:
            raise ValueError(f"token_len must be >= 1, got {self.token_len}")
        if self.d % self.token_len != 0:
            raise ValueError(f"token_len {self.token_len} must divide d {self.d}")
        if self.gat_layers < 0:
            raise ValueError(f"gat_layers must be >= 0, got {self.gat_layers}")
        kernels = self.kernel_sizes
        if not kernels or min(kernels) < 1 or len(set(kernels)) != len(kernels):
            raise ValueError(f"kernel_sizes must be distinct and >= 1, got {kernels}")
        if self.d < len(kernels):
            raise ValueError(f"d must be >= the number of kernel sizes {len(kernels)}, got {self.d}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        clean = dict(raw)
        if isinstance(clean.get("kernel_sizes"), list):
            clean["kernel_sizes"] = tuple(clean["kernel_sizes"])
        return cls(**clean)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)  # int, float, str or tuple[int, ...]


def _parse_value(name: str, text: str):
    """The value of ``text`` as the type ``name`` declares; an unknown
    key keeps its text for ``TrainConfig.from_dict`` to reject."""
    kind = _FIELD_TYPES.get(name, str)
    text = text.strip()
    if typing.get_origin(kind) is tuple:
        return tuple(int(part) for part in text.replace(",", " ").split())
    return kind(text)


def load_config(path) -> TrainConfig:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    raw: dict = {}
    path = Path(path)
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        name, text = (part.strip() for part in line.split("=", 1))
        try:
            raw[name] = _parse_value(name, text)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return TrainConfig.from_dict(raw)


def save_config(config: TrainConfig, path) -> None:
    lines = []
    for name, val in config.to_dict().items():
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{name} = {val}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
