"""Run configuration dataclasses and JSON (de)serialization.

A RunConfig is a single versioned JSON document. A stored config plus a seed
is sufficient to regenerate any report byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .artifacts import read_json, write_json
from .exceptions import UsageError

BACKBONES = ("autoint", "dcn", "mlp")
SIMILARITIES = ("maxsim", "cosine")
PROMPT_VARIANTS = (1, 2, 3, 4, 5)  # see ctrl.prompt
CONFIG_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Collaborative tower settings; its output keeps the backbone's width."""
    backbone: str = "autoint"
    d: int = 32  # per-field embedding width
    hidden: tuple = (256, 128, 64)
    attn_layers: int = 2
    attn_heads: int = 2
    attn_head_dim: int = 16
    cross_layers: int = 3
    batch_norm: bool = True
    dropout: float = 0.0

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise UsageError(f"backbone must be one of {BACKBONES}, got '{self.backbone}'")
        if self.d < 1 or self.attn_layers < 1 or self.attn_heads < 1 \
                or self.attn_head_dim < 1 or self.cross_layers < 1:
            raise UsageError("model dimensions must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise UsageError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class TextConfig:
    """Text tower settings (compact transformer trained from scratch)."""
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_tokens: int = 128

    def __post_init__(self):
        if min(self.d_model, self.n_layers, self.n_heads, self.d_ff,
               self.max_tokens) < 1:
            raise UsageError("text dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise UsageError("d_model must be divisible by n_heads")


@dataclass(frozen=True)
class AlignConfig:
    """Stage-1 contrastive alignment settings.

    Defaults are sized for datasets that fit on one desk machine (hundreds
    to tens of thousands of rows); production-scale corpora want a larger
    batch, one epoch, and a longer warmup. Sub-representations are always
    L2-normalized. Cosine stores the head it is, `m_subspaces=1`, whatever
    was passed."""
    temperature: float = 0.7
    batch_size: int = 64
    similarity: str = "maxsim"
    epochs: int = 30
    m_subspaces: int = 4
    d_proj: int = 128
    start_lr: float = 1e-5
    peak_lr: float = 1e-3
    warmup_steps: int = 50
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.similarity == "cosine":
            object.__setattr__(self, "m_subspaces", 1)
        if self.temperature <= 0:
            raise UsageError("temperature must be > 0")
        if self.batch_size < 2:
            raise UsageError("alignment batch_size must be >= 2")
        if self.similarity not in SIMILARITIES:
            raise UsageError(f"similarity must be one of {SIMILARITIES}")
        if self.m_subspaces < 1:
            raise UsageError("m_subspaces must be >= 1")
        if self.d_proj % self.m_subspaces:
            raise UsageError("m_subspaces must divide d_proj")
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.start_lr < 0 or self.peak_lr < self.start_lr:
            raise UsageError("need 0 <= start_lr <= peak_lr")
        if self.warmup_steps < 0:
            raise UsageError("warmup_steps must be >= 0")


@dataclass(frozen=True)
class FinetuneConfig:
    """Stage-2 supervised CTR settings."""
    lr: float = 1e-3
    batch_size: int = 2048
    epochs: int = 10
    patience: int = 3
    lambda_ccl: float = 1.0  # only read by the single-stage (end-to-end) arm

    def __post_init__(self):
        if self.lr < 0 or self.lambda_ccl < 0:
            raise UsageError("lr and lambda_ccl must be >= 0")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise UsageError("batch_size, epochs, patience must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    version: int = CONFIG_VERSION
    seed: int = 0
    prompt_variant: int = 1
    user_prefix: str = "This is a user"
    item_prefix: str = "This is an item"
    split_ratios: tuple = (8, 1, 1)
    model: ModelConfig = field(default_factory=ModelConfig)
    text: TextConfig = field(default_factory=TextConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise UsageError(f"unsupported config version {self.version}")
        if self.prompt_variant not in PROMPT_VARIANTS:
            raise UsageError(f"prompt_variant must be in {PROMPT_VARIANTS}")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Inverse of to_dict. Missing keys keep their defaults; an unknown
        key at any level, or a value of another type than its field's
        default, raises UsageError naming it."""
        return _from_dict(RunConfig, d, "")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_ACCEPTS = {  # what a leaf field takes, by the type of its default
    int: ("an int", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    bool: ("a bool", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of ints",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


def _from_dict(cls, d, where: str):
    """The config dataclass `cls` from the JSON object `d`, whose keys errors
    name with the prefix `where`."""
    if not isinstance(d, dict):
        raise UsageError(f"malformed config: {where.rstrip('.') or 'the config'}"
                         f" is a JSON {type(d).__name__}, not an object")
    fields = cls.__dataclass_fields__
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise UsageError(f"malformed config: unknown key(s) {unknown}"
                         + (f" in {where[:-1]}" if where else ""))
    kwargs = {}
    for name, value in d.items():
        spec, key = fields[name], where + name
        if spec.default_factory is not dataclasses.MISSING:  # a section
            kwargs[name] = _from_dict(spec.default_factory, value, key + ".")
            continue
        what, accepts = _ACCEPTS[type(spec.default)]
        if not accepts(value):
            raise UsageError(f"malformed config: {key} must be {what}, "
                             f"got {value!r}")
        # JSON has no tuples: every list in a config is a tuple field
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_json(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_json(path))


def save_config(cfg: RunConfig, path) -> None:
    write_json(path, config_json(cfg))
