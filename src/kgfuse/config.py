"""Run configuration: every hyperparameter, validated, with file round-trip.

The file format is UTF-8 ``key = value`` lines; blank lines and ``#``
comments are allowed; unknown and repeated keys are errors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError


def parse_int(text: str) -> int:
    """An optional ``-`` and ASCII decimal digits; ``int()`` alone also takes
    ``+``, ``_``, surrounding spaces and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """``float()`` of ``text``, without its ``_`` separators or non-ASCII
    digits; ``nan`` and ``inf`` still parse, and validation rejects them."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII float: {text!r}")
    return float(text)


def read_utf8(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 at byte {exc.start}") from None


@dataclass
class Config:
    # model widths and depths
    d: int = 16                 # model width
    d_e: int = 16               # entity memory width
    attn_width: int = 16        # GNN attention width
    heads: int = 2
    ff_dim: int = 32
    vision_layers: int = 2
    text_layers: int = 2
    gnn_layers: int = 2
    fusion_layers: int = 2
    # image / text shape
    patch_size: int = 4
    image_h: int = 16
    image_w: int = 16
    image_c: int = 1
    vocab: int = 1000
    max_text_len: int = 16      # tokens excluding CLS
    # masking and corruption
    mlm_rate: float = 0.25
    mvm_rate: float = 0.25
    mean_span: int = 3
    max_span: int = 6
    edge_drop: float = 0.15
    n_negatives: int = 128
    gamma: float = 0.0
    # retrieval
    k_per_patch: int = 4
    k_final: int = 8
    per_node_cap: int = 16
    relevance_temperature: float = 1.0
    # objectives
    tau_init: float = 0.07
    w_mlm: float = 1.0
    w_mvm: float = 1.0
    w_linkpred: float = 1.0
    w_itc: float = 1.0
    # optimization
    lr: float = 5e-5
    weight_decay: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 300
    batch_size: int = 8
    seed: int = 17
    # synthetic corpus
    corpus_entities: int = 200
    corpus_relations: int = 10
    corpus_triplets: int = 800
    corpus_examples: int = 200
    corpus_noise: float = 0.1
    entities_per_example: int = 3
    caption_min_len: int = 8
    caption_max_len: int = 16

    # reserved token ids
    CLS_ID = 0
    MASK_ID = 1
    RESERVED_TOKENS = 2

    def __post_init__(self):
        self.validate()

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.image_c

    @property
    def n_patches(self) -> int:
        return (self.image_h // self.patch_size) * (self.image_w // self.patch_size)

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("heads", "patch_size", "image_h", "image_w", "image_c",
                     "vision_layers", "text_layers", "gnn_layers", "fusion_layers",
                     "k_per_patch", "k_final", "per_node_cap", "n_negatives",
                     "steps", "mean_span", "max_span", "ff_dim",
                     "attn_width", "corpus_entities", "corpus_relations",
                     "corpus_triplets", "corpus_examples", "entities_per_example",
                     "caption_min_len", "caption_max_len", "max_text_len"):
            if getattr(self, name) < (0 if name == "steps" else 1):
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.batch_size < 2:  # the contrastive loss needs two examples
            raise ValidationError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.d < 2 or self.d % self.heads != 0:
            raise ValidationError(f"model width {self.d} must be divisible by {self.heads} heads")
        if self.d_e < 2:
            raise ValidationError("entity memory width must be >= 2")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ValidationError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch_size}")
        for name in ("mlm_rate", "mvm_rate", "edge_drop"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValidationError(f"{name} must be in (0,1), got {v}")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValidationError(f"{name} must be in [0,1), got {getattr(self, name)}")
        for name in ("relevance_temperature", "tau_init", "lr", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        for name in ("gamma", "weight_decay", "corpus_noise", "seed",
                     "w_mlm", "w_mvm", "w_linkpred", "w_itc"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not (self.w_mlm or self.w_mvm or self.w_linkpred or self.w_itc):
            raise ValidationError("at least one loss weight must be > 0")
        if self.vocab <= self.RESERVED_TOKENS + self.corpus_entities:
            raise ValidationError(
                f"vocab {self.vocab} too small for {self.corpus_entities} entity tokens")
        if self.caption_min_len > self.caption_max_len:
            raise ValidationError("caption_min_len exceeds caption_max_len")
        if self.caption_max_len > self.max_text_len:
            raise ValidationError("caption_max_len exceeds max_text_len")
        if self.entities_per_example > self.corpus_entities:
            raise ValidationError("entities_per_example exceeds corpus_entities")
        if self.entities_per_example > self.n_patches:  # each needs a patch to show in
            raise ValidationError(
                f"entities_per_example {self.entities_per_example} exceeds {self.n_patches} patches")

    # ---- text round trip --------------------------------------------------

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n"
                       for f in dataclasses.fields(self))

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "Config":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{source}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in fields:
                raise ValidationError(f"{source}:{line_no}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{source}:{line_no}: duplicate key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "int":
                    values[key] = parse_int(value)
                elif ftype == "float":
                    values[key] = parse_float(value)
                else:
                    values[key] = value
            except ValueError:
                raise ValidationError(
                    f"{source}:{line_no}: cannot parse {value!r} as {ftype}") from None
        return cls(**values)

    @classmethod
    def load(cls, path) -> "Config":
        return cls.from_text(read_utf8(path), source=str(path))

    def replace(self, **overrides) -> "Config":
        return dataclasses.replace(self, **overrides)
