"""Flat key=value run configuration; unknown keys are rejected."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from . import autodiff as ad
from .model import ModelConfig


@dataclass
class RunConfig:
    # model
    precision: str = "fp32"
    d_emb: int = 64
    d_hidden: int = 64
    d_attention: int = 64
    dropout: float = 0.2
    # data
    src_lang: str = "l1"
    tgt_lang: str = "l2"
    train_src: str = ""
    train_tgt: str = ""
    dev_src: str = ""
    dev_tgt: str = ""
    max_len_filter: int = 80
    bpe_merges: int = 0
    # optimization
    batch_size: int = 48
    lr: float = 0.001
    lr_finetune: float = 0.0001
    lr_decay: float = 0.7
    patience_decay: int = 4
    patience_stop: int = 10
    checkpoint_interval: int = 1000
    max_updates: int = 0
    grad_clip_norm: float = 0.0
    seed: int = 1
    # reconstruction
    recon_mode: str = "none"
    beta: float = 0.0
    tau: float = 2.0
    max_len_factor: int = 2
    max_len_offset: int = 5
    recon_dropout: bool = True
    hidden_weight_enc: float = 0.5
    hidden_weight_dec: float = 0.5
    # evaluation
    eval_bleu: bool = True
    out_dir: str = ""

    def __post_init__(self):
        if self.precision not in ad.PRECISIONS:
            raise ValueError(f"precision must be fp32 or fp64, got {self.precision!r}")
        if self.recon_mode not in ("none", "sampled", "hidden"):
            raise ValueError(f"unknown recon_mode {self.recon_mode!r}")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, d_emb=self.d_emb,
                           d_hidden=self.d_hidden, d_attention=self.d_attention,
                           dropout=self.dropout)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def is_retired(key: str, value, where: str) -> bool:
    """Whether `key` is `layer_norm`, which config files and checkpoint
    headers held while an LSTM cell could go without layer norm: its true is
    accepted and ignored, and any other value refused."""
    if key == "layer_norm" and str(value).lower() not in ("true", "1", "yes"):
        raise ValueError(f"{where}: layer_norm may only be true, got {value!r}; the "
                         f"unnormalized LSTM cell is gone")
    return key == "layer_norm"


def _parse_value(name: str, raw: str):
    kind = _FIELDS[name]
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if is_retired(key, raw, f"line {lineno}"):
            continue
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def load_config(path: str, **overrides) -> RunConfig:
    """Parse a config file, then apply the overrides that are not None; the
    result is validated as a whole."""
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
