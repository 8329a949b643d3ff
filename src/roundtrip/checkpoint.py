"""Versioned checkpoint container: named parameter tensors + vocab + config hash.

Arrays are stored little-endian in the run's float width (32-bit for fp32
runs), so save -> load is bit-exact and resumed training reproduces the same
update sequence. Structural mismatches (dims, vocab, precision) fail fast.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from . import autodiff as ad
from .data import Vocab
from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1


def structural_hash(config: ModelConfig, precision: str) -> str:
    key = (f"vocab_size={config.vocab_size};d_emb={config.d_emb};"
           f"d_hidden={config.d_hidden};d_attention={config.d_attention};"
           f"layer_norm={config.layer_norm};precision={precision}")
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _le(a: np.ndarray) -> np.ndarray:
    kind = "<f4" if a.dtype == np.float32 else "<f8"
    return a.astype(kind, copy=False)


def save(path: str, params: ModelParams, vocab: Vocab, precision: str,
         meta: dict | None = None) -> None:
    arrays = {f"param/{name}": _le(t.data) for name, t in params.named_parameters()}
    header = {
        "version": FORMAT_VERSION,
        "precision": precision,
        "config": dataclasses.asdict(params.config),
        "config_hash": structural_hash(params.config, precision),
        "meta": meta or {},
    }
    vocab_lines = "\n".join(vocab.id_to_token)
    np.savez(path, __header__=np.array(json.dumps(header)),
             __vocab__=np.array(vocab_lines), **arrays)


def load(path: str, expect_hash: str | None = None) -> tuple[ModelParams, Vocab, dict]:
    """Rebuild params/vocab; verifies the structural hash when given."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["__header__"]))
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        if expect_hash is not None and header["config_hash"] != expect_hash:
            raise ValueError("checkpoint config hash mismatch; "
                             "model dims/vocab/precision differ from the run config")
        tokens = str(data["__vocab__"]).split("\n")
        from .data import RESERVED

        vocab = Vocab(tokens[len(RESERVED):])
        params = ModelParams(ModelConfig(**header["config"]), np.random.default_rng(0))
        dtype = ad.default_dtype()
        for name, t in params.named_parameters():
            key = f"param/{name}"
            if key not in data:
                raise ValueError(f"checkpoint missing parameter {name}")
            stored = data[key]
            if stored.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            t.data = np.ascontiguousarray(stored, dtype=dtype)
    return params, vocab, header
