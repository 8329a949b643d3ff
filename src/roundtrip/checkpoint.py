"""Versioned checkpoint container: named parameter tensors + the vocab, with
its language tags and subword merges + config hash, and, in a checkpoint the
trainer writes, the trainer's state.

Arrays are stored little-endian in the run's width (32-bit floats for fp32
runs), so save -> load is bit-exact and resumed training reproduces the same
update sequence. Structural mismatches (dims, vocab, precision) fail fast.
A checkpoint is written whole or not at all: `save` writes a temporary file
beside it and moves that into place, so a write that fails leaves the file
previously under that name as it was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from . import autodiff as ad
from .data import RESERVED, Vocab
from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1


def structural_hash(config: ModelConfig, precision: str) -> str:
    key = (f"vocab_size={config.vocab_size};d_emb={config.d_emb};"
           f"d_hidden={config.d_hidden};d_attention={config.d_attention};"
           f"layer_norm={config.layer_norm};precision={precision}")
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _le(a: np.ndarray) -> np.ndarray:
    return a.astype(a.dtype.newbyteorder("<"), copy=False)


def save(path: str, params: ModelParams, vocab: Vocab, precision: str,
         meta: dict | None = None, state: dict[str, np.ndarray] | None = None) -> None:
    """Write the model, the vocab and `meta`, a JSON object. The trainer
    passes its scalar state in `meta` and its arrays (optimizer moments,
    reconstructor weights) by name in `state`, which only `load_state` reads."""
    arrays = {f"param/{name}": _le(t.data) for name, t in params.named_parameters()}
    arrays.update({f"state/{name}": _le(a) for name, a in (state or {}).items()})
    header = {
        "version": FORMAT_VERSION,
        "precision": precision,
        "config": dataclasses.asdict(params.config),
        "config_hash": structural_hash(params.config, precision),
        "tags": vocab.tags,
        "merges": vocab.merges,
        "meta": meta or {},
    }
    vocab_lines = "\n".join(vocab.id_to_token)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, __header__=np.array(json.dumps(header)),
                     __vocab__=np.array(vocab_lines), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str, expect_hash: str | None = None) -> tuple[ModelParams, Vocab, dict]:
    """Rebuild params/vocab; verifies the structural hash when given. A header
    without tags or merges predates them: its vocab has no merges, and its
    tags are the two tokens right after the reserved ones, where `Vocab.build`
    has always put the sorted tags of the corpus's one language pair."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["__header__"]))
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        if expect_hash is not None and header["config_hash"] != expect_hash:
            raise ValueError("checkpoint config hash mismatch; "
                             "model dims/vocab/precision differ from the run config")
        tokens = str(data["__vocab__"]).split("\n")[len(RESERVED):]
        vocab = Vocab(tokens, header.get("tags", tokens[:2]), header.get("merges", []))
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


def load_state(path: str) -> dict[str, np.ndarray]:
    """The `state` arrays saved with a checkpoint, by name; the rest of the
    trainer's state is in the header's meta, which `load` returns."""
    with np.load(path, allow_pickle=False) as data:
        state = {key[len("state/"):]: data[key] for key in data.files
                 if key.startswith("state/")}
    if not state:
        raise ValueError(f"{path} holds no trainer state to resume from")
    return state
