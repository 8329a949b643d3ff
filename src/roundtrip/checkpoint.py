"""Versioned checkpoint container: named parameter tensors + the vocab, with
its language tags and subword merges + the model config, and, in a checkpoint
the trainer writes, the trainer's state. Its precision is the dtype of its
arrays, stored little-endian and loaded uncast, so save -> load is bit-exact.
A checkpoint is written whole or not at all (`write_whole`): `save` writes a
temporary file beside it and moves that into place, so a write that fails
leaves the file previously under that name as it was.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import autodiff as ad
from .config import is_retired
from .data import RESERVED, Vocab
from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1


def precision(params: ModelParams) -> str:
    """The precision of `params`, whose arrays must share one float dtype."""
    dtypes = {t.data.dtype for _, t in params.named_parameters()}
    for name, dtype in ad.PRECISIONS.items():
        if dtypes == {dtype}:
            return name
    raise ValueError(f"parameters of mixed or non-float dtypes {sorted(map(str, dtypes))}")


def _le(a: np.ndarray) -> np.ndarray:
    return a.astype(a.dtype.newbyteorder("<"), copy=False)


def save(path: str, params: ModelParams, vocab: Vocab, meta: dict | None = None,
         state: dict[str, np.ndarray] | None = None) -> None:
    """Write the model, the vocab and `meta`, a JSON object. The trainer
    passes its scalar state in `meta` and its arrays (optimizer moments,
    reconstructor weights) by name in `state`, which only `load_state` reads."""
    arrays = {f"param/{name}": _le(t.data) for name, t in params.named_parameters()}
    arrays.update({f"state/{name}": _le(a) for name, a in (state or {}).items()})
    header = {
        "version": FORMAT_VERSION,
        "precision": precision(params),
        "config": dataclasses.asdict(params.config),
        "tags": vocab.tags,
        "merges": vocab.merges,
        "meta": meta or {},
    }
    vocab_lines = "\n".join(vocab.id_to_token)
    write_whole(path, lambda fh: np.savez(fh, __header__=np.array(json.dumps(header)),
                                          __vocab__=np.array(vocab_lines), **arrays))


def write_whole(path: str, write) -> None:
    """Call `write` on a binary file beside `path`, make that file durable
    and move it into place: a write that fails leaves `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str, config: ModelConfig | None = None) -> tuple[ModelParams, Vocab, dict]:
    """Rebuild params/vocab in the stored dtype, from the run's `config` if
    given: the file must then hold that structure but for `dropout`, in the
    caller's precision. A header without tags or merges has no merges, and
    its tags are the two tokens after the reserved ones, where `Vocab.build`
    has always put the sorted tags of the corpus's one language pair."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["__header__"]))
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        header["config"] = {field: value for field, value in header["config"].items()
                            if not is_retired(field, value, path)}
        if config is not None:
            for field, value in header["config"].items():
                if field != "dropout" and value != getattr(config, field):
                    raise ValueError(f"{path} holds a model with {field}={value!r}; "
                                     f"this run's {field} is {getattr(config, field)!r}")
        tokens = str(data["__vocab__"]).split("\n")[len(RESERVED):]
        vocab = Vocab(tokens, header.get("tags", tokens[:2]), header.get("merges", []))
        params = ModelParams(config or ModelConfig(**header["config"]), None)
        for name, t in params.named_parameters():
            key = f"param/{name}"
            if key not in data:
                raise ValueError(f"checkpoint missing parameter {name}")
            stored = data[key]
            if stored.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            t.data = np.ascontiguousarray(stored)
    run = next(name for name, dtype in ad.PRECISIONS.items() if dtype == ad.default_dtype())
    if config is not None and precision(params) != run:
        raise ValueError(f"{path} holds a model with precision={precision(params)!r}; "
                         f"this run's precision is {run!r}")
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
