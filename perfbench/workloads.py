"""Workload definitions and the set-up phase.

This module imports no part of the toolkit at module level: `set_up` is
timed, and its time includes the toolkit's import. Run as a script, it times
one set-up in a process of its own (`time_set_up`).
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# source content lengths of every workload
MIN_LEN, MAX_LEN = 5, 12


@dataclass(frozen=True)
class Workload:
    name: str
    vocab: int            # `synth --vocab`
    pretrain_updates: int   # fixed, so every seed starts its fine-tunes alike
    pretrain_interval: int
    finetune_interval: int  # updates of each fine-tune per cycle
    beam_sentences: int     # sentences per beam-5 round
    pretrain_lr: float = 0.001  # RunConfig's default
    pairs: int = 2000
    dev_size: int = 24     # one batch each way: dev perplexity at every checkpoint
    test_pool: int = 400   # generated test pairs, from which the test set is drawn
    test_per_length: int = 12


# rev32 is the acceptance protocol's shape. v4096 differs from it in vocab
# size and in its pretrain's rate: at the default 1e-3 a V=4096 model is
# still near its unigram loss after 240 updates, and where its samples stop
# is set by the seed (4-6 steps an update on one seed, 7-13 on another); at
# 1e-2 it learns where a reversal ends within about 200 updates, and its
# samples stop at 13-15 steps on every seed, as they do from a trained model.
WORKLOADS = {
    "rev32": Workload("rev32", vocab=32, pretrain_updates=120, pretrain_interval=20,
                      finetune_interval=8, beam_sentences=24),
    "v4096": Workload("v4096", vocab=4096, pretrain_updates=160, pretrain_interval=16,
                      finetune_interval=5, beam_sentences=24, pretrain_lr=0.01),
}


def small(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds (benchmark tests)."""
    return dataclasses.replace(w, pretrain_updates=6, pretrain_interval=3,
                               finetune_interval=2, beam_sentences=2, pairs=60,
                               dev_size=8, test_pool=100, test_per_length=1)


@dataclass
class SetUp:
    data: dict            # split name -> list of ParallelPair
    vocab: object
    seconds: list         # wall time of each repetition
    generate_seconds: list  # time inside synth.generate_corpus, per repetition


def by_length(pairs, lengths, per_length: int) -> list:
    """`per_length` pairs of each source length in `lengths`, interleaved so
    that every prefix of the list mixes the lengths alike. Decoding cost
    follows the lengths, so the test set has the same length profile for
    every seed."""
    groups = {n: [p for p in pairs if len(p.source) == n] for n in lengths}
    if any(len(g) < per_length for g in groups.values()):
        raise ValueError("the test pool lacks pairs of some length")
    return [groups[n][i] for i in range(per_length) for n in lengths]


def set_up(w: Workload, seed: int) -> SetUp:
    """Import the toolkit, generate the corpus, build the vocab and initialize
    a model, timed."""
    import numpy as np

    t0 = time.perf_counter()
    import roundtrip as rt
    from roundtrip import synth
    from roundtrip.data import build_bidirectional_corpus
    t1 = time.perf_counter()
    splits, _ = synth.generate_corpus(
        "reversal", w.pairs, w.vocab, seed, dev_size=w.dev_size,
        test_size=w.test_pool, min_len=MIN_LEN, max_len=MAX_LEN)
    generate_seconds = time.perf_counter() - t1
    data = {name: [rt.ParallelPair(rt.TaggedSentence("l1", tuple(s.split())),
                                   rt.TaggedSentence("l2", tuple(t.split())))
                   for s, t in zip(*lines)]
            for name, lines in splits.items()}
    data["test"] = by_length(data["test"], range(MIN_LEN, MAX_LEN + 1), w.test_per_length)
    vocab = rt.Vocab.build(build_bidirectional_corpus(data["train"]))
    config = rt.RunConfig(seed=seed).model_config(len(vocab))
    with rt.autodiff.using_dtype("fp32"):
        rt.ModelParams(config, np.random.default_rng(seed))
    return SetUp(data, vocab, [time.perf_counter() - t0], [generate_seconds])


def time_set_up(w: Workload, seed: int, setup: SetUp) -> None:
    """One more set-up, in a new process that has loaded numpy as the
    benchmark's own has; its times are added to `setup`'s. The speed of a
    set-up depends on the process it runs in: on one machine the same
    set-up took 0.09 s in some processes and 0.13 s in others, while the
    set-ups of one process agreed to a few percent. A process per set-up
    samples that over the run."""
    out = subprocess.run(
        [sys.executable, __file__, json.dumps(dataclasses.asdict(w)), str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    times = json.loads(out.stdout)
    setup.seconds.append(times["seconds"])
    setup.generate_seconds.append(times["generate_seconds"])


def median(values) -> float:
    return float(statistics.median(values))


if __name__ == "__main__":
    import numpy  # noqa: F401  (loaded before set-up is timed, as in run.py)

    sys.path.insert(0, str(SRC))
    done = set_up(Workload(**json.loads(sys.argv[1])), int(sys.argv[2]))
    print(json.dumps({"seconds": done.seconds[0],
                      "generate_seconds": done.generate_seconds[0]}))
