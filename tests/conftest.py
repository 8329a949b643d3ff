import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip.config import RunConfig
from roundtrip.data import ParallelPair, TaggedSentence, Vocab, build_bidirectional_corpus
from roundtrip.synth import generate_corpus


@pytest.fixture
def fp64():
    with ad.using_dtype("fp64"):
        yield


def softmax(x):
    """Softmax over the last axis of a numpy array, the max shifted out."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_chain(h, w_query, keys, v, mask):
    """One attention read as separate ops in plain numpy: the query matmul, a
    reshape to (B, 1, A), the add of the keys, tanh, the matmul by v, the add
    of the mask's -1e9 bias in the scores' dtype, and the softmax. Returns
    the weights and the tanh output."""
    B = keys.shape[0]
    t = np.tanh(keys + (h @ w_query).reshape(B, 1, -1))
    scores = t @ v + ((1.0 - mask) * -1e9).astype(t.dtype)
    return softmax(scores), t


def pairs_from_lines(src_lines, tgt_lines, src_lang="l1", tgt_lang="l2"):
    return [ParallelPair(TaggedSentence(src_lang, tuple(s.split())),
                         TaggedSentence(tgt_lang, tuple(t.split())))
            for s, t in zip(src_lines, tgt_lines)]


def toy_task(task="reversal", size=120, vocab=12, seed=5, dev_size=24,
             test_size=24, min_len=3, max_len=6):
    splits, _ = generate_corpus(task, size, vocab, seed, dev_size=dev_size,
                                test_size=test_size, min_len=min_len,
                                max_len=max_len)
    data = {name: pairs_from_lines(*lines) for name, lines in splits.items()}
    vocab_obj = Vocab.build(build_bidirectional_corpus(data["train"]))
    return data, vocab_obj


@pytest.fixture(scope="session")
def copy_model(tmp_path_factory):
    """A model overfit on a tiny copy task, trained in fp32; used by
    decode/translate tests."""
    from roundtrip.training import Trainer

    data, vocab = toy_task(task="copy", size=96, vocab=10, seed=3, min_len=2,
                           max_len=5)
    cfg = RunConfig(d_emb=32, d_hidden=32, d_attention=32, dropout=0.1,
                    batch_size=32, checkpoint_interval=150, max_updates=450,
                    seed=3, eval_bleu=False)
    with ad.using_dtype("fp32"):
        trainer = Trainer(cfg, vocab, data["train"], data["dev"], "pretrain",
                          out_dir=str(tmp_path_factory.mktemp("copy-model")))
        trainer.run()
    return trainer.params, vocab, data
