"""Encoder, decoder step, teacher-forced scoring and checkpointing."""

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip.autodiff import Tape, backward
from roundtrip.data import Vocab
from roundtrip.model import (ModelConfig, ModelParams, attend, decode_step, encode,
                             init_decoder_state, prepare_memory,
                             teacher_forced_nll)
from roundtrip.training import Adam, translation_loss


def tiny_params(vocab_size=9, d=6, seed=0, dropout=0.0, layer_norm=True):
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d, d_hidden=d, d_attention=d,
                      dropout=dropout, layer_norm=layer_norm)
    return ModelParams(cfg, np.random.default_rng(seed))


def toy_batch(vocab_size=9):
    # rows: [tag, tokens..., eos]; ids 0..3 reserved, 4/5 tags, 6+ content
    src_ids = np.array([[4, 6, 7, 8, 2], [5, 8, 2, 0, 0]])
    src_mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
    tgt_ids = np.array([[5, 8, 7, 2], [4, 6, 2, 0]])
    tgt_mask = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0]])
    return src_ids, src_mask, tgt_ids, tgt_mask


class TestEncode:
    def test_single_token_single_annotation(self, fp64):
        params = tiny_params()
        enc = encode(params, np.array([[4]]), np.ones((1, 1)))
        assert enc.annotations.shape == (1, 1, 2 * params.config.d_hidden)

    def test_deterministic_without_dropout(self, fp64):
        params = tiny_params()
        ids, mask = np.array([[4, 6, 7, 2]]), np.ones((1, 4))
        a = encode(params, ids, mask).annotations.data
        b = encode(params, ids, mask).annotations.data
        assert np.array_equal(a, b)

    def test_reversed_input_mirrors_backward_states(self, fp64):
        # with the two directions sharing one set of cell weights, the
        # backward pass over x equals the forward pass over reversed(x)
        params = tiny_params(seed=3)
        for name in ("Wx", "Wh", "b", "ln_gain", "ln_bias"):
            getattr(params.enc_bwd, name).data = getattr(params.enc_fwd, name).data.copy()
        ids = np.array([[4, 6, 7]])
        rev = ids[:, ::-1].copy()
        mask = np.ones((1, 3))
        H = params.config.d_hidden
        ann = encode(params, ids, mask).annotations.data
        ann_rev = encode(params, rev, mask).annotations.data
        fwd_of_rev = ann_rev[0, :, :H]
        bwd_of_orig = ann[0, :, H:]
        np.testing.assert_allclose(fwd_of_rev, bwd_of_orig[::-1], rtol=1e-10)

    def test_out_of_vocab_id_errors(self, fp64):
        params = tiny_params(vocab_size=9)
        with pytest.raises(ValueError):
            encode(params, np.array([[42]]), np.ones((1, 1)))

    def test_empty_source_errors(self, fp64):
        params = tiny_params()
        with pytest.raises(ValueError):
            encode(params, np.zeros((1, 0), dtype=int), np.zeros((1, 0)))

    def test_pad_positions_get_zero_attention(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        enc = encode(params, src_ids, src_mask)
        memory = prepare_memory(params.dec, enc)
        state = init_decoder_state(params.dec, memory)
        _, alpha = attend(params.dec, state.h, memory)
        assert np.all(alpha.data[1, 3:] == 0.0)
        np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-9)


class TestDecodeStep:
    def test_logits_shape_is_vocab(self, fp64):
        params = tiny_params(vocab_size=9)
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        logits, _ = decode_step(params.dec, state, memory, prev_ids=np.array([1, 1]))
        assert logits.shape == (2, 9)

    def test_soft_onehot_equals_hard_exactly(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        hard, _ = decode_step(params.dec, state, memory, prev_ids=np.array([6, 7]))
        onehots = np.zeros((2, 9))
        onehots[0, 6] = 1.0
        onehots[1, 7] = 1.0
        state2 = init_decoder_state(params.dec, memory)
        soft, _ = decode_step(params.dec, state2, memory, prev_dist=ad.constant(onehots))
        assert np.array_equal(hard.data, soft.data)

    def test_attention_weights_sum_to_one(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        _, alpha = attend(params.dec, state.h, memory)
        np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_uninitialized_state_errors(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        with pytest.raises(ValueError):
            decode_step(params.dec, None, memory, prev_ids=np.array([1, 1]))

    def test_probabilities_normalize(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        logits, _ = decode_step(params.dec, state, memory, prev_ids=np.array([1, 1]))
        p = ad.stable_softmax(logits).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_full_gradient_matches_finite_differences(self, fp64):
        from roundtrip.verification import decode_step_check

        report = decode_step_check(seed=1)
        assert report.max_rel_err < 1e-5


class TestTeacherForcedNll:
    def test_uniform_model_gives_t_log_v(self, fp64):
        params = tiny_params(vocab_size=9)
        params.E.data[:] = 0.0  # logits identically zero -> uniform output
        src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
        loss, n = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                           tgt_mask, bos_id=1)
        expected = tgt_mask.sum() * np.log(9.0)
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_loss_decreases_after_one_adam_step(self, fp64):
        params = tiny_params(seed=5)
        src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()

        def current_loss():
            loss, *_ = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                          tgt_mask, bos_id=1)
            return float(loss.data)

        before = current_loss()
        opt = Adam(params.named_parameters())
        with Tape() as tape:
            loss, *_ = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                          tgt_mask, bos_id=1)
            backward(tape, loss)
        opt.step(lr=0.001)
        assert current_loss() < before

    def test_per_sentence_losses_sum_to_batch_loss(self, fp64):
        params = tiny_params(seed=2)
        src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
        batch_loss, *_ = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                            tgt_mask, bos_id=1)
        total = 0.0
        for b in range(2):
            ns, nt = int(src_mask[b].sum()), int(tgt_mask[b].sum())
            loss_b, *_ = teacher_forced_nll(
                params, src_ids[b: b + 1, :ns], src_mask[b: b + 1, :ns],
                tgt_ids[b: b + 1, :nt], tgt_mask[b: b + 1, :nt], bos_id=1)
            total += float(loss_b.data)
        assert total == pytest.approx(float(batch_loss.data), rel=1e-9)

    def test_empty_target_errors(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        with pytest.raises(ValueError):
            teacher_forced_nll(params, src_ids, src_mask,
                               np.zeros((2, 0), dtype=int), np.zeros((2, 0)),
                               bos_id=1)


class TestWeightTying:
    def test_projection_and_embedding_share_storage(self):
        params = tiny_params()
        assert params.dec.E is params.E

    def test_rows_identical_after_optimizer_step(self, fp64):
        params = tiny_params(seed=7)
        src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
        opt = Adam(params.named_parameters())
        with Tape() as tape:
            loss, *_ = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                          tgt_mask, bos_id=1)
            backward(tape, loss)
        opt.step(lr=0.001)
        assert np.array_equal(params.dec.E.data, params.E.data)

    def test_embedding_gradient_includes_both_paths(self, fp64):
        # gradient into E must include output-projection terms at rows that
        # never appear as inputs
        params = tiny_params(seed=1)
        src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
        with Tape() as tape:
            loss, *_ = teacher_forced_nll(params, src_ids, src_mask, tgt_ids,
                                          tgt_mask, bos_id=1)
            backward(tape, loss)
        unused_row = 3  # UNK never appears in the batch
        assert np.any(params.E.grad[unused_row] != 0.0)


class TestCheckpoint:
    def _vocab(self):
        return Vocab(["<l1>", "<l2>", "aa", "bb", "cc"])

    def test_save_load_bit_exact(self, tmp_path, fp64):
        params = tiny_params(vocab_size=9, seed=4)
        vocab = self._vocab()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, vocab, "fp64", meta={"update": 7})
        loaded, loaded_vocab, header = ckpt_io.load(path)
        for (n1, t1), (n2, t2) in zip(params.named_parameters(),
                                      loaded.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        assert loaded_vocab.id_to_token == vocab.id_to_token
        assert header["meta"]["update"] == 7

    def test_structural_mismatch_fails_fast(self, tmp_path, fp64):
        params = tiny_params(vocab_size=9, d=6)
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab(), "fp64")
        other = ModelConfig(vocab_size=9, d_emb=8, d_hidden=8, d_attention=8)
        bad_hash = ckpt_io.structural_hash(other, "fp64")
        with pytest.raises(ValueError, match="hash mismatch"):
            ckpt_io.load(path, expect_hash=bad_hash)

    def test_precision_is_structural(self, tmp_path, fp64):
        params = tiny_params()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab(), "fp64")
        h32 = ckpt_io.structural_hash(params.config, "fp32")
        with pytest.raises(ValueError, match="hash mismatch"):
            ckpt_io.load(path, expect_hash=h32)


def test_translation_loss_reductions(fp64):
    params = tiny_params(vocab_size=9)
    params.E.data[:] = 0.0
    src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
    loss_sum, *_ = translation_loss(params, _as_batch(src_ids, src_mask, tgt_ids,
                                                      tgt_mask), 1,
                                    reduction="sum")
    loss_mean, *_ = translation_loss(params, _as_batch(src_ids, src_mask, tgt_ids,
                                                       tgt_mask), 1,
                                     reduction="mean")
    n = tgt_mask.sum()
    assert float(loss_sum.data) == pytest.approx(n * np.log(9.0), abs=1e-6)
    assert float(loss_mean.data) == pytest.approx(np.log(9.0), abs=1e-6)


def _as_batch(src_ids, src_mask, tgt_ids, tgt_mask):
    from roundtrip.data import Batch

    return Batch(src_ids, src_mask, tgt_ids, tgt_mask)


def test_duplicated_sentence_doubles_sum_loss(fp64):
    params = tiny_params(seed=6)
    src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
    one = _as_batch(src_ids[:1], src_mask[:1], tgt_ids[:1], tgt_mask[:1])
    two = _as_batch(np.repeat(src_ids[:1], 2, axis=0),
                    np.repeat(src_mask[:1], 2, axis=0),
                    np.repeat(tgt_ids[:1], 2, axis=0),
                    np.repeat(tgt_mask[:1], 2, axis=0))
    l1, *_ = translation_loss(params, one, 1, reduction="sum")
    l2, *_ = translation_loss(params, two, 1, reduction="sum")
    assert float(l2.data) == pytest.approx(2 * float(l1.data), rel=1e-12)
