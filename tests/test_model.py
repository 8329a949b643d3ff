"""Encoder, decoder step, teacher-forced scoring and checkpointing."""

import dataclasses
import io
import json
import os

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip import model
from roundtrip.autodiff import Tape, backward
from roundtrip.data import Vocab
from roundtrip.model import (ModelConfig, ModelParams, attend, decode_step, encode,
                             init_decoder_state, prepare_memory,
                             teacher_forced_nll)
from roundtrip.training import Adam, translation_loss

from conftest import attention_chain


def tiny_params(vocab_size=9, d=6, seed=0, dropout=0.0):
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d, d_hidden=d, d_attention=d,
                      dropout=dropout)
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
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_attend_is_two_nodes_equal_to_the_op_chain(self, precision):
        # the weights and the context equal, byte for byte, the read built op
        # by op and a one-row batched matmul over the annotations
        with ad.using_dtype(precision):
            params = tiny_params()
            src_ids, src_mask, _, _ = toy_batch()
            memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
            state = init_decoder_state(params.dec, memory)
            with Tape() as tape:
                context, alpha = attend(params.dec, state.h, memory)
        att, ann = params.dec.att, memory.annotations.data
        want_alpha, _ = attention_chain(state.h.data, att.w_query.data,
                                        memory.ann_keys.data, att.v.data, src_mask)
        B, S, D = ann.shape
        want_context = (want_alpha.reshape(B, 1, S) @ ann).reshape(B, D)
        assert len(tape.nodes) == 2
        for got, want in ((alpha.data, want_alpha), (context.data, want_context)):
            assert got.dtype == want.dtype == ann.dtype
            assert got.tobytes() == want.tobytes()

    def test_logits_shape_is_vocab(self, fp64):
        # the step stops at its (B, d_emb) output; the tied readout is V wide
        params = tiny_params(vocab_size=9, d=6)
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        out, _ = decode_step(params.dec, state, memory, prev_ids=np.array([1, 1]))
        assert out.shape == (2, 6)
        assert (out.data @ params.E.data.T).shape == (2, 9)

    def test_embedding_feed_equals_id_feed_exactly(self, fp64):
        params = tiny_params()
        src_ids, src_mask, _, _ = toy_batch()
        memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
        state = init_decoder_state(params.dec, memory)
        ids = np.array([6, 7])
        by_id, _ = decode_step(params.dec, state, memory, prev_ids=ids)
        state2 = init_decoder_state(params.dec, memory)
        by_emb, _ = decode_step(params.dec, state2, memory,
                                prev_emb=ad.constant(params.E.data[ids]))
        assert by_id.data.tobytes() == by_emb.data.tobytes()

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

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_nll_of_the_logits_is_the_fp64_log_sum_exp(self, precision):
        # the decoder's output path: readout_nll of decode_step's output,
        # one row at a time through the mask, against logsumexp(l) - l[t] of
        # the logits l = out @ E.T in fp64 numpy
        with ad.using_dtype(precision):
            params = tiny_params()
            src_ids, src_mask, tgt_ids, _ = toy_batch()
            memory = prepare_memory(params.dec, encode(params, src_ids, src_mask))
            state = init_decoder_state(params.dec, memory)
            out, _ = decode_step(params.dec, state, memory, prev_ids=np.array([1, 1]))
            rows = [ad.readout_nll(out, params.E, tgt_ids[:, 0], mask).data
                    for mask in np.eye(2)]
        nll = np.array(rows)
        x = (out.data @ params.E.data.T).astype(np.float64)
        m = x.max(axis=-1)
        want = m + np.log(np.exp(x - m[:, None]).sum(axis=-1)) - x[[0, 1], tgt_ids[:, 0]]
        dtype = np.float32 if precision == "fp32" else np.float64
        assert nll.dtype == out.data.dtype == dtype
        rtol = 1e-6 if precision == "fp32" else 1e-14
        np.testing.assert_allclose(nll, want, rtol=rtol, atol=0)

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
        ckpt_io.save(path, params, vocab, meta={"update": 7})
        loaded, loaded_vocab, header = ckpt_io.load(path)
        for (n1, t1), (n2, t2) in zip(params.named_parameters(),
                                      loaded.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        assert loaded_vocab.id_to_token == vocab.id_to_token
        assert header["meta"]["update"] == 7

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_load_takes_the_stored_arrays_without_an_init_draw(self, tmp_path,
                                                               monkeypatch, precision):
        with ad.using_dtype(precision):
            params = tiny_params(vocab_size=9, seed=4)
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())

        def no_draw(*args):
            raise AssertionError("load drew initial weights")

        monkeypatch.setattr(model, "_xavier", no_draw)
        loaded, _, _ = ckpt_io.load(path)
        with ad.using_dtype(precision):
            ckpt_io.load(path, params.config)
        assert loaded.dec.E is loaded.E
        for (n1, t1), (n2, t2) in zip(params.named_parameters(),
                                      loaded.named_parameters(), strict=True):
            assert n1 == n2 and t1.data.dtype == t2.data.dtype
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_vocab_tags_and_merges_saved(self, tmp_path, fp64):
        params = tiny_params(vocab_size=9, seed=4)
        vocab = Vocab(["<l1>", "<l2>", "a@@", "b", "ab"], ["<l1>", "<l2>"],
                      [("a", "b")])
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, vocab)
        _, loaded_vocab, _ = ckpt_io.load(path)
        assert loaded_vocab == vocab
        assert loaded_vocab.encode(["abb"]) == vocab.encode(["abb"])

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path, fp64,
                                                     monkeypatch):
        params = tiny_params(vocab_size=9, seed=4)
        vocab = self._vocab()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, vocab, meta={"update": 1})
        before = open(path, "rb").read()
        real_savez = np.savez

        def savez_then_fail(fh, *args, **kwargs):
            # write the first half of the archive, then fail as a full disk would
            buf = io.BytesIO()
            real_savez(buf, *args, **kwargs)
            fh.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="no space"):
            ckpt_io.save(path, tiny_params(vocab_size=9, seed=5), vocab,
                         meta={"update": 2})
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        assert open(path, "rb").read() == before
        loaded, _, header = ckpt_io.load(path)
        assert header["meta"]["update"] == 1
        for (_, t1), (_, t2) in zip(params.named_parameters(),
                                    loaded.named_parameters()):
            assert np.array_equal(t1.data, t2.data)

    def test_structural_mismatch_fails_fast(self, tmp_path, fp64):
        params = tiny_params(vocab_size=9, d=6)
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())
        other = ModelConfig(vocab_size=9, d_emb=8, d_hidden=8, d_attention=8)
        with pytest.raises(ValueError, match="d_emb=6; this run's d_emb is 8"):
            ckpt_io.load(path, other)
        wider = dataclasses.replace(params.config, d_hidden=10)
        with pytest.raises(ValueError, match="d_hidden=6; this run's d_hidden is 10"):
            ckpt_io.load(path, wider)

    def test_precision_is_structural(self, tmp_path, fp64):
        params = tiny_params()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())
        with ad.using_dtype("fp32"):
            with pytest.raises(ValueError, match="precision='fp64'; "
                                                 "this run's precision is 'fp32'"):
                ckpt_io.load(path, params.config)

    def test_precision_is_the_dtype_of_the_arrays(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        for name, dtype in (("fp32", np.float32), ("fp64", np.float64)):
            with ad.using_dtype(name):
                ckpt_io.save(path, tiny_params(), self._vocab())
            loaded, _, header = ckpt_io.load(path)
            assert header["precision"] == name and "config_hash" not in header
            assert {t.data.dtype for _, t in loaded.named_parameters()} == {np.dtype(dtype)}

    def test_mixed_dtypes_are_refused(self, tmp_path, fp64):
        params = tiny_params()
        params.E.data = params.E.data.astype(np.float32)
        with pytest.raises(ValueError, match="float32.*float64"):
            ckpt_io.save(str(tmp_path / "ckpt.npz"), params, self._vocab())

    def _edit_header(self, path, edit):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__header__"]))
        edit(header)
        arrays["__header__"] = np.array(json.dumps(header))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_config_hash_of_an_older_checkpoint_is_ignored(self, tmp_path, fp64):
        params = tiny_params()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())
        self._edit_header(path, lambda h: h.update(config_hash="0123456789abcdef"))
        loaded, _, _ = ckpt_io.load(path, params.config)
        assert np.array_equal(loaded.E.data, params.E.data)

    def test_save_writes_no_layer_norm_key(self, tmp_path, fp64):
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, tiny_params(), self._vocab())
        with np.load(path) as data:
            assert "layer_norm" not in json.loads(str(data["__header__"]))["config"]

    def test_older_header_with_layer_norm_true_loads(self, tmp_path, fp64):
        # checkpoints written while the cell's layer norm was optional name it
        params = tiny_params(seed=4)
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())
        self._edit_header(path, lambda h: h["config"].update(layer_norm=True))
        for config in (None, params.config):
            loaded, _, header = ckpt_io.load(path, config)
            assert loaded.config == params.config and "layer_norm" not in header["config"]
            for (n1, t1), (n2, t2) in zip(params.named_parameters(),
                                          loaded.named_parameters(), strict=True):
                assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()

    def test_older_header_with_layer_norm_false_is_refused(self, tmp_path, fp64):
        params = tiny_params()
        path = str(tmp_path / "ckpt.npz")
        ckpt_io.save(path, params, self._vocab())
        self._edit_header(path, lambda h: h["config"].update(layer_norm=False))
        for config in (None, params.config):
            with pytest.raises(ValueError, match="layer_norm may only be true, got False; "
                                                 "the unnormalized LSTM cell is gone"):
                ckpt_io.load(path, config)


def test_translation_loss_reductions(fp64):
    # the loss is per target token; the sum in nats comes beside it
    params = tiny_params(vocab_size=9)
    params.E.data[:] = 0.0
    src_ids, src_mask, tgt_ids, tgt_mask = toy_batch()
    loss, sum_nats, n_tokens, *_ = translation_loss(
        params, _as_batch(src_ids, src_mask, tgt_ids, tgt_mask), 1)
    assert n_tokens == tgt_mask.sum()
    assert float(loss.data) * n_tokens == pytest.approx(sum_nats, rel=1e-12)
    assert sum_nats == pytest.approx(n_tokens * np.log(9.0), abs=1e-6)
    assert float(loss.data) == pytest.approx(np.log(9.0), abs=1e-6)


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
    _, l1, *_ = translation_loss(params, one, 1)
    _, l2, *_ = translation_loss(params, two, 1)
    assert l2 == pytest.approx(2 * l1, rel=1e-12)
