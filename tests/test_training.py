"""Objectives, optimizer, schedule and the training loop."""

import csv
import os

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip import model, sampling, training
from roundtrip.autodiff import Tape, Tensor
from roundtrip.config import RunConfig
from roundtrip.data import Batch, Vocab, make_batch
from roundtrip.model import ModelConfig, ModelParams, encode, prepare_memory, sequence_nll
from roundtrip.sampling import GumbelNoiseSource, STGSConfig
from roundtrip.training import (Adam, HiddenReconstructorParams, LrScheduler,
                                PhaseError, Trainer, hidden_reconstruction_loss,
                                reconstruction_loss, translation_loss)

from conftest import toy_task


def tiny_params(vocab_size=9, d=6, seed=0):
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d, d_hidden=d, d_attention=d,
                      dropout=0.0)
    return ModelParams(cfg, np.random.default_rng(seed))


def toy_batch():
    src_ids = np.array([[4, 6, 7, 8, 2], [5, 8, 6, 2, 0]])
    src_mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 1, 0]])
    return Batch(src_ids, src_mask, src_ids.copy(), src_mask.copy())


class TestAdam:
    def test_three_steps_match_hand_derived_values(self, fp64):
        # two scalar parameters with constant gradients 1.0 and -2.0;
        # expected iterates computed step by step from the update rule
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p1 = Tensor(np.array([0.5]), requires_grad=True)
        p2 = Tensor(np.array([-1.0]), requires_grad=True)
        opt = Adam([("p1", p1), ("p2", p2)])

        x1, x2 = 0.5, -1.0
        m1 = m2 = v1 = v2 = 0.0
        for t in range(1, 4):
            p1.grad = np.array([1.0])
            p2.grad = np.array([-2.0])
            opt.step(lr)
            m1 = b1 * m1 + (1 - b1) * 1.0
            v1 = b2 * v1 + (1 - b2) * 1.0
            m2 = b1 * m2 + (1 - b1) * -2.0
            v2 = b2 * v2 + (1 - b2) * 4.0
            x1 -= lr * (m1 / (1 - b1 ** t)) / (np.sqrt(v1 / (1 - b2 ** t)) + eps)
            x2 -= lr * (m2 / (1 - b1 ** t)) / (np.sqrt(v2 / (1 - b2 ** t)) + eps)
            assert p1.data[0] == pytest.approx(x1, rel=1e-12)
            assert p2.data[0] == pytest.approx(x2, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_step_is_the_update_rule_byte_for_byte(self, dtype):
        rng = np.random.default_rng(5)
        p0, g, m0, v0 = (rng.standard_normal((4, 3)).astype(dtype) for _ in range(4))
        v0 *= v0
        p = Tensor(p0.copy(), requires_grad=True, dtype=dtype)
        opt = Adam([("p", p)], group=["p"])
        opt.m["p"], opt.v["p"], opt.step_count = m0.copy(), v0.copy(), 2
        p.grad = g
        opt.step(0.5, 0.003)

        b1, b2, eps, t = 0.9, 0.999, 1e-8, 3
        m = m0 * b1
        m += (1.0 - b1) * g
        v = v0 * b2
        v += (1.0 - b2) * (g * g)
        want = p0 - 0.003 * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert p.data.dtype == dtype
        assert opt.m["p"].tobytes() == m.tobytes()
        assert opt.v["p"].tobytes() == v.tobytes()
        assert p.data.tobytes() == want.tobytes()

    def test_skips_parameters_without_gradient(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)])
        opt.step(0.1)
        assert p.data[0] == 1.0

    def test_group_steps_at_group_lr(self, fp64):
        p = Tensor(np.array([0.0]), requires_grad=True)
        q = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p), ("q", q)], group=["q"])
        p.grad = np.array([1.0])
        q.grad = np.array([1.0])
        opt.step(0.01, 0.1)
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)
        assert q.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_state_roundtrip(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([("p", p)])
        p.grad = np.array([0.5, -0.5])
        opt.step(0.01)
        arrays = opt.state_arrays()
        opt2 = Adam([("p", p)])
        opt2.load_state_arrays(arrays)
        assert opt2.step_count == 1
        assert np.array_equal(opt2.m["p"], opt.m["p"])
        assert np.array_equal(opt2.v["p"], opt.v["p"])


class TestLrScheduler:
    def test_decay_after_exactly_four_stale_checkpoints(self):
        sched = LrScheduler(0.001)
        sched.observe(10.0)
        for ppl in (11.0, 11.0, 11.0):
            sched.observe(ppl)
            assert sched.lr == 0.001
        sched.observe(11.0)  # 4th stale
        assert sched.lr == pytest.approx(0.0007)

    def test_stop_after_exactly_ten_stale_checkpoints(self):
        sched = LrScheduler(0.001)
        sched.observe(10.0)
        for i in range(9):
            sched.observe(12.0)
            assert not sched.should_stop
        sched.observe(12.0)
        assert sched.should_stop

    def test_improvement_resets_counters(self):
        sched = LrScheduler(0.001)
        sched.observe(10.0)
        for _ in range(3):
            sched.observe(11.0)
        sched.observe(9.0)  # improvement
        assert sched.stale == 0
        for _ in range(3):
            sched.observe(11.0)
        assert sched.lr == 0.001  # decay needs 4 consecutive stale

    def test_second_decay_at_eight_stale(self):
        sched = LrScheduler(0.001)
        sched.observe(10.0)
        for _ in range(8):
            sched.observe(11.0)
        assert sched.lr == pytest.approx(0.001 * 0.7 * 0.7)

    def test_state_roundtrip(self):
        sched = LrScheduler(0.001)
        sched.observe(5.0)
        sched.observe(6.0)
        other = LrScheduler(0.5)
        other.load_state(sched.state())
        assert other.lr == sched.lr
        assert other.best == sched.best
        assert other.stale == sched.stale


class TestObjectives:
    def test_decomposition_is_bit_exact(self, fp64):
        params = tiny_params(seed=1)
        batch = toy_batch()
        l_t, *_ = translation_loss(params, batch, bos_id=1)
        l_r, *_ = reconstruction_loss(params, batch, GumbelNoiseSource(0.5, 3),
                                      STGSConfig(tau=2.0), bos_id=1, eos_id=2,
                                      phase="finetune")
        combined = ad.add(l_t, l_r)
        assert float(combined.data) == float(l_t.data) + float(l_r.data)

    def test_fp32_sampled_update_keeps_every_gradient_in_fp32(self):
        with ad.using_dtype("fp32"):
            cfg = ModelConfig(vocab_size=9, d_emb=6, d_hidden=6, d_attention=6,
                              dropout=0.1)
            params = ModelParams(cfg, np.random.default_rng(4))
            batch, rng = toy_batch(), np.random.default_rng(5)
            with ad.Tape() as tape:
                l_t, *_ = translation_loss(params, batch, bos_id=1, train=True, rng=rng)
                l_r, *_ = reconstruction_loss(params, batch, GumbelNoiseSource(0.5, 3),
                                              STGSConfig(tau=2.0), bos_id=1, eos_id=2,
                                              phase="finetune", train=True, rng=rng)
                ad.backward(tape, ad.add(l_t, l_r))
        for name, p in params.named_parameters():
            assert p.data.dtype == np.float32, name
            assert p.grad.dtype == np.float32, name

    def test_reconstruction_blocked_in_pretrain_phase(self, fp64):
        params = tiny_params()
        with pytest.raises(PhaseError):
            reconstruction_loss(params, toy_batch(), GumbelNoiseSource(0.0, 0),
                                STGSConfig(tau=2.0), bos_id=1, eos_id=2,
                                phase="pretrain")

    def test_truncated_samples_still_give_finite_loss(self, fp64):
        params = tiny_params(seed=2)
        batch = toy_batch()
        stgs = STGSConfig(tau=2.0, max_len_factor=0, max_len_offset=2)
        l_r, r_sum, _, sampled = reconstruction_loss(
            params, batch, GumbelNoiseSource(1.0, 1), stgs, bos_id=1, eos_id=2,
            phase="finetune")
        assert np.isfinite(float(l_r.data))
        assert sampled.truncated.any() or sampled.lengths.max() <= 2

    def test_copy_model_reconstruction_close_to_identity_nll(self, fp64, copy_model):
        # a model that copies well should reconstruct its own greedy output
        # about as easily as it translates the identity pair
        params, vocab, data = copy_model
        with ad.using_dtype("fp32"):
            batch = make_batch(vocab, data["train"][:8])
            l_t, *_ = translation_loss(params, batch, vocab.bos)
            l_r, *_ = reconstruction_loss(
                params, batch, GumbelNoiseSource(0.0, 0), STGSConfig(tau=2.0),
                bos_id=vocab.bos, eos_id=vocab.eos, phase="finetune")
            assert float(l_r.data) == pytest.approx(float(l_t.data), abs=0.35)

    def test_hidden_weights_apply_linearly(self, fp64):
        params = tiny_params(seed=3)
        aux = HiddenReconstructorParams(params.config, np.random.default_rng(4))
        batch = toy_batch()
        recon_a, sum_a, n, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=0.5, w_dec=0.5)
        recon_b, sum_b, _, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=1.0, w_dec=1.0)
        assert float(sum_b) == pytest.approx(2.0 * float(sum_a), rel=1e-9)

    def test_hidden_recon_is_per_source_token(self, fp64):
        # the term is w_enc * L_enc + w_dec * L_dec with each L normalized by
        # the source token count, counted once
        params = tiny_params(seed=3)
        aux = HiddenReconstructorParams(params.config, np.random.default_rng(4))
        batch = toy_batch()
        n_src = float(batch.src_mask.sum())
        enc_only, enc_sum, n_tokens, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=1.0, w_dec=0.0)
        memory = encode(params, batch.src_ids, batch.src_mask)
        enc_nll, _, _ = sequence_nll(
            aux.dec_enc,
            prepare_memory(aux.dec_enc, memory.annotations, memory.mask, memory.summary),
            batch.src_ids, batch.src_mask, 1)
        assert n_tokens == n_src
        assert enc_sum == pytest.approx(float(enc_nll.data), rel=1e-12)
        assert float(enc_only.data) == pytest.approx(float(enc_nll.data) / n_src,
                                                     rel=1e-12)
        recon, recon_sum, n_tokens, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=0.3, w_dec=0.7)
        assert recon_sum / n_tokens == pytest.approx(float(recon.data), rel=1e-12)

    def test_hidden_summary_is_the_masked_mean_of_decoder_states(self, monkeypatch):
        # the decoder-side reconstructor starts from the mean of the
        # translation pass's decoder states over each row's target tokens
        memories = []

        def spy(dec, annotations, mask, summary):
            memories.append(prepare_memory(dec, annotations, mask, summary))
            return memories[-1]

        monkeypatch.setattr(training, "prepare_memory", spy)
        with ad.using_dtype("fp32"):
            params = tiny_params(seed=3)
            aux = HiddenReconstructorParams(params.config, np.random.default_rng(4))
            hidden_reconstruction_loss(params, toy_batch(), aux, bos_id=1)
        enc_like = memories[-1]
        states = enc_like.annotations.data.astype(np.float64)
        mask = enc_like.mask
        want = (states * mask[:, :, None]).sum(axis=1) / mask.sum(axis=1, keepdims=True)
        assert enc_like.summary.data.dtype == np.float32
        np.testing.assert_allclose(enc_like.summary.data, want, rtol=1e-6, atol=1e-7)

    def test_hidden_aux_shape_mismatch_errors(self, fp64):
        params = tiny_params(seed=3, d=6)
        other_cfg = ModelConfig(vocab_size=9, d_emb=4, d_hidden=4, d_attention=4)
        aux = HiddenReconstructorParams(other_cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="width mismatch"):
            hidden_reconstruction_loss(params, toy_batch(), aux, bos_id=1)


class TestDropoutSwitch:
    """The losses that take `train` pass their dropout stream on only when it
    is set: off, they draw nothing from the `rng` given and record no
    dropout node; on, they draw."""

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("train", [False, True])
    def test_losses_draw_from_rng_only_in_training(self, precision, train):
        with ad.using_dtype(precision):
            cfg = ModelConfig(vocab_size=9, d_emb=6, d_hidden=6, d_attention=6,
                              dropout=0.1)
            params = ModelParams(cfg, np.random.default_rng(4))
            aux = HiddenReconstructorParams(cfg, np.random.default_rng(6))
            batch = toy_batch()
            losses = {
                "translation": lambda rng: translation_loss(
                    params, batch, bos_id=1, train=train, rng=rng),
                "reconstruction": lambda rng: reconstruction_loss(
                    params, batch, GumbelNoiseSource(0.5, 3), STGSConfig(tau=2.0),
                    bos_id=1, eos_id=2, phase="finetune", train=train, rng=rng),
                "hidden": lambda rng: hidden_reconstruction_loss(
                    params, batch, aux, bos_id=1, train=train, rng=rng),
            }
            for name, loss in losses.items():
                rng = np.random.default_rng(5)
                before = rng.bit_generator.state
                with Tape() as tape:
                    loss(rng)
                assert (rng.bit_generator.state != before) == train, name
                assert ("dropout" in _ops(tape)) == train, name


def _sampled_trainer(tmp_path, recon_dropout=True):
    """A sampled fine-tune trainer from freshly drawn weights, with dropout
    and Gumbel noise on."""
    data, vocab = toy_task(size=40, dev_size=8, test_size=8)
    cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, batch_size=16, seed=1,
                    recon_mode="sampled", dropout=0.2, beta=0.5,
                    recon_dropout=recon_dropout, eval_bleu=False)
    init = str(tmp_path / "init.npz")
    ckpt_io.save(init, ModelParams(cfg.model_config(len(vocab)),
                                   np.random.default_rng(5)), vocab)
    trainer = Trainer(cfg, vocab, data["train"], data["dev"], "finetune",
                      str(tmp_path / "run"), init_checkpoint=init)
    return trainer, next(trainer._batch_stream())


class TestSampledUpdate:
    """A sampled update's sampler decodes from the translation pass's memory
    when the reconstruction runs at that pass's dropout setting."""

    @pytest.mark.parametrize("recon_dropout, encodes, memories",
                             [(True, 2, 2), (False, 3, 3)])
    def test_encodings_per_update(self, tmp_path, monkeypatch, recon_dropout,
                                  encodes, memories):
        trainer, batch = _sampled_trainer(tmp_path, recon_dropout)
        calls = []

        def count(name, original):
            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        # every toolkit module that holds the functions calls them counted;
        # `encode` builds its memory's keys with `model.prepare_memory`
        for name in ("encode", "prepare_memory"):
            original = getattr(model, name)
            for module in (model, training, sampling):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, count(name, original))
        with Tape():
            trainer.compute_losses(batch, 0, train=True)
        # the source once (twice without sharing), then the return pass
        assert calls.count("encode") == encodes
        assert calls.count("prepare_memory") == memories

    def test_eval_l_r_is_reconstruction_loss_without_a_memory(self, tmp_path):
        trainer, batch = _sampled_trainer(tmp_path)
        cfg, update = trainer.cfg, 3
        _, breakdown, sums = trainer.compute_losses(batch, update, train=False)
        l_r, r_sum, r_tokens, _ = reconstruction_loss(
            trainer.params, batch,
            GumbelNoiseSource(cfg.beta, (cfg.seed, training._STREAM_GUMBEL, update)),
            STGSConfig(cfg.tau, cfg.max_len_factor, cfg.max_len_offset),
            trainer.vocab.bos, trainer.vocab.eos, phase="finetune")
        assert np.float64(breakdown.l_r).tobytes() == np.float64(l_r.data).tobytes()
        assert sums[2:] == (r_sum, r_tokens)


def _ops(tape):
    """The op of each node, named by the function that recorded it."""
    return [fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes]


def _forwards(V):
    """The E matrices, and (tape, teacher-forced steps, sampled steps,
    memories, decoder passes) of a pretrain, a sampled and a hidden forward
    at vocabulary size V, each as `Trainer.compute_losses` builds it."""
    params = tiny_params(vocab_size=V, d=4, seed=2)
    aux = HiddenReconstructorParams(params.config, np.random.default_rng(3))
    batch = toy_batch()
    T = batch.tgt_ids.shape[1]
    with Tape() as pretrain:
        translation_loss(params, batch, bos_id=1)
    with Tape() as sampled:
        *_, memory, _ = translation_loss(params, batch, bos_id=1)
        *_, sample = reconstruction_loss(params, batch, GumbelNoiseSource(0.5, 3),
                                         STGSConfig(), bos_id=1, eos_id=2,
                                         phase="finetune", memory=memory)
    with Tape() as hidden:
        hidden_reconstruction_loss(params, batch, aux, bos_id=1)
    # the sampler decodes from the translation pass's memory: the return
    # pass scores the source, as long as the target here
    return ((params.E, aux.dec_enc.E, aux.dec_dec.E),
            [(pretrain, T, 0, 1, 1), (sampled, 2 * T, sample.ids.shape[1], 2, 3),
             (hidden, 3 * T, 0, 3, 3)])


class TestReadoutOnTheTape:
    """Each consumer forms the tied readout in a node of its own, so no
    (B, V) array is kept for backward."""

    V = 61  # wider than every other axis of these forwards

    def test_no_node_keeps_a_vocabulary_wide_array(self, fp64):
        for tape, *_ in _forwards(self.V)[1]:
            for outs, inputs, _ in tape.nodes:
                for t in outs + inputs:
                    assert t.shape[-1:] != (self.V,)

    def test_one_readout_node_per_step(self, fp64):
        Es, forwards = _forwards(self.V)
        for tape, teacher_forced, sampled, *_ in forwards:
            ops = _ops(tape)
            assert ops.count("readout_nll") == teacher_forced
            assert ops.count("stgs_embed") == sampled
            reading_E = {op for op, (_, inputs, _) in zip(ops, tape.nodes)
                         if any(t is E for t in inputs for E in Es)}
            assert reading_E <= {"embedding", "readout_nll", "stgs_embed"}


class TestOneNodePerLayer:
    """Each LSTM step and each dense layer of a forward is one node."""

    def test_one_cell_node_per_call_and_one_affine_node_per_dense_layer(
            self, fp64, monkeypatch):
        cell_tapes = []
        cell = ad.lstm_cell

        def counting_cell(*args, **kwargs):
            cell_tapes.append(Tape._stack[-1])
            return cell(*args, **kwargs)

        monkeypatch.setattr(ad, "lstm_cell", counting_cell)
        for tape, teacher_forced, sampled, memories, passes in _forwards(9)[1]:
            ops = _ops(tape)
            assert ops.count("lstm_cell") == sum(t is tape for t in cell_tapes) > 0
            # the attention keys once a memory, both initial states once a
            # decoder pass, the output layer once a step
            assert ops.count("affine") == (memories + 2 * passes + teacher_forced
                                           + sampled)
            produced = {id(out) for outs, _, _ in tape.nodes for out in outs}
            for op, (_, inputs, _) in zip(ops, tape.nodes):
                if op == "add":
                    assert not any(t.requires_grad and id(t) not in produced
                                   for t in inputs)


class TestParameterCounts:
    def _training_setup(self, recon_mode, tmp_path):
        data, vocab = toy_task(size=40, dev_size=8, test_size=8)
        cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, batch_size=16,
                        checkpoint_interval=5, max_updates=5, seed=1,
                        recon_mode=recon_mode, dropout=0.0, eval_bleu=False)
        phase = "pretrain" if recon_mode == "none" else "finetune"
        init = None
        if phase == "finetune":
            pre_cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, batch_size=16,
                                checkpoint_interval=5, max_updates=5, seed=1,
                                dropout=0.0, eval_bleu=False)
            pre = Trainer(pre_cfg, vocab, data["train"], data["dev"], "pretrain",
                          str(tmp_path / "pre"))
            init = pre.run().final_checkpoint
        trainer = Trainer(cfg, vocab, data["train"], data["dev"], phase,
                          str(tmp_path / recon_mode), init_checkpoint=init)
        return trainer

    def test_sampled_finetune_adds_no_parameters(self, tmp_path):
        base = self._training_setup("none", tmp_path)
        sampled = self._training_setup("sampled", tmp_path)
        assert sampled.num_trainable_params() == base.num_trainable_params()

    def test_hidden_finetune_strictly_increases_parameters(self, tmp_path):
        base = self._training_setup("none", tmp_path)
        hidden = self._training_setup("hidden", tmp_path)
        assert hidden.num_trainable_params() > base.num_trainable_params()

    def test_hidden_reconstructors_step_at_pretrain_lr(self, tmp_path):
        # fresh reconstructors start at lr; the fine-tuned model at lr_finetune
        hidden = self._training_setup("hidden", tmp_path)
        aux_names = {name for name, _ in hidden.aux.named_parameters()}
        assert hidden.scheduler.lr == hidden.cfg.lr_finetune
        assert hidden.aux_scheduler.lr == hidden.cfg.lr
        assert hidden.optimizer.group == aux_names

    def test_reconstructor_lr_decays_when_training_recon_loss_rises(self, tmp_path):
        hidden = self._training_setup("hidden", tmp_path)
        sched = hidden.aux_scheduler
        sched.observe(1.0)
        sched.observe(0.5)
        assert sched.lr == hidden.cfg.lr
        sched.observe(0.6)
        assert sched.lr == pytest.approx(hidden.cfg.lr * hidden.cfg.lr_decay)
        sched.observe(0.55)
        assert sched.lr == pytest.approx(hidden.cfg.lr * hidden.cfg.lr_decay ** 2)

    def test_hidden_resume_reproduces_losses_exactly(self, tmp_path):
        # the reconstructors' schedule is part of the resumable state
        def run(out, ckpt=None):
            trainer = self._training_setup("hidden", tmp_path / out)
            trainer.cfg = RunConfig(**{**trainer.cfg.__dict__, "max_updates": 8,
                                       "checkpoint_interval": 2})
            if ckpt is not None:
                trainer.restore(ckpt)
            restored = trainer.aux_scheduler.state()
            losses, aux_states = [], {}
            orig = trainer.compute_losses

            def spy(batch, update, train=True):
                out = orig(batch, update, train=train)
                losses.append((update, float(out[0].data)))
                return out

            trainer.compute_losses = spy
            result = trainer.run(on_checkpoint=lambda tr, row: aux_states.update(
                {row["update"]: tr.aux_scheduler.state()}))
            return result, losses, aux_states, restored

        result_a, losses_a, states_a, _ = run("a")
        _, losses_b, _, restored_b = run("b", ckpt=result_a.checkpoints[1])
        assert restored_b == states_a[4]
        assert losses_b == [(u, l) for u, l in losses_a if u >= 4]

    def test_pretrain_checkpoint_does_not_restore_into_hidden(self, tmp_path):
        hidden = self._training_setup("hidden", tmp_path)
        pre_ckpt = str(tmp_path / "pre" / "checkpoint-0000005.npz")
        with pytest.raises(ValueError, match="pretrain.*recon_mode=none.*"
                                             "finetune.*recon_mode=hidden"):
            hidden.restore(pre_ckpt)

    def test_hidden_checkpoint_does_not_restore_into_pretrain(self, tmp_path):
        hidden_ckpt = self._training_setup("hidden", tmp_path).run().final_checkpoint
        pre = self._training_setup("none", tmp_path / "again")
        with pytest.raises(ValueError, match="finetune.*recon_mode=hidden.*"
                                             "pretrain.*recon_mode=none"):
            pre.restore(hidden_ckpt)

    def test_model_only_checkpoint_does_not_restore(self, tmp_path):
        pre = self._training_setup("none", tmp_path)
        path = str(tmp_path / "model-only.npz")
        ckpt_io.save(path, pre.params, pre.vocab)
        with pytest.raises(ValueError, match="model-only.npz holds no trainer state"):
            pre.restore(path)


class TestTrainerLoop:
    def _make(self, tmp_path, **cfg_kwargs):
        data, vocab = toy_task(size=60, dev_size=10, test_size=10)
        defaults = dict(d_emb=8, d_hidden=8, d_attention=8, batch_size=12,
                        checkpoint_interval=10, max_updates=30, seed=2,
                        dropout=0.0, eval_bleu=False)
        defaults.update(cfg_kwargs)
        cfg = RunConfig(**defaults)
        return Trainer(cfg, vocab, data["train"], data["dev"], "pretrain",
                       str(tmp_path / "run")), data, vocab

    def test_checkpoints_and_metrics_schema(self, tmp_path):
        trainer, _, _ = self._make(tmp_path)
        result = trainer.run()
        assert len(result.checkpoints) == 3
        assert [m["update"] for m in result.metrics] == [10, 20, 30]
        import csv

        with open(trainer.metrics_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert set(rows[0]) == {"phase", "update", "checkpoint", "lr",
                                "train_ppl", "dev_ppl", "l_t", "l_r", "seed"}

    def test_finetune_requires_checkpoint(self, tmp_path):
        data, vocab = toy_task(size=20, dev_size=4, test_size=4)
        cfg = RunConfig(recon_mode="sampled")
        with pytest.raises(ValueError, match="requires an initial checkpoint"):
            Trainer(cfg, vocab, data["train"], data["dev"], "finetune",
                    str(tmp_path / "x"))

    def test_recon_mode_rejected_in_pretrain(self, tmp_path):
        data, vocab = toy_task(size=20, dev_size=4, test_size=4)
        cfg = RunConfig(recon_mode="sampled")
        with pytest.raises(PhaseError):
            Trainer(cfg, vocab, data["train"], data["dev"], "pretrain",
                    str(tmp_path / "x"))

    def test_init_checkpoint_with_another_vocab_rejected(self, tmp_path):
        # two tokens swapped: the same size, so the structural hash agrees,
        # but every id of the two means the other token
        data, vocab = toy_task(size=20, dev_size=4, test_size=4)
        cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, recon_mode="sampled")
        tokens = vocab.id_to_token[4:]
        tokens[-2], tokens[-1] = tokens[-1], tokens[-2]
        swapped = Vocab(tokens, vocab.tags, vocab.merges)
        path = str(tmp_path / "swapped.npz")
        params = ModelParams(cfg.model_config(len(vocab)), np.random.default_rng(0))
        ckpt_io.save(path, params, swapped)
        with pytest.raises(ValueError, match="swapped.npz.*vocab"):
            Trainer(cfg, vocab, data["train"], data["dev"], "finetune",
                    str(tmp_path / "ft"), init_checkpoint=path)
        Trainer(cfg, swapped, data["train"], data["dev"], "finetune",
                str(tmp_path / "ft"), init_checkpoint=path)

    def test_finetune_trains_at_its_own_dropout(self, tmp_path):
        trainer, data, vocab = self._make(tmp_path, max_updates=10, dropout=0.2)
        pre_ckpt = trainer.run().final_checkpoint
        cfg = RunConfig(**{**trainer.cfg.__dict__, "dropout": 0.0})
        ft = Trainer(cfg, vocab, data["train"], data["dev"], "finetune",
                     str(tmp_path / "ft"), init_checkpoint=pre_ckpt)
        assert ft.params.config.dropout == ft.params.dec.dropout == 0.0
        batch = next(ft._batch_stream())
        train_mode, _, _ = ft.compute_losses(batch, 0, train=True)
        eval_mode, _, _ = ft.compute_losses(batch, 0, train=False)
        assert float(train_mode.data) == float(eval_mode.data)

    def test_fp32_trainer_refuses_an_fp64_checkpoint(self, tmp_path):
        trainer, data, vocab = self._make(tmp_path, max_updates=10)
        assert ad.default_dtype() == np.float64
        ckpt = trainer.run().final_checkpoint
        assert ckpt_io.load(ckpt)[2]["precision"] == "fp64"
        with ad.using_dtype("fp32"):
            with pytest.raises(ValueError, match="precision='fp64'; "
                                                 "this run's precision is 'fp32'"):
                Trainer(trainer.cfg, vocab, data["train"], data["dev"], "pretrain",
                        str(tmp_path / "fp32"), init_checkpoint=ckpt)

    def test_resume_keeps_the_logs_of_one_uncut_run(self, tmp_path):
        # run to update 4, restore the checkpoint at 2 into the same out_dir
        # and run to 4 again: the logs read as if the run had never been cut
        kwargs = dict(checkpoint_interval=2, max_updates=4, eval_bleu=True)
        first, _, _ = self._make(tmp_path, **kwargs)
        ckpt_2 = first.run().checkpoints[0]
        logs = [os.path.join(first.out_dir, name) for name in ("metrics.csv", "bleu.csv")]
        uncut = {path: open(path, "rb").read() for path in logs}
        resumed, _, _ = self._make(tmp_path, **kwargs)
        resumed.restore(ckpt_2)
        with open(logs[0], newline="") as fh:
            assert [row["update"] for row in csv.DictReader(fh)] == ["2"]
        with open(logs[1], newline="") as fh:
            assert [row["update"] for row in csv.DictReader(fh)] == ["2", "2"]
        resumed.run()
        assert {path: open(path, "rb").read() for path in uncut} == uncut
        assert not [f for f in os.listdir(resumed.out_dir) if f.endswith(".tmp")]

    def _files(self, out_dir):
        return {name: open(os.path.join(out_dir, name), "rb").read()
                for name in sorted(os.listdir(out_dir))}

    def test_run_at_its_cap_is_refused(self, tmp_path):
        kwargs = dict(batch_size=16, checkpoint_interval=4, max_updates=4)
        first, _, _ = self._make(tmp_path, **kwargs)
        ckpt_4 = first.run().final_checkpoint
        restored, _, _ = self._make(tmp_path, **kwargs)
        restored.restore(ckpt_4)
        before = self._files(restored.out_dir)
        assert "metrics.csv" in before
        with pytest.raises(ValueError, match="at update 4, at or past its cap of 4"):
            restored.run()
        assert restored.update == 4
        assert self._files(restored.out_dir) == before

    def test_run_of_a_stopped_schedule_is_refused(self, tmp_path):
        # at lr 0 the second checkpoint cannot improve, and one stale one stops
        kwargs = dict(batch_size=16, checkpoint_interval=4, max_updates=0, lr=0.0,
                      patience_stop=1)
        first, _, _ = self._make(tmp_path, **kwargs)
        result = first.run()
        assert result.stopped_early and first.update == 8
        restored, _, _ = self._make(tmp_path, **kwargs)
        restored.restore(result.final_checkpoint)
        before = self._files(restored.out_dir)
        with pytest.raises(ValueError, match="schedule stopped at update 8"):
            restored.run()
        assert restored.update == 8
        assert self._files(restored.out_dir) == before

    def test_finetune_starts_at_finetune_lr(self, tmp_path):
        trainer, data, vocab = self._make(tmp_path, max_updates=10)
        result = trainer.run()
        cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, batch_size=12,
                        checkpoint_interval=10, max_updates=10, seed=2,
                        dropout=0.0, recon_mode="sampled", eval_bleu=False)
        ft = Trainer(cfg, vocab, data["train"], data["dev"], "finetune",
                     str(tmp_path / "ft"), init_checkpoint=result.final_checkpoint)
        assert ft.scheduler.lr == 0.0001

    def test_resume_reproduces_losses_exactly(self, tmp_path):
        # run A: 20 updates straight; run B: restore at 10, run 10 more
        trainer_a, data, vocab = self._make(tmp_path, checkpoint_interval=5,
                                            max_updates=20)
        losses_a = []
        ckpt_at_10 = {}

        orig = trainer_a.compute_losses

        def spy(batch, update, train=True):
            out = orig(batch, update, train=train)
            losses_a.append((update, float(out[0].data)))
            return out

        trainer_a.compute_losses = spy
        result_a = trainer_a.run()
        ckpt_10 = result_a.checkpoints[1]
        assert "0000010" in ckpt_10

        trainer_b, _, _ = self._make(tmp_path, checkpoint_interval=5,
                                     max_updates=20)
        trainer_b.out_dir = str(tmp_path / "resumed")
        os.makedirs(trainer_b.out_dir, exist_ok=True)
        trainer_b.metrics_path = os.path.join(trainer_b.out_dir, "metrics.csv")
        trainer_b.restore(ckpt_10)
        losses_b = []
        orig_b = trainer_b.compute_losses

        def spy_b(batch, update, train=True):
            out = orig_b(batch, update, train=train)
            losses_b.append((update, float(out[0].data)))
            return out

        trainer_b.compute_losses = spy_b
        result_b = trainer_b.run()
        tail_a = [l for u, l in losses_a if u >= 10]
        tail_b = [l for u, l in losses_b]
        assert tail_b == tail_a
        # the resumed run numbers its checkpoints on from the one it restored
        assert [m["checkpoint"] for m in result_b.metrics] == [3, 4]
        assert result_b.metrics == result_a.metrics[2:]

    def test_clipped_run_is_reproducible_and_differs(self, tmp_path):
        def metrics(name, clip):
            trainer, _, _ = self._make(tmp_path / name, grad_clip_norm=clip,
                                       checkpoint_interval=5, max_updates=10)
            return trainer.run().metrics

        clipped = metrics("a", 0.1)
        assert clipped == metrics("b", 0.1)
        assert clipped != metrics("c", 0.0)

    def test_chunked_runs_batch_each_epoch_once(self, tmp_path, monkeypatch):
        # 120 pairs in batches of 16 are 8 batches an epoch: 20 updates span
        # 3 epochs, and runs of 5 updates end inside them
        calls = []
        original = training.make_batches

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "make_batches", counting)
        kwargs = dict(batch_size=16, checkpoint_interval=5, max_updates=20)
        whole, _, _ = self._make(tmp_path / "whole", **kwargs)
        expected = whole.run().metrics
        assert len(calls) == 3
        chunked, _, _ = self._make(tmp_path / "chunked", **kwargs)
        metrics = []
        for cap in (5, 10, 15, 20):
            metrics += chunked.run(max_updates=cap).metrics
        assert len(calls) == 6
        assert metrics == expected

    def test_identical_seeds_reproduce_metrics(self, tmp_path):
        t1, _, _ = self._make(tmp_path / "a")
        t2, _, _ = self._make(tmp_path / "b")
        m1 = t1.run().metrics
        m2 = t2.run().metrics
        for r1, r2 in zip(m1, m2):
            assert r1["train_ppl"] == r2["train_ppl"]
            assert r1["dev_ppl"] == r2["dev_ppl"]


def test_phase_guard_in_compute_losses(tmp_path):
    data, vocab = toy_task(size=20, dev_size=4, test_size=4)
    cfg = RunConfig(d_emb=8, d_hidden=8, d_attention=8, batch_size=8,
                    checkpoint_interval=4, max_updates=4, dropout=0.0,
                    eval_bleu=False)
    pre = Trainer(cfg, vocab, data["train"], data["dev"], "pretrain",
                  str(tmp_path / "pre"))
    result = pre.run()
    import copy

    ft_cfg = copy.replace(cfg, recon_mode="sampled") if hasattr(copy, "replace") \
        else RunConfig(**{**cfg.__dict__, "recon_mode": "sampled"})
    ft = Trainer(ft_cfg, vocab, data["train"], data["dev"], "finetune",
                 str(tmp_path / "ft"), init_checkpoint=result.final_checkpoint)
    batch = next(ft._batch_stream())
    loss, breakdown, _ = ft.compute_losses(batch, 0, train=False)
    assert breakdown.combined == breakdown.l_t + breakdown.l_r
