"""Objectives, optimizer, schedule and the training loop."""

import os

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import training
from roundtrip.autodiff import Tensor
from roundtrip.config import RunConfig
from roundtrip.data import Batch, make_batch
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
        opt = Adam([("p1", p1), ("p2", p2)], beta1=b1, beta2=b2, epsilon=eps)

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
        # under reduction="mean" the term is w_enc * L_enc + w_dec * L_dec with
        # each L normalized by the source token count, counted once
        params = tiny_params(seed=3)
        aux = HiddenReconstructorParams(params.config, np.random.default_rng(4))
        batch = toy_batch()
        n_src = float(batch.src_mask.sum())
        enc_only, enc_sum, n_tokens, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=1.0, w_dec=0.0, reduction="mean")
        enc_nll, _, _ = sequence_nll(
            aux.dec_enc, prepare_memory(aux.dec_enc, encode(params, batch.src_ids,
                                                            batch.src_mask)),
            batch.src_ids, batch.src_mask, 1)
        assert n_tokens == n_src
        assert enc_sum == pytest.approx(float(enc_nll.data), rel=1e-12)
        assert float(enc_only.data) == pytest.approx(float(enc_nll.data) / n_src,
                                                     rel=1e-12)
        recon, recon_sum, n_tokens, *_ = hidden_reconstruction_loss(
            params, batch, aux, bos_id=1, w_enc=0.3, w_dec=0.7, reduction="mean")
        assert recon_sum / n_tokens == pytest.approx(float(recon.data), rel=1e-12)

    def test_hidden_aux_shape_mismatch_errors(self, fp64):
        params = tiny_params(seed=3, d=6)
        other_cfg = ModelConfig(vocab_size=9, d_emb=4, d_hidden=4, d_attention=4)
        aux = HiddenReconstructorParams(other_cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="width mismatch"):
            hidden_reconstruction_loss(params, toy_batch(), aux, bos_id=1)


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
        trainer_b.run()
        tail_a = [l for u, l in losses_a if u >= 10]
        tail_b = [l for u, l in losses_b]
        assert tail_b == tail_a

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

        def without_index(rows):
            # a row's checkpoint index counts within its own run() call
            return [{k: v for k, v in r.items() if k != "checkpoint"} for r in rows]

        assert without_index(metrics) == without_index(expected)

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
    batch = ft._epoch_batches(0)[0]
    loss, breakdown, _ = ft.compute_losses(batch, 0, train=False)
    assert breakdown.combined == breakdown.l_t + breakdown.l_r
