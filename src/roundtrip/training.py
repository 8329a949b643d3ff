"""Training objectives and the pretrain -> fine-tune loop.

The combined objective is translation NLL plus a reconstruction term; the
sampled-reconstruction variant back-translates the model's own straight-
through samples with the same parameters, so fine-tuning adds no weights.
The contrastive variant adds two auxiliary attentional decoders that read
encoder / decoder hidden states instead.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from .autodiff import Tape, Tensor
from .config import RunConfig
from .data import Batch, ParallelPair, Vocab, build_bidirectional_corpus, make_batches
from .model import (DecoderParams, EncoderOutput, ModelParams, _xavier, encode,
                    prepare_memory, sequence_nll)
from .sampling import GumbelNoiseSource, STGSConfig, sample_translation

# fixed stream tags so every RNG is a pure function of (seed, update)
_STREAM_INIT, _STREAM_EPOCH, _STREAM_DROPOUT, _STREAM_GUMBEL = 11, 13, 17, 19

METRICS_COLUMNS = ("phase", "update", "checkpoint", "lr", "train_ppl",
                   "dev_ppl", "l_t", "l_r", "seed")


@dataclass
class LossBreakdown:
    l_t: float
    l_r: float
    combined: float


class PhaseError(RuntimeError):
    pass


def translation_loss(params: ModelParams, batch: Batch, bos_id: int,
                     reduction: str = "mean", train: bool = False,
                     rng: np.random.Generator | None = None,
                     collect_states: bool = False):
    """Teacher-forced NLL over the batch; returns (loss, sum_nats, n_tokens,
    enc, states); `loss` carries the configured reduction."""
    if batch.size == 0:
        raise ValueError("empty batch")
    enc = encode(params, batch.src_ids, batch.src_mask, train=train, rng=rng)
    memory = prepare_memory(params.dec, enc)
    loss_sum, n_tokens, states = sequence_nll(
        params.dec, memory, batch.tgt_ids, batch.tgt_mask, bos_id,
        train=train, rng=rng, collect_states=collect_states)
    loss = ad.scalar_mul(loss_sum, 1.0 / n_tokens) if reduction == "mean" else loss_sum
    return loss, float(loss_sum.data), n_tokens, enc, states


def reconstruction_loss(params: ModelParams, batch: Batch, noise: GumbelNoiseSource,
                        stgs: STGSConfig, bos_id: int, eos_id: int, phase: str,
                        reduction: str = "mean", train: bool = False,
                        rng: np.random.Generator | None = None,
                        soft_forward: bool = False, stop_on_eos: bool = True):
    """Round-trip term: sample a translation of each source, then score the
    original source as the target of a teacher-forced pass over the sample."""
    if phase != "finetune":
        raise PhaseError("reconstruction requires a pre-trained model "
                         "(fine-tune phase); got phase=" + phase)
    sampled = sample_translation(params, batch.src_ids, batch.src_mask, noise,
                                 stgs, bos_id, eos_id, train=train, rng=rng,
                                 soft_forward=soft_forward, stop_on_eos=stop_on_eos)
    enc = encode(params, None, sampled.mask, src_dists=sampled.steps,
                 train=train, rng=rng)
    memory = prepare_memory(params.dec, enc)
    loss_sum, n_tokens, _ = sequence_nll(
        params.dec, memory, batch.src_ids, batch.src_mask, bos_id,
        train=train, rng=rng)
    loss = ad.scalar_mul(loss_sum, 1.0 / n_tokens) if reduction == "mean" else loss_sum
    return loss, float(loss_sum.data), n_tokens, sampled


class HiddenReconstructorParams:
    """Two auxiliary decoders reconstructing the source from hidden states.

    Storage is disjoint from the translation model: each reconstructor has
    its own embedding matrix (internally tied to its own output projection).
    """

    def __init__(self, config, rng: np.random.Generator):
        E_enc = Tensor(_xavier(rng, config.vocab_size, config.d_emb), requires_grad=True)
        self.dec_enc = DecoderParams(rng, config, E_enc, 2 * config.d_hidden)
        E_dec = Tensor(_xavier(rng, config.vocab_size, config.d_emb), requires_grad=True)
        self.dec_dec = DecoderParams(rng, config, E_dec, config.d_hidden)

    def named_parameters(self):
        out = [("aux_enc.E", self.dec_enc.E)]
        out.extend(self.dec_enc.named("aux_enc.dec"))
        out.append(("aux_dec.E", self.dec_dec.E))
        out.extend(self.dec_dec.named("aux_dec.dec"))
        return out


def _masked_mean_states(states: list[Tensor], mask: np.ndarray) -> Tensor:
    total = None
    for t, s in enumerate(states):
        term = ad.mul(s, ad.constant(mask[:, t: t + 1]))
        total = term if total is None else ad.add(total, term)
    inv_n = 1.0 / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    return ad.mul(total, ad.constant(inv_n))


def hidden_reconstruction_loss(params: ModelParams, batch: Batch,
                               aux: HiddenReconstructorParams, bos_id: int,
                               w_enc: float = 0.5, w_dec: float = 0.5,
                               reduction: str = "mean", train: bool = False,
                               rng: np.random.Generator | None = None):
    """Weighted hidden-state reconstruction: w_enc * L_enc + w_dec * L_dec,
    where each L is a reconstructor's NLL per source token under `reduction`.

    Both reconstructors are attentional decoders over a hidden-state memory
    (encoder annotations / decoder states of the translation pass) and are
    scored against the original source. Returns the weighted term plus the
    translation pass's components so the caller builds the full objective.
    """
    if aux.dec_enc.d_ann != 2 * params.config.d_hidden:
        raise ValueError("encoder-side reconstructor width mismatch")
    t_loss, t_sum, t_tokens, enc, dec_states = translation_loss(
        params, batch, bos_id, reduction=reduction, train=train, rng=rng,
        collect_states=True)

    mem_enc = prepare_memory(aux.dec_enc, enc)
    enc_sum_t, enc_tokens, _ = sequence_nll(
        aux.dec_enc, mem_enc, batch.src_ids, batch.src_mask, bos_id, train=train,
        rng=rng)

    dec_ann = ad.stack(dec_states, axis=1)
    dec_summary = _masked_mean_states(dec_states, batch.tgt_mask)
    enc_like = EncoderOutput(dec_ann, batch.tgt_mask, dec_summary)
    mem_dec = prepare_memory(aux.dec_dec, enc_like)
    dec_sum_t, _, _ = sequence_nll(
        aux.dec_dec, mem_dec, batch.src_ids, batch.src_mask, bos_id, train=train,
        rng=rng)

    # both reconstructors score the same source tokens, so the weighted sum
    # is normalized by that count once
    weighted = ad.add(ad.scalar_mul(enc_sum_t, w_enc), ad.scalar_mul(dec_sum_t, w_dec))
    n_tokens = enc_tokens
    recon = ad.scalar_mul(weighted, 1.0 / n_tokens) if reduction == "mean" else weighted
    recon_sum = w_enc * float(enc_sum_t.data) + w_dec * float(dec_sum_t.data)
    return recon, recon_sum, n_tokens, t_loss, t_sum, t_tokens


class Adam:
    """Adam with per-parameter moment accumulators, keyed by parameter name.

    Parameters named in `group` step at the `group_lr` given to `step`
    instead of `lr`.
    """

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8, group=()):
        self.named_params = list(named_params)
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.group = frozenset(group)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float, group_lr: float | None = None) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            step_lr = group_lr if name in self.group else lr
            p.data -= step_lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"adam_step": np.array([self.step_count], dtype=np.int64)}
        for name in self.m:
            out[f"adam_m/{name}"] = self.m[name]
            out[f"adam_v/{name}"] = self.v[name]
        return out

    def load_state_arrays(self, data) -> None:
        self.step_count = int(data["adam_step"][0])
        for name in self.m:
            self.m[name] = np.array(data[f"adam_m/{name}"])
            self.v[name] = np.array(data[f"adam_v/{name}"])


class LrScheduler:
    """Plateau schedule: decay on 4 stale checkpoints, stop on 10.

    A checkpoint is stale when dev perplexity fails to improve on the best
    seen; both counters reset on improvement.
    """

    def __init__(self, initial_lr: float, decay: float = 0.7,
                 patience_decay: int = 4, patience_stop: int = 10):
        self.lr = initial_lr
        self.decay = decay
        self.patience_decay = patience_decay
        self.patience_stop = patience_stop
        self.best = float("inf")
        self.stale = 0
        self.should_stop = False

    def observe(self, dev_ppl: float) -> bool:
        """Feed one checkpoint's dev perplexity; returns True on improvement."""
        if dev_ppl < self.best:
            self.best = dev_ppl
            self.stale = 0
            return True
        self.stale += 1
        if self.stale % self.patience_decay == 0:
            self.lr *= self.decay
        if self.stale >= self.patience_stop:
            self.should_stop = True
        return False

    def state(self) -> dict:
        return {"lr": self.lr, "best": self.best, "stale": self.stale,
                "should_stop": self.should_stop}

    def load_state(self, d: dict) -> None:
        self.lr = d["lr"]
        self.best = d["best"]
        self.stale = d["stale"]
        self.should_stop = d["should_stop"]


@dataclass
class TrainResult:
    checkpoints: list[str]
    metrics: list[dict]
    best_checkpoint: str
    final_checkpoint: str
    stopped_early: bool


class Trainer:
    """Owns parameters, optimizer and schedule for one phase of one seed."""

    def __init__(self, cfg: RunConfig, vocab: Vocab, train_pairs: list[ParallelPair],
                 dev_pairs: list[ParallelPair], phase: str, out_dir: str,
                 init_checkpoint: str | None = None):
        if phase not in ("pretrain", "finetune"):
            raise ValueError(f"unknown phase {phase!r}")
        if phase == "finetune" and init_checkpoint is None:
            raise ValueError("fine-tuning requires an initial checkpoint")
        if phase == "pretrain" and cfg.recon_mode != "none":
            raise PhaseError("reconstruction objectives require the fine-tune phase")
        self.cfg = cfg
        self.vocab = vocab
        self.phase = phase
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.dev_pairs = list(dev_pairs)
        self.train_corpus = build_bidirectional_corpus(train_pairs)
        self.dev_corpus = build_bidirectional_corpus(dev_pairs)

        mc = cfg.model_config(len(vocab))
        if init_checkpoint is not None:
            expect = ckpt_io.structural_hash(mc, cfg.precision)
            self.params, _, _ = ckpt_io.load(init_checkpoint, expect_hash=expect)
        else:
            rng = np.random.default_rng([cfg.seed, _STREAM_INIT])
            self.params = ModelParams(mc, rng)

        self.aux: HiddenReconstructorParams | None = None
        if cfg.recon_mode == "hidden":
            aux_rng = np.random.default_rng([cfg.seed, _STREAM_INIT, 1])
            self.aux = HiddenReconstructorParams(mc, aux_rng)

        self.optimizer = self._make_optimizer()
        initial_lr = cfg.lr if phase == "pretrain" else cfg.lr_finetune
        self.scheduler = LrScheduler(initial_lr, cfg.lr_decay, cfg.patience_decay,
                                     cfg.patience_stop)
        # The reconstructors start from fresh weights, so they begin at the
        # from-scratch rate `lr`, not `lr_finetune`, which is meant for
        # continuing converged weights. Their schedule is keyed to their own
        # objective, the interval training l_r, and decays at every
        # checkpoint that fails to improve it: a training loss averaged over
        # a whole interval that rises means the step has become too large.
        self.aux_scheduler: LrScheduler | None = None
        if self.aux is not None:
            self.aux_scheduler = LrScheduler(cfg.lr, cfg.lr_decay, patience_decay=1,
                                             patience_stop=cfg.patience_stop)
        self.update = 0
        self.metrics_path = os.path.join(out_dir, "metrics.csv")
        # (epoch, its batches), so that a run resumed or cut into chunks
        # within an epoch does not batch the corpus again
        self._epoch_cache: tuple[int, list[Batch]] | None = None

    def _make_optimizer(self) -> Adam:
        """Adam over the model and, in hidden mode, the reconstructors, which
        form the group stepped at the reconstructors' own rate."""
        named = list(self.params.named_parameters())
        aux_named = self.aux.named_parameters() if self.aux is not None else []
        return Adam(named + aux_named, group=[name for name, _ in aux_named])

    # -- loss ---------------------------------------------------------------

    def compute_losses(self, batch: Batch, update: int, train: bool = True):
        """Build the phase objective for one batch; returns
        (objective, LossBreakdown, component sums/token counts)."""
        cfg = self.cfg
        drop_rng = np.random.default_rng([cfg.seed, _STREAM_DROPOUT, update])
        bos = self.vocab.bos

        if self.phase == "pretrain" or cfg.recon_mode == "none":
            l_t, t_sum, t_tokens, _, _ = translation_loss(
                self.params, batch, bos, reduction=cfg.reduction,
                train=train, rng=drop_rng)
            breakdown = LossBreakdown(float(l_t.data), 0.0, float(l_t.data) + 0.0)
            return l_t, breakdown, (t_sum, t_tokens, 0.0, 0.0)

        if cfg.recon_mode == "sampled":
            l_t, t_sum, t_tokens, _, _ = translation_loss(
                self.params, batch, bos, reduction=cfg.reduction,
                train=train, rng=drop_rng)
            noise = GumbelNoiseSource(cfg.beta, (cfg.seed, _STREAM_GUMBEL, update))
            stgs = STGSConfig(cfg.tau, cfg.max_len_factor, cfg.max_len_offset)
            recon_train = train and cfg.recon_dropout
            l_r, r_sum, r_tokens, _ = reconstruction_loss(
                self.params, batch, noise, stgs, bos, self.vocab.eos,
                phase=self.phase, reduction=cfg.reduction,
                train=recon_train, rng=drop_rng)
        else:  # hidden
            l_r, r_sum, r_tokens, l_t, t_sum, t_tokens = hidden_reconstruction_loss(
                self.params, batch, self.aux, bos, w_enc=cfg.hidden_weight_enc,
                w_dec=cfg.hidden_weight_dec, reduction=cfg.reduction,
                train=train, rng=drop_rng)

        combined = ad.add(l_t, l_r)
        # the breakdown decomposes exactly by construction; the objective
        # tensor computes the same sum in the run precision
        breakdown = LossBreakdown(float(l_t.data), float(l_r.data),
                                  float(l_t.data) + float(l_r.data))
        return combined, breakdown, (t_sum, t_tokens, r_sum, r_tokens)

    # -- evaluation ---------------------------------------------------------

    def dev_perplexity(self) -> float:
        from .evaluation import perplexity

        return perplexity(self.params, self.dev_corpus, self.vocab,
                          batch_size=self.cfg.batch_size)

    def _log_dev_bleu(self) -> None:
        """Greedy dev BLEU per direction, appended to bleu.csv; the report
        command pairs the final row per (direction, seed) across run dirs."""
        from .evaluation import DecodeConfig, evaluate_bleu

        rows = []
        for name, pairs in ((f"{self.cfg.src_lang}-{self.cfg.tgt_lang}",
                             self.dev_pairs),
                            (f"{self.cfg.tgt_lang}-{self.cfg.src_lang}",
                             [p.swapped() for p in self.dev_pairs])):
            rows.append((name, evaluate_bleu(self.params, self.vocab, pairs,
                                             DecodeConfig())))
        path = os.path.join(self.out_dir, "bleu.csv")
        new = not os.path.exists(path)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(["direction", "seed", "update", "bleu"])
            for name, bleu in rows:
                writer.writerow([name, self.cfg.seed, self.update, f"{bleu:.4f}"])

    # -- persistence ----------------------------------------------------------

    def _save_checkpoint(self, tag: str) -> str:
        path = os.path.join(self.out_dir, f"checkpoint-{tag}.npz")
        meta = {"phase": self.phase, "update": self.update, "seed": self.cfg.seed,
                "recon_mode": self.cfg.recon_mode}
        ckpt_io.save(path, self.params, self.vocab, self.cfg.precision, meta=meta)
        state = {"scheduler": self.scheduler.state(), "update": self.update,
                 "phase": self.phase}
        if self.aux_scheduler is not None:
            state["aux_scheduler"] = self.aux_scheduler.state()
        arrays = self.optimizer.state_arrays()
        if self.aux is not None:
            for name, t in self.aux.named_parameters():
                arrays[f"auxparam/{name}"] = t.data
        np.savez(path.replace(".npz", ".trainer.npz"),
                 __state__=np.array(json.dumps(state)), **arrays)
        return path

    def restore(self, ckpt_path: str) -> None:
        """Resume mid-phase: restores params, optimizer moments and schedule."""
        expect = ckpt_io.structural_hash(self.params.config, self.cfg.precision)
        self.params, _, _ = ckpt_io.load(ckpt_path, expect_hash=expect)
        with np.load(ckpt_path.replace(".npz", ".trainer.npz"),
                     allow_pickle=False) as data:
            state = json.loads(str(data["__state__"]))
            if self.aux is not None:
                for name, t in self.aux.named_parameters():
                    t.data = np.array(data[f"auxparam/{name}"],
                                      dtype=ad.default_dtype())
            self.optimizer = self._make_optimizer()
            self.optimizer.load_state_arrays(data)
        self.scheduler.load_state(state["scheduler"])
        if self.aux_scheduler is not None:
            self.aux_scheduler.load_state(state["aux_scheduler"])
        self.update = state["update"]

    def _append_metrics(self, row: dict) -> None:
        new = not os.path.exists(self.metrics_path)
        with open(self.metrics_path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
            if new:
                writer.writeheader()
            writer.writerow(row)

    # -- main loop ------------------------------------------------------------

    def _epoch_batches(self, epoch: int) -> list[Batch]:
        if self._epoch_cache is None or self._epoch_cache[0] != epoch:
            seed = hash((self.cfg.seed, _STREAM_EPOCH, epoch)) & 0x7FFFFFFF
            self._epoch_cache = (epoch, make_batches(self.train_corpus, self.vocab,
                                                     self.cfg.batch_size, seed=seed))
        return self._epoch_cache[1]

    def num_trainable_params(self) -> int:
        return sum(p.size for _, p in self.optimizer.named_params)

    def run(self, max_updates: int | None = None,
            on_checkpoint=None) -> TrainResult:
        cfg = self.cfg
        cap = max_updates if max_updates is not None else cfg.max_updates
        checkpoints: list[str] = []
        metrics: list[dict] = []
        best_path = ""
        stopped = False

        interval = {"t_sum": 0.0, "t_tok": 0.0, "r_sum": 0.0, "r_tok": 0.0}
        batches_per_epoch = max(1, (len(self.train_corpus) + cfg.batch_size - 1)
                                // cfg.batch_size)
        while True:
            epoch = self.update // batches_per_epoch
            batches = self._epoch_batches(epoch)
            start = self.update % batches_per_epoch
            for batch in batches[start:]:
                lr_in_effect = self.scheduler.lr
                aux_lr = self.aux_scheduler.lr if self.aux_scheduler else None
                with Tape() as tape:
                    objective, breakdown, sums = self.compute_losses(
                        batch, self.update, train=True)
                    ad.backward(tape, objective)
                if cfg.grad_clip_norm > 0:
                    ad.clip_gradients([p for _, p in self.optimizer.named_params],
                                      cfg.grad_clip_norm)
                self.optimizer.step(lr_in_effect, aux_lr)
                self.optimizer.zero_grad()
                self.update += 1
                t_sum, t_tok, r_sum, r_tok = sums
                interval["t_sum"] += t_sum
                interval["t_tok"] += t_tok
                interval["r_sum"] += r_sum
                interval["r_tok"] += r_tok

                at_cap = cap and self.update >= cap
                if self.update % cfg.checkpoint_interval == 0 or at_cap:
                    n_ckpt = len(checkpoints) + 1
                    dev_ppl = self.dev_perplexity()
                    improved = self.scheduler.observe(dev_ppl)
                    l_t_mean = interval["t_sum"] / max(interval["t_tok"], 1.0)
                    l_r_mean = interval["r_sum"] / max(interval["r_tok"], 1.0)
                    if self.aux_scheduler is not None:
                        self.aux_scheduler.observe(l_r_mean)
                    path = self._save_checkpoint(f"{self.update:07d}")
                    checkpoints.append(path)
                    row = {"phase": self.phase, "update": self.update,
                           "checkpoint": n_ckpt, "lr": lr_in_effect,
                           "train_ppl": float(np.exp(l_t_mean)),
                           "dev_ppl": dev_ppl, "l_t": l_t_mean,
                           "l_r": l_r_mean, "seed": cfg.seed}
                    self._append_metrics(row)
                    metrics.append(row)
                    if cfg.eval_bleu:
                        self._log_dev_bleu()
                    if improved or not best_path:
                        best_path = path
                    if on_checkpoint is not None:
                        on_checkpoint(self, row)
                    interval = {"t_sum": 0.0, "t_tok": 0.0, "r_sum": 0.0, "r_tok": 0.0}
                    if self.scheduler.should_stop:
                        stopped = True
                        break
                if at_cap:
                    break
            if stopped or (cap and self.update >= cap):
                break
        if not checkpoints:
            raise RuntimeError("training ended before the first checkpoint")
        return TrainResult(checkpoints, metrics, best_path, checkpoints[-1], stopped)
