"""Training objectives and the pretrain -> fine-tune loop.

The combined objective is translation NLL plus a reconstruction term; the
sampled-reconstruction variant back-translates the model's own straight-
through samples with the same parameters, so fine-tuning adds no weights.
The contrastive variant adds two auxiliary attentional decoders that read
encoder / decoder hidden states instead.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from . import evaluation
from .autodiff import Tape, Tensor
from .config import RunConfig
from .data import (Batch, LazyBatches, ParallelPair, Vocab, build_bidirectional_corpus,
                   make_batches)
from .model import (DecoderParams, EncoderOutput, Memory, ModelParams, _xavier, encode,
                    prepare_memory, sequence_nll)
from .sampling import GumbelNoiseSource, STGSConfig, sample_translation

# fixed stream tags so every RNG is a pure function of (seed, update)
_STREAM_INIT, _STREAM_EPOCH, _STREAM_DROPOUT, _STREAM_GUMBEL = 11, 13, 17, 19

METRICS_COLUMNS = ("phase", "update", "checkpoint", "lr", "train_ppl",
                   "dev_ppl", "l_t", "l_r", "seed")
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class LossBreakdown:
    l_t: float
    l_r: float
    combined: float


class PhaseError(RuntimeError):
    pass


def translation_loss(params: ModelParams, batch: Batch, bos_id: int,
                     train: bool = False, rng: np.random.Generator | None = None):
    """Teacher-forced NLL over the batch; returns (loss, sum_nats, n_tokens,
    memory, states); `loss` is the NLL per target token and `memory` the
    source's encoding as the decoder reads it."""
    if batch.size == 0:
        raise ValueError("empty batch")
    enc = encode(params, batch.src_ids, batch.src_mask, train=train, rng=rng)
    memory = prepare_memory(params.dec, enc)
    loss_sum, n_tokens, states = sequence_nll(
        params.dec, memory, batch.tgt_ids, batch.tgt_mask, bos_id,
        train=train, rng=rng)
    loss = ad.scalar_mul(loss_sum, 1.0 / n_tokens)
    return loss, float(loss_sum.data), n_tokens, memory, states


def reconstruction_loss(params: ModelParams, batch: Batch, noise: GumbelNoiseSource,
                        stgs: STGSConfig, bos_id: int, eos_id: int, phase: str,
                        train: bool = False, rng: np.random.Generator | None = None,
                        soft_forward: bool = False, stop_on_eos: bool = True,
                        memory: Memory | None = None):
    """Round-trip term: sample a translation of each source, then score the
    original source as the target of a teacher-forced pass over the sample;
    the loss is the NLL per source token. The sampler decodes from `memory`,
    the source's encoding that `translation_loss` returns, and with none
    given it encodes the source itself."""
    if phase != "finetune":
        raise PhaseError("reconstruction requires a pre-trained model "
                         "(fine-tune phase); got phase=" + phase)
    if memory is None:
        memory = prepare_memory(params.dec, encode(params, batch.src_ids, batch.src_mask,
                                                   train=train, rng=rng))
    sampled = sample_translation(params, memory, noise, stgs, bos_id, eos_id,
                                 train=train, rng=rng, soft_forward=soft_forward,
                                 stop_on_eos=stop_on_eos)
    enc = encode(params, None, sampled.mask, src_embs=sampled.steps,
                 train=train, rng=rng)
    memory = prepare_memory(params.dec, enc)
    loss_sum, n_tokens, _ = sequence_nll(
        params.dec, memory, batch.src_ids, batch.src_mask, bos_id,
        train=train, rng=rng)
    loss = ad.scalar_mul(loss_sum, 1.0 / n_tokens)
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


def hidden_reconstruction_loss(params: ModelParams, batch: Batch,
                               aux: HiddenReconstructorParams, bos_id: int,
                               w_enc: float = 0.5, w_dec: float = 0.5,
                               train: bool = False,
                               rng: np.random.Generator | None = None):
    """Weighted hidden-state reconstruction: w_enc * L_enc + w_dec * L_dec,
    where each L is a reconstructor's NLL per source token.

    Both reconstructors are attentional decoders over a hidden-state memory
    (encoder annotations / decoder states of the translation pass) and are
    scored against the original source. Returns the weighted term plus the
    translation pass's components so the caller builds the full objective.
    """
    if aux.dec_enc.d_ann != 2 * params.config.d_hidden:
        raise ValueError("encoder-side reconstructor width mismatch")
    t_loss, t_sum, t_tokens, memory, dec_states = translation_loss(
        params, batch, bos_id, train=train, rng=rng)

    mem_enc = prepare_memory(aux.dec_enc, memory)
    enc_sum_t, enc_tokens, _ = sequence_nll(
        aux.dec_enc, mem_enc, batch.src_ids, batch.src_mask, bos_id, train=train,
        rng=rng)

    # the summary is the mean of the decoder states over each row's targets
    mask = batch.tgt_mask
    dec_ann = ad.stack(dec_states, axis=1)
    dec_summary = ad.weighted_sum(
        ad.constant(mask / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)), dec_ann)
    enc_like = EncoderOutput(dec_ann, mask, dec_summary)
    mem_dec = prepare_memory(aux.dec_dec, enc_like)
    dec_sum_t, _, _ = sequence_nll(
        aux.dec_dec, mem_dec, batch.src_ids, batch.src_mask, bos_id, train=train,
        rng=rng)

    # both reconstructors score the same source tokens, so the weighted sum
    # is normalized by that count once
    weighted = ad.add(ad.scalar_mul(enc_sum_t, w_enc), ad.scalar_mul(dec_sum_t, w_dec))
    n_tokens = enc_tokens
    recon = ad.scalar_mul(weighted, 1.0 / n_tokens)
    recon_sum = w_enc * float(enc_sum_t.data) + w_dec * float(dec_sum_t.data)
    return recon, recon_sum, n_tokens, t_loss, t_sum, t_tokens


class Adam:
    """Adam with per-parameter moment accumulators, keyed by parameter name.

    Parameters named in `group` step at the `group_lr` given to `step`
    instead of `lr`.
    """

    def __init__(self, named_params, group=()):
        self.named_params = list(named_params)
        self.group = frozenset(group)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float, group_lr: float | None = None) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            # the moments, then step_lr * (m/bc1) / (sqrt(v/bc2) + eps), in two arrays
            step = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += step
            denom = g * g
            denom *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += denom
            step_lr = group_lr if name in self.group else lr
            np.divide(m, bc1, out=step)
            step *= step_lr
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            step /= denom
            p.data -= step

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


def append_rows(path: str, header, rows) -> None:
    """Append CSV rows, the header first when the file is new or empty. A file
    that holds another header is refused and left as it is."""
    header, found = list(header), None
    if os.path.exists(path):
        with open(path, newline="", encoding="utf-8") as fh:
            found = next(csv.reader(fh), None)
        if found is not None and found != header:
            raise ValueError(f"{path} has the header {','.join(found)}; rows of the "
                             f"header {','.join(header)} are not appended to it")
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if found is None:
            writer.writerow(header)
        writer.writerows(rows)


def _keep_rows_until(path: str, update: int) -> None:
    """Drop the rows of the CSV log `path` past `update`, writing it whole;
    a log with no such row is left untouched."""
    if not os.path.exists(path):
        return
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    column = header.index("update")
    kept = [r for r in rows if int(r[column]) <= update]
    if len(kept) == len(rows):
        return
    text = io.StringIO()
    csv.writer(text).writerows([header] + kept)
    ckpt_io.write_whole(path, lambda fh: fh.write(text.getvalue().encode("utf-8")))


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
        if not train_pairs:
            raise ValueError("the training corpus has no pairs")
        if not dev_pairs:
            raise ValueError("the dev corpus has no pairs")
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
            self.params, _ = self._load_model(init_checkpoint)
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
        self.n_checkpoints = 0  # the checkpoint column of metrics.csv
        self.metrics_path = os.path.join(out_dir, "metrics.csv")
        self.bleu_path = os.path.join(out_dir, "bleu.csv")
        # (epoch, its batches), so that a run resumed or cut into chunks
        # within an epoch does not batch the corpus again
        self._epoch_cache: tuple[int, LazyBatches] | None = None

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

        if cfg.recon_mode == "hidden":
            l_r, r_sum, r_tokens, l_t, t_sum, t_tokens = hidden_reconstruction_loss(
                self.params, batch, self.aux, bos, w_enc=cfg.hidden_weight_enc,
                w_dec=cfg.hidden_weight_dec, train=train, rng=drop_rng)
        else:
            l_t, t_sum, t_tokens, memory, _ = translation_loss(
                self.params, batch, bos, train=train, rng=drop_rng)
            if cfg.recon_mode == "none":  # the only mode of the pretrain phase
                breakdown = LossBreakdown(float(l_t.data), 0.0, float(l_t.data) + 0.0)
                return l_t, breakdown, (t_sum, t_tokens, 0.0, 0.0)
            noise = GumbelNoiseSource(cfg.beta, (cfg.seed, _STREAM_GUMBEL, update))
            stgs = STGSConfig(cfg.tau, cfg.max_len_factor, cfg.max_len_offset)
            # the sampler reads the translation pass's encoding when the
            # reconstruction runs at its dropout setting, else its own
            recon_train = train and cfg.recon_dropout
            l_r, r_sum, r_tokens, _ = reconstruction_loss(
                self.params, batch, noise, stgs, bos, self.vocab.eos,
                phase=self.phase, train=recon_train, rng=drop_rng,
                memory=memory if recon_train == train else None)

        combined = ad.add(l_t, l_r)
        # the breakdown decomposes exactly by construction; the objective
        # tensor computes the same sum in the run precision
        breakdown = LossBreakdown(float(l_t.data), float(l_r.data),
                                  float(l_t.data) + float(l_r.data))
        return combined, breakdown, (t_sum, t_tokens, r_sum, r_tokens)

    # -- evaluation ---------------------------------------------------------

    def dev_perplexity(self) -> float:
        return evaluation.perplexity(self.params, self.dev_corpus, self.vocab,
                                     batch_size=self.cfg.batch_size)

    def _log_dev_bleu(self) -> None:
        """Greedy dev BLEU per direction, appended to bleu.csv; the report
        command pairs the final row per (direction, seed) across run dirs."""
        rows = []
        for name, pairs in ((f"{self.cfg.src_lang}-{self.cfg.tgt_lang}",
                             self.dev_pairs),
                            (f"{self.cfg.tgt_lang}-{self.cfg.src_lang}",
                             [p.swapped() for p in self.dev_pairs])):
            bleu = evaluation.evaluate_bleu(self.params, self.vocab, pairs,
                                            evaluation.DecodeConfig())
            rows.append([name, self.cfg.seed, self.update, f"{bleu:.4f}"])
        append_rows(self.bleu_path, ["direction", "seed", "update", "bleu"], rows)

    # -- persistence ----------------------------------------------------------

    def _save_checkpoint(self) -> str:
        """The model and the trainer's state in one file: counters and schedules
        in the meta, Adam's moments and the reconstructors' weights as arrays."""
        path = os.path.join(self.out_dir, f"checkpoint-{self.update:07d}.npz")
        meta = {"phase": self.phase, "update": self.update, "seed": self.cfg.seed,
                "recon_mode": self.cfg.recon_mode, "checkpoint": self.n_checkpoints,
                "scheduler": self.scheduler.state()}
        state = self.optimizer.state_arrays()
        if self.aux is not None:
            meta["aux_scheduler"] = self.aux_scheduler.state()
            state.update((name, t.data) for name, t in self.aux.named_parameters())
        ckpt_io.save(path, self.params, self.vocab, meta=meta, state=state)
        return path

    def _load_model(self, path: str):
        """The model, at this run's dropout, and header of checkpoint `path`, which
        must hold this run's structure, precision and vocab: the same tokens in
        the same order, tags and merges, so that an id means the same piece."""
        params, vocab, header = ckpt_io.load(path, self.cfg.model_config(len(self.vocab)))
        if vocab != self.vocab:
            raise ValueError(f"{path} holds another vocab than this run's: its "
                             "tokens, their order, tags or merges differ")
        return params, header

    def restore(self, ckpt_path: str) -> None:
        """Resume mid-phase from a checkpoint of this phase and recon_mode: the
        model, reconstructors, optimizer moments, schedules and counters. The
        logs keep their rows up to the checkpoint's update, so that the run
        goes on to write them as one run that was never cut would."""
        params, header = self._load_model(ckpt_path)
        state, meta = ckpt_io.load_state(ckpt_path), header["meta"]
        if (meta["phase"], meta["recon_mode"]) != (self.phase, self.cfg.recon_mode):
            raise ValueError(
                f"{ckpt_path} is a {meta['phase']} checkpoint with recon_mode="
                f"{meta['recon_mode']}; this trainer runs {self.phase} with "
                f"recon_mode={self.cfg.recon_mode}")
        self.params = params
        if self.aux is not None:
            for name, t in self.aux.named_parameters():
                t.data = np.array(state[name], dtype=ad.default_dtype())
            self.aux_scheduler.load_state(meta["aux_scheduler"])
        self.optimizer = self._make_optimizer()
        self.optimizer.load_state_arrays(state)
        self.scheduler.load_state(meta["scheduler"])
        self.update = meta["update"]
        self.n_checkpoints = meta["checkpoint"]
        self._keep_logs_until_update()

    def _keep_logs_until_update(self) -> None:
        """The trainer's one rule for its logs: they hold the rows at or before
        its update. A fresh run therefore starts them anew and a restored run
        goes on from the rows of the checkpoint it restored."""
        for path in (self.metrics_path, self.bleu_path):
            _keep_rows_until(path, self.update)

    # -- main loop ------------------------------------------------------------

    def _batch_stream(self):
        """Training batches across epochs, each chosen when asked for from the
        update reached: update u trains on batch u mod n of epoch u div n (n
        batches an epoch), wherever runs and resumes cut the epochs."""
        n = max(1, -(-len(self.train_corpus) // self.cfg.batch_size))
        while True:
            epoch, i = divmod(self.update, n)
            if self._epoch_cache is None or self._epoch_cache[0] != epoch:
                seed = hash((self.cfg.seed, _STREAM_EPOCH, epoch)) & 0x7FFFFFFF
                self._epoch_cache = (epoch, make_batches(
                    self.train_corpus, self.vocab, self.cfg.batch_size, seed=seed))
            yield self._epoch_cache[1][i]

    def num_trainable_params(self) -> int:
        return sum(p.size for _, p in self.optimizer.named_params)

    def run(self, max_updates: int | None = None,
            on_checkpoint=None) -> TrainResult:
        """Train on from the current update, with a checkpoint every
        `checkpoint_interval` updates and at the cap (`max_updates`, else the
        config's; 0 = none), up to the first at the cap or where the schedule stops.
        A trainer already there is refused before it touches its logs."""
        cfg = self.cfg
        cap = max_updates if max_updates is not None else cfg.max_updates
        if cap and self.update >= cap:
            raise ValueError(f"the trainer is at update {self.update}, at or past "
                             f"its cap of {cap} updates")
        if self.scheduler.should_stop:
            raise ValueError(f"the trainer's schedule stopped at update {self.update}")
        self._keep_logs_until_update()
        checkpoints: list[str] = []
        metrics: list[dict] = []
        best_path = ""
        interval = [0.0] * 4  # t_sum, t_tokens, r_sum, r_tokens
        for batch in self._batch_stream():
            lr_in_effect = self.scheduler.lr
            aux_lr = self.aux_scheduler.lr if self.aux_scheduler else None
            with Tape() as tape:
                objective, _, sums = self.compute_losses(batch, self.update, train=True)
                ad.backward(tape, objective)
            if cfg.grad_clip_norm > 0:
                ad.clip_gradients([p for _, p in self.optimizer.named_params],
                                  cfg.grad_clip_norm)
            self.optimizer.step(lr_in_effect, aux_lr)
            self.optimizer.zero_grad()
            self.update += 1
            interval = [total + x for total, x in zip(interval, sums)]
            at_cap = cap and self.update >= cap
            if self.update % cfg.checkpoint_interval and not at_cap:
                continue

            self.n_checkpoints += 1
            dev_ppl = self.dev_perplexity()
            improved = self.scheduler.observe(dev_ppl)
            l_t_mean = interval[0] / max(interval[1], 1.0)
            l_r_mean = interval[2] / max(interval[3], 1.0)
            if self.aux_scheduler is not None:
                self.aux_scheduler.observe(l_r_mean)
            path = self._save_checkpoint()
            row = {"phase": self.phase, "update": self.update,
                   "checkpoint": self.n_checkpoints, "lr": lr_in_effect,
                   "train_ppl": float(np.exp(l_t_mean)), "dev_ppl": dev_ppl,
                   "l_t": l_t_mean, "l_r": l_r_mean, "seed": cfg.seed}
            append_rows(self.metrics_path, METRICS_COLUMNS,
                        [[row[c] for c in METRICS_COLUMNS]])
            if cfg.eval_bleu:
                self._log_dev_bleu()
            checkpoints.append(path)
            metrics.append(row)
            if improved or not best_path:
                best_path = path
            if on_checkpoint is not None:
                on_checkpoint(self, row)
            interval = [0.0] * 4
            if self.scheduler.should_stop or at_cap:
                break
        return TrainResult(checkpoints, metrics, best_path, checkpoints[-1],
                           self.scheduler.should_stop)
