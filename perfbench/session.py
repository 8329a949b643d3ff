"""One benchmark session: pretrain, two fine-tunes, scoring and decoding.

The session follows the README's train -> finetune -> translate -> score
workflow through the toolkit's library calls, in fp32. The pretrain does a
fixed amount of work per workload, untimed, as the warm-up. After it, the
run's seconds go to whole cycles, each one checkpoint interval of the
pretrain (going on from where it stopped), a new sampled and a new hidden
fine-tune of one interval, both from the checkpoint the pretrain has just
written, whole rounds of scoring, greedy and beam decoding of that
checkpoint for their ROUNDS_SECONDS, and SETUPS_PER_CYCLE more timed
set-ups, each in a process of its own. The speed of a shared machine
drifts over seconds; cycling spreads every phase over the run, so a drift
within a run reaches all of them alike. Where the young model's samples
and beams stop sets part of their cost; a new checkpoint a cycle spreads
that over the run too.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import time

import checks as chk
import tracer as tr
import workloads
from roundtrip import autodiff as ad
from roundtrip import checkpoint, evaluation, training
from roundtrip.config import RunConfig
from roundtrip.data import build_bidirectional_corpus, make_batch
from roundtrip.evaluation import DecodeConfig

BEAM_WIDTH = 5  # the default of `roundtrip translate`
MIN_CYCLES = 2
# seconds of whole rounds per cycle
ROUNDS_SECONDS = {"score": 1.0, "greedy": 0.3, "beam": 0.4}
SETUPS_PER_CYCLE = 2
# seeds of a run's fine-tunes: FINE_TUNE_SEEDS * seed + cycle
FINE_TUNE_SEEDS = 1000


class _Observer:
    """Benchmark-side wrappers that count work and check outputs on every
    call: each update's objective against its loss terms, each checkpoint's
    interval means against the updates they summarize, and the end of every
    decoded hypothesis. They are bound for the whole session, traced or
    not."""

    def __init__(self, checks: chk.Checks):
        self.checks = checks
        self.phase = "none"
        self.tokens = 0
        self._reset_interval()

    def _reset_interval(self) -> None:
        # sums over the interval's updates: l_t and l_r weighted by their
        # token counts, the counts, and the largest relative gap between an
        # update's objective and l_t + l_r
        self.l_t_sum = self.t_tok = self.l_r_sum = self.r_tok = 0.0
        self.worst_gap = 0.0

    def end_interval(self, trainer, row) -> None:
        """`on_checkpoint` of every trainer: the metrics row's l_t and l_r,
        which the trainer accumulates from token sums, are the token-weighted
        means of the loss terms whose sum was each update's objective."""
        want_t = self.l_t_sum / max(self.t_tok, 1.0)
        want_r = self.l_r_sum / max(self.r_tok, 1.0)
        ok_t, detail_t = chk.close(row["l_t"], want_t)
        ok_r, detail_r = chk.close(row["l_r"], want_r)
        self.checks.record(
            f"{self.phase}.interval_losses",
            ok_t and ok_r and self.worst_gap <= chk.LOSS_RTOL,
            f"update {row['update']}: l_t {detail_t}; l_r {detail_r}; "
            f"largest objective gap {self.worst_gap:.2e}")
        self._reset_interval()

    def bindings(self) -> list:
        """(owner, attribute, wrapper) of each observed function, wrapping
        whatever the owner holds now."""
        original_losses = training.Trainer.compute_losses
        original_greedy = evaluation.greedy_decode
        original_beam = evaluation.beam_decode
        obs = self

        def compute_losses(trainer, batch, update, train=True):
            objective, breakdown, sums = original_losses(trainer, batch, update, train)
            if train:
                obs.tokens += batch.target_tokens
                _, t_tok, _, r_tok = sums
                obs.l_t_sum += breakdown.l_t * t_tok
                obs.t_tok += t_tok
                obs.l_r_sum += breakdown.l_r * r_tok
                obs.r_tok += r_tok
                value = float(objective.data)
                obs.worst_gap = max(obs.worst_gap, abs(value - breakdown.l_t - breakdown.l_r)
                                    / max(abs(value), 1e-2))
            return objective, breakdown, sums

        def greedy_decode(params, src_ids, src_mask, bos_id, eos_id, max_len_factor=2,
                          max_len_offset=5):
            rows = original_greedy(params, src_ids, src_mask, bos_id, eos_id,
                                   max_len_factor, max_len_offset)
            obs.checks.record(f"{obs.phase}.ends_at_eos_or_cap", *chk.hypothesis_ends(
                rows, chk.caps_of(src_mask, max_len_factor, max_len_offset), eos_id))
            return rows

        def beam_decode(params, src_ids, src_mask, bos_id, eos_id, config):
            row = original_beam(params, src_ids, src_mask, bos_id, eos_id, config)
            obs.checks.record(f"{obs.phase}.ends_at_eos_or_cap", *chk.hypothesis_ends(
                [row], chk.caps_of(src_mask, config.max_len_factor, config.max_len_offset),
                eos_id))
            return row

        return [(training.Trainer, "compute_losses", compute_losses),
                (evaluation, "greedy_decode", greedy_decode),
                (evaluation, "beam_decode", beam_decode)]


class Session:
    def __init__(self, workload, seed: int, seconds: float, setup, out_dir: str,
                 tracer=None):
        self.w, self.seed, self.seconds = workload, seed, seconds
        self.setup = setup
        self.data, self.vocab = setup.data, setup.vocab
        self.out_dir = out_dir
        self.tracer = tracer
        self.checks = chk.Checks()
        self.obs = _Observer(self.checks)
        self.blocks: dict[str, list] = {}   # phase -> [(work, seconds)]
        self.ops: dict[str, int] = {}
        self.dev = build_bidirectional_corpus(self.data["dev"])
        self.test = build_bidirectional_corpus(self.data["test"])

    # -- helpers --------------------------------------------------------------

    def _config(self, **overrides) -> RunConfig:
        return RunConfig(**{"seed": self.seed, "eval_bleu": False, **overrides})

    @contextlib.contextmanager
    def _phase(self, phase: str):
        self.obs.phase = phase
        self.obs.tokens = 0
        span = self.tracer.start_phase(phase) if self.tracer else None
        try:
            yield
        finally:
            if span is not None:
                self.tracer.end_phase(span)
            self.obs.phase = "checks"

    def _block(self, phase: str, fn, work=None):
        """Run one block of a phase and record its work and time. A training
        block's work is the target tokens it trained on; other blocks pass
        theirs."""
        with self._phase(phase):
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
            self.blocks.setdefault(phase, []).append(
                (self.obs.tokens if work is None else work, elapsed))
        return out

    def _set_up(self, phase: str, fn):
        """Run a phase's set-up as a block of no work: its time counts in the
        phase's rate."""
        with self._phase(phase):
            t0 = time.perf_counter()
            out = fn()
            self.blocks.setdefault(phase, []).append((0, time.perf_counter() - t0))
        return out

    def _phase_checks(self, phase: str, params, aux, cfg) -> None:
        batch = make_batch(self.vocab, self.dev[:48])
        chk.reference_checks(self.checks, phase, params, aux, batch, self.vocab, cfg)
        if phase != "decode":
            chk.finite_difference_check(self.checks, phase, params, aux, self.dev,
                                        self.vocab, cfg, self.seed)

    # -- the session ----------------------------------------------------------

    def run(self) -> None:
        # the tracer wraps the toolkit's own functions, and the observer
        # whatever is bound once the tracer is
        with tr.rebound(self.tracer.bindings() if self.tracer else []), \
                tr.rebound(self.obs.bindings()), ad.using_dtype("fp32"):
            self._run()

    def _run(self) -> None:
        w, vocab, data = self.w, self.vocab, self.data
        pre_cfg = self._config(checkpoint_interval=w.pretrain_interval,
                               max_updates=w.pretrain_updates, lr=w.pretrain_lr)
        # the first pretrain is the warm-up, untimed; the pretrain is timed
        # where it goes on, one interval a cycle
        pre = training.Trainer(pre_cfg, vocab, data["train"], data["dev"], "pretrain",
                               os.path.join(self.out_dir, "pretrain"))
        with self._phase("pretrain"):
            pre_result = pre.run(on_checkpoint=self.obs.end_interval)
        self._phase_checks("pretrain", pre.params, None, pre_cfg)
        first_l, last_l = pre_result.metrics[0]["l_t"], pre_result.metrics[-1]["l_t"]
        self.checks.record("pretrain.l_t_decreases", last_l < first_l,
                           f"first interval {first_l:.4f}, last {last_l:.4f}")

        def fine_tune(mode: str, cycle: int, init: str):
            """A new fine-tune of one interval from the checkpoint `init`. Its
            seed, drawn from the run's, gives each cycle its own batches."""
            cfg = self._config(recon_mode=mode, checkpoint_interval=w.finetune_interval,
                               max_updates=w.finetune_interval,
                               seed=self.seed * FINE_TUNE_SEEDS + cycle)
            trainer = self._set_up(mode, lambda: training.Trainer(
                cfg, vocab, data["train"], data["dev"], "finetune",
                os.path.join(self.out_dir, mode), init_checkpoint=init))
            self._block(mode, lambda: trainer.run(on_checkpoint=self.obs.end_interval))
            return cfg, trainer

        test = self.test
        tokens = sum(len(p.target) + 2 for p in test)  # tag and EOS included
        beam_pairs = test[:w.beam_sentences]
        beam = DecodeConfig(mode="beam", beam_width=BEAM_WIDTH)
        rounds = {
            "score": (lambda p: evaluation.perplexity(p, test, vocab, 48), tokens),
            "greedy": (lambda p: evaluation.decode_corpus(p, vocab, test, DecodeConfig()),
                       len(test)),
            "beam": (lambda p: evaluation.decode_corpus(p, vocab, beam_pairs, beam),
                     len(beam_pairs)),
        }
        start = time.perf_counter()
        cycles = 0
        latest = pre_result.final_checkpoint
        while True:
            latest = self._block("pretrain", lambda: pre.run(
                max_updates=pre.update + w.pretrain_interval,
                on_checkpoint=self.obs.end_interval)).final_checkpoint
            tuned = {mode: fine_tune(mode, cycles, latest) for mode in ("sampled", "hidden")}
            for phase, (fn, work) in rounds.items():
                end = time.perf_counter() + ROUNDS_SECONDS[phase]
                while True:
                    # each round loads the checkpoint afresh, as `translate`
                    # and `score` do: where the arrays land in memory moves
                    # greedy decoding by as much as a third between loads,
                    # and a load per round averages that over the run
                    params = checkpoint.load(latest)[0]
                    self._block(phase, lambda: fn(params), work)
                    if time.perf_counter() >= end:
                        break
            for _ in range(SETUPS_PER_CYCLE):
                workloads.time_set_up(w, self.seed, self.setup)
            cycles += 1
            elapsed = time.perf_counter() - start
            if cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > self.seconds:
                break
        rounds_run = {phase: len(self.blocks[phase]) for phase in rounds}
        self.ops = {"updates": w.pretrain_updates + cycles * (
                        w.pretrain_interval + 2 * w.finetune_interval),
                    "scored batches": rounds_run["score"] * -(-len(test) // 48),
                    "decoded sentences": (rounds_run["greedy"] * len(test)
                                          + rounds_run["beam"] * len(beam_pairs))}
        for mode, (cfg, trainer) in tuned.items():
            self._phase_checks(mode, trainer.params, trainer.aux, cfg)
        self._phase_checks("decode", checkpoint.load(latest)[0], None, None)

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict:
        """Each phase's work and wall time, summed over its blocks."""
        return {p: (sum(w for w, _ in b), sum(t for _, t in b))
                for p, b in self.blocks.items()}

    def rates(self) -> dict:
        """Each phase's work over its wall time, summed over its blocks. The
        blocks of the cycled phases spread over the run, so each rate
        averages the machine's speed over the run alike; a median over
        blocks would instead follow whichever speed held most of the run."""
        return {p: work / seconds for p, (work, seconds) in self.totals().items()}

    def operations(self) -> int:
        return sum(self.ops.values()) + len(self.checks.results)

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

