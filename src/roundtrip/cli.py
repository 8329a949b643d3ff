"""Command-line entry points: synth, train, finetune, translate, score, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import autodiff as ad
from . import checkpoint as ckpt_io
from . import synth
from .config import RunConfig, load_config, serialize_config
from .bpe import SubwordModel, learn_subword_model
from .data import (ParallelPair, TaggedSentence, Vocab, build_bidirectional_corpus,
                   filter_by_length, lang_tag, load_parallel, tag_lang)
from .evaluation import (DecodeConfig, corpus_bleu, decode_corpus,
                         delta_bleu_report, format_delta_report, perplexity)
from .training import Trainer, append_rows
from .verification import format_suite, run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="roundtrip", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    sp.add_argument("--task", required=True, choices=synth.TASKS)
    sp.add_argument("--size", type=int, required=True, help="training pairs")
    sp.add_argument("--vocab", type=int, default=32)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--dev-size", type=int, default=200)
    sp.add_argument("--test-size", type=int, default=200)
    sp.add_argument("--min-len", type=int, default=3)
    sp.add_argument("--max-len", type=int, default=9)
    sp.add_argument("--src-lang", default="l1")
    sp.add_argument("--tgt-lang", default="l2")

    for name in ("train", "finetune"):
        tp = sub.add_parser(name, help=f"{name} a model from a config file")
        tp.add_argument("--config", required=True)
        tp.add_argument("--out-dir")
        tp.add_argument("--seed", type=int)
        tp.add_argument("--max-updates", type=int)
        if name == "finetune":
            tp.add_argument("--init-checkpoint", required=True)
            tp.add_argument("--recon-mode", choices=("sampled", "hidden", "none"))

    xp = sub.add_parser("translate", help="decode a file of sentences")
    xp.add_argument("--checkpoint", required=True)
    xp.add_argument("--input", required=True)
    xp.add_argument("--output", required=True)
    xp.add_argument("--src-lang", help="tag untagged input lines with this language")
    xp.add_argument("--beam", type=int, default=5,
                    help="beam width; 1 = greedy (default 5)")

    cp = sub.add_parser("score", help="corpus BLEU of a hypothesis file")
    cp.add_argument("--hyp", help="hypothesis file")
    cp.add_argument("--ref", help="reference file")
    cp.add_argument("--csv-out", help="append the BLEU row (with --report, the report's "
                                      "rows) here; the header only on a new file")
    cp.add_argument("--src", help="source file: report teacher-forced perplexity "
                                  "of the references (needs --checkpoint)")
    cp.add_argument("--checkpoint", help="model for the perplexity report "
                                         "(needs --src)")
    cp.add_argument("--src-lang", default="l1")
    cp.add_argument("--tgt-lang", default="l2")
    cp.add_argument("--report", nargs=2, metavar=("BASELINE_DIR", "TREATMENT_DIR"),
                    help="paired delta report from two run directories of bleu.csv")

    gp = sub.add_parser("gradcheck", help="finite-difference gradient suite (fp64)")
    gp.add_argument("--seed", type=int, default=0)
    return p


def cmd_synth(args) -> int:
    splits, _ = synth.generate_corpus(args.task, args.size, args.vocab, args.seed,
                                      dev_size=args.dev_size, test_size=args.test_size,
                                      min_len=args.min_len, max_len=args.max_len)
    paths = synth.write_corpus(splits, args.out_dir, args.src_lang, args.tgt_lang)
    for name, (sp, tp) in paths.items():
        print(f"{name}: {sp} {tp}")
    return 0


def _load_data(cfg: RunConfig):
    """Word-level train and dev pairs, and the vocab with its merges."""
    train_pairs = load_parallel(cfg.train_src, cfg.train_tgt, cfg.src_lang, cfg.tgt_lang)
    dev_pairs = load_parallel(cfg.dev_src, cfg.dev_tgt, cfg.src_lang, cfg.tgt_lang)
    subword = SubwordModel()
    if cfg.bpe_merges > 0:
        streams = [p.source.tokens for p in train_pairs]
        streams += [p.target.tokens for p in train_pairs]
        subword = learn_subword_model(streams, cfg.bpe_merges)
    # the length filter counts post-segmentation tokens, tag excluded
    train_pairs = filter_by_length(train_pairs, cfg.max_len_filter, subword)
    vocab = Vocab.build(build_bidirectional_corpus(train_pairs), subword)
    return train_pairs, dev_pairs, vocab


def cmd_train(args, phase: str) -> int:
    recon_mode = "none" if phase == "pretrain" else args.recon_mode
    cfg = load_config(args.config, out_dir=args.out_dir, seed=args.seed,
                      max_updates=args.max_updates, recon_mode=recon_mode)
    if not cfg.out_dir:
        raise UsageError("out_dir must be set (config key or --out-dir)")
    for path in (cfg.train_src, cfg.train_tgt, cfg.dev_src, cfg.dev_tgt):
        if not path or not os.path.exists(path):
            raise UsageError(f"missing corpus file: {path!r}")
    init = getattr(args, "init_checkpoint", None)
    if init is not None and not os.path.exists(init):
        raise UsageError(f"missing checkpoint: {init!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    train_pairs, dev_pairs, vocab = _load_data(cfg)
    with ad.using_dtype(cfg.precision):
        trainer = Trainer(cfg, vocab, train_pairs, dev_pairs, phase,
                          cfg.out_dir, init_checkpoint=init)
        with open(os.path.join(cfg.out_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(serialize_config(cfg))
        result = trainer.run()
        print(f"{phase} finished at update {trainer.update}; "
              f"best checkpoint {result.best_checkpoint}")
    return 0


def cmd_translate(args) -> int:
    params, vocab, _ = ckpt_io.load(args.checkpoint)
    with ad.using_dtype(ckpt_io.precision(params)):
        with open(args.input, encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        pairs = []
        keep = []
        for i, line in enumerate(lines):
            toks = line.lower().split()
            if not toks:
                print(f"warning: line {i + 1} is empty; emitting empty translation",
                      file=sys.stderr)
                continue
            if toks[0] in vocab.tags:
                lang = tag_lang(toks[0])
                toks = toks[1:]
            elif args.src_lang:
                lang = args.src_lang
            else:
                raise UsageError(f"line {i + 1} is untagged and no --src-lang given")
            if not toks:
                print(f"warning: line {i + 1} has a tag but no tokens; "
                      "emitting empty translation", file=sys.stderr)
                continue
            # target side of the pair is a placeholder; only the source is decoded
            other = next(tag_lang(t) for t in vocab.tags if t != lang_tag(lang))
            pairs.append(ParallelPair(TaggedSentence(lang, tuple(toks)),
                                      TaggedSentence(other, ("x",))))
            keep.append(i)

        dcfg = DecodeConfig(mode="beam" if args.beam > 1 else "greedy",
                            beam_width=args.beam)
        hyps = decode_corpus(params, vocab, pairs, dcfg)
        out_lines = [""] * len(lines)
        for i, h in zip(keep, hyps):
            out_lines[i] = h
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out_lines) + "\n")
        print(f"wrote {len(lines)} hypotheses to {args.output}")
        return 0


def _read_bleu_runs(run_dir: str) -> dict[str, dict[int, float]]:
    path = os.path.join(run_dir, "bleu.csv")
    if not os.path.exists(path):
        raise UsageError(f"no bleu.csv under {run_dir!r}")
    runs: dict[str, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            runs.setdefault(row["direction"], {})[int(row["seed"])] = float(row["bleu"])
    if not runs:
        raise UsageError(f"{path} holds no BLEU rows")
    return runs


def cmd_score(args) -> int:
    if bool(args.src) != bool(args.checkpoint):
        raise UsageError("--src and --checkpoint go together")
    if args.report:
        base = _read_bleu_runs(args.report[0])
        treat = _read_bleu_runs(args.report[1])
        rows = delta_bleu_report(base, treat)
        print(format_delta_report(rows))
        if args.csv_out:
            columns = list(rows[0])
            append_rows(args.csv_out, columns, [[r[c] for c in columns] for r in rows])
        return 0
    if not args.hyp or not args.ref:
        raise UsageError("score requires --hyp and --ref (or --report)")
    with open(args.hyp, encoding="utf-8") as fh:
        hyps = fh.read().splitlines()
    with open(args.ref, encoding="utf-8") as fh:
        refs = fh.read().splitlines()
    if len(hyps) != len(refs):
        raise UsageError(f"line counts differ: {len(hyps)} vs {len(refs)}")
    if not refs:
        raise UsageError("empty reference file")
    bleu = corpus_bleu(hyps, refs)
    ppl = None
    if args.checkpoint:
        params, vocab, _ = ckpt_io.load(args.checkpoint)
        pairs = load_parallel(args.src, args.ref, args.src_lang, args.tgt_lang)
        with ad.using_dtype(ckpt_io.precision(params)):
            ppl = perplexity(params, pairs, vocab)
    print(f"BLEU = {bleu:.2f}")
    if ppl is not None:
        print(f"perplexity = {ppl:.4f}")
    if args.csv_out:
        append_rows(args.csv_out, ["hyp", "ref", "bleu"],
                    [[args.hyp, args.ref, f"{bleu:.4f}"]])
    return 0


def cmd_gradcheck(args) -> int:
    reports = run_suite(seed=args.seed)
    print(format_suite(reports))
    if all(r.ok for r in reports):
        print("gradient suite: PASS")
        return 0
    print("gradient suite: FAIL")
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "train":
            return cmd_train(args, "pretrain")
        if args.command == "finetune":
            return cmd_train(args, "finetune")
        if args.command == "translate":
            return cmd_translate(args)
        if args.command == "score":
            return cmd_score(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
