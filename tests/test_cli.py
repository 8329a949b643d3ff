"""End-to-end command-line behavior and config round-trips."""

import os
import re
from dataclasses import fields

import numpy as np
import pytest

from roundtrip import autodiff as ad
from roundtrip import checkpoint as ckpt_io
from roundtrip.cli import main
from roundtrip.config import RunConfig, load_config, parse_config, serialize_config
from roundtrip.synth import generate_corpus, translate_tokens


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def corpus_dir(tmp_path):
    out = str(tmp_path / "corpus")
    assert run_cli("synth", "--task", "copy", "--size", "60", "--vocab", "10",
                   "--seed", "3", "--out-dir", out, "--dev-size", "10",
                   "--test-size", "10", "--min-len", "2", "--max-len", "4") == 0
    return out


def write_config(tmp_path, corpus, **extra):
    cfg = RunConfig(d_emb=16, d_hidden=16, d_attention=16, batch_size=16,
                    checkpoint_interval=10, max_updates=20, dropout=0.1,
                    seed=1, eval_bleu=False,
                    train_src=f"{corpus}/train.l1", train_tgt=f"{corpus}/train.l2",
                    dev_src=f"{corpus}/dev.l1", dev_tgt=f"{corpus}/dev.l2")
    for k, v in extra.items():
        setattr(cfg, k, v)
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write(serialize_config(cfg))
    return path


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, _ = generate_corpus("reversal", 50, 16, seed=9)
        b, _ = generate_corpus("reversal", 50, 16, seed=9)
        assert a == b

    def test_reversal_targets_are_reversed_sources(self):
        splits, _ = generate_corpus("reversal", 30, 16, seed=1)
        src, tgt = splits["train"]
        for s, t in zip(src, tgt):
            assert t.split() == s.split()[::-1]

    def test_cipher_is_involution(self):
        splits, cipher = generate_corpus("cipher", 30, 15, seed=2)
        src, tgt = splits["train"]
        for s, t in zip(src, tgt):
            once = translate_tokens("cipher", s.split(), cipher)
            twice = translate_tokens("cipher", once, cipher)
            assert t.split() == once
            assert twice == s.split()

    def test_splits_disjoint(self):
        splits, _ = generate_corpus("copy", 200, 8, seed=4, dev_size=50,
                                    test_size=50)
        train = set(splits["train"][0])
        dev = set(splits["dev"][0])
        test = set(splits["test"][0])
        assert not (train & dev) and not (train & test) and not (dev & test)

    def test_invalid_task_exits_nonzero(self, tmp_path):
        assert run_cli("synth", "--task", "nope", "--size", "5",
                       "--out-dir", str(tmp_path)) == 1


class TestTrainCommands:
    def test_bpe_pipeline_wired(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir, bpe_merges=40,
                                max_updates=4, checkpoint_interval=4)
        out = str(tmp_path / "bpe-run")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        assert os.path.exists(os.path.join(out, "bpe.merges"))

    def test_dev_bleu_logged_when_enabled(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir, eval_bleu=True,
                                max_updates=10, checkpoint_interval=10)
        out = str(tmp_path / "bleu-run")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        body = open(os.path.join(out, "bleu.csv")).read()
        assert "l1-l2" in body and "l2-l1" in body

    def test_train_then_finetune(self, tmp_path, corpus_dir):
        # pretraining runs without reconstruction whatever the config says
        cfg_path = write_config(tmp_path, corpus_dir, recon_mode="sampled")
        out = str(tmp_path / "pre")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        assert "recon_mode=none\n" in open(os.path.join(out, "config.txt")).read()
        ckpts = sorted(f for f in os.listdir(out) if f.startswith("checkpoint")
                       and not f.endswith("trainer.npz"))
        assert len(ckpts) == 2
        init = os.path.join(out, ckpts[-1])
        ft_out = str(tmp_path / "ft")
        assert run_cli("finetune", "--config", cfg_path, "--out-dir", ft_out,
                       "--init-checkpoint", init, "--recon-mode", "sampled",
                       "--max-updates", "10") == 0
        assert os.path.exists(os.path.join(ft_out, "metrics.csv"))

    def test_finetune_demands_init_checkpoint_flag(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir)
        assert run_cli("finetune", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "x")) == 1

    def test_missing_corpus_exits_one(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir, train_src="/nonexistent")
        assert run_cli("train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "x")) == 1

    def test_hidden_mode_accepted(self, tmp_path, corpus_dir):
        cfg_path = write_config(tmp_path, corpus_dir)
        out = str(tmp_path / "pre")
        assert run_cli("train", "--config", cfg_path, "--out-dir", out) == 0
        ckpts = sorted(f for f in os.listdir(out) if f.startswith("checkpoint")
                       and not f.endswith("trainer.npz"))
        init = os.path.join(out, ckpts[-1])
        assert run_cli("finetune", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "hid"),
                       "--init-checkpoint", init, "--recon-mode", "hidden",
                       "--max-updates", "10") == 0


class TestTranslate:
    def test_copy_model_identity_and_flags(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        sentences = [" ".join(p.source.tokens) for p in data["train"][:5]]
        inp.write_text("\n".join(sentences) + "\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1") == 0
        hyps = open(out).read().splitlines()
        assert hyps == sentences  # copy task: output equals input

    def test_tagged_input_lines(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(f"<l1> {sent}\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out) == 0
        assert open(out).read().splitlines() == [sent]

    def test_beam_flag_honored(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(sent + "\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1", "--beam", "3") == 0
        assert open(out).read().splitlines() == [sent]

    def test_precision_flag_does_not_leak(self, tmp_path, copy_model, fp64):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        inp.write_text(" ".join(data["train"][0].source.tokens) + "\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "hyp.txt"), "--src-lang", "l1",
                       "--precision", "fp32") == 0
        assert ad.default_dtype() == np.float64

    def test_empty_line_warns_and_emits_empty(self, tmp_path, copy_model, capsys):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        sent = " ".join(data["train"][0].source.tokens)
        inp.write_text(f"{sent}\n\n{sent}\n")
        out = str(tmp_path / "hyp.txt")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", out, "--src-lang", "l1") == 0
        lines = open(out).read().splitlines()
        assert lines == [sent, "", sent]
        assert "empty" in capsys.readouterr().err

    def test_unknown_language_errors(self, tmp_path, copy_model):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        inp.write_text("w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o"), "--src-lang", "zz") == 1

    def test_untagged_without_flag_errors(self, tmp_path, copy_model):
        params, vocab, _ = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        inp.write_text("w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o")) == 1

    def test_reserved_token_is_not_a_language_tag(self, tmp_path, copy_model):
        params, vocab, _ = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        inp = tmp_path / "input.txt"
        inp.write_text("<eos> w01 w02\n")
        assert run_cli("translate", "--checkpoint", ckpt, "--input", str(inp),
                       "--output", str(tmp_path / "o")) == 1


class TestScore:
    def test_identical_files_score_100(self, tmp_path, capsys):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\ne f g h\n")
        assert run_cli("score", "--hyp", str(f), "--ref", str(f)) == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_length_mismatch_exits_one(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("one line\n")
        b.write_text("one line\nsecond line\n")
        assert run_cli("score", "--hyp", str(a), "--ref", str(b)) == 1

    def test_empty_ref_exits_one(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("")
        b.write_text("")
        assert run_cli("score", "--hyp", str(a), "--ref", str(b)) == 1

    def test_delta_report_from_run_dirs(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        treat_dir = tmp_path / "treat"
        for d, scores in ((base_dir, (33.60, 33.50)), (treat_dir, (33.92, 33.82))):
            d.mkdir()
            with open(d / "bleu.csv", "w") as fh:
                fh.write("direction,seed,bleu\n")
                for seed, s in enumerate(scores, 1):
                    fh.write(f"l1-l2,{seed},{s}\n")
        assert run_cli("score", "--report", str(base_dir), str(treat_dir)) == 0
        out = capsys.readouterr().out
        assert "l1-l2" in out and "+0.32" in out

    def test_csv_row_written(self, tmp_path):
        f = tmp_path / "text.txt"
        f.write_text("a b c d\n")
        csv_path = tmp_path / "scores.csv"
        assert run_cli("score", "--hyp", str(f), "--ref", str(f),
                       "--csv-out", str(csv_path)) == 0
        body = csv_path.read_text()
        assert "bleu" in body and "100.0000" in body

    def test_perplexity_with_checkpoint(self, tmp_path, copy_model, capsys):
        params, vocab, data = copy_model
        ckpt = str(tmp_path / "model.npz")
        ckpt_io.save(ckpt, params, vocab, "fp32")
        src = tmp_path / "src.txt"
        ref = tmp_path / "ref.txt"
        src.write_text("\n".join(" ".join(p.source.tokens)
                                 for p in data["dev"][:6]) + "\n")
        ref.write_text("\n".join(" ".join(p.target.tokens)
                                 for p in data["dev"][:6]) + "\n")
        assert run_cli("score", "--hyp", str(ref), "--ref", str(ref),
                       "--src", str(src), "--checkpoint", ckpt) == 0
        out = capsys.readouterr().out
        assert "perplexity = " in out
        assert float(out.split("perplexity = ")[1].split()[0]) < len(vocab)

    def test_report_csv_out(self, tmp_path):
        base_dir = tmp_path / "base"
        treat_dir = tmp_path / "treat"
        for d, scores in ((base_dir, (30.0, 31.0)), (treat_dir, (30.5, 31.5))):
            d.mkdir()
            with open(d / "bleu.csv", "w") as fh:
                fh.write("direction,seed,bleu\nl1-l2,1,{}\nl1-l2,2,{}\n"
                         .format(*scores))
        out_csv = tmp_path / "delta.csv"
        assert run_cli("score", "--report", str(base_dir), str(treat_dir),
                       "--csv-out", str(out_csv)) == 0
        assert "delta_mean" in out_csv.read_text()


class TestGradcheckCommand:
    def test_passes_and_exit_zero(self, capsys):
        assert run_cli("gradcheck", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "end_to_end_lt_lr" in out

    def test_corrupted_gradient_detected(self, capsys):
        assert run_cli("gradcheck", "--seed", "0", "--corrupt") == 2
        assert "FAIL" in capsys.readouterr().out

    def test_repeated_runs_identical_report(self, capsys):
        run_cli("gradcheck", "--seed", "1")
        first = capsys.readouterr().out
        run_cli("gradcheck", "--seed", "1")
        second = capsys.readouterr().out
        assert first == second


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig(d_emb=32, beta=0.5, recon_mode="hidden", layer_norm=False,
                        train_src="/data/x")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("no_such_key=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            parse_config("batch_size=lots\n")
        with pytest.raises(ValueError):
            parse_config("layer_norm=maybe\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nbatch_size=12\n")
        assert cfg.batch_size == 12

    def test_invalid_enums_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(precision="fp16")
        with pytest.raises(ValueError):
            RunConfig(recon_mode="both")
        with pytest.raises(ValueError):
            RunConfig(reduction="median")

    def test_overrides_are_validated(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size=12\n")
        cfg = load_config(str(path), seed=4, max_updates=None)
        assert (cfg.batch_size, cfg.seed, cfg.max_updates) == (12, 4, 0)
        with pytest.raises(ValueError, match="recon_mode"):
            load_config(str(path), recon_mode="bogus")

    def test_readme_lists_every_config_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read()
        section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([a-z_][a-z0-9_]*)`", section))
        assert named == {f.name for f in fields(RunConfig)}


def test_usage_error_exits_one():
    assert run_cli("train") == 1  # missing --config
