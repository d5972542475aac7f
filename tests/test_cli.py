import argparse
import functools
import gc
import io
import json
import math
import os
import struct
import subprocess
import sys
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import chemner.cli
from chemner.bilm import BILM_CONFIG_TYPES, BiLm, BiLmConfig, bilm_from_checkpoint
from chemner.cli import main
from chemner.corpus import build_vocabulary, read_column_corpus, write_column_corpus
from chemner.model import MODEL_CONFIG_TYPES, ModelConfig, NerModel, model_from_checkpoint
from chemner.training import VOCAB_TYPES, load_checkpoint, make_checkpoint, save_checkpoint

from conftest import toy_corpus
from oracles import traced_peak


@pytest.fixture
def corpus_file(tmp_path):
    sentences, scheme = toy_corpus()
    path = tmp_path / "corpus.tsv"
    write_column_corpus(str(path), sentences, scheme)
    return path, sentences, scheme


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTokenizeCommand:
    def test_chemical_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2,5-diphenyl bromide melts."))
        code, out, _ = run(capsys, "tokenize", "--mode", "chemical")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines[0].split("\t") == ["0", "12", "2,5-diphenyl"]

    @pytest.mark.parametrize("rules", ["1", "null", "[]", '{"suffixes": 5}',
                                       '{"suffixes": "yl"}', '{"suffixes": ["yl", 1]}',
                                       '{"no_split_chars": 5}', '{"no_split_chars": ["-"]}'])
    def test_rules_of_the_wrong_json_type_exit_2(self, capsys, monkeypatch, tmp_path, rules):
        import io
        path = tmp_path / "rules.json"
        path.write_text(rules, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO("2-methylpropyl bromide melts."))
        code, out, err = run(capsys, "tokenize", "--mode", "chemical", "--rules", str(path))
        assert (code, out) == (2, "")
        assert "rule config" in err

    def test_unknown_flag_usage_error(self, capsys):
        code, _, err = run(capsys, "tokenize", "--bogus")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


@pytest.fixture
def fresh_process(monkeypatch):
    """A process set-up of the test's own, made at its first command; the
    suite's is back after the test."""
    monkeypatch.setattr(chemner.cli, "_process",
                        functools.cache(chemner.cli._process.__wrapped__))


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def subprocess_env(**variables) -> dict:
    """This environment without the BLAS thread variables, with ``src/`` on
    the path and ``variables`` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(chemner.cli.__file__).parents[1]), **variables}


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestProcessSetUp:
    """The first command of a process builds the argument parser, looks up
    ``malloc_trim`` and, unless a variable sets a count, gives numpy's
    OpenBLAS one thread; later commands reuse the first one's set-up."""

    def tokenize(self, capsys, monkeypatch) -> tuple[int, str, str]:
        monkeypatch.setattr("sys.stdin", io.StringIO("bromide melts."))
        return run(capsys, "tokenize")

    def test_two_commands_build_one_parser(self, capsys, monkeypatch, fresh_process):
        built = []
        build = chemner.cli.build_parser
        monkeypatch.setattr(chemner.cli, "build_parser", lambda: built.append(1) or build())
        assert [self.tokenize(capsys, monkeypatch)[0] for _ in range(2)] == [0, 0]
        assert built == [1]

    def test_a_command_leaves_no_argparse_garbage(self, capsys, monkeypatch):
        self.tokenize(capsys, monkeypatch)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code = self.tokenize(capsys, monkeypatch)[0]
            gc.collect()
            left = [o for o in gc.garbage if type(o).__module__ == "argparse"
                    or isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert code == 0 and left == []

    def test_a_blas_without_the_setter_is_one_stderr_line(self, capsys, monkeypatch,
                                                          fresh_process):
        for name in BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(chemner.cli, "_openblas", lambda: object())
        results = [self.tokenize(capsys, monkeypatch) for _ in range(2)]
        assert [code for code, _, _ in results] == [0, 0]
        assert "bromide" in results[1][1]
        errors = "".join(err for _, _, err in results).splitlines()
        assert len(errors) == 1 and "left as it is" in errors[0]

    THREADS = ("import io, sys\n"
               "from chemner import cli\n"
               "blas = cli._openblas()\n"
               "before = blas.scipy_openblas_get_num_threads64_()\n"
               "sys.stdin = io.StringIO('bromide melts.')\n"
               "assert cli.main(['tokenize']) == 0\n"
               "print(before, blas.scipy_openblas_get_num_threads64_(), file=sys.stderr)\n")

    @pytest.mark.skipif(chemner.cli._openblas() is None, reason="numpy bundles no OpenBLAS")
    @pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                           {"OMP_NUM_THREADS": "2"}])
    def test_threads_after_a_command(self, variables):
        proc = subprocess.run([sys.executable, "-c", self.THREADS],
                              env=subprocess_env(**variables), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stderr.split())
        if variables:  # a set count wins
            assert (before, after) == (2, 2)
        else:  # importing chemner changes nothing; its first command pins one
            assert after == 1 and before == min(affinity_cpus(), 64)

    @pytest.mark.skipif(affinity_cpus() < 2, reason="one CPU: OpenBLAS runs one thread anyway")
    def test_unset_variables_train_the_bits_of_one_thread(self, capsys, corpus_file, tmp_path):
        # a contextual model of a biLSTM of 70 over a biLM layer of 72: sizes
        # at which one OpenBLAS thread and two train different bytes
        path, sentences, scheme = corpus_file
        plain = tmp_path / "plain.txt"
        plain.write_text("\n".join(" ".join(s.texts) for s in sentences), encoding="utf-8")
        bilm = tmp_path / "bilm.ckpt"
        code, _, err = run(capsys, "train-bilm", "--corpus", str(plain), "--epochs", "1",
                           "--seed", "1", "--out", str(bilm), "--char-embed-dim", "4",
                           "--filter-count", "4", "--layer-dim", "72")
        assert code == 0, err
        config = {"labels": list(scheme.entity_labels),
                  "model": {"word_dim": 8, "char_embed_dim": 4, "char_filter_count": 4,
                            "char_output_dim": 4, "lstm_hidden": 70},
                  "train": {"learning_rate": 0.01, "max_epochs": 1, "patience": 1, "seed": 2},
                  "bilm": str(bilm)}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        written = []
        for name, variables in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            proc = subprocess.run([sys.executable, "-m", "chemner.cli", "train", "--config",
                                   str(cfg), "--train", str(path), "--dev", str(path),
                                   "--out", str(out)], env=subprocess_env(**variables),
                                  capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            written.append((out / "model.ckpt").read_bytes())
        assert written[0] == written[1]


class TestHeapGivenBack:
    """Under glibc a command gives the heap's free pages back when it ends,
    also when it fails; without glibc it runs all the same."""

    @pytest.mark.parametrize("argv", [["tokenize", "--mode", "chemical"], ["tokenize", "--bogus"],
                                      ["stats", "--corpus", "missing.tsv", "--labels", "X"],
                                      "interrupted"])
    def test_trim_after_the_command(self, monkeypatch, fresh_process, argv):
        events = []

        class Libc:
            def malloc_trim(self, pad):
                events.append(("malloc_trim", pad))
                return 1
        run_command = chemner.cli._run

        def traced(args):
            try:
                if args == "interrupted":
                    raise KeyboardInterrupt
                return run_command(args)
            finally:
                events.append("command")
        monkeypatch.setattr(chemner.cli.ctypes, "CDLL", lambda name: Libc())
        monkeypatch.setattr(chemner.cli, "_run", traced)
        monkeypatch.setattr("sys.stdin", io.StringIO("bromide melts."))
        if argv == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            main(argv)
        assert events == ["command", ("malloc_trim", 0)]

    @pytest.mark.parametrize("libc", ["unloadable", "not glibc"])
    def test_without_glibc_nothing_changes(self, capsys, monkeypatch, fresh_process, libc):
        def cdll(name):
            if libc == "unloadable":
                raise OSError("no C library")
            return object()
        monkeypatch.setattr(chemner.cli.ctypes, "CDLL", cdll)
        monkeypatch.setattr("sys.stdin", io.StringIO("2-methylpropyl bromide melts."))
        code, out, _ = run(capsys, "tokenize", "--mode", "chemical")
        assert code == 0 and "bromide" in out


class TestStatsCommand:
    def test_stats_json(self, capsys, corpus_file):
        path, sentences, _ = corpus_file
        code, out, _ = run(capsys, "stats", "--corpus", str(path),
                           "--labels", "CHEM,PROC,QTY")
        assert code == 0
        payload = json.loads(out)
        assert payload["sentences"] == len(sentences)
        assert payload["entities"]["CHEM"] == 20

    def test_missing_file_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--corpus", str(tmp_path / "nope.tsv"),
                           "--labels", "A")
        assert code == 2
        assert "error" in err

    def test_unknown_label_data_error(self, capsys, corpus_file):
        path, _, _ = corpus_file
        code, _, _ = run(capsys, "stats", "--corpus", str(path), "--labels", "A,B")
        assert code == 2

    def test_byte_that_is_not_utf8_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"water\tO\n\nacid\tO\nsalt\xe9\tO\n")
        code, _, err = run(capsys, "stats", "--corpus", str(path), "--labels", "A")
        assert code == 2
        assert err.startswith(f"error: {path}:4: not UTF-8 text (byte 0xe9")


class TestSplitCommand:
    def test_split_writes_three_files(self, capsys, corpus_file, tmp_path):
        path, _, _ = corpus_file
        out_dir = tmp_path / "splits"
        code, out, _ = run(capsys, "split", "--corpus", str(path),
                           "--labels", "CHEM,PROC,QTY", "--seed", "7",
                           "--out", str(out_dir))
        assert code == 0
        assert "train=3 dev=1 test=1" in out
        for name in ("train", "dev", "test"):
            assert (out_dir / f"{name}.tsv").exists()

    def test_split_deterministic(self, capsys, corpus_file, tmp_path):
        path, _, _ = corpus_file
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        run(capsys, "split", "--corpus", str(path), "--labels", "CHEM,PROC,QTY",
            "--seed", "3", "--out", str(d1))
        run(capsys, "split", "--corpus", str(path), "--labels", "CHEM,PROC,QTY",
            "--seed", "3", "--out", str(d2))
        for name in ("train", "dev", "test"):
            assert (d1 / f"{name}.tsv").read_text() == (d2 / f"{name}.tsv").read_text()

    @pytest.mark.parametrize("ratios", ["1.5,-0.5,0", "0.5,0.7,-0.2", "nan,0.5,0.5"])
    def test_negative_or_non_finite_ratio_exit_2(self, corpus_file, tmp_path, ratios):
        # in a subprocess with a timeout, so a split that never ends fails
        # the test instead of hanging the suite
        path, _, _ = corpus_file
        env = {**os.environ, "PYTHONPATH": str(Path(chemner.cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "chemner.cli", "split", "--corpus",
                               str(path), "--labels", "CHEM,PROC,QTY", "--ratios", ratios,
                               "--out", str(tmp_path / "s")],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "finite and non-negative" in proc.stderr
        assert not (tmp_path / "s").exists()


class TestEvalCommand:
    def test_negative_errors_is_a_usage_error(self, capsys, corpus_file):
        path, _, _ = corpus_file
        args = ("eval", "--gold", str(path), "--pred", str(path), "--labels", "CHEM,PROC,QTY")
        code, _, err = run(capsys, *args, "--errors", "-1")
        assert code == 1 and "--errors" in err
        assert run(capsys, *args, "--errors", "2")[0] == 0


@pytest.fixture
def trained_setup(tmp_path, corpus_file, capsys):
    """A fast end-to-end CLI training run shared by tag/eval tests."""
    path, sentences, scheme = corpus_file
    config = {
        "labels": list(scheme.entity_labels),
        "tokenizer": {"mode": "chemical", "rules": None},
        "model": {"word_dim": 8, "char_embed_dim": 4, "char_filter_count": 4,
                  "char_output_dim": 4, "lstm_hidden": 8},
        "train": {"learning_rate": 0.01, "max_epochs": 3, "patience": 3, "seed": 5},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "run_out"
    code, out, err = run(capsys, "train", "--config", str(cfg_path),
                         "--train", str(path), "--dev", str(path),
                         "--out", str(out_dir))
    assert code == 0, err
    return path, out_dir, scheme, cfg_path


class TestTrainTagEval:
    def test_train_outputs(self, trained_setup):
        _, out_dir, _, _ = trained_setup
        assert (out_dir / "model.ckpt").exists()
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["epochs"] and "best_f1" in report

    def test_failed_report_write_keeps_previous_report(self, capsys, trained_setup,
                                                        monkeypatch):
        corpus_path, out_dir, _, cfg_path = trained_setup
        before = (out_dir / "train_report.json").read_bytes()

        def failing_dump(obj, f, **kwargs):
            f.write('{"epochs": [')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        code, _, err = run(capsys, "train", "--config", str(cfg_path), "--train",
                           str(corpus_path), "--dev", str(corpus_path), "--out", str(out_dir),
                           "--seed", "6")
        assert (code, err) == (2, "error: disk full\n")
        assert (out_dir / "train_report.json").read_bytes() == before
        assert [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")] == []

    def test_tag_then_eval_reproduces_dev_f1(self, capsys, trained_setup, tmp_path):
        corpus_path, out_dir, scheme, _ = trained_setup
        ckpt = str(out_dir / "model.ckpt")
        pred_path = tmp_path / "pred.tsv"
        code, _, err = run(capsys, "tag", "--model", ckpt, "--in", str(corpus_path),
                           "--out", str(pred_path))
        assert code == 0, err
        code, out, err = run(capsys, "eval", "--gold", str(corpus_path),
                             "--pred", str(pred_path),
                             "--labels", ",".join(scheme.entity_labels))
        assert code == 0, err
        report = json.loads((out_dir / "train_report.json").read_text())
        best = report["best_f1"]
        micro_line = [l for l in out.splitlines() if l.startswith("Micro Avg.")][0]
        printed_f1 = float(micro_line.split()[-1])
        assert printed_f1 == pytest.approx(best, abs=5e-5)  # 4-decimal print
        # exact reproduction through the library
        from chemner.corpus import read_column_corpus
        from chemner.evaluation import evaluate
        gold = read_column_corpus(str(corpus_path), scheme)
        pred = read_column_corpus(str(pred_path), scheme)
        exact = evaluate(gold, [list(s.tags) for s in pred], scheme).micro.f1
        assert exact == best

    def test_tag_raw_text(self, capsys, trained_setup, tmp_path):
        _, out_dir, _, _ = trained_setup
        raw = tmp_path / "raw.txt"
        raw.write_text("The 2-chlorotoluene was added. Then heating began.",
                       encoding="utf-8")
        code, out, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                             "--in", str(raw), "--raw")
        assert code == 0, err
        lines = [l for l in out.splitlines() if l]
        assert all(len(l.split("\t")) == 2 for l in lines)

    def test_tag_one_column_tokens(self, capsys, trained_setup, tmp_path):
        corpus_path, out_dir, _, _ = trained_setup
        ckpt = str(out_dir / "model.ckpt")
        two_col = tmp_path / "two.tsv"
        code, _, err = run(capsys, "tag", "--model", ckpt, "--in", str(corpus_path),
                           "--out", str(two_col))
        assert code == 0, err
        one_col = tmp_path / "tokens.txt"
        one_col.write_text(
            "".join(line.split("\t")[0] + "\n"
                    for line in corpus_path.read_text(encoding="utf-8").splitlines()),
            encoding="utf-8")
        code, out, err = run(capsys, "tag", "--model", ckpt, "--in", str(one_col))
        assert code == 0, err
        assert out == two_col.read_text(encoding="utf-8")

    def test_tag_three_columns_data_error(self, capsys, trained_setup, tmp_path):
        _, out_dir, _, _ = trained_setup
        bad = tmp_path / "three.tsv"
        bad.write_text("water\tO\textra\n", encoding="utf-8")
        code, _, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                           "--in", str(bad))
        assert code == 2
        assert "three.tsv:1" in err

    def test_corrupt_checkpoint_exit_2(self, capsys, tmp_path, trained_setup):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage!")
        code, _, err = run(capsys, "tag", "--model", str(bad), "--in", str(bad))
        assert code == 2
        assert "bad.ckpt" in err

    def test_unknown_checkpoint_block_exit_2(self, capsys, tmp_path, trained_setup):
        _, out_dir, _, _ = trained_setup
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((out_dir / "model.ckpt").read_bytes()
                        .replace(b"p/crf.start", b"q/crf.start"))
        code, _, err = run(capsys, "tag", "--model", str(bad), "--in", str(bad))
        assert code == 2
        assert "q/crf.start" in err

    def test_non_finite_model_exit_3(self, capsys, tmp_path, trained_setup):
        corpus_path, out_dir, _, _ = trained_setup
        ckpt = load_checkpoint(str(out_dir / "model.ckpt"))
        ckpt.tensors["emit.b"][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, str(bad))
        code, _, err = run(capsys, "tag", "--model", str(bad), "--in", str(corpus_path))
        assert code == 3
        assert "non-finite" in err

    def test_failed_tag_keeps_previous_output(self, capsys, tmp_path, trained_setup):
        corpus_path, out_dir, _, _ = trained_setup
        pred = tmp_path / "pred.tsv"
        code, _, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                           "--in", str(corpus_path), "--out", str(pred))
        assert code == 0, err
        before = pred.read_bytes()
        ckpt = load_checkpoint(str(out_dir / "model.ckpt"))
        ckpt.tensors["emit.b"][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, str(bad))
        code, _, _ = run(capsys, "tag", "--model", str(bad), "--in", str(corpus_path),
                         "--out", str(pred))
        assert code == 3
        assert pred.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []

    def test_tag_matches_per_sentence_predict(self, capsys, trained_setup, tmp_path):
        from chemner.corpus import read_column_corpus
        from chemner.model import model_from_checkpoint
        corpus_path, out_dir, scheme, _ = trained_setup
        pred = tmp_path / "pred.tsv"
        code, out, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                             "--in", str(corpus_path), "--out", str(pred))
        assert code == 0 and out == "", err
        model = model_from_checkpoint(load_checkpoint(str(out_dir / "model.ckpt")))
        sentences = read_column_corpus(str(corpus_path), None)
        tagged = read_column_corpus(str(pred), scheme)
        assert [list(s.tags) for s in tagged] == [model.predict(s) for s in sentences]
        assert [s.texts for s in tagged] == [s.texts for s in sentences]

    def test_tag_raw_text_with_byte_order_mark(self, capsys, trained_setup, tmp_path):
        _, out_dir, _, _ = trained_setup
        raw = tmp_path / "raw.txt"
        raw.write_text("\ufeffwater was added.", encoding="utf-8")
        code, out, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                             "--in", str(raw), "--raw")
        assert code == 0, err
        assert out.splitlines()[0].split("\t")[0] == "water"

    def test_tag_raw_byte_that_is_not_utf8_names_its_line(self, capsys, trained_setup,
                                                          tmp_path):
        _, out_dir, _, _ = trained_setup
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"water was added.\nThe acid \xff was stirred.\n")
        out = tmp_path / "tags.tsv"
        code, _, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                           "--in", str(raw), "--raw", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {raw}:2: not UTF-8 text (byte 0xff")
        assert not out.exists()

    def test_train_determinism(self, capsys, trained_setup, tmp_path):
        corpus_path, out_dir, _, cfg_path = trained_setup
        out2 = tmp_path / "again"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--train", str(corpus_path), "--dev", str(corpus_path),
                         "--out", str(out2))
        assert code == 0
        assert (out_dir / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out_dir / "train_report.json").read_text() == \
            (out2 / "train_report.json").read_text()


def block_spans(raw: bytes) -> dict[str, tuple[int, int]]:
    """The start and end offsets of each tensor block of checkpoint bytes."""
    at = 20 + struct.unpack("<Q", raw[12:20])[0]
    count = struct.unpack("<I", raw[at:at + 4])[0]
    at += 4
    spans = {}
    for _ in range(count):
        start = at
        name_len = struct.unpack("<I", raw[at:at + 4])[0]
        name = raw[at + 4:at + 4 + name_len].decode("utf-8")
        at += 4 + name_len
        ndim = struct.unpack("<I", raw[at:at + 4])[0]
        shape = struct.unpack(f"<{ndim}Q", raw[at + 4:at + 4 + 8 * ndim])
        at += 4 + 8 * ndim + 8 * math.prod(shape)
        spans[name] = (start, at)
    return spans


class TestTagMemory:
    """``chemner tag`` skips the Adam moments of a train-written checkpoint
    and frees the checkpoint before it decodes, its arrays kept by the
    model."""

    def test_tag_reads_no_moments_and_matches_a_full_load(self, capsys, corpus_file,
                                                          tmp_path):
        path, sentences, scheme = corpus_file
        config = {"labels": list(scheme.entity_labels),
                  "model": {"word_dim": 32, "char_embed_dim": 4, "char_filter_count": 8,
                            "char_output_dim": 8, "lstm_hidden": 48},
                  "train": {"max_epochs": 1, "patience": 1, "seed": 5}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(cfg_path), "--train", str(path),
                           "--dev", str(path), "--out", str(tmp_path / "run_out"))
        assert code == 0, err
        written = tmp_path / "run_out" / "model.ckpt"
        full = load_checkpoint(str(written))
        moments = sum(a.nbytes for a in [*full.opt_m.values(), *full.opt_v.values()])
        assert moments > 0
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(replace(full, opt_m={}, opt_v={}), str(bare))
        want = model_from_checkpoint(full).predict_batch(read_column_corpus(str(path), None))
        del full

        def tag(model, out):
            return traced_peak(lambda: main(["tag", "--model", str(model), "--in", str(path),
                                             "--out", str(out)]))

        peak_written, peak_bare = tag(written, tmp_path / "a.tsv"), tag(bare, tmp_path / "b.tsv")
        assert peak_written - peak_bare < moments / 4, (peak_written, peak_bare, moments)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        assert [list(s.tags) for s in read_column_corpus(str(tmp_path / "a.tsv"),
                                                          scheme)] == want

    def test_checkpoint_freed_before_decoding(self, capsys, trained_setup, monkeypatch):
        # the Checkpoint object is gone before the first decode; each of its
        # arrays lives on only as the model's parameter of that name
        corpus_path, out_dir, _, _ = trained_setup
        ckpt_refs = []
        tensor_refs = {}
        predicted = []

        def load(*args, **kwargs):
            ckpt = load_checkpoint(*args, **kwargs)
            ckpt_refs.append(weakref.ref(ckpt))
            tensor_refs.update((name, weakref.ref(a)) for name, a in ckpt.tensors.items())
            return ckpt

        def predict_batch(model, sentences):
            named = model.all_tensors()
            predicted.append(([ref() is None for ref in ckpt_refs],
                              sorted(named) == sorted(tensor_refs)
                              and all(ref() is named[name].value
                                      for name, ref in tensor_refs.items())))
            return real_predict_batch(model, sentences)

        real_predict_batch = NerModel.predict_batch
        monkeypatch.setattr(chemner.cli, "load_checkpoint", load)
        monkeypatch.setattr(NerModel, "predict_batch", predict_batch)
        code, _, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                           "--in", str(corpus_path))
        assert code == 0, err
        assert len(tensor_refs) > 1 and predicted == [([True], True)]

    @pytest.mark.parametrize("group", ["m/", "v/"])
    @pytest.mark.parametrize("damage", ["truncated", "oversized", "repeated"])
    def test_damaged_moment_block_exit_2(self, capsys, tmp_path, trained_setup, group,
                                         damage):
        corpus_path, out_dir, _, _ = trained_setup
        raw = (out_dir / "model.ckpt").read_bytes()
        spans = block_spans(raw)
        assert len(raw) == max(end for _, end in spans.values())
        name = next(n for n in spans if n.startswith(group))
        start, end = spans[name]
        if damage == "truncated":
            raw = raw[:end - 8]
        elif damage == "oversized":
            at = start + 8 + len(name.encode("utf-8"))
            raw = raw[:at] + struct.pack("<Q", 2 ** 40) + raw[at + 8:]
        else:
            at = 20 + struct.unpack("<Q", raw[12:20])[0]
            count = struct.unpack("<I", raw[at:at + 4])[0]
            raw = (raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:end]
                   + raw[start:end] + raw[end:])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        code, out, err = run(capsys, "tag", "--model", str(bad), "--in", str(corpus_path))
        assert (code, out) == (2, "")
        assert name in err


class TestTrainBilmCommand:
    def test_train_bilm_checkpoint(self, capsys, tmp_path):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        out = tmp_path / "bilm.ckpt"
        code, stdout, err = run(capsys, "train-bilm", "--corpus", str(corpus),
                                "--epochs", "3", "--seed", "1", "--out", str(out),
                                "--char-embed-dim", "4", "--filter-count", "4",
                                "--layer-dim", "8")
        assert code == 0, err
        assert "perplexity" in stdout
        ckpt = load_checkpoint(str(out))
        assert ckpt.kind == "bilm"
        assert len(ckpt.meta["perplexities"]) == 3

    @pytest.mark.parametrize("flags", [
        ("--epochs", "0"), ("--epochs", "-1"), ("--layer-dim", "0"),
        ("--filter-count", "0"), ("--char-embed-dim", "0"), ("--filter-width", "0")],
        ids=lambda flags: f"{flags[0][2:]}={flags[1]}")
    def test_train_bilm_bad_size_is_data_error(self, capsys, tmp_path, flags):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        out = tmp_path / "bilm.ckpt"
        argv = {"--epochs": "1", "--char-embed-dim": "4", "--filter-count": "4",
                "--layer-dim": "8", "--filter-width": "3"}
        argv[flags[0]] = flags[1]
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus), "--out", str(out),
                           *(x for item in argv.items() for x in item))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [corpus]

    @pytest.mark.parametrize("min_count", ["0", "-2"])
    def test_min_count_below_one_exit_2(self, capsys, tmp_path, min_count):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus), "--epochs", "1",
                           "--out", str(tmp_path / "bilm.ckpt"), "--min-count", min_count,
                           "--char-embed-dim", "4", "--filter-count", "4", "--layer-dim", "8")
        assert code == 2
        assert err == f"error: min_count must be >= 1, got {min_count}\n"
        assert list(tmp_path.iterdir()) == [corpus]

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus), "--epochs", "1",
                           "--out", str(tmp_path / "bilm.ckpt"), "--seed", "-1")
        assert code == 2
        assert err == "error: train config seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == [corpus]

    def test_train_bilm_byte_that_is_not_utf8_names_its_line(self, capsys, tmp_path):
        corpus = tmp_path / "plain.txt"
        corpus.write_bytes(b"the cat sat\n\nthe d\xc3g ran\n")
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus), "--epochs", "1",
                           "--out", str(tmp_path / "bilm.ckpt"))
        assert code == 2
        assert err.startswith(f"error: {corpus}:3: not UTF-8 text (byte 0xc3")
        assert list(tmp_path.iterdir()) == [corpus]

    def test_train_bilm_corpus_with_byte_order_mark(self, capsys, tmp_path):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("\ufeffthe cat sat\nthe dog ran\n", encoding="utf-8")
        out = tmp_path / "bilm.ckpt"
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus),
                           "--epochs", "1", "--out", str(out), "--char-embed-dim", "4",
                           "--filter-count", "4", "--layer-dim", "8")
        assert code == 0, err
        words = load_checkpoint(str(out)).vocab["words"]
        assert "the" in words and not any("\ufeff" in w for w in words)


class TestFullPipeline:
    def test_train_with_embeddings_and_bilm(self, capsys, corpus_file, tmp_path):
        path, sentences, scheme = corpus_file
        # tiny pre-trained embedding file covering two corpus words
        vec = tmp_path / "vectors.txt"
        dim = 8
        rows = [f"benzene {' '.join(['0.5'] * dim)}",
                f"heating {' '.join(['-0.25'] * dim)}"]
        vec.write_text(f"2 {dim}\n" + "\n".join(rows) + "\n", encoding="utf-8")

        plain = tmp_path / "plain.txt"
        plain.write_text("\n".join(" ".join(s.texts) for s in sentences),
                         encoding="utf-8")
        bilm_ckpt = tmp_path / "bilm.ckpt"
        code, _, err = run(capsys, "train-bilm", "--corpus", str(plain),
                           "--epochs", "2", "--seed", "1", "--out", str(bilm_ckpt),
                           "--char-embed-dim", "4", "--filter-count", "4",
                           "--layer-dim", "8")
        assert code == 0, err

        config = {
            "labels": list(scheme.entity_labels),
            "tokenizer": {"mode": "chemical", "rules": None},
            "model": {"word_dim": dim, "char_embed_dim": 4, "char_filter_count": 4,
                      "char_output_dim": 4, "lstm_hidden": 8},
            "train": {"learning_rate": 0.01, "max_epochs": 2, "patience": 2,
                      "seed": 2},
            "embeddings": str(vec),
            "bilm": str(bilm_ckpt),
        }
        cfg_path = tmp_path / "full.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "full_out"
        code, out, err = run(capsys, "train", "--config", str(cfg_path),
                             "--train", str(path), "--dev", str(path),
                             "--out", str(out_dir))
        assert code == 0, err

        ckpt = load_checkpoint(str(out_dir / "model.ckpt"))
        assert ckpt.config["use_contextual"] is True
        assert ckpt.config["use_pretrained_words"] is True
        assert ckpt.config["contextual_dim"] == 16
        assert any(name.startswith("bilm.") for name in ckpt.tensors)
        assert ckpt.trainable["words"] is False
        # pre-trained rows enter the word table verbatim
        from chemner.model import model_from_checkpoint
        model = model_from_checkpoint(ckpt)
        wid = model.vocab.word_id("benzene")
        assert np.array_equal(model.params["words"].value[wid], np.full(dim, 0.5))

        # tagging with the contextual checkpoint works end to end
        pred_path = tmp_path / "pred_full.tsv"
        code, _, err = run(capsys, "tag", "--model", str(out_dir / "model.ckpt"),
                           "--in", str(path), "--out", str(pred_path))
        assert code == 0, err
        assert pred_path.read_text().strip()


    def test_train_without_seed_flag_reproducible_with_embeddings(self, capsys,
                                                                  corpus_file, tmp_path):
        # the unseen embedding rows are drawn from the config seed
        path, _, scheme = corpus_file
        vec = tmp_path / "vectors.txt"
        vec.write_text("1 4\nbenzene 0.5 0.5 0.5 0.5\n", encoding="utf-8")
        config = {"labels": list(scheme.entity_labels),
                  "model": {"word_dim": 4, "char_embed_dim": 4, "char_filter_count": 4,
                            "char_output_dim": 4, "lstm_hidden": 4},
                  "train": {"learning_rate": 0.01, "max_epochs": 1, "patience": 1,
                            "seed": 3},
                  "embeddings": str(vec)}
        cfg_path = tmp_path / "emb.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        outs = []
        for name in ("a", "b"):
            code, _, err = run(capsys, "train", "--config", str(cfg_path), "--train",
                               str(path), "--dev", str(path), "--out", str(tmp_path / name))
            assert code == 0, err
            outs.append((tmp_path / name / "model.ckpt").read_bytes())
        assert outs[0] == outs[1]


class TestTrainEmbeddingFile:
    """``chemner train`` with a pre-trained embedding file and its sidecar."""

    def train(self, capsys, corpus_file, tmp_path, vectors: bytes, out="out"):
        path, _, scheme = corpus_file
        vec = tmp_path / "vectors.txt"
        vec.write_bytes(vectors)
        config = {"labels": list(scheme.entity_labels),
                  "model": {"word_dim": 4, "char_embed_dim": 4, "char_filter_count": 4,
                            "char_output_dim": 4, "lstm_hidden": 4},
                  "train": {"learning_rate": 0.01, "max_epochs": 1, "patience": 1,
                            "seed": 3},
                  "embeddings": str(vec)}
        cfg_path = tmp_path / "emb.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        return (vec, *run(capsys, "train", "--config", str(cfg_path), "--train", str(path),
                          "--dev", str(path), "--out", str(tmp_path / out)))

    def test_unwritable_sidecar_is_one_stderr_line(self, capsys, corpus_file, tmp_path,
                                                   monkeypatch):
        replace = os.replace

        def deny_sidecar(src, dst):
            if str(dst).endswith(".chemner-cache"):
                raise PermissionError(13, "Permission denied", dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", deny_sidecar)
        vec, code, _, err = self.train(capsys, corpus_file, tmp_path,
                                       b"1 4\nbenzene 0.5 0.5 0.5 0.5\n")
        assert code == 0, err
        assert err.splitlines() == [f"warning: {vec}: parse not cached: [Errno 13] "
                                    f"Permission denied: '{vec}.chemner-cache'"]
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert not (tmp_path / "vectors.txt.chemner-cache").exists()

    def test_sidecar_keeps_the_checkpoint_bytes(self, capsys, corpus_file, tmp_path):
        # no sidecar, a fresh one, and a stale one from another text of the same size
        text = b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 2 3 4\n"
        outs = []
        for name in ("none", "fresh", "stale"):
            if name == "stale":
                self.train(capsys, corpus_file, tmp_path, text.replace(b"1 2", b"5 6"), "x")
            vec, code, _, err = self.train(capsys, corpus_file, tmp_path, text, name)
            assert code == 0 and not err, err
            outs.append((tmp_path / name / "model.ckpt").read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("vectors,line", [
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 2", 3),       # truncated
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 2 3 4\nx", 4),  # extended
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 2 3 \x04\n", 3),  # flipped
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 2 3 \xb4\n", 3),  # not UTF-8
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\n", 2),                  # a row short
        (b"0 99999999999999999999\n", 1),                         # a dim numpy refuses
        (b"2 4\nbenzene 0.5 0.5 0.5 0.5\nacetone 1 nan 3 4\n", 3),  # not finite
    ])
    def test_malformed_text_exit_2_naming_its_line(self, capsys, corpus_file, tmp_path,
                                                  vectors, line):
        vec, code, _, err = self.train(capsys, corpus_file, tmp_path, vectors)
        assert code == 2
        assert err.startswith(f"error: {vec}:{line}: ") and "Traceback" not in err
        assert not (tmp_path / "vectors.txt.chemner-cache").exists()


class TestConfigValidation:
    def test_unknown_config_key_rejected(self, capsys, corpus_file, tmp_path):
        path, _, scheme = corpus_file
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"labels": ["A"], "bogus_key": 1}), encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train", str(path),
                           "--dev", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown keys" in err

    def test_missing_referenced_path(self, capsys, corpus_file, tmp_path):
        path, _, _ = corpus_file
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"labels": ["A"],
                                   "embeddings": str(tmp_path / "missing.vec")}),
                       encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train", str(path),
                           "--dev", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "does not exist" in err


class TestJsonInputs:
    """The run config, the ``train-bilm`` config and the tokenizer rules are
    read by one opener: a BOM is accepted, and a byte that is not UTF-8 or
    a JSON syntax error is exit 2 naming the file and its line."""

    READERS = ("run config", "train-bilm config", "rules")

    def read(self, capsys, monkeypatch, tmp_path, corpus_path, reader, raw: bytes):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        if reader == "run config":
            argv = ("train", "--config", path, "--train", corpus_path, "--dev", corpus_path,
                    "--out", tmp_path / "out")
        elif reader == "train-bilm config":
            plain = tmp_path / "plain.txt"
            plain.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
            argv = ("train-bilm", "--config", path, "--corpus", plain, "--epochs", "1",
                    "--out", tmp_path / "out")
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO("2-methylpropyl bromide melts."))
            argv = ("tokenize", "--mode", "chemical", "--rules", path)
        code, out, err = run(capsys, *map(str, argv))
        assert "Traceback" not in err
        return path, code, out, err

    @staticmethod
    def valid(reader) -> bytes:
        obj = {"run config": RUN_CONFIG,
               "train-bilm config": {"char_embed_dim": 4, "filter_count": 4, "layer_dim": 8},
               "rules": {"suffixes": ["yl"]}}[reader]
        return json.dumps(obj, indent=1).encode("utf-8")

    @pytest.mark.parametrize("reader", READERS)
    def test_byte_order_mark_accepted(self, capsys, monkeypatch, corpus_file, tmp_path,
                                      reader):
        raw = b"\xef\xbb\xbf" + self.valid(reader)
        _, code, out, err = self.read(capsys, monkeypatch, tmp_path, corpus_file[0], reader,
                                      raw)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("appended,message", [(b" \xe9", "not UTF-8 text (byte 0xe9"),
                                                  (b" ,", "not JSON (")])
    def test_bad_line_exit_2_naming_it(self, capsys, monkeypatch, corpus_file, tmp_path,
                                       reader, appended, message):
        first, rest = self.valid(reader).split(b"\n", 1)
        second, rest = rest.split(b"\n", 1)
        raw = b"\n".join([first, second + appended, rest])
        path, code, out, err = self.read(capsys, monkeypatch, tmp_path, corpus_file[0], reader,
                                         raw)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:2: {message}")
        assert not (tmp_path / "out").exists()


class TestUnusableOut:
    """An ``--out`` that cannot be written is exit 2 with one error line
    naming it, before any corpus is read or any model trained."""

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("reached past the output check")

    def refused(self, capsys, out, *argv) -> None:
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert ".tmp" not in err

    def test_split_out_that_is_a_file(self, capsys, monkeypatch, corpus_file, tmp_path):
        monkeypatch.setattr(chemner.cli, "read_column_corpus", self.never)
        out = tmp_path / "F"
        out.write_text("kept", encoding="utf-8")
        self.refused(capsys, out, "split", "--corpus", str(corpus_file[0]),
                     "--labels", "CHEM,PROC,QTY")
        assert out.read_text(encoding="utf-8") == "kept"

    def test_train_out_that_is_a_file_or_under_one(self, capsys, monkeypatch, corpus_file,
                                                   tmp_path):
        monkeypatch.setattr(chemner.cli, "train", self.never)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
        out = tmp_path / "F"
        out.write_text("kept", encoding="utf-8")
        for target in (out, out / "sub"):
            self.refused(capsys, target, "train", "--config", str(cfg),
                         "--train", str(corpus_file[0]), "--dev", str(corpus_file[0]))
        assert out.read_text(encoding="utf-8") == "kept"

    def test_train_bilm_out_in_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(chemner.cli, "train_bilm", self.never)
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        for out in (tmp_path / "missing" / "b.ckpt", tmp_path):
            self.refused(capsys, out, "train-bilm", "--corpus", str(corpus), "--epochs", "1")
        assert list(tmp_path.iterdir()) == [corpus]

    def test_tag_out_that_is_a_directory(self, capsys, monkeypatch, corpus_file, tmp_path):
        monkeypatch.setattr(chemner.cli, "load_checkpoint", self.never)
        self.refused(capsys, tmp_path, "tag", "--model", str(tmp_path / "m.ckpt"),
                     "--in", str(corpus_file[0]))


class TestGradcheckCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "relative gradient error" in out


@dataclass
class TagFiles:
    raw: bytes = field(repr=False)  # the valid checkpoint
    text: str                       # a raw text to tag
    path: str                       # where a damaged copy goes


@pytest.fixture(scope="module")
def tag_files(tmp_path_factory):
    """A small valid checkpoint (its bytes too) with a tokenizer in its
    metadata, a raw text to tag, and a path for damaged copies."""
    sentences, scheme = toy_corpus()
    vocab = build_vocabulary(sentences, [], min_count=1)
    model = NerModel.init(ModelConfig(labels=scheme.entity_labels, word_dim=4,
                                      char_embed_dim=3, char_filter_count=3,
                                      char_output_dim=3, lstm_hidden=3), vocab, seed=0)
    base = tmp_path_factory.mktemp("fuzz")
    good = str(base / "good.ckpt")
    save_checkpoint(make_checkpoint(model, None, np.random.default_rng(0),
                                    meta={"tokenizer": {"mode": "chemical", "rules": None}}),
                    good)
    text = base / "raw.txt"
    text.write_text("The 2-chlorotoluene was added. Then heating began.", encoding="utf-8")
    with open(good, "rb") as f:
        return TagFiles(f.read(), str(text), str(base / "damaged.ckpt"))


def tag_exit_code(files: TagFiles, data: bytes) -> int:
    with open(files.path, "wb") as f:
        f.write(data)
    return main(["tag", "--model", files.path, "--in", files.text, "--raw"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
METADATA_KEYS = ["bilm_config", "bilm_vocab", "config", "kind", "meta", "opt_step",
                 "rng_state", "trainable", "version", "vocab"]


class TestCheckpointFuzz:
    """A damaged checkpoint ends ``chemner tag`` in an exit code (0, 2 for
    data, 3 for numerics, as a NaN weight stops Viterbi), never a traceback."""

    def test_valid_checkpoint_tags(self, tag_files):
        assert tag_exit_code(tag_files, tag_files.raw) == 0

    @pytest.mark.parametrize("key,value", [("trainable", 5), ("meta", [1]),
                                           ("meta", {"tokenizer": 5}),
                                           ("meta", {"tokenizer": {"rules": [1]}}),
                                           ("opt_step", True)])
    def test_wrong_metadata_type_exit_2(self, tag_files, key, value):
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, key, value)) == 2

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(METADATA_KEYS), value=JSON_VALUES)
    def test_metadata_key_of_another_json_type(self, tag_files, key, value):
        metadata = read_metadata(tag_files.raw)
        assume(type(value) is not type(metadata.get(key)))
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, key, value)) in (0, 2, 3)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_flipped_or_extended_bytes(self, tag_files, data):
        assert tag_exit_code(tag_files, damaged(data, tag_files.raw)) in (0, 2, 3)


def damaged(data, raw: bytes) -> bytes:
    """``raw`` truncated, with one byte flipped, or extended, as ``data`` draws."""
    how = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
    return raw + data.draw(st.binary(min_size=1, max_size=16))


@pytest.fixture(scope="module")
def corpus_bytes(tmp_path_factory) -> tuple[bytes, bytes, Path]:
    """The toy corpus in column format and as plain text, one sentence a
    line, and a directory for damaged copies."""
    sentences, scheme = toy_corpus()
    base = tmp_path_factory.mktemp("corpus_fuzz")
    write_column_corpus(str(base / "corpus.tsv"), sentences, scheme)
    plain = "\n".join(" ".join(s.texts) for s in sentences).encode("utf-8")
    return (base / "corpus.tsv").read_bytes(), plain, base


class TestCorpusFuzz:
    """A damaged corpus ends ``chemner stats`` and ``chemner train-bilm``
    in exit 0 or 2, never a traceback."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_column_corpus_stats(self, corpus_bytes, data):
        column, _, base = corpus_bytes
        path = base / "column.tsv"
        path.write_bytes(damaged(data, column))
        assert main(["stats", "--corpus", str(path), "--labels", "CHEM,PROC,QTY"]) in (0, 2)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_plain_corpus_train_bilm(self, corpus_bytes, data):
        _, plain, base = corpus_bytes
        path = base / "plain.txt"
        path.write_bytes(damaged(data, plain))
        assert main(["train-bilm", "--corpus", str(path), "--epochs", "1",
                     "--out", str(base / "bilm.ckpt"), "--char-embed-dim", "4",
                     "--filter-count", "4", "--layer-dim", "8"]) in (0, 2)


class TestOversizedConfig:
    """A checkpoint whose config describes more values than its file holds
    ends in exit 2 before the layout is allocated, never in a memory error."""

    @pytest.mark.parametrize("hidden", [10**7, 10**9])
    def test_ner_checkpoint_tag_exit_2(self, tag_files, capsys, hidden):
        config = {**read_metadata(tag_files.raw)["config"], "lstm_hidden": hidden}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "config", config)) == 2
        assert "stored values" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [10**7, 10**9])
    def test_bilm_checkpoint_train_exit_2(self, capsys, corpus_file, tmp_path, dim):
        sentences, _ = toy_corpus()
        bilm = BiLm.init(BiLmConfig(vocab=build_vocabulary(sentences, [], min_count=1),
                                    char_embed_dim=3, char_filters=((3, 3),),
                                    token_projection_dim=4, layer_dim=4))
        ckpt = make_checkpoint(bilm, None, None, kind="bilm")
        ckpt.config = {**ckpt.config, "token_projection_dim": dim, "layer_dim": dim}
        save_checkpoint(ckpt, str(tmp_path / "bilm.ckpt"))
        assert train_with_config(capsys, corpus_file[0], tmp_path, ("bilm",),
                                 str(tmp_path / "bilm.ckpt")) == 2


def train_with_bilm_config(capsys, corpus_path, tmp_path, key: str, value) -> int:
    """``chemner train`` with a biLM checkpoint whose config has ``key`` set to
    ``value``; the biLM is one whose numbers a misread value could match."""
    sentences, _ = toy_corpus()
    bilm = BiLm.init(BiLmConfig(vocab=build_vocabulary(sentences, [], min_count=1),
                                char_embed_dim=3, char_filters=((3, 4),),
                                token_projection_dim=8, layer_dim=8))
    ckpt = make_checkpoint(bilm, None, None, kind="bilm")
    ckpt.config = {**ckpt.config, key: value}
    save_checkpoint(ckpt, str(tmp_path / "bilm.ckpt"))
    return train_with_config(capsys, corpus_path, tmp_path, ("bilm",), str(tmp_path / "bilm.ckpt"))


class TestCheckpointConfigTypes:
    """A checkpoint config value of the wrong JSON type ends ``chemner tag``
    (the model's config) and ``chemner train`` (a biLM's config) in exit 2,
    never in a traceback or a load of a misread value."""

    # "XYZ" has as many characters as the model has labels: read as a list
    # of them, it would load and tag under the wrong label names
    @pytest.mark.parametrize("key,value", [("lstm_hidden", 2.5), ("lstm_hidden", True),
                                           ("word_dim", 4.0), ("labels", "XYZ"),
                                           ("dropout", [True]), ("extra", 1)])
    def test_ner_config_wrong_type_tag_exit_2(self, tag_files, capsys, key, value):
        config = {**read_metadata(tag_files.raw)["config"], key: value}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "config", config)) == 2
        assert ("unknown keys" if key == "extra" else "JSON type") in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("layer_dim", 8.0), ("num_layers", 2.0),
                                           ("char_filters", [[3.0, 4]]),
                                           ("char_filters", [[3, 4, 5]]),
                                           ("max_token_len", "25")])
    def test_bilm_config_wrong_type_train_exit_2(self, capsys, corpus_file, tmp_path, key,
                                                 value):
        assert train_with_bilm_config(capsys, corpus_file[0], tmp_path, key, value) == 2

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(MODEL_CONFIG_TYPES) + ["extra"]), value=JSON_VALUES)
    def test_ner_config_any_value_tag(self, tag_files, key, value):
        config = {**read_metadata(tag_files.raw)["config"], key: value}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "config", config)) in (0, 2)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(BILM_CONFIG_TYPES) + ["extra"]), value=JSON_VALUES)
    def test_bilm_config_any_value_train(self, capsys, corpus_file, tmp_path, key, value):
        assert train_with_bilm_config(capsys, corpus_file[0], tmp_path, key, value) in (0, 2)


class TestCheckpointVocabTypes:
    """A checkpoint vocabulary value of the wrong JSON type ends ``chemner
    tag`` in exit 2, never in a load of a misread value: a string
    ``min_count``, or a ``pretrained`` string read as its set of characters."""

    @pytest.mark.parametrize("key,value", [("min_count", "1"), ("min_count", 1.0),
                                           ("min_count", True), ("pretrained", "ab"),
                                           ("pretrained", [1]), ("words", ["<pad>", None]),
                                           ("chars", "abc"), ("extra", 1)])
    def test_wrong_type_tag_exit_2(self, tag_files, capsys, key, value):
        vocab = {**read_metadata(tag_files.raw)["vocab"], key: value}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "vocab", vocab)) == 2
        assert ("unknown keys" if key == "extra" else "JSON type") in capsys.readouterr().err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(VOCAB_TYPES) + ["extra"]), value=JSON_VALUES)
    def test_any_value_tag(self, tag_files, key, value):
        vocab = {**read_metadata(tag_files.raw)["vocab"], key: value}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "vocab", vocab)) in (0, 2)


def read_metadata(raw: bytes) -> dict:
    size = struct.unpack("<Q", raw[12:20])[0]
    return json.loads(raw[20:20 + size])


def with_metadata(raw: bytes, key: str, value) -> bytes:
    """The checkpoint bytes with one metadata key set to ``value``."""
    size = struct.unpack("<Q", raw[12:20])[0]
    metadata = json.loads(raw[20:20 + size])
    metadata[key] = value
    meta_b = json.dumps(metadata).encode("utf-8")
    return raw[:12] + struct.pack("<Q", len(meta_b)) + meta_b + raw[20 + size:]


# a valid run configuration that names every key; each replacement below is
# tried in a copy of it
RUN_CONFIG = {"labels": ["CHEM", "PROC", "QTY"],
              "tokenizer": {"mode": "general", "rules": None},
              "model": {"use_words": True, "use_pretrained_words": False,
                        "use_char_cnn": True, "use_contextual": False, "word_dim": 4,
                        "char_embed_dim": 3, "char_filter_width": 3, "char_filter_count": 3,
                        "char_output_dim": 3, "lstm_layers": 1, "lstm_hidden": 3,
                        "dropout": [0.25], "crf_bio_mask": False, "long_token_threshold": 25},
              "train": {"learning_rate": 0.01, "batch_size": 16, "clip_norm": 1.0,
                        "max_epochs": 1, "patience": 1, "seed": 0, "beta1": 0.9,
                        "beta2": 0.999, "epsilon": 1e-8},
              "embeddings": None, "bilm": None}
RUN_CONFIG_KEYS = [(key,) for key in RUN_CONFIG] + [
    (section, key) for section in ("tokenizer", "model", "train") for key in RUN_CONFIG[section]]


def json_kind(value) -> str:
    """The JSON type of a decoded value: ints and floats are both numbers."""
    return "number" if type(value) in (int, float) else type(value).__name__


def train_with_config(capsys, corpus_path, tmp_path, key: tuple, value) -> int:
    config = json.loads(json.dumps(RUN_CONFIG))
    *section, last = key
    (config[section[0]] if section else config)[last] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run(capsys, "train", "--config", str(cfg), "--train", str(corpus_path),
                       "--dev", str(corpus_path), "--out", str(tmp_path / "out"))
    assert "Traceback" not in err
    return code


class TestRunConfigTypes:
    """A run configuration value of the wrong JSON type ends ``chemner
    train`` (and ``train-bilm --config``) in exit 2, never in a traceback or
    a run on a misread value."""

    def test_valid_config_trains(self, capsys, corpus_file, tmp_path):
        assert train_with_config(capsys, corpus_file[0], tmp_path, ("bilm",), None) == 0

    @pytest.mark.parametrize("key,value", [
        (("embeddings",), 0),  # os.path.exists(0) is true while stdin is open
        (("bilm",), 0), (("tokenizer", "rules"), 0), (("labels",), ["CHEM", 1]),
        (("labels",), []), (("tokenizer",), None), (("model",), None),
        (("model", "word_dim"), 4.0), (("model", "use_words"), 1),
        (("model", "dropout"), ["0.25"]), (("model", "dropout"), [True]),
        (("train", "seed"), True), (("train", "learning_rate"), "0.01")])
    def test_wrong_type_exit_2(self, capsys, corpus_file, tmp_path, key, value):
        assert train_with_config(capsys, corpus_file[0], tmp_path, key, value) == 2

    @pytest.mark.parametrize("mode,rules", [("xyz", None), ("chemical", "{not json")])
    def test_bad_tokenizer_refused_before_training(self, capsys, corpus_file, tmp_path,
                                                   mode, rules):
        path = tmp_path / "rules.json"
        path.write_text(rules or "", encoding="utf-8")
        assert train_with_config(capsys, corpus_file[0], tmp_path, ("tokenizer",),
                                 {"mode": mode, "rules": rules and str(path)}) == 2
        assert not (tmp_path / "out").exists()  # no checkpoint `tag --raw` cannot read

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(RUN_CONFIG_KEYS), value=JSON_VALUES)
    def test_value_of_another_json_type(self, capsys, corpus_file, tmp_path, key, value):
        *section, last = key
        assume(json_kind(value) != json_kind((RUN_CONFIG[section[0]] if section
                                               else RUN_CONFIG)[last]))
        assert train_with_config(capsys, corpus_file[0], tmp_path, key, value) in (0, 2)

    @pytest.mark.parametrize("raw", [[1, 2], {"layers": "2"}, {"learning_rate": True},
                                     {"rules": 0}, {"tokenizer": None}])
    def test_train_bilm_config_wrong_type_exit_2(self, capsys, tmp_path, raw):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        cfg = tmp_path / "bilm.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run(capsys, "train-bilm", "--config", str(cfg), "--corpus", str(corpus),
                           "--epochs", "1", "--out", str(tmp_path / "bilm.ckpt"))
        assert code == 2 and "Traceback" not in err
        assert not (tmp_path / "bilm.ckpt").exists()


class TestOutOfRangeConfigValues:
    """A dropout rate outside [0, 1), a long_token_threshold below 1 or a
    biLM max_token_len below 1 ends the command in exit 2 when its config is
    loaded, whether it comes from a run config, a checkpoint or a
    ``train-bilm`` flag: a negative rate would turn dropout off, a rate of 1
    or more would fail inside the first training step."""

    @pytest.mark.parametrize("key,value", [("dropout", [-0.5]), ("dropout", [1.0]),
                                           ("dropout", [2]), ("long_token_threshold", 0)])
    def test_run_config_exit_2(self, capsys, corpus_file, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**RUN_CONFIG, "model": {**RUN_CONFIG["model"], key: value}}),
                       encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train",
                           str(corpus_file[0]), "--dev", str(corpus_file[0]),
                           "--out", str(tmp_path / "out"))
        assert code == 2 and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_model_config_refused_before_the_corpora_are_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**RUN_CONFIG, "model": {**RUN_CONFIG["model"],
                                                           "dropout": [1.0]}}),
                       encoding="utf-8")
        missing = str(tmp_path / "missing.bio")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train", missing,
                           "--dev", missing, "--out", str(tmp_path / "out"))
        assert code == 2 and "dropout" in err and "missing.bio" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_refused_before_the_corpora_are_read(self, capsys, tmp_path, where):
        cfg = tmp_path / "run.json"
        train_section = {**RUN_CONFIG["train"], "seed": -1 if where == "config" else 0}
        cfg.write_text(json.dumps({**RUN_CONFIG, "train": train_section}), encoding="utf-8")
        missing = str(tmp_path / "missing.bio")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train", missing,
                           "--dev", missing, "--out", str(tmp_path / "out"),
                           *(["--seed", "-1"] if where == "flag" else []))
        assert code == 2
        assert err == "error: train config seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("key,value", [("learning_rate", math.nan), ("clip_norm", math.nan),
                                           ("learning_rate", math.inf), ("epsilon", math.inf)])
    def test_non_finite_train_value_exit_2(self, capsys, corpus_file, tmp_path, key, value):
        """``json.load`` reads the ``NaN`` and ``Infinity`` tokens that
        ``json.dumps`` writes; a train value of either is refused."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**RUN_CONFIG, "train": {**RUN_CONFIG["train"], key: value}}),
                       encoding="utf-8")
        assert ("NaN" if math.isnan(value) else "Infinity") in cfg.read_text(encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--train",
                           str(corpus_file[0]), "--dev", str(corpus_file[0]),
                           "--out", str(tmp_path / "out"))
        assert code == 2 and "finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("dropout", [-0.5, 0.25]), ("dropout", [0.25, 1.0]),
                                           ("long_token_threshold", 0)])
    def test_checkpoint_config_tag_exit_2(self, tag_files, capsys, key, value):
        config = {**read_metadata(tag_files.raw)["config"], key: value}
        assert tag_exit_code(tag_files, with_metadata(tag_files.raw, "config", config)) == 2
        assert key in capsys.readouterr().err

    def test_bilm_checkpoint_max_token_len_exit_2(self, capsys, corpus_file, tmp_path):
        assert train_with_bilm_config(capsys, corpus_file[0], tmp_path, "max_token_len", 0) == 2
        with pytest.raises(ValueError, match="max_token_len"):
            bilm_from_checkpoint(load_checkpoint(str(tmp_path / "bilm.ckpt")))

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_train_bilm_max_token_len_flag_exit_2(self, capsys, tmp_path, value):
        corpus = tmp_path / "plain.txt"
        corpus.write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        code, _, err = run(capsys, "train-bilm", "--corpus", str(corpus), "--epochs", "1",
                           "--out", str(tmp_path / "bilm.ckpt"), "--max-token-len", value)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [corpus]
