import json

import numpy as np
import pytest

from chemner.cli import main
from chemner.corpus import write_column_corpus
from chemner.training import load_checkpoint, save_checkpoint

from conftest import toy_corpus


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

    def test_unknown_flag_usage_error(self, capsys):
        code, _, err = run(capsys, "tokenize", "--bogus")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


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
        with pytest.raises(OSError, match="disk full"):
            main(["train", "--config", str(cfg_path), "--train", str(corpus_path),
                  "--dev", str(corpus_path), "--out", str(out_dir), "--seed", "6"])
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


class TestGradcheckCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "relative gradient error" in out
