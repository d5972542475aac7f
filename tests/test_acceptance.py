"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Gradient comparisons against central differences use error
relative to the gradient's scale, |a - n| / max(1, ||a||_inf, ||n||_inf),
which is strict where gradients are resolvable and immune to pure
finite-difference noise on identically-zero gradients.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from chemner import crf as crf_mod
from chemner import numerics as nx
from chemner.bilm import BiLmConfig, train_bilm
from chemner.corpus import (DatasetSplit, LabelScheme, Vocabulary, build_vocabulary,
                            normalize_long_tokens, sentence_from_texts, split_dataset)
from chemner.evaluation import evaluate
from chemner.model import ModelConfig, NerModel
from chemner.numerics import Parameter, Tape, backward, constant, evaluate as nx_evaluate
from chemner.textproc import Sentence, tokenize_chemical, tokenize_general
from chemner.training import (TrainConfig, load_checkpoint, save_checkpoint,
                              train)

from conftest import toy_corpus
from oracles import brute_log_partition, brute_viterbi

IUPAC = "3-(4,5-dimethylthiazol-2-yl)-2,5-diphenyl tetrazolium bromide"


def report_line(number, description, started):
    print(f"criterion {number:>2}: PASS ({time.time() - started:5.1f}s) {description}")


def test_criterion_01_crf_oracle_suite():
    """500 random CRF instances against brute-force enumeration and FD."""
    started = time.time()
    rng = np.random.default_rng(0)
    for _ in range(500):
        T = int(rng.integers(1, 7))
        K = int(rng.integers(1, 6))
        em = rng.uniform(-2, 2, (T, K))
        params = crf_mod.CrfParams(
            transitions=Parameter("t", rng.uniform(-2, 2, (K, K))),
            start=Parameter("s", rng.uniform(-2, 2, K)),
            stop=Parameter("e", rng.uniform(-2, 2, K)))
        tags = [int(rng.integers(0, K)) for _ in range(T)]

        lz = float(crf_mod.log_partition(constant(em), params).data)
        blz = brute_log_partition(em, params.transitions.value,
                                  params.start.value, params.stop.value)
        assert abs(lz - blz) < 1e-8

        vtags, vscore = crf_mod.viterbi(em, params)
        btags, bscore = brute_viterbi(em, params.transitions.value,
                                      params.start.value, params.stop.value)
        assert abs(vscore - bscore) < 1e-10
        assert vtags == btags

        em_p = Parameter("em", em)
        for p in (em_p, params.transitions):
            p.zero_grad()
        out, tape = nx_evaluate(
            lambda tp: crf_mod.nll(tp.param(em_p), tags, params, tp))
        backward(tape, out)
        h = 1e-5
        for p in (em_p, params.transitions):
            analytic = p.gradient.copy()
            numeric = np.zeros_like(analytic)
            flat = p.value.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(crf_mod.nll(constant(em_p.value), tags, params).data)
                flat[i] = orig - h
                fm = float(crf_mod.nll(constant(em_p.value), tags, params).data)
                flat[i] = orig
                nflat[i] = (fp - fm) / (2 * h)
            scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-6
    elapsed = time.time() - started
    assert elapsed < 60
    report_line(1, "CRF log-partition, Viterbi and NLL gradients match "
                   "brute-force oracles over 500 instances", started)


def test_criterion_02_full_model_gradient_check():
    """Tiny full configuration, every trainable parameter, rel error < 1e-3."""
    started = time.time()
    seed = 3
    rng = np.random.default_rng(seed)
    labels = ("A", "B")  # 5 BIO tags
    scheme = LabelScheme(labels)
    words = [f"w{i}" for i in range(14)] + ["2-xy", "qz9", "benzol", "acidum",
                                            "salz", "aqua"]
    sents = [sentence_from_texts(
        [words[int(rng.integers(0, len(words)))] for _ in range(6)],
        [int(rng.integers(0, scheme.num_tags)) for _ in range(6)], "d0")]
    vocab_sents = [sentence_from_texts(words, [0] * len(words), "d")] * 4
    vocab = build_vocabulary(vocab_sents, [], min_count=1)
    assert vocab.size >= 20

    config = ModelConfig(labels=labels, word_dim=8, char_embed_dim=4,
                         char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                         dropout=(0.25, 0.25))
    model = NerModel.init(config, vocab, seed=seed)
    masks = model.make_dropout_masks([6], np.random.default_rng(seed + 100))
    err = nx.grad_check(lambda tape: model.build_loss(tape, sents, masks),
                        model.trainable_parameters(), epsilon=1e-5)
    elapsed = time.time() - started
    assert err < 1e-3, f"max relative error {err:.3e}"
    assert elapsed < 120
    report_line(2, f"full-model finite-difference check, max rel err {err:.2e}",
                started)


def _ebc_desk_model(sentences, scheme, vocab, seed):
    bcfg = BiLmConfig(vocab=vocab, char_embed_dim=8, char_filters=((3, 8),),
                      token_projection_dim=16, num_layers=2, layer_dim=16)
    bilm = train_bilm([s.texts for s in sentences], bcfg, epochs=20, seed=seed,
                      learning_rate=0.01)
    config = ModelConfig(labels=scheme.entity_labels, word_dim=16, char_embed_dim=8,
                         char_filter_count=8, char_output_dim=8, lstm_hidden=16,
                         use_contextual=True, contextual_dim=bcfg.output_dim)
    return NerModel.init(config, vocab, seed=seed, bilm=bilm)


def train_set_f1(model, sentences):
    preds = [model.predict(s) for s in sentences]
    return evaluate(sentences, preds, model.config.scheme).micro.f1


def test_criterion_03_overfit_acceptance():
    """Full EBC desk configuration reaches train F1 = 1.0 on the synthetic
    corpus within 300 epochs for at least 4 of 5 seeds."""
    started = time.time()
    sentences, scheme = toy_corpus(20)
    vocab = build_vocabulary(sentences, [], min_count=1)
    successes = 0
    for seed in range(5):
        model = _ebc_desk_model(sentences, scheme, vocab, seed)
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences),
                              test=(), seed=seed)
        config = TrainConfig(learning_rate=0.01, max_epochs=300, patience=20,
                             seed=seed)
        result = train(model, splits, config,
                       dev_scorer=lambda m, d: train_set_f1(m, d))
        assert result.report.epochs[-1].epoch <= result.report.best_epoch + config.patience
        if result.report.best_f1 == 1.0:
            successes += 1
    elapsed = time.time() - started
    assert successes >= 4, f"only {successes}/5 seeds reached F1=1.0"
    assert elapsed < 300
    report_line(3, f"overfit to train F1=1.0 for {successes}/5 seeds", started)


def test_criterion_04_bilm_acceptance():
    started = time.time()
    sent = ["the", "salt", "dissolved", "in", "hot", "water"]
    tagged = [sentence_from_texts(sent, [0] * len(sent), "d")]
    vocab = build_vocabulary(tagged, [], min_count=1)
    bcfg = BiLmConfig(vocab=vocab, char_embed_dim=8, char_filters=((3, 8),),
                      token_projection_dim=16, num_layers=2, layer_dim=16)
    bilm = train_bilm([sent], bcfg, epochs=200, seed=0, learning_rate=0.01,
                      target_perplexity=1.04)
    assert len(bilm.training_perplexities) <= 200
    assert bilm.training_perplexities[-1] < 1.05

    # mixing softmax normalization
    sentences, scheme = toy_corpus(8)
    vocab2 = build_vocabulary(sentences, [], min_count=1)
    model = _ebc_desk_model(sentences[:8], scheme, vocab2, seed=1)
    model.mixing.s.value[:] = np.random.default_rng(2).uniform(-3, 3, 3)
    assert abs(model.mixing.normalized().sum() - 1.0) < 1e-12
    assert np.all(model.mixing.normalized() > 0)

    # gradient of the NER loss w.r.t. mixing scalars is nonzero
    for p in model.trainable_parameters():
        p.zero_grad()
    tape = Tape()
    out = model.build_loss(tape, sentences[:4])
    backward(tape, out)
    assert np.abs(model.mixing.s.gradient).max() > 0
    report_line(4, "biLM memorizes a repeated sentence (ppl < 1.05), mixing "
                   "softmax normalized, contextual gradient live", started)


GOLDEN_GENERAL = [
    ("", []),
    ("water", ["water"]),
    ("2,5-diphenyl bromide", ["2", ",", "5", "-", "diphenyl", "bromide"]),
    (IUPAC, None),  # 21 tokens, checked by count below
]

GOLDEN_CHEMICAL = [
    (IUPAC, ["3-(4,5-dimethylthiazol-2-yl)-2,5-diphenyl", "tetrazolium", "bromide"]),
    ("water and salt", ["water", "and", "salt"]),
    ("(see Fig. 2)", ["(", "see", "Fig", ".", "2", ")"]),
    ("1.5 mg", ["1.5", "mg"]),
    ("with 2,5-diol, then", ["with", "2,5-diol", ",", "then"]),
    ("substituted-alkyl group", ["substituted-alkyl", "group"]),
    ("2) was", ["2", ")", "was"]),
    ("tetrazolium", ["tetrazolium"]),
]


def test_criterion_05_tokenizer_golden_table():
    started = time.time()
    for text, expected in GOLDEN_GENERAL:
        toks = [t.text for t in tokenize_general(Sentence(text))]
        if expected is not None:
            assert toks == expected, text
    # hand application of the general rule to the IUPAC example: 19 tokens
    # inside the name plus 2 plain words
    assert len(tokenize_general(Sentence(IUPAC))) == 21
    for text, expected in GOLDEN_CHEMICAL:
        toks = [t.text for t in tokenize_chemical(Sentence(text))]
        assert toks == expected, text
    assert len(tokenize_chemical(Sentence(IUPAC))) == 3

    # chemical tokens always merge consecutive general tokens
    for text, _ in GOLDEN_GENERAL + GOLDEN_CHEMICAL:
        sent = Sentence(text)
        general = tokenize_general(sent)
        boundaries = {t.start for t in general} | {t.end for t in general}
        for tok in tokenize_chemical(sent):
            assert tok.start in boundaries and tok.end in boundaries
    report_line(5, "12-case tokenizer golden table and merge property", started)


def test_criterion_06_corpus_rules():
    started = time.time()
    # frequency-more-than-3 boundary
    def occurrences(word, n):
        return [sentence_from_texts([word], [0], f"d{i}") for i in range(n)]
    vocab3 = build_vocabulary(occurrences("boundary", 3), [], ())
    vocab4 = build_vocabulary(occurrences("boundary", 4), [], ())
    assert vocab3.word_id("boundary") == Vocabulary.UNK
    assert vocab4.word_id("boundary") != Vocabulary.UNK

    # long-token boundary at 25/26 characters
    sent = sentence_from_texts(["x" * 25, "y" * 26], [0, 0], "d")
    out = normalize_long_tokens(sent)
    assert out.texts == ["x" * 25, "Long_Token"]

    # 10-document split at seed 7
    sents = [sentence_from_texts(["w"], [0], f"doc{d}") for d in range(10)]
    split = split_dataset(sents, seed=7)
    assert split.document_counts() == (6, 1, 3)
    report_line(6, "vocabulary threshold, long-token boundary, 6/1/3 split", started)


def test_criterion_07_evaluation_oracle():
    started = time.time()
    scheme = LabelScheme(("G", "M"))
    tid = scheme.tag_id

    def sent(names, doc="d"):
        return sentence_from_texts([f"w{i}" for i in range(len(names))],
                                   [tid(n) for n in names], doc)

    # case 1: P=1, R=0.5, F1=2/3
    r = evaluate([sent(["B-M", "I-M", "O", "B-G"])],
                 [[tid("B-M"), tid("I-M"), tid("O"), tid("O")]], scheme)
    assert abs(r.micro.precision - 1.0) < 1e-12
    assert abs(r.micro.recall - 0.5) < 1e-12
    assert abs(r.micro.f1 - 2 / 3) < 1e-12

    # case 2: identity
    gold = [sent(["B-G", "I-G", "O"]), sent(["B-M", "O", "B-G"])]
    r = evaluate(gold, [list(s.tags) for s in gold], scheme)
    assert abs(r.micro.f1 - 1.0) < 1e-12

    # case 3: boundary mismatch scores zero
    r = evaluate([sent(["B-G", "I-G"])], [[tid("B-G"), tid("O")]], scheme)
    assert (r.micro.precision, r.micro.recall, r.micro.f1) == (0.0, 0.0, 0.0)

    # case 4: all-O prediction (0/0 -> 0 convention)
    r = evaluate([sent(["B-G", "O"])], [[tid("O"), tid("O")]], scheme)
    assert (r.micro.precision, r.micro.f1) == (0.0, 0.0)
    assert abs(r.micro.recall - 0.0) < 1e-12

    # case 5: micro equals the summed-count formula, not the mean of label F1s
    gold = [sent(["B-G", "O", "B-M"]), sent(["B-G", "O", "O"])]
    pred = [[tid("B-G"), tid("O"), tid("O")], [tid("B-G"), tid("B-M"), tid("O")]]
    r = evaluate(gold, pred, scheme)
    tp = sum(s.tp for s in r.per_label.values())
    fp = sum(s.fp for s in r.per_label.values())
    fn = sum(s.fn for s in r.per_label.values())
    p, rec = tp / (tp + fp), tp / (tp + fn)
    assert abs(r.micro.f1 - 2 * p * rec / (p + rec)) < 1e-12
    mean_f1 = np.mean([s.f1 for s in r.per_label.values()])
    assert abs(r.micro.f1 - mean_f1) > 1e-3
    report_line(7, "five hand-built evaluation cases at 12-decimal precision",
                started)


def test_criterion_08_determinism(tmp_path):
    started = time.time()
    sentences, scheme = toy_corpus(10)
    vocab = build_vocabulary(sentences, [], min_count=1)

    def run_once():
        config = ModelConfig(labels=scheme.entity_labels, word_dim=8,
                             char_embed_dim=4, char_filter_count=4,
                             char_output_dim=4, lstm_hidden=8)
        model = NerModel.init(config, vocab, seed=3)
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences[:4]),
                              test=(), seed=3)
        return train(model, splits,
                     TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=3))

    r1, r2 = run_once(), run_once()
    assert r1.report == r2.report
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(r1.best, a)
    save_checkpoint(r2.best, b)
    bytes_a = Path(a).read_bytes()
    assert bytes_a == Path(b).read_bytes()

    # save -> load -> save is bit-identical
    c = str(tmp_path / "c.ckpt")
    save_checkpoint(load_checkpoint(a), c)
    assert bytes_a == Path(c).read_bytes()
    report_line(8, "bit-identical training runs and checkpoint round trips", started)


def test_criterion_09_early_stopping():
    started = time.time()
    sentences, scheme = toy_corpus(6)
    vocab = build_vocabulary(sentences, [], min_count=1)
    config = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                         char_filter_count=4, char_output_dim=4, lstm_hidden=6)
    splits = DatasetSplit(train=tuple(sentences[:2]), dev=tuple(sentences[:1]),
                          test=(), seed=0)

    model = NerModel.init(config, vocab, seed=0)
    stalled = train(model, splits, TrainConfig(max_epochs=50, patience=10, seed=0),
                    dev_scorer=lambda m, d: 0.25)
    assert stalled.report.epochs[-1].epoch == 11
    assert stalled.report.stopping_reason == "patience"

    model = NerModel.init(config, vocab, seed=0)
    counter = iter(range(10_000))
    improving = train(model, splits, TrainConfig(max_epochs=50, patience=10, seed=0),
                      dev_scorer=lambda m, d: next(counter) / 10_000)
    assert improving.report.epochs[-1].epoch == 50
    assert improving.report.stopping_reason == "max_epochs"
    report_line(9, "patience stops at epoch 11; improving run stops at 50", started)


@pytest.mark.skip(reason="non-gating trend check: needs an external public BIO "
                         "corpus, none is bundled in the desk-scale environment")
def test_criterion_10_optional_trend_check():
    """Median dev F1 ordering (word+char+contextual) >= (word+char) >= (word)
    across 3 seeds on a public corpus at 10% scale."""
