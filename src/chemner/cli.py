"""Command-line interface: tokenize, stats, split, train-bilm, train, tag,
eval, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure. Diagnostics go to stderr, results to stdout or files.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import json
import os
import sys
import warnings
from typing import Callable

import numpy as np

from . import numerics as nx
from .bilm import BiLmConfig, bilm_from_checkpoint, train_bilm
from .corpus import (CorpusFormatError, DatasetSplit, LabelScheme, atomic_open,
                     build_vocabulary, corpus_stats, normalize_long_texts,
                     read_column_corpus, sentence_from_texts, split_dataset,
                     write_column_corpus)
from .embeddings import align_to_vocab, load_embedding_text
from .evaluation import (confusion_matrix, error_listing, evaluate, format_confusion,
                         format_errors, format_report)
from .model import ModelConfig, NerModel, model_from_checkpoint
from .numerics import NumericError
from .schema import JSON_NUMBER, check_json_types, from_json, json_types
from .textproc import (RuleConfig, Sentence, TokenizerKind, load_json, split_sentences,
                       utf8_text)
from .training import (CheckpointError, TrainConfig, load_checkpoint, make_checkpoint,
                       save_checkpoint, train)

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERIC_ERROR = 3

# every typed data error (corpus, label, embedding, checkpoint, config, JSON) is a ValueError
_DATA_ERRORS = (ValueError, OSError)


class ConfigError(ValueError):
    """Run configuration file problem."""


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# the JSON type tables (see schema.check_json_types) of the run config; its
# "model" section sets every ModelConfig field but those the command derives
_PATH = (str, type(None))
_TOP_TYPES = {"labels": [(str,)], "tokenizer": (dict,), "model": (dict,), "train": (dict,),
              "embeddings": _PATH, "bilm": _PATH}
_TOKENIZER_TYPES = {"mode": (str,), "rules": _PATH}
_RUN_MODEL_TYPES = json_types(ModelConfig, "labels", "contextual_dim", "word_source")
_TRAIN_TYPES = json_types(TrainConfig)


def _check_section(section: str, raw, types: dict) -> dict:
    return check_json_types(f"config section {section!r}", raw, types, ConfigError)


def load_run_config(path: str) -> dict:
    raw = _check_section("<top>", load_json(path, ConfigError), _TOP_TYPES)
    if not raw.get("labels"):
        raise ConfigError("config needs a non-empty 'labels' list")
    tok = (_check_section("tokenizer", raw.get("tokenizer", {}), _TOKENIZER_TYPES)
           or {"mode": "general", "rules": None})
    _check_section("model", raw.get("model", {}), _RUN_MODEL_TYPES)
    _check_section("train", raw.get("train", {}), _TRAIN_TYPES)
    for key in ("embeddings", "bilm"):
        p = raw.get(key)
        if p is not None and not os.path.exists(p):
            raise ConfigError(f"config {key!r}: path does not exist: {p}")
    _tokenizer_kind(tok)  # an unknown mode or a missing or bad rules file fails here
    raw["tokenizer"] = tok
    return raw


def _tokenizer_kind(payload) -> TokenizerKind:
    """The tokenizer a ``{"mode", "rules"}`` object names: a checkpoint's
    metadata, a run config's section, or command-line settings."""
    if not isinstance(payload, dict) or not isinstance(payload.get("rules"), (str, type(None))):
        raise CheckpointError("checkpoint tokenizer metadata is not an object "
                              "with a string or null rules path")
    rules = payload.get("rules")
    return TokenizerKind(payload.get("mode", "general"),
                         RuleConfig.from_file(rules) if rules else None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tokenize(args) -> int:
    kind = _tokenizer_kind({"mode": args.mode, "rules": args.rules})
    text = sys.stdin.read()
    for i, sentence in enumerate(split_sentences(text)):
        if i:
            print()
        base = sentence.source_span[0]
        for tok in kind.tokenize(sentence):
            print(f"{base + tok.start}\t{base + tok.end}\t{tok.text}")
    return 0


def _scheme_from_arg(labels_arg: str) -> LabelScheme:
    labels = tuple(lab for lab in labels_arg.split(",") if lab)
    return LabelScheme(labels)


def cmd_stats(args) -> int:
    scheme = _scheme_from_arg(args.labels)
    sentences = read_column_corpus(args.corpus, scheme)
    st = corpus_stats(sentences, scheme)
    print(json.dumps({"documents": st.documents, "sentences": st.sentences,
                      "tokens": st.tokens, "entities": st.entities,
                      "bio_repairs": st.repairs}, indent=2, sort_keys=True))
    return 0


def _check_out(path: str, directory: bool = False) -> None:
    """Refuse, before any work is done, an output that cannot be written: a
    directory whose nearest existing path is no directory, or a file in a
    missing directory or that is one."""
    head = path if directory else os.path.dirname(path)
    while directory and head and not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head or "."):
        raise NotADirectoryError(f"cannot write {path}: {head} is not a directory")
    if not directory and os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")


def cmd_split(args) -> int:
    _check_out(args.out, directory=True)
    scheme = _scheme_from_arg(args.labels)
    sentences = read_column_corpus(args.corpus, scheme)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    if len(ratios) != 3:
        raise ConfigError("--ratios needs three comma-separated numbers")
    split = split_dataset(sentences, ratios, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        write_column_corpus(os.path.join(args.out, f"{name}.tsv"), part, scheme)
    counts = split.document_counts()
    print(f"documents: train={counts[0]} dev={counts[1]} test={counts[2]}")
    return 0


def _read_plain_sentences(path: str, kind: TokenizerKind) -> list[list[str]]:
    out = []
    with utf8_text(path, CorpusFormatError) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            toks = kind.tokenize(Sentence(text=line))
            if toks:
                out.append([t.text for t in toks])
    return out


_TRAIN_BILM_TYPES = {**dict.fromkeys(("char_embed_dim", "filter_width", "filter_count",
                                        "layer_dim", "layers", "max_token_len",
                                        "min_count"), (int,)),
                      "learning_rate": JSON_NUMBER, "tokenizer": (str,), "rules": _PATH}


def cmd_train_bilm(args) -> int:
    _check_out(args.out)
    settings = {"char_embed_dim": 16, "filter_width": 3, "filter_count": 32,
                "layer_dim": 64, "layers": 2, "max_token_len": 25,
                "learning_rate": 0.01, "min_count": 1,
                "tokenizer": "chemical", "rules": None}
    if args.config:
        settings.update(_check_section("train-bilm config", load_json(args.config, ConfigError),
                                       _TRAIN_BILM_TYPES))
    for key in _TRAIN_BILM_TYPES:  # explicit flags win over the config file
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag

    kind = _tokenizer_kind({"mode": settings["tokenizer"], "rules": settings["rules"]})
    sentences = _read_plain_sentences(args.corpus, kind)
    if not sentences:
        raise CorpusFormatError(f"{args.corpus}: no sentences found")
    normalized = [normalize_long_texts(texts, settings["max_token_len"]) for texts in sentences]
    tagged = [sentence_from_texts(t, [0] * len(t), "d") for t in normalized]
    vocab = build_vocabulary(tagged, [], min_count=settings["min_count"])
    config = BiLmConfig(vocab=vocab, char_embed_dim=settings["char_embed_dim"],
                        char_filters=((settings["filter_width"],
                                       settings["filter_count"]),),
                        token_projection_dim=settings["layer_dim"],
                        num_layers=settings["layers"],
                        layer_dim=settings["layer_dim"],
                        max_token_len=settings["max_token_len"])
    bilm = train_bilm(normalized, config, epochs=args.epochs, seed=args.seed,
                      learning_rate=settings["learning_rate"])
    ckpt = make_checkpoint(bilm, None, None,
                           meta={"perplexities": bilm.training_perplexities},
                           kind="bilm")
    save_checkpoint(ckpt, args.out)
    print(f"final perplexity: {bilm.training_perplexities[-1]:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    scheme_labels = tuple(run["labels"])
    scheme = LabelScheme(scheme_labels)

    # the configs are checked before any corpus or embedding file is read;
    # only the biLM checkpoint, which sets contextual_dim, comes first
    bilm = None
    if run.get("bilm"):
        bilm = bilm_from_checkpoint(load_checkpoint(run["bilm"]))
    model_kwargs = dict(run.get("model", {}))
    if bilm is not None:
        model_kwargs.setdefault("use_contextual", True)
        model_kwargs["contextual_dim"] = bilm.config.output_dim
    if run.get("embeddings"):
        model_kwargs.setdefault("use_pretrained_words", True)
        model_kwargs["word_source"] = os.path.basename(run["embeddings"])
    config = from_json(ModelConfig, "config section 'model'", model_kwargs, ConfigError,
                       labels=scheme_labels)
    train_kwargs = dict(run.get("train", {}))
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    tconfig = TrainConfig(**train_kwargs)

    _check_out(args.out, directory=True)
    train_sents = read_column_corpus(args.train, scheme)
    dev_sents = read_column_corpus(args.dev, scheme)
    words, vectors = [], None
    if run.get("embeddings"):
        with warnings.catch_warnings(record=True) as caught:  # an unwritable sidecar
            warnings.simplefilter("always")
            words, vectors = load_embedding_text(run["embeddings"])
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    vocab = build_vocabulary(train_sents, dev_sents, words)

    word_table = None
    if vectors is not None and config.use_pretrained_words:
        word_table = align_to_vocab(words, vectors, vocab, seed=tconfig.seed)
        if word_table.dim != config.word_dim:
            config = dataclasses.replace(config, word_dim=word_table.dim)
    words = vectors = None  # the aligned table holds a copy of every row it uses

    model = NerModel.init(config, vocab, seed=tconfig.seed,
                          word_table=word_table, bilm=bilm)
    splits = DatasetSplit(train=tuple(train_sents), dev=tuple(dev_sents),
                          test=(), seed=tconfig.seed)
    result = train(model, splits, tconfig)

    os.makedirs(args.out, exist_ok=True)
    result.best.meta["tokenizer"] = run["tokenizer"]
    ckpt_path = os.path.join(args.out, "model.ckpt")
    save_checkpoint(result.best, ckpt_path)
    report_path = os.path.join(args.out, "train_report.json")
    with atomic_open(report_path, encoding="utf-8") as f:
        json.dump(dataclasses.asdict(result.report), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"best dev F1 {result.report.best_f1:.4f} at epoch {result.report.best_epoch} "
          f"({result.report.stopping_reason})")
    print(f"checkpoint: {ckpt_path}\nreport: {report_path}")
    return 0


def cmd_tag(args) -> int:
    if args.out:
        _check_out(args.out)
    # decoding needs no Adam moments; the model owns the checkpoint's
    # arrays, so dropping the checkpoint leaves one copy of the weights
    ckpt = load_checkpoint(args.model, moments=False)
    tokenizer = ckpt.meta.get("tokenizer") or {"mode": "general"}
    model = model_from_checkpoint(ckpt)
    del ckpt
    scheme = model.config.scheme
    if args.raw:
        kind = _tokenizer_kind(tokenizer)
        with utf8_text(args.input, CorpusFormatError) as f:
            text = f.read()
        texts = ([t.text for t in kind.tokenize(s)] for s in split_sentences(text))
        sentences = [sentence_from_texts(t, [0] * len(t), "doc0000") for t in texts if t]
    else:
        sentences = read_column_corpus(args.input, None)

    # every tag is decoded before the output is touched, and a file output
    # replaces the old one only once complete
    lines = []
    for sent, tags in zip(sentences, model.predict_batch(sentences)):
        lines.extend(f"{text}\t{scheme.tag_name(tid)}\n"
                     for text, tid in zip(sent.tokens, tags))
        lines.append("\n")
    if args.out:
        with atomic_open(args.out, encoding="utf-8") as out:
            out.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_eval(args) -> int:
    scheme = _scheme_from_arg(args.labels)
    gold = read_column_corpus(args.gold, scheme)
    pred = read_column_corpus(args.pred, scheme)
    if len(gold) != len(pred):
        raise CorpusFormatError(
            f"gold has {len(gold)} sentences, pred has {len(pred)}")
    pred_tags = [list(s.tags) for s in pred]
    report = evaluate(gold, pred_tags, scheme)
    print(format_report(report))
    print()
    print(format_confusion(confusion_matrix(gold, pred_tags, scheme)))
    if args.errors:
        listing = error_listing(gold, pred_tags, scheme, limit=args.errors)
        if listing:
            print()
            print(format_errors(listing))
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    labels = ("A", "B")
    scheme = LabelScheme(labels)
    words = [f"w{i}" for i in range(14)] + ["2-xy", "qz9", "benzol", "acidum",
                                            "salz", "aqua"]
    # a ragged batch, so the check covers the packed multi-sentence path
    sents = [sentence_from_texts(
        [words[int(rng.integers(0, len(words)))] for _ in range(n)],
        [int(rng.integers(0, scheme.num_tags)) for _ in range(n)], "d0") for n in (6, 3, 1)]
    vocab = build_vocabulary(sents * 4, [], min_count=1)
    config = ModelConfig(labels=labels, word_dim=8, char_embed_dim=4,
                         char_filter_count=4, char_output_dim=4, lstm_hidden=6)
    model = NerModel.init(config, vocab, seed=args.seed)
    masks = model.make_dropout_masks([6, 3, 1], np.random.default_rng(args.seed + 1))
    err = nx.grad_check(lambda tape: model.build_loss(tape, sents, masks),
                        model.trainable_parameters(), epsilon=1e-5)
    print(f"max relative gradient error: {err:.3e} (threshold 1e-3)")
    if not np.isfinite(err) or err >= 1e-3:
        print("gradient check FAILED", file=sys.stderr)
        return NUMERIC_ERROR
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """A count option: digits only, so argparse refuses a negative one (exit 1)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"need a whole number of at least 0, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chemner",
                     description="Chemical-patent NER pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="tokenize stdin text")
    p.add_argument("--mode", choices=("general", "chemical"), default="general")
    p.add_argument("--rules", help="JSON rule file for the chemical tokenizer")

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True, help="comma-separated entity labels")

    p = sub.add_parser("split", help="document-level train/dev/test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="0.6,0.1,0.3")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-bilm", help="train the scaled-down bidirectional LM")
    p.add_argument("--config", help="JSON file with the settings below as keys")
    p.add_argument("--corpus", required=True, help="plain text, one sentence per line")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--tokenizer", choices=("general", "chemical"), default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    p.add_argument("--min-count", type=int, default=None, dest="min_count")
    p.add_argument("--char-embed-dim", type=int, default=None, dest="char_embed_dim")
    p.add_argument("--filter-width", type=int, default=None, dest="filter_width")
    p.add_argument("--filter-count", type=int, default=None, dest="filter_count")
    p.add_argument("--layer-dim", type=int, default=None, dest="layer_dim")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--max-token-len", type=int, default=None, dest="max_token_len")

    p = sub.add_parser("train", help="train the NER model")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--train", required=True, help="training corpus (column format)")
    p.add_argument("--dev", required=True, help="development corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("tag", help="tag sentences with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--raw", action="store_true",
                   help="input is plain text instead of column format")

    p = sub.add_parser("eval", help="entity-level evaluation")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--errors", type=_count, default=0, help="list up to N error sentences")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _openblas():
    """The OpenBLAS bundled with numpy (in its wheels' ``numpy.libs`` or
    ``numpy/.dylibs``), which numpy has already loaded; None when numpy
    bundles none."""
    root = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(root + ".libs", "libscipy_openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None


def _pin_blas() -> None:
    """One BLAS thread unless the environment sets a count. The rule is BLAS
    threads x chemner threads <= the CPUs the process may use, with one BLAS
    thread while the ``chemner-bilstm`` worker can run beside the calling
    thread, so 1 on any CPU count; seeded runs then give the same bits on
    every machine. A BLAS without OpenBLAS's setter is left as it is."""
    if any(os.environ.get(v)
           for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    try:
        _openblas().scipy_openblas_set_num_threads64_(1)
    except (AttributeError, OSError):  # no bundled OpenBLAS, or one without the setter
        print("warning: numpy's BLAS has no scipy_openblas_set_num_threads64_; "
              "its thread count is left as it is", file=sys.stderr)


@functools.cache
def _process() -> tuple[argparse.ArgumentParser, Callable[[int], int] | None]:
    """What a process sets up once, at its first command: its BLAS threads
    (:func:`_pin_blas`), the argument parser, and glibc's ``malloc_trim``
    (None without glibc)."""
    _pin_blas()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        trim = None
    return build_parser(), trim


def main(argv=None) -> int:
    """Run one command; under glibc, give every free page of the heap back
    when it ends, not only a free top of the heap, so what a command leaves
    resident does not hang on where a few small blocks landed (README)."""
    trim = _process()[1]
    try:
        return _run(argv)
    finally:
        if trim is not None:
            trim(0)


def _run(argv) -> int:
    try:
        args = _process()[0].parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    # looked up when the command runs, not when the parser was built
    command = {"tokenize": cmd_tokenize, "stats": cmd_stats, "split": cmd_split,
               "train-bilm": cmd_train_bilm, "train": cmd_train, "tag": cmd_tag,
               "eval": cmd_eval, "gradcheck": cmd_gradcheck}[args.command]
    try:
        return command(args)
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return NUMERIC_ERROR
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
