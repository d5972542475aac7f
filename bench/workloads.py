"""The workloads: inputs, set-up, and one measured round each.

Every workload is a closed loop with a single caller. The program is
driven only through its public entry points: ``chemner.cli.main`` for the
train, train-bilm and tag commands, ``NerModel.predict`` and
``BiLm.contextualize``. Functions are looked up through their modules at
call time so that the traced run sees the calls.

A run repeats short rounds of identical work, each after a few set-up
samples, so that the samples of every metric spread over the whole run
and slow changes of a shared machine's speed average out. The held-out
text comes in equal parts; round ``k`` tags and predicts part
``k mod parts``.

The set-up of the train workloads is timed inside the real ``chemner
train`` command: from entering ``cli.main`` to the command's lookup of its
training step, ``chemner.cli.train`` (see :func:`train_command`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from chemner import bilm as bilm_mod
from chemner import cli, corpus, model as model_mod, training

import gen
from harness import Clock, Ledger

LOSS_TOLERANCE = 1e-9   # relative; seeded runs repeat bit for bit on one machine
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CORPUS_DOCS = 10        # the smallest count with an exact 60/10/30 document split
PATENT_DOCS = 24        # 120 held-out sentences, five per document

PAPER_MODEL = {"word_dim": 200, "char_embed_dim": 50, "char_filter_width": 3,
               "char_filter_count": 30, "char_output_dim": 30, "lstm_layers": 2,
               "lstm_hidden": 250, "dropout": [0.25, 0.25]}
PAPER_TRAIN = {"batch_size": 16, "max_epochs": 1, "patience": 1, "learning_rate": 0.001}
# the desk sizes of acceptance criterion 3
DESK_MODEL = {"word_dim": 16, "char_embed_dim": 8, "char_filter_width": 3,
              "char_filter_count": 8, "char_output_dim": 8, "lstm_layers": 2,
              "lstm_hidden": 16}
DESK_TRAIN = {"batch_size": 16, "max_epochs": 3, "patience": 3, "learning_rate": 0.01}
DESK_BILM = {"char_embed_dim": 8, "filter_width": 3, "filter_count": 8, "layer_dim": 16,
             "layers": 2, "learning_rate": 0.01, "min_count": 1, "epochs": 2}
TOKENIZER = {"mode": "chemical", "rules": None}


@dataclass
class Run:
    """State of one benchmark run of one workload."""

    workload: str
    seed: int
    work: str
    clock: Clock
    ledger: Ledger
    reference: dict
    record: bool = False
    files: dict = field(default_factory=dict)
    data: gen.Corpus | None = None
    parts: list = field(default_factory=list)        # per part: TaggedSentence list
    setup_s: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)       # name -> [tokens, seconds]
    round_cli: list = field(default_factory=list)    # per round: [tokens, seconds] of CLI calls
    latencies_ms: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)     # losses for the reference check

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def add_phase(self, name: str, tokens: int, seconds: float, cli_call: bool) -> None:
        acc = self.phases.setdefault(name, [0, 0.0])
        acc[0] += tokens
        acc[1] += seconds
        if cli_call:
            self.round_cli[-1][0] += tokens
            self.round_cli[-1][1] += seconds


class BenchError(RuntimeError):
    """The benchmark itself cannot run (its generated data breaks a stated property)."""


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def _tokens(docs) -> int:
    return sum(len(s.tokens) for s in gen.Corpus.sentences(docs))


def prepare_common(run: Run, sentences_per_doc: int, embedding_dim: int | None,
                   parts: int) -> None:
    data = gen.generate(run.seed, CORPUS_DOCS, PATENT_DOCS,
                        corpus_sentences_per_doc=sentences_per_doc)
    stats, problems = gen.check_properties(data)
    if problems:
        raise BenchError(f"generated data breaks its stated properties: {problems}")
    run.data = data
    run.files = gen.write_files(data, run.work, run.seed, embedding_dim, parts)
    run.parts = [[corpus.sentence_from_texts(s.tokens, [0] * len(s.tokens), "patent")
                  for s in gen.Corpus.sentences(docs)]
                 for docs in gen.patent_parts(data, parts)]
    scheme = corpus.LabelScheme(gen.LABELS)
    for split in ("train", "dev", "test"):
        op = run.ledger.begin(f"read_column_corpus({split})")
        try:
            sents = corpus.read_column_corpus(run.files[f"{split}.tsv"], scheme)
        except Exception as e:  # the program failed on generated input
            run.ledger.fail(op, f"{type(e).__name__}: {e}")
            continue
        expected = gen.Corpus.sentences(getattr(data, split))
        run.ledger.check(op, sum(s.repairs for s in sents) == 0, "BIO repairs on valid tags")
        run.ledger.check(op, [s.texts for s in sents] == [s.tokens for s in expected],
                         "tokens read differ from the tokens written")


def write_run_config(run: Run, name: str, model: dict, train: dict, **extra) -> str:
    path = run.path(name)
    payload = {"labels": list(gen.LABELS), "tokenizer": TOKENIZER, "model": model,
               "train": {**train, "seed": run.seed}, "embeddings": None, "bilm": None}
    payload.update(extra)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return path


class _SetupDone(BaseException):
    """Ends a set-up-only ``chemner train`` call where the command looks up
    its training step. A BaseException, so that no error handler of the
    program takes it for a failure."""


def call_cli(run: Run, what: str, argv: list[str]) -> tuple[int, bool, float | None]:
    """One timed ``chemner`` command; its output is captured, not printed.
    Returns the operation, whether it succeeded and its seconds (None when
    it ended at the set-up mark)."""
    op = run.ledger.begin(what)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds = run.clock.run(lambda: cli.main(argv))
    except _SetupDone:
        return op, True, None
    except Exception as e:
        run.ledger.fail(op, f"{type(e).__name__}: {e}")
        return op, False, None
    ok = run.ledger.check(op, code == 0, f"exit code {code}: {err.getvalue()[-400:]}")
    return op, ok, seconds


@dataclass
class TrainCall:
    op: int
    ok: bool
    seconds: float | None      # whole call; None for a set-up-only call
    setup_s: float | None      # from entering cli.main to the training step
    model: object = None       # the model the command built for training


def train_command(run: Run, what: str, config: str, out_dir: str,
                  setup_only: bool) -> TrainCall:
    """``chemner train``, with a timestamp-only shim where the command looks
    up its training step, ``chemner.cli.train``: the time from entering
    ``cli.main`` to that lookup is the command's set-up. With
    ``setup_only`` the shim ends the call there."""
    target = getattr(cli, "train", None)
    if not callable(target):
        raise BenchError("chemner.cli.train not found: the train set-up cannot be timed")
    marks = []

    def shim(*args, **kwargs):
        marks.append((time.perf_counter(), args[0] if args else kwargs.get("model")))
        if setup_only:
            raise _SetupDone
        return target(*args, **kwargs)

    argv = ["train", "--config", config, "--train", run.files["train.tsv"],
            "--dev", run.files["dev.tsv"], "--out", out_dir, "--seed", str(run.seed)]
    cli.train = shim
    try:
        op, ok, seconds = call_cli(run, what, argv)
    finally:
        cli.train = target
    if not (ok and run.ledger.check(op, bool(marks), "chemner train never reached "
                                    "its training step")):
        return TrainCall(op, False, seconds, None)
    mark, model = marks[0]
    return TrainCall(op, True, seconds, mark - run.clock.started, model)


def setup_train(run: Run, config: str) -> None:
    """One set-up sample: ``chemner train`` up to its training step."""
    call = train_command(run, "train (set-up only)", config, run.path("setup"), True)
    if call.ok:
        run.setup_s.append(call.setup_s)


def check_roundtrip(run: Run, op: int, path: str) -> None:
    """save -> load -> save must reproduce the checkpoint byte for byte."""
    copy = path + ".roundtrip"
    try:
        training.save_checkpoint(training.load_checkpoint(path), copy)
        with open(path, "rb") as a, open(copy, "rb") as b:
            same = a.read() == b.read()
    except Exception as e:
        run.ledger.fail(op, f"checkpoint round trip: {type(e).__name__}: {e}")
        return
    finally:
        if os.path.exists(copy):
            os.remove(copy)
    run.ledger.check(op, same, f"{os.path.basename(path)}: save-load-save not byte-identical")


def check_reference(run: Run, op: int, key: str, values: list[float]) -> None:
    """Compare with the losses recorded for this workload and seed, if any."""
    run.observed[key] = values
    if run.record:
        return
    ref = run.reference.get(run.workload, {}).get(str(run.seed), {}).get(key)
    if ref is None:
        return
    ok = len(ref) == len(values) and all(
        abs(a - b) <= LOSS_TOLERANCE * max(1.0, abs(b)) for a, b in zip(values, ref))
    run.ledger.check(op, ok, f"{key} {values} differs from the recorded {ref}")


def check_train_output(run: Run, op: int, out_dir: str, epochs: int) -> int:
    """Losses finite, >= 0 and as recorded; checkpoint round trip. Returns
    the number of epochs run."""
    try:
        with open(os.path.join(out_dir, "train_report.json"), encoding="utf-8") as f:
            report = json.load(f)
        losses = [float(e["train_loss"]) for e in report["epochs"]]
    except (OSError, ValueError, KeyError) as e:
        run.ledger.fail(op, f"train report unreadable: {e}")
        return 0
    run.ledger.check(op, len(losses) == epochs, f"{len(losses)} epochs, expected {epochs}")
    run.ledger.check(op, all(math.isfinite(x) and x >= 0 for x in losses),
                     f"training loss not finite and >= 0: {losses}")
    check_reference(run, op, "train_loss", losses)
    check_roundtrip(run, op, os.path.join(out_dir, "model.ckpt"))
    return len(losses)


def train_call(run: Run, what: str, config: str, out_dir: str, epochs: int) -> bool:
    """A whole ``chemner train`` call; its set-up is a set-up sample too."""
    call = train_command(run, what, config, out_dir, False)
    if call.ok:
        run.setup_s.append(call.setup_s)
        done = check_train_output(run, call.op, out_dir, epochs)
        run.add_phase("train", _tokens(run.data.train) * done, call.seconds, cli_call=True)
    return call.ok


def tag_call(run: Run, checkpoint: str, part: int) -> list[list[str]] | None:
    """``chemner tag --raw`` over one part of the held-out text; returns the
    tags per sentence, or None when the call failed."""
    out_path = run.path("tagged.tsv")
    op, ok, seconds = call_cli(run, "tag --raw", [
        "tag", "--model", checkpoint, "--in", run.files[f"patent-{part}.txt"],
        "--out", out_path, "--raw"])
    if not ok:
        return None
    with open(out_path, encoding="utf-8") as f:
        blocks = [b for b in f.read().split("\n\n") if b.strip()]
    rows = [[line.split("\t") for line in b.splitlines()] for b in blocks]
    tokens = [[r[0] for r in sent] for sent in rows]
    tags = [[r[1] if len(r) > 1 else "" for r in sent] for sent in rows]
    run.ledger.check(op, tokens == [s.texts for s in run.parts[part]],
                     "tag output tokens differ from the benchmark's tokenization")
    run.ledger.check(op, all(t in gen.TAGS for sent in tags for t in sent),
                     "tag outside the scheme")
    run.add_phase("tag", sum(len(t) for t in tokens), seconds, cli_call=True)
    return tags


def predict_loop(run: Run, model, part: int, bulk: list[list[str]] | None) -> None:
    """One ``predict`` call per held-out sentence of a part, each timed."""
    for i, sent in enumerate(run.parts[part]):
        op = run.ledger.begin("predict")
        try:
            tags, seconds = run.clock.run(model.predict, sent)
        except Exception as e:
            run.ledger.fail(op, f"{type(e).__name__}: {e}")
            continue
        run.latencies_ms.append(1e3 * seconds)
        if not run.ledger.check(op, len(tags) == len(sent.tokens)
                                and all(0 <= t < len(gen.TAGS) for t in tags),
                                "predict returned invalid tags"):
            continue
        if bulk is not None:
            names = [gen.TAGS[t] for t in tags]
            run.ledger.check(op, i < len(bulk) and bulk[i] == names,
                             f"sentence {i}: predict tags differ from chemner tag")


def load_model(path: str):
    return model_mod.model_from_checkpoint(training.load_checkpoint(path))


# ---------------------------------------------------------------------------
# train-paper
# ---------------------------------------------------------------------------

def prepare_paper(run: Run) -> str:
    """Paper-size data and run configuration; returns the config path."""
    prepare_common(run, sentences_per_doc=3, embedding_dim=200, parts=3)
    return write_run_config(run, "run.json", PAPER_MODEL, PAPER_TRAIN,
                            embeddings=run.files["embeddings.txt"])


class TrainPaper:
    """One epoch of 18 sentences per round (batches of 16 and 2), then
    predict a third of the held-out text with the checkpoint written."""

    def prepare(self, run: Run) -> None:
        self.config = prepare_paper(run)

    def setup(self, run: Run):
        setup_train(run, self.config)

    def round(self, run: Run, state, part: int) -> None:
        out_dir = run.path("out")
        if train_call(run, "train", self.config, out_dir, PAPER_TRAIN["max_epochs"]):
            predict_loop(run, load_model(os.path.join(out_dir, "model.ckpt")), part, None)


# ---------------------------------------------------------------------------
# tag-paper
# ---------------------------------------------------------------------------

class TagPaper:
    """A paper-size checkpoint, seeded and saved during preparation from the
    model ``chemner train`` builds; each round tags one part with ``chemner
    tag --raw`` and predicts it again sentence by sentence."""

    def prepare(self, run: Run) -> None:
        config = prepare_paper(run)
        call = train_command(run, "train (model for the tag checkpoint)", config,
                             run.path("out"), True)
        if call.model is None:
            raise BenchError("chemner train built no model for the tag checkpoint")
        ckpt = training.make_checkpoint(call.model, None, None,
                                        meta={"tokenizer": TOKENIZER})
        self.checkpoint = run.path("model.ckpt")
        training.save_checkpoint(ckpt, self.checkpoint)

    def setup(self, run: Run):
        """One set-up sample: ``load_checkpoint`` and ``model_from_checkpoint``."""
        model, seconds = run.clock.run(load_model, self.checkpoint)
        run.setup_s.append(seconds)
        return model

    def round(self, run: Run, model, part: int) -> None:
        bulk = tag_call(run, self.checkpoint, part)
        predict_loop(run, model, part, bulk)


# ---------------------------------------------------------------------------
# ebc-desk
# ---------------------------------------------------------------------------

class EbcDesk:
    """Per round: train-bilm, contextual train over several epochs (epoch 1
    misses the context cache, later epochs hit it), then contextualize, tag
    and predict an eighth of the held-out text with a fresh model (misses
    again)."""

    def prepare(self, run: Run) -> None:
        prepare_common(run, sentences_per_doc=2, embedding_dim=None, parts=8)
        # the set-up samples before the first round need a biLM checkpoint;
        # every round then trains its own over it
        self.bilm_ckpt = run.path("bilm.ckpt")
        _, ok, _ = call_cli(run, "train-bilm (checkpoint for set-up)", self._bilm_argv(run, 1))
        if not ok:
            raise BenchError(f"chemner train-bilm failed: {run.ledger.failures[-1:]}")
        self.config = write_run_config(run, "run.json", DESK_MODEL, DESK_TRAIN,
                                       bilm=self.bilm_ckpt)

    def setup(self, run: Run):
        setup_train(run, self.config)

    def _bilm_argv(self, run: Run, epochs: int) -> list[str]:
        argv = ["train-bilm", "--corpus", run.files["train_lines.txt"], "--epochs",
                str(epochs), "--seed", str(run.seed), "--out", self.bilm_ckpt,
                "--tokenizer", TOKENIZER["mode"]]
        for key in ("char_embed_dim", "filter_width", "filter_count", "layer_dim", "layers",
                    "learning_rate", "min_count"):
            argv += ["--" + key.replace("_", "-"), str(DESK_BILM[key])]
        return argv

    def _train_bilm(self, run: Run) -> bool:
        epochs = DESK_BILM["epochs"]
        op, ok, seconds = call_cli(run, "train-bilm", self._bilm_argv(run, epochs))
        if not ok:
            return False
        ppl = [float(x) for x in training.load_checkpoint(self.bilm_ckpt).meta["perplexities"]]
        run.ledger.check(op, len(ppl) == epochs and all(map(math.isfinite, ppl))
                         and ppl[-1] < ppl[0], f"biLM perplexity does not fall: {ppl}")
        check_reference(run, op, "bilm_perplexity", ppl)
        check_roundtrip(run, op, self.bilm_ckpt)
        run.add_phase("bilm_train", _tokens(run.data.train) * epochs, seconds, cli_call=True)
        return True

    def _contextualize(self, run: Run, part: int) -> None:
        bilm = bilm_mod.bilm_from_checkpoint(training.load_checkpoint(self.bilm_ckpt))
        shape_tail = (bilm.config.num_layers + 1, bilm.config.output_dim)
        for sent in run.parts[part]:
            op = run.ledger.begin("contextualize")
            try:
                layers, seconds = run.clock.run(bilm.contextualize, sent.texts)
            except Exception as e:
                run.ledger.fail(op, f"{type(e).__name__}: {e}")
                continue
            run.add_phase("contextualize", len(sent.tokens), seconds, cli_call=False)
            run.ledger.check(op, layers.shape == (len(sent.tokens),) + shape_tail
                             and bool(np.isfinite(layers).all()),
                             f"contextualize returned shape {layers.shape} or non-finite values")

    def round(self, run: Run, state, part: int) -> None:
        if not self._train_bilm(run):
            return
        out_dir = run.path("out")
        if not train_call(run, "train (contextual)", self.config, out_dir,
                          DESK_TRAIN["max_epochs"]):
            return
        self._contextualize(run, part)
        checkpoint = os.path.join(out_dir, "model.ckpt")
        bulk = tag_call(run, checkpoint, part)
        predict_loop(run, load_model(checkpoint), part, bulk)


WORKLOADS = {"train-paper": TrainPaper, "tag-paper": TagPaper, "ebc-desk": EbcDesk}
