"""Traced-run recorder built from the benchmark's own files.

Each hook wraps one public function of a chemner layer. A module-level
function is replaced in every ``chemner`` module that holds it, because
callers look it up there (``lstm_scan`` finds ``lstm_step`` in
``chemner.numerics``; ``cmd_train`` finds ``train`` in ``chemner.cli``).
A method is replaced on its class. Every wrapped call while the recorder
is active becomes a span with a parent span; a span's self time is its
duration minus the durations of its child spans.

A hook whose target no longer exists is reported absent instead of
failing the run, and a hook that saw no call on a workload where its
layer must run is flagged.

The traced run is checked: every span is closed and lies inside its
parent, so no self time is negative, and the spans cover the traced wall
time, which the harness clocks on its own, except for at most
``UNATTRIBUTED_MARGIN`` of it (``trace.unattributed.ms``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

TRAIN = frozenset({"train-paper", "ebc-desk"})
TAG = frozenset({"tag-paper", "ebc-desk"})
ALL = frozenset({"train-paper", "tag-paper", "ebc-desk"})
EBC = frozenset({"ebc-desk"})
PAPER_TRAIN = frozenset({"train-paper"})

UNATTRIBUTED_MARGIN = 0.01   # share of the traced wall no span may cover
_EPS = 1e-9                  # seconds; rounding of perf_counter differences


class Recorder:
    """Spans kept in flat arrays: name id, parent index, start and end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_of[i] == nid for i in self.stack)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self seconds, per-name calls, and the summed duration of
        root spans."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.float64)
        ends = np.frombuffer(self.end, dtype=np.float64)
        own = self_times(parents, starts, ends)
        k = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=k) if len(names) else np.zeros(k)
        calls = np.bincount(names, minlength=k) if len(names) else np.zeros(k, dtype=int)
        roots = float((ends - starts)[parents < 0].sum()) if len(names) else 0.0
        return ({n: float(self_s[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)}, roots)


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    durations = ends - starts
    child = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    return durations - child


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------

def _count_tape(rec: Recorder, args, result) -> None:
    if rec.inside("training.train"):
        rec.count("ner_tape_entries", len(args[0]))
        rec.count("ner_batches")


def _count_tokens(rec: Recorder, args, result) -> None:
    rec.count("textproc.tokens", len(result))


def _count_contextual_embeds(rec: Recorder, args, result) -> None:
    if args[0].config.use_contextual and rec.inside("training.train"):
        rec.count("ctx_embed_calls_in_training")


def _count_contextualize(rec: Recorder, args, result) -> None:
    if rec.inside("training.train"):
        rec.count("ctx_calls_in_training")


@dataclass(frozen=True)
class Hook:
    name: str                      # layer.function, the metric stem
    target: str                    # "module:attribute" or "module:Class.method"
    expect: frozenset              # workloads on which the layer must run
    observe: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


HOOKS = (
    Hook("textproc.split_sentences", "chemner.textproc:split_sentences", TAG),
    Hook("textproc.tokenize", "chemner.textproc:TokenizerKind.tokenize", TAG, _count_tokens),
    Hook("corpus.read", "chemner.corpus:read_column_corpus", TRAIN),
    Hook("corpus.vocab", "chemner.corpus:build_vocabulary", TRAIN),
    Hook("corpus.normalize", "chemner.corpus:normalize_long_tokens", ALL),
    Hook("embeddings.load", "chemner.embeddings:load_embedding_text", PAPER_TRAIN),
    Hook("embeddings.align", "chemner.embeddings:align_to_vocab", PAPER_TRAIN),
    Hook("numerics.backward", "chemner.numerics:backward", TRAIN, _count_tape),
    Hook("numerics.lstm_scan", "chemner.numerics:lstm_scan", ALL),
    Hook("numerics.lstm_step", "chemner.numerics:lstm_step", ALL),
    Hook("numerics.conv1d", "chemner.numerics:conv1d", ALL),
    Hook("crf.log_partition", "chemner.crf:log_partition", TRAIN),
    Hook("crf.score_sequence", "chemner.crf:score_sequence", TRAIN),
    Hook("crf.viterbi", "chemner.crf:viterbi", ALL),
    Hook("bilm.train_bilm", "chemner.bilm:train_bilm", EBC),
    Hook("bilm.from_checkpoint", "chemner.bilm:bilm_from_checkpoint", EBC),
    Hook("bilm.sentence_nll", "chemner.bilm:BiLm.sentence_nll", EBC),
    Hook("bilm.perplexity", "chemner.bilm:BiLm.perplexity", EBC),
    Hook("bilm.contextualize", "chemner.bilm:BiLm.contextualize", EBC, _count_contextualize),
    Hook("bilm.mix_layers", "chemner.bilm:mix_layers", EBC),
    Hook("model.init", "chemner.model:NerModel.init", ALL),
    Hook("model.from_checkpoint", "chemner.model:model_from_checkpoint", TAG),
    Hook("model.build_loss", "chemner.model:NerModel.build_loss", TRAIN),
    Hook("model.encode_chars", "chemner.model:NerModel.encode_chars", ALL),
    Hook("model.embed_tokens", "chemner.model:NerModel.embed_tokens", ALL,
         _count_contextual_embeds),
    Hook("model.encode", "chemner.model:NerModel.encode", ALL),
    Hook("model.emissions", "chemner.model:NerModel.emissions", ALL),
    Hook("model.predict", "chemner.model:NerModel.predict", ALL),
    Hook("training.train", "chemner.training:train", TRAIN),
    Hook("training.clip", "chemner.training:clip_gradients", TRAIN),
    Hook("training.adam", "chemner.training:adam_step", TRAIN),
    Hook("training.dev_eval", "chemner.training:dev_micro_f1", TRAIN),
    Hook("training.make_checkpoint", "chemner.training:make_checkpoint", TRAIN),
    Hook("training.save_checkpoint", "chemner.training:save_checkpoint", TRAIN),
    Hook("training.load_checkpoint", "chemner.training:load_checkpoint", TAG),
    Hook("evaluation.evaluate", "chemner.evaluation:evaluate", TRAIN),
    Hook("cli.main", "chemner.cli:main", ALL),
)

LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))


def _wrap(fn: Callable, rec: Recorder, nid: int, observe: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(rec, args, result)
        return result
    return wrapper


class Installed:
    """Hooks in place; :meth:`remove` restores every replaced attribute."""

    def __init__(self) -> None:
        self.absent: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder, hooks=HOOKS) -> Installed:
    done = Installed()
    for hook in hooks:
        module_name, _, path = hook.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as e:
            done.absent[hook.name] = f"module {module_name} not importable: {e}"
            continue
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        nid = rec.name_id(hook.name)
        if owner_path:
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if not callable(getattr(raw, "__func__", raw)):
                done.absent[hook.name] = f"{hook.target} not found"
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(_wrap(raw.__func__, rec, nid, hook.observe))
            else:
                replacement = _wrap(raw, rec, nid, hook.observe)
            setattr(owner, attr, replacement)
            done._undo.append((owner, attr, raw))
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            done.absent[hook.name] = f"{hook.target} not found"
            continue
        wrapper = _wrap(original, rec, nid, hook.observe)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "chemner" or name.startswith("chemner.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    done._undo.append((mod, key, original))
    return done


def span_problems(rec: Recorder, traced_wall: float) -> list[str]:
    """What is wrong with the recorded spans: open spans, children outside
    their parent (negative self time), or spans that miss more than
    ``UNATTRIBUTED_MARGIN`` of the traced wall or cover more than all of it."""
    problems = []
    if rec.stack:
        problems.append(f"{len(rec.stack)} spans left open")
    parents = np.frombuffer(rec.parent, dtype=np.int32)
    starts = np.frombuffer(rec.start, dtype=np.float64)
    ends = np.frombuffer(rec.end, dtype=np.float64)
    unclosed = int((ends < starts).sum())
    if unclosed:
        problems.append(f"{unclosed} spans end before they start")
    child = np.flatnonzero(parents >= 0)
    outside = int(((starts[child] < starts[parents[child]] - _EPS)
                   | (ends[child] > ends[parents[child]] + _EPS)).sum())
    if outside:
        problems.append(f"{outside} spans lie outside their parent span")
    negative = int((self_times(parents, starts, ends) < -_EPS).sum())
    if negative:
        problems.append(f"{negative} spans have a negative self time")
    roots = float((ends - starts)[parents < 0].sum())
    unattributed = traced_wall - roots
    if not -_EPS * len(starts) <= unattributed <= UNATTRIBUTED_MARGIN * traced_wall:
        problems.append(f"spans cover {roots:.4f} s of the traced wall {traced_wall:.4f} s; "
                        f"unattributed must lie in [0, {UNATTRIBUTED_MARGIN:.0%}] of it")
    return problems


def layer_metrics(rec: Recorder, installed: Installed, workload: str,
                  traced_wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    """Every per-layer metric value, plus the zero-call flags."""
    self_s, calls, roots = rec.totals()
    metrics: dict[str, float] = {}
    flags = []
    layer_total = dict.fromkeys(LAYERS, 0.0)
    for hook in HOOKS:
        metrics[f"{hook.name}.ms"] = 1e3 * self_s.get(hook.name, 0.0)
        metrics[f"{hook.name}.calls"] = calls.get(hook.name, 0)
        layer_total[hook.layer] += metrics[f"{hook.name}.ms"]
        if (hook.name not in installed.absent and workload in hook.expect
                and calls.get(hook.name, 0) == 0):
            flags.append(f"{hook.name} saw zero calls on {workload}")
    for layer, ms in layer_total.items():
        metrics[f"layer.{layer}.ms"] = ms
    c = rec.counters
    batches = c.get("ner_batches", 0.0)
    metrics["numerics.tape_entries_per_batch"] = (
        c.get("ner_tape_entries", 0.0) / batches if batches else 0.0)
    embeds = c.get("ctx_embed_calls_in_training", 0.0)
    metrics["bilm.ctx_cache_hit_ratio"] = (
        1.0 - c.get("ctx_calls_in_training", 0.0) / embeds if embeds else 0.0)
    metrics["textproc.tokens"] = c.get("textproc.tokens", 0.0)
    metrics["trace.wall.ms"] = 1e3 * traced_wall
    metrics["trace.unattributed.ms"] = 1e3 * (traced_wall - roots)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    metrics["trace.flagged_hooks"] = len(flags)
    metrics["trace.absent_hooks"] = len(installed.absent)
    return metrics, flags
