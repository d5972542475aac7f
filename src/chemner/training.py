"""Adam optimization with global-norm clipping, early stopping on dev F1,
and bit-exact binary checkpoints."""

import io
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics as nx
from .corpus import DatasetSplit, TaggedSentence, Vocabulary, atomic_open
from .evaluation import evaluate
from .numerics import NumericError, Parameter, Tape, Tensor
from .schema import check_json_types, to_json

CHECKPOINT_MAGIC = b"CHEMNER\x01"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    clip_norm: float = 1.0
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        values = (self.learning_rate, self.batch_size, self.clip_norm, self.max_epochs,
                  self.patience, self.epsilon)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("train config values must be positive and finite")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")


# elements per run of adam_step's sweep: a run of the gradient, the moments,
# the value and the two temporaries stays in cache through its operations
ADAM_CHUNK = 16_384


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    # room for the clip's squares (the largest parameter) and adam_step's
    # two temporaries, neither checkpointed nor compared
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False,
                                repr=False)

    @classmethod
    def init(cls, params: Sequence[Parameter]) -> "AdamState":
        # each gradient buffer is allocated here, with the moments: one first
        # allocated inside a step's backward sits above that step's
        # temporaries in the heap, and glibc cannot return them to the
        # system while the run lasts (~100 MB held at the paper size)
        for p in params:
            p.gradient
        # m and v are views of one zeroed block; at the paper size it lies
        # above glibc's mmap threshold, so its pages become resident only as
        # the first step writes them, not before the first backward as
        # zeros_like's would
        def views(block: np.ndarray) -> dict[str, np.ndarray]:
            out, at = {}, 0
            for p in params:
                out[p.name] = block[at:at + p.value.size].reshape(p.value.shape)
                at += p.value.size
            return out
        total = sum(p.value.size for p in params)
        block = np.zeros(2 * total)
        largest = max((p.value.size for p in params), default=0)
        return cls(m=views(block[:total]), v=views(block[total:]),
                   scratch=np.empty(max(largest, 2 * min(largest, ADAM_CHUNK))))

    @classmethod
    @contextmanager
    def run(cls, params: Sequence[Parameter]) -> Iterator["AdamState"]:
        """:meth:`init`'s state for one training run. Leaving drops the
        gradient buffer of every one of ``params``, so a trained model holds
        its values and nothing of the run."""
        state = cls.init(params)
        try:
            yield state
        finally:
            for p in params:
                p._gradient = None


def clip_gradients(params: Sequence[Parameter], max_norm: float = 1.0,
                   scratch: np.ndarray | None = None) -> float:
    """Scale all trainable gradients so the global L2 norm is <= max_norm.

    Each gradient is squared into ``scratch`` (room for the largest
    gradient, allocated here when not given) and summed there, the same
    pairwise sum as ``(g * g).sum()``. When those squares overflow while
    every gradient is finite, the norm is summed again over the gradients
    divided by the largest |g|, then scaled back, so a huge gradient is
    clipped, not zeroed. Returns the pre-clip global norm."""
    grads = [p.gradient for p in params if p.trainable]
    if scratch is None:
        scratch = np.empty(max((g.size for g in grads), default=0))
    sq = 0.0
    with np.errstate(over="ignore"):
        for g in grads:
            sq += float(np.multiply(g, g, out=scratch[:g.size].reshape(g.shape)).sum())
    norm = float(np.sqrt(sq))
    if math.isinf(norm) and all(np.isfinite(g).all() for g in grads):
        top = max(float(np.abs(g).max()) for g in grads)
        norm = top * math.sqrt(sum(float(np.square(g / top).sum()) for g in grads))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def _runs(*arrays: np.ndarray) -> list[Sequence[np.ndarray]]:
    """C-contiguous arrays of one size, in runs of at most ``ADAM_CHUNK``
    elements: themselves when they fit in one. Each run is a view, so
    writing to it writes to its array."""
    size = arrays[0].size
    if size <= ADAM_CHUNK:
        return [arrays]
    assert all(a.flags.c_contiguous for a in arrays)  # so each reshape is a view
    flat = [a.reshape(-1) for a in arrays]
    return [[a[lo:lo + ADAM_CHUNK] for a in flat] for lo in range(0, size, ADAM_CHUNK)]


def adam_step(params: Sequence[Parameter], state: AdamState,
              config: TrainConfig) -> None:
    """Standard bias-corrected Adam; frozen rows and non-trainable
    parameters are never updated. A parameter's gradient, moments and value
    are swept together in runs of at most ``ADAM_CHUNK`` elements, through
    two run-sized views of ``state.scratch``, in the operation order of
    ``value -= lr·m̂ / (√v̂ + ε)``; every operation is elementwise, so the
    result is bitwise that formula's."""
    state.step += 1
    b1, b2, eps, lr = config.beta1, config.beta2, config.epsilon, config.learning_rate
    correct1, correct2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    for p in params:
        if not p.trainable:
            continue
        if p.frozen_rows:
            p.gradient[list(p.frozen_rows)] = 0.0
        if not np.isfinite(p.gradient).all():
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        for g, m, v, value in _runs(p.gradient, state.m[p.name], state.v[p.name], p.value):
            num = state.scratch[:g.size].reshape(g.shape)
            den = state.scratch[g.size:2 * g.size].reshape(g.shape)
            m *= b1
            np.multiply(g, 1.0 - b1, out=num)
            m += num
            v *= b2
            np.multiply(g, 1.0 - b2, out=num)
            num *= g
            v += num
            np.divide(m, correct1, out=num)
            num *= lr
            np.divide(v, correct2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            value -= num


def _optimizer_step(params: Sequence[Parameter], opt: AdamState, config: TrainConfig,
                    loss_fn: Callable[[Tape], Tensor], what: str) -> float:
    """Zero the gradients, record ``loss_fn`` on a fresh tape, refuse a
    non-finite loss (naming ``what``), backward, clear, clip, then Adam.
    Returns the loss value."""
    for p in params:
        p.zero_grad()
    tape = Tape()
    out = loss_fn(tape)
    if not np.isfinite(out.data):
        raise NumericError(f"non-finite {what}")
    nx.backward(tape, out)
    tape.clear()
    clip_gradients(params, config.clip_norm, opt.scratch)
    adam_step(params, opt, config)
    return float(out.data)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    kind: str                       # "ner" or "bilm"
    config: dict
    bilm_config: dict | None
    tensors: dict[str, np.ndarray]
    trainable: dict[str, bool]
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    opt_step: int
    vocab: dict
    bilm_vocab: dict | None
    rng_state: dict | None
    meta: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


# the checkpoint fields stored as JSON metadata, each with its decoded JSON
# type, exactly (a true is not an int); every one is required
_METADATA_KEYS = {"kind": (str,), "config": (dict,), "bilm_config": (dict, type(None)),
                  "trainable": (dict,), "opt_step": (int,), "vocab": (dict,),
                  "bilm_vocab": (dict, type(None)), "rng_state": (dict, type(None)),
                  "meta": (dict,), "version": (int,)}


def vocab_payload(vocab: Vocabulary) -> dict:
    return {"words": vocab.words, "chars": vocab.chars,
            "pretrained": sorted(vocab.pretrained), "min_count": vocab.min_count}


# the JSON type table (see schema.check_json_types) of a vocab_payload
VOCAB_TYPES = {**dict.fromkeys(("words", "chars", "pretrained"), [(str,)]), "min_count": (int,)}


def vocab_from_payload(payload: dict) -> Vocabulary:
    """A checkpoint's vocabulary, checked against VOCAB_TYPES."""
    payload = check_json_types("checkpoint vocabulary", payload, VOCAB_TYPES, CheckpointError)
    return Vocabulary(word_to_id={w: i for i, w in enumerate(payload["words"])},
                      char_to_id={c: i for i, c in enumerate(payload["chars"])},
                      pretrained=frozenset(payload["pretrained"]),
                      min_count=payload["min_count"])


def make_checkpoint(model, opt: AdamState | None, rng: np.random.Generator | None,
                    meta: dict | None = None, kind: str = "ner") -> Checkpoint:
    """A view of a model's live state (duck-typed: config, vocab,
    all_tensors/params): the checkpoint holds the model's and the
    optimizer's arrays themselves, uncopied, as :func:`model.model_from_checkpoint`
    keeps a checkpoint's, so a further step changes it too. Only the rng
    state and ``meta`` are copied."""
    ner = kind == "ner"
    bilm = model.bilm if ner else None
    named = model.all_tensors() if ner else dict(model.params)
    return Checkpoint(
        kind=kind, config=to_json(model.config) if ner else to_json(model.config, "vocab"),
        bilm_config=to_json(bilm.config, "vocab") if bilm is not None else None,
        tensors={name: p.value for name, p in named.items()},
        trainable={name: p.trainable for name, p in named.items()},
        opt_m=dict(opt.m) if opt else {},
        opt_v=dict(opt.v) if opt else {},
        opt_step=opt.step if opt else 0,
        vocab=vocab_payload(model.vocab if ner else model.config.vocab),
        bilm_vocab=vocab_payload(bilm.config.vocab) if bilm is not None else None,
        rng_state=json.loads(json.dumps(rng.bit_generator.state)) if rng else None,
        meta=dict(meta or {}))


def _write_tensor(out: io.BufferedWriter, name: str, arr: np.ndarray) -> None:
    name_b = name.encode("utf-8")
    out.write(struct.pack("<I", len(name_b)))
    out.write(name_b)
    out.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        out.write(struct.pack("<Q", d))
    out.write(np.ascontiguousarray(arr, dtype="<f8").data)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Magic, version, length-prefixed JSON metadata, then named tensor
    blocks (name, shape, little-endian float64) in sorted-name order."""
    metadata = {k: getattr(ckpt, k) for k in _METADATA_KEYS}
    meta_b = json.dumps(metadata, sort_keys=True, ensure_ascii=True,
                        separators=(",", ":")).encode("utf-8")
    blocks: list[tuple[str, np.ndarray]] = []
    for name in sorted(ckpt.tensors):
        blocks.append((f"p/{name}", ckpt.tensors[name]))
    for name in sorted(ckpt.opt_m):
        blocks.append((f"m/{name}", ckpt.opt_m[name]))
    for name in sorted(ckpt.opt_v):
        blocks.append((f"v/{name}", ckpt.opt_v[name]))
    with atomic_open(path, "b") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", ckpt.version))
        f.write(struct.pack("<Q", len(meta_b)))
        f.write(meta_b)
        f.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            _write_tensor(f, name, arr)


def stored(ckpt: Checkpoint) -> nx.Maker:
    """The parameter maker of a checkpoint load (see ``numerics.drawn``): the
    stored tensor of that name, uncopied, with its stored trainable flag. A
    name the file lacks a tensor or a flag for, or another shape, is
    refused, so no config can make a load allocate beyond the file."""
    def new(name: str, shape: tuple[int, ...], init=None, trainable: bool = True,
            frozen_rows: Sequence[int] = ()) -> Parameter:
        value = ckpt.tensors.get(name)
        if value is None or value.shape != tuple(shape) or name not in ckpt.trainable:
            raise CheckpointError(f"checkpoint config asks for {name} of shape {tuple(shape)}, "
                                  "which is not among the stored values")
        return Parameter(name, value, ckpt.trainable[name], frozen_rows)
    return new


def check_layout(named: dict[str, Parameter], ckpt: Checkpoint, layout: str) -> None:
    """Refuse a checkpoint that stores a tensor or a flag the layout
    ``named``, built by :func:`stored`, lacks."""
    extra = sorted((ckpt.tensors.keys() | ckpt.trainable.keys()) - named.keys())
    if extra:
        raise CheckpointError(f"checkpoint stores {extra}, which the {layout} layout lacks")


def _match_arrays(targets: dict[str, np.ndarray], saved: dict[str, np.ndarray],
                  what: str) -> None:
    """Refuse unless ``saved`` holds exactly the names of ``targets``, each
    in its target's shape."""
    if set(targets) != set(saved):
        raise CheckpointError(f"checkpoint {what} names differ: "
                              f"{sorted(set(targets) ^ set(saved))}")
    for name, target in targets.items():
        if target.shape != saved[name].shape:
            raise CheckpointError(f"{what} {name}: shape {saved[name].shape} "
                                  f"!= expected {target.shape}")


def _check_left(f, n: int, what: str, size: int) -> None:
    """Refuse a read of n bytes, before anything is allocated for it, when
    the file holds fewer, so a corrupt size field cannot trigger a huge
    allocation."""
    left = size - f.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint while reading {what}: {n} bytes "
                              f"declared, {left} left at offset {size - left}")


def _read_exact(f, n: int, what: str, size: int) -> bytes:
    _check_left(f, n, what, size)
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"checkpoint shrank while reading {what}")
    return data


def load_checkpoint(path: str, moments: bool = True) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`. With
    ``moments=False`` the Adam moment blocks (``m/`` and ``v/``) have their
    headers read and checked like any other block, but their data is
    skipped, and the result holds no moments: enough for decoding, not for
    resuming training. All headers are checked first; the arrays are then
    read into views of one block, which a model built on them keeps."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        version = struct.unpack("<I", _read_exact(f, 4, "version", size))[0]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        meta_len = struct.unpack("<Q", _read_exact(f, 8, "metadata length", size))[0]
        try:
            metadata = json.loads(_read_exact(f, meta_len, "metadata", size).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt metadata: {e}") from None
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        missing = [k for k in _METADATA_KEYS if k not in metadata]
        if missing:
            raise CheckpointError(f"{path}: metadata lacks {missing}")
        wrong = [k for k, kinds in _METADATA_KEYS.items() if type(metadata[k]) not in kinds]
        if not wrong and any(type(v) is not bool for v in metadata["trainable"].values()):
            wrong = ["trainable"]
        if wrong:
            raise CheckpointError(f"{path}: metadata fields of the wrong JSON type: {wrong}")
        count = struct.unpack("<I", _read_exact(f, 4, "tensor count", size))[0]
        tensors: dict[str, np.ndarray] = {}
        opt_m: dict[str, np.ndarray] = {}
        opt_v: dict[str, np.ndarray] = {}
        groups = {"p": tensors, "m": opt_m, "v": opt_v}
        seen: set[str] = set()
        kept: list[tuple[str, tuple[int, ...], int]] = []  # name, shape, data offset
        for _ in range(count):
            name_len = struct.unpack("<I", _read_exact(f, 4, "tensor name length", size))[0]
            try:
                name = _read_exact(f, name_len, "tensor name", size).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: corrupt tensor name: {e}") from None
            group, _, bare = name.partition("/")
            if group not in groups or not bare or name in seen:
                raise CheckpointError(f"{path}: unknown or repeated tensor block {name!r}")
            seen.add(name)
            ndim = struct.unpack("<I", _read_exact(f, 4, f"{name} ndim", size))[0]
            shape = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, f"{name} shape", size))
            nbytes = 8 * math.prod(shape)
            _check_left(f, nbytes, f"{name} data", size)
            if moments or group == "p":
                kept.append((name, shape, f.tell()))
            f.seek(nbytes, os.SEEK_CUR)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after tensor blocks")
        block, at = np.empty(sum(math.prod(shape) for _, shape, _ in kept), dtype="<f8"), 0
        for name, shape, offset in kept:
            arr = block[at:at + math.prod(shape)].reshape(shape)
            at += arr.size
            f.seek(offset)
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"checkpoint shrank while reading {name} data")
            group, _, bare = name.partition("/")
            groups[group][bare] = arr
    return Checkpoint(tensors=tensors, opt_m=opt_m, opt_v=opt_v,
                      **{k: metadata[k] for k in _METADATA_KEYS})


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_f1: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    best_epoch: int
    best_f1: float
    stopping_reason: str  # "patience" or "max_epochs"


@dataclass
class TrainResult:
    best: Checkpoint
    final: Checkpoint
    report: TrainReport


def dev_micro_f1(model, dev_sentences: Sequence[TaggedSentence]) -> float:
    preds = model.predict_batch(dev_sentences)
    return evaluate(dev_sentences, preds, model.config.scheme).micro.f1


def train(model, splits: DatasetSplit, config: TrainConfig,
          dev_scorer: Callable | None = None,
          resume: Checkpoint | None = None) -> TrainResult:
    """Seeded shuffling, batches of ``batch_size`` (short final batch kept),
    clip + Adam per batch, dev micro-F1 per epoch, early stopping after
    ``patience`` epochs without strict improvement.

    The ``final`` checkpoint holds the model's and the optimizer's own
    arrays (see :func:`make_checkpoint`), and so does ``best`` when the last
    epoch run was the best; a ``best`` from an earlier epoch is copied when
    the next epoch starts, and shares no array with the model."""
    train_sents = list(splits.train)
    dev_sents = list(splits.dev)
    if not train_sents or not dev_sents:
        raise ValueError("train and dev splits must be non-empty")
    scorer = dev_scorer or dev_micro_f1

    if resume is not None:
        # all is checked before any copy; training leaves the checkpoint as it was
        new, named = stored(resume), model.all_tensors()
        loaded = {name: new(name, p.value.shape) for name, p in named.items()}
        check_layout(loaded, resume, "model")
        optimized = {p.name: p.value for p in model.parameters() if loaded[p.name].trainable}
        _match_arrays(optimized, resume.opt_m, "Adam first moment")
        _match_arrays(optimized, resume.opt_v, "Adam second moment")
        for name, p in named.items():
            p.value, p.trainable = loaded[name].value.copy(), loaded[name].trainable
    trainable = model.trainable_parameters()
    rng = np.random.default_rng(config.seed)
    start_epoch = 1
    best_f1 = -np.inf
    best_epoch = 0
    stall = 0
    if resume is not None:
        rng.bit_generator.state = resume.rng_state
        start_epoch = resume.meta.get("epoch", 0) + 1
        best_f1 = resume.meta.get("best_f1", -np.inf)
        best_epoch = resume.meta.get("best_epoch", 0)
        stall = resume.meta.get("stall", 0)

    best_ckpt: Checkpoint | None = None
    epochs: list[EpochStats] = []
    stopping_reason = "max_epochs"
    epoch = start_epoch - 1
    with AdamState.run(trainable) as opt:
        if resume is not None:
            for moments, saved in ((opt.m, resume.opt_m), (opt.v, resume.opt_v)):
                for name, a in moments.items():
                    a[...] = saved[name]
            opt.step = resume.opt_step
        for epoch in range(start_epoch, config.max_epochs + 1):
            if best_ckpt is not None and best_epoch == epoch - 1:
                # this epoch steps the arrays the best snapshot holds: copy them first
                copied = {k: {name: a.copy() for name, a in getattr(best_ckpt, k).items()}
                          for k in ("tensors", "opt_m", "opt_v")}
                best_ckpt = replace(best_ckpt, **copied)
            order = rng.permutation(len(train_sents))
            loss_sum = 0.0
            for lo in range(0, len(order), config.batch_size):
                batch = [train_sents[i] for i in order[lo:lo + config.batch_size]]
                masks = model.make_dropout_masks([len(s.tokens) for s in batch], rng)
                loss_sum += _optimizer_step(trainable, opt, config,
                                            lambda tape: model.build_loss(tape, batch, masks),
                                            f"training loss at epoch {epoch}") * len(batch)
            train_loss = loss_sum / len(train_sents)
            f1 = scorer(model, dev_sents)
            epochs.append(EpochStats(epoch=epoch, train_loss=train_loss, dev_f1=f1))
            if f1 > best_f1:
                best_f1, best_epoch, stall = f1, epoch, 0
                best_ckpt = make_checkpoint(model, opt, rng,
                                            meta={"epoch": epoch, "best_f1": best_f1,
                                                  "best_epoch": best_epoch, "stall": stall})
            else:
                stall += 1
                if stall >= config.patience:
                    stopping_reason = "patience"
                    break

    if best_ckpt is not None and best_epoch == epoch:
        # the last epoch run is the best: the same tensors, moments, rng
        # state and meta, so one snapshot serves as both
        final_ckpt = best_ckpt
    else:
        final_ckpt = make_checkpoint(model, opt, rng,
                                     meta={"epoch": epoch, "best_f1": best_f1,
                                           "best_epoch": best_epoch, "stall": stall})
    if best_ckpt is None:  # dev F1 never improved over a resumed best
        best_ckpt = final_ckpt
    report = TrainReport(epochs=epochs, best_epoch=best_epoch,
                         best_f1=float(best_f1), stopping_reason=stopping_reason)
    return TrainResult(best=best_ckpt, final=final_ckpt, report=report)
