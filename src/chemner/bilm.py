"""Scaled-down bidirectional language model and layer mixing.

A character CNN (:func:`char_features`, the block the NER model uses too)
feeds two independent LSTM stacks: the forward stack predicts each token
from the tokens before it, the backward stack from the tokens after it.
Per-token layer representations (the projection at layer 0, forward and
backward hidden states above) are combined by a trainable softmax-weighted
sum for use as contextual word features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nx
from .corpus import LONG_TOKEN_TEXT, Vocabulary
from .numerics import Parameter, ShapeError, Tape, Tensor


@dataclass
class BiLmConfig:
    vocab: Vocabulary
    char_embed_dim: int = 16
    char_filters: tuple[tuple[int, int], ...] = ((3, 32),)
    token_projection_dim: int = 64
    num_layers: int = 2
    layer_dim: int = 64
    max_token_len: int = 25

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.token_projection_dim != self.layer_dim:
            # layer 0 is the projection duplicated to 2*layer_dim, so the
            # widths must agree for the layers to be mixable
            raise ValueError("token_projection_dim must equal layer_dim")
        if not self.char_filters:
            raise ValueError("need at least one character filter")

    @property
    def output_dim(self) -> int:
        return 2 * self.layer_dim

    def to_payload(self) -> dict:
        return {"char_embed_dim": self.char_embed_dim,
                "char_filters": [list(f) for f in self.char_filters],
                "token_projection_dim": self.token_projection_dim,
                "num_layers": self.num_layers,
                "layer_dim": self.layer_dim,
                "max_token_len": self.max_token_len}

    @classmethod
    def from_payload(cls, payload: dict, vocab: Vocabulary) -> "BiLmConfig":
        kwargs = dict(payload)
        kwargs["char_filters"] = tuple(tuple(f) for f in kwargs["char_filters"])
        return cls(vocab=vocab, **kwargs)


class NoDraw:
    """Stands in for a ``np.random.Generator`` when a parameter layout is
    built only to receive stored values: every draw is a zero array of the
    requested size, so no random numbers are generated."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.zeros(size)

    uniform = normal


def glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def lstm_params(rng: np.random.Generator, name: str, in_dim: int,
                 hidden: int) -> dict[str, Parameter]:
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0  # forget-gate bias
    return {
        f"{name}.wx": Parameter(f"{name}.wx", glorot(rng, (in_dim, 4 * hidden), in_dim, hidden)),
        f"{name}.wh": Parameter(f"{name}.wh", glorot(rng, (hidden, 4 * hidden), hidden, hidden)),
        f"{name}.b": Parameter(f"{name}.b", b),
    }


def char_features(texts: Sequence[str], vocab: Vocabulary, table: Tensor,
                  convs: Sequence[tuple[Tensor, Tensor]],
                  proj: tuple[Tensor, Tensor]) -> Tensor:
    """The char-CNN block of the NER model and the biLM: one row per text
    (T x projection width).

    Each distinct non-empty text, in first-occurrence order, becomes one
    row of char ids framed by ``max_width // 2`` CHAR_PAD ids on each side.
    One :func:`~chemner.numerics.char_cnn` over those rows, one ``linear``
    projection, then every text gathers its row; empty text gives zeros.
    """
    width = proj[0].data.shape[1]
    distinct = list(dict.fromkeys(t for t in texts if t))
    if not distinct:
        return nx.constant(np.zeros((len(texts), width)))
    pad = max(f.data.shape[1] for f, _ in convs) // 2
    lengths = np.array([len(t) + 2 * pad for t in distinct])
    ids = np.full((len(distinct), lengths.max()), Vocabulary.CHAR_PAD, dtype=np.intp)
    for u, text in enumerate(distinct):
        ids[u, pad:pad + len(text)] = [vocab.char_id(c) for c in text]
    rows = nx.linear(nx.char_cnn(table, ids, lengths, convs), *proj)
    if "" in texts:
        rows = nx.concat([rows, nx.constant(np.zeros((1, width)))], axis=0)
    row_of = {t: u for u, t in enumerate(distinct)}
    return nx.embedding(rows, [row_of.get(t, len(distinct)) for t in texts])


class BiLm:
    """Trained bidirectional LM; immutable and shareable after training."""

    def __init__(self, config: BiLmConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params
        self.training_perplexities: list[float] = []

    @classmethod
    def init(cls, config: BiLmConfig, seed: int = 0) -> "BiLm":
        return cls.build(config, np.random.default_rng(seed))

    @classmethod
    def build(cls, config: BiLmConfig, rng) -> "BiLm":
        """The parameter layout with values drawn from ``rng`` in a fixed
        order (a :class:`NoDraw` leaves them zero)."""
        vocab = config.vocab
        p: dict[str, Parameter] = {}
        chars = rng.normal(0.0, 1.0 / np.sqrt(config.char_embed_dim),
                           size=(vocab.char_size, config.char_embed_dim))
        chars[Vocabulary.CHAR_PAD] = 0.0
        p["bilm.chars"] = Parameter("bilm.chars", chars,
                                    frozen_rows=(Vocabulary.CHAR_PAD,))
        total_filters = 0
        for i, (width, count) in enumerate(config.char_filters):
            p[f"bilm.conv{i}.w"] = Parameter(
                f"bilm.conv{i}.w",
                glorot(rng, (count, width, config.char_embed_dim),
                        width * config.char_embed_dim, count))
            p[f"bilm.conv{i}.b"] = Parameter(f"bilm.conv{i}.b", np.zeros(count))
            total_filters += count
        p["bilm.proj.w"] = Parameter(
            "bilm.proj.w", glorot(rng, (total_filters, config.token_projection_dim),
                                   total_filters, config.token_projection_dim))
        p["bilm.proj.b"] = Parameter("bilm.proj.b", np.zeros(config.token_projection_dim))
        for direction in ("fwd", "bwd"):
            in_dim = config.token_projection_dim
            for layer in range(config.num_layers):
                p.update(lstm_params(rng, f"bilm.{direction}.l{layer}", in_dim, config.layer_dim))
                in_dim = config.layer_dim
        p["bilm.head.w"] = Parameter(
            "bilm.head.w", glorot(rng, (config.layer_dim, vocab.size),
                                   config.layer_dim, vocab.size))
        p["bilm.head.b"] = Parameter("bilm.head.b", np.zeros(vocab.size))
        return cls(config, p)

    def parameters(self) -> list[Parameter]:
        return [self.params[k] for k in sorted(self.params)]

    # -- forward pieces ----------------------------------------------------

    def token_projections(self, texts: Sequence[str], tape: Tape | None = None) -> Tensor:
        """Context-independent projections, one row per token (T x proj_dim);
        texts over ``max_token_len`` characters are encoded as Long_Token."""
        def param(name: str) -> Tensor:
            return nx.use_param(tape, self.params[name])

        limit = self.config.max_token_len
        return char_features([t if len(t) <= limit else LONG_TOKEN_TEXT for t in texts],
                             self.config.vocab, param("bilm.chars"),
                             [(param(f"bilm.conv{i}.w"), param(f"bilm.conv{i}.b"))
                              for i in range(len(self.config.char_filters))],
                             (param("bilm.proj.w"), param("bilm.proj.b")))

    def _stack(self, direction: str, xs: Tensor, tape: Tape | None) -> list[Tensor]:
        states = []
        h = xs
        for layer in range(self.config.num_layers):
            name = f"bilm.{direction}.l{layer}"
            h = nx.lstm_batch([h],
                              nx.use_param(tape, self.params[f"{name}.wx"]),
                              nx.use_param(tape, self.params[f"{name}.wh"]),
                              nx.use_param(tape, self.params[f"{name}.b"]),
                              reverse=(direction == "bwd"))[0]
            states.append(h)
        return states

    def lm_states(self, texts: Sequence[str], tape: Tape | None = None
                  ) -> tuple[Tensor, list[Tensor], list[Tensor]]:
        proj = self.token_projections(texts, tape)
        return proj, self._stack("fwd", proj, tape), self._stack("bwd", proj, tape)

    def sentence_nll(self, texts: Sequence[str], tape: Tape | None = None
                     ) -> tuple[Tensor, int]:
        """Total forward+backward next-token NLL and the prediction count."""
        T = len(texts)
        if T < 2:
            raise ValueError("need at least 2 tokens for next-token prediction")
        vocab = self.config.vocab
        ids = [vocab.word_id(t if len(t) <= self.config.max_token_len else LONG_TOKEN_TEXT)
               for t in texts]
        proj, fwd, bwd = self.lm_states(texts, tape)
        w = nx.use_param(tape, self.params["bilm.head.w"])
        b = nx.use_param(tape, self.params["bilm.head.b"])

        def direction_nll(states: Tensor, rows: tuple[int, int], targets: list[int]) -> Tensor:
            hs = nx.slice_rows(states, rows[0], rows[1])
            logits = nx.linear(hs, w, b)
            lse = nx.logsumexp(logits, axis=1)
            onehot = np.zeros((len(targets), vocab.size))
            onehot[np.arange(len(targets)), targets] = 1.0
            gold = nx.sum_axis(nx.mul(logits, nx.constant(onehot)), axis=1)
            return nx.sum_all(nx.sub(lse, gold))

        nll_f = direction_nll(fwd[-1], (0, T - 1), ids[1:])
        nll_b = direction_nll(bwd[-1], (1, T), ids[:-1])
        return nx.add(nll_f, nll_b), 2 * (T - 1)

    def perplexity(self, sentences: Sequence[Sequence[str]]) -> float:
        """exp(mean NLL per prediction) over the corpus, evaluation mode."""
        total, count = 0.0, 0
        for texts in sentences:
            if len(texts) < 2:
                continue
            nll_t, n = self.sentence_nll(texts, tape=None)
            total += float(nll_t.data)
            count += n
        if count == 0:
            raise ValueError("no sentence with >= 2 tokens")
        return float(np.exp(total / count))

    def contextualize(self, texts: Sequence[str]) -> np.ndarray:
        """Per-token layer representations, shape (T, num_layers+1, 2*layer_dim).

        Layer 0 duplicates the character projection; layers above
        concatenate forward and backward hidden states at that depth.
        """
        if not texts:
            return np.zeros((0, self.config.num_layers + 1, self.config.output_dim))
        proj, fwd, bwd = self.lm_states(texts, tape=None)
        layers = [np.concatenate([proj.data, proj.data], axis=1)]
        for hf, hb in zip(fwd, bwd):
            layers.append(np.concatenate([hf.data, hb.data], axis=1))
        return np.stack(layers, axis=1)


@dataclass
class MixingWeights:
    """Trainable scalars: softmax(s) mixture scaled by gamma."""

    s: Parameter      # (num_layers + 1,)
    gamma: Parameter  # scalar

    @classmethod
    def init(cls, num_layers: int, prefix: str = "mix") -> "MixingWeights":
        return cls(s=Parameter(f"{prefix}.s", np.zeros(num_layers + 1)),
                   gamma=Parameter(f"{prefix}.gamma", np.asarray(1.0)))

    def parameters(self) -> list[Parameter]:
        return [self.s, self.gamma]

    def normalized(self) -> np.ndarray:
        e = np.exp(self.s.value - self.s.value.max())
        return e / e.sum()


def mix_layers(layers: Sequence, weights: MixingWeights,
               tape: Tape | None = None) -> Tensor:
    """gamma * sum_j softmax(s)_j * layer_j; gradients flow to s and gamma."""
    tensors = [x if isinstance(x, Tensor) else nx.constant(x) for x in layers]
    if len(tensors) != weights.s.value.shape[0]:
        raise ShapeError(f"mix_layers: {len(tensors)} layers for "
                         f"{weights.s.value.shape[0]} mixing scalars")
    shape = tensors[0].data.shape
    if any(t.data.shape != shape for t in tensors):
        raise ShapeError("mix_layers: layer shapes differ")
    w = nx.softmax(nx.use_param(tape, weights.s), axis=0)
    total = nx.scalar_mul(tensors[0], nx.index1d(w, 0))
    for j in range(1, len(tensors)):
        total = nx.add(total, nx.scalar_mul(tensors[j], nx.index1d(w, j)))
    return nx.scalar_mul(total, nx.use_param(tape, weights.gamma))


def bilm_from_checkpoint(ckpt) -> BiLm:
    """Rebuild a BiLm from a kind="bilm" checkpoint."""
    from .training import CheckpointError, restore_tensors, vocab_from_payload

    if ckpt.kind != "bilm":
        raise CheckpointError(f"expected a bilm checkpoint, got kind {ckpt.kind!r}")
    try:
        config = BiLmConfig.from_payload(ckpt.config, vocab_from_payload(ckpt.vocab))
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint metadata: {e!r}") from None
    model = BiLm.build(config, NoDraw())
    restore_tensors(model.params, ckpt, "biLM")
    return model


def train_bilm(sentences: Sequence[Sequence[str]], config: BiLmConfig,
               epochs: int, seed: int = 0, learning_rate: float = 0.01,
               clip_norm: float = 1.0,
               target_perplexity: float | None = None) -> BiLm:
    """Minimize mean forward+backward next-token NLL with Adam.

    Deterministic for a fixed seed; records per-epoch corpus perplexity on
    ``training_perplexities``. Stops early once ``target_perplexity`` is
    reached, if given.
    """
    from .training import AdamState, TrainConfig, adam_step, clip_gradients

    usable = [list(s) for s in sentences if len(s) >= 2]
    if not usable:
        raise ValueError("empty corpus: no sentence with >= 2 tokens")

    model = BiLm.init(config, seed)
    params = model.parameters()
    opt = AdamState.init(params)
    tc = TrainConfig(learning_rate=learning_rate, clip_norm=clip_norm, seed=seed)
    rng = np.random.default_rng(seed)

    for _ in range(epochs):
        order = rng.permutation(len(usable))
        for idx in order:
            texts = usable[idx]
            for p in params:
                p.zero_grad()
            tape = Tape()
            total, n = model.sentence_nll(texts, tape)
            loss = nx.scale(total, 1.0 / n)
            nx.backward(tape, loss)
            tape.clear()
            clip_gradients(params, tc.clip_norm)
            adam_step(params, opt, tc)
        ppl = model.perplexity(usable)
        model.training_perplexities.append(ppl)
        if target_perplexity is not None and ppl < target_perplexity:
            break
    return model
