"""Scaled-down bidirectional language model and layer mixing.

A character CNN (:func:`char_features`, the block the NER model uses too)
feeds two independent LSTM stacks: the forward stack predicts each token
from the tokens before it, the backward stack from the tokens after it.
Both run over a whole ragged batch of sentences at once: one char-CNN call
over all its tokens, then one fused ``bilstm_batch`` per layer, each
direction reading its own states below (:func:`bilstm_layer`, which the NER
encoder uses too). The LM loss is one head GEMM and one tape entry
(:meth:`BiLm.nll_batch`). Per-token layer
representations (the projection at layer 0, forward and backward hidden
states above) are combined by a trainable weighted sum with weights
exp(s)/Σ exp(s), one tape entry (:func:`mix_layers`), for use as contextual
word features.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nx
from .corpus import Vocabulary, normalize_long_texts
from .numerics import Parameter, ShapeError, Tape, Tensor
from .schema import from_json, json_types
from .training import (AdamState, CheckpointError, TrainConfig, _optimizer_step,
                       check_layout, stored, vocab_from_payload)

DECODE_BATCH_TOKENS = 2048  # tokens per evaluation pass; bounds its memory


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
        dims = (self.char_embed_dim, self.token_projection_dim, self.layer_dim,
                self.max_token_len, *(n for f in self.char_filters for n in f))
        if any(d < 1 for d in dims):
            raise ValueError("sizes, filters and max_token_len must be positive")
        if self.token_projection_dim != self.layer_dim:
            # layer 0 is the projection duplicated to 2*layer_dim, so the
            # widths must agree for the layers to be mixable
            raise ValueError("token_projection_dim must equal layer_dim")
        if not self.char_filters or any(len(f) != 2 for f in self.char_filters):
            raise ValueError("need at least one character filter, each a (width, count) pair")

    @property
    def output_dim(self) -> int:
        return 2 * self.layer_dim


# the JSON type table of a checkpoint's biLM config; the vocabulary is stored apart
BILM_CONFIG_TYPES = json_types(BiLmConfig, "vocab")


def lstm_params(new: nx.Maker, name: str, in_dim: int, hidden: int) -> list[Parameter]:
    """One LSTM direction-layer's weights; the forget-gate bias starts at 1."""
    return [new(f"{name}.wx", (in_dim, 4 * hidden), nx.glorot(in_dim, hidden)),
            new(f"{name}.wh", (hidden, 4 * hidden), nx.glorot(hidden, hidden)),
            new(f"{name}.b", (4 * hidden,), lambda *_: np.repeat([0.0, 1.0, 0.0, 0.0], hidden))]


def bilstm_layer(params: dict[str, Parameter], names: tuple[str, str], x,
                 lengths: Sequence[int], tape: Tape | None, apart: bool = False):
    """Both directions of one biLSTM layer over the rows of a ragged batch
    (see :func:`~chemner.numerics.bilstm_batch`), with the weights
    :func:`lstm_params` made under the forward and reverse ``names``."""
    return nx.bilstm_batch(x, lengths, *([nx.use_param(tape, params[f"{name}.{part}"])
                                          for part in ("wx", "wh", "b")] for name in names),
                           apart=apart)


def _decode_passes(sizes: Sequence[int]) -> list[list[int]]:
    """The indices of the non-empty items, longest first (stable), cut into
    passes of at most DECODE_BATCH_TOKENS tokens (a longer item alone)."""
    passes: list[list[int]] = []
    used = DECODE_BATCH_TOKENS
    for i in sorted((i for i, n in enumerate(sizes) if n), key=lambda i: -sizes[i]):
        if used + sizes[i] > DECODE_BATCH_TOKENS:
            passes.append([])
            used = 0
        passes[-1].append(i)
        used += sizes[i]
    return passes


def char_features(texts: Sequence[str], vocab: Vocabulary, table: Tensor,
                  convs: Sequence[tuple[Tensor, Tensor]],
                  proj: tuple[Tensor, Tensor]) -> Tensor:
    """The char-CNN block of the NER model and the biLM: one row per text
    (T x projection width).

    Each distinct non-empty text, in first-occurrence order, becomes one
    row of char ids framed by ``max_width // 2`` CHAR_PAD ids on each side;
    each distinct character is looked up once, and one assignment fills
    every row's own span. One :func:`~chemner.numerics.char_cnn` over those
    rows, one ``linear`` projection, then every text gathers its row; empty
    text gives zeros.
    """
    width = proj[0].data.shape[1]
    distinct = list(dict.fromkeys(t for t in texts if t))
    if not distinct:
        return nx.constant(np.zeros((len(texts), width)))
    pad = max(f.data.shape[1] for f, _ in convs) // 2
    sizes = np.array([len(t) for t in distinct])
    ids = np.full((len(distinct), sizes.max() + 2 * pad), Vocabulary.CHAR_PAD, dtype=np.intp)
    points = np.frombuffer("".join(distinct).encode("utf-32-le", "surrogatepass"), np.uint32)
    alphabet, inverse = np.unique(points, return_inverse=True)
    cols = np.arange(ids.shape[1]) - pad
    ids[(cols >= 0) & (cols < sizes[:, None])] = np.array(
        [vocab.char_id(chr(c)) for c in alphabet.tolist()], dtype=np.intp)[inverse]
    rows = nx.linear(nx.char_cnn(table, ids, sizes + 2 * pad, convs), *proj)
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
        return cls.build(config, nx.drawn(np.random.default_rng(seed)))

    @classmethod
    def build(cls, config: BiLmConfig, new: nx.Maker) -> "BiLm":
        """The parameter layout, each parameter made by ``new`` in a fixed
        order (so a seeded ``numerics.drawn`` draws as init always has)."""
        vocab, dim, proj = config.vocab, config.char_embed_dim, config.token_projection_dim
        made = [new("bilm.chars", (vocab.char_size, dim), nx.padded_table(Vocabulary.CHAR_PAD),
                    frozen_rows=(Vocabulary.CHAR_PAD,))]
        for i, (width, count) in enumerate(config.char_filters):
            made += [new(f"bilm.conv{i}.w", (count, width, dim), nx.glorot(width * dim, count)),
                     new(f"bilm.conv{i}.b", (count,))]
        total = sum(count for _, count in config.char_filters)
        made += [new("bilm.proj.w", (total, proj), nx.glorot(total, proj)),
                 new("bilm.proj.b", (proj,))]
        for direction in ("fwd", "bwd"):
            in_dim = proj
            for layer in range(config.num_layers):
                made += lstm_params(new, f"bilm.{direction}.l{layer}", in_dim, config.layer_dim)
                in_dim = config.layer_dim
        made += [new("bilm.head.w", (config.layer_dim, vocab.size),
                     nx.glorot(config.layer_dim, vocab.size)),
                 new("bilm.head.b", (vocab.size,))]
        return cls(config, {p.name: p for p in made})

    def parameters(self) -> list[Parameter]:
        return [self.params[k] for k in sorted(self.params)]

    # -- forward pieces ----------------------------------------------------

    def lm_states_batch(self, texts_list: Sequence[Sequence[str]], tape: Tape | None = None
                        ) -> tuple[Tensor, list[Tensor], list[Tensor]]:
        """Projections and hidden states of a ragged batch of non-empty
        sentences, their rows one after another: one char-CNN pass over all
        their tokens, read as given (the callers apply
        :func:`~chemner.corpus.normalize_long_texts`), then one
        :func:`bilstm_layer` per layer, its two directions apart. Returns
        the projection (N x proj_dim) and, per direction, each layer's
        states (N x layer_dim). An untaped pass keeps one bounded block of
        the LSTM kernel's arrays at a time, not every token's."""
        sizes = [len(texts) for texts in texts_list]
        if not sizes or min(sizes) < 1:
            raise ValueError("need a non-empty batch of non-empty sentences")

        def param(name: str) -> Tensor:
            return nx.use_param(tape, self.params[name])

        proj = char_features([t for texts in texts_list for t in texts],
                             self.config.vocab, param("bilm.chars"),
                             [(param(f"bilm.conv{i}.w"), param(f"bilm.conv{i}.b"))
                              for i in range(len(self.config.char_filters))],
                             (param("bilm.proj.w"), param("bilm.proj.b")))
        fwd, bwd, h = [], [], (proj, proj)
        for layer in range(self.config.num_layers):
            h = bilstm_layer(self.params, (f"bilm.fwd.l{layer}", f"bilm.bwd.l{layer}"), h,
                             sizes, tape, apart=True)
            fwd.append(h[0])
            bwd.append(h[1])
        return proj, fwd, bwd

    def nll_batch(self, texts_list: Sequence[Sequence[str]], tape: Tape | None = None
                  ) -> tuple[Tensor, int]:
        """Summed forward+backward next-token NLL of a batch of sentences of
        at least 2 tokens each, and the prediction count.

        One head ``linear`` over the top forward and backward states, then
        one tape entry for the sum over the predicting rows r of
        lse(z_r) − z_r[y_r]; its vjp is exp(z_r − lse(z_r)) − one-hot(y_r),
        built in place, so no dense one-hot matrix is made.
        """
        if not texts_list or min(len(texts) for texts in texts_list) < 2:
            raise ValueError("need at least 2 tokens for next-token prediction")
        texts_list = [normalize_long_texts(t, self.config.max_token_len) for t in texts_list]
        _, fwd, bwd = self.lm_states_batch(texts_list, tape)
        logits = nx.linear(nx.concat([fwd[-1], bwd[-1]], axis=0),
                           nx.use_param(tape, self.params["bilm.head.w"]),
                           nx.use_param(tape, self.params["bilm.head.b"]))
        ids = [[self.config.vocab.word_id(t) for t in texts] for texts in texts_list]
        starts = np.cumsum([0] + [len(i) for i in ids])
        # forward row t predicts token t+1, backward row t token t-1
        rows = np.concatenate([lo + np.arange(len(i) - 1) for lo, i in zip(starts, ids)]
                              + [starts[-1] + lo + np.arange(1, len(i))
                                 for lo, i in zip(starts, ids)])
        targets = [y for i in ids for y in i[1:]] + [y for i in ids for y in i[:-1]]
        n = len(targets)
        z = logits.data
        m = z.max(axis=1, keepdims=True)
        e = z - m
        np.exp(e, out=e)
        lse = m + np.log(e.sum(axis=1, keepdims=True))
        gold = rows, np.asarray(targets)
        total = np.asarray((lse[rows, 0] - z[gold]).sum())

        def vjp_in(g):
            dz = np.exp(z - lse)
            dz[gold] -= 1.0
            dz[np.isin(np.arange(len(z)), rows, invert=True)] = 0.0
            dz *= g
            return [dz]
        return nx.primitive("lm_nll", [logits], total, vjp_in), n

    def sentence_nll(self, texts: Sequence[str], tape: Tape | None = None
                     ) -> tuple[Tensor, int]:
        """:meth:`nll_batch` of one sentence."""
        return self.nll_batch([texts], tape)

    def perplexity(self, sentences: Sequence[Sequence[str]]) -> float:
        """exp(mean NLL per prediction) over the corpus, evaluation mode, in
        passes of at most DECODE_BATCH_TOKENS tokens, longest first."""
        usable = [s for s in sentences if len(s) >= 2]
        if not usable:
            raise ValueError("no sentence with >= 2 tokens")
        total, count = 0.0, 0
        for batch in _decode_passes([len(s) for s in usable]):
            nll_t, n = self.nll_batch([usable[i] for i in batch])
            total += float(nll_t.data)
            count += n
        return float(np.exp(total / count))

    def layers_batch(self, texts_list: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """The num_layers+1 layer representations of a ragged batch of
        non-empty sentences, untaped, each (N x 2*layer_dim) with the
        sentences' rows one after another: layer 0 duplicates the character
        projection, and each layer above is the forward hidden states beside
        the backward ones at that depth. :func:`mix_layers` takes this list."""
        proj, fwd, bwd = self.lm_states_batch(
            [normalize_long_texts(t, self.config.max_token_len) for t in texts_list])
        return [np.concatenate([a.data, b.data], axis=1)
                for a, b in [(proj, proj), *zip(fwd, bwd)]]

    def contextualize(self, texts: Sequence[str]) -> np.ndarray:
        """Per-token layer representations of one sentence, of shape
        (T, num_layers+1, 2*layer_dim): :meth:`layers_batch` stacked. An
        empty sentence gives a (0, num_layers+1, 2*layer_dim) array."""
        if not len(texts):
            return np.zeros((0, self.config.num_layers + 1, self.config.output_dim))
        return np.stack(self.layers_batch([texts]), axis=1)


@dataclass
class MixingWeights:
    """Trainable scalars: mixture weights exp(s)/Σ exp(s), scaled by gamma."""

    s: Parameter      # (num_layers + 1,)
    gamma: Parameter  # scalar

    @classmethod
    def init(cls, new: nx.Maker, num_layers: int) -> "MixingWeights":
        return cls(s=new("mix.s", (num_layers + 1,)),
                   gamma=new("mix.gamma", (), lambda _, shape: np.ones(shape)))

    def parameters(self) -> list[Parameter]:
        return [self.s, self.gamma]

    def normalized(self) -> np.ndarray:
        e = np.exp(self.s.value - self.s.value.max())
        return e / e.sum()


def mix_layers(layers: Sequence, weights: MixingWeights,
               tape: Tape | None = None) -> Tensor:
    """gamma * sum_j w_j * layer_j with w = :meth:`MixingWeights.normalized`,
    as one tape entry.

    The layers are constant arrays of one shape. The vjp gives
    d gamma = <G, sum_j w_j X_j> and ds = w * (a - <w, a>) with
    a_j = gamma <G, X_j>.
    """
    xs = [np.asarray(x, dtype=np.float64) for x in layers]
    if len(xs) != weights.s.value.shape[0]:
        raise ShapeError(f"mix_layers: {len(xs)} layers for "
                         f"{weights.s.value.shape[0]} mixing scalars")
    if any(x.shape != xs[0].shape for x in xs):
        raise ShapeError("mix_layers: layer shapes differ")
    s, gamma = nx.use_param(tape, weights.s), nx.use_param(tape, weights.gamma)
    w = weights.normalized()
    mixed = xs[0] * w[0]
    for j in range(1, len(xs)):
        mixed = mixed + xs[j] * w[j]

    def vjp_in(g):
        a = gamma.data * np.array([np.vdot(g, x) for x in xs])
        return [w * (a - np.dot(w, a)), np.asarray(np.vdot(g, mixed))]
    return nx.primitive("mix_layers", [s, gamma], mixed * gamma.data, vjp_in)


def bilm_from_checkpoint(ckpt) -> BiLm:
    """Rebuild a BiLm from a kind="bilm" checkpoint."""
    if ckpt.kind != "bilm":
        raise CheckpointError(f"expected a bilm checkpoint, got kind {ckpt.kind!r}")
    try:
        config = from_json(BiLmConfig, "checkpoint biLM config", ckpt.config, CheckpointError,
                           vocab=vocab_from_payload(ckpt.vocab))
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint metadata: {e!r}") from None
    model = BiLm.build(config, stored(ckpt))
    check_layout(model.params, ckpt, "biLM")
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
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    usable = [list(s) for s in sentences if len(s) >= 2]
    if not usable:
        raise ValueError("empty corpus: no sentence with >= 2 tokens")

    model = BiLm.init(config, seed)
    params = model.parameters()
    tc = TrainConfig(learning_rate=learning_rate, clip_norm=clip_norm, seed=seed)
    rng = np.random.default_rng(seed)

    def mean_nll(texts: Sequence[str], tape: Tape) -> Tensor:
        total, n = model.sentence_nll(texts, tape)
        return nx.scale(total, 1.0 / n)

    with AdamState.run(params) as opt:
        for epoch in range(1, epochs + 1):
            for idx in rng.permutation(len(usable)):
                _optimizer_step(params, opt, tc, lambda tape: mean_nll(usable[idx], tape),
                                f"biLM loss at epoch {epoch}")
            ppl = model.perplexity(usable)
            model.training_perplexities.append(ppl)
            if target_perplexity is not None and ppl < target_perplexity:
                break
    return model
