"""EBC-CRF network assembly: word + char-CNN + contextual features into a
stacked bidirectional LSTM encoder with a linear-chain CRF head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import crf as crf_mod
from . import numerics as nx
from .bilm import (BiLm, MixingWeights, NoDraw, char_features, glorot, lstm_params,
                   mix_layers)
from .corpus import LabelScheme, TaggedSentence, Vocabulary, normalize_long_tokens
from .embeddings import EmbeddingTable
from .numerics import Parameter, Tape, Tensor

DECODE_BATCH_TOKENS = 512  # tokens per predict_batch pass; bounds decode memory


class ConfigurationError(ValueError):
    """Model configuration inconsistent with the requested operation."""


@dataclass
class ModelConfig:
    labels: tuple[str, ...]
    use_words: bool = True
    use_pretrained_words: bool = False
    use_char_cnn: bool = True
    use_contextual: bool = False
    word_dim: int = 200
    char_embed_dim: int = 50
    char_filter_width: int = 3
    char_filter_count: int = 30
    char_output_dim: int = 30
    lstm_layers: int = 2
    lstm_hidden: int = 250
    dropout: tuple[float, float] = (0.25, 0.25)
    contextual_dim: int = 0
    crf_bio_mask: bool = False
    long_token_threshold: int = 25
    word_source: str = "baseline"

    def __post_init__(self):
        if not (self.use_words or self.use_char_cnn or self.use_contextual):
            raise ConfigurationError("at least one feature source must be enabled")
        if self.use_contextual and self.contextual_dim <= 0:
            raise ConfigurationError("use_contextual requires a positive contextual_dim")
        dims = (self.word_dim, self.char_embed_dim, self.char_filter_width,
                self.char_filter_count, self.char_output_dim, self.lstm_hidden)
        if any(d < 1 for d in dims) or self.lstm_layers < 1:
            raise ConfigurationError("dimensions must be positive")
        if len(self.dropout) != self.lstm_layers:
            raise ConfigurationError("one dropout rate per stacked LSTM layer")
        if not self.labels:
            raise ConfigurationError("label scheme is empty")

    @property
    def scheme(self) -> LabelScheme:
        return LabelScheme(tuple(self.labels))

    @property
    def feature_dim(self) -> int:
        return (self.word_dim * self.use_words
                + self.char_output_dim * self.use_char_cnn
                + self.contextual_dim * self.use_contextual)

    @property
    def encoder_dim(self) -> int:
        return 2 * self.lstm_hidden

    def to_payload(self) -> dict:
        return {"labels": list(self.labels), "use_words": self.use_words,
                "use_pretrained_words": self.use_pretrained_words,
                "use_char_cnn": self.use_char_cnn, "use_contextual": self.use_contextual,
                "word_dim": self.word_dim, "char_embed_dim": self.char_embed_dim,
                "char_filter_width": self.char_filter_width,
                "char_filter_count": self.char_filter_count,
                "char_output_dim": self.char_output_dim,
                "lstm_layers": self.lstm_layers, "lstm_hidden": self.lstm_hidden,
                "dropout": list(self.dropout), "contextual_dim": self.contextual_dim,
                "crf_bio_mask": self.crf_bio_mask,
                "long_token_threshold": self.long_token_threshold,
                "word_source": self.word_source}

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelConfig":
        kwargs = dict(payload)
        kwargs["labels"] = tuple(kwargs["labels"])
        kwargs["dropout"] = tuple(kwargs["dropout"])
        return cls(**kwargs)


class NerModel:
    """Parameters plus the forward pipeline of the full network."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: dict[str, Parameter], crf: crf_mod.CrfParams,
                 mixing: MixingWeights | None = None, bilm: BiLm | None = None):
        self.config = config
        self.vocab = vocab
        self.params = params
        self.crf = crf
        self.mixing = mixing
        self.bilm = bilm
        if config.crf_bio_mask:
            crf.enable_bio_mask(config.scheme)
        if config.use_contextual and (bilm is None or mixing is None):
            raise ConfigurationError("contextual features need a biLM and mixing weights")
        self._ctx_cache: dict[tuple[str, ...], np.ndarray] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocabulary, seed: int = 0,
             word_table: EmbeddingTable | None = None,
             bilm: BiLm | None = None) -> "NerModel":
        return cls.build(config, vocab, np.random.default_rng(seed), word_table, bilm)

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocabulary, rng,
               word_table: EmbeddingTable | None = None,
               bilm: BiLm | None = None) -> "NerModel":
        """The parameter layout with values drawn from ``rng`` in a fixed
        order (a :class:`~chemner.bilm.NoDraw` leaves them zero)."""
        p: dict[str, Parameter] = {}
        if config.use_words:
            if word_table is not None:
                if word_table.dim != config.word_dim:
                    raise ConfigurationError(
                        f"word table dim {word_table.dim} != config {config.word_dim}")
                p["words"] = word_table.as_parameter("words")
            else:
                matrix = rng.normal(0.0, 1.0 / np.sqrt(config.word_dim),
                                    size=(vocab.size, config.word_dim))
                matrix[Vocabulary.PAD] = 0.0
                p["words"] = Parameter("words", matrix, trainable=True,
                                       frozen_rows=(Vocabulary.PAD,))
        if config.use_char_cnn:
            chars = rng.normal(0.0, 1.0 / np.sqrt(config.char_embed_dim),
                               size=(vocab.char_size, config.char_embed_dim))
            chars[Vocabulary.CHAR_PAD] = 0.0
            p["chars"] = Parameter("chars", chars, frozen_rows=(Vocabulary.CHAR_PAD,))
            p["char_conv.w"] = Parameter(
                "char_conv.w",
                glorot(rng, (config.char_filter_count, config.char_filter_width,
                              config.char_embed_dim),
                        config.char_filter_width * config.char_embed_dim,
                        config.char_filter_count))
            p["char_conv.b"] = Parameter("char_conv.b", np.zeros(config.char_filter_count))
            p["char_proj.w"] = Parameter(
                "char_proj.w", glorot(rng, (config.char_filter_count, config.char_output_dim),
                                       config.char_filter_count, config.char_output_dim))
            p["char_proj.b"] = Parameter("char_proj.b", np.zeros(config.char_output_dim))

        in_dim = config.feature_dim
        for layer in range(config.lstm_layers):
            for direction in ("fwd", "bwd"):
                p.update(lstm_params(rng, f"lstm.l{layer}.{direction}", in_dim,
                                      config.lstm_hidden))
            in_dim = config.encoder_dim
        k = config.scheme.num_tags
        p["emit.w"] = Parameter("emit.w", glorot(rng, (config.encoder_dim, k),
                                                  config.encoder_dim, k))
        p["emit.b"] = Parameter("emit.b", np.zeros(k))
        crf = crf_mod.CrfParams.init(k)
        mixing = None
        if config.use_contextual:
            if bilm is None:
                raise ConfigurationError("use_contextual requires a trained biLM")
            mixing = MixingWeights.init(bilm.config.num_layers)
        return cls(config, vocab, p, crf, mixing=mixing, bilm=bilm)

    def parameters(self) -> list[Parameter]:
        """All parameters in a stable name order (biLM ones frozen)."""
        out = [self.params[k] for k in sorted(self.params)]
        out.extend(self.crf.parameters())
        if self.mixing is not None:
            out.extend(self.mixing.parameters())
        return out

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def all_tensors(self) -> dict[str, Parameter]:
        """Named view of every tensor including the frozen biLM, for checkpoints."""
        named = dict(self.params)
        for p in self.crf.parameters():
            named[p.name] = p
        if self.mixing is not None:
            for p in self.mixing.parameters():
                named[p.name] = p
        if self.bilm is not None:
            named.update(self.bilm.params)
        return named

    # -- forward pipeline ----------------------------------------------------

    def encode_chars(self, token_text: str, tape: Tape | None = None) -> Tensor:
        """Char-CNN word vector (1 x char_output_dim); empty text is all zeros."""
        return self._char_rows([token_text], tape)

    def _char_rows(self, texts: Sequence[str], tape: Tape | None) -> Tensor:
        """Char-CNN word vectors of ``texts`` (T x char_output_dim)."""
        if not self.config.use_char_cnn:
            raise ConfigurationError("char CNN disabled")

        def param(name: str) -> Tensor:
            return nx.use_param(tape, self.params[name])

        return char_features(texts, self.vocab, param("chars"),
                             [(param("char_conv.w"), param("char_conv.b"))],
                             (param("char_proj.w"), param("char_proj.b")))

    def _contextual_layers(self, texts: tuple[str, ...]) -> np.ndarray:
        cached = self._ctx_cache.get(texts)
        if cached is None:
            cached = self.bilm.contextualize(list(texts))
            self._ctx_cache[texts] = cached
        return cached

    def embed_tokens(self, sentence: TaggedSentence, tape: Tape | None = None,
                     contextual_layers: np.ndarray | None = None) -> Tensor:
        """Per-token features (T x D), concatenated word, char, contextual."""
        return self.embed_batch([sentence], tape, None if contextual_layers is None
                                else [contextual_layers])[0]

    def embed_batch(self, sentences: Sequence[TaggedSentence], tape: Tape | None = None,
                    contextual_layers: Sequence[np.ndarray] | None = None) -> list[Tensor]:
        """:meth:`embed_tokens` of every sentence: one word-id gather, one
        char-CNN call and one layer mix over all the batch's tokens, then the
        rows split back per sentence. The biLM runs per sentence (cached)."""
        if not sentences or any(not s.tokens for s in sentences):
            raise ValueError("cannot embed an empty sentence")
        texts = [t for s in sentences for t in s.texts]
        sizes = [len(s.tokens) for s in sentences]
        parts: list[Tensor] = []
        if self.config.use_words:
            parts.append(nx.embedding(nx.use_param(tape, self.params["words"]),
                                      [self.vocab.word_id(t) for t in texts]))
        if self.config.use_char_cnn:
            parts.append(self._char_rows(texts, tape))
        if self.config.use_contextual:
            if contextual_layers is None:
                contextual_layers = [self._contextual_layers(tuple(s.texts))
                                     for s in sentences]
            if [c.shape[0] for c in contextual_layers] != sizes:
                raise ConfigurationError("contextual layer count != token count")
            stacked = np.concatenate(contextual_layers, axis=0)
            parts.append(mix_layers([stacked[:, j, :] for j in range(stacked.shape[1])],
                                    self.mixing, tape))
        elif contextual_layers is not None:
            raise ConfigurationError("contextual layers supplied but use_contextual is off")
        feats = parts[0] if len(parts) == 1 else nx.concat(parts, axis=1)
        return [feats] if len(sizes) == 1 else nx.split_rows(feats, sizes)

    def encode(self, features: Tensor, tape: Tape | None = None,
               dropout_masks: Sequence[np.ndarray | None] | None = None) -> Tensor:
        """Stacked biLSTM encoder (T x 2*hidden); dropout on each layer's input."""
        masks = None if dropout_masks is None else [dropout_masks]
        return self.encode_batch([features], tape, masks)[0]

    def encode_batch(self, features: Sequence[Tensor], tape: Tape | None = None,
                     dropout_masks: Sequence[Sequence[np.ndarray | None]] | None = None
                     ) -> list[Tensor]:
        """:meth:`encode` of every sentence, each direction-layer one fused
        pass over the whole batch; ``dropout_masks`` holds one per-layer mask
        list per sentence."""
        hs = list(features)
        for layer in range(self.config.lstm_layers):
            rate = self.config.dropout[layer]
            if dropout_masks is not None and rate > 0:
                hs = [h if masks is None or masks[layer] is None
                      else nx.dropout(h, masks[layer], rate)
                      for h, masks in zip(hs, dropout_masks)]
            outs = []
            for direction in ("fwd", "bwd"):
                name = f"lstm.l{layer}.{direction}"
                outs.append(nx.lstm_batch(hs, nx.use_param(tape, self.params[f"{name}.wx"]),
                                          nx.use_param(tape, self.params[f"{name}.wh"]),
                                          nx.use_param(tape, self.params[f"{name}.b"]),
                                          reverse=(direction == "bwd")))
            hs = [nx.concat(pair, axis=1) for pair in zip(*outs)]
        return hs

    def emissions(self, encoded: Tensor, tape: Tape | None = None) -> Tensor:
        return nx.linear(encoded, nx.use_param(tape, self.params["emit.w"]),
                         nx.use_param(tape, self.params["emit.b"]))

    def make_dropout_masks(self, lengths: Sequence[int], rng: np.random.Generator
                           ) -> list[list[np.ndarray | None]]:
        """Per-sentence keep masks for each stacked layer's input."""
        masks = []
        dims = [self.config.feature_dim] + [self.config.encoder_dim] * (
            self.config.lstm_layers - 1)
        for T in lengths:
            per_layer = []
            for layer, rate in enumerate(self.config.dropout):
                if rate > 0:
                    per_layer.append(
                        (rng.random((T, dims[layer])) >= rate).astype(np.float64))
                else:
                    per_layer.append(None)
            masks.append(per_layer)
        return masks

    def build_loss(self, tape: Tape | None, batch: Sequence[TaggedSentence],
                   dropout_masks: Sequence[Sequence[np.ndarray | None]] | None = None
                   ) -> Tensor:
        """Mean per-sentence CRF NLL over a batch, long tokens normalized;
        every stage runs over the whole ragged batch at once."""
        if not batch:
            raise ValueError("empty batch")
        sentences = [normalize_long_tokens(s, self.config.long_token_threshold)
                     for s in batch]
        encoded = self.encode_batch(self.embed_batch(sentences, tape), tape, dropout_masks)
        emissions = self.emissions(nx.concat(encoded, axis=0), tape)
        total = crf_mod.nll_batch(emissions, [s.tags for s in sentences], self.crf, tape)
        return nx.scale(total, 1.0 / len(sentences))

    def loss(self, sentences: Sequence[TaggedSentence],
             dropout_seed: int | None = None) -> float:
        """Mean batch NLL; dropout masks drawn from the seed when given."""
        masks = None
        if dropout_seed is not None:
            rng = np.random.default_rng(dropout_seed)
            masks = self.make_dropout_masks([len(s.tokens) for s in sentences], rng)
        return float(self.build_loss(None, sentences, masks).data)

    def predict(self, sentence: TaggedSentence) -> list[int]:
        """Evaluation-mode Viterbi decode; deterministic, dropout disabled."""
        return self.predict_batch([sentence])[0]

    def predict_batch(self, sentences: Sequence[TaggedSentence]) -> list[list[int]]:
        """:meth:`predict` of every sentence, in input order; empty ones give [].

        Longest first, the sentences go in batches of at most
        DECODE_BATCH_TOKENS tokens (a longer sentence alone), which bounds
        the decode memory. Each batch is one feature pass, one
        :meth:`encode_batch`, one emission GEMM and one batched Viterbi.
        """
        out: list[list[int]] = [[] for _ in sentences]
        order = sorted((i for i, s in enumerate(sentences) if s.tokens),
                       key=lambda i: -len(sentences[i].tokens))
        for batch in _token_batches(order, [len(s.tokens) for s in sentences],
                                    DECODE_BATCH_TOKENS):
            sents = [normalize_long_tokens(sentences[i], self.config.long_token_threshold)
                     for i in batch]
            encoded = self.encode_batch(self.embed_batch(sents))
            emissions = self.emissions(nx.concat(encoded, axis=0)).data
            bounds = np.cumsum([len(s.tokens) for s in sents])[:-1]
            for i, (tags, _) in zip(batch, crf_mod.viterbi_batch(
                    np.split(emissions, bounds), self.crf)):
                out[i] = tags
        return out


def _token_batches(order: Sequence[int], lengths: Sequence[int],
                   budget: int) -> list[list[int]]:
    """``order`` cut into consecutive runs of at most ``budget`` tokens; an
    item longer than the budget forms a run of its own."""
    batches: list[list[int]] = []
    used = budget
    for i in order:
        if used + lengths[i] > budget:
            batches.append([])
            used = 0
        batches[-1].append(i)
        used += lengths[i]
    return batches


def model_from_checkpoint(ckpt) -> NerModel:
    """Rebuild a NerModel (including any embedded biLM) from a checkpoint."""
    from .bilm import BiLmConfig
    from .training import CheckpointError, restore_tensors, vocab_from_payload

    if ckpt.kind != "ner":
        raise CheckpointError(f"expected a ner checkpoint, got kind {ckpt.kind!r}")
    try:
        vocab = vocab_from_payload(ckpt.vocab)
        config = ModelConfig.from_payload(ckpt.config)
        bilm_config = (None if ckpt.bilm_config is None else
                       BiLmConfig.from_payload(ckpt.bilm_config,
                                               vocab_from_payload(ckpt.bilm_vocab)))
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint metadata: {e!r}") from None
    bilm = None if bilm_config is None else BiLm.build(bilm_config, NoDraw())
    model = NerModel.build(config, vocab, NoDraw(), bilm=bilm)
    restore_tensors(model.all_tensors(), ckpt, "model")
    return model
