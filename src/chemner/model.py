"""EBC-CRF network assembly: word + char-CNN + contextual features into a
stacked bidirectional LSTM encoder with a linear-chain CRF head."""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import crf as crf_mod
from . import numerics as nx
from .bilm import (DECODE_BATCH_TOKENS, BiLm, BiLmConfig, MixingWeights, _decode_passes,
                   bilstm_layer, char_features, lstm_params, mix_layers)
from .corpus import LabelScheme, TaggedSentence, Vocabulary, normalize_long_tokens
from .numerics import Parameter, Tape, Tensor
from .schema import from_json, json_types
from .training import CheckpointError, check_layout, stored, vocab_from_payload


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
                self.char_filter_count, self.char_output_dim, self.lstm_hidden,
                self.lstm_layers, self.long_token_threshold)
        if any(d < 1 for d in dims):
            raise ConfigurationError("sizes and long_token_threshold must be positive")
        if len(self.dropout) != self.lstm_layers or not all(0 <= r < 1 for r in self.dropout):
            raise ConfigurationError("one dropout rate in [0, 1) per stacked LSTM layer")
        if not self.labels:
            raise ConfigurationError("label scheme is empty")

    @cached_property
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


# the JSON type table of a checkpoint's model config
MODEL_CONFIG_TYPES = json_types(ModelConfig)


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

    # -- construction --------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, vocab: Vocabulary, seed: int = 0,
             word_table: np.ndarray | None = None,
             bilm: BiLm | None = None) -> "NerModel":
        return cls.build(config, vocab, nx.drawn(np.random.default_rng(seed)), word_table, bilm)

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocabulary, new: nx.Maker,
              word_table: np.ndarray | None = None,
              bilm: BiLm | None = None) -> "NerModel":
        """The parameter layout, each parameter made by ``new`` in a fixed
        order (so a seeded ``numerics.drawn`` draws as init always has). A
        pre-trained ``word_table`` is taken as the fixed ``words`` table."""
        made: list[Parameter] = []
        if config.use_words:
            init, trainable = nx.padded_table(Vocabulary.PAD), True
            if word_table is not None:
                if word_table.shape != (vocab.size, config.word_dim):
                    raise ConfigurationError(f"word table shape {word_table.shape} != "
                                             f"{(vocab.size, config.word_dim)} (vocabulary, dim)")
                init, trainable = (lambda *_: word_table), False
            made.append(new("words", (vocab.size, config.word_dim), init, trainable,
                            (Vocabulary.PAD,)))
        if config.use_char_cnn:
            dim, width = config.char_embed_dim, config.char_filter_width
            count, out = config.char_filter_count, config.char_output_dim
            made += [new("chars", (vocab.char_size, dim), nx.padded_table(Vocabulary.CHAR_PAD),
                         frozen_rows=(Vocabulary.CHAR_PAD,)),
                     new("char_conv.w", (count, width, dim), nx.glorot(width * dim, count)),
                     new("char_conv.b", (count,)),
                     new("char_proj.w", (count, out), nx.glorot(count, out)),
                     new("char_proj.b", (out,))]
        in_dim = config.feature_dim
        for layer in range(config.lstm_layers):
            for direction in ("fwd", "bwd"):
                made += lstm_params(new, f"lstm.l{layer}.{direction}", in_dim,
                                    config.lstm_hidden)
            in_dim = config.encoder_dim
        k = config.scheme.num_tags
        made += [new("emit.w", (config.encoder_dim, k), nx.glorot(config.encoder_dim, k)),
                 new("emit.b", (k,))]
        mixing = None
        if config.use_contextual:
            if bilm is None:
                raise ConfigurationError("use_contextual requires a trained biLM")
            mixing = MixingWeights.init(new, bilm.config.num_layers)
        return cls(config, vocab, {p.name: p for p in made}, crf_mod.CrfParams.init(new, k),
                   mixing=mixing, bilm=bilm)

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

    def embed_batch(self, sentences: Sequence[TaggedSentence], tape: Tape | None = None) -> Tensor:
        """Per-token features of every sentence, their rows one after another
        (N x D), word, char and contextual blocks side by side: one word-id
        gather, one char-CNN call, one biLM pass and one layer mix over all
        the batch's tokens."""
        if not sentences or any(not s.tokens for s in sentences):
            raise ValueError("cannot embed an empty sentence")
        texts = [t for s in sentences for t in s.tokens]
        parts: list[Tensor] = []
        if self.config.use_words:
            parts.append(nx.embedding(nx.use_param(tape, self.params["words"]),
                                      [self.vocab.word_id(t) for t in texts]))
        if self.config.use_char_cnn:
            w = [nx.use_param(tape, self.params[name]) for name in
                 ("chars", "char_conv.w", "char_conv.b", "char_proj.w", "char_proj.b")]
            parts.append(char_features(texts, self.vocab, w[0], [(w[1], w[2])], (w[3], w[4])))
        if self.config.use_contextual:
            parts.append(mix_layers(self.bilm.layers_batch([s.tokens for s in sentences]),
                                    self.mixing, tape))
        return parts[0] if len(parts) == 1 else nx.concat(parts, axis=1)

    def encode_batch(self, features: Tensor, lengths: Sequence[int], tape: Tape | None = None,
                     dropout_masks: Sequence[np.ndarray | None] | None = None) -> Tensor:
        """Stacked biLSTM encoder (N x 2*hidden) of the sentences whose rows
        follow one another in ``features`` (N x D), ``lengths`` rows each:
        per layer one dropout on its input (a ``dropout_masks`` entry of None
        skips it) and one :func:`~chemner.bilm.bilstm_layer`, whose block
        holds the forward states beside the reverse ones. The call drops its
        reference to ``features`` once the first layer has read them, so a
        caller that passes them straight in (:meth:`predict_batch`) frees
        them before the second layer runs."""
        h = features
        del features
        for layer in range(self.config.lstm_layers):
            if dropout_masks is not None and dropout_masks[layer] is not None:
                h = nx.dropout(h, dropout_masks[layer], self.config.dropout[layer])
            h = bilstm_layer(self.params, (f"lstm.l{layer}.fwd", f"lstm.l{layer}.bwd"), h,
                             lengths, tape)
        return h

    def emissions(self, encoded: Tensor, tape: Tape | None = None) -> Tensor:
        return nx.linear(encoded, nx.use_param(tape, self.params["emit.w"]),
                         nx.use_param(tape, self.params["emit.b"]))

    def make_dropout_masks(self, lengths: Sequence[int], rng: np.random.Generator
                           ) -> list[np.ndarray | None]:
        """0/1 keep masks of each stacked layer's input (N x d), rows in
        sentence order, None where the layer's rate is 0. The draws go
        sentence by sentence, layer by layer within a sentence."""
        dims = [self.config.feature_dim] + [self.config.encoder_dim] * (
            self.config.lstm_layers - 1)
        masks = [np.empty((sum(lengths), d)) if rate > 0 else None
                 for d, rate in zip(dims, self.config.dropout)]
        drawn = [(mask, rate) for mask, rate in zip(masks, self.config.dropout) if rate > 0]
        for hi, T in zip(np.cumsum(lengths).tolist(), lengths):
            for mask, _ in drawn:
                rng.random(out=mask[hi - T:hi])
        for mask, rate in drawn:
            np.greater_equal(mask, rate, out=mask)
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
        encoded = self.encode_batch(self.embed_batch(sentences, tape),
                                    [len(s.tokens) for s in sentences], tape, dropout_masks)
        total = crf_mod.nll_batch(self.emissions(encoded, tape), [s.tags for s in sentences],
                                  self.crf, tape)
        return nx.scale(total, 1.0 / len(sentences))

    def predict(self, sentence: TaggedSentence) -> list[int]:
        """Evaluation-mode Viterbi decode; deterministic, dropout disabled."""
        return self.predict_batch([sentence])[0]

    def predict_batch(self, sentences: Sequence[TaggedSentence]) -> list[list[int]]:
        """:meth:`predict` of every sentence, in input order; empty ones give [].

        Longest first, the sentences go in batches of at most
        DECODE_BATCH_TOKENS (2,048) tokens (a longer sentence alone), which
        bounds the decode memory. Each batch is one feature pass, one
        :meth:`encode_batch`, one emission GEMM and one batched Viterbi.
        The LSTM kernel of a pass keeps one block of steps, not every token
        (see :func:`~chemner.numerics._lstm_direction`), and frees it when
        the pass ends, so at paper size a pass costs about 8.7 KB per token,
        mostly its two layers' outputs, plus about 7.7 MB of kernel blocks.
        """
        out: list[list[int]] = [[] for _ in sentences]
        sizes = [len(s.tokens) for s in sentences]
        for batch in _decode_passes(sizes):
            sents = [normalize_long_tokens(sentences[i], self.config.long_token_threshold)
                     for i in batch]
            lengths = [sizes[i] for i in batch]
            emissions = self.emissions(self.encode_batch(self.embed_batch(sents), lengths))
            for i, (tags, _) in zip(batch, crf_mod.viterbi_batch(emissions.data, lengths,
                                                                 self.crf)):
                out[i] = tags
        return out


def model_from_checkpoint(ckpt) -> NerModel:
    """Rebuild a NerModel (including any embedded biLM) from a checkpoint.

    The model owns the checkpoint's arrays: each parameter holds its
    stored tensor itself, not a copy, so a change to one changes the other.
    A caller that only decodes drops the checkpoint and holds one copy of
    the weights."""
    if ckpt.kind != "ner":
        raise CheckpointError(f"expected a ner checkpoint, got kind {ckpt.kind!r}")
    try:
        vocab = vocab_from_payload(ckpt.vocab)
        config = from_json(ModelConfig, "checkpoint model config", ckpt.config, CheckpointError)
        bilm_config = (None if ckpt.bilm_config is None else
                       from_json(BiLmConfig, "checkpoint biLM config", ckpt.bilm_config,
                                 CheckpointError, vocab=vocab_from_payload(ckpt.bilm_vocab)))
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint metadata: {e!r}") from None
    new = stored(ckpt)
    bilm = None if bilm_config is None else BiLm.build(bilm_config, new)
    model = NerModel.build(config, vocab, new, bilm=bilm)
    check_layout(model.all_tensors(), ckpt, "model")
    return model
