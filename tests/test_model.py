import gc
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from chemner import numerics as nx
from chemner.bilm import BiLm, BiLmConfig, _decode_passes, bilstm_layer, train_bilm
from chemner.corpus import Vocabulary, sentence_from_texts
from chemner.embeddings import EmbeddingTable
from chemner.model import (DECODE_BATCH_TOKENS, ConfigurationError, ModelConfig, NerModel,
                           model_from_checkpoint)
from chemner.numerics import Tape, backward
from chemner.schema import from_json, to_json
from chemner.training import load_checkpoint, make_checkpoint, save_checkpoint

from oracles import per_sentence_dropout_masks, traced_peak


def tiny_model(vocab, labels=("A", "B"), seed=0, **overrides):
    defaults = dict(word_dim=8, char_embed_dim=4, char_filter_count=4,
                    char_output_dim=4, lstm_hidden=6)
    defaults.update(overrides)
    return NerModel.init(ModelConfig(labels=labels, **defaults), vocab, seed=seed)


def encode_chars(model, text):
    """The char-CNN columns of ``embed_batch`` for a one-token sentence."""
    feats = model.embed_batch([sentence_from_texts([text], [0], "d")]).data
    lo = model.config.word_dim * model.config.use_words
    return feats[:, lo:lo + model.config.char_output_dim]


def mean_loss(model, sentences, masks=None):
    return float(model.build_loss(None, sentences, masks).data)


@pytest.fixture
def vocab(toy_data):
    return toy_data[2]


class TestModelConfig:
    def test_feature_dims(self):
        cfg = ModelConfig(labels=("A",))
        assert cfg.feature_dim == 230  # 200 word + 30 char

    def test_full_config_dim(self):
        cfg = ModelConfig(labels=("A",), use_contextual=True, contextual_dim=128)
        assert cfg.feature_dim == 358

    def test_ablation_strictly_reduces_dim(self):
        full = ModelConfig(labels=("A",), use_contextual=True, contextual_dim=128)
        no_ctx = ModelConfig(labels=("A",))
        no_char = ModelConfig(labels=("A",), use_char_cnn=False)
        words_only = ModelConfig(labels=("A",), use_char_cnn=False)
        assert full.feature_dim > no_ctx.feature_dim > no_char.feature_dim
        assert words_only.feature_dim == 200

    def test_no_feature_sources_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(labels=("A",), use_words=False, use_char_cnn=False)

    def test_contextual_needs_dim(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(labels=("A",), use_contextual=True)

    def test_payload_roundtrip(self):
        cfg = ModelConfig(labels=("A", "B"), lstm_hidden=16, dropout=(0.1, 0.2))
        assert from_json(ModelConfig, "model config", to_json(cfg)) == cfg

    # a negative rate would turn the layer's dropout off, a rate >= 1 fails
    # inside the first training step, a threshold < 1 at the first normalize
    @pytest.mark.parametrize("overrides,match", [
        (dict(dropout=(-0.5, 0.25)), "dropout"), (dict(dropout=(0.25, 1.0)), "dropout"),
        (dict(dropout=(1.5, 0.0)), "dropout"), (dict(dropout=(float("nan"), 0.0)), "dropout"),
        (dict(long_token_threshold=0), "long_token_threshold"),
        (dict(long_token_threshold=-3), "long_token_threshold")])
    def test_out_of_range_values_rejected(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            ModelConfig(labels=("A",), **overrides)

    def test_range_ends_accepted(self):
        cfg = ModelConfig(labels=("A",), dropout=(0.0, 0.999), long_token_threshold=1)
        assert (cfg.dropout, cfg.long_token_threshold) == ((0.0, 0.999), 1)


class TestEncodeChars:
    def test_output_width(self, vocab):
        model = tiny_model(vocab)
        out = encode_chars(model, "benzene")
        assert out.shape == (1, 4)
        wide = NerModel.init(ModelConfig(labels=("A",)),
                             vocab, seed=0)
        assert encode_chars(wide, "benzene").shape == (1, 30)

    def test_single_char_token(self, vocab):
        model = tiny_model(vocab)
        assert np.isfinite(encode_chars(model, "x")).all()

    def test_empty_text_zero_vector(self, vocab):
        model = tiny_model(vocab)
        assert np.array_equal(encode_chars(model, ""), np.zeros((1, 4)))

    def test_unknown_char_uses_unk(self, vocab):
        model = tiny_model(vocab)
        a = encode_chars(model, "☃")     # not in char vocab
        b = encode_chars(model, "☄")
        assert np.array_equal(a, b)

    def test_maxpool_invariance_hand_filters(self, vocab):
        model = tiny_model(vocab)
        # one filter detects a specific char embedding via dot product; a
        # shared maximal window makes two tokens pool identically
        model.params["char_conv.w"].value[:] = 0.0
        model.params["char_conv.b"].value[:] = 0.0
        model.params["chars"].value[:] = 0.0
        cid = vocab.char_id("b")
        model.params["chars"].value[cid, 0] = 1.0
        model.params["char_conv.w"].value[:, 1, 0] = 1.0  # center of width-3 window
        a = encode_chars(model, "abc")
        b = encode_chars(model, "abcd")
        assert np.array_equal(a, b)


class TestEmbedTokens:
    def test_concatenation_order_and_width(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        feats = model.embed_batch([sentences[0]])
        T = len(sentences[0].tokens)
        assert feats.shape == (T, 12)
        # word block first: matches a direct embedding lookup
        ids = [vocab.word_id(t) for t in sentences[0].texts]
        assert np.array_equal(feats.data[:, :8], model.params["words"].value[ids])

    def test_eval_mode_dropout_free(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        a = model.embed_batch([sentences[0]]).data
        b = model.embed_batch([sentences[0]]).data
        assert np.array_equal(a, b)


class TestEncode:
    def test_output_shape(self, vocab):
        model = tiny_model(vocab)
        out = model.encode_batch(nx.constant(np.random.default_rng(0).normal(size=(1, 12))), [1])
        assert out.shape == (1, 12)  # 2 * hidden(6)

    def test_default_dims_single_token(self, toy_data):
        # word 200 + char 30 features into 2-stacked LSTM of size 250
        sentences, scheme, vocab = toy_data
        model = NerModel.init(ModelConfig(labels=scheme.entity_labels), vocab, seed=0)
        assert model.config.feature_dim == 230
        one = sentence_from_texts(["benzene"], [0], "d")
        feats = model.embed_batch([one])
        assert feats.shape == (1, 230)
        encoded = model.encode_batch(feats, [1])
        assert encoded.shape == (1, 500)
        assert model.emissions(encoded).shape == (1, scheme.num_tags)

    def test_zero_weights_zero_output(self, vocab):
        model = tiny_model(vocab)
        for name, p in model.params.items():
            if name.startswith("lstm."):
                p.value[:] = 0.0
        out = model.encode_batch(nx.constant(np.zeros((4, 12))), [4])
        assert np.array_equal(out.data, np.zeros((4, 12)))

    def test_direction_symmetry_with_mirrored_parameters(self, vocab):
        # constructed parameters: backward mirrors forward, and the second
        # layer's input weights are tied across the two direction halves so
        # the half-swap under reversal is absorbed
        model = tiny_model(vocab)
        H = 6
        for layer in (0, 1):
            for suffix in ("wx", "wh", "b"):
                model.params[f"lstm.l{layer}.bwd.{suffix}"].value[...] = \
                    model.params[f"lstm.l{layer}.fwd.{suffix}"].value
        wx2 = model.params["lstm.l1.fwd.wx"]
        wx2.value[H:] = wx2.value[:H]
        model.params["lstm.l1.bwd.wx"].value[...] = wx2.value
        x = np.random.default_rng(1).normal(size=(5, 12))
        out_fwd = model.encode_batch(nx.constant(x), [5]).data
        out_rev = model.encode_batch(nx.constant(x[::-1].copy()), [5]).data
        assert np.allclose(out_rev[::-1, H:], out_fwd[:, :H], atol=1e-12)
        assert np.allclose(out_rev[::-1, :H], out_fwd[:, H:], atol=1e-12)


class TestEmissions:
    def test_zero_weight_bias_rows(self, vocab):
        model = tiny_model(vocab)
        model.params["emit.w"].value[:] = 0.0
        model.params["emit.b"].value[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
        out = model.emissions(nx.constant(np.zeros((3, 12))))
        assert np.array_equal(out.data, np.tile([1, 2, 3, 4, 5], (3, 1)))

    def test_matches_matrix_multiply(self, vocab):
        model = tiny_model(vocab)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 12))
        out = model.emissions(nx.constant(x)).data
        direct = x @ model.params["emit.w"].value + model.params["emit.b"].value
        assert np.abs(out - direct).max() < 1e-12


class TestPredictAndLoss:
    def test_empty_sentence_empty_tags(self, toy_data):
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        assert model.predict(sentence_from_texts([], [], "d")) == []

    def test_predict_deterministic(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        assert model.predict(sentences[0]) == model.predict(sentences[0])

    def test_batch_loss_is_mean_of_singles(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        batch = sentences[:4]
        total = mean_loss(model, batch)
        singles = [mean_loss(model, [s]) for s in batch]
        assert total == pytest.approx(np.mean(singles), abs=1e-12)

    def test_tape_size_independent_of_sentence_length(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        batch = sentences[:4]
        doubled = [sentence_from_texts(list(s.texts) * 2, list(s.tags) * 2, "d")
                   for s in batch]
        sizes = []
        for b in (batch, doubled):
            tape = Tape()
            model.build_loss(tape, b, model.make_dropout_masks(
                [len(s.tokens) for s in b], np.random.default_rng(0)))
            sizes.append(len(tape))
        assert sizes[0] == sizes[1] < 100

    def test_tape_size_independent_of_batch_size(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        sizes = []
        for n in (1, 4, 16):
            batch = sentences[:n]
            tape = Tape()
            model.build_loss(tape, batch, model.make_dropout_masks(
                [len(s.tokens) for s in batch], np.random.default_rng(0)))
            sizes.append(len(tape))
        assert sizes == [sizes[0]] * 3 and sizes[0] <= 16

    def test_two_layer_build_loss_tape_entries(self, toy_data):
        # words 1, char CNN 3 and their concat 1; per layer a dropout and
        # one biLSTM block; emissions 1, CRF NLL 1, mean 1
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        batch = sentences[:5]
        tape = Tape()
        model.build_loss(tape, batch, model.make_dropout_masks(
            [len(s.tokens) for s in batch], np.random.default_rng(0)))
        assert len(tape) == 5 + 2 * 2 + 3

    def test_worker_thread_gives_the_same_bits(self, toy_data, both_paths):
        """Loss, every gradient, the encoder output and the tags, with each
        layer's reverse direction on the calling thread and on the worker."""
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        batch = sentences[:7]
        lengths = [len(s.tokens) for s in batch]
        masks = model.make_dropout_masks(lengths, np.random.default_rng(2))

        def outputs():
            for p in model.parameters():
                p.zero_grad()
            tape = Tape()
            loss = model.build_loss(tape, batch, masks)
            backward(tape, loss)
            encoded = model.encode_batch(model.embed_batch(batch), lengths).data
            tags = np.array([t for tags in model.predict_batch(sentences) for t in tags])
            return ([loss.data, encoded, tags]
                    + [p.gradient.copy() for p in model.trainable_parameters()])

        sequential, threaded = both_paths(outputs)
        assert len(sequential) == len(threaded)
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rates", [(0.25, 0.25), (0.5, 0.0), (0.0, 0.1), (0.0, 0.0)])
    def test_dropout_masks_keep_per_sentence_draws(self, toy_data, rates):
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels, dropout=rates)
        lengths = [6, 1, 5, 3]
        drawn = np.random.default_rng(3)
        masks = model.make_dropout_masks(lengths, drawn)
        rng = np.random.default_rng(3)
        ref = per_sentence_dropout_masks(lengths, [12, 12], rates, rng)
        assert len(masks) == 2
        for layer, mask in enumerate(masks):
            if rates[layer] == 0:
                assert mask is None
            else:
                assert np.array_equal(mask, np.concatenate([m[layer] for m in ref]))
        assert drawn.random() == rng.random()  # both generators left at one place

    def test_loss_finite_long_sentence(self, toy_data):
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        texts = ["benzene"] * 200
        sent = sentence_from_texts(texts, [0] * 200, "d")
        assert np.isfinite(mean_loss(model, [sent]))

    def test_dropout_seed_changes_training_loss(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        lengths = [len(s.tokens) for s in sentences[:2]]
        l1, l2, l1_again = (mean_loss(model, sentences[:2], model.make_dropout_masks(
            lengths, np.random.default_rng(seed))) for seed in (1, 2, 1))
        assert l1 != l2
        assert l1 == l1_again

    def test_word_table_plumbed(self, toy_data):
        sentences, scheme, vocab = toy_data
        matrix = np.random.default_rng(4).normal(size=(vocab.size, 8))
        table = EmbeddingTable(matrix=matrix, dim=8, trainable=True)
        cfg = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                          char_filter_count=4, char_output_dim=4, lstm_hidden=6)
        model = NerModel.init(cfg, vocab, seed=0, word_table=table)
        assert np.array_equal(model.params["words"].value, table.matrix)
        # trainable as the table says, the PAD row pinned
        for trainable in (True, False):
            words = NerModel.init(cfg, vocab, seed=0, word_table=replace(
                table, trainable=trainable)).params["words"]
            assert words.trainable is trainable
            assert words.frozen_rows == (Vocabulary.PAD,)


class TestContextualIntegration:
    def make_contextual_model(self, toy_data, seed=0):
        sentences, scheme, vocab = toy_data
        bcfg = BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                          token_projection_dim=8, num_layers=2, layer_dim=8)
        bilm = train_bilm([s.texts for s in sentences[:6]], bcfg, epochs=2, seed=seed)
        cfg = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                          char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                          use_contextual=True, contextual_dim=bcfg.output_dim)
        return NerModel.init(cfg, vocab, seed=seed, bilm=bilm), sentences, scheme

    def test_feature_width(self, toy_data):
        model, sentences, _ = self.make_contextual_model(toy_data)
        feats = model.embed_batch([sentences[0]])
        assert feats.shape == (len(sentences[0].tokens), 8 + 4 + 16)

    def test_mixing_gradient_nonzero(self, toy_data):
        model, sentences, _ = self.make_contextual_model(toy_data)
        for p in model.trainable_parameters():
            p.zero_grad()
        tape = Tape()
        out = model.build_loss(tape, sentences[:4])
        backward(tape, out)
        assert np.abs(model.mixing.s.gradient).max() > 0
        assert abs(float(model.mixing.gamma.gradient)) > 0

    def test_training_allocates_no_bilm_gradient(self, toy_data):
        from chemner.corpus import DatasetSplit
        from chemner.training import TrainConfig, train
        sentences, scheme, vocab = toy_data
        bilm = BiLm.init(BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                                    token_projection_dim=8, layer_dim=8))
        cfg = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                          char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                          use_contextual=True, contextual_dim=bilm.config.output_dim)
        model = NerModel.init(cfg, vocab, bilm=bilm)
        splits = DatasetSplit(train=tuple(sentences[:6]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        train(model, splits, TrainConfig(max_epochs=1, patience=1, seed=0),
              dev_scorer=lambda m, d: 0.0)
        assert all(p._gradient is None for p in model.bilm.parameters())
        assert all(p._gradient is not None for p in model.trainable_parameters())

    def test_bilm_frozen_out_of_training(self, toy_data):
        model, _, _ = self.make_contextual_model(toy_data)
        trainable_names = {p.name for p in model.trainable_parameters()}
        assert not any(name.startswith("bilm.") for name in trainable_names)
        assert "mix.s" in trainable_names and "mix.gamma" in trainable_names

    def test_checkpoint_roundtrip_with_bilm(self, toy_data, tmp_path):
        model, sentences, _ = self.make_contextual_model(toy_data)
        ckpt = make_checkpoint(model, None, None)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, path)
        restored = model_from_checkpoint(load_checkpoint(path))
        assert restored.predict(sentences[0]) == model.predict(sentences[0])
        assert mean_loss(restored, sentences[:2]) == mean_loss(model, sentences[:2])


class TestContextualMemory:
    def test_decode_keeps_no_per_sentence_state(self, toy_data):
        # the traced heap after tagging 4x as many distinct sentences stays
        # within 10% of the 1x figure: nothing grows with the input
        words = sorted({t for s in toy_data[0] for t in s.texts})
        rng = np.random.default_rng(12)
        inputs = [[sentence_from_texts([words[int(i)] for i in rng.integers(0, len(words), n)],
                                       [0] * int(n), f"d{k}")
                   for n in rng.integers(4, 16, count)] for k, count in ((0, 40), (1, 160))]
        assert len({tuple(s.texts) for batch in inputs for s in batch}) == 200
        tracemalloc.start()
        try:
            model, _, _ = TestContextualIntegration().make_contextual_model(toy_data)
            current = []
            for batch in inputs:
                model.predict_batch(batch)
                gc.collect()
                current.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert current[1] <= 1.1 * current[0], current


class TestFullModelGradient:
    def test_tiny_grad_check(self, toy_data):
        # a ragged batch with dropout: the packed multi-sentence path through
        # dropout, both directions and the CRF
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=("A", "B"), seed=5)
        batch = [sentence_from_texts(sentences[0].texts[:6], [1, 0, 2, 3, 4, 0], "d"),
                 sentence_from_texts(sentences[1].texts[:3], [3, 4, 0], "d"),
                 sentence_from_texts(sentences[2].texts[:1], [1], "d")]
        masks = model.make_dropout_masks([6, 3, 1], np.random.default_rng(7))
        err = nx.grad_check(lambda t: model.build_loss(t, batch, masks),
                            model.trainable_parameters(), epsilon=1e-5)
        assert err < 1e-3


def decode_inputs():
    """Ragged input: an empty sentence, a one-token sentence, a Long_Token,
    words repeated across sentences, more tokens than two decode batches
    hold and one sentence longer than a batch on its own. Its size scales
    with DECODE_BATCH_TOKENS, so a decode takes at least three passes."""
    words = ["benzene", "was", "added", "2-chlorotoluene", "ethanol", "50", "the"]
    rng = np.random.default_rng(11)

    def sent(n, doc):
        return sentence_from_texts([words[int(i)] for i in rng.integers(0, len(words), n)],
                                   [0] * n, doc)

    long_token = "N-(2-chloro-4-methylphenyl)-3-oxobutanamide"
    assert len(long_token) > ModelConfig(labels=("A",)).long_token_threshold
    out = [sent(6, "d0"), sentence_from_texts([], [], "d0"),
           sentence_from_texts(["ethanol"], [0], "d1"),
           sentence_from_texts(["the", long_token, "was", "added"], [0] * 4, "d1"),
           sent(DECODE_BATCH_TOKENS + 37, "d2")]
    out += [sent(n, f"d{3 + i}")
            for i, n in enumerate(rng.integers(1, 90, DECODE_BATCH_TOKENS // 20))]
    out.append(sentence_from_texts([], [], "d9"))
    assert sum(len(s.tokens) for s in out) > 2 * DECODE_BATCH_TOKENS + 200
    return out


class TestPredictBatch:
    def models(self, toy_data):
        sentences, scheme, vocab = toy_data
        labels = scheme.entity_labels
        contextual, _, _ = TestContextualIntegration().make_contextual_model(toy_data)
        return {"plain": tiny_model(vocab, labels=labels),
                "bio_mask": tiny_model(vocab, labels=labels, crf_bio_mask=True),
                "contextual": contextual}

    @pytest.mark.parametrize("kind", ["plain", "bio_mask", "contextual"])
    def test_equals_per_sentence_predict(self, toy_data, kind):
        model = self.models(toy_data)[kind]
        inputs = decode_inputs()
        batched = model.predict_batch(inputs)
        assert batched == [model.predict(s) for s in inputs]
        assert [len(t) for t in batched] == [len(s.tokens) for s in inputs]

    def test_empty_input(self, toy_data):
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        assert model.predict_batch([]) == []
        assert model.predict_batch([sentence_from_texts([], [], "d")] * 2) == [[], []]

    def test_encoder_batches_within_token_budget(self, toy_data, monkeypatch):
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        seen = []
        real = NerModel.encode_batch

        def spy(self, features, lengths, *args, **kwargs):
            assert features.shape[0] == sum(lengths)
            seen.append(list(lengths))
            return real(self, features, lengths, *args, **kwargs)

        monkeypatch.setattr(NerModel, "encode_batch", spy)
        inputs = decode_inputs()
        model.predict_batch(inputs)
        assert len(seen) > 2
        for sizes in seen:
            assert sum(sizes) <= DECODE_BATCH_TOKENS or len(sizes) == 1
        assert sorted(n for sizes in seen for n in sizes) == sorted(
            len(s.tokens) for s in inputs if s.tokens)
        assert [DECODE_BATCH_TOKENS + 37] in seen


class TestDecodeMemory:
    """A decode holds one pass's arrays at a time: nothing a pass allocates
    outlives it."""

    @pytest.mark.parametrize("kind", ["plain", "contextual"])
    def test_kernel_buffers_are_bounded_by_a_block(self, toy_data, kind):
        """Over three or more passes, ``predict_batch`` peaks no higher than
        its largest pass decoded alone, save the tags of the passes before
        (under 16 bytes a token)."""
        model = TestPredictBatch().models(toy_data)[kind]
        inputs = decode_inputs()
        passes = _decode_passes([len(s.tokens) for s in inputs])
        assert len(passes) >= 3

        def peak(sentences):
            model.predict_batch(sentences)  # anything built on first use is built
            return traced_peak(lambda: model.predict_batch(sentences))
        alone = max(peak([inputs[i] for i in batch]) for batch in passes)
        assert peak(inputs) <= alone + 16 * sum(len(s.tokens) for s in inputs)

    def test_features_are_freed_before_the_second_layer(self, toy_data, monkeypatch):
        """``predict_batch`` hands each pass's features straight to
        ``encode_batch``, which lets them go once its first layer has read
        them, so they are not held beside both layers' outputs."""
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels, lstm_layers=2)
        features = []  # a weak reference to each pass's feature array
        alive = []     # per layer: whether its pass's features were alive
        real_embed, real_layer = NerModel.embed_batch, bilstm_layer

        def embed(self, *args, **kwargs):
            out = real_embed(self, *args, **kwargs)
            features.append(weakref.ref(out.data))
            return out

        def layer(*args, **kwargs):
            alive.append(features[-1]() is not None)
            return real_layer(*args, **kwargs)

        monkeypatch.setattr(NerModel, "embed_batch", embed)
        monkeypatch.setattr("chemner.model.bilstm_layer", layer)
        model.predict_batch(decode_inputs())
        assert len(features) >= 3 and alive == [True, False] * len(features)

    def test_two_threads_decode_the_single_thread_tags(self, toy_data, both_paths):
        model = TestPredictBatch().models(toy_data)["contextual"]
        inputs = decode_inputs()

        def decode_in_two_threads():
            results = {}

            def decode(k):
                results[k] = [model.predict_batch(inputs) for _ in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=decode, args=(k,)) for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            return results
        want = model.predict_batch(inputs)
        for results in both_paths(decode_in_two_threads):
            assert results == {0: [want] * 3, 1: [want] * 3}


class TestEmbedBatch:
    def test_equals_per_sentence_features(self, toy_data):
        sentences, scheme, vocab = toy_data
        self.assert_equals_per_sentence(tiny_model(vocab, labels=scheme.entity_labels),
                                        sentences[:5])

    def test_contextual_equals_per_sentence_features(self, toy_data):
        model, sentences, _ = TestContextualIntegration().make_contextual_model(toy_data)
        self.assert_equals_per_sentence(model, sentences[:5])

    @staticmethod
    def assert_equals_per_sentence(model, sentences):
        batch = model.embed_batch(sentences)
        lengths = [len(s.tokens) for s in sentences]
        assert batch.shape == (sum(lengths), model.config.feature_dim)
        for sent, feats in zip(sentences, np.split(batch.data, np.cumsum(lengths)[:-1])):
            single = model.embed_batch([sent]).data
            assert np.abs(feats - single).max() <= 1e-12 * max(1.0, np.abs(single).max())

    def test_char_cnn_once_per_batch(self, toy_data, monkeypatch):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        calls = []
        real = nx.char_cnn
        monkeypatch.setattr(nx, "char_cnn", lambda *a: calls.append(1) or real(*a))
        tape = Tape()
        model.build_loss(tape, sentences[:6])
        assert len(calls) == 1

    def test_empty_sentence_rejected(self, toy_data):
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels)
        with pytest.raises(ValueError):
            model.embed_batch([sentences[0], sentence_from_texts([], [], "d")])


class TestCheckpointRestore:
    def test_no_random_init_and_the_stored_arrays_kept(self, toy_data, monkeypatch):
        # a load draws nothing and copies nothing: each parameter holds the
        # stored array itself
        sentences, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels, seed=3)
        ckpt = make_checkpoint(model, None, None)

        def no_draws(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        restored = model_from_checkpoint(ckpt)
        for name, p in restored.all_tensors().items():
            assert p.value is ckpt.tensors[name]
            assert p.gradient.shape == p.value.shape
        assert restored.params["words"].frozen_rows == model.params["words"].frozen_rows
        assert restored.params["chars"].frozen_rows == model.params["chars"].frozen_rows
        monkeypatch.undo()
        assert restored.predict_batch(sentences) == model.predict_batch(sentences)

    @pytest.mark.parametrize("contextual", [False, True])
    def test_restored_model_holds_one_copy_of_its_weights(self, toy_data, contextual):
        # building keeps the stored arrays and allocates no gradient buffer
        # (a copy of the values would make it 1x, gradients 2x); decoding
        # allocates no gradient buffer either
        sentences, scheme, vocab = toy_data
        bilm = None
        if contextual:
            bilm = BiLm.init(BiLmConfig(vocab=vocab, char_embed_dim=8, char_filters=((3, 16),),
                                        token_projection_dim=32, layer_dim=32), seed=1)
        config = ModelConfig(labels=scheme.entity_labels, word_dim=50, char_embed_dim=8,
                             char_filter_count=16, char_output_dim=16, lstm_hidden=64,
                             use_contextual=contextual,
                             contextual_dim=bilm.config.output_dim if contextual else 0)
        model = NerModel.init(config, vocab, seed=2, bilm=bilm)
        ckpt = make_checkpoint(model, None, None)
        values = sum(a.nbytes for a in ckpt.tensors.values())
        assert traced_peak(lambda: model_from_checkpoint(ckpt)) < 0.1 * values
        restored = model_from_checkpoint(ckpt)
        assert restored.predict_batch(sentences) == model.predict_batch(sentences)
        assert all(p._gradient is None for p in restored.all_tensors().values())

    @pytest.mark.parametrize("hidden", [10**7, 10**9])
    @pytest.mark.parametrize("section", ["config", "bilm_config"])
    def test_config_larger_than_the_stored_values_refused(self, toy_data, section, hidden):
        # refused before any layout array is made, so the refusal traces less
        # memory than one copy of the stored values
        from chemner.training import CheckpointError
        _, scheme, vocab = toy_data
        bilm = BiLm.init(BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                                    token_projection_dim=8, layer_dim=8), seed=1)
        config = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                             char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                             use_contextual=True, contextual_dim=16)
        ckpt = make_checkpoint(NerModel.init(config, vocab, bilm=bilm), None, None)
        values = sum(a.nbytes for a in ckpt.tensors.values())
        sizes = ({"lstm_hidden": hidden} if section == "config"
                 else {"token_projection_dim": hidden, "layer_dim": hidden})
        setattr(ckpt, section, {**getattr(ckpt, section), **sizes})

        def load():
            with pytest.raises(CheckpointError, match="stored values"):
                model_from_checkpoint(ckpt)
        assert traced_peak(load) < values

    def test_label_count_larger_than_the_stored_values_refused(self, toy_data):
        # the stored emit.w (2 x K) no longer fits, and the load is refused
        # before the layout's (K x K) CRF transitions, 8 MB at 500 labels,
        # or any other array is made: less than one copy of the stored values
        from chemner.training import CheckpointError
        _, _, vocab = toy_data
        labels = tuple(f"L{i}" for i in range(50))
        ckpt = make_checkpoint(tiny_model(vocab, labels=labels, lstm_hidden=1), None, None)
        values = sum(a.nbytes for a in ckpt.tensors.values())
        ckpt.config = {**ckpt.config, "labels": [f"L{i}" for i in range(500)]}

        def load():
            with pytest.raises(CheckpointError, match="stored values"):
                model_from_checkpoint(ckpt)
        assert traced_peak(load) < values

    def test_shape_mismatch_rejected(self, toy_data):
        from chemner.training import CheckpointError
        sentences, scheme, vocab = toy_data
        ckpt = make_checkpoint(tiny_model(vocab, labels=scheme.entity_labels, lstm_hidden=64),
                               None, None)
        ckpt.tensors["emit.b"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="emit.b"):
            model_from_checkpoint(ckpt)

        # emit.b is made last: the refusal comes after every other tensor's
        # layout is built, and still copies none of them
        def load():
            with pytest.raises(CheckpointError, match="emit.b"):
                model_from_checkpoint(ckpt)
        assert traced_peak(load) < max(a.nbytes for a in ckpt.tensors.values()) / 4

    @pytest.mark.parametrize("bio_mask", [False, True])
    @pytest.mark.parametrize("contextual", [False, True])
    @pytest.mark.parametrize("chars", [False, True])
    @pytest.mark.parametrize("table", [False, True])
    def test_load_builds_the_init_layout(self, toy_data, table, chars, contextual, bio_mask):
        # the checkpoint maker and the seeded one build the same layout,
        # whatever the feature combination
        sentences, scheme, vocab = toy_data
        bilm = word_table = None
        if contextual:
            bilm = BiLm.init(BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                                        token_projection_dim=8, layer_dim=8), seed=1)
        if table:
            word_table = EmbeddingTable(np.random.default_rng(2).normal(size=(vocab.size, 8)),
                                        dim=8, trainable=False)
        config = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                             char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                             use_pretrained_words=table, use_char_cnn=chars,
                             use_contextual=contextual, contextual_dim=16 * contextual,
                             crf_bio_mask=bio_mask)
        model = NerModel.init(config, vocab, seed=3, word_table=word_table, bilm=bilm)
        restored = model_from_checkpoint(make_checkpoint(model, None, None))

        def layout(m):
            return {name: (p.value.shape, p.trainable, p.frozen_rows)
                    for name, p in m.all_tensors().items()}
        assert layout(restored) == layout(model)
        assert restored.predict_batch(sentences) == model.predict_batch(sentences)

    def test_init_draws_unchanged(self, toy_data):
        # the layout builder must draw in init's order: the first word row
        # is the first normal draw of the seeded generator
        _, scheme, vocab = toy_data
        model = tiny_model(vocab, labels=scheme.entity_labels, seed=7)
        first = np.random.default_rng(7).normal(0.0, 1.0 / np.sqrt(8), size=(vocab.size, 8))
        first[0] = 0.0
        assert np.array_equal(model.params["words"].value, first)
