import numpy as np
import pytest

from chemner import numerics as nx
from chemner.bilm import (BiLm, BiLmConfig, MixingWeights, bilm_from_checkpoint,
                          char_features, mix_layers, train_bilm)
from chemner.corpus import build_vocabulary, sentence_from_texts
from chemner.numerics import ShapeError, Tape, backward, evaluate, grad_check
from chemner.training import make_checkpoint

from oracles import char_cnn_rows, mul, sum_all, traced_peak


def small_vocab(sentences):
    tagged = [sentence_from_texts(s, [0] * len(s), f"d{i}")
              for i, s in enumerate(sentences)]
    return build_vocabulary(tagged, [], min_count=1)


def small_config(sentences, **overrides):
    defaults = dict(char_embed_dim=8, char_filters=((3, 8),),
                    token_projection_dim=16, num_layers=2, layer_dim=16)
    defaults.update(overrides)
    return BiLmConfig(vocab=small_vocab(sentences), **defaults)


SENTS = [["the", "cat", "sat", "on", "a", "mat"],
         ["dogs", "bark", "at", "night"],
         ["cats", "sleep", "all", "day"]]


class TestConfig:
    def test_projection_must_match_layer_dim(self):
        with pytest.raises(ValueError, match="token_projection_dim"):
            small_config(SENTS, token_projection_dim=8, layer_dim=16)

    def test_at_least_one_layer(self):
        with pytest.raises(ValueError, match="num_layers"):
            small_config(SENTS, num_layers=0)

    @pytest.mark.parametrize("overrides", [
        dict(char_embed_dim=0), dict(token_projection_dim=0, layer_dim=0),
        dict(token_projection_dim=-2, layer_dim=-2), dict(char_filters=((0, 8),)),
        dict(char_filters=((3, 0),)), dict(char_filters=((3, 8), (5, -1)))])
    def test_non_positive_sizes_rejected(self, overrides):
        with pytest.raises(ValueError, match="positive"):
            small_config(SENTS, **overrides)

    @pytest.mark.parametrize("max_token_len", [0, -1])
    def test_max_token_len_below_1_rejected(self, max_token_len):
        # it would fail only at the first normalize
        with pytest.raises(ValueError, match="max_token_len must be positive"):
            small_config(SENTS, max_token_len=max_token_len)


class TestShapes:
    def test_contextualize_shape(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        ctx = bilm.contextualize(SENTS[0])
        assert ctx.shape == (6, 3, 32)  # T x (L+1) x 2*layer_dim

    def test_empty_sentence(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        assert bilm.contextualize([]).shape == (0, 3, 32)

    def test_layer0_context_independent(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        c1 = bilm.contextualize(["the", "cat"])
        c2 = bilm.contextualize(["a", "cat", "sat"])
        assert np.array_equal(c1[1, 0], c2[1, 0])  # same token text, layer 0

    def test_layer0_duplicated_projection(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        ctx = bilm.contextualize(["cat"])
        half = ctx.shape[2] // 2
        assert np.array_equal(ctx[0, 0, :half], ctx[0, 0, half:])


class TestCharFeatures:
    """The shared char-CNN block against the per-token chain it replaced:
    the oracles' per-row char CNN, then linear."""

    # two-byte, astral and lone-surrogate characters too, in the vocabulary
    # (VOCAB_TEXTS) and not
    TEXTS = ["cat", "a", "", "sat", "cat", "a", "mat", "µg", "β-cat", "a😀t", "\udcffa", "ü"]
    VOCAB_TEXTS = ["µg", "β-cat", "a😀t"]

    @staticmethod
    def per_token(texts, vocab, table, convs, proj):
        pad = [0] * (max(f.shape[1] for f, _ in convs) // 2)
        rows = [pad + [vocab.char_id(c) for c in text] + pad for text in texts]
        return nx.concat([nx.linear(char_cnn_rows(table, [ids], convs), *proj) if text
                          else nx.constant(np.zeros((1, proj[0].shape[1])))
                          for text, ids in zip(texts, rows)], axis=0)

    def run(self, bilm, block, probe):
        for p in bilm.params.values():
            p.zero_grad()
        tape = Tape()
        par = {k: tape.param(p) for k, p in bilm.params.items()}
        out = block(self.TEXTS, bilm.config.vocab, par["bilm.chars"],
                    [(par["bilm.conv0.w"], par["bilm.conv0.b"]),
                     (par["bilm.conv1.w"], par["bilm.conv1.b"])],
                    (par["bilm.proj.w"], par["bilm.proj.b"]))
        entries = len(tape)
        backward(tape, sum_all(mul(out, nx.constant(probe))))
        return out.data, {k: p.gradient.copy() for k, p in bilm.params.items()}, entries

    def test_matches_per_token_chain(self):
        # widths 3 and 5, repeated texts, a one-char text and an empty one
        bilm = BiLm.init(small_config(SENTS + [self.VOCAB_TEXTS], char_filters=((3, 8), (5, 4))),
                         seed=3)
        probe = np.random.default_rng(0).normal(size=(len(self.TEXTS), 16))
        out, grads, entries = self.run(bilm, char_features, probe)
        ref, ref_grads, ref_entries = self.run(bilm, self.per_token, probe)
        assert np.array_equal(out[2], np.zeros(16))
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-12 * max(np.abs(g).max(), 1.0), name
        assert entries == 4 < ref_entries  # char_cnn, linear, zero-row concat, gather

    def test_all_empty_texts_are_zero_rows(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        par = {k: nx.constant(p.value) for k, p in bilm.params.items()}
        out = char_features(["", ""], bilm.config.vocab, par["bilm.chars"],
                            [(par["bilm.conv0.w"], par["bilm.conv0.b"])],
                            (par["bilm.proj.w"], par["bilm.proj.b"]))
        assert np.array_equal(out.data, np.zeros((2, 16)))


class TestDirectionality:
    """Forward logits for position t depend only on tokens < t; backward
    only on tokens > t."""

    def logits(self, bilm, texts):
        _, fwd, bwd = bilm.lm_states_batch([texts])
        w, b = bilm.params["bilm.head.w"].value, bilm.params["bilm.head.b"].value
        lf = fwd[-1].data[:-1] @ w + b   # predicts tokens 1..T-1
        lb = bwd[-1].data[1:] @ w + b    # predicts tokens 0..T-2
        return lf, lb

    def test_forward_ignores_future(self):
        bilm = BiLm.init(small_config(SENTS), seed=1)
        base = SENTS[0]
        changed = base[:4] + ["night", "day"]
        lf1, _ = self.logits(bilm, base)
        lf2, _ = self.logits(bilm, changed)
        # predictions of tokens 1..3 condition on tokens 0..2 only
        assert np.array_equal(lf1[:3], lf2[:3])
        assert not np.array_equal(lf1[3:], lf2[3:])

    def test_backward_ignores_past(self):
        bilm = BiLm.init(small_config(SENTS), seed=1)
        base = SENTS[0]
        changed = ["dogs", "bark"] + base[2:]
        _, lb1 = self.logits(bilm, base)
        _, lb2 = self.logits(bilm, changed)
        # predictions of tokens 2..4 condition on tokens 3..5 only
        assert np.array_equal(lb1[2:], lb2[2:])
        assert not np.array_equal(lb1[:2], lb2[:2])

    def test_long_token_contributes_literal_chars(self):
        bilm = BiLm.init(small_config(SENTS), seed=2)
        long_tok = "x" * 26
        a = bilm.contextualize([long_tok])
        b = bilm.contextualize(["Long_Token"])
        assert np.array_equal(a, b)


class TestBatchedBlocks:
    """The batched biLM path against one sentence at a time."""

    RAGGED = [SENTS[0], ["cat"], [], ["the", "x" * 30, "sat"], SENTS[1], ["a", "mat"]]

    def test_layers_batch_rows_match_contextualize(self):
        bilm = BiLm.init(small_config(SENTS, char_filters=((3, 8), (5, 4))), seed=4)
        kept = [texts for texts in self.RAGGED if texts]
        layers = bilm.layers_batch(kept)
        assert [(x.shape, x.flags.c_contiguous) for x in layers] == [((16, 32), True)] * 3
        stacked = np.split(np.stack(layers, axis=1), np.cumsum([len(t) for t in kept])[:-1])
        for texts, rows in zip(kept, stacked):
            want = bilm.contextualize(texts)
            assert rows.shape == want.shape == (len(texts), 3, 32)
            assert np.abs(rows - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
            assert np.array_equal(np.stack(bilm.layers_batch([texts]), axis=1), want)

    def test_lm_states_batch_rejects_empty(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        for bad in ([], [SENTS[0], []]):
            with pytest.raises(ValueError):
                bilm.lm_states_batch(bad)

    def test_nll_batch_equals_summed_sentences(self):
        bilm = BiLm.init(small_config(SENTS), seed=5)
        batch = [s for s in self.RAGGED if len(s) >= 2]
        total, n = bilm.nll_batch(batch)
        singles = [bilm.sentence_nll(s) for s in batch]
        assert n == sum(m for _, m in singles) == sum(2 * (len(s) - 1) for s in batch)
        want = sum(float(t.data) for t, _ in singles)
        assert abs(float(total.data) - want) <= 1e-12 * want

    def test_nll_batch_gradients_equal_summed_sentences(self):
        bilm = BiLm.init(small_config(SENTS), seed=6)
        batch = [s for s in self.RAGGED if len(s) >= 2]

        def grads(groups):
            for p in bilm.params.values():
                p.zero_grad()
            for group in groups:
                tape = Tape()
                backward(tape, bilm.nll_batch(group, tape)[0])
            return {k: p.gradient.copy() for k, p in bilm.params.items()}

        together, apart = grads([batch]), grads([[s] for s in batch])
        for name, g in apart.items():
            assert np.abs(together[name] - g).max() <= 1e-12 * max(np.abs(g).max(), 1.0), name

    def test_nll_batch_grad_check(self):
        sents = [["ab", "c", "ab", "d"], ["c", "d"], ["d", "xyzzy" * 2, "ab"]]
        bilm = BiLm.init(small_config(sents, char_embed_dim=3, char_filters=((3, 2),),
                                      token_projection_dim=3, layer_dim=3,
                                      max_token_len=6), seed=7)
        params = bilm.parameters()
        head = [p for p in params if not p.name.startswith(("bilm.fwd", "bilm.bwd"))]
        assert grad_check(lambda t: bilm.nll_batch(sents, t)[0], head) < 1e-6
        # some recurrent coordinates have gradients near 1e-7, where the
        # central difference is noise at this size (as in the full-model check)
        assert grad_check(lambda t: bilm.nll_batch(sents, t)[0], params) < 1e-3

    def test_nll_needs_two_tokens_per_sentence(self):
        bilm = BiLm.init(small_config(SENTS), seed=0)
        for bad in ([], [SENTS[0], ["cat"]]):
            with pytest.raises(ValueError, match="2 tokens"):
                bilm.nll_batch(bad)

    @pytest.mark.parametrize("length", [2, 6, 40])
    def test_training_step_tape_size(self, length):
        # one train_bilm step: char CNN 3, biLSTM 2 (one per layer), head 2,
        # loss 1, scale 1
        bilm = BiLm.init(small_config(SENTS), seed=0)
        texts = (SENTS[0] * 7)[:length]
        tape = Tape()
        total, n = bilm.sentence_nll(texts, tape)
        nx.scale(total, 1.0 / n)
        assert len(tape) == 9


    def test_worker_thread_gives_the_same_bits(self, both_paths):
        """nll_batch gradients, contextualize and perplexity, with each
        layer's reverse direction on the calling thread and on the worker."""
        bilm = BiLm.init(small_config(SENTS), seed=8)
        batch = [s for s in self.RAGGED if len(s) >= 2]

        def outputs():
            for p in bilm.params.values():
                p.zero_grad()
            tape = Tape()
            total, _ = bilm.nll_batch(batch, tape)
            backward(tape, total)
            return ([total.data, np.array(bilm.perplexity(self.RAGGED))]
                    + [bilm.contextualize(texts) for texts in self.RAGGED]
                    + [bilm.params[k].gradient.copy() for k in sorted(bilm.params)])

        sequential, threaded = both_paths(outputs)
        assert len(sequential) == len(threaded)
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)


class TestTraining:
    def test_single_repeated_sentence_memorized(self):
        sents = [SENTS[0]]
        bilm = train_bilm(sents, small_config(sents), epochs=200, seed=0,
                          target_perplexity=1.04)
        assert bilm.training_perplexities[-1] < 1.05

    def test_toy_corpus_overfits(self):
        # 20 sentences of sentence-unique tokens: every next-token prediction
        # is a local association, so a memorizing model approaches ppl 1
        sents = [[f"a{i}", f"b{i}", f"c{i}", f"d{i}"] for i in range(20)]
        bilm = train_bilm(sents, small_config(sents), epochs=200, seed=1,
                          target_perplexity=1.25)
        assert bilm.training_perplexities[-1] < 1.3

    def test_perplexity_monotone_first_epochs(self):
        bilm = train_bilm(SENTS, small_config(SENTS), epochs=6, seed=3)
        ppl = bilm.training_perplexities
        assert all(ppl[i + 1] <= ppl[i] + 1e-9 for i in range(5))

    def test_seed_determinism(self):
        a = train_bilm(SENTS, small_config(SENTS), epochs=4, seed=9)
        b = train_bilm(SENTS, small_config(SENTS), epochs=4, seed=9)
        for k in a.params:
            assert np.array_equal(a.params[k].value, b.params[k].value)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            train_bilm(SENTS, small_config(SENTS), epochs=epochs, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_bilm([], small_config(SENTS), epochs=1, seed=0)
        with pytest.raises(ValueError, match="empty corpus"):
            train_bilm([["one"]], small_config(SENTS), epochs=1, seed=0)

    def test_context_sensitivity_after_training(self):
        sents = [["bank", "of", "america"], ["river", "bank", "flooded"]]
        bilm = train_bilm(sents, small_config(sents), epochs=30, seed=4)
        c1 = bilm.contextualize(sents[0])
        c2 = bilm.contextualize(sents[1])
        assert not np.allclose(c1[0, 1], c2[1, 1])  # layer 1 differs by context
        assert np.array_equal(c1[0, 0], c2[1, 0])   # layer 0 identical


class TestMixing:
    def test_uniform_softmax(self):
        mw = MixingWeights.init(nx.drawn(None), 2)
        layers = [np.full(4, 1.0), np.full(4, 2.0), np.full(4, 6.0)]
        out = mix_layers(layers, mw)
        assert np.allclose(out.data, 3.0)

    def test_saturated_softmax(self):
        mw = MixingWeights.init(nx.drawn(None), 2)
        mw.s.value[:] = [10.0, -10.0, -10.0]
        mw.gamma.value[...] = 2.0
        layers = [np.ones(3), 5 * np.ones(3), 9 * np.ones(3)]
        out = mix_layers(layers, mw)
        assert np.abs(out.data - 2.0).max() < 1e-7

    def test_zero_gamma(self):
        mw = MixingWeights.init(nx.drawn(None), 1)
        mw.gamma.value[...] = 0.0
        out = mix_layers([np.ones(5), np.ones(5)], mw)
        assert np.array_equal(out.data, np.zeros(5))

    def test_normalized_sums_to_one(self):
        mw = MixingWeights.init(nx.drawn(None), 4)
        mw.s.value[:] = [3.0, -1.0, 0.5, 2.0, -7.0]
        w = mw.normalized()
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            mix_layers([np.ones(3), np.ones(4)], MixingWeights.init(nx.drawn(None), 1))

    def test_layer_count_mismatch(self):
        with pytest.raises(ShapeError):
            mix_layers([np.ones(3)], MixingWeights.init(nx.drawn(None), 2))

    def test_grad_check_s_and_gamma(self):
        rng = np.random.default_rng(8)
        mw = MixingWeights.init(nx.drawn(None), 2)
        mw.s.value[:] = rng.uniform(-1, 1, 3)
        layers = [rng.uniform(-2, 2, (4,)) for _ in range(3)]
        probe = rng.uniform(-1, 1, 4)
        def fn(tape):
            out = mix_layers(layers, mw, tape)
            return sum_all(mul(out, nx.constant(probe)))
        assert grad_check(fn, [mw.s, mw.gamma]) < 1e-6

    def test_one_tape_entry(self):
        mw = MixingWeights.init(nx.drawn(None), 3)
        tape = Tape()
        mix_layers([np.ones((2, 5)) * j for j in range(4)], mw, tape)
        assert len(tape) == 1

    def test_gradients_flow(self):
        mw = MixingWeights.init(nx.drawn(None), 1)
        out, tape = evaluate(lambda t: sum_all(
            mix_layers([np.ones(3), 2 * np.ones(3)], mw, t)))
        backward(tape, out)
        assert np.abs(mw.s.gradient).max() > 0
        assert abs(float(mw.gamma.gradient)) > 0


class TestCheckpointRoundtrip:
    def test_bilm_checkpoint(self, tmp_path):
        from chemner.training import load_checkpoint, save_checkpoint
        bilm = train_bilm(SENTS, small_config(SENTS), epochs=2, seed=5)
        ckpt = make_checkpoint(bilm, None, None, kind="bilm")
        path = str(tmp_path / "bilm.ckpt")
        save_checkpoint(ckpt, path)
        restored = bilm_from_checkpoint(load_checkpoint(path))
        for k in bilm.params:
            assert np.array_equal(bilm.params[k].value, restored.params[k].value)
        a = bilm.contextualize(SENTS[1])
        b = restored.contextualize(SENTS[1])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [10**7, 10**9])
    def test_config_larger_than_the_stored_values_refused(self, dim):
        # refused before any layout array is made, so the refusal traces less
        # memory than one copy of the stored values
        from chemner.training import CheckpointError
        ckpt = make_checkpoint(BiLm.init(small_config(SENTS), seed=2), None, None, kind="bilm")
        values = sum(a.nbytes for a in ckpt.tensors.values())
        ckpt.config = {**ckpt.config, "token_projection_dim": dim, "layer_dim": dim}

        def load():
            with pytest.raises(CheckpointError, match="stored values"):
                bilm_from_checkpoint(ckpt)
        assert traced_peak(load) < values

    def test_restored_bilm_holds_one_copy_of_its_weights(self):
        bilm = BiLm.init(small_config(SENTS, char_filters=((3, 32),), token_projection_dim=64,
                                      layer_dim=64), seed=2)
        ckpt = make_checkpoint(bilm, None, None, kind="bilm")
        values = sum(a.nbytes for a in ckpt.tensors.values())
        # the stored arrays are kept: no copy of the values, no gradients
        assert traced_peak(lambda: bilm_from_checkpoint(ckpt)) < 0.1 * values
        restored = bilm_from_checkpoint(ckpt)
        assert np.array_equal(restored.contextualize(SENTS[1]), bilm.contextualize(SENTS[1]))
        assert all(p._gradient is None for p in restored.parameters())

    @pytest.mark.parametrize("section,key", [("config", "char_filters"), ("vocab", "chars"),
                                             ("trainable", "bilm.head.b")])
    def test_missing_payload_key_rejected(self, section, key):
        from chemner.training import CheckpointError
        ckpt = make_checkpoint(BiLm.init(small_config(SENTS)), None, None, kind="bilm")
        del getattr(ckpt, section)[key]
        with pytest.raises(CheckpointError):
            bilm_from_checkpoint(ckpt)
