import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import chemner.training

from chemner.bilm import BiLmConfig, train_bilm
from chemner.corpus import DatasetSplit, Vocabulary
from chemner.embeddings import EmbeddingTable
from chemner.model import ModelConfig, NerModel, model_from_checkpoint
from chemner.numerics import NumericError, Parameter, Tape, backward
from chemner.training import (AdamState, CheckpointError, TrainConfig, adam_step,
                              clip_gradients, dev_micro_f1, load_checkpoint,
                              make_checkpoint, save_checkpoint, train)

from conftest import toy_corpus
from chemner.corpus import build_vocabulary
from oracles import adam_formula_step, tobytes_write_tensor, traced_peak


# checkpoint metadata of the right JSON types, for hand-built files
WELL_TYPED_METADATA = {"kind": "ner", "config": {}, "bilm_config": None, "trainable": {},
                       "opt_step": 0, "vocab": {}, "bilm_vocab": None, "rng_state": None,
                       "meta": {}, "version": 1}


def checkpoint_head(metadata: dict, count: int) -> bytes:
    """Magic, version, metadata and block count of a checkpoint file."""
    meta_b = json.dumps(metadata).encode("utf-8")
    return (chemner.training.CHECKPOINT_MAGIC + struct.pack("<I", 1)
            + struct.pack("<Q", len(meta_b)) + meta_b + struct.pack("<I", count))


def block_head(name: str, shape: tuple[int, ...]) -> bytes:
    """Name and shape fields of one tensor block, without its data."""
    name_b = name.encode("utf-8")
    return (struct.pack("<I", len(name_b)) + name_b + struct.pack("<I", len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape))


def make_model(sentences, scheme, vocab, seed=0, **overrides):
    defaults = dict(word_dim=8, char_embed_dim=4, char_filter_count=4,
                    char_output_dim=4, lstm_hidden=8)
    defaults.update(overrides)
    cfg = ModelConfig(labels=scheme.entity_labels, **defaults)
    return NerModel.init(cfg, vocab, seed=seed)


@pytest.fixture
def toy_setup():
    sentences, scheme = toy_corpus()
    vocab = build_vocabulary(sentences, [], min_count=1)
    return sentences, scheme, vocab


class TestAdam:
    def test_first_step_closed_form(self):
        p = Parameter("w", np.asarray([1.0]))
        p.gradient[:] = 1.0
        state = AdamState.init([p])
        config = TrainConfig(learning_rate=0.001)
        adam_step([p], state, config)
        expected = 1.0 - 0.001 * 1.0 / (1.0 + config.epsilon)
        assert p.value[0] == pytest.approx(expected, abs=1e-15)
        assert state.step == 1

    def test_zero_gradient_no_move(self):
        p = Parameter("w", np.asarray([2.5]))
        state = AdamState.init([p])
        adam_step([p], state, TrainConfig())
        assert p.value[0] == 2.5

    def test_non_trainable_untouched(self):
        p = Parameter("w", np.arange(4.0), trainable=False)
        p.gradient[:] = 3.0
        state = AdamState.init([p])
        adam_step([p], state, TrainConfig())
        assert np.array_equal(p.value, np.arange(4.0))

    def test_frozen_rows_pinned(self):
        p = Parameter("emb", np.ones((3, 2)), frozen_rows=(0,))
        p.gradient[:] = 1.0
        state = AdamState.init([p])
        adam_step([p], state, TrainConfig())
        assert np.array_equal(p.value[0], [1.0, 1.0])
        assert not np.array_equal(p.value[1], [1.0, 1.0])

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter("bad_param", np.ones(2))
        p.gradient[:] = [np.nan, 0.0]
        with pytest.raises(NumericError, match="bad_param"):
            adam_step([p], AdamState.init([p]), TrainConfig())

    def test_bias_correction_trajectory(self):
        # two steps against a hand-computed Adam trajectory
        p = Parameter("w", np.asarray([0.0]))
        state = AdamState.init([p])
        config = TrainConfig(learning_rate=0.1)
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([0.5, -0.25], start=1):
            p.gradient[:] = g
            adam_step([p], state, config)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.value[0] == pytest.approx(x, abs=1e-14)


    def test_in_place_step_equals_formula_bitwise(self):
        rng = np.random.default_rng(3)
        def params():
            return [Parameter("emb", np.linspace(-1, 1, 12).reshape(4, 3), frozen_rows=(0, 2)),
                    Parameter("w", np.linspace(0.5, -2, 6).reshape(2, 3)),
                    Parameter("fixed", np.ones(5), trainable=False)]
        ours, ref = params(), params()
        state = AdamState.init(ours)
        m = {p.name: np.zeros_like(p.value) for p in ref}
        v = {p.name: np.zeros_like(p.value) for p in ref}
        config = TrainConfig(learning_rate=0.03, beta1=0.8, beta2=0.99)
        for t in range(1, 8):
            for a, b in zip(ours, ref):
                a.gradient[...] = b.gradient[...] = rng.normal(size=a.value.shape) * 10.0 ** -t
            adam_step(ours, state, config)
            adam_formula_step(ref, m, v, t, config)
            for a, b in zip(ours, ref):
                assert np.array_equal(a.value, b.value), (t, a.name)
                if a.trainable:
                    assert np.array_equal(state.m[a.name], m[a.name])
                    assert np.array_equal(state.v[a.name], v[a.name])
        assert np.array_equal(ours[0].value[[0, 2]], params()[0].value[[0, 2]])
        assert np.array_equal(ours[2].value, np.ones(5))


class TestClipGradients:
    def test_norm_two_halves(self):
        p = Parameter("a", np.zeros(4))
        p.gradient[:] = 1.0  # norm 2
        pre = clip_gradients([p], max_norm=1.0)
        assert pre == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(p.gradient, 0.5)

    def test_small_norm_unchanged(self):
        p = Parameter("a", np.zeros(1))
        p.gradient[:] = 0.5
        clip_gradients([p], max_norm=1.0)
        assert p.gradient[0] == 0.5

    def test_post_clip_norm(self):
        rng = np.random.default_rng(0)
        params = [Parameter(f"p{i}", np.zeros((3, 3))) for i in range(3)]
        for p in params:
            p.gradient[:] = rng.normal(size=(3, 3))
        pre = clip_gradients(params, max_norm=1.0)
        post = np.sqrt(sum((p.gradient ** 2).sum() for p in params))
        assert post == pytest.approx(min(pre, 1.0), abs=1e-12)

    def test_global_not_per_parameter(self):
        a = Parameter("a", np.zeros(1))
        b = Parameter("b", np.zeros(1))
        a.gradient[:] = 3.0
        b.gradient[:] = 4.0  # global norm 5
        clip_gradients([a, b], max_norm=1.0)
        assert a.gradient[0] == pytest.approx(0.6)
        assert b.gradient[0] == pytest.approx(0.8)

    def test_non_trainable_excluded(self):
        a = Parameter("a", np.zeros(1))
        frozen = Parameter("f", np.zeros(1), trainable=False)
        a.gradient[:] = 0.5
        frozen.gradient[:] = 100.0
        clip_gradients([a, frozen], max_norm=1.0)
        assert a.gradient[0] == 0.5  # frozen gradient not counted


class TestTrainConfig:
    def test_defaults_match_regime(self):
        c = TrainConfig()
        assert (c.learning_rate, c.batch_size, c.clip_norm) == (0.001, 16, 1.0)
        assert (c.max_epochs, c.patience) == (50, 10)
        assert (c.beta1, c.beta2, c.epsilon) == (0.9, 0.999, 1e-8)

    def test_patience_bound(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=51)

    def test_positive_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("key", ["learning_rate", "clip_norm", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finite_values(self, key, value):
        with pytest.raises(ValueError):
            TrainConfig(**{key: value})


class TestEarlyStopping:
    def test_constant_f1_stops_at_eleven(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        calls = []
        def stub(model_, dev):
            calls.append(1)
            return 0.5
        config = TrainConfig(max_epochs=50, patience=10, seed=0)
        result = train(model, splits, config, dev_scorer=stub)
        assert len(result.report.epochs) == 11
        assert result.report.epochs[-1].epoch == 11
        assert result.report.stopping_reason == "patience"
        assert result.report.best_epoch == 1

    def test_ever_improving_runs_to_max(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        splits = DatasetSplit(train=tuple(sentences[:2]), dev=tuple(sentences[:1]),
                              test=(), seed=0)
        counter = iter(range(1000))
        config = TrainConfig(max_epochs=50, patience=10, seed=0)
        result = train(model, splits, config,
                       dev_scorer=lambda m, d: 0.01 * next(counter))
        assert len(result.report.epochs) == 50
        assert result.report.stopping_reason == "max_epochs"
        assert result.report.best_epoch == 50

    def test_epoch_bounds(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        splits = DatasetSplit(train=tuple(sentences[:2]), dev=tuple(sentences[:1]),
                              test=(), seed=0)
        result = train(model, splits, TrainConfig(max_epochs=3, patience=2, seed=0),
                       dev_scorer=lambda m, d: 0.5)
        assert 1 <= result.report.epochs[-1].epoch <= 50

    def test_empty_split_rejected(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        with pytest.raises(ValueError):
            train(model, DatasetSplit(train=(), dev=tuple(sentences[:1]), test=(),
                                      seed=0), TrainConfig())


class TestCheckpointIO:
    def test_save_load_save_bit_identical(self, toy_setup, tmp_path):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        opt = AdamState.init(model.trainable_parameters())
        rng = np.random.default_rng(3)
        rng.random(5)
        ckpt = make_checkpoint(model, opt, rng, meta={"epoch": 2})
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_tensors_roundtrip_exact(self, toy_setup, tmp_path):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        ckpt = make_checkpoint(model, None, None)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        for name, arr in ckpt.tensors.items():
            assert np.array_equal(back.tensors[name], arr)
        restored = model_from_checkpoint(back)
        assert restored.predict(sentences[0]) == model.predict(sentences[0])

    def test_bytes_equal_the_tobytes_writer(self, toy_setup, tmp_path, monkeypatch):
        # a contextual model (frozen biLM tensors) with Adam moments, one
        # moment stored in Fortran order so the writer must reorder it
        sentences, scheme, vocab = toy_setup
        bcfg = BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                          token_projection_dim=8, layer_dim=8)
        bilm = train_bilm([s.texts for s in sentences[:4]], bcfg, epochs=1)
        cfg = ModelConfig(labels=scheme.entity_labels, word_dim=8, char_embed_dim=4,
                          char_filter_count=4, char_output_dim=4, lstm_hidden=6,
                          use_contextual=True, contextual_dim=bcfg.output_dim)
        model = NerModel.init(cfg, vocab, seed=0, bilm=bilm)
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        ckpt = train(model, splits, TrainConfig(max_epochs=1, patience=1),
                     dev_scorer=lambda m, d: 0.0).final
        assert ckpt.opt_step > 0 and any(n.startswith("bilm.") for n in ckpt.tensors)
        ckpt.opt_m["emit.w"] = np.asfortranarray(ckpt.opt_m["emit.w"])
        ours, ref = str(tmp_path / "ours.ckpt"), str(tmp_path / "ref.ckpt")
        save_checkpoint(ckpt, ours)
        monkeypatch.setattr(chemner.training, "_write_tensor", tobytes_write_tensor)
        save_checkpoint(ckpt, ref)
        assert Path(ours).read_bytes() == Path(ref).read_bytes()
        back = load_checkpoint(ours)
        for name, arr in ckpt.opt_m.items():
            assert back.opt_m[name].dtype == np.float64
            assert np.array_equal(back.opt_m[name], arr), name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_tensor_block(self, toy_setup, tmp_path):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(make_checkpoint(model, None, None), path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated.*offset"):
            load_checkpoint(path)

    def saved(self, toy_setup, tmp_path):
        sentences, scheme, vocab = toy_setup
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(make_checkpoint(make_model(sentences, scheme, vocab), None, None), path)
        return path

    @pytest.mark.parametrize("keep", [10, 17, 40, 400])
    def test_truncated_anywhere(self, toy_setup, tmp_path, keep):
        path = self.saved(toy_setup, tmp_path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:keep])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unknown_block_group(self, toy_setup, tmp_path):
        path = self.saved(toy_setup, tmp_path)
        data = Path(path).read_bytes()
        assert data.count(b"p/crf.start") == 1
        Path(path).write_bytes(data.replace(b"p/crf.start", b"q/crf.start"))
        with pytest.raises(CheckpointError, match="q/crf.start"):
            load_checkpoint(path)

    def test_missing_metadata_key(self, toy_setup, tmp_path):
        path = self.saved(toy_setup, tmp_path)
        data = Path(path).read_bytes()
        meta_len = struct.unpack("<Q", data[12:20])[0]
        for key in ("opt_step", "bilm_vocab"):  # a null bilm_vocab is still required
            metadata = json.loads(data[20:20 + meta_len])
            del metadata[key]
            meta_b = json.dumps(metadata).encode("utf-8")
            Path(path).write_bytes(data[:12] + struct.pack("<Q", len(meta_b)) + meta_b
                                   + data[20 + meta_len:])
            with pytest.raises(CheckpointError, match=f"lacks.*{key}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("section,key", [("config", "labels"), ("vocab", "words"),
                                             ("trainable", "emit.b")])
    def test_missing_payload_key_rejected_on_rebuild(self, toy_setup, section, key):
        sentences, scheme, vocab = toy_setup
        ckpt = make_checkpoint(make_model(sentences, scheme, vocab), None, None)
        del getattr(ckpt, section)[key]
        with pytest.raises(CheckpointError):
            model_from_checkpoint(ckpt)

    def test_huge_declared_shape_refused_before_reading(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(checkpoint_head(WELL_TYPED_METADATA, 1) + block_head("p/x", (2 ** 40,))
                         + bytes(64))
        with pytest.raises(CheckpointError, match="p/x data: 8796093022208 bytes declared"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field,value", [("trainable", 5), ("trainable", {"x": 5}),
                                             ("meta", [1]), ("opt_step", True)])
    def test_metadata_types_checked_before_any_block(self, tmp_path, field, value):
        # the first block declares more data than the file holds: a type
        # check made after the blocks would report the truncation instead
        path = tmp_path / "typed.ckpt"
        path.write_bytes(checkpoint_head({**WELL_TYPED_METADATA, field: value}, 1)
                         + block_head("p/x", (4,)) + bytes(8))
        with pytest.raises(CheckpointError, match=rf"wrong JSON type: \['{field}'\]"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_file(self, toy_setup, tmp_path, monkeypatch):
        path = self.saved(toy_setup, tmp_path)
        before = Path(path).read_bytes()
        sentences, scheme, vocab = toy_setup
        other = make_checkpoint(make_model(sentences, scheme, vocab, seed=1), None, None)
        real_write = chemner.training._write_tensor
        written = []

        def failing_write(out, name, arr):
            if len(written) == len(other.tensors) // 2:
                raise OSError("disk full")
            written.append(name)
            real_write(out, name, arr)

        monkeypatch.setattr(chemner.training, "_write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, path)
        assert Path(path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

class TestTrainLoop:
    def run(self, toy_setup, seed, epochs=3, model_seed=0):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab, seed=model_seed)
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences[:5]),
                              test=(), seed=seed)
        config = TrainConfig(learning_rate=0.01, max_epochs=epochs, patience=epochs,
                             seed=seed)
        return train(model, splits, config), model

    def test_determinism_bit_identical(self, toy_setup, tmp_path):
        r1, _ = self.run(toy_setup, seed=13)
        r2, _ = self.run(toy_setup, seed=13)
        assert r1.report == r2.report
        pa, pb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(r1.final, pa)
        save_checkpoint(r2.final, pb)
        assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_best_checkpoint_reproduces_best_f1(self, toy_setup):
        result, model = self.run(toy_setup, seed=17, epochs=4)
        restored = model_from_checkpoint(result.best)
        sentences, scheme, vocab = toy_setup
        f1 = dev_micro_f1(restored, sentences[:5])
        assert f1 == result.report.best_f1

    def test_loss_below_initial_after_50_epochs_5_seeds(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        corpus = sentences[:4]
        for seed in range(5):
            model = make_model(corpus, scheme, vocab, seed=seed)
            initial = float(model.build_loss(None, corpus).data)
            splits = DatasetSplit(train=tuple(corpus), dev=tuple(corpus[:1]),
                                  test=(), seed=seed)
            config = TrainConfig(learning_rate=0.01, max_epochs=50, patience=50,
                                 seed=seed)
            train(model, splits, config, dev_scorer=lambda m, d: 0.0)
            assert float(model.build_loss(None, corpus).data) < initial

    def test_resume_reproduces_trajectory(self, toy_setup, tmp_path):
        # one 4-epoch run vs 2 epochs, checkpoint, resume for 2 more
        full, _ = self.run(toy_setup, seed=23, epochs=4)
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab, seed=0)
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences[:5]),
                              test=(), seed=23)
        half_cfg = TrainConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=23)
        first = train(model, splits, half_cfg)
        path = str(tmp_path / "mid.ckpt")
        save_checkpoint(first.final, path)

        model2 = make_model(sentences, scheme, vocab, seed=99)  # different init
        full_cfg = TrainConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=23)
        resumed = train(model2, splits, full_cfg, resume=load_checkpoint(path))
        for name, arr in full.final.tensors.items():
            assert np.array_equal(resumed.final.tensors[name], arr), name

    def test_final_is_best_when_the_last_epoch_is_best(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        config = TrainConfig(max_epochs=3, patience=3, seed=0)
        rising = iter([0.1, 0.2, 0.3])
        result = train(make_model(sentences, scheme, vocab), splits, config,
                       dev_scorer=lambda m, d: next(rising))
        assert result.report.best_epoch == 3
        assert result.final is result.best
        falling = iter([0.3, 0.2, 0.1])
        result = train(make_model(sentences, scheme, vocab), splits, config,
                       dev_scorer=lambda m, d: next(falling))
        assert result.final is not result.best
        assert (result.best.meta["epoch"], result.final.meta["epoch"]) == (1, 3)
        assert result.final.meta["stall"] == 2

    def test_resume_from_a_final_that_is_best(self, toy_setup, tmp_path):
        # criterion 8 through the shared snapshot: 4 epochs at once, and 2
        # epochs then 2 more from the saved final, give the same bytes
        sentences, scheme, vocab = toy_setup
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences[:5]),
                              test=(), seed=23)
        def config(epochs):
            return TrainConfig(learning_rate=0.01, max_epochs=epochs, patience=epochs,
                               seed=23)
        scores = iter(range(1, 5))
        full = train(make_model(sentences, scheme, vocab), splits, config(4),
                     dev_scorer=lambda m, d: next(scores))
        scores = iter(range(1, 5))
        first = train(make_model(sentences, scheme, vocab), splits, config(2),
                      dev_scorer=lambda m, d: next(scores))
        assert first.final is first.best
        mid = str(tmp_path / "mid.ckpt")
        save_checkpoint(first.final, mid)
        resumed = train(make_model(sentences, scheme, vocab, seed=99), splits, config(4),
                        dev_scorer=lambda m, d: next(scores), resume=load_checkpoint(mid))
        pa, pb = str(tmp_path / "full.ckpt"), str(tmp_path / "resumed.ckpt")
        save_checkpoint(full.final, pa)
        save_checkpoint(resumed.final, pb)
        assert Path(pa).read_bytes() == Path(pb).read_bytes()

    @pytest.mark.parametrize("section,name,value", [
        ("tensors", "crf.start", np.zeros(1)),  # would broadcast into the (K,) parameter
        ("tensors", "emit.b", None),
        ("opt_m", "crf.start", np.zeros(1)),
        ("opt_v", "emit.b", None)])
    def test_resume_rejects_mismatched_checkpoint(self, toy_setup, section, name, value):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        ckpt = make_checkpoint(model, AdamState.init(model.trainable_parameters()),
                               np.random.default_rng(0))
        if value is None:
            del getattr(ckpt, section)[name]
        else:
            getattr(ckpt, section)[name] = value
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        with pytest.raises(CheckpointError, match=name):
            train(model, splits, TrainConfig(max_epochs=1, patience=1), resume=ckpt)

    def test_refused_resume_leaves_the_model_unchanged(self, toy_setup):
        # the moments are matched before any parameter is copied
        sentences, scheme, vocab = toy_setup
        saved = make_model(sentences, scheme, vocab, seed=1)
        ckpt = make_checkpoint(saved, AdamState.init(saved.trainable_parameters()),
                               np.random.default_rng(0))
        del ckpt.opt_m["emit.b"]
        model = make_model(sentences, scheme, vocab)
        before = {name: (p.value.copy(), p.trainable)
                  for name, p in model.all_tensors().items()}
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        with pytest.raises(CheckpointError, match="emit.b"):
            train(model, splits, TrainConfig(max_epochs=1, patience=1), resume=ckpt)
        for name, p in model.all_tensors().items():
            assert np.array_equal(p.value, before[name][0]), name
            assert p.trainable is before[name][1], name

    def test_resume_leaves_the_checkpoint_unchanged(self, toy_setup):
        # a resume copies what it restores: training on never writes into
        # the checkpoint's tensors or Adam moments
        sentences, scheme, vocab = toy_setup
        splits = DatasetSplit(train=tuple(sentences[:4]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        ckpt = train(make_model(sentences, scheme, vocab, seed=1), splits,
                     TrainConfig(max_epochs=1, patience=1), dev_scorer=lambda m, d: 0.0).final
        groups = (ckpt.tensors, ckpt.opt_m, ckpt.opt_v)
        before = [{name: a.tobytes() for name, a in group.items()} for group in groups]
        assert all(before) and any(np.any(a) for a in ckpt.opt_v.values())
        model = make_model(sentences, scheme, vocab)
        train(model, splits, TrainConfig(max_epochs=3, patience=3), resume=ckpt,
              dev_scorer=lambda m, d: 0.0)
        assert [{name: a.tobytes() for name, a in group.items()} for group in groups] == before
        stored = {id(a) for group in groups for a in group.values()}
        assert not any(id(p.value) in stored for p in model.all_tensors().values())

    def test_non_trainable_tables_stable(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        model.params["words"].trainable = False
        before = model.params["words"].value.copy()
        splits = DatasetSplit(train=tuple(sentences[:8]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        train(model, splits, TrainConfig(max_epochs=2, patience=2, seed=0),
              dev_scorer=lambda m, d: 0.0)
        assert np.array_equal(model.params["words"].value, before)

    def test_frozen_table_is_a_tape_constant(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        words = model.params["words"]
        words.trainable = False
        tape = Tape()
        assert tape.param(words).tape is None
        assert len(tape) == 0
        splits = DatasetSplit(train=tuple(sentences[:8]), dev=tuple(sentences[:2]),
                              test=(), seed=0)
        train(model, splits, TrainConfig(max_epochs=2, patience=2, seed=0),
              dev_scorer=lambda m, d: 0.0)
        assert not words.gradient.any()

    def test_pad_rows_stay_zero(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        assert np.array_equal(model.params["chars"].value[Vocabulary.CHAR_PAD],
                              np.zeros(4))
        splits = DatasetSplit(train=tuple(sentences), dev=tuple(sentences[:2]),
                              test=(), seed=1)
        train(model, splits, TrainConfig(max_epochs=2, patience=2, seed=1),
              dev_scorer=lambda m, d: 0.0)
        assert np.array_equal(model.params["chars"].value[Vocabulary.CHAR_PAD],
                              np.zeros(4))
        assert np.array_equal(model.params["words"].value[Vocabulary.PAD],
                              np.zeros(8))

    def test_gradients_zeroed_per_step(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        model = make_model(sentences, scheme, vocab)
        for p in model.trainable_parameters():
            p.gradient[:] = 123.0
        splits = DatasetSplit(train=tuple(sentences[:2]), dev=tuple(sentences[:1]),
                              test=(), seed=0)
        train(model, splits, TrainConfig(max_epochs=1, patience=1, seed=0),
              dev_scorer=lambda m, d: 0.0)
        for p in model.trainable_parameters():
            assert np.abs(p.gradient).max() < 100.0

    def test_every_tape_freed_without_cyclic_gc(self, toy_setup, monkeypatch):
        # a tape and its output tensors form a reference cycle; train and
        # train_bilm clear each tape after backward, so reference counting
        # alone frees every batch's tape
        import gc
        import weakref

        import chemner.bilm
        made = []

        class TrackedTape(Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(chemner.training, "Tape", TrackedTape)
        monkeypatch.setattr(chemner.bilm, "Tape", TrackedTape)
        sentences, scheme, vocab = toy_setup
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = make_model(sentences, scheme, vocab)
            splits = DatasetSplit(train=tuple(sentences[:6]), dev=tuple(sentences[:2]),
                                  test=(), seed=0)
            train(model, splits, TrainConfig(max_epochs=1, patience=1, seed=0),
                  dev_scorer=lambda m, d: 0.0)
            config = BiLmConfig(vocab=vocab, char_embed_dim=4, char_filters=((3, 4),),
                                token_projection_dim=8, layer_dim=8)
            train_bilm([s.texts for s in sentences[:4]], config, epochs=1)
            assert len(made) > 4
            assert [ref() for ref in made if ref() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestAllocationGuards:
    """A training step on a model with a frozen 2,000 x 50 word table: the
    table gets no gradient work in backward, and the optimizer works in its
    own scratch."""

    @pytest.fixture
    def frozen_table_model(self, toy_setup):
        sentences, scheme, vocab = toy_setup
        table = EmbeddingTable(matrix=np.random.default_rng(0).normal(size=(2000, 50)),
                               dim=50, trainable=False)
        cfg = ModelConfig(labels=scheme.entity_labels, word_dim=50, char_embed_dim=4,
                          char_filter_count=4, char_output_dim=4, lstm_hidden=8)
        return NerModel.init(cfg, vocab, seed=0, word_table=table), sentences[:8]

    def test_backward_allocates_nothing_of_the_table_size(self, frozen_table_model):
        model, batch = frozen_table_model
        tape = Tape()
        out = model.build_loss(tape, batch)
        peak = traced_peak(lambda: backward(tape, out))
        assert peak < model.params["words"].value.nbytes

    def test_optimizer_state_allocates_the_gradients_it_updates(self, frozen_table_model):
        # before any step, so no step's temporaries sit below them in the heap
        model, _ = frozen_table_model
        assert all(p._gradient is None for p in model.parameters())
        AdamState.init(model.trainable_parameters())
        assert all(p._gradient is not None for p in model.trainable_parameters())
        assert model.params["words"]._gradient is None

    def test_training_never_allocates_the_table_gradient(self, frozen_table_model):
        model, batch = frozen_table_model
        splits = DatasetSplit(train=tuple(batch), dev=tuple(batch[:2]), test=(), seed=0)
        train(model, splits, TrainConfig(max_epochs=2, patience=2, seed=0),
              dev_scorer=lambda m, d: 0.0)
        assert model.params["words"]._gradient is None
        assert all(p._gradient is not None for p in model.trainable_parameters())

    def test_optimizer_step_allocates_less_than_one_parameter(self, frozen_table_model):
        model, batch = frozen_table_model
        trainable = model.trainable_parameters()
        opt = AdamState.init(trainable)
        config = TrainConfig()

        def step():
            clip_gradients(trainable, config.clip_norm, opt.scratch)
            adam_step(trainable, opt, config)

        for p in trainable:
            p.zero_grad()
        tape = Tape()
        backward(tape, model.build_loss(tape, batch))
        step()
        assert traced_peak(step) < max(p.value.nbytes for p in trainable)
