"""The JSON type tables and the codec that chemner derives from its config
dataclasses (``chemner.schema``)."""

import dataclasses
import json
import typing
from typing import Optional

import numpy as np
import pytest

from chemner import cli
from chemner.bilm import BILM_CONFIG_TYPES, BiLmConfig
from chemner.corpus import build_vocabulary, sentence_from_texts
from chemner.model import MODEL_CONFIG_TYPES, ModelConfig
from chemner.schema import JSON_NUMBER, from_json, json_types, to_json
from chemner.textproc import RuleConfig
from chemner.training import CheckpointError, TrainConfig

# the tables as they were written by hand before they were derived; the
# rule config's is what RuleConfig.from_file checked by hand
HAND_WRITTEN = {
    ModelConfig: {**dict.fromkeys(("use_words", "use_pretrained_words", "use_char_cnn",
                                   "use_contextual", "crf_bio_mask"), (bool,)),
                  **dict.fromkeys(("word_dim", "char_embed_dim", "char_filter_width",
                                   "char_filter_count", "char_output_dim", "lstm_layers",
                                   "lstm_hidden", "contextual_dim",
                                   "long_token_threshold"), (int,)),
                  "labels": [(str,)], "dropout": [JSON_NUMBER], "word_source": (str,)},
    BiLmConfig: {**dict.fromkeys(("char_embed_dim", "token_projection_dim", "num_layers",
                                  "layer_dim", "max_token_len"), (int,)),
                 "char_filters": [[(int,)]]},
    TrainConfig: {**dict.fromkeys(("learning_rate", "clip_norm", "beta1", "beta2",
                                   "epsilon"), JSON_NUMBER),
                  **dict.fromkeys(("batch_size", "max_epochs", "patience", "seed"), (int,))},
    RuleConfig: {"no_split_chars": (str,), "suffixes": [(str,)]},
}
VOCAB = build_vocabulary([sentence_from_texts(["a", "b"], [0, 0], "d")], [], min_count=1)
# the fields a checkpoint stores apart from a config's JSON object
GIVEN = {BiLmConfig: {"vocab": VOCAB}}
VALID = {ModelConfig: ModelConfig(labels=("A",)), BiLmConfig: BiLmConfig(vocab=VOCAB),
         TrainConfig: TrainConfig(), RuleConfig: RuleConfig()}


def payload_of(config) -> dict:
    return to_json(config, *GIVEN.get(type(config), ()))


class TestDerivedTables:
    def test_equal_the_hand_written_ones(self):
        assert MODEL_CONFIG_TYPES == HAND_WRITTEN[ModelConfig]
        assert BILM_CONFIG_TYPES == HAND_WRITTEN[BiLmConfig]
        assert cli._TRAIN_TYPES == HAND_WRITTEN[TrainConfig]
        assert json_types(RuleConfig) == HAND_WRITTEN[RuleConfig]
        assert cli._RUN_MODEL_TYPES == {
            k: v for k, v in HAND_WRITTEN[ModelConfig].items()
            if k not in ("labels", "contextual_dim", "word_source")}

    def test_each_table_is_built_once(self):
        # a checkpoint load asks for the very tables built at import
        assert json_types(ModelConfig) is MODEL_CONFIG_TYPES
        assert json_types(BiLmConfig, "vocab") is BILM_CONFIG_TYPES

    @pytest.mark.parametrize("hint,entry", [
        (bool, (bool,)), (int, (int,)), (str, (str,)), (float, JSON_NUMBER),
        (tuple[int], [(int,)]), (tuple[str, str, str], [(str,)]),
        (tuple[tuple[int, int], ...], [[(int,)]])])
    def test_mapped_annotations(self, hint, entry):
        assert json_types(dataclasses.make_dataclass("C", [("x", hint)])) == {"x": entry}

    @pytest.mark.parametrize("hint", [
        list[int], list, set, set[str], frozenset[str], np.ndarray, dict, dict[str, int], tuple,
        tuple[()], tuple[int, str], int | None, Optional[str], tuple[int, ...] | None,
        Optional[list[int]], int | str, float | int | None, bytes, object, typing.Any])
    def test_an_unmapped_annotation_raises(self, hint):
        cls = dataclasses.make_dataclass("C", [("ok", int), ("bad", hint)])
        with pytest.raises(TypeError, match="no JSON type"):
            json_types(cls)
        assert json_types(cls, "bad") == {"ok": (int,)}

    def test_a_field_left_unskipped_fails_to_encode(self):
        with pytest.raises(TypeError, match="no JSON type"):
            to_json(BiLmConfig(vocab=VOCAB))


class TestCodec:
    @pytest.mark.parametrize("config", [
        ModelConfig(labels=("A", "B"), lstm_hidden=16, dropout=(0.1, 0), crf_bio_mask=True,
                    word_source="patent.vec", use_contextual=True, contextual_dim=4),
        BiLmConfig(vocab=VOCAB, char_filters=((3, 4), (5, 2)), max_token_len=7),
        TrainConfig(learning_rate=0.5, batch_size=3, seed=7, epsilon=1e-6),
        RuleConfig(no_split_chars="-(", suffixes=("ium", "yl"))],
        ids=lambda c: type(c).__name__)
    def test_round_trip(self, config):
        payload = json.loads(json.dumps(payload_of(config)))
        back = from_json(type(config), "config", payload, **GIVEN.get(type(config), {}))
        assert back == config
        for f in dataclasses.fields(back):
            value = getattr(back, f.name)
            assert type(value) is type(getattr(config, f.name))
            if isinstance(value, tuple):
                assert all(type(v) is not list for v in value)

    def test_encoding_is_the_old_model_payload(self):
        # what ModelConfig.to_payload wrote into every checkpoint before
        config = ModelConfig(labels=("A", "B"), dropout=(0.1, 0.2))
        old = {k: list(v) if isinstance(v, tuple) else v
               for k, v in dataclasses.asdict(config).items()}
        assert json.dumps(to_json(config)) == json.dumps(old)

    def test_encoding_is_the_old_bilm_payload(self):
        config = BiLmConfig(vocab=VOCAB, char_filters=((3, 4), (5, 2)))
        old = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)
               if f.name != "vocab"}
        old["char_filters"] = [list(f) for f in config.char_filters]
        assert json.dumps(to_json(config, "vocab")) == json.dumps(old)

    def test_given_fields_are_not_keys_of_the_object(self):
        payload = {**payload_of(VALID[BiLmConfig]), "vocab": {}}
        with pytest.raises(CheckpointError, match=r"unknown keys \['vocab'\]"):
            from_json(BiLmConfig, "config", payload, CheckpointError, vocab=VOCAB)

    @pytest.mark.parametrize("cls,name", [
        (cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
        if f.name not in GIVEN.get(cls, {})], ids=lambda x: getattr(x, "__name__", x))
    def test_a_value_of_the_wrong_json_type_is_refused(self, cls, name):
        # derived from the annotation, so a field added later is covered too
        hint = typing.get_type_hints(cls)[name]
        for value in (None, [None], 1 if hint is str else "x", 1 if hint is bool else True):
            payload = {**payload_of(VALID[cls]), name: value}
            with pytest.raises(CheckpointError, match=rf"wrong JSON type for \['{name}'\]"):
                from_json(cls, "config", payload, CheckpointError, **GIVEN.get(cls, {}))
