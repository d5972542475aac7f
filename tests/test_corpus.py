import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chemner.corpus import (CorpusFormatError, LabelScheme, UnknownLabelError,
                            Vocabulary, _repair_bio, build_vocabulary, corpus_stats,
                            normalize_long_tokens, read_column_corpus,
                            sentence_from_texts, split_dataset, write_column_corpus)
from chemner.crf import bio_transition_masks
from chemner.evaluation import spans_from_bio

SCHEME = LabelScheme(("G", "M"))


def write(tmp_path, content, name="corpus.tsv"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestLabelScheme:
    def test_tag_set(self):
        assert SCHEME.tags == ["O", "B-G", "I-G", "B-M", "I-M"]
        assert SCHEME.num_tags == 5

    def test_split_tag(self):
        assert SCHEME.split_tag(0) == ("O", None)
        assert SCHEME.split_tag(1) == ("B", "G")
        assert SCHEME.split_tag(4) == ("I", "M")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelScheme(("G", "G"))

    def test_unknown_tag(self):
        with pytest.raises(UnknownLabelError):
            SCHEME.tag_id("B-X")


class TestReadColumnCorpus:
    def test_single_line(self, tmp_path):
        path = write(tmp_path, "salt\tB-G\n")
        sents = read_column_corpus(path, SCHEME)
        assert len(sents) == 1
        assert sents[0].texts == ["salt"]
        assert [SCHEME.tag_name(t) for t in sents[0].tags] == ["B-G"]

    def test_byte_order_mark_not_in_first_token(self, tmp_path):
        path = write(tmp_path, "\ufeffwater\tB-G\nsalt\tO\n")
        assert read_column_corpus(path, SCHEME)[0].texts == ["water", "salt"]

    def test_dangling_i_repaired(self, tmp_path):
        path = write(tmp_path, "salt\tI-G\nwater\tI-G\n")
        sents = read_column_corpus(path, SCHEME)
        assert [SCHEME.tag_name(t) for t in sents[0].tags] == ["B-G", "I-G"]
        assert sents[0].repairs == 1

    def test_i_after_other_label_repaired(self, tmp_path):
        path = write(tmp_path, "a\tB-M\nb\tI-G\n")
        sents = read_column_corpus(path, SCHEME)
        assert [SCHEME.tag_name(t) for t in sents[0].tags] == ["B-M", "B-G"]
        assert sents[0].repairs == 1

    def test_three_columns_error(self, tmp_path):
        path = write(tmp_path, "salt B-G extra\n")
        with pytest.raises(CorpusFormatError, match=":1:"):
            read_column_corpus(path, SCHEME)

    def test_unknown_label_error(self, tmp_path):
        path = write(tmp_path, "salt\tB-X\n")
        with pytest.raises(UnknownLabelError, match=":1:"):
            read_column_corpus(path, SCHEME)

    def test_documents_and_blank_lines(self, tmp_path):
        content = ("-DOCSTART-\td1\n\nsalt\tB-G\n\nwater\tO\n\n"
                   "-DOCSTART-\td2\n\nacid\tB-M\n")
        sents = read_column_corpus(write(tmp_path, content), SCHEME)
        assert [s.document_id for s in sents] == ["d1", "d1", "d2"]

    def test_space_separated_two_columns_ok(self, tmp_path):
        sents = read_column_corpus(write(tmp_path, "salt B-G\n"), SCHEME)
        assert [SCHEME.tag_name(t) for t in sents[0].tags] == ["B-G"]

    def test_roundtrip_write_read(self, tmp_path):
        sents = [sentence_from_texts(["a", "b"], [1, 2], "d1"),
                 sentence_from_texts(["c"], [0], "d2")]
        path = str(tmp_path / "out.tsv")
        write_column_corpus(path, sents, SCHEME)
        back = read_column_corpus(path, SCHEME)
        assert [s.texts for s in back] == [["a", "b"], ["c"]]
        assert [s.tags for s in back] == [(1, 2), (0,)]
        assert [s.document_id for s in back] == ["d1", "d2"]


    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_column_corpus(str(path), [sentence_from_texts(["a", "b"], [1, 2], "d1")],
                            SCHEME)
        before = path.read_bytes()
        # the second sentence's tag id has no name: the write fails halfway
        bad = [sentence_from_texts(["c"], [0], "d2"), sentence_from_texts(["d"], [99], "d2")]
        with pytest.raises(IndexError):
            write_column_corpus(str(path), bad, SCHEME)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


class TestBioRepairProperties:
    @pytest.mark.parametrize("tags,expected", [
        (["I-G"], ["B-G"]),
        (["O", "I-G", "I-G"], ["O", "B-G", "I-G"]),
        (["B-G", "I-M"], ["B-G", "B-M"]),
        (["B-G", "I-G", "O"], ["B-G", "I-G", "O"]),
    ])
    def test_repair_cases(self, tmp_path, tags, expected):
        content = "".join(f"w{i}\t{t}\n" for i, t in enumerate(tags))
        sents = read_column_corpus(write(tmp_path, content), SCHEME)
        repaired = [SCHEME.tag_name(t) for t in sents[0].tags]
        assert repaired == expected
        # O count preserved, span count never decreases
        assert repaired.count("O") == tags.count("O")
        raw_b_count = sum(t.startswith("B-") for t in tags)
        assert len(spans_from_bio(sents[0].tags, SCHEME)) >= raw_b_count


class TestBioRule:
    """The repair, the span decoder and the CRF masks, all built on
    ``LabelScheme.may_follow``, against the ``split_tag`` forms they replace."""

    @pytest.mark.parametrize("labels", [("G",), ("G", "M"), ("G", "M", "Q")])
    def test_every_short_sequence_matches_the_reference(self, labels):
        scheme = LabelScheme(labels)
        for length in range(6):
            for tags in itertools.product(range(scheme.num_tags), repeat=length):
                tags = list(tags)
                assert _repair_bio(tags, scheme) == oracles.repair_bio(tags, scheme)
                assert spans_from_bio(tags, scheme) == oracles.spans_from_bio(tags, scheme)
        for got, want in zip(bio_transition_masks(scheme), oracles.bio_transition_masks(scheme)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), labels=st.integers(1, 4))
    def test_repair_keeps_spans_obeys_the_masks_and_is_idempotent(self, data, labels):
        scheme = LabelScheme(tuple(f"L{i}" for i in range(labels)))
        tags = data.draw(st.lists(st.integers(0, scheme.num_tags - 1), max_size=12))
        repaired, _ = _repair_bio(tags, scheme)
        assert spans_from_bio(tags, scheme) == spans_from_bio(repaired, scheme)
        trans_mask, start_mask = bio_transition_masks(scheme)
        assert not (repaired and start_mask[repaired[0]])
        assert not any(trans_mask[a, b] for a, b in zip(repaired, repaired[1:]))
        assert _repair_bio(repaired, scheme) == (repaired, 0)


class TestSplitDataset:
    def make(self, n_docs, per_doc=2):
        sents = []
        for d in range(n_docs):
            for s in range(per_doc):
                sents.append(sentence_from_texts(["w"], [0], f"doc{d}"))
        return sents

    def test_ten_documents_seed7(self):
        split = split_dataset(self.make(10), seed=7)
        assert split.document_counts() == (6, 1, 3)

    def test_three_documents_remainder(self):
        split = split_dataset(self.make(3), seed=0)
        assert split.document_counts() == (1, 1, 1)

    def test_determinism(self):
        sents = self.make(10)
        a = split_dataset(sents, seed=41)
        b = split_dataset(sents, seed=41)
        assert a == b

    def test_different_seeds_differ(self):
        sents = self.make(12)
        docs = lambda part: sorted({s.document_id for s in part})
        a = split_dataset(sents, seed=1)
        b = split_dataset(sents, seed=2)
        assert any(docs(getattr(a, k)) != docs(getattr(b, k))
                   for k in ("train", "dev", "test"))

    def test_partition_property(self):
        sents = self.make(13, per_doc=3)
        split = split_dataset(sents, seed=5)
        all_docs = {s.document_id for s in sents}
        parts = [{s.document_id for s in p} for p in (split.train, split.dev, split.test)]
        assert parts[0] | parts[1] | parts[2] == all_docs
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert len(split.train) + len(split.dev) + len(split.test) == len(sents)

    def test_document_level_no_leakage(self):
        split = split_dataset(self.make(7, per_doc=4), seed=9)
        for part_a, part_b in ((split.train, split.dev), (split.train, split.test),
                               (split.dev, split.test)):
            docs_a = {s.document_id for s in part_a}
            docs_b = {s.document_id for s in part_b}
            assert not docs_a & docs_b

    def test_too_few_documents(self):
        with pytest.raises(ValueError, match="3 documents"):
            split_dataset(self.make(2), seed=0)

    @pytest.mark.parametrize("ratios", [(1.5, -0.5, 0.0), (0.5, 0.7, -0.2), (-0.0, -1.0, 2.0),
                                        (float("nan"), 0.5, 0.5), (float("inf"), 0.0, 0.0)])
    def test_negative_or_non_finite_ratio_refused(self, ratios):
        # floors of a negative share sum past the documents, so the leftover
        # count goes negative: refused before any counting
        with pytest.raises(ValueError, match="finite and non-negative"):
            split_dataset(self.make(10), ratios, seed=0)


class TestVocabulary:
    def corpus_with(self, word, times):
        return [sentence_from_texts([word], [0], f"d{i}") for i in range(times)]

    def test_four_occurrences_in(self):
        vocab = build_vocabulary(self.corpus_with("foobarium", 4), [], ())
        assert vocab.word_id("foobarium") != Vocabulary.UNK

    def test_three_occurrences_unk(self):
        vocab = build_vocabulary(self.corpus_with("rarely", 3), [], ())
        assert vocab.word_id("rarely") == Vocabulary.UNK

    def test_pretrained_word_in(self):
        vocab = build_vocabulary(self.corpus_with("water", 1), [], {"water"})
        assert vocab.word_id("water") != Vocabulary.UNK

    def test_specials_fixed(self):
        vocab = build_vocabulary([], [], ())
        assert vocab.word_id("Long_Token") == Vocabulary.LONG_TOKEN
        assert vocab.word_to_id["<pad>"] == Vocabulary.PAD
        assert vocab.word_to_id["<unk>"] == Vocabulary.UNK
        assert vocab.size == 3

    def test_ids_dense(self):
        vocab = build_vocabulary(self.corpus_with("abc", 5), [], {"zz", "aa"})
        assert sorted(vocab.word_to_id.values()) == list(range(vocab.size))

    def test_case_insensitive_fallback_to_pretrained(self):
        vocab = build_vocabulary([], [], {"benzene"})
        assert vocab.word_id("Benzene") == vocab.word_to_id["benzene"]
        # non-pretrained words do not fall back
        vocab2 = build_vocabulary(self.corpus_with("benzene", 4), [], ())
        assert vocab2.word_id("Benzene") == Vocabulary.UNK

    def test_monotone_under_more_occurrences(self):
        base = self.corpus_with("stuff", 4)
        bigger = base + self.corpus_with("stuff", 3) + self.corpus_with("other", 9)
        v1 = build_vocabulary(base, [], ())
        v2 = build_vocabulary(bigger, [], ())
        for w, _ in v1.word_to_id.items():
            assert w in v2.word_to_id

    def test_dev_counts_included(self):
        vocab = build_vocabulary(self.corpus_with("xy", 2),
                                 self.corpus_with("xy", 2), ())
        assert vocab.word_id("xy") != Vocabulary.UNK

    def test_char_vocabulary(self):
        vocab = build_vocabulary(self.corpus_with("ab", 1), [], ())
        assert vocab.char_id("a") != Vocabulary.CHAR_UNK
        assert vocab.char_id("☃") == Vocabulary.CHAR_UNK
        for ch in "Long_Tke":
            assert vocab.char_id(ch) != Vocabulary.CHAR_UNK


class TestNormalizeLongTokens:
    def test_26_chars_replaced(self):
        sent = sentence_from_texts(["x" * 26, "ok"], [0, 0], "d")
        out = normalize_long_tokens(sent)
        assert out.texts == ["Long_Token", "ok"]
        assert out.tokens[0].start == sent.tokens[0].start
        assert out.tokens[0].end == sent.tokens[0].end
        assert out.tags == sent.tags

    def test_25_chars_unchanged(self):
        sent = sentence_from_texts(["y" * 25], [0], "d")
        assert normalize_long_tokens(sent) is sent

    def test_empty_sentence(self):
        sent = sentence_from_texts([], [], "d")
        assert normalize_long_tokens(sent).texts == []

    def test_idempotent(self):
        sent = sentence_from_texts(["z" * 40], [0], "d")
        once = normalize_long_tokens(sent)
        assert normalize_long_tokens(once) is once

    def test_character_length_not_bytes(self):
        # 25 two-byte characters stay (character count is what matters)
        sent = sentence_from_texts(["é" * 25], [0], "d")
        assert normalize_long_tokens(sent).texts == ["é" * 25]

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            normalize_long_tokens(sentence_from_texts([], [], "d"), 0)


class TestCorpusStats:
    def test_hand_count(self):
        sent = sentence_from_texts(["salt", "."], [SCHEME.tag_id("B-G"), 0], "d1")
        st = corpus_stats([sent], SCHEME)
        assert (st.documents, st.sentences, st.tokens) == (1, 1, 2)
        assert st.entities == {"G": 1}

    def test_empty(self):
        st = corpus_stats([], SCHEME)
        assert (st.documents, st.sentences, st.tokens) == (0, 0, 0)
        assert st.entities == {}

    def test_two_documents(self):
        sents = [sentence_from_texts(["a"], [0], "d1"),
                 sentence_from_texts(["b"], [0], "d2")]
        assert corpus_stats(sents, SCHEME).documents == 2

    def test_totals_sum_per_document(self):
        sents = [sentence_from_texts(["a", "b"], [0, 0], "d1"),
                 sentence_from_texts(["c"], [1], "d1"),
                 sentence_from_texts(["d"], [3], "d2")]
        st = corpus_stats(sents, SCHEME)
        per_doc = {}
        for s in sents:
            per_doc.setdefault(s.document_id, 0)
            per_doc[s.document_id] += len(s.tokens)
        assert st.tokens == sum(per_doc.values())
        assert st.entities == {"G": 1, "M": 1}
