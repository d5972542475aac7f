import numpy as np
import pytest

from chemner.corpus import Vocabulary, build_vocabulary, sentence_from_texts
from chemner.embeddings import (EmbeddingFormatError, EmbeddingTable, align_to_vocab,
                                load_embedding_text)


def write(tmp_path, content):
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    return str(path)


def make_vocab(words=("alpha", "beta"), pretrained=()):
    sents = [sentence_from_texts(list(words), [0] * len(words), "d")] * 4
    return build_vocabulary(sents, [], pretrained, min_count=1)


class TestLoadEmbeddingText:
    def test_basic_parse(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert words == ["a", "b"]
        assert vectors.shape == (2, 3)
        assert np.array_equal(vectors, [[1, 0, 0], [0, 1, 0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "\ufeff1 2\na 1 2\n"))
        assert words == ["a"] and vectors.shape == (1, 2)

    def test_dim_mismatch(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=":2"):
            load_embedding_text(write(tmp_path, "1 3\na 1 0\n"))

    def test_empty_table(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "0 5\n"))
        assert words == []
        assert vectors.shape == (0, 5)

    def test_non_numeric_component(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_embedding_text(write(tmp_path, "1 2\na 1 x\n"))

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="declared 3"):
            load_embedding_text(write(tmp_path, "3 2\na 1 2\nb 3 4\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_embedding_text(write(tmp_path, "hello\n"))


class TestAlignToVocab:
    def test_file_rows_verbatim(self, tmp_path):
        words, vectors = load_embedding_text(
            write(tmp_path, "1 4\nalpha 0.125 -3.5 7.75 0.0009765625\n"))
        vocab = make_vocab(pretrained=words)
        table = align_to_vocab(words, vectors, vocab, seed=3)
        row = table.matrix[vocab.word_id("alpha")]
        assert np.array_equal(row, vectors[0])  # bit-exact copy
        assert table.trainable is False

    def test_pad_row_zero(self):
        vocab = make_vocab()
        table = align_to_vocab([], np.zeros((0, 6)), vocab, seed=0)
        assert np.array_equal(table.matrix[Vocabulary.PAD], np.zeros(6))

    def test_unseen_rows_seeded(self):
        vocab = make_vocab()
        a = align_to_vocab([], np.zeros((0, 8)), vocab, seed=5)
        b = align_to_vocab([], np.zeros((0, 8)), vocab, seed=5)
        c = align_to_vocab([], np.zeros((0, 8)), vocab, seed=6)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_unseen_scale(self):
        vocab = make_vocab(words=tuple(f"w{i}" for i in range(200)))
        dim = 64
        table = align_to_vocab([], np.zeros((0, dim)), vocab, seed=1)
        sampled = table.matrix[3:]
        assert abs(sampled.std() - 1 / np.sqrt(dim)) < 0.05 / np.sqrt(dim) * 10


class TestEmbeddingTable:
    def test_parameter_view(self):
        table = EmbeddingTable(matrix=np.arange(12.0).reshape(3, 4), dim=4,
                               trainable=True, source_name="baseline")
        p = table.as_parameter("words")
        assert p.trainable and p.frozen_rows == (Vocabulary.PAD,)
        assert np.array_equal(p.value, table.matrix)
