import numpy as np
import pytest

from chemner.corpus import Vocabulary, build_vocabulary, sentence_from_texts
from chemner.embeddings import (EmbeddingFormatError, EmbeddingTable, align_to_vocab,
                                load_embedding_text)

from oracles import align_rows


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


    def test_bitwise_equal_to_python_float_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-12, 12, 40),
                                 rng.uniform(-1, 1, 40)]).reshape(20, 4)
        forms = [repr, lambda v: f"{v:.6f}", lambda v: f"{v:.17e}", lambda v: f"{v:g}"]
        lines = [" ".join([f"w{i}"] + [forms[(i + j) % 4](float(v)) for j, v in enumerate(row)])
                 for i, row in enumerate(values)]
        path = write(tmp_path, f"20 4\n" + "\n".join(lines) + "\n")
        words, vectors = load_embedding_text(path)
        expected = np.array([[float(v) for v in line.split(" ")[1:]] for line in lines])
        assert words == [f"w{i}" for i in range(20)]
        assert vectors.tobytes() == expected.tobytes()

    def test_one_component_and_blank_lines(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "2 1\na 0.5\n\nb -2\n"))
        assert words == ["a", "b"] and vectors.tolist() == [[0.5], [-2.0]]

    def test_non_numeric_component_names_its_line(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=r":4: non-numeric"):
            load_embedding_text(write(tmp_path, "3 2\na 1 2\n\nb 3 x\nc 5 6\n"))
        with pytest.raises(EmbeddingFormatError, match=r":3: non-numeric"):
            load_embedding_text(write(tmp_path, "2 2\na 1 2\nb 3 \n"))
        with pytest.raises(EmbeddingFormatError, match=r":3: non-numeric"):
            load_embedding_text(write(tmp_path, "2 2\na 1 2\n  \n"))

    def test_components_python_float_accepts_are_kept(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "2 2\na 1_0 nan\nb \u0661 -inf\n"))
        assert vectors[0, 0] == 10.0 and np.isnan(vectors[0, 1])
        assert vectors[1].tolist() == [1.0, -np.inf]

    @pytest.mark.parametrize("content,where", [
        ("1 3\na 1 0\n", ":2: expected 3 components, got 2"),
        ("2 2\na 1 2\n\nb 1 2 3\n", ":4: expected 2 components, got 3"),
        ("1 2\na 1 2\nb 3 4\n", ":3: more rows than the declared count 1"),
        ("3 2\na 1 2\nb 3 4\n", ": declared 3 rows but found 2"),
        ("2 x\n", ":1: non-integer header"),
        ("-1 2\n", ":1: bad header values"),
    ])
    def test_shape_errors_name_their_line(self, tmp_path, content, where):
        with pytest.raises(EmbeddingFormatError, match=where):
            load_embedding_text(write(tmp_path, content))

    def test_header_larger_than_the_file_refused_before_allocating(self, tmp_path):
        # 10^12 x 10^6 float64s: allocating the table first would fail or swap
        with pytest.raises(EmbeddingFormatError, match=r":1: header declares 1000000000000 rows"):
            load_embedding_text(write(tmp_path, "1000000000000 1000000\na 1 2\n"))
        with pytest.raises(EmbeddingFormatError, match="header declares 3 rows"):
            load_embedding_text(write(tmp_path, "3 4\na 1 2 3 4\n"))


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

    @pytest.mark.parametrize("in_file", ["none", "some", "all"])
    def test_equals_the_per_row_loop(self, in_file):
        # 300 vocabulary words at 200 dims; the file holds none, every
        # third or all of them, plus words the vocabulary lacks
        vocab = make_vocab(words=tuple(f"w{i}" for i in range(300)))
        names = [w for w in vocab.words[3:]
                 if in_file == "all" or (in_file == "some" and int(w[1:]) % 3 == 0)]
        names += ["absent", "W7"]
        vectors = np.random.default_rng(1).normal(size=(len(names), 200))
        table = align_to_vocab(names, vectors, vocab, seed=5)
        assert table.matrix.tobytes() == align_rows(names, vectors, vocab, 5).tobytes()

    def test_non_finite_file_row_refused(self):
        vocab = make_vocab()
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            align_to_vocab(["alpha"], np.array([[1.0, np.inf]]), vocab)


class TestEmbeddingTable:
    def test_parameter_view(self):
        table = EmbeddingTable(matrix=np.arange(12.0).reshape(3, 4), dim=4,
                               trainable=True, source_name="baseline")
        p = table.as_parameter("words")
        assert p.trainable and p.frozen_rows == (Vocabulary.PAD,)
        assert np.array_equal(p.value, table.matrix)
