import os
import re
import struct
import threading
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chemner import embeddings
from chemner.corpus import Vocabulary, build_vocabulary, sentence_from_texts
from chemner.embeddings import EmbeddingFormatError, align_to_vocab, load_embedding_text

from oracles import align_rows, traced_peak


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
        words, vectors = load_embedding_text(write(tmp_path, "0 3\n"))
        assert words == []
        assert vectors.shape == (0, 3)

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
        # an empty component too, with no warning first
        for content, where in [("3 2\na 1 2\n\nb 3 x\nc 5 6\n", ":4"),
                               ("2 2\na 1 2\nb 3 \n", ":3"), ("2 2\na 1 2\n  \n", ":3"),
                               ("1 1\na \n", ":2")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmbeddingFormatError, match=f"{where}: non-numeric"):
                    load_embedding_text(write(tmp_path, content))

    def test_components_python_float_accepts_are_kept(self, tmp_path):
        words, vectors = load_embedding_text(write(tmp_path, "2 2\na 1_0 0.5\nb \u0661 -2\n"))
        assert vectors.tolist() == [[10.0, 0.5], [1.0, -2.0]]

    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e999"])
    def test_non_finite_component_names_its_line(self, tmp_path, value):
        path = write(tmp_path, f"3 2\nfoo 1 2\n\nbar {value} 1\nbaz 3 4\n")
        with pytest.raises(EmbeddingFormatError, match=r":4: non-finite component"):
            load_embedding_text(path)
        assert files(tmp_path) == ["vectors.txt"]

    @pytest.mark.parametrize("content,where", [
        ("1 3\na 1 0\n", ":2: expected 3 components, got 2"),
        ("2 2\na 1 2\n\nb 1 2 3\n", ":4: expected 2 components, got 3"),
        ("1 2\na 1 2\nb 3 4\n", ":3: more rows than the declared count 1"),
        ("3 2\na 1 2\nb 3 4\n", ": declared 3 rows but found 2"),
        ("2 x\n", ":1: non-integer header"),
        ("-1 2\n", ":1: bad header values"),
        ("0 5\n", ":1: header declares 0 rows of 5 components, more than its 4 bytes"),
        ("0 99999999999999999999\n", ":1: header declares 0 rows of 99999999999999999999 "),
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

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"2 2\na 1 2\n\xe9 3 4\n")
        with pytest.raises(EmbeddingFormatError, match=rf"{re.escape(str(path))}:3: not UTF-8"):
            load_embedding_text(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]


def table_text(rows, dim, form, seed=0):
    """A text embedding file of seeded rows, each component written by ``form``."""
    values = np.random.default_rng(seed).normal(size=(rows, dim))
    body = "".join(f"w{i} {' '.join(form(float(v)) for v in row)}\n"
                   for i, row in enumerate(values))
    return f"{rows} {dim}\n{body}"


# the sidecar's tests: each text, the sidecar it leaves, and a fuzzed
# sidecar's reading are compared with the parse alone
CACHE = ".chemner-cache"
TEXTS = {
    "fixed": table_text(30, 6, lambda v: f"{v:.5f}"),
    "repr": table_text(30, 6, repr, seed=1),
    "bom": "\ufeff" + table_text(3, 2, repr, seed=2),
    "no_rows": "0 3\n",
    "empty_word": "3 2\n 0.5 -0.25\nb 1e-3 7\n 2 3\n",
    "one_empty_word": "1 3\n 1 2 3\n",
}


def assert_same(got, expected):
    assert got[0] == expected[0]
    assert got[1].shape == expected[1].shape and got[1].dtype == np.float64
    assert got[1].tobytes() == expected[1].tobytes()


def files(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


@pytest.fixture
def no_parse(monkeypatch):
    """From here on a load that parses the text fails the test."""
    def parse(path):
        raise AssertionError(f"{path} parsed again")
    return lambda: monkeypatch.setattr(embeddings, "_parse_embedding_text", parse)


class TestParseCache:
    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_hit_is_bitwise_the_parse(self, tmp_path, no_parse, name):
        path = write(tmp_path, TEXTS[name])
        expected = embeddings._parse_embedding_text(path)
        assert_same(load_embedding_text(path), expected)
        assert files(tmp_path) == ["vectors.txt", "vectors.txt" + CACHE]
        no_parse()
        assert_same(load_embedding_text(path), expected)
        if name.endswith("empty_word"):
            assert "" in expected[0]

    def test_edited_digit_invalidates_the_sidecar(self, tmp_path, no_parse):
        path = write(tmp_path, "2 2\na 1.5 2\nb 3 4\n")
        load_embedding_text(path)
        write(tmp_path, "2 2\na 1.5 2\nb 3 5\n")  # the same size
        assert load_embedding_text(path)[1].tolist() == [[1.5, 2.0], [3.0, 5.0]]
        no_parse()  # and the sidecar now holds the edit
        assert load_embedding_text(path)[1].tolist() == [[1.5, 2.0], [3.0, 5.0]]

    # the fields after the magic, version, size and digest: count, dim, words' bytes
    COUNT_AT = struct.calcsize("<8sIQ32s")

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_sidecar_is_reparsed_and_rewritten(self, tmp_path, data):
        # 200 x 50 components: an 80 KB table against a 128 KiB slack
        path = write(tmp_path, table_text(200, 50, lambda v: f"{v:.5f}"))
        expected = embeddings._parse_embedding_text(path)
        cache = tmp_path / ("vectors.txt" + CACHE)
        if not cache.exists():
            load_embedding_text(path)
        good = cache.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "flip", "extend", "rows"]))
        if kind == "truncate":
            bad = good[:data.draw(st.integers(0, len(good) - 1))]
        elif kind == "flip":
            at = data.draw(st.integers(0, len(good) - 1))
            bad = good[:at] + bytes([good[at] ^ data.draw(st.integers(1, 255))]) + good[at + 1:]
        elif kind == "extend":
            bad = good + data.draw(st.binary(min_size=1, max_size=64))
        else:  # a header declaring 10^12 rows
            at = self.COUNT_AT
            bad = good[:at] + struct.pack("<Q", 10 ** 12) + good[at + 8:]
        cache.write_bytes(bad)
        got = []
        peak = traced_peak(lambda: got.append(load_embedding_text(path)))
        assert_same(got[0], expected)
        assert peak < expected[1].nbytes + 128 * 1024
        assert cache.read_bytes() == good

    def test_word_count_is_checked_under_a_valid_checksum(self, tmp_path):
        # a sidecar whose words split into one row more than it declares,
        # with its CRC-32 recomputed, is still a miss
        path = write(tmp_path, "2 1\nab 1\ncd 2\n")
        expected = load_embedding_text(path)
        cache = tmp_path / ("vectors.txt" + CACHE)
        good = cache.read_bytes()
        at = struct.calcsize("<8sIQ32sQQQ")
        assert good[at:at + 5] == b"ab\ncd"
        body = good[:at] + b"a\n\ncd" + good[at + 5:-4]
        cache.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        assert_same(load_embedding_text(path), expected)
        assert cache.read_bytes() == good

    def test_sidecar_of_an_older_parser_is_not_served(self, tmp_path, no_parse, monkeypatch):
        # format version 1 parsed a NaN; its sidecar of this text is a hit only under 1
        path = write(tmp_path, "2 2\nfoo 1 2\nbar nan 1\n")
        monkeypatch.setattr(embeddings, "_CACHE_VERSION", 1)
        monkeypatch.setattr(embeddings, "_parse_embedding_text",
                            lambda _: (["foo", "bar"], np.array([[1.0, 2.0], [np.nan, 1.0]])))
        load_embedding_text(path)
        no_parse()
        assert np.isnan(load_embedding_text(path)[1][1, 0])
        monkeypatch.undo()  # today's version and parser
        with pytest.raises(EmbeddingFormatError, match=r":3: non-finite component"):
            load_embedding_text(path)

    def test_failed_write_still_loads(self, tmp_path, monkeypatch):
        path = write(tmp_path, TEXTS["repr"])
        expected = embeddings._parse_embedding_text(path)

        def replace(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.warns(UserWarning, match=r"vectors\.txt: parse not cached: .*denied"):
            assert_same(load_embedding_text(path), expected)
        assert files(tmp_path) == ["vectors.txt"]

    def test_two_threads_load_at_once(self, tmp_path, no_parse):
        path = write(tmp_path, table_text(300, 20, repr))
        expected = embeddings._parse_embedding_text(path)
        start, got = threading.Barrier(2), [None, None]

        def load(i):
            start.wait()
            got[i] = load_embedding_text(path)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for result in got:
            assert_same(result, expected)
        assert files(tmp_path) == ["vectors.txt", "vectors.txt" + CACHE]
        no_parse()
        assert_same(load_embedding_text(path), expected)

    @pytest.mark.parametrize("content", [
        "2 2\na 1 2\n", "1 2\na 1 x\n", "1 3\na 1 2\n", "hello\n", "1 2\n\udce9 1 2\n",
        "0 99999999999999999999\n", "2 2\nfoo 1 2\nbar nan 1\n", "1 1\na \n"])
    def test_malformed_text_leaves_no_sidecar(self, tmp_path, content):
        path = tmp_path / "vectors.txt"
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError, match=rf"{re.escape(str(path))}:\d+: "):
                load_embedding_text(str(path))
        assert files(tmp_path) == ["vectors.txt"]


class TestParseFuzz:
    """A truncated, flipped or extended valid file gives a parse or an
    EmbeddingFormatError naming its line, and never another exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncate_flip_extend(self, tmp_path, data):
        if data.draw(st.integers(0, 7)):
            text = table_text(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3)),
                              data.draw(st.sampled_from([repr, lambda v: f"{v:.5f}"])))
        else:  # no rows of more components than numpy can index
            text = "0 99999999999999999999\n"
        raw = text.encode("utf-8")
        kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
        if kind == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=32))
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        for stale in tmp_path.glob("*" + CACHE):
            stale.unlink()
        try:
            words, vectors = load_embedding_text(str(path))
        except EmbeddingFormatError as e:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(e)), str(e)
            assert files(tmp_path) == ["vectors.txt"]
        else:
            assert vectors.ndim == 2 and len(words) == vectors.shape[0]


class TestAlignToVocab:
    def test_file_rows_verbatim(self, tmp_path):
        words, vectors = load_embedding_text(
            write(tmp_path, "1 4\nalpha 0.125 -3.5 7.75 0.0009765625\n"))
        vocab = make_vocab(pretrained=words)
        table = align_to_vocab(words, vectors, vocab, seed=3)
        row = table[vocab.word_id("alpha")]
        assert np.array_equal(row, vectors[0])  # bit-exact copy
        assert table.shape == (vocab.size, 4)

    def test_pad_row_zero(self):
        vocab = make_vocab()
        table = align_to_vocab([], np.zeros((0, 6)), vocab, seed=0)
        assert np.array_equal(table[Vocabulary.PAD], np.zeros(6))

    def test_unseen_rows_seeded(self):
        vocab = make_vocab()
        a = align_to_vocab([], np.zeros((0, 8)), vocab, seed=5)
        b = align_to_vocab([], np.zeros((0, 8)), vocab, seed=5)
        c = align_to_vocab([], np.zeros((0, 8)), vocab, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unseen_scale(self):
        vocab = make_vocab(words=tuple(f"w{i}" for i in range(200)))
        dim = 64
        table = align_to_vocab([], np.zeros((0, dim)), vocab, seed=1)
        sampled = table[3:]
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
        assert table.tobytes() == align_rows(names, vectors, vocab, 5).tobytes()

    def test_non_finite_file_row_refused(self):
        vocab = make_vocab()
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            align_to_vocab(["alpha"], np.array([[1.0, np.inf]]), vocab)

