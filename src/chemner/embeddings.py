"""Pre-trained word embedding loading and vocabulary alignment."""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
import zlib

import numpy as np

from .corpus import Vocabulary, atomic_open
from .textproc import utf8_text


class EmbeddingFormatError(ValueError):
    """Text embedding file violates the `<count> <dim>` header contract."""


def load_embedding_text(path: str) -> tuple[list[str], np.ndarray]:
    """:func:`_parse_embedding_text` of ``path``, parsed once: the parse is
    kept in a sidecar ``<path>.chemner-cache`` keyed by the text's size and
    SHA-256. A missing, stale or damaged sidecar is rewritten; one that
    cannot be written is a warning, not an error."""
    with open(path, "rb") as f:
        # one small reused buffer: freed large chunks would reshape the heap
        digest, buf = hashlib.sha256(), bytearray(1 << 16)
        while n := f.readinto(buf):
            digest.update(memoryview(buf)[:n])
        key = (_CACHE_MAGIC, _CACHE_VERSION, f.tell(), digest.digest())
    del buf  # freed before the parse allocates
    cache = path + ".chemner-cache"
    if (hit := _read_cache(cache, key)) is not None:
        return hit
    words, vectors = _parse_embedding_text(path)
    text, table = "\n".join(words).encode("utf-8"), vectors.astype("<f8", copy=False)
    header = _CACHE_HEADER.pack(*key, *vectors.shape, len(text))
    crc = zlib.crc32(table, zlib.crc32(text, zlib.crc32(header)))
    try:
        with atomic_open(cache, "b") as f:
            f.writelines((header, text, table, crc.to_bytes(4, "little")))
    except OSError as e:
        warnings.warn(f"{path}: parse not cached: {e}", stacklevel=2)
    return words, vectors


# The sidecar: magic, format version (bump it whenever the parser's semantics change),
# the text's size and SHA-256, count, dim, the words' byte length; the words, '\n'-joined
# UTF-8; the (count x dim) little-endian float64 table; the CRC-32 of all before it.
_CACHE_MAGIC, _CACHE_VERSION = b"CHEMNERE", 2
_CACHE_HEADER = struct.Struct("<8sIQ32sQQQ")


def _read_cache(cache: str, key: tuple) -> tuple[list[str], np.ndarray] | None:
    """The sidecar's words and table if it holds the parse ``key`` names,
    else None; nothing is allocated before its size matches its header."""
    try:
        with open(cache, "rb") as f:
            head = f.read(_CACHE_HEADER.size)
            *found, count, dim, nbytes = _CACHE_HEADER.unpack(head)
            if (tuple(found) != key or len(head) + nbytes + 8 * count * dim + 4
                    != os.fstat(f.fileno()).st_size):
                return None
            text, vectors = f.read(nbytes), np.empty((count, dim), dtype="<f8")
            if (f.readinto(vectors) != vectors.nbytes or int.from_bytes(f.read(4), "little")
                    != zlib.crc32(vectors, zlib.crc32(text, zlib.crc32(head)))):
                return None
            words = text.decode("utf-8").split("\n") if count else []
    except (OSError, ValueError, struct.error):  # also a decode error or a dim numpy refuses
        return None
    return (words, vectors) if len(words) == count else None


def _parse_embedding_text(path: str) -> tuple[list[str], np.ndarray]:
    """Parse `<count> <dim>` header then exactly ``count`` `word v1 ... v_dim` lines.

    A header that the file is too short to hold is refused before the
    (count x dim) table is allocated. Every line's shape is checked as it
    is read; the components are parsed by one ``np.loadtxt`` call per run
    of ``_PARSE_ROWS`` lines, straight into the table.
    """
    with utf8_text(path, EmbeddingFormatError) as f:
        header = f.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}:1: header must be '<count> <dim>'")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: non-integer header {header!r}") from None
        if count < 0 or dim < 1:
            raise EmbeddingFormatError(f"{path}:1: bad header values {count} {dim}")
        # a row is at least dim one-character components, each after a space;
        # no file declares more components than it has bytes, even with no rows
        size = os.fstat(f.fileno()).st_size
        if count * (2 * dim + 1) > size or dim > size:
            raise EmbeddingFormatError(f"{path}:1: header declares {count} rows of {dim} "
                                       f"components, more than its {size} bytes can hold")
        vectors = np.empty((count, dim), dtype=np.float64)
        words: list[str] = []
        linenos: list[int] = []
        bodies: list[str] = []
        lineno = 1
        for lineno, raw in enumerate(f, 2):
            line = raw.rstrip("\n")
            if not line:
                continue
            components = line.count(" ")
            if components != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, got {components}")
            if len(words) == count:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: more rows than the declared count {count}")
            word, _, body = line.partition(" ")
            words.append(word)
            linenos.append(lineno)
            bodies.append(body)
            if len(bodies) == _PARSE_ROWS:
                done = len(words) - _PARSE_ROWS
                _parse_vectors(path, linenos, bodies, vectors[done:len(words)])
                linenos, bodies = [], []
        if len(words) != count:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: declared {count} rows but found {len(words)}")
    if bodies:
        _parse_vectors(path, linenos, bodies, vectors[count - len(bodies):])
    return words, vectors


# Lines per np.loadtxt call. Short runs keep the parse's buffers small: one
# call over a whole 4,823 x 200 file left the peak RSS of the training run
# that followed ~50 MB higher than the per-line parse did.
_PARSE_ROWS = 64


def _parse_vectors(path: str, linenos: list[int], bodies: list[str],
                   out: np.ndarray) -> None:
    """Parse the finite components of a run of vector lines into ``out``
    (len(bodies) x dim). Where ``np.loadtxt`` refuses a component, reads
    the rows differently or reads a NaN or an infinity, Python's ``float``
    parses them instead and names the first line it cannot parse, or whose
    values are not all finite."""
    if all(bodies):  # np.loadtxt skips an empty body, and warns if all are
        try:
            block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ", comments=None,
                               quotechar=None, ndmin=2)
            if block.shape == out.shape and np.isfinite(block).all():
                out[...] = block
                return
        except ValueError:
            pass
    for row, (lineno, body) in enumerate(zip(linenos, bodies)):
        try:
            out[row] = [float(v) for v in body.split(" ")]
        except ValueError:
            raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None
        if not np.isfinite(out[row]).all():
            raise EmbeddingFormatError(f"{path}:{lineno}: non-finite component")


def align_to_vocab(words: list[str], vectors: np.ndarray, vocab: Vocabulary,
                   seed: int = 0) -> np.ndarray:
    """The fixed (|vocab|×dim) table over the vocabulary: file rows verbatim,
    unseen rows seeded N(0, 1/sqrt(dim)), PAD all zeros."""
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
    dim = int(vectors.shape[1])
    by_word = {w: i for i, w in enumerate(words)}
    rows = np.array([by_word.get(w, -1) for w in vocab.words], dtype=np.intp)
    rows[Vocabulary.PAD] = -2  # neither copied nor drawn: stays zero
    found = np.flatnonzero(rows >= 0)
    missing = np.flatnonzero(rows == -1)
    matrix = np.zeros((vocab.size, dim), dtype=np.float64)
    matrix[found] = vectors[rows[found]]
    # one draw of every missing row, in word-id order: the same numbers as
    # one draw per row
    matrix[missing] = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(dim),
                                                          size=(missing.size, dim))
    if not np.isfinite(matrix).all():
        raise EmbeddingFormatError("embedding matrix contains non-finite values")
    return matrix
