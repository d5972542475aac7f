"""Pre-trained word embedding loading and vocabulary alignment."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary
from .numerics import Parameter


class EmbeddingFormatError(ValueError):
    """Text embedding file violates the `<count> <dim>` header contract."""


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # (|vocab|, dim) float64
    dim: int
    trainable: bool
    source_name: str

    def as_parameter(self, name: str = "word_embedding") -> Parameter:
        """Parameter view; the PAD row is pinned (never updated)."""
        return Parameter(name, self.matrix, trainable=self.trainable,
                         frozen_rows=(Vocabulary.PAD,))


def load_embedding_text(path: str) -> tuple[list[str], np.ndarray]:
    """Parse `<count> <dim>` header then exactly ``count`` `word v1 ... v_dim` lines.

    A header that the file is too short to hold is refused before the
    (count x dim) table is allocated. Every line's shape is checked as it
    is read; the components are parsed by one ``np.loadtxt`` call per run
    of ``_PARSE_ROWS`` lines, straight into the table.
    """
    with open(path, encoding="utf-8-sig") as f:
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
        # a row is at least dim one-character components, each after a space
        size = os.fstat(f.fileno()).st_size
        if count * (2 * dim + 1) > size:
            raise EmbeddingFormatError(f"{path}:1: header declares {count} rows of {dim} "
                                       f"components, more than its {size} bytes can hold")
        vectors = np.empty((count, dim), dtype=np.float64)
        words: list[str] = []
        linenos: list[int] = []
        bodies: list[str] = []
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
                f"{path}: declared {count} rows but found {len(words)}")
    if bodies:
        _parse_vectors(path, linenos, bodies, vectors[count - len(bodies):])
    return words, vectors


# Lines per np.loadtxt call. Short runs keep the parse's buffers small: one
# call over a whole 4,823 x 200 file left the peak RSS of the training run
# that followed ~50 MB higher than the per-line parse did.
_PARSE_ROWS = 64


def _parse_vectors(path: str, linenos: list[int], bodies: list[str],
                   out: np.ndarray) -> None:
    """Parse the components of a run of vector lines into ``out``
    (len(bodies) x dim). Where ``np.loadtxt`` refuses a component or reads
    the rows differently, Python's ``float`` parses them instead and names
    the first line it cannot parse either."""
    try:
        block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ", comments=None,
                           quotechar=None, ndmin=2)
        if block.shape == out.shape:
            out[...] = block
            return
    except ValueError:
        pass
    for row, (lineno, body) in enumerate(zip(linenos, bodies)):
        try:
            out[row] = [float(v) for v in body.split(" ")]
        except ValueError:
            raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None


def align_to_vocab(words: list[str], vectors: np.ndarray, vocab: Vocabulary,
                   seed: int = 0, source_name: str = "pretrained") -> EmbeddingTable:
    """Fixed table over the vocabulary: file rows verbatim, unseen rows seeded
    N(0, 1/sqrt(dim)), PAD all zeros."""
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
    return EmbeddingTable(matrix=matrix, dim=dim, trainable=False, source_name=source_name)
