"""Pre-trained word embedding loading and vocabulary alignment."""

from __future__ import annotations

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
    """Parse `<count> <dim>` header then exactly ``count`` `word v1 ... v_dim` lines."""
    words: list[str] = []
    rows: list[np.ndarray] = []
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
        seen = 0
        for lineno, raw in enumerate(f, 2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, got {len(fields) - 1}")
            seen += 1
            if seen > count:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: more rows than the declared count {count}")
            try:
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: non-numeric component") from None
            words.append(fields[0])
            rows.append(vec)
        if seen != count:
            raise EmbeddingFormatError(
                f"{path}: declared {count} rows but found {seen}")
    vectors = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float64)
    return words, vectors


def align_to_vocab(words: list[str], vectors: np.ndarray, vocab: Vocabulary,
                   seed: int = 0, source_name: str = "pretrained") -> EmbeddingTable:
    """Fixed table over the vocabulary: file rows verbatim, unseen rows seeded
    N(0, 1/sqrt(dim)), PAD all zeros."""
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
    dim = int(vectors.shape[1])
    by_word = {w: i for i, w in enumerate(words)}
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(dim)
    matrix = np.zeros((vocab.size, dim), dtype=np.float64)
    for word, wid in sorted(vocab.word_to_id.items(), key=lambda kv: kv[1]):
        if wid == Vocabulary.PAD:
            continue
        row = by_word.get(word)
        if row is not None:
            matrix[wid] = vectors[row]
        else:
            matrix[wid] = rng.normal(0.0, std, size=dim)
    if not np.isfinite(matrix).all():
        raise EmbeddingFormatError("embedding matrix contains non-finite values")
    return EmbeddingTable(matrix=matrix, dim=dim, trainable=False, source_name=source_name)
