"""Corpus ingestion, BIO handling, dataset splitting and vocabulary building."""

from __future__ import annotations

import contextlib
import math
import os
import random
import uuid
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .textproc import utf8_text

LONG_TOKEN_TEXT = "Long_Token"
PAD_TEXT = "<pad>"
UNK_TEXT = "<unk>"
DOCSTART = "-DOCSTART-"


class CorpusFormatError(ValueError):
    """Malformed corpus file (wrong column count, bad header, ...)."""


class UnknownLabelError(ValueError):
    """A tag in the file is not part of the label scheme."""


@dataclass(frozen=True)
class LabelScheme:
    """Entity labels plus the derived BIO tag set (O first, then B/I pairs)."""

    entity_labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.entity_labels)) != len(self.entity_labels):
            raise ValueError("duplicate entity labels")
        if any(not lab for lab in self.entity_labels):
            raise ValueError("empty entity label")

    @cached_property
    def _tag_ids(self) -> dict[str, int]:
        """Each tag name's id: O, then the B and I tags of each label."""
        return {tag: i for i, tag in enumerate(
            ["O", *(f"{bio}-{lab}" for lab in self.entity_labels for bio in "BI")])}

    @cached_property
    def tags(self) -> list[str]:
        return list(self._tag_ids)

    @property
    def num_tags(self) -> int:
        return 2 * len(self.entity_labels) + 1

    def tag_id(self, tag: str) -> int:
        try:
            return self._tag_ids[tag]
        except KeyError:
            raise UnknownLabelError(f"unknown tag {tag!r}") from None

    def tag_name(self, tag_id: int) -> str:
        return self.tags[tag_id]

    def label(self, tag_id: int) -> str | None:
        """The entity label of a B or I tag; None for O."""
        return self.entity_labels[(tag_id - 1) // 2] if tag_id else None

    def split_tag(self, tag_id: int) -> tuple[str, str | None]:
        """('O', None) or ('B'|'I', label)."""
        if tag_id == 0:
            return "O", None
        return ("B" if tag_id % 2 == 1 else "I"), self.label(tag_id)

    def may_follow(self, prev: int | None, tag: int) -> bool:
        """The BIO rule: whether ``tag`` may follow ``prev`` (None at the
        start of a sentence). O and B-x may follow anything, I-x only B-x or
        I-x. The corpus repair, the span decoder and the CRF masks all ask
        this one predicate."""
        return tag == 0 or tag % 2 == 1 or prev in (tag - 1, tag)


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[str, ...]  # the token texts
    tags: tuple[int, ...]
    document_id: str
    repairs: int = 0  # BIO violations fixed while reading

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError(f"{len(self.tokens)} tokens vs {len(self.tags)} tags")

    @property
    def texts(self) -> list[str]:
        return list(self.tokens)


def sentence_from_texts(texts: Sequence[str], tags: Sequence[int], document_id: str,
                        repairs: int = 0) -> TaggedSentence:
    """A TaggedSentence of these token texts and tag ids."""
    return TaggedSentence(tokens=tuple(texts), tags=tuple(tags),
                          document_id=document_id, repairs=repairs)


@dataclass(frozen=True)
class Vocabulary:
    """Word and character maps with PAD=0, UNK=1, LONG_TOKEN=2 specials.

    Non-special words come from the pre-trained embedding file or occur
    more than ``min_count - 1`` times in train+dev. Lookups are
    case-sensitive with a case-insensitive fallback into the pre-trained
    vocabulary before UNK.
    """

    word_to_id: dict[str, int]
    char_to_id: dict[str, int]
    pretrained: frozenset[str]
    min_count: int = 4

    PAD = 0
    UNK = 1
    LONG_TOKEN = 2
    CHAR_PAD = 0
    CHAR_UNK = 1

    @property
    def size(self) -> int:
        return len(self.word_to_id)

    @property
    def char_size(self) -> int:
        return len(self.char_to_id)

    @property
    def words(self) -> list[str]:
        out = [""] * len(self.word_to_id)
        for w, i in self.word_to_id.items():
            out[i] = w
        return out

    @property
    def chars(self) -> list[str]:
        out = [""] * len(self.char_to_id)
        for c, i in self.char_to_id.items():
            out[i] = c
        return out

    def word_id(self, text: str) -> int:
        wid = self.word_to_id.get(text)
        if wid is not None:
            return wid
        low = text.lower()
        if low != text and low in self.pretrained:
            wid = self.word_to_id.get(low)
            if wid is not None:
                return wid
        return self.UNK

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, self.CHAR_UNK)


def build_vocabulary(train: Sequence[TaggedSentence], dev: Sequence[TaggedSentence],
                     pretrained_words: Iterable[str] = (), min_count: int = 4) -> Vocabulary:
    """Specials + pre-trained words + words seen ≥ ``min_count`` times in train+dev."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter(text for sent in [*train, *dev] for text in sent.tokens)
    chars = set(LONG_TOKEN_TEXT).union(*counts)
    pretrained = frozenset(pretrained_words)
    frequent = {w for w, c in counts.items() if c >= min_count}
    special_texts = {PAD_TEXT, UNK_TEXT, LONG_TOKEN_TEXT}
    words = sorted((pretrained | frequent) - special_texts)

    word_to_id = {PAD_TEXT: Vocabulary.PAD, UNK_TEXT: Vocabulary.UNK,
                  LONG_TOKEN_TEXT: Vocabulary.LONG_TOKEN}
    for w in words:
        word_to_id[w] = len(word_to_id)
    char_to_id = {PAD_TEXT: Vocabulary.CHAR_PAD, UNK_TEXT: Vocabulary.CHAR_UNK}
    for c in sorted(chars):
        char_to_id[c] = len(char_to_id)
    return Vocabulary(word_to_id=word_to_id, char_to_id=char_to_id,
                      pretrained=pretrained, min_count=min_count)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[TaggedSentence, ...]
    dev: tuple[TaggedSentence, ...]
    test: tuple[TaggedSentence, ...]
    seed: int

    def document_counts(self) -> tuple[int, int, int]:
        return tuple(len({s.document_id for s in part})
                     for part in (self.train, self.dev, self.test))


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    sentences: int
    tokens: int
    entities: dict[str, int]
    repairs: int = 0


# ---------------------------------------------------------------------------
# reading and writing
# ---------------------------------------------------------------------------

def _split_columns(line: str) -> list[str]:
    cols = line.split("\t")
    if len(cols) == 1:
        cols = line.split()
    return cols


def read_column_corpus(path: str, scheme: LabelScheme | None) -> list[TaggedSentence]:
    """Two-column token/tag file; blank line ends a sentence, -DOCSTART- a document.

    Dangling I tags are repaired to B and the count recorded on each
    sentence's ``repairs`` field. With ``scheme`` None only the token column
    is read: the tag column may be absent, is ignored if present, and every
    tag is 0.
    """
    sentences: list[TaggedSentence] = []
    texts: list[str] = []
    tags: list[int] = []
    doc_index = 0
    doc_id = "doc0000"
    saw_docstart = False

    def flush():
        nonlocal texts, tags
        if texts:
            tag_ids, repairs = [0] * len(texts), 0
            if scheme is not None:
                tag_ids, repairs = _repair_bio(tags, scheme)
            sentences.append(sentence_from_texts(texts, tag_ids, doc_id, repairs))
            texts, tags = [], []

    with utf8_text(path, CorpusFormatError) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
                continue
            cols = _split_columns(line)
            if cols[0] == DOCSTART:
                flush()
                if saw_docstart or sentences:
                    doc_index += 1
                saw_docstart = True
                doc_id = cols[1] if len(cols) > 1 else f"doc{doc_index:04d}"
                continue
            if scheme is None:
                if len(cols) > 2:
                    raise CorpusFormatError(f"{path}:{lineno}: expected 1 or 2 columns "
                                            f"(token, optional tag), got {len(cols)}")
                texts.append(cols[0])
                continue
            if len(cols) != 2:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 2 columns (token, tag), got {len(cols)}")
            try:
                tags.append(scheme.tag_id(cols[1]))
            except UnknownLabelError:
                raise UnknownLabelError(f"{path}:{lineno}: unknown tag {cols[1]!r}") from None
            texts.append(cols[0])
    flush()
    return sentences


def _repair_bio(tag_ids: list[int], scheme: LabelScheme) -> tuple[list[int], int]:
    """Turn each tag that may not follow the repaired tag before it (a
    dangling I-x) into B-x, and count the changes."""
    repaired: list[int] = []
    repairs = 0
    for tid in tag_ids:
        if not scheme.may_follow(repaired[-1] if repaired else None, tid):
            tid -= 1  # only an I tag is refused, and I-x is B-x's id + 1
            repairs += 1
        repaired.append(tid)
    return repaired, repairs


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "", **kwargs):
    """A new file beside ``path`` for writing (``mode`` "b" or "" for text),
    renamed over ``path`` when the block ends; a failure anywhere removes
    it, so the previous content of ``path`` stays intact."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x" + mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_column_corpus(path: str, sentences: Sequence[TaggedSentence],
                        scheme: LabelScheme) -> None:
    with atomic_open(path, encoding="utf-8") as f:
        current_doc = None
        for sent in sentences:
            if sent.document_id != current_doc:
                f.write(f"{DOCSTART}\t{sent.document_id}\n\n")
                current_doc = sent.document_id
            for text, tid in zip(sent.tokens, sent.tags):
                f.write(f"{text}\t{scheme.tag_name(tid)}\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# splitting, normalization, statistics
# ---------------------------------------------------------------------------

def split_dataset(sentences: Sequence[TaggedSentence],
                  ratios: tuple[float, float, float] = (0.6, 0.1, 0.3),
                  seed: int = 0) -> DatasetSplit:
    """Document-level 60/10/30 partition with a seeded shuffle.

    Counts are floors of the exact shares; leftover documents go first to
    any still-empty split and then cyclically, in train, test, dev order.
    """
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ValueError(f"ratios must be finite and non-negative, got {ratios}")
    doc_ids: list[str] = []
    seen = set()
    for s in sentences:
        if s.document_id not in seen:
            seen.add(s.document_id)
            doc_ids.append(s.document_id)
    n = len(doc_ids)
    if n < 3:
        raise ValueError(f"need at least 3 documents to split, got {n}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")

    rng = random.Random(seed)
    shuffled = list(doc_ids)
    rng.shuffle(shuffled)

    counts = [int(n * r + 1e-9) for r in ratios]  # train, dev, test floors
    remainder = n - sum(counts)
    priority = [0, 2, 1]  # train, test, dev
    for idx in priority:
        if remainder and counts[idx] == 0:
            counts[idx] += 1
            remainder -= 1
    while remainder:
        for idx in priority:
            if remainder:
                counts[idx] += 1
                remainder -= 1

    train_docs = set(shuffled[:counts[0]])
    dev_docs = set(shuffled[counts[0]:counts[0] + counts[1]])
    parts: dict[str, list[TaggedSentence]] = {"train": [], "dev": [], "test": []}
    for s in sentences:
        if s.document_id in train_docs:
            parts["train"].append(s)
        elif s.document_id in dev_docs:
            parts["dev"].append(s)
        else:
            parts["test"].append(s)
    return DatasetSplit(train=tuple(parts["train"]), dev=tuple(parts["dev"]),
                        test=tuple(parts["test"]), seed=seed)


def normalize_long_texts(texts: Iterable[str], max_len: int) -> list[str]:
    """Each text, or Long_Token in place of one longer than ``max_len``
    characters; idempotent because Long_Token maps to itself."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return [t if len(t) <= max_len else LONG_TOKEN_TEXT for t in texts]


def normalize_long_tokens(sentence: TaggedSentence, max_len: int = 25) -> TaggedSentence:
    """:func:`normalize_long_texts` of a sentence's tokens; the sentence
    itself when no token changes. Tags are untouched."""
    texts = tuple(normalize_long_texts(sentence.tokens, max_len))
    return sentence if texts == sentence.tokens else replace(sentence, tokens=texts)


def corpus_stats(sentences: Sequence[TaggedSentence],
                 scheme: LabelScheme | None = None) -> CorpusStats:
    docs = {s.document_id for s in sentences}
    entities: Counter[str] = Counter()
    repairs = 0
    tokens = 0
    for s in sentences:
        tokens += len(s.tokens)
        repairs += s.repairs
        if scheme is not None:
            for tid in s.tags:
                prefix, label = scheme.split_tag(tid)
                if prefix == "B":
                    entities[label] += 1
    return CorpusStats(documents=len(docs), sentences=len(sentences), tokens=tokens,
                       entities=dict(entities), repairs=repairs)
