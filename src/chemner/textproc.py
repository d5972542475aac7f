"""Sentence detection and tokenization.

Two tokenizers are provided: a general one that splits at every
letter/digit/punctuation boundary, and a chemical one that keeps
systematic chemical names (digit-bearing or suffix-matching chunks with
hyphens, commas and balanced parentheses) together as single tokens.

All offsets are byte offsets into the UTF-8 encoding of the source text;
multi-byte characters are never split. Every text and JSON input file is
opened here, under one UTF-8 rule.
"""

import contextlib
import json
import re
from dataclasses import dataclass
from typing import Iterable

from .schema import from_json

# Periods ending these never terminate a sentence. Multi-word entries
# ("et al") and dotted entries ("e.g") are matched as suffixes of the text
# preceding the period.
SENTENCE_ABBREVIATIONS: tuple[str, ...] = (
    "mp", "bp", "e.g", "i.e", "Fig", "No", "approx", "et al", "etc",
)

DEFAULT_NO_SPLIT_CHARS = "-,.()[]"
DEFAULT_CHEMICAL_SUFFIXES: tuple[str, ...] = (
    "yl", "ol", "ane", "ene", "ide", "ate", "ium",
)


@dataclass(frozen=True)
class Token:
    text: str
    start: int  # byte offset into the sentence, inclusive
    end: int    # byte offset, exclusive


@dataclass(frozen=True)
class Sentence:
    text: str
    source_span: tuple[int, int] = (0, 0)  # byte offsets into the parent document


@contextlib.contextmanager
def utf8_text(path: str, error: type[ValueError]):
    """``path`` opened as UTF-8 text after an optional BOM; a byte that is
    not UTF-8 ends the block in ``error`` naming the path and line."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            yield f
    except UnicodeDecodeError as e:
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, 1):
                if raw.decode("utf-8", "ignore").encode("utf-8") != raw:
                    raise error(f"{path}:{lineno}: not UTF-8 text "
                                f"(byte 0x{e.object[e.start]:02x}: {e.reason})") from None
        raise


def load_json(path: str, error: type[ValueError]):
    """The JSON value of the text :func:`utf8_text` opens; a syntax error
    is ``error`` naming the path and line."""
    with utf8_text(path, error) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise error(f"{path}:{e.lineno}: not JSON ({e.msg})") from None


@dataclass(frozen=True)
class RuleConfig:
    """No-split contexts for the chemical tokenizer."""

    no_split_chars: str = DEFAULT_NO_SPLIT_CHARS
    suffixes: tuple[str, ...] = DEFAULT_CHEMICAL_SUFFIXES

    @classmethod
    def from_file(cls, path: str) -> "RuleConfig":
        return from_json(cls, "rule config", load_json(path, ValueError))


@dataclass(frozen=True)
class TokenizerKind:
    """Active tokenizer for one pipeline run: "general" or "chemical"."""

    name: str
    rules: RuleConfig | None = None

    def __post_init__(self):
        if self.name not in ("general", "chemical"):
            raise ValueError(f"unknown tokenizer kind {self.name!r}")
        if self.name == "chemical" and self.rules is None:
            object.__setattr__(self, "rules", RuleConfig())

    def tokenize(self, sentence: Sentence) -> list[Token]:
        if self.name == "general":
            return tokenize_general(sentence)
        return tokenize_chemical(sentence, self.rules)


def _pieces(text: str, spans: Iterable[tuple[int, int]]) -> list[tuple[str, int, int]]:
    """(text, byte start, byte end) of each ordered, disjoint character span
    of ``text``: each span end adds the UTF-8 length of the text since the
    previous one."""
    out = []
    char = byte = 0
    for a, b in spans:
        piece = text[a:b]
        start = byte + len(text[char:a].encode("utf-8"))
        byte, char = start + len(piece.encode("utf-8")), b
        out.append((piece, start, byte))
    return out


# ---------------------------------------------------------------------------
# sentence detection
# ---------------------------------------------------------------------------

def split_sentences(document_text: str) -> list[Sentence]:
    """Split after ./!/? followed by whitespace and an uppercase or digit.

    A period that terminates a known abbreviation, or any terminator inside
    an open (...) or [...] group, does not split. Only brackets and
    terminators before whitespace are visited (``re``'s ``\\s`` is
    ``str.isspace``).
    """
    text = document_text
    end = len(text.rstrip())
    if not end:
        return []
    starts, ends = [re.match(r"\s*", text).end()], []
    depth = 0
    for m in re.finditer(r"[(\[\])]|[.!?](?=\s+(\S?))", text):
        ch, head = m.group(), m.group(1)
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif depth == 0 and (head.isupper() or head.isdigit()) and not (
                ch == "." and _ends_with_abbreviation(text, m.start())):
            ends.append(m.end())
            starts.append(m.start(1))
    ends.append(end)
    return [Sentence(piece, (a, b)) for piece, a, b in _pieces(text, zip(starts, ends))]


def _ends_with_abbreviation(text: str, period_pos: int) -> bool:
    for abbr in SENTENCE_ABBREVIATIONS:
        if text.endswith(abbr, 0, period_pos):
            before = period_pos - len(abbr) - 1
            if before < 0 or not text[before].isalnum():
                return True
    return False


# ---------------------------------------------------------------------------
# tokenizers
# ---------------------------------------------------------------------------

def _general_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of general tokens: letter runs, digit runs, single punct."""
    spans: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch.isalpha():
            while j < n and text[j].isalpha():
                j += 1
        elif ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
        spans.append((i, j))
        i = j
    return spans


def tokenize_general(sentence: Sentence) -> list[Token]:
    """Maximal letter runs, maximal digit runs, single punctuation chars."""
    text = sentence.text
    return [Token(*piece) for piece in _pieces(text, _general_spans(text))]


def tokenize_chemical(sentence: Sentence, rules: RuleConfig | None = None) -> list[Token]:
    """General tokenization, then merge across attached punctuation.

    Inside a whitespace-delimited chunk that contains a digit or whose
    alphanumeric core ends with a chemical suffix: parentheses/brackets
    attach when balanced within the chunk, and a hyphen/comma/period
    attaches when both neighbouring characters are alphanumeric or attached
    brackets. Every chemical token is therefore a concatenation of
    consecutive general tokens of the same sentence.
    """
    if rules is None:
        rules = RuleConfig()
    text = sentence.text
    spans = [(m.start() + a, m.start() + b) for m in re.finditer(r"\S+", text)
             for a, b in _chunk_spans(m.group(), rules)]
    return [Token(*piece) for piece in _pieces(text, spans)]


def _chunk_is_chemical(chunk: str, rules: RuleConfig) -> bool:
    if any(c.isdigit() for c in chunk):
        return True
    end = len(chunk)
    while end and not chunk[end - 1].isalnum():
        end -= 1
    return chunk[:end].lower().endswith(tuple(rules.suffixes))


def _brackets_balanced(chunk: str) -> bool:
    stack: list[str] = []
    pairs = {")": "(", "]": "["}
    for ch in chunk:
        if ch in "([":
            stack.append(ch)
        elif ch in ")]":
            if not stack or stack.pop() != pairs[ch]:
                return False
    return not stack


def _chunk_spans(chunk: str, rules: RuleConfig) -> list[tuple[int, int]]:
    base = _general_spans(chunk)
    if not _chunk_is_chemical(chunk, rules):
        return base

    brackets = set("()[]") & set(rules.no_split_chars)
    glue = set(rules.no_split_chars) - brackets
    balanced = _brackets_balanced(chunk)

    def attachable(pos: int) -> bool:
        ch = chunk[pos]
        return ch.isalnum() or (balanced and ch in brackets)

    def attached_punct(pos: int) -> bool:
        ch = chunk[pos]
        if ch in brackets:
            return balanced
        if ch in glue:
            return (0 < pos < len(chunk) - 1
                    and attachable(pos - 1) and attachable(pos + 1))
        return False

    merged: list[tuple[int, int]] = []
    for a, b in base:
        is_punct = not chunk[a].isalnum()
        joins = bool(merged) and merged[-1][1] == a and (
            attached_punct(a) if is_punct else attached_punct(a - 1) if a > 0 else False
        )
        if joins:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged
