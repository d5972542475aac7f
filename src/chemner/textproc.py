"""Sentence detection and tokenization.

Two tokenizers are provided: a general one that splits at every
letter/digit/punctuation boundary, and a chemical one that keeps
systematic chemical names (digit-bearing or suffix-matching chunks with
hyphens, commas and balanced parentheses) together as single tokens.

All offsets are byte offsets into the UTF-8 encoding of the source text;
multi-byte characters are never split.
"""

import json
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RuleConfig:
    """No-split contexts for the chemical tokenizer."""

    no_split_chars: str = DEFAULT_NO_SPLIT_CHARS
    suffixes: tuple[str, ...] = DEFAULT_CHEMICAL_SUFFIXES

    @classmethod
    def from_file(cls, path: str) -> "RuleConfig":
        with open(path, encoding="utf-8-sig") as f:
            return from_json(cls, "rule config", json.load(f))


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


def _byte_offsets(text: str) -> list[int]:
    """offsets[i] = byte offset of character i; offsets[len] = total bytes.

    A character starts at every UTF-8 byte that is not a continuation byte
    (10xxxxxx)."""
    b = text.encode("utf-8")
    return [i for i, x in enumerate(b) if x & 0xC0 != 0x80] + [len(b)]


# ---------------------------------------------------------------------------
# sentence detection
# ---------------------------------------------------------------------------

def split_sentences(document_text: str) -> list[Sentence]:
    """Split after ./!/? followed by whitespace and an uppercase or digit.

    A period that terminates a known abbreviation, or any terminator inside
    an open (...) or [...] group, does not split.
    """
    if not document_text.strip():
        return []
    offsets = _byte_offsets(document_text)
    n = len(document_text)
    sentences: list[Sentence] = []
    start = 0

    def flush(end_char: int) -> None:
        seg = document_text[start:end_char]
        lead = len(seg) - len(seg.lstrip())
        trail = len(seg) - len(seg.rstrip())
        s, e = start + lead, end_char - trail
        if s < e:
            sentences.append(Sentence(text=document_text[s:e],
                                      source_span=(offsets[s], offsets[e])))

    depth = 0
    i = 0
    while i < n:
        ch = document_text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif ch in ".!?" and depth == 0:
            j = i + 1
            if j < n and document_text[j].isspace():
                while j < n and document_text[j].isspace():
                    j += 1
                nxt = document_text[j] if j < n else ""
                if nxt and (nxt.isupper() or nxt.isdigit()):
                    if not (ch == "." and _ends_with_abbreviation(document_text, i)):
                        flush(i + 1)
                        start = i + 1
                        i = j
                        continue
        i += 1
    flush(n)
    return sentences


def _ends_with_abbreviation(text: str, period_pos: int) -> bool:
    head = text[:period_pos]
    for abbr in SENTENCE_ABBREVIATIONS:
        if head.endswith(abbr):
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


def _spans_to_tokens(text: str, spans: list[tuple[int, int]],
                     offsets: list[int]) -> list[Token]:
    return [Token(text=text[a:b], start=offsets[a], end=offsets[b]) for a, b in spans]


def tokenize_general(sentence: Sentence) -> list[Token]:
    """Maximal letter runs, maximal digit runs, single punctuation chars."""
    text = sentence.text
    return _spans_to_tokens(text, _general_spans(text), _byte_offsets(text))


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
    offsets = _byte_offsets(text)
    out: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        spans = _chunk_spans(text[i:j], rules)
        out.extend(Token(text=text[i + a:i + b],
                         start=offsets[i + a], end=offsets[i + b])
                   for a, b in spans)
        i = j
    return out


def _chunk_is_chemical(chunk: str, rules: RuleConfig) -> bool:
    if any(c.isdigit() for c in chunk):
        return True
    core = chunk
    while core and not core[-1].isalnum():
        core = core[:-1]
    low = core.lower()
    return any(low.endswith(suf) for suf in rules.suffixes)


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
