"""Seeded synthetic patent data for the benchmark.

One seed gives byte-identical files. The generator writes:

- ``train.tsv``, ``dev.tsv``, ``test.tsv``: a two-column ``token<TAB>tag``
  corpus with labels ``G`` (generic names such as "sodium chloride") and
  ``M`` (systematic names such as "2-(4-methylphenyl)pyridine"), split
  60/10/30 by document;
- ``patent-<k>.txt``: held-out raw patent text in equal parts, one
  paragraph per document, whose chemical tokenization is the generated
  token list;
- ``train_lines.txt``: the training split as plain text, one sentence per
  line (the biLM training format);
- ``embeddings.txt`` (when a dimension is given): a text-format embedding
  file (``<count> <dim>`` header) covering the frequent part of the lexicon.

Stated properties, checked by :func:`check_properties`:

- sentence lengths in tokens follow a lognormal with a long tail; lengths
  are stratified quantiles of that distribution dealt evenly over
  documents, so every seed has nearly the same length profile and split
  sizes while the words differ;
- about 20% of tokens are systematic names, some longer than 25
  characters, so the ``Long_Token`` path runs;
- words follow a Zipf law over the lexicon, and the dev and test splits
  contain words that are neither in the training split nor in the
  embedding file;
- tags are valid BIO: every ``I-x`` follows ``B-x`` or ``I-x``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

LABELS = ("G", "M")
TAGS = ("O", "B-G", "I-G", "B-M", "I-M")
LONG_TOKEN_CHARS = 25

# lognormal token count per sentence: median exp(MU) ~ 28, long right tail
LENGTH_MU = 3.35
LENGTH_SIGMA = 0.5
MIN_LENGTH = 4
MAX_LENGTH = 125
PATENT_SENTENCES_PER_DOC = 5

ZIPF_EXPONENT = 1.1
LEXICON_SIZE = 6000
EMBEDDED_SHARE = 0.8          # top-ranked share of the lexicon in the embedding file

OPENERS = ("The", "Then", "After", "To", "This", "Thereafter", "Next", "In",
           "Subsequently", "A")
COMMON = ("the", "of", "and", "was", "to", "in", "with", "a", "for", "at",
          "solution", "mixture", "added", "stirred", "reaction", "compound",
          "temperature", "room", "hours", "filtered", "washed", "dried",
          "under", "vacuum", "give", "product", "as", "solid", "white",
          "organic", "layer", "extracted", "concentrated", "residue",
          "purified", "chromatography", "yield", "obtained", "heated",
          "cooled", "reflux", "overnight", "then", "by", "from", "into",
          "title", "example", "step", "prepared", "method", "described",
          "above", "using", "excess", "dropwise", "portion", "combined")
UNITS = ("mg", "g", "mL", "mmol", "min", "hours")
GENERIC_NAMES = (("water",), ("methanol",), ("ethanol",), ("sodium", "chloride"),
                 ("ethyl", "acetate"), ("sodium", "hydroxide"),
                 ("hydrochloric", "acid"), ("potassium", "carbonate"),
                 ("magnesium", "sulfate"), ("triethylamine",), ("dichloromethane",),
                 ("tetrahydrofuran",), ("acetonitrile",), ("sodium", "bicarbonate"),
                 ("palladium", "on", "carbon"), ("acetic", "acid"))
SUBSTITUENTS = ("methyl", "ethyl", "propyl", "butyl", "phenyl", "benzyl", "chloro",
                "bromo", "fluoro", "iodo", "hydroxy", "amino", "nitro", "methoxy",
                "ethoxy", "cyano", "oxo", "trifluoromethyl", "dimethyl", "diphenyl",
                "cyclopropyl", "tert-butyl", "dimethylthiazol")
PARENTS = ("benzene", "pyridine", "pyrimidine", "piperidine", "piperazine",
           "morpholine", "thiazole", "imidazole", "indole", "quinoline", "furan",
           "pyrrolidine", "benzoate", "propanoate", "acetamide", "benzamide",
           "carboxylate", "sulfonamide", "tetrazolium")
CHAIN_ENDINGS = (("propan", "ol"), ("butan", "one"), ("ethan", "amine"),
                 ("pentan", "ol"), ("hexan", "one"))
SALTS = ("hydrochloride", "hydrobromide", "trifluoroacetate")
# periods after these never end a sentence in the program's splitter
AVOID_WORDS = frozenset({"mp", "bp", "e", "i", "fig", "no", "approx", "et", "al",
                         "etc"})


@dataclass
class Sentence:
    tokens: list[str]
    tags: list[str]

    @property
    def text(self) -> str:
        """Surface form: ',' and the final '.' attach to the previous token."""
        out = self.tokens[0]
        for tok in self.tokens[1:]:
            out += tok if tok in (",", ".") else " " + tok
        return out


@dataclass
class Corpus:
    train: list[list[Sentence]] = field(default_factory=list)  # documents
    dev: list[list[Sentence]] = field(default_factory=list)
    test: list[list[Sentence]] = field(default_factory=list)
    patent: list[list[Sentence]] = field(default_factory=list)
    embedded: list[str] = field(default_factory=list)          # words in embeddings.txt

    @staticmethod
    def sentences(docs: list[list[Sentence]]) -> list[Sentence]:
        return [s for doc in docs for s in doc]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def stratified_lengths(rng: np.random.Generator, count: int) -> list[int]:
    """Lognormal token counts at stratified quantiles (i + u_i) / count."""
    normal = NormalDist()
    out = []
    for i in range(count):
        q = (i + rng.random()) / count
        q = min(max(q, 1e-6), 1.0 - 1e-6)
        length = math.exp(LENGTH_MU + LENGTH_SIGMA * normal.inv_cdf(q))
        out.append(int(min(MAX_LENGTH, max(MIN_LENGTH, round(length)))))
    return out


def deal_lengths(rng: np.random.Generator, lengths: list[int],
                 docs: int) -> list[list[int]]:
    """Deal lengths longest first in snake order so every document gets a
    similar total, then shuffle each document's order."""
    ordered = sorted(lengths, reverse=True)
    out: list[list[int]] = [[] for _ in range(docs)]
    for i, length in enumerate(ordered):
        lap, pos = divmod(i, docs)
        out[pos if lap % 2 == 0 else docs - 1 - pos].append(length)
    for doc in out:
        rng.shuffle(doc)
    return out


def make_lexicon(rng: np.random.Generator, size: int = LEXICON_SIZE) -> list[str]:
    """Common patent words first, then pronounceable pseudo-words."""
    consonants = "bcdfghklmnprstvz"
    vowels = "aeiou"
    generic = {w for name in GENERIC_NAMES for w in name}
    words = list(COMMON)
    seen = set(words) | generic | AVOID_WORDS | set(UNITS)
    while len(words) < size:
        syllables = int(rng.integers(2, 5))
        word = "".join(consonants[int(rng.integers(len(consonants)))]
                       + vowels[int(rng.integers(len(vowels)))]
                       for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _locant(rng: np.random.Generator) -> str:
    first = int(rng.integers(1, 7))
    if rng.random() < 0.3:
        return f"{first},{first + int(rng.integers(1, 3))}"
    return str(first)


def systematic_name(rng: np.random.Generator) -> str:
    """A name the chemical tokenizer keeps whole: it holds a digit, its
    brackets balance and every '-' or ',' sits between letters, digits or
    brackets."""
    groups = []
    for _ in range(1 + int(rng.random() < 0.2) + int(rng.random() < 0.05)):
        sub = SUBSTITUENTS[int(rng.integers(len(SUBSTITUENTS)))]
        if rng.random() < 0.15:
            inner = SUBSTITUENTS[int(rng.integers(len(SUBSTITUENTS)))]
            groups.append(f"{_locant(rng)}-({_locant(rng)}-{inner}{sub})")
        else:
            groups.append(f"{_locant(rng)}-{sub}")
    if rng.random() < 0.25:
        chain, ending = CHAIN_ENDINGS[int(rng.integers(len(CHAIN_ENDINGS)))]
        return "-".join(groups) + f"{chain}-{_locant(rng)}-{ending}"
    return "-".join(groups) + PARENTS[int(rng.integers(len(PARENTS)))]


class _ZipfSampler:
    def __init__(self, lexicon: list[str]):
        ranks = np.arange(1, len(lexicon) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        self.lexicon = lexicon

    def __call__(self, rng: np.random.Generator) -> str:
        i = int(np.searchsorted(self.cdf, rng.random(), side="right"))
        return self.lexicon[min(i, len(self.lexicon) - 1)]


def make_sentence(rng: np.random.Generator, length: int, zipf: _ZipfSampler) -> Sentence:
    """``length`` tokens: an opener, a mix of words, numbers and entities,
    and a final period."""
    tokens = [OPENERS[int(rng.integers(len(OPENERS)))]]
    tags = ["O"]
    while len(tokens) < length - 1:
        room = length - 1 - len(tokens)
        r = rng.random()
        if r < 0.24:
            tokens.append(systematic_name(rng))
            tags.append("B-M")
            if room >= 2 and rng.random() < 0.1:
                tokens.append(SALTS[int(rng.integers(len(SALTS)))])
                tags.append("I-M")
            continue
        if r < 0.31:
            name = GENERIC_NAMES[int(rng.integers(len(GENERIC_NAMES)))]
            if len(name) <= room:
                tokens.extend(name)
                tags.extend(["B-G"] + ["I-G"] * (len(name) - 1))
                continue
        if r < 0.36:
            tokens.append(f"{int(rng.integers(1, 200))}" if rng.random() < 0.6
                          else f"{int(rng.integers(0, 10))}.{int(rng.integers(1, 10))}")
            tags.append("O")
            if room >= 2:
                tokens.append(UNITS[int(rng.integers(len(UNITS)))])
                tags.append("O")
            continue
        if r < 0.40 and tokens[-1] != "," and len(tokens) > 1 and room >= 2:
            tokens.append(",")
            tags.append("O")
            continue
        tokens.append(zipf(rng))
        tags.append("O")
    tokens.append(".")
    tags.append("O")
    return Sentence(tokens, tags)


def make_documents(rng: np.random.Generator, docs: int, per_doc: int,
                   zipf: _ZipfSampler) -> list[list[Sentence]]:
    lengths = deal_lengths(rng, stratified_lengths(rng, docs * per_doc), docs)
    return [[make_sentence(rng, n, zipf) for n in doc_lengths]
            for doc_lengths in lengths]


def split_documents(rng: np.random.Generator, docs: list[list[Sentence]]
                    ) -> tuple[list, list, list]:
    """60/10/30 by document after a seeded shuffle; every split non-empty."""
    order = list(rng.permutation(len(docs)))
    n_train = max(1, int(len(docs) * 0.6 + 1e-9))
    n_dev = max(1, int(len(docs) * 0.1 + 1e-9))
    picked = [docs[i] for i in order]
    return (picked[:n_train], picked[n_train:n_train + n_dev],
            picked[n_train + n_dev:])


def generate(seed: int, corpus_docs: int, patent_docs: int,
             corpus_sentences_per_doc: int = 5) -> Corpus:
    lexicon = make_lexicon(_rng(seed, 0))
    zipf = _ZipfSampler(lexicon)
    docs = make_documents(_rng(seed, 1), corpus_docs, corpus_sentences_per_doc, zipf)
    train, dev, test = split_documents(_rng(seed, 2), docs)
    patent = make_documents(_rng(seed, 3), patent_docs, PATENT_SENTENCES_PER_DOC, zipf)
    generic = sorted({w for name in GENERIC_NAMES for w in name})
    embedded = lexicon[:int(len(lexicon) * EMBEDDED_SHARE)] + generic
    return Corpus(train=train, dev=dev, test=test, patent=patent, embedded=embedded)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_column(path: str, docs: list[list[Sentence]], prefix: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for d, doc in enumerate(docs):
            f.write(f"-DOCSTART-\t{prefix}{d:04d}\n\n")
            for sent in doc:
                for tok, tag in zip(sent.tokens, sent.tags):
                    f.write(f"{tok}\t{tag}\n")
                f.write("\n")


def write_raw(path: str, docs: list[list[Sentence]]) -> None:
    """One paragraph per document, blank line between documents."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n\n".join(" ".join(s.text for s in doc) for doc in docs))
        f.write("\n")


def write_lines(path: str, sentences: list[Sentence]) -> None:
    """Plain text, one sentence per line (the biLM training format)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in sentences:
            f.write(s.text + "\n")


def write_embeddings(path: str, words: list[str], dim: int, seed: int) -> None:
    vectors = _rng(seed, 4).normal(0.0, 0.3, size=(len(words), dim))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(words)} {dim}\n")
        for word, row in zip(words, vectors):
            f.write(word + " " + " ".join(f"{v:.5f}" for v in row) + "\n")


def patent_parts(corpus: Corpus, parts: int) -> list[list[list[Sentence]]]:
    """The held-out documents cut into ``parts`` consecutive groups."""
    size = len(corpus.patent) // parts
    return [corpus.patent[k * size:(k + 1) * size] for k in range(parts)]


def write_files(corpus: Corpus, out_dir: str, seed: int, embedding_dim: int | None,
                parts: int = 1) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("train.tsv", "dev.tsv", "test.tsv", "train_lines.txt")}
    write_column(paths["train.tsv"], corpus.train, "train")
    write_column(paths["dev.tsv"], corpus.dev, "dev")
    write_column(paths["test.tsv"], corpus.test, "test")
    write_lines(paths["train_lines.txt"], Corpus.sentences(corpus.train))
    for k, docs in enumerate(patent_parts(corpus, parts)):
        paths[f"patent-{k}.txt"] = os.path.join(out_dir, f"patent-{k}.txt")
        write_raw(paths[f"patent-{k}.txt"], docs)
    if embedding_dim:
        paths["embeddings.txt"] = os.path.join(out_dir, "embeddings.txt")
        write_embeddings(paths["embeddings.txt"], corpus.embedded, embedding_dim, seed)
    return paths


# ---------------------------------------------------------------------------
# stated properties
# ---------------------------------------------------------------------------

def _bio_valid(tags: list[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            return False
        prev = tag
    return True


def check_properties(corpus: Corpus) -> tuple[dict, list[str]]:
    """Statistics of the generated data and the stated properties it breaks."""
    every = (Corpus.sentences(corpus.train) + Corpus.sentences(corpus.dev)
             + Corpus.sentences(corpus.test) + Corpus.sentences(corpus.patent))
    lengths = np.asarray([len(s.tokens) for s in every], dtype=np.float64)
    tokens = [(tok, tag) for s in every for tok, tag in zip(s.tokens, s.tags)]
    names = [tok for tok, tag in tokens if tag == "B-M"]
    known = set(corpus.embedded) | {t for s in Corpus.sentences(corpus.train)
                                    for t in s.tokens}

    def oov_share(docs):
        toks = [t for s in Corpus.sentences(docs) for t in s.tokens if t not in (",", ".")]
        return sum(t not in known for t in toks) / max(1, len(toks))

    words = [tok for tok, tag in tokens if tag == "O" and tok.isalpha()]
    counts = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    top = sorted(counts.values(), reverse=True)
    n_docs = [len(corpus.train), len(corpus.dev), len(corpus.test)]
    stats = {
        "sentences": len(every),
        "tokens": len(tokens),
        "length_mean": float(lengths.mean()),
        "length_median": float(np.median(lengths)),
        "length_max": int(lengths.max()),
        "length_skew": float(((lengths - lengths.mean()) ** 3).mean() / lengths.std() ** 3),
        "systematic_share": len(names) / len(tokens),
        "systematic_long": sum(len(n) > LONG_TOKEN_CHARS for n in names),
        "oov_share_dev": oov_share(corpus.dev),
        "oov_share_test": oov_share(corpus.test),
        "top_word_share": top[0] / len(words),
        "docs_train_dev_test": n_docs,
    }
    problems = []
    if not (stats["length_skew"] > 0.5 and stats["length_max"] > 2 * stats["length_median"]):
        problems.append("sentence lengths lack a long right tail")
    if not 0.12 <= stats["systematic_share"] <= 0.28:
        problems.append(f"systematic share {stats['systematic_share']:.3f} not about 20%")
    if stats["systematic_long"] == 0:
        problems.append("no systematic name longer than 25 characters")
    if stats["oov_share_dev"] <= 0 or stats["oov_share_test"] <= 0:
        problems.append("dev or test has no out-of-vocabulary words")
    # Zipf: the most frequent word is far above the uniform share
    if stats["top_word_share"] < 20.0 / len(counts):
        problems.append("word frequencies are not Zipf-like")
    total = sum(n_docs)
    if [round(10 * n / total) for n in n_docs] != [6, 1, 3]:
        problems.append(f"document split {n_docs} is not 60/10/30")
    if not all(_bio_valid(s.tags) for s in every):
        problems.append("invalid BIO tags")
    if any(tag not in TAGS for _, tag in tokens):
        problems.append("tag outside the scheme")
    return stats, problems
