"""Shared builders for toy corpora and models."""

from __future__ import annotations

import pytest

from chemner import numerics as nx
from chemner.corpus import LabelScheme, TaggedSentence, build_vocabulary, sentence_from_texts

TOY_LABELS = ("CHEM", "PROC", "QTY")

_CHEM = ["2-chlorotoluene", "benzene", "acetone", "5-methylfuran", "ethanol"]
_PROC = ["distillation", "heating", "stirring", "filtration"]
_QTY = ["50", "100", "25"]
_FILLER = ["the", "was", "by", "with", "under", "solution", "mixture", "added",
           "then", "into"]


def toy_corpus(n: int = 20, docs: int = 5) -> tuple[list[TaggedSentence], LabelScheme]:
    """Deterministic synthetic corpus: every sentence has CHEM/PROC/QTY spans
    and a unique leading filler word (so a toy LM can memorize it)."""
    scheme = LabelScheme(TOY_LABELS)
    sentences = []
    for i in range(n):
        texts = [_FILLER[i % len(_FILLER)], _CHEM[i % len(_CHEM)]]
        tags = ["O", "B-CHEM"]
        if i % 3 == 0:
            texts.append(_CHEM[(i + 1) % len(_CHEM)])
            tags.append("I-CHEM")
        texts.append(_FILLER[(i + 3) % len(_FILLER)])
        tags.append("O")
        texts.append(_PROC[i % len(_PROC)])
        tags.append("B-PROC")
        texts.append(_QTY[i % len(_QTY)])
        tags.append("B-QTY")
        sentences.append(sentence_from_texts(
            texts, [scheme.tag_id(t) for t in tags], f"doc{i % docs}"))
    return sentences, scheme


@pytest.fixture
def toy_data():
    sentences, scheme = toy_corpus()
    vocab = build_vocabulary(sentences, [], min_count=1)
    return sentences, scheme, vocab


@pytest.fixture
def both_paths(monkeypatch):
    """``both_paths(fn)``: [fn() with each biLSTM layer's reverse direction
    run after its forward one on the calling thread, fn() with it forced
    onto the worker thread]. The forcing holds to the end of the test."""
    def run(fn):
        results = []
        for threaded in (False, True):
            monkeypatch.setattr(nx, "_use_worker", lambda hidden, threaded=threaded: threaded)
            results.append(fn())
        return results
    return run
