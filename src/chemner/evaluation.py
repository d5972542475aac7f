"""Entity-level exact-match scoring, confusion accounting, error listings."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LabelScheme, TaggedSentence


@dataclass(frozen=True)
class EntitySpan:
    start: int  # token index, inclusive
    end: int    # token index, exclusive
    label: str

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty span [{self.start}, {self.end})")


@dataclass(frozen=True)
class LabelScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class EvalReport:
    per_label: dict[str, LabelScore]
    micro: LabelScore


@dataclass(frozen=True)
class ConfusionMatrix:
    """Token-level class confusion over entity labels plus O.

    ``counts[g, p]`` counts tokens with gold class g predicted as class p;
    ``bi_mismatch[g]`` counts diagonal tokens whose B/I prefix differs.
    """

    classes: tuple[str, ...]
    counts: np.ndarray       # (n, n) int
    bi_mismatch: np.ndarray  # (n,) int


def spans_from_bio(tags: Sequence[int], scheme: LabelScheme) -> list[EntitySpan]:
    """B-x opens a span, and so does an I-x that may not follow the tag
    before it (:meth:`LabelScheme.may_follow`); the I tags that may follow
    extend it. A dangling I-x thus opens the span the corpus reader's repair
    to B-x would."""
    spans: list[EntitySpan] = []
    start, label, prev = 0, None, None
    for i, tid in enumerate([*tags, 0]):  # the final O closes the last span
        if scheme.may_follow(None, tid) or not scheme.may_follow(prev, tid):
            if label is not None:
                spans.append(EntitySpan(start, i, label))
            start, label = i, scheme.label(tid)
        prev = tid
    return spans


def _check_alignment(gold: Sequence[TaggedSentence],
                     pred: Sequence[Sequence[int]]) -> None:
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g.tags) != len(p):
            raise ValueError(
                f"sentence {i} (document {g.document_id}): "
                f"{len(g.tags)} gold tags vs {len(p)} predicted")


def evaluate(gold: Sequence[TaggedSentence], pred: Sequence[Sequence[int]],
             scheme: LabelScheme) -> EvalReport:
    """Exact-match span scoring: TP iff (start, end, label) all agree."""
    _check_alignment(gold, pred)
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for g, p in zip(gold, pred):
        gold_spans = set(spans_from_bio(g.tags, scheme))
        pred_spans = set(spans_from_bio(p, scheme))
        tp.update(span.label for span in gold_spans & pred_spans)
        fp.update(span.label for span in pred_spans - gold_spans)
        fn.update(span.label for span in gold_spans - pred_spans)
    per_label = {lab: LabelScore(tp[lab], fp[lab], fn[lab])
                 for lab in scheme.entity_labels}
    micro = LabelScore(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return EvalReport(per_label=per_label, micro=micro)


def confusion_matrix(gold: Sequence[TaggedSentence], pred: Sequence[Sequence[int]],
                     scheme: LabelScheme) -> ConfusionMatrix:
    _check_alignment(gold, pred)
    classes = tuple(scheme.entity_labels) + ("O",)
    index = {lab: i for i, lab in enumerate(classes)}
    n = len(classes)
    counts = np.zeros((n, n), dtype=np.int64)
    bi = np.zeros(n, dtype=np.int64)
    for g, p in zip(gold, pred):
        for gt, pt in zip(g.tags, p):
            g_prefix, g_label = scheme.split_tag(gt)
            p_prefix, p_label = scheme.split_tag(pt)
            gi = index[g_label if g_label is not None else "O"]
            pi = index[p_label if p_label is not None else "O"]
            counts[gi, pi] += 1
            if gi == pi and g_prefix != p_prefix and g_label is not None:
                bi[gi] += 1
    return ConfusionMatrix(classes=classes, counts=counts, bi_mismatch=bi)


@dataclass(frozen=True)
class ErrorExample:
    sentence_index: int
    document_id: str
    tokens: tuple[str, ...]
    false_negatives: tuple[tuple[EntitySpan, str], ...]  # (span, span text)
    false_positives: tuple[tuple[EntitySpan, str], ...]
    true_positives: tuple[tuple[EntitySpan, str], ...]

    @property
    def error_count(self) -> int:
        return len(self.false_negatives) + len(self.false_positives)


def error_listing(gold: Sequence[TaggedSentence], pred: Sequence[Sequence[int]],
                  scheme: LabelScheme, limit: int = 20) -> list[ErrorExample]:
    """Sentences with span errors, most errors first, truncated at ``limit``."""
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    _check_alignment(gold, pred)
    examples: list[ErrorExample] = []
    for i, (g, p) in enumerate(zip(gold, pred)):
        gold_spans = set(spans_from_bio(g.tags, scheme))
        pred_spans = set(spans_from_bio(p, scheme))
        if gold_spans == pred_spans:
            continue

        def annotate(spans: set[EntitySpan]) -> tuple[tuple[EntitySpan, str], ...]:
            ordered = sorted(spans, key=lambda s: (s.start, s.end, s.label))
            return tuple((s, " ".join(g.tokens[s.start:s.end])) for s in ordered)

        examples.append(ErrorExample(
            sentence_index=i, document_id=g.document_id, tokens=g.tokens,
            false_negatives=annotate(gold_spans - pred_spans),
            false_positives=annotate(pred_spans - gold_spans),
            true_positives=annotate(gold_spans & pred_spans)))
    examples.sort(key=lambda e: -e.error_count)
    return examples[:limit]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_report(report: EvalReport) -> str:
    lines = [f"{'label':<12}{'TP':>6}{'FP':>6}{'FN':>6}{'P':>9}{'R':>9}{'F1':>9}"]
    for lab, sc in [*report.per_label.items(), ("Micro Avg.", report.micro)]:
        lines.append(f"{lab:<12}{sc.tp:>6}{sc.fp:>6}{sc.fn:>6}"
                     f"{sc.precision:>9.4f}{sc.recall:>9.4f}{sc.f1:>9.4f}")
    return "\n".join(lines)


def format_confusion(cm: ConfusionMatrix) -> str:
    header = "gold\\pred\t" + "\t".join(cm.classes)
    lines = [header]
    for i, lab in enumerate(cm.classes):
        lines.append(lab + "\t" + "\t".join(str(int(v)) for v in cm.counts[i]))
    lines.append("B/I mismatch on diagonal:\t"
                 + "\t".join(str(int(v)) for v in cm.bi_mismatch))
    return "\n".join(lines)


def format_errors(examples: Sequence[ErrorExample]) -> str:
    out = []
    for ex in examples:
        out.append(f"# sentence {ex.sentence_index} (document {ex.document_id}, "
                   f"{ex.error_count} errors)")
        out.append("  " + " ".join(ex.tokens))
        for kind, spans in (("FN", ex.false_negatives), ("FP", ex.false_positives),
                            ("TP", ex.true_positives)):
            out.extend(f"  {kind} {span.label} [{span.start}:{span.end}] {text!r}"
                       for span, text in spans)
    return "\n".join(out)
