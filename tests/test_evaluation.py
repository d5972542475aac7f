import numpy as np
import pytest

from chemner.corpus import LabelScheme, sentence_from_texts
from chemner.evaluation import (EntitySpan, confusion_matrix, error_listing, evaluate,
                                format_confusion, format_errors, format_report,
                                spans_from_bio)

SCHEME = LabelScheme(("G", "M"))


def tid(names):
    return [SCHEME.tag_id(n) for n in names]


def sent(tag_names, doc="d0"):
    texts = [f"w{i}" for i in range(len(tag_names))]
    return sentence_from_texts(texts, tid(tag_names), doc)


class TestSpansFromBio:
    def test_b_then_i(self):
        assert spans_from_bio(tid(["B-G", "I-G", "O"]), SCHEME) == [EntitySpan(0, 2, "G")]

    def test_all_outside(self):
        assert spans_from_bio(tid(["O", "O"]), SCHEME) == []

    def test_adjacent_b(self):
        assert spans_from_bio(tid(["B-G", "B-G"]), SCHEME) == [
            EntitySpan(0, 1, "G"), EntitySpan(1, 2, "G")]

    def test_label_change_closes(self):
        assert spans_from_bio(tid(["B-G", "I-M"]), SCHEME) == [
            EntitySpan(0, 1, "G"), EntitySpan(1, 2, "M")]

    def test_trailing_span_closed(self):
        assert spans_from_bio(tid(["O", "B-M", "I-M"]), SCHEME) == [EntitySpan(1, 3, "M")]

    def test_dangling_i_opens(self):
        assert spans_from_bio(tid(["I-G", "I-G"]), SCHEME) == [EntitySpan(0, 2, "G")]


class TestEvaluate:
    def test_half_recall_case(self):
        gold = [sent(["B-M", "I-M", "O", "B-G"])]
        pred = [tid(["B-M", "I-M", "O", "O"])]
        report = evaluate(gold, pred, SCHEME)
        assert report.micro.precision == pytest.approx(1.0, abs=1e-12)
        assert report.micro.recall == pytest.approx(0.5, abs=1e-12)
        assert report.micro.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_identity_is_perfect(self):
        gold = [sent(["B-G", "I-G", "O"]), sent(["O", "B-M"])]
        pred = [list(s.tags) for s in gold]
        report = evaluate(gold, pred, SCHEME)
        assert report.micro.f1 == 1.0
        for lab in ("G", "M"):
            assert report.per_label[lab].f1 == 1.0

    def test_boundary_mismatch_counts_nothing(self):
        gold = [sent(["B-G", "I-G"])]
        pred = [tid(["B-G", "O"])]
        report = evaluate(gold, pred, SCHEME)
        assert (report.micro.precision, report.micro.recall, report.micro.f1) == (0, 0, 0)

    def test_zero_over_zero_convention(self):
        gold = [sent(["O", "O"])]
        report = evaluate(gold, [tid(["O", "O"])], SCHEME)
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_micro_from_summed_counts_not_mean_f1(self):
        gold = [sent(["B-G", "O", "B-M"]), sent(["B-G", "O", "O"])]
        pred = [tid(["B-G", "O", "O"]), tid(["B-G", "B-M", "O"])]
        report = evaluate(gold, pred, SCHEME)
        tp = sum(s.tp for s in report.per_label.values())
        fp = sum(s.fp for s in report.per_label.values())
        fn = sum(s.fn for s in report.per_label.values())
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (tp, fp, fn)
        p, r = tp / (tp + fp), tp / (tp + fn)
        assert report.micro.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-15)
        mean_of_f1 = np.mean([s.f1 for s in report.per_label.values()])
        assert report.micro.f1 != pytest.approx(mean_of_f1, abs=1e-3)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        gold, pred = [], []
        for _ in range(30):
            n = int(rng.integers(1, 8))
            g = [int(rng.integers(0, SCHEME.num_tags)) for _ in range(n)]
            p = [int(rng.integers(0, SCHEME.num_tags)) for _ in range(n)]
            gold.append(sentence_from_texts([f"t{i}" for i in range(n)], g, "d"))
            pred.append(p)
        report = evaluate(gold, pred, SCHEME)
        gold_spans = sum(len(spans_from_bio(s.tags, SCHEME)) for s in gold)
        pred_spans = sum(len(spans_from_bio(p, SCHEME)) for p in pred)
        assert report.micro.tp + report.micro.fn == gold_spans
        assert report.micro.tp + report.micro.fp == pred_spans

    def test_permutation_invariance(self):
        gold = [sent(["B-G", "O"]), sent(["B-M", "I-M"]), sent(["O", "B-G"])]
        pred = [tid(["B-G", "O"]), tid(["O", "I-M"]), tid(["B-G", "B-G"])]
        fwd = evaluate(gold, pred, SCHEME)
        rev = evaluate(gold[::-1], pred[::-1], SCHEME)
        assert fwd == rev

    def test_alignment_error_names_sentence(self):
        gold = [sent(["B-G", "O"], doc="docX")]
        with pytest.raises(ValueError, match="docX"):
            evaluate(gold, [tid(["B-G"])], SCHEME)
        with pytest.raises(ValueError, match="gold sentences"):
            evaluate(gold, [], SCHEME)


class TestConfusionMatrix:
    def test_bi_confusion_on_diagonal(self):
        gold = [sent(["B-G"])]
        pred = [tid(["I-G"])]
        cm = confusion_matrix(gold, pred, SCHEME)
        gi = cm.classes.index("G")
        assert cm.counts[gi, gi] == 1
        assert cm.bi_mismatch[gi] == 1

    def test_off_diagonal(self):
        gold = [sent(["O"])]
        pred = [tid(["B-M"])]
        cm = confusion_matrix(gold, pred, SCHEME)
        oi, mi = cm.classes.index("O"), cm.classes.index("M")
        assert cm.counts[oi, mi] == 1
        assert cm.bi_mismatch.sum() == 0

    def test_identity_prediction(self):
        gold = [sent(["B-G", "I-G", "O", "B-M"])]
        pred = [list(gold[0].tags)]
        cm = confusion_matrix(gold, pred, SCHEME)
        assert cm.counts.sum() == 4
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.bi_mismatch.sum() == 0

    def test_token_count_conserved(self):
        gold = [sent(["B-G", "O", "I-M"]), sent(["O"])]
        pred = [tid(["O", "B-G", "I-M"]), tid(["B-G"])]
        cm = confusion_matrix(gold, pred, SCHEME)
        assert cm.counts.sum() == 4
        assert np.all(cm.bi_mismatch <= np.diag(cm.counts))


class TestErrorListing:
    def test_perfect_predictions_empty(self):
        gold = [sent(["B-G", "O"])]
        assert error_listing(gold, [list(gold[0].tags)], SCHEME) == []

    def test_single_fn(self):
        gold = [sent(["B-G", "O"])]
        listing = error_listing(gold, [tid(["O", "O"])], SCHEME)
        assert len(listing) == 1
        assert len(listing[0].false_negatives) == 1
        assert listing[0].false_negatives[0][0] == EntitySpan(0, 1, "G")
        assert not listing[0].false_positives

    def test_ordering_by_error_count(self):
        noisy = sent(["B-G", "B-M", "B-G"], doc="noisy")
        mild = sent(["B-G", "O", "O"], doc="mild")
        gold = [mild, noisy]
        pred = [tid(["O", "O", "O"]), tid(["O", "O", "O"])]
        listing = error_listing(gold, pred, SCHEME)
        assert [e.document_id for e in listing] == ["noisy", "mild"]

    def test_limit(self):
        gold = [sent(["B-G"]) for _ in range(5)]
        pred = [tid(["O"])] * 5
        assert len(error_listing(gold, pred, SCHEME, limit=2)) == 2

    def test_negative_limit_refused(self):
        gold = [sent(["B-G"]) for _ in range(3)]
        assert len(error_listing(gold, [tid(["O"])] * 3, SCHEME, limit=0)) == 0
        with pytest.raises(ValueError, match="limit"):
            error_listing(gold, [tid(["O"])] * 3, SCHEME, limit=-1)


class TestFormatting:
    def test_report_text(self):
        gold = [sent(["B-M", "I-M", "O", "B-G"])]
        report = evaluate(gold, [tid(["B-M", "I-M", "O", "O"])], SCHEME)
        text = format_report(report)
        assert "Micro Avg." in text
        assert "0.6667" in text

    def test_confusion_grid(self):
        gold = [sent(["B-G"])]
        cm = confusion_matrix(gold, [tid(["I-G"])], SCHEME)
        text = format_confusion(cm)
        assert "G\t" in text and "B/I" in text

    def test_error_text(self):
        gold = [sent(["B-G", "O"])]
        listing = error_listing(gold, [tid(["O", "B-M"])], SCHEME)
        text = format_errors(listing)
        assert "FN G" in text and "FP M" in text
