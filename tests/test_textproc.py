import pytest

from chemner.textproc import (RuleConfig, Sentence, TokenizerKind, split_sentences,
                              tokenize_chemical, tokenize_general)

IUPAC = "3-(4,5-dimethylthiazol-2-yl)-2,5-diphenyl tetrazolium bromide"


def texts(tokens):
    return [t.text for t in tokens]


class TestSplitSentences:
    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   \n\t ") == []

    def test_two_sentences(self):
        sents = split_sentences("A salt. It melts.")
        assert [s.text for s in sents] == ["A salt.", "It melts."]

    def test_abbreviation_mp(self):
        sents = split_sentences("mp. 150 C was measured.")
        assert [s.text for s in sents] == ["mp. 150 C was measured."]

    @pytest.mark.parametrize("doc", [
        "e.g. The compound melts.",
        "See Fig. 2 for details.",
        "Patent No. 5 was cited.",
        "Yields were low, e.g. 5 %.",
        "et al. Nothing was found.",
    ])
    def test_abbreviations_do_not_split(self, doc):
        assert len(split_sentences(doc)) == 1

    def test_period_inside_parens_does_not_split(self):
        sents = split_sentences("The salt (mp 150. Not rechecked) melted. It was pure.")
        assert len(sents) == 2

    def test_no_split_without_uppercase_or_digit(self):
        assert len(split_sentences("salt. and water")) == 1

    def test_question_and_exclamation(self):
        sents = split_sentences("Really? Yes! Done.")
        assert [s.text for s in sents] == ["Really?", "Yes!", "Done."]

    @pytest.mark.parametrize("doc", [
        "A salt. It melts.",
        "  Leading space. Then more.  ",
        "One only",
        "mp. 150 C. Next sentence here.",
        "Unicode µg values. Second part.",
    ])
    def test_spans_reconstruct_document(self, doc):
        data = doc.encode("utf-8")
        sents = split_sentences(doc)
        pos = 0
        for s in sents:
            a, b = s.source_span
            assert data[a:b].decode("utf-8") == s.text
            assert data[pos:a].strip() == b""  # only whitespace between sentences
            pos = b
        assert data[pos:].strip() == b""


class TestTokenizeGeneral:
    def test_single_word(self):
        assert texts(tokenize_general(Sentence("water"))) == ["water"]

    def test_punctuation_and_digits(self):
        toks = texts(tokenize_general(Sentence("2,5-diphenyl bromide")))
        assert toks == ["2", ",", "5", "-", "diphenyl", "bromide"]

    def test_empty(self):
        assert tokenize_general(Sentence("")) == []

    def test_letter_digit_boundary(self):
        assert texts(tokenize_general(Sentence("ab2cd"))) == ["ab", "2", "cd"]

    def test_iupac_token_count(self):
        # hand application of the rule: 19 tokens inside the name + 2 words
        assert len(tokenize_general(Sentence(IUPAC))) == 21


class TestTokenizeChemical:
    def test_iupac_example(self):
        toks = texts(tokenize_chemical(Sentence(IUPAC)))
        assert toks == ["3-(4,5-dimethylthiazol-2-yl)-2,5-diphenyl",
                        "tetrazolium", "bromide"]

    def test_no_digits_behaves_general(self):
        toks = texts(tokenize_chemical(Sentence("water and salt")))
        assert toks == ["water", "and", "salt"]

    def test_unbalanced_parens_split(self):
        toks = texts(tokenize_chemical(Sentence("(see Fig. 2)")))
        assert toks == ["(", "see", "Fig", ".", "2", ")"]

    def test_suffix_chunk_merges(self):
        toks = texts(tokenize_chemical(Sentence("substituted-alkyl group")))
        assert toks == ["substituted-alkyl", "group"]

    def test_trailing_punctuation_detaches(self):
        toks = texts(tokenize_chemical(Sentence("with 2,5-diol, then")))
        assert toks == ["with", "2,5-diol", ",", "then"]

    def test_decimal_number(self):
        assert texts(tokenize_chemical(Sentence("1.5 mg"))) == ["1.5", "mg"]

    def test_custom_rules(self):
        rules = RuleConfig(suffixes=("xx",))
        toks = texts(tokenize_chemical(Sentence("substituted-alkyl group"), rules))
        assert toks == ["substituted", "-", "alkyl", "group"]


def gap_reconstruction(sentence, tokens):
    data = sentence.text.encode("utf-8")
    pos = 0
    rebuilt = b""
    for t in tokens:
        rebuilt += data[pos:t.start] + t.text.encode("utf-8")
        assert data[t.start:t.end].decode("utf-8") == t.text
        pos = t.end
    rebuilt += data[pos:]
    return rebuilt == data


SAMPLES = [
    "water",
    IUPAC,
    "2,5-diphenyl bromide!",
    "β-carotene gives 5 µg per dose",
    "(a) 1.5 equiv. of NaOH; [b] reflux",
    "",
    "A  double  space",
]


class TestTokenInvariants:
    @pytest.mark.parametrize("text", SAMPLES)
    @pytest.mark.parametrize("mode", ["general", "chemical"])
    def test_round_trip(self, text, mode):
        sent = Sentence(text)
        toks = TokenizerKind(mode).tokenize(sent)
        assert gap_reconstruction(sent, toks)

    @pytest.mark.parametrize("text", SAMPLES)
    def test_ordering_and_bounds(self, text):
        for mode in ("general", "chemical"):
            toks = TokenizerKind(mode).tokenize(Sentence(text))
            nbytes = len(text.encode("utf-8"))
            prev_end = 0
            for t in toks:
                assert 0 <= t.start < t.end <= nbytes
                assert t.start >= prev_end
                prev_end = t.end

    @pytest.mark.parametrize("text", SAMPLES)
    def test_chemical_merges_general(self, text):
        sent = Sentence(text)
        general = tokenize_general(sent)
        chemical = tokenize_chemical(sent)
        starts = {t.start for t in general}
        ends = {t.end for t in general}
        for t in chemical:
            assert t.start in starts and t.end in ends

    @pytest.mark.parametrize("text", SAMPLES)
    def test_idempotence(self, text):
        for mode in ("general", "chemical"):
            kind = TokenizerKind(mode)
            for t in kind.tokenize(Sentence(text)):
                again = kind.tokenize(Sentence(t.text))
                assert [a.text for a in again] == [t.text]
                assert again[0].start == 0


def test_rule_config_file_roundtrip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"no_split_chars": "-,", "suffixes": ["ium"]}', encoding="utf-8")
    rules = RuleConfig.from_file(str(path))
    assert rules.no_split_chars == "-,"
    assert rules.suffixes == ("ium",)


def test_rule_config_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('\ufeff{"suffixes": ["ium"]}', encoding="utf-8")
    assert RuleConfig.from_file(str(path)).suffixes == ("ium",)


def test_rule_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"bogus": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown keys"):
        RuleConfig.from_file(str(path))
