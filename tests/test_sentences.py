"""Sentence boundary detection tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.corpus import Level
from hrr.sentences import split_sentences


def sentences_of(text):
    return [text[s:e] for s, e in split_sentences(text)]


class TestBasicRules:
    def test_one_terminator_each(self):
        assert sentences_of("A. B? C!") == ["A.", "B?", "C!"]

    def test_empty_and_whitespace(self):
        assert split_sentences("") == []
        assert split_sentences("  \n\t ") == []

    def test_no_terminator_is_one_sentence(self):
        assert sentences_of("no terminator here") == ["no terminator here"]

    def test_trailing_text_after_last_terminator(self):
        assert sentences_of("One. and then some") == ["One. and then some"]
        assert sentences_of("One. And then some") == ["One.", "And then some"]

    def test_lowercase_continuation_not_split(self):
        assert sentences_of("approx. twenty people came.") == [
            "approx. twenty people came."
        ]

    def test_terminator_run(self):
        assert sentences_of("Really?! Yes.") == ["Really?!", "Yes."]

    def test_blank_line_always_splits(self):
        text = "first paragraph without terminator\n\nSecond one"
        assert sentences_of(text) == ["first paragraph without terminator", "Second one"]


class TestAbbreviations:
    def test_title_abbreviation(self):
        assert sentences_of("Dr. Smith arrived. He left.") == [
            "Dr. Smith arrived.",
            "He left.",
        ]

    def test_dotted_abbreviation_suppressed(self):
        # the "e.g." pattern: single letter directly preceded by a period
        assert sentences_of("Take fruit, e.g. Apples. Then leave.") == [
            "Take fruit, e.g. Apples.",
            "Then leave.",
        ]

    def test_standalone_single_letter_still_splits(self):
        assert sentences_of("Plan A. Plan B? Go!") == ["Plan A.", "Plan B?", "Go!"]

    def test_abbreviation_list_word(self):
        assert sentences_of("See vol. Three for details. The end.") == [
            "See vol. Three for details.",
            "The end.",
        ]


class TestHardSplitFallback:
    def test_long_sentence_capped(self):
        # The chunker, not the splitter, caps long sentences.
        words = " ".join(f"w{i}" for i in range(1000))  # 1000 tokens, no terminator
        corpus = build_corpus({"d": words}, ChunkingConfig(max_sentence_tokens=400))
        sentences = list(corpus.nodes_at(Level.SENTENCE))
        assert [n.token_count for n in sentences] == [400, 400, 200]
        assert all(n.hard_split for n in sentences)

    def test_cap_disabled(self):
        # The splitter never caps a long sentence.
        words = " ".join(f"w{i}" for i in range(1000))
        assert split_sentences(words) == [(0, len(words))]


class TestCoverageProperty:
    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs"),
                whitelist_characters="\n.!? ",
            ),
            max_size=300,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_spans_tight_ordered_and_cover_nonspace(self, text):
        spans = split_sentences(text)
        pos = 0
        covered = set()
        for s, e in spans:
            assert pos <= s < e <= len(text)
            assert not text[s].isspace() and not text[e - 1].isspace()
            covered.update(range(s, e))
            pos = e
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Mr. Jones spoke. Mrs. Lee replied.", 2),
        ("Totals rose 3.5 percent. Nobody objected.", 2),
        ("What now? We wait. Until dawn!", 3),
    ],
)
def test_assorted_counts(text, expected):
    assert len(split_sentences(text)) == expected
