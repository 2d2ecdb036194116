"""Sentence boundary detection tests."""

import pytest
import reference_text
from hypothesis import given, settings
from hypothesis import strategies as st

from hrr.chunking import ChunkingConfig, build_corpus
from hrr.corpus import Level
from hrr.sentences import _LOOK_BACK, ABBREVIATIONS, split_sentences

from reads import nodes_of


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
        sentences = list(nodes_of(corpus, Level.SENTENCE))
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


def _mixed_case(word):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda ups: "".join(c.upper() if up else c for c, up in zip(word, ups)))


#: Every abbreviation, in mixed case.
ABBREVIATION = st.sampled_from(sorted(ABBREVIATIONS)).flatmap(_mixed_case)
#: Words around the look-back's length, some ending in an abbreviation.
LONG_WORD = st.tuples(
    st.text(alphabet="xyzXÉ_9", min_size=_LOOK_BACK - 6, max_size=_LOOK_BACK + 2),
    st.one_of(ABBREVIATION, st.just("")),
).map("".join)
#: What a splitter can get wrong: abbreviations, dotted initials, long words
#: before a period, terminator runs, blank lines holding \r and tabs, and
#: lines that only look blank; Unicode uppercase, a titlecase letter, and
#: Unicode whitespace.
PIECE = st.one_of(
    ABBREVIATION.map(lambda word: word + "."),
    LONG_WORD.map(lambda word: word + "."),
    st.sampled_from(["e.g.", "i.e.", "U.S.", "A.", "x.", "a.b.c.", "Q.E.D.", "3.5", "..A"]),
    st.sampled_from([".", "!", "?", "?!.", "...", "!!", "?."]),
    st.sampled_from([" ", "  ", "\n", "\n\n", "\n \t\r\n", "\r\n\r\n", "\n\t\n", "\t",
                     "\u00a0", "\u2003", "\x85", "\n\u00a0\n", "\n\x0c\n", "\n\x85\n"]),
    st.sampled_from(["The", "the", "É", "Élan", "é", "Σ", "σ", "ǅ", "ǆ", "İt", "x", "Go"]),
    st.text(alphabet="aZÉǅ.!? \n\t", max_size=4),
)


class TestMatchesReference:
    """One pass over terminator runs splits as the run-by-run reference does."""

    @given(st.one_of(st.lists(PIECE, max_size=40).map("".join), st.text(max_size=120)))
    @settings(max_examples=600, deadline=None)
    def test_spans_equal_the_reference(self, text):
        assert split_sentences(text) == reference_text.split_sentences(text)

    @pytest.mark.parametrize("text,expected", [
        # Titlecase is not uppercase.
        ("Titlecase ends. ǅemal is not upper.", ["Titlecase ends. ǅemal is not upper."]),
        ("Wide space.\u2003Next one.\x85Last.", ["Wide space.", "Next one.", "Last."]),
        ("Blank.\n \t\r\nlower starts a block.", ["Blank.", "lower starts a block."]),
        # A form feed is whitespace, but not part of a blank line.
        ("Not blank.\n\x0c\nlower stays.", ["Not blank.\n\x0c\nlower stays."]),
        ("Word abcdefgapprox. Next.", ["Word abcdefgapprox.", "Next."]),
        ("Ask ?!. Then go", ["Ask ?!.", "Then go"]),
        ("Mr. X. Y. Zed. E.g. Now.", ["Mr. X.", "Y.", "Zed.", "E.g. Now."]),
    ])
    def test_documented_edges(self, text, expected):
        assert sentences_of(text) == expected
        assert split_sentences(text) == reference_text.split_sentences(text)
