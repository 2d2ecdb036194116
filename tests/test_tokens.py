"""Tokenizer rule and contract tests."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_text import ReferenceTokenizer, span_pairs
from test_embedding import reference_vector

from hrr import embedding
from hrr.embedding import HashedBowEmbedder, encodes_as_utf8
from hrr.errors import ConfigError
from hrr.tokens import WordPunctTokenizer, get_tokenizer


#: Text where word, digit, underscore and punctuation runs meet, with letters
#: whose lowercase is longer (İ) or context-dependent (Σ).
TRICKY_TEXT = st.text(alphabet="aZİıßΣς09_!?.,-'\" \t\n", max_size=60)
#: Multibyte, astral and non-ASCII whitespace characters beside the above.
WIDE_TEXT = st.text(alphabet="aZé€𝔞😀İı09_!.,-' \n\u00a0\u2003", max_size=60)
#: Control and Unicode whitespace (file and unit separators, NEL, line
#: separator, ideographic space), underscore, combining marks, digits that
#: are not letters, astral letters with and without case, and a lone
#: surrogate.
EDGE_TEXT = st.text(
    alphabet="aZ09_.!' \t\n\x1c\x1d\x1e\x1f\x85\u2028\u3000\u0301\u0307²٣𝔞𐐀𐐨𝒜İΣ\ud800",
    max_size=60,
)

#: Runs of words that are mostly new to a memo.
NEW_WORDS = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzİΣ", min_size=3, max_size=9), max_size=30
).map(" ".join)
#: Whitespace-free pieces far longer than a word.
LONG_PIECES = st.text(alphabet="aZé€𝔞😀İΣς09_!.,-'", min_size=30, max_size=300)
#: Texts for one ``count_each`` batch: beside the above, word runs that
#: would join if two texts were scanned as one, empty and whitespace-only
#: texts, and ASCII texts that a non-ASCII one turns into code points.
BATCH_TEXT = st.one_of(
    TRICKY_TEXT, WIDE_TEXT, EDGE_TEXT,
    st.sampled_from(["", " ", "\t\n", "\u3000", "foo", "bar", "_", "9", "x.", "İ", "Σ", "ß",
                     "𝔞", "東京"]),
    st.text(alphabet="ab_9 ", max_size=6),
)


@pytest.fixture(scope="module")
def tok():
    return WordPunctTokenizer()


class TestRules:
    def test_words_and_punctuation(self, tok):
        assert tok.count_tokens("One two three.") == 4
        assert tok.count_tokens("don't") == 3  # don + ' + t
        assert tok.count_tokens("a-b") == 3

    def test_whitespace_is_free(self, tok):
        assert tok.count_tokens("  \n\t  ") == 0
        assert tok.count_tokens(" a   b ") == 2

    def test_empty(self, tok):
        assert tok.count_tokens("") == 0
        assert span_pairs(tok.token_spans("")) == []

    def test_unicode_words(self, tok):
        assert tok.count_tokens("naïve café") == 2
        assert tok.count_tokens("привет мир 2024") == 3

    def test_spans_recover_tokens(self, tok):
        text = "Alpha, beta; gamma!"
        tokens = [text[s:e] for s, e in span_pairs(tok.token_spans(text))]
        assert tokens == ["Alpha", ",", "beta", ";", "gamma", "!"]


class TestContract:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_spans_monotone_and_counted(self, text):
        tok = WordPunctTokenizer()
        spans = span_pairs(tok.token_spans(text))
        assert len(spans) == tok.count_tokens(text)
        pos = 0
        for s, e in spans:
            assert pos <= s < e <= len(text)
            pos = e

    @given(st.text(max_size=100), st.text(max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_concatenation_never_inflates(self, a, b):
        tok = WordPunctTokenizer()
        assert tok.count_tokens(a + b) <= tok.count_tokens(a) + tok.count_tokens(b) + 1

    @given(st.one_of(st.text(max_size=200), TRICKY_TEXT))
    @settings(max_examples=300, deadline=None)
    def test_tokens_are_the_span_slices(self, text):
        tok = WordPunctTokenizer()
        for s in (text, text.lower()):
            assert tok.tokens(s) == [s[a:b] for a, b in span_pairs(tok.token_spans(s))]

    @given(st.one_of(st.text(max_size=200), TRICKY_TEXT, WIDE_TEXT), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tokenization_is_local(self, text, data):
        # Cut anywhere that splits no token: the piece's spans are the
        # document spans inside the cut, shifted, and are what it counts.
        tok = WordPunctTokenizer()
        spans = span_pairs(tok.token_spans(text))
        inside = {i for s, e in spans for i in range(s + 1, e)}
        cuts = [i for i in range(len(text) + 1) if i not in inside]
        start = data.draw(st.sampled_from(cuts))
        end = data.draw(st.sampled_from([c for c in cuts if c >= start]))
        expected = [(s - start, e - start) for s, e in spans if start <= s and e <= end]
        assert span_pairs(tok.token_spans(text[start:end])) == expected
        assert tok.count_tokens(text[start:end]) == len(expected)

    def test_deterministic(self, tok):
        text = "Some mixed: text, with 42 numbers étoile."
        assert span_pairs(tok.token_spans(text)) == span_pairs(tok.token_spans(text))


class TestCountEach:
    """``count_each`` counts each text of a batch on its own."""

    @given(st.lists(BATCH_TEXT, max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_each_count_equals_the_regex(self, texts):
        counts = WordPunctTokenizer().count_each(texts)
        assert counts.dtype == np.int64
        assert counts.tolist() == list(map(ReferenceTokenizer().count_tokens, texts))

    def test_word_runs_do_not_join_across_texts(self, tok):
        assert tok.count_each(["foo", "bar"]).tolist() == [1, 1]
        texts = ["", "foo", "", "bar", " ", "_9", "é"]
        assert tok.count_each(texts).tolist() == [0, 1, 0, 1, 0, 1, 1]
        assert tok.count_each([]).tolist() == []


class TestMatchesReference:
    """The memo and numpy paths equal one regex scan over the whole text."""

    @given(st.one_of(st.text(max_size=200), TRICKY_TEXT, WIDE_TEXT, EDGE_TEXT))
    @settings(max_examples=400, deadline=None)
    def test_scans_equal_the_regex(self, text):
        tok, ref = WordPunctTokenizer(), ReferenceTokenizer()
        for s in (text, text.lower()):
            starts, ends = tok.token_spans(s)
            assert span_pairs((starts, ends)) == span_pairs(ref.token_spans(s))
            assert starts.dtype == ends.dtype == np.int64
            assert tok.count_tokens(s) == ref.count_tokens(s)
            assert tok.tokens(s) == ref.tokens(s)

    def test_memos_overflowing_mid_batch_change_nothing(self, monkeypatch):
        texts = [f"Wörd{i}, x{i % 7}. İ{i}Σ_{i}! ok" for i in range(40)] + [" \t", "a", "ok"]
        rows = HashedBowEmbedder(16).embed_batch(texts)
        clears = []

        def clear(memo):
            clears.append(len(memo))
            dict.clear(memo)

        monkeypatch.setattr(embedding, "_MEMO_SIZE", 3)
        # Never resting, every text goes through the piece table.
        monkeypatch.setattr(embedding, "_MEMO_MAX_REST", 0)
        # Its token-to-bucket cache holds 3 tokens too, and with each text a
        # block of its own, its piece table empties between the blocks.
        monkeypatch.setattr(embedding.PieceTable, "clear", clear)
        monkeypatch.setattr(embedding, "_BLOCK_CHARS", 1)
        small = HashedBowEmbedder(16).embed_batch(texts)
        # The embedder's piece table emptied itself many times within the batch.
        assert len(clears) > len(texts) / 2
        for array in ("indptr", "columns", "values"):
            assert getattr(small, array).tobytes() == getattr(rows, array).tobytes()

    def test_resting_memos_change_nothing(self, monkeypatch):
        """The embedder's piece table judges reuse over blocks, here of ~200
        characters: blocks of new words make it rest, scanning texts whole,
        and its rows equal those of a table that never rests."""
        known = "the cat, the dog."
        new = [" ".join(f"w{i}x{j}" for j in range(5)) + "." for i in range(300)]
        texts = [known] * 50 + new + [known] * 5
        monkeypatch.setattr(embedding, "_BLOCK_CHARS", 200)
        resting = HashedBowEmbedder(32)
        rows = resting.embed_batch(texts)
        monkeypatch.setattr(embedding, "_MEMO_MAX_REST", 0)
        awake = HashedBowEmbedder(32)
        awake_rows = awake.embed_batch(texts)
        assert resting._table.scanned > len(new) / 2 and awake._table.scanned == 0
        assert resting._table.misses < awake._table.misses
        for array in ("indptr", "columns", "values"):
            assert getattr(awake_rows, array).tobytes() == getattr(rows, array).tobytes()

    @given(st.lists(st.one_of(TRICKY_TEXT, WIDE_TEXT, EDGE_TEXT, NEW_WORDS, LONG_PIECES),
                    min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_one_memo_across_texts_equals_the_regex(self, texts):
        """One embedder, with a piece table and a token cache small enough
        that the texts cross rest and clear, embeds what the recipe gives
        for each text, one at a time and as one batch."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_MEMO_SIZE", 4)
            patch.setattr(embedding, "_MEMO_CHARS", 40)
            patch.setattr(embedding, "_MEMO_MAX_REST", 60)
            embedder = HashedBowEmbedder(16)
            # A lone surrogate is text, but not text UTF-8 can hash.
            texts = list(filter(encodes_as_utf8, texts))
            expected = [reference_vector(text, 16).tobytes() for text in texts]
            for text, row in zip(texts, expected):
                assert embedder.embed_batch([text])[0].tobytes() == row
            if texts:
                assert [row.tobytes() for row in embedder.embed_batch(texts)] == expected


def test_regex_classes_are_the_str_predicates():
    """The fast paths are exact only if, for every code point, ``\\w`` is
    ``isalnum()`` or ``_``, ``\\s`` is ``isspace()`` and is where
    ``str.split()`` splits, and lowercasing leaves at least one character;
    and the span scan's class table, filled block by block, must give the
    regex's spans over every code point. An interpreter whose tables differ
    fails here, not in its artifacts."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    word = "".join(c for c in text if c.isalnum() or c == "_")
    space = "".join(c for c in text if c.isspace())
    assert "".join(re.findall(r"\w", text)) == word
    assert "".join(re.findall(r"\s", text)) == space
    assert "".join(text.split()) == "".join(c for c in text if not c.isspace())
    assert all(map(str.lower, text))
    assert span_pairs(WordPunctTokenizer().token_spans(text)) == span_pairs(
        ReferenceTokenizer().token_spans(text))


class TestRegistry:
    def test_lookup(self):
        assert get_tokenizer("word-punct").name == "word-punct"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown tokenizer"):
            get_tokenizer("bpe-9000")
