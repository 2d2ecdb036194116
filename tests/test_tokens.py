"""Tokenizer rule and contract tests."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_text import ReferenceTokenizer

from hrr import tokens
from hrr.embedding import HashedBowEmbedder
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
        assert tok.token_spans("") == []

    def test_unicode_words(self, tok):
        assert tok.count_tokens("naïve café") == 2
        assert tok.count_tokens("привет мир 2024") == 3

    def test_spans_recover_tokens(self, tok):
        text = "Alpha, beta; gamma!"
        tokens = [text[s:e] for s, e in tok.token_spans(text)]
        assert tokens == ["Alpha", ",", "beta", ";", "gamma", "!"]


class TestContract:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_spans_monotone_and_counted(self, text):
        tok = WordPunctTokenizer()
        spans = tok.token_spans(text)
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
            assert tok.tokens(s) == [s[a:b] for a, b in tok.token_spans(s)]

    @given(st.one_of(st.text(max_size=200), TRICKY_TEXT, WIDE_TEXT), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tokenization_is_local(self, text, data):
        # Cut anywhere that splits no token: the piece's spans are the
        # document spans inside the cut, shifted, and are what it counts.
        tok = WordPunctTokenizer()
        spans = tok.token_spans(text)
        inside = {i for s, e in spans for i in range(s + 1, e)}
        cuts = [i for i in range(len(text) + 1) if i not in inside]
        start = data.draw(st.sampled_from(cuts))
        end = data.draw(st.sampled_from([c for c in cuts if c >= start]))
        expected = [(s - start, e - start) for s, e in spans if start <= s and e <= end]
        assert tok.token_spans(text[start:end]) == expected
        assert tok.count_tokens(text[start:end]) == len(expected)

    def test_deterministic(self, tok):
        text = "Some mixed: text, with 42 numbers étoile."
        assert tok.token_spans(text) == tok.token_spans(text)


class TestMatchesReference:
    """The memo and numpy paths equal one regex scan over the whole text."""

    @given(st.one_of(st.text(max_size=200), TRICKY_TEXT, WIDE_TEXT, EDGE_TEXT))
    @settings(max_examples=400, deadline=None)
    def test_scans_equal_the_regex(self, text):
        tok, ref = WordPunctTokenizer(), ReferenceTokenizer()
        for s in (text, text.lower()):
            spans = tok.token_spans(s)
            assert spans == ref.token_spans(s)
            assert all(type(offset) is int for span in spans for offset in span)
            assert tok.count_tokens(s) == ref.count_tokens(s)
            assert tok.tokens(s) == ref.tokens(s)

    def test_memos_overflowing_mid_batch_change_nothing(self, monkeypatch):
        texts = [f"Wörd{i}, x{i % 7}. İ{i}Σ_{i}! ok" for i in range(40)] + [" \t", "a", "ok"]
        counts = list(map(WordPunctTokenizer().count_tokens, texts))
        rows = HashedBowEmbedder(16).embed_batch(texts)
        clears = []

        def clear(memo):
            clears.append(len(memo))
            dict.clear(memo)

        monkeypatch.setattr(tokens.Memo, "clear", clear)
        monkeypatch.setattr(tokens, "_MEMO_SIZE", 3)
        # Never resting, every text goes through the memos.
        monkeypatch.setattr(tokens.Memo, "judge", lambda memo, misses, lookups, tokens: None)
        assert list(map(WordPunctTokenizer().count_tokens, texts)) == counts
        assert counts == list(map(ReferenceTokenizer().count_tokens, texts))
        assert len(clears) > len(texts)
        clears.clear()
        small = HashedBowEmbedder(16).embed_batch(texts)
        # The embedder's memos emptied themselves many times within the batch.
        assert len(clears) > len(texts)
        for array in ("indptr", "columns", "values"):
            assert getattr(small, array).tobytes() == getattr(rows, array).tobytes()

    def test_resting_memos_change_nothing(self, monkeypatch):
        """Texts of new words make a memo rest, known words wake it again,
        and counts and rows equal those of memos that never rest."""
        tok, ref = WordPunctTokenizer(), ReferenceTokenizer()
        memo, known = tok._counts, "the cat, the dog."
        new = [" ".join(f"w{i}x{j}" for j in range(5)) + "." for i in range(300)]
        rested = spent = 0
        for text in [known] * 50 + new:
            rested += memo.resting > 0
            assert tok.count_tokens(text) == ref.count_tokens(text)
        # Most new texts were scanned without the memo.
        assert rested > len(new) / 2 and memo.misses < len(new) * 5 / 2
        while memo.resting > 0:
            spent += tok.count_tokens(known)
        assert spent <= tokens._MEMO_MAX_REST
        misses = memo.misses
        for _ in range(10):
            assert tok.count_tokens(known) == 6 and memo.resting == 0
        assert memo.misses == misses
        texts = [known] * 50 + new + [known] * 5
        rows = HashedBowEmbedder(32).embed_batch(texts)
        monkeypatch.setattr(tokens.Memo, "judge", lambda memo, misses, lookups, tokens: None)
        awake = HashedBowEmbedder(32).embed_batch(texts)
        for array in ("indptr", "columns", "values"):
            assert getattr(awake, array).tobytes() == getattr(rows, array).tobytes()

    def test_memo_is_bounded_in_characters(self, monkeypatch):
        monkeypatch.setattr(tokens, "_MEMO_CHARS", 10)
        tok, pieces = WordPunctTokenizer(), ["ab,c", "defg", "hi", "a" * 12, "jk"]
        for piece in pieces:
            assert tok.count_tokens(piece) == ReferenceTokenizer().count_tokens(piece)
            memo = tok._counts
            assert memo.chars == sum(map(len, memo)) and (memo.chars <= 10 or len(memo) == 1)
            memo.resting = 0
        assert list(memo) == ["jk"]
        assert tok.count_tokens("ab,c jk") == 4 and memo.misses == len(pieces) + 1


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
    assert WordPunctTokenizer().token_spans(text) == ReferenceTokenizer().token_spans(text)


class TestRegistry:
    def test_lookup(self):
        assert get_tokenizer("word-punct").name == "word-punct"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown tokenizer"):
            get_tokenizer("bpe-9000")
