"""Tokenizer rule and contract tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrr.errors import ConfigError
from hrr.tokens import WordPunctTokenizer, get_tokenizer


#: Text where word, digit, underscore and punctuation runs meet, with letters
#: whose lowercase is longer (İ) or context-dependent (Σ).
TRICKY_TEXT = st.text(alphabet="aZİıßΣς09_!?.,-'\" \t\n", max_size=60)
#: Multibyte, astral and non-ASCII whitespace characters beside the above.
WIDE_TEXT = st.text(alphabet="aZé€𝔞😀İı09_!.,-' \n\u00a0\u2003", max_size=60)


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


class TestRegistry:
    def test_lookup(self):
        assert get_tokenizer("word-punct").name == "word-punct"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown tokenizer"):
            get_tokenizer("bpe-9000")
