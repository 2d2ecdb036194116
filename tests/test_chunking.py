"""Chunker behavior: budgets, nesting, partitions, determinism."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
import reference_text
from hypothesis import given, settings
from hypothesis import strategies as st
from reads import level_ids, nodes_of
from test_embedding import reference_vector

from hrr import chunking, embedding
from hrr.chunking import ChunkingConfig, _utf8_offsets, build_corpus
from hrr.corpus import Level, save_corpus, validate_corpus
from hrr.embedding import HashedBowEmbedder
from hrr.errors import ConfigError, EmptyDocumentError, InvalidCorpusError
from hrr.synth import CorpusSpec, generate
from hrr.tokens import _TOKENIZERS, WordPunctTokenizer

TOK = WordPunctTokenizer()


def doc_of_sentences(n_sentences: int, words_per_sentence: int = 7) -> str:
    """Each sentence is words_per_sentence words plus a period."""
    sents = []
    word = 0
    for _ in range(n_sentences):
        body = " ".join(f"word{word + j}" for j in range(words_per_sentence))
        sents.append(body.capitalize() + ".")
        word += words_per_sentence
    return " ".join(sents)


def chunk(text, config):
    """The chunker's nodes for one document ``d``, hierarchy then side tier."""
    return list(nodes_of(build_corpus({"d": text}, config)))


def levels_of(nodes):
    out = {level: [] for level in Level}
    for node in nodes:
        out[node.level].append(node)
    return out


class TestDerivedSizes:
    def test_5000_token_doc_splits_2048_2048_904(self):
        # 625 sentences x (7 words + period) = 5000 tokens; 2048 = 256 * 8
        text = doc_of_sentences(625)
        assert TOK.count_tokens(text) == 5000  # brute-force oracle for the premise
        nodes = chunk(text, ChunkingConfig())
        parents = levels_of(nodes)[Level.PARENT]
        assert [p.token_count for p in parents] == [2048, 2048, 904]
        assert sum(p.token_count for p in parents) == 5000

    def test_small_doc_single_parent_single_intermediate(self):
        text = doc_of_sentences(12)  # 96 tokens
        nodes = chunk(text, ChunkingConfig())
        by_level = levels_of(nodes)
        assert len(by_level[Level.PARENT]) == 1
        assert len(by_level[Level.INTERMEDIATE]) == 1
        assert len(by_level[Level.SENTENCE]) == 12

    def test_600_token_sentence_hard_splits(self):
        text = " ".join(f"w{i}" for i in range(600))  # one 600-token "sentence"
        nodes = chunk(text, ChunkingConfig())
        by_level = levels_of(nodes)
        assert len(by_level[Level.PARENT]) == 1
        inters = by_level[Level.INTERMEDIATE]
        # the 400-token sentence cap yields fragments of 400 + 200 tokens
        assert [i.token_count for i in inters] == [400, 200]
        assert all(i.token_count <= 512 for i in inters)
        assert all(i.hard_split for i in inters)
        # each intermediate holds exactly one sentence fragment
        sentences = by_level[Level.SENTENCE]
        assert len(sentences) == 2
        assert {s.parent_id for s in sentences} == {i.id for i in inters}


class TestErrors:
    def test_empty_document(self):
        with pytest.raises(EmptyDocumentError):
            chunk("", ChunkingConfig())

    def test_whitespace_only(self):
        with pytest.raises(EmptyDocumentError):
            chunk("  \n\n  ", ChunkingConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(parent_size=100, intermediate_size=100),
            dict(parent_overlap=-1),
            dict(intermediate_size=10, intermediate_overlap=10, parent_size=50),
            dict(sub_intermediate_size=512),
            dict(parent_size=0, intermediate_size=0),
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            ChunkingConfig(**kwargs).validate()


class TestHardSplitFlagging:
    def test_pathological_token_becomes_own_chunk(self):
        # 60 single-char tokens with a tiny parent budget force mid-sentence cuts
        text = " ".join("x" * 1 for _ in range(60))
        cfg = ChunkingConfig(
            parent_size=10, intermediate_size=4, sub_intermediate_size=None,
            max_sentence_tokens=400,
        )
        corpus = build_corpus({"d": text}, cfg)
        by_level = levels_of(nodes_of(corpus))
        assert all(p.token_count <= 10 for p in by_level[Level.PARENT])
        assert all(i.token_count <= 4 for i in by_level[Level.INTERMEDIATE])
        assert any(n.hard_split for n in nodes_of(corpus))
        # nothing truncated: parents reassemble the source
        assert validate_corpus(corpus) == []

    def test_giant_single_token_is_kept_and_flagged(self):
        text = "start. " + "y" * 5000 + " more words follow. The end."
        cfg = ChunkingConfig(parent_size=12, intermediate_size=6, sub_intermediate_size=None)
        corpus = build_corpus({"d": text}, cfg)
        giant = [n for n in nodes_of(corpus) if "y" * 5000 in corpus.chunk_text(n.id)]
        assert giant, "giant token must survive chunking"
        assert validate_corpus(corpus) == []


class TestOverlap:
    def test_overlap_extends_spans_but_keeps_ownership(self):
        text = doc_of_sentences(30)  # 240 tokens
        cfg = ChunkingConfig(
            parent_size=80, parent_overlap=16, intermediate_size=40,
            sub_intermediate_size=None,
        )
        nodes = chunk(text, cfg)
        parents = levels_of(nodes)[Level.PARENT]
        assert len(parents) >= 2
        # second parent's span reaches left of the first parent's end
        assert parents[1].char_span[0] < parents[0].char_span[1]
        assert all(p.token_count <= 80 for p in parents)
        # every sentence still has exactly one parent chain
        sentences = levels_of(nodes)[Level.SENTENCE]
        inter_ids = {i.id for i in levels_of(nodes)[Level.INTERMEDIATE]}
        assert all(s.parent_id in inter_ids for s in sentences)

    def test_zero_overlap_partitions(self):
        text = doc_of_sentences(30)
        nodes = chunk(text, ChunkingConfig(parent_size=80, intermediate_size=40, sub_intermediate_size=None))
        parents = levels_of(nodes)[Level.PARENT]
        for prev, nxt in zip(parents, parents[1:]):
            assert prev.char_span[1] == nxt.char_span[0]


def random_document(rng: random.Random, target_tokens: int) -> str:
    """Messy but realistic text: varied sentence lengths, unicode, digits."""
    vocab = [
        "alpha", "beta", "gamma", "delta", "Ωmega", "résumé", "data", "value",
        "system", "42", "piece", "топор", "grid", "flow", "note", "chart",
    ]
    out = []
    tokens = 0
    while tokens < target_tokens:
        n = rng.randint(1, 18)
        words = [rng.choice(vocab) for _ in range(n)]
        terminator = rng.choice([".", "!", "?", ".", "."])
        sentence = " ".join(words).capitalize() + terminator
        out.append(sentence)
        out.append("\n\n" if rng.random() < 0.1 else " ")
        tokens += n + 1
    return "".join(out).strip()


class TestInvariantsFuzzed:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_budget_roundtrip(self, seed):
        rng = random.Random(seed)
        text = random_document(rng, rng.randint(10, 2000))
        cfg = ChunkingConfig(
            parent_size=rng.choice([64, 128, 256]),
            intermediate_size=rng.choice([16, 32]),
            sub_intermediate_size=rng.choice([8, None]),
        )
        corpus = build_corpus({"doc": text}, cfg)
        assert validate_corpus(corpus) == []
        # The corpus checks partitions and token sums when built, and
        # validate_corpus the counts and budgets; spot-check the
        # document-level reassembly here as an independent assertion
        parents = nodes_of(corpus, Level.PARENT)
        joined = b"".join(
            corpus.documents["doc"][n.char_span[0] : n.char_span[1]] for n in parents
        )
        assert joined == text.encode("utf-8")

    def test_determinism(self):
        rng = random.Random(7)
        text = random_document(rng, 500)
        a = chunk(text, ChunkingConfig(parent_size=64, intermediate_size=16, sub_intermediate_size=8))
        b = chunk(text, ChunkingConfig(parent_size=64, intermediate_size=16, sub_intermediate_size=8))
        assert a == b


class TestMonotoneNesting:
    def test_children_follow_text_order(self):
        text = doc_of_sentences(40)
        corpus = build_corpus({"d": text}, ChunkingConfig(parent_size=64, intermediate_size=24, sub_intermediate_size=None))
        spans_by_parent = {}
        for node in nodes_of(corpus):
            if node.parent_id is not None:
                spans_by_parent.setdefault(node.parent_id, []).append(node.char_span)
        assert spans_by_parent
        for spans in spans_by_parent.values():
            assert spans == sorted(spans)


class TestByteOffsets:
    @given(
        st.one_of(
            st.text(alphabet="ab .,\n", max_size=80),
            st.text(max_size=200),
            st.text(alphabet="aé€𝔞😀İ \n", max_size=80),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_utf8_prefix_lengths(self, text):
        to_bytes = _utf8_offsets(text)
        assert to_bytes.dtype == np.int64 and len(to_bytes) == len(text) + 1
        for i in range(len(text) + 1):
            assert to_bytes[i] == len(text[:i].encode("utf-8"))


#: Words mixing multibyte, astral and dotted-capital letters, digits and _.
WORDS = st.text(alphabet="abzé€𝔞😀İı09_", min_size=1, max_size=8)
PUNCTUATION = st.sampled_from([",", "-", "'", ";", "...", "--", "(", ")"])


@st.composite
def multi_sentence_text(draw):
    sentences = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        sentence = draw(st.sampled_from(["The", "İt", "Élan", "A1"]))
        for piece in draw(st.lists(st.one_of(WORDS, PUNCTUATION), max_size=14)):
            sentence += draw(st.sampled_from([" ", "", "  "])) + piece
        sentences.append(sentence + draw(st.sampled_from([".", "!", "?", "?!", "..."])))
    text = sentences[0]
    for sentence in sentences[1:]:
        text += draw(st.sampled_from([" ", "\n", "\n\n", " \t", "\u00a0"])) + sentence
    return text


class TestCountsFromDocumentSpans:
    @pytest.mark.parametrize(
        "config",
        [
            ChunkingConfig(),
            ChunkingConfig(parent_overlap=15, intermediate_overlap=3),
            ChunkingConfig(
                parent_size=64, intermediate_size=16, sub_intermediate_size=8,
                max_sentence_tokens=5,
            ),
            ChunkingConfig(
                parent_size=64, parent_overlap=15, intermediate_size=16,
                intermediate_overlap=3, sub_intermediate_size=8, max_sentence_tokens=5,
            ),
        ],
        ids=["default", "default-overlap", "small", "small-overlap"],
    )
    @given(text=multi_sentence_text())
    @settings(max_examples=60, deadline=None)
    def test_every_count_equals_a_recount(self, config, text):
        corpus = build_corpus({"d": text}, config)
        encoded = text.encode("utf-8")
        for node in nodes_of(corpus):
            start, end = node.char_span
            assert node.token_count == TOK.count_tokens(encoded[start:end].decode("utf-8"))
        assert validate_corpus(corpus) == []

    class PairTokenizer(WordPunctTokenizer):
        """Breaks locality: each span joins two tokens, paired from the start."""

        name = "pairs"

        def token_spans(self, text):
            starts, ends = super().token_spans(text)
            return starts[::2], ends[np.minimum(np.arange(1, len(ends) + 1, 2), len(ends) - 1)]

        def count_tokens(self, text):
            return len(self.token_spans(text)[0])

        def count_each(self, texts):
            return np.array(list(map(self.count_tokens, texts)), dtype=np.int64)

    def test_non_local_tokenizer_is_refused_at_overlap_0(self):
        # A pair that straddles a sentence boundary lies inside no sentence,
        # so the sentences' counts fall short of their intermediate's.
        with pytest.raises(InvalidCorpusError,
                           match="its children at one level do not sum to its token count"):
            build_corpus({"d": doc_of_sentences(5, 2)}, tokenizer=self.PairTokenizer())

    def test_non_local_tokenizer_fails_validation(self, monkeypatch):
        # With overlap the spans need not tile, so only the recount sees it.
        monkeypatch.setitem(_TOKENIZERS, self.PairTokenizer.name, self.PairTokenizer)
        config = ChunkingConfig(parent_overlap=64, intermediate_overlap=16)
        corpus = build_corpus({"d": doc_of_sentences(5, 2)}, config, self.PairTokenizer())
        assert "TokenCountDrift" in {v.rule for v in validate_corpus(corpus)}

    class OneTokenTokenizer(WordPunctTokenizer):
        """Breaks locality the worst way: the whole text is one token."""

        name = "one-token"

        def token_spans(self, text):
            return np.array([0]), np.array([len(text)])

        def count_each(self, texts):
            return np.ones(len(texts), dtype=np.int64)

    def test_sentence_inside_one_token_is_refused(self):
        # The middle sentence holds no token start and no token end, so its
        # count would be -1; no budget can be packed from that.
        with pytest.raises(InvalidCorpusError, match="puts a whole sentence inside one token"):
            build_corpus({"d": doc_of_sentences(3)}, tokenizer=self.OneTokenTokenizer())

    def test_one_span_pass_per_document(self, monkeypatch):
        documents = generate(CorpusSpec(seed=42)).documents
        calls, recounted = Counter(), []
        split = chunking.split_sentences
        for method in ("token_spans", "count_tokens", "count_each"):
            original = getattr(WordPunctTokenizer, method)

            def counted(self, text_or_texts, _original=original, _method=method):
                calls[_method] += 1
                if _method == "count_each":
                    recounted.extend(text_or_texts)
                return _original(self, text_or_texts)

            monkeypatch.setattr(WordPunctTokenizer, method, counted)

        def split_counted(text):
            calls["split_sentences"] += 1
            return split(text)

        monkeypatch.setattr(chunking, "split_sentences", split_counted)
        corpus = build_corpus(documents)
        assert calls == {"token_spans": len(documents), "split_sentences": len(documents)}
        # Validation stays an independent oracle: it recounts every node's
        # own decoded text, in row order, and never reads a document's spans.
        calls.clear()
        assert validate_corpus(corpus) == []
        assert set(calls) == {"count_each"}
        assert recounted == [
            corpus.documents[node.doc_id][slice(*node.char_span)].decode("utf-8")
            for node in nodes_of(corpus)
        ]


@st.composite
def small_corpus(draw):
    """One to three documents of multibyte sentences holding abbreviations,
    dotted initials and terminator runs, some long enough to hard-split."""
    documents = {}
    for doc in range(draw(st.integers(min_value=1, max_value=3))):
        text = draw(multi_sentence_text())
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            at = draw(st.integers(min_value=0, max_value=len(text)))
            insert = draw(st.sampled_from([" Dr. Ng", " e.g. X", " U.S. Army", " vol. II",
                                           " Etc. and", "?! Σ", ". É", "\n\t\r\n"]))
            text = text[:at] + insert + text[at:]
        documents[f"d{doc}"] = text
    return documents


@st.composite
def repeating_corpus(draw):
    """``small_corpus``, with some documents remade from whole copies of
    the others, so sentences and runs of sentences repeat."""
    documents = draw(small_corpus())
    texts = list(documents.values())
    for doc_id in documents:
        if draw(st.booleans()):
            copies = draw(st.lists(st.sampled_from(texts), min_size=2, max_size=4))
            documents[doc_id] = draw(st.sampled_from([" ", "\n\n"])).join(copies)
    return documents


@st.composite
def chunking_configs(draw):
    """Any valid budgets and overlaps, with or without the side tier; the
    sentence cap ranges past the intermediate and parent budgets."""
    intermediate = draw(st.integers(min_value=2, max_value=40))
    parent = draw(st.integers(min_value=intermediate + 1, max_value=120))

    def overlap(size):
        return draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=size - 1)))

    return ChunkingConfig(
        parent_size=parent, parent_overlap=overlap(parent),
        intermediate_size=intermediate, intermediate_overlap=overlap(intermediate),
        sub_intermediate_size=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=intermediate - 1))),
        max_sentence_tokens=draw(st.integers(min_value=1, max_value=2 * parent)),
    )


def reference_in_cut_order(documents, config, tokenizer):
    """The reference chunker's rows in the order ``build_corpus`` writes
    them: each document's parents, intermediates and sentences in turn,
    then the side tier. The reference's rows are depth-first, so each
    level's are in text order, and a stable sort by (side tier, document,
    level) puts them in that order; parent rows follow their nodes."""
    rows = reference_text.node_rows(documents, config, tokenizer)
    side = list(Level).index(Level.SUB_INTERMEDIATE)
    order = sorted(range(len(rows)), key=lambda r: (rows[r][1] == side, rows[r][2], rows[r][1]))
    moved = {old: new for new, old in enumerate(order)}
    rows = [(*rows[r][:3], moved.get(rows[r][3], -1), *rows[r][4:]) for r in order]
    return reference_text.corpus_of_rows(documents, rows, config, tokenizer.name)


class TestMatchesReferenceChunker:
    """The array cut builds the recursive chunker's rows in ``reference_text``,
    in cut order: the same ids and the same seven columns, or, under a
    tokenizer that is not local, the same refusal."""

    @given(documents=repeating_corpus(), config=chunking_configs(), local=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_same_ids_and_columns(self, documents, config, local):
        tokenizer = WordPunctTokenizer() if local else TestCountsFromDocumentSpans.PairTokenizer()

        def outcome(build):
            try:
                corpus = build(documents, config, tokenizer)
            except InvalidCorpusError as exc:
                return str(exc)
            return list(corpus._ids), [column.tolist() for column in corpus._cols]

        expected = outcome(reference_in_cut_order)
        assert outcome(build_corpus) == expected
        assert local is False or not isinstance(expected, str)


def reference_csr(texts, dimension):
    """The ``CsrBatch`` arrays of ``texts`` by the per-text recipe."""
    rows = [reference_vector(text, dimension) for text in texts]
    columns = [np.flatnonzero(row) for row in rows]
    indptr = np.cumsum([0, *map(len, columns)], dtype=np.int64)
    values = np.concatenate([row[cols] for row, cols in zip(rows, columns)])
    return indptr, np.concatenate(columns).astype(np.uint16), values


class TestIngestMatchesReference:
    """The fast tokenizer and splitter build the corpus, and embed the rows,
    that the regex reference tokenizer and splitter do."""

    @pytest.mark.parametrize("config", [
        ChunkingConfig(),
        ChunkingConfig(parent_size=64, intermediate_size=16, sub_intermediate_size=8,
                       max_sentence_tokens=5),
    ], ids=["default", "small"])
    @given(documents=small_corpus())
    @settings(max_examples=40, deadline=None)
    def test_same_node_table_and_rows(self, config, documents):
        corpus = build_corpus(documents, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chunking, "split_sentences", reference_text.split_sentences)
            expected = build_corpus(documents, config, reference_text.ReferenceTokenizer())
        assert nodes_of(corpus) == nodes_of(expected)
        assert validate_corpus(corpus) == []
        embedder = HashedBowEmbedder()
        for level in corpus.levels:
            # The first text again, so that a one-chunk level is a batch of
            # two, which comes back as CSR.
            texts = [corpus.chunk_text(chunk_id) for chunk_id in level_ids(corpus, level)]
            texts.append(texts[0])
            rows = embedder.embed_batch(texts)
            for array, want in zip((rows.indptr, rows.columns, rows.values),
                                   reference_csr(texts, embedder.dimension)):
                assert array.tobytes() == want.tobytes()


class CodePointTokenizer(WordPunctTokenizer):
    """Local, and finer than the embedder's tokenizer: every code point,
    whitespace too, is a token. So a hard split can fall inside a word, and
    a chunk can hold only whitespace, which the embedder finds no token in."""

    name = "code-points"

    def token_spans(self, text):
        starts = np.arange(len(text))
        return starts, starts + 1

    def count_each(self, texts):
        return np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))


#: Words for the stream oracle: the two code points whose lowercase is not
#: local (``İ`` and ``Σ``), both small sigmas, ``ß`` and ``ẞ``, astral
#: letters, underscores and punctuation runs, alone and glued to words.
STREAM_WORDS = ["alpha", "Beta", "GAMMA", "naïve", "東京", "İ", "İstanbul", "Σ", "ΑΣ", "ΑΣ.Β",
                "ς", "σοφία", "ß", "STRAẞE", "𐐀𐐨", "𐍈x", "_", "__init__", "a_b", "...", "?!",
                "--", "x.y", "Ǆ", "K"]


def proof_holds(text: str) -> bool:
    """The embedder's proof for a document: ASCII, or neither ``İ`` nor ``Σ``."""
    return text.isascii() or not ("İ" in text or "Σ" in text)


@st.composite
def stream_corpus(draw):
    """Two to four documents of sentences of ``STREAM_WORDS``, glued or
    spaced; the first passes the embedder's proof and the second fails it."""
    documents = {}
    for doc in range(draw(st.integers(min_value=2, max_value=4))):
        words = STREAM_WORDS if doc else [w for w in STREAM_WORDS if proof_holds(w)]
        sentences = []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            sentence = "".join(
                word + draw(st.sampled_from([" ", " ", "", "\n"]))
                for word in draw(st.lists(st.sampled_from(words), min_size=1, max_size=10)))
            sentences.append(sentence.strip() + draw(st.sampled_from([".", "!", "?", "...", ""])))
        if doc == 1:
            at = draw(st.integers(min_value=0, max_value=len(sentences)))
            sentences.insert(at, draw(st.sampled_from(["İt.", "ΟΔΟΣ.", "ΑΣ.Β"])))
        documents[f"d{doc}"] = draw(st.sampled_from([" ", "\n\n", "  "])).join(sentences)
    return documents


def embedded_as_recipe(corpus, embedder):
    """Embed every level of ``corpus`` through ``embedder`` from
    ``texts_at``, as ingest does, and whether each level's rows are the
    per-text recipe's bits (``reference_csr``, or one dense row)."""
    same, dimension = [], embedder.dimension
    for level in corpus.levels:
        texts = corpus.texts_at(level)
        rows, plain = embedder.embed_batch(texts), list(texts)
        if len(plain) == 1:
            same.append(rows[0].tobytes() == reference_vector(plain[0], dimension).tobytes())
            continue
        arrays = (rows.indptr, rows.columns, rows.values)
        same.append(all(array.tobytes() == expected.tobytes()
                        for array, expected in zip(arrays, reference_csr(plain, dimension))))
    return same


class TestStreamMatchesRecipe:
    """The rows the hashed-bow embedder counts from each document's token
    stream are the per-text recipe's, bit for bit, at every level; rows
    that the proof cannot cover fall back to their text."""

    @given(documents=stream_corpus(), config=chunking_configs(),
           tokenizer=st.sampled_from([WordPunctTokenizer(), CodePointTokenizer()]),
           dimension=st.sampled_from([8, 384]),
           block_chars=st.one_of(st.integers(min_value=1, max_value=80),
                                 st.just(embedding._BLOCK_CHARS)))
    @settings(max_examples=120, deadline=None)
    def test_every_level_is_the_recipe(self, documents, config, tokenizer, dimension,
                                       block_chars):
        corpus = build_corpus(documents, config, tokenizer)
        embedder = HashedBowEmbedder(dimension)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_BLOCK_CHARS", block_chars)
            assert all(embedded_as_recipe(corpus, embedder))
        streamed = [level for level in corpus.levels if len(corpus.rows_at(level)) > 1]
        if streamed:
            # Every document holds rows at every level, so each one that
            # passes the proof is streamed once, and every row of the others
            # falls back.
            assert embedder.streamed == sum(map(proof_holds, documents.values()))
            failing = [row for row, text in enumerate(documents.values()) if not proof_holds(text)]
            assert embedder.fallback_rows >= sum(
                int(np.isin(corpus.texts_at(level).doc, failing).sum()) for level in streamed)
        assert embedder._stream is None

    def test_each_fallback_and_a_tokenless_row(self):
        """A document that fails the proof, a row whose span cuts a word and
        rows of only whitespace, in one corpus, are each the recipe."""
        documents = {"plain": "Alpha beta gamma.  Delta σοφία x.", "sigma": "ΑΣ.Β naïve. Σ!"}
        config = ChunkingConfig(parent_size=12, intermediate_size=6, sub_intermediate_size=3,
                                max_sentence_tokens=1)
        corpus = build_corpus(documents, config, CodePointTokenizer())
        assert " " in list(corpus.texts_at(Level.SENTENCE))  # no token
        assert "Alpha beta g" in list(corpus.texts_at(Level.PARENT))  # ends inside a word
        embedder = HashedBowEmbedder(384)
        assert all(embedded_as_recipe(corpus, embedder))
        assert embedder.streamed == 1
        sigma_rows = sum(int((corpus.texts_at(level).doc == 1).sum()) for level in corpus.levels)
        assert embedder.fallback_rows > sigma_rows

    def test_a_stream_that_skips_the_proof_fails_the_oracle(self, monkeypatch):
        """Lowercased whole, ``ΑΣ.Β`` reads a medial ``σ``, where the row
        ``ΑΣ`` alone ends in a final ``ς``: a stream taken without the proof
        gives that row another bucket than the recipe."""
        documents = {"d": "ΑΣ.Β γ. ΑΣ.Β δ."}
        config = ChunkingConfig(parent_size=12, intermediate_size=6, sub_intermediate_size=None,
                                max_sentence_tokens=1)
        corpus = build_corpus(documents, config)
        assert "ΑΣ" in list(corpus.texts_at(Level.SENTENCE))
        assert all(embedded_as_recipe(corpus, HashedBowEmbedder(384)))
        monkeypatch.setattr(embedding, "_NOT_LOCAL_LOWER", ())
        skipped = HashedBowEmbedder(384)
        assert not all(embedded_as_recipe(corpus, skipped))
        assert skipped.streamed == 1


class TestGoldenNodeTables:
    """sha256 of ``nodes.bin`` for the seed-42 synthetic corpus under
    configs the CLI golden digests do not reach: overlap, hard splits (at
    the intermediate and side budgets, then at all three), and no side
    tier. Any change to the cut shows up here."""

    @pytest.mark.parametrize("config, digest", [
        (ChunkingConfig(parent_overlap=64, intermediate_overlap=16),
         "989d91a2aef03d99dc41520a89d93a4ffaa7b0d38522c5c1a4ca2bf02939611f"),
        (ChunkingConfig(parent_size=64, intermediate_size=8, sub_intermediate_size=3,
                        max_sentence_tokens=1000),
         "e03ab2520af92495535f53f33d3081ed1e3ea5d62fddd6b853c4c3c4102d9295"),
        (ChunkingConfig(parent_size=12, intermediate_size=5, sub_intermediate_size=2,
                        max_sentence_tokens=1000),
         "c2545376a6b50c25fe6d04ecf934cc5cfabd36e73fe5e33964805e99d13522fe"),
        (ChunkingConfig(sub_intermediate_size=None),
         "59ab47e3367b03831ed0e13945f76a5e17f2f1b1b2d8966a34ab38860eae550f"),
    ], ids=["overlap-64-16", "budgets-64-8-3", "budgets-12-5-2", "no-side-tier"])
    def test_nodes_bin_digest(self, config, digest, tmp_path):
        save_corpus(build_corpus(generate(CorpusSpec(seed=42)).documents, config), tmp_path)
        assert hashlib.sha256((tmp_path / "nodes.bin").read_bytes()).hexdigest() == digest
